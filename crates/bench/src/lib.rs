//! # bench — harness that regenerates every table and figure of the paper
//!
//! Two entry styles:
//! * the `repro` binary (`cargo run -p bench --release --bin repro -- <target>`)
//!   prints each experiment's rows/series as CSV;
//! * Criterion benches (`cargo bench`) cover the micro-scale measurements
//!   (work assignment, nested fork cost, task spawn paths) plus the design
//!   ablations called out in DESIGN.md.
//!
//! Absolute numbers will not match the paper's 36-core Xeon testbed
//! (this container has one core); the *shapes* — who wins, by what factor,
//! where crossovers fall — are the reproduction target (see
//! EXPERIMENTS.md).

#![warn(missing_docs)]

use std::time::{Duration, Instant};

use omp::OmpConfig;
use workloads::util::Stats;
use workloads::RuntimeKind;

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Laptop-scale: small sizes, few repetitions; finishes in minutes.
    Quick,
    /// Paper-scale parameters (slow on a small machine).
    Paper,
}

impl Scale {
    /// Thread counts to sweep (the paper's x-axes go to 72).
    #[must_use]
    pub fn threads(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![1, 2, 4, 8, 16, 36],
            Scale::Paper => vec![1, 2, 4, 8, 16, 18, 32, 36, 40, 48, 64, 72],
        }
    }

    /// Repetitions for wall-time experiments (paper: 50 for apps, 1000
    /// for microbenchmarks).
    #[must_use]
    pub fn reps(self, quick: usize, paper: usize) -> usize {
        match self {
            Scale::Quick => quick,
            Scale::Paper => paper,
        }
    }
}

/// Time `reps` runs of `f`; returns per-run statistics in seconds.
pub fn time_reps(reps: usize, mut f: impl FnMut()) -> Stats {
    let mut st = Stats::new();
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        st.push(t0.elapsed().as_secs_f64());
    }
    st
}

/// Convenience: duration → seconds.
#[must_use]
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Build an `OmpConfig` the way the paper configures runs (§VI-A):
/// `OMP_NESTED=true`, `OMP_PROC_BIND=true`, wait policy per scenario.
/// `GLTO_HOT_ULTS` and `OMP_ADAPTIVE_TRACE` are honored (through the
/// once-parsed process default) so every repro target can be re-run in
/// hot-ULT-team mode, or with decision traces, without code changes.
#[must_use]
pub fn paper_config(threads: usize, wait: glt::WaitPolicy) -> OmpConfig {
    let env = OmpConfig::process_default();
    OmpConfig::with_threads(threads)
        .nested(true)
        .wait_policy(wait)
        .hot_ults(env.hot_ults)
        .adaptive_trace(env.adaptive_trace)
}

/// Print a CSV header for figure sweeps.
pub fn print_series_header(figure: &str, unit: &str) {
    println!("# {figure}");
    println!("figure,runtime,threads,{unit},stddev,reps");
}

/// Print one CSV series row (flushed immediately, so redirected output
/// streams during long sweeps). Also records the row for `repro --json`.
pub fn print_series_row(figure: &str, runtime: &str, threads: usize, st: &Stats) {
    use std::io::Write;
    println!("{figure},{runtime},{threads},{:.6e},{:.2e},{}", st.mean(), st.stddev(), st.count());
    let _ = std::io::stdout().flush();
    record_result(figure, runtime, threads, st.mean() * 1e9, st.min() * 1e9);
}

// ----------------------------------------------------------- JSON results

/// One measurement destined for `repro --json` output.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonRecord {
    /// Target that produced the row (e.g. `fig7`).
    pub target: String,
    /// Runtime label (e.g. `GLTO(ABT)`).
    pub runtime: String,
    /// Team width / thread count the row was measured at.
    pub threads: usize,
    /// Mean time per repetition, nanoseconds.
    pub mean_ns: f64,
    /// Fastest repetition, nanoseconds.
    pub min_ns: f64,
}

static JSON_RECORDS: std::sync::Mutex<Vec<JsonRecord>> = std::sync::Mutex::new(Vec::new());

/// Record one measurement for a later [`write_json`] call. The series
/// print helper records automatically; targets with bespoke row formats
/// (fig7's counter probe, fig14's cut-off sweep) call this directly.
pub fn record_result(target: &str, runtime: &str, threads: usize, mean_ns: f64, min_ns: f64) {
    JSON_RECORDS.lock().unwrap().push(JsonRecord {
        target: target.to_string(),
        runtime: runtime.to_string(),
        threads,
        mean_ns,
        min_ns,
    });
}

/// Record one *counter* reading (steal locality, migrations, …) for
/// `repro --json`: the target is suffixed with the counter name
/// (`steal_locality:steals_cross_domain`) so counter rows sort next to
/// their experiment's timing rows, and the raw count rides in the value
/// fields (they are not nanoseconds for these rows).
pub fn record_counter(target: &str, runtime: &str, threads: usize, counter: &str, value: u64) {
    #[allow(clippy::cast_precision_loss)]
    let v = value as f64;
    record_result(&format!("{target}:{counter}"), runtime, threads, v, v);
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Write every measurement recorded so far as a JSON array to `path`;
/// returns the number of records written. Hand-rolled writer — five flat
/// fields do not justify a serialization dependency.
pub fn write_json(path: &str) -> std::io::Result<usize> {
    let records = JSON_RECORDS.lock().unwrap();
    let mut out = String::from("[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"target\":\"{}\",\"runtime\":\"{}\",\"threads\":{},\
             \"mean_ns\":{:.1},\"min_ns\":{:.1}}}",
            json_escape(&r.target),
            json_escape(&r.runtime),
            r.threads,
            r.mean_ns,
            r.min_ns
        ));
    }
    out.push_str("\n]\n");
    std::fs::write(path, out)?;
    Ok(records.len())
}

/// The runtime subset for the task-parallel figures (the paper omits GNU
/// from the CG study, §VI-E).
#[must_use]
pub fn task_figure_runtimes() -> Vec<RuntimeKind> {
    vec![RuntimeKind::Intel, RuntimeKind::GltoAbt, RuntimeKind::GltoQth, RuntimeKind::GltoMth]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_have_expected_thread_lists() {
        assert!(Scale::Quick.threads().contains(&36));
        assert!(Scale::Paper.threads().contains(&72));
        assert_eq!(Scale::Quick.reps(3, 50), 3);
        assert_eq!(Scale::Paper.reps(3, 50), 50);
    }

    #[test]
    fn time_reps_collects_stats() {
        let st = time_reps(5, || {
            std::hint::black_box((0..100).sum::<u64>());
        });
        assert_eq!(st.count(), 5);
        assert!(st.mean() >= 0.0);
    }

    #[test]
    fn task_runtimes_exclude_gnu() {
        assert!(!task_figure_runtimes().contains(&RuntimeKind::Gnu));
        assert_eq!(task_figure_runtimes().len(), 4);
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape(r#"GLTO("ABT")\x"#), r#"GLTO(\"ABT\")\\x"#);
        assert_eq!(json_escape("a\nb"), "a\\u000ab");
    }

    #[test]
    fn counter_records_suffix_the_target() {
        record_counter("locT", "GLTO(MTH)/sharded", 8, "steals_cross_domain", 17);
        let path = std::env::temp_dir().join("bench_counter_json_test.json");
        let path = path.to_str().unwrap();
        let n = write_json(path).unwrap();
        assert!(n >= 1);
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.contains(r#""target":"locT:steals_cross_domain""#));
        assert!(body.contains(r#""mean_ns":17.0"#));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn json_records_round_trip_to_disk() {
        record_result("figT", "GLTO(ABT)", 4, 1234.5, 1000.0);
        let path = std::env::temp_dir().join("bench_json_test.json");
        let path = path.to_str().unwrap();
        let n = write_json(path).unwrap();
        assert!(n >= 1);
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.starts_with('['));
        assert!(body.trim_end().ends_with(']'));
        assert!(body.contains(r#""target":"figT""#));
        assert!(body.contains(r#""runtime":"GLTO(ABT)""#));
        assert!(body.contains(r#""threads":4"#));
        assert!(body.contains(r#""mean_ns":1234.5"#));
        assert!(body.contains(r#""min_ns":1000.0"#));
        let _ = std::fs::remove_file(path);
    }
}

//! The driver: spawns one cell process at a time, aggregates trials into
//! metrics, prints them, and writes result and trace files.
//!
//! The driver blocks while a cell runs, so a cell never has more than its
//! own threads runnable.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use workloads::RuntimeKind;

use crate::host;
use crate::json::Json;
use crate::spec::{
    self, round_order, time_metric, wait_policy_name, MetricDef, WorkloadId, DEMOTED, RUNTIMES,
};
use crate::stats::{median, rel_iqr, tail};

/// Arguments of the `run` subcommand.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// `None` = all four.
    pub workload: Option<WorkloadId>,
    pub seed: u64,
    /// Measuring time of one pass over one workload.
    pub seconds: f64,
    /// `Some` = exactly that pass and the driver's one-line result;
    /// `None` = both passes and a result file.
    pub trace: Option<bool>,
    pub smoke: bool,
    pub out_dir: PathBuf,
}

/// Timed window of an end-to-end cell. Trial medians differ between
/// processes far more than within one (thread placement is sticky for a
/// process's life), and no less for a window five times as long, so a run
/// buys steadiness with many short fresh-process trials, not long ones.
const CELL_TIMED: Duration = Duration::from_millis(100);
/// A cell that runs this long is hung: it is killed and the run fails.
const CELL_LIMIT: Duration = Duration::from_secs(45);

/// Time budgets handed to each cell of a pass.
#[derive(Debug, Clone, Copy)]
struct CellTimes {
    timed: Duration,
    probe: Duration,
}

impl CellTimes {
    /// Split `seconds` over the cells of a traced pass: 15 % for the
    /// workload's own operations, the rest over the ≈ 17 probe budgets a
    /// GLTO cell spends.
    fn traced(seconds: f64) -> CellTimes {
        let cell = seconds / RUNTIMES.len() as f64;
        CellTimes {
            timed: Duration::from_secs_f64(cell * 0.15),
            probe: Duration::from_secs_f64(cell * 0.80 / 17.0),
        }
    }
}

fn spawn_cell(
    workload: WorkloadId,
    runtime: RuntimeKind,
    seed: u64,
    trace: bool,
    times: CellTimes,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let us = |d: Duration| d.as_micros().to_string();
    let cell = format!("cell {}/{}", workload.name(), runtime.name());
    let mut child = Command::new(exe)
        .args(["cell", "--workload", workload.name(), "--runtime", runtime.name()])
        .args(["--seed", &seed.to_string(), "--trace", if trace { "1" } else { "0" }])
        .args(["--timed-us", &us(times.timed), "--probe-us", &us(times.probe)])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("{cell}: spawn: {e}"))?;
    // Stdout is drained on a side thread (a traced cell prints more than a
    // pipe holds), which reports when the cell closes it at exit. The
    // driver blocks on that report with a time limit rather than polling
    // `try_wait`, so that it never wakes a core while a cell is measured.
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let (done, finished) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let read = stdout.read_to_string(&mut text).map(|_| text);
        let _ = done.send(());
        read
    });
    if finished.recv_timeout(CELL_LIMIT).is_err() {
        let _ = child.kill();
        let _ = child.wait();
        let _ = reader.join();
        return Err(format!("{cell}: no result after {CELL_LIMIT:?}; killed"));
    }
    let status = child.wait().map_err(|e| format!("{cell}: wait: {e}"))?;
    let text = reader
        .join()
        .map_err(|_| format!("{cell}: reader panicked"))?
        .map_err(|e| format!("{cell}: read: {e}"))?;
    if !status.success() {
        return Err(format!("{cell}: {status}"));
    }
    let line = text.lines().last().ok_or_else(|| format!("{cell}: no output"))?;
    Json::parse(line).map_err(|e| format!("{cell}: bad output: {e}"))
}

/// One measured metric of a pass.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Values the median was taken over (one per round), when there are any.
    pub trials: Vec<f64>,
    /// Pooled sample count, and the tail percentile the pool supports.
    pub n: usize,
    pub tail: Option<(f64, f64)>,
}

impl Measured {
    fn plain(name: impl Into<String>, unit: &'static str, value: f64) -> Measured {
        Measured { name: name.into(), unit, value, trials: Vec::new(), n: 0, tail: None }
    }

    fn from_trials(name: impl Into<String>, unit: &'static str, trials: Vec<f64>) -> Measured {
        Measured { value: median(&trials), trials, ..Measured::plain(name, unit, 0.0) }
    }

    fn to_json(&self) -> Json {
        let mut pairs = vec![("value", Json::Num(self.value)), ("unit", Json::str(self.unit))];
        if !self.trials.is_empty() {
            pairs.push(("trials", Json::nums(self.trials.iter().copied())));
            pairs.push(("trials_rel_iqr", Json::Num(rel_iqr(&self.trials))));
        }
        if self.n > 0 {
            pairs.push(("n", Json::Num(self.n as f64)));
        }
        if let Some((p, v)) = self.tail {
            pairs.push(("tail_percentile", Json::Num(p)));
            pairs.push(("tail_value", Json::Num(v)));
        }
        Json::obj(pairs)
    }

    fn print(&self) {
        let mut line = format!("  {:<34} {:>14.6} {:<5}", self.name, self.value, self.unit);
        if let Some((p, v)) = self.tail {
            line += &format!("  p{p:<4} {v:>11.4}  n={:<6}", self.n);
        }
        if self.trials.len() > 1 {
            line += &format!(
                "  {} trials, iqr {:.1}%",
                self.trials.len(),
                rel_iqr(&self.trials) * 100.0
            );
        }
        println!("{}", line.trim_end());
    }
}

/// What one pass over one workload found.
#[derive(Debug, Default)]
pub struct Pass {
    pub metrics: Vec<Measured>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub noisy: bool,
}

impl Pass {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    fn absorb(&mut self, cell: &Json) {
        self.attempted += cell.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        self.failed += cell.get("failed").and_then(Json::as_u64).unwrap_or(0);
        let runtime = cell.get("runtime").and_then(Json::as_str).unwrap_or("?");
        for e in cell.get("errors").and_then(Json::as_arr).unwrap_or(&[]) {
            self.errors.push(format!("{runtime}: {}", e.as_str().unwrap_or("?")));
        }
    }

    /// Metrics of the pass, restricted to and ordered as `defs`.
    fn select(&self, defs: &[MetricDef]) -> Result<Vec<&Measured>, String> {
        defs.iter()
            .map(|d| {
                self.metrics
                    .iter()
                    .find(|m| m.name == d.name && m.value.is_finite())
                    .ok_or_else(|| format!("metric {} was not measured", d.name))
            })
            .collect()
    }

    fn metrics_json(&self) -> Json {
        Json::obj(self.metrics.iter().map(|m| (m.name.clone(), m.to_json())))
    }
}

/// Run the fixed CPU loop before and after `body`; a drift above 10 %
/// marks the pass noisy. Returns the pass and the faster reading.
fn with_spin_check(body: impl FnOnce() -> Result<Pass, String>) -> Result<(Pass, f64), String> {
    let before = host::spin_ms();
    let mut pass = body()?;
    let after = host::spin_ms();
    pass.noisy = (after - before).abs() > 0.10 * before.min(after);
    Ok((pass, before.min(after)))
}

/// One round of an end-to-end pass: a fresh-process trial per runtime.
struct Round {
    /// Per runtime (indexed as [`RUNTIMES`]): the trial's op times in ms.
    samples_ms: Vec<Vec<f64>>,
    setup_s: f64,
    rss_mb: f64,
}

/// End-to-end pass, tracing off: rounds of fresh-process trials, each
/// visiting every runtime in a seeded order, until `seconds` have passed
/// (`None` = exactly one round).
fn untraced_pass(
    w: WorkloadId,
    seed: u64,
    seconds: Option<f64>,
    times: CellTimes,
) -> Result<Pass, String> {
    let started = Instant::now();
    let mut pass = Pass::default();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.is_empty() || seconds.is_some_and(|s| started.elapsed().as_secs_f64() < s) {
        let mut round =
            Round { samples_ms: vec![Vec::new(); RUNTIMES.len()], setup_s: 0.0, rss_mb: 0.0 };
        for runtime in round_order(seed, rounds.len()) {
            let cell = spawn_cell(w, runtime, seed, false, times)?;
            pass.absorb(&cell);
            let slot = RUNTIMES.iter().position(|k| *k == runtime).expect("from RUNTIMES");
            round.samples_ms[slot] = cell.f64s("samples_ns").iter().map(|ns| ns / 1e6).collect();
            let field = |k| cell.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
            round.setup_s += field("setup_ns") / 1e9;
            round.rss_mb = round.rss_mb.max(field("rss_kb") / 1024.0);
        }
        rounds.push(round);
    }
    for (slot, runtime) in RUNTIMES.into_iter().enumerate() {
        let medians = rounds.iter().map(|r| median(&r.samples_ms[slot])).collect();
        let pooled: Vec<f64> =
            rounds.iter().flat_map(|r| r.samples_ms[slot].iter().copied()).collect();
        let mut m = Measured::from_trials(time_metric(runtime), "ms", medians);
        m.n = pooled.len();
        m.tail = tail(&pooled);
        pass.metrics.push(m);
    }
    let setup = rounds.iter().map(|r| r.setup_s).collect();
    pass.metrics.push(Measured::from_trials("setup_s", "s", setup));
    let rss: Vec<f64> = rounds.iter().map(|r| r.rss_mb).collect();
    let peak = rss.iter().copied().fold(0.0, f64::max);
    pass.metrics.push(Measured { value: peak, ..Measured::from_trials("rss_mb", "MB", rss) });
    Ok(pass)
}

/// Traced pass: one round of the same cells with spans, counter deltas
/// and the probe suite. Writes `trace.<workload>.json` into `out_dir`.
fn traced_pass(w: WorkloadId, seed: u64, times: CellTimes, out_dir: &Path) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let defs = spec::per_layer();
    let unit_of = |name: &str| defs.iter().find(|d| d.name == name).map_or("?", |d| d.unit);
    let mut shared: Vec<(&str, Vec<f64>)> =
        vec![("service.submit_ns", vec![]), ("service.start_shutdown_ms", vec![])];
    let (mut overhead, mut rejected, mut cells) = (Vec::new(), 0.0, Vec::new());
    for runtime in round_order(seed, 0) {
        let cell = spawn_cell(w, runtime, seed, true, times)?;
        pass.absorb(&cell);
        overhead.extend(cell.get("trace_overhead_frac").and_then(Json::as_f64));
        rejected += cell.get("rejected").and_then(Json::as_f64).unwrap_or(0.0);
        for (name, value) in cell.get("probes").and_then(Json::as_obj).unwrap_or(&[]) {
            let value = value.as_f64().unwrap_or(f64::NAN);
            if name == "service.rejected" {
                rejected += value;
            } else if let Some((_, values)) = shared.iter_mut().find(|(n, _)| n == name) {
                values.push(value);
            } else {
                pass.metrics.push(Measured::plain(name.clone(), unit_of(name), value));
            }
        }
        if DEMOTED.contains(&runtime) {
            let ms = median(&cell.f64s("samples_ns")) / 1e6;
            pass.metrics.push(Measured::plain(time_metric(runtime), "ms", ms));
        }
        cells.push(Json::obj(
            ["runtime", "traced_ops", "trace_overhead_frac", "probes", "spans"]
                .into_iter()
                .filter_map(|k| cell.get(k).map(|v| (k, v.clone()))),
        ));
    }
    // Measured in every real runtime's cell but not specific to one.
    for (name, values) in shared {
        pass.metrics.push(Measured::plain(name, unit_of(name), median(&values)));
    }
    pass.metrics.push(Measured::plain("service.rejected", "count", rejected));
    pass.metrics.push(Measured::plain("trace.overhead_frac", "ratio", median(&overhead)));
    // Cells were visited in seeded order; report in the spec's order.
    pass.metrics.sort_by_key(|m| defs.iter().position(|d| d.name == m.name));

    let trace = Json::obj([
        ("workload", Json::str(w.name())),
        ("seed", Json::Num(seed as f64)),
        ("span_fields", Json::str("start_ns/end_ns since the cell's tracer epoch; parent indexes this cell's span list; self_ns = duration minus direct children")),
        ("cells", Json::Arr(cells)),
    ]);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("trace.{}.json", w.name()));
    std::fs::write(&path, trace.to_line() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(pass)
}

fn print_pass(title: &str, w: WorkloadId, seed: u64, pass: &Pass) {
    println!(
        "== {} · {title} · seed {seed} · wait policy {} · ops {} attempted, {} failed{} ==",
        w.name(),
        wait_policy_name(w.wait_policy()),
        pass.attempted,
        pass.failed,
        if pass.noisy { " · NOISY: host.spin_ms drifted > 10 %" } else { "" },
    );
    for m in &pass.metrics {
        m.print();
    }
    for e in &pass.errors {
        println!("  ERROR {e}");
    }
}

fn pass_json(pass: &Pass) -> Vec<(&'static str, Json)> {
    vec![
        ("ops_attempted", Json::Num(pass.attempted as f64)),
        ("ops_failed", Json::Num(pass.failed as f64)),
        ("correct", Json::Bool(pass.correct())),
        ("noisy", Json::Bool(pass.noisy)),
        ("errors", Json::Arr(pass.errors.iter().cloned().map(Json::Str).collect())),
        ("metrics", pass.metrics_json()),
    ]
}

/// The last line the driver reads: `correct`, `attempted`, `failed` and
/// exactly the metrics `defs` names.
fn contract_line(pass: &Pass, defs: &[MetricDef]) -> Result<String, String> {
    let metrics = pass.select(defs)?.into_iter().map(|m| {
        (m.name.clone(), Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]))
    });
    Ok(Json::obj([
        ("correct", Json::Bool(pass.correct())),
        ("attempted", Json::Num(pass.attempted as f64)),
        ("failed", Json::Num(pass.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .to_line())
}

/// Entry point of `run`. `Ok(true)` when every output was correct.
pub fn run(args: &RunArgs) -> Result<bool, String> {
    if host::nproc() < spec::WIDTH {
        return Err(format!(
            "nproc is {}: width-{} teams would time-share one core, so no end-to-end number is emitted",
            host::nproc(),
            spec::WIDTH
        ));
    }
    let untraced_times = CellTimes { timed: CELL_TIMED, probe: Duration::ZERO };
    // A smoke run makes one round; a full run keeps the traced pass to a
    // third of the end-to-end one.
    let (untraced_seconds, traced_times) = if args.smoke {
        let ms = Duration::from_millis;
        (None, CellTimes { timed: ms(40), probe: ms(2) })
    } else {
        let traced_seconds = if args.trace.is_some() { args.seconds } else { args.seconds / 3.0 };
        (Some(args.seconds), CellTimes::traced(traced_seconds))
    };
    let run_untraced = |w| {
        with_spin_check(|| untraced_pass(w, args.seed, untraced_seconds, untraced_times))
            .map(|(pass, _)| pass)
    };
    let run_traced = |w| {
        with_spin_check(|| traced_pass(w, args.seed, traced_times, &args.out_dir)).map(
            |(mut pass, spin)| {
                pass.metrics.push(Measured::plain("host.spin_ms", "ms", spin));
                pass
            },
        )
    };

    if let (Some(w), Some(trace)) = (args.workload, args.trace) {
        let (pass, defs) = if trace {
            (run_traced(w)?, spec::per_layer())
        } else {
            (run_untraced(w)?, spec::end_to_end())
        };
        print_pass(if trace { "traced pass" } else { "end-to-end pass" }, w, args.seed, &pass);
        println!("{}", contract_line(&pass, &defs)?);
        return Ok(pass.correct());
    }

    let mut all_correct = true;
    let mut per_workload = Vec::new();
    for w in WorkloadId::ALL.into_iter().filter(|w| args.workload.is_none_or(|only| only == *w)) {
        let e2e = run_untraced(w)?;
        print_pass("end-to-end pass (tracing off)", w, args.seed, &e2e);
        let layers = run_traced(w)?;
        print_pass("traced pass (spans, counters, probes)", w, args.seed, &layers);
        all_correct &= e2e.correct() && layers.correct();
        per_workload.push((
            w.name(),
            Json::obj([
                ("wait_policy", Json::str(wait_policy_name(w.wait_policy()))),
                ("end_to_end_pass", Json::obj(pass_json(&e2e))),
                ("traced_pass", Json::obj(pass_json(&layers))),
            ]),
        ));
    }
    let host = host::provenance();
    let result = Json::obj([
        ("schema", Json::str("glto-benchmark/1")),
        ("mode", Json::str(if args.smoke { "smoke" } else { "full" })),
        ("seed", Json::Num(args.seed as f64)),
        ("host", host.clone()),
        ("workloads", Json::obj(per_workload)),
        ("correct", Json::Bool(all_correct)),
        // This benchmark defines the baseline; it claims no gain.
        ("claim", Json::Null),
    ]);
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let path = args.out_dir.join("result.json");
    std::fs::write(&path, result.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "result: {}   traces: {}/trace.<workload>.json",
        path.display(),
        args.out_dir.display()
    );
    println!(
        "{}",
        Json::obj([("correct", Json::Bool(all_correct)), ("host", host), ("claim", Json::Null),])
            .to_line()
    );
    Ok(all_correct)
}

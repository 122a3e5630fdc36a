//! `compare <a.json> <b.json>`: per (metric, workload) verdict between two
//! result files, using the bounds the benchmark fixed.

use crate::json::Json;
use crate::spec::{end_to_end, WorkloadId};
use crate::stats::median_rel_iqr;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Within,
    /// The run-to-run spread is wider than the bound: no verdict either way.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Within => "within",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Verdict for a lower-is-better metric going from `a` to `b`. `spread` is
/// the wider of the two sides' expected run-to-run IQR
/// ([`median_rel_iqr`] of the trial medians), as a share of the value.
pub fn verdict(a: f64, b: f64, spread: f64, bound: f64) -> Verdict {
    let change = (b - a) / a;
    if spread > bound {
        Verdict::Unresolved
    } else if change > bound {
        Verdict::Worse
    } else if change < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn pass<'a>(result: &'a Json, workload: &str) -> Option<&'a Json> {
    result.get("workloads")?.get(workload)?.get("end_to_end_pass")
}

fn failed_share(pass: &Json) -> f64 {
    let n = |k| pass.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    n("ops_failed") / n("ops_attempted").max(1.0)
}

/// Print one row per (metric, workload). `Ok(true)` when nothing got
/// worse and no workload fails a larger share of its operations.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let mut ok = true;
    let mut compared = 0;
    println!(
        "{:<13} {:<18} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "a", "b", "change", "spread", "bound"
    );
    for w in WorkloadId::ALL {
        let (Some(pa), Some(pb)) = (pass(a, w.name()), pass(b, w.name())) else { continue };
        for def in end_to_end() {
            // (value, expected run-to-run spread) of the metric in one result.
            let side = |p: &Json| {
                let m = p.get("metrics").and_then(|m| m.get(&def.name));
                let value = m.and_then(|m| m.get("value")).and_then(Json::as_f64);
                let spread = median_rel_iqr(&m.map_or(vec![], |m| m.f64s("trials")));
                value
                    .map(|v| (v, spread))
                    .ok_or_else(|| format!("{}/{}: no value", w.name(), def.name))
            };
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let ((va, sa), (vb, sb)) = (side(pa)?, side(pb)?);
            let spread = sa.max(sb);
            let v = verdict(va, vb, spread, bound);
            ok &= v != Verdict::Worse;
            compared += 1;
            println!(
                "{:<13} {:<18} {va:>12.5} {vb:>12.5} {:>+7.1}% {:>7.1}% {:>5.0}%  {}",
                w.name(),
                def.name,
                (vb - va) / va * 100.0,
                spread * 100.0,
                bound * 100.0,
                v.name()
            );
        }
        let (fa, fb) = (failed_share(pa), failed_share(pb));
        if fb > fa {
            ok = false;
            println!("{:<13} failed share rose from {fa:.4} to {fb:.4}", w.name());
        }
    }
    if compared == 0 {
        return Err("the two results share no workload".into());
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        assert_eq!(verdict(10.0, 10.4, 0.01, 0.05), Verdict::Within);
        assert_eq!(verdict(10.0, 9.6, 0.01, 0.05), Verdict::Within);
        assert_eq!(verdict(10.0, 10.6, 0.01, 0.05), Verdict::Worse);
        assert_eq!(verdict(10.0, 9.4, 0.01, 0.05), Verdict::Better);
        // A spread wider than the bound decides nothing, whatever the change.
        assert_eq!(verdict(10.0, 12.0, 0.06, 0.05), Verdict::Unresolved);
        assert_eq!(verdict(10.0, 10.0, 0.06, 0.05), Verdict::Unresolved);
    }
}

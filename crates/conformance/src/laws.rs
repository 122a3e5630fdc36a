//! Structural verdicts: counter conservation laws after quiesce, the
//! case runner that applies them, and the pinned validation-suite counts.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use glt::CounterSnapshot;
use omp::{OmpConfig, OmpRuntime};
use workloads::RuntimeKind;

use crate::Case;

fn work_signature(s: &CounterSnapshot) -> Vec<u64> {
    const UNITS: [&str; 4] = ["ults_created", "tasklets_created", "units_executed", "steals"];
    s.iter().filter(|(c, _)| UNITS.contains(c) || c.starts_with("tasks_")).map(|(_, v)| v).collect()
}

/// Wait until the runtime's work counters stop moving (all in-flight units
/// have retired). Idle-probe counters (`steal_fails`, `parks`) are
/// deliberately excluded from the stability check: spinning idle workers
/// keep bumping them forever on stealing backends.
pub fn quiesce(rt: &dyn OmpRuntime) {
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut prev = work_signature(&rt.counters().snapshot());
    loop {
        std::thread::sleep(Duration::from_micros(200));
        let cur = work_signature(&rt.counters().snapshot());
        if cur == prev || Instant::now() > deadline {
            return;
        }
        prev = cur;
    }
}

/// Quiesce-then-check: the counter conservation laws that must hold on any
/// runtime once all joins have returned. Cached execution resources are
/// retired first (GLTO's `GLTO_HOT_ULTS` parks member ULTs between forks;
/// a parked ULT is created-but-unfinished, which the drained laws would
/// misread as a lost unit). Returns violation messages (empty = OK).
#[must_use]
pub fn check_counter_invariants(rt: &dyn OmpRuntime) -> Vec<String> {
    rt.retire_cached();
    quiesce(rt);
    rt.counters().snapshot().invariant_violations(true)
}

/// Run `case` on `rt`: whether it returned `true`, whether it panicked, and
/// the counter-law violations it left (unchecked after a panic: mid-unwind
/// counters are legitimately mid-flight).
pub(crate) fn verdict(
    rt: &dyn OmpRuntime,
    case: impl Fn(&dyn OmpRuntime) -> bool,
) -> (bool, bool, Vec<String>) {
    match catch_unwind(AssertUnwindSafe(|| case(rt))) {
        Ok(ok) => (ok, false, check_counter_invariants(rt)),
        Err(_) => (false, true, Vec::new()),
    }
}

/// Run one case on one runtime kind built from `cfg` (team size, shared
/// queues, hot ULTs, topology...), then verify counter invariants.
///
/// # Errors
///
/// A human-readable description of the first failure: the case returned
/// `false`, panicked, or left the counters violating a conservation law.
pub fn run_case(kind: RuntimeKind, cfg: OmpConfig, name: &str, case: Case) -> Result<(), String> {
    let (rt, on) = (kind.build(cfg), kind.name());
    match verdict(rt.as_ref(), case) {
        (_, true, _) => Err(format!("case `{name}` panicked on {on}")),
        (false, ..) => Err(format!("case `{name}` failed on {on}")),
        (.., viol) if viol.is_empty() => Ok(()),
        (.., viol) => Err(format!("case `{name}` on {on}: counter invariants violated: {viol:?}")),
    }
}

/// The three GLTO runtimes, the matrix for the fork- and queue-mechanism
/// variants: shared queues (`GLT_SHARED_QUEUES=1`, §IV-F), hot ULT teams
/// (`GLTO_HOT_ULTS=1`) and synthetic topologies. Each changes
/// *scheduling*, never *results*: the curated cases and the pinned
/// validation-suite counts must match the default matrix exactly.
#[must_use]
pub fn glto_matrix() -> [RuntimeKind; 3] {
    [RuntimeKind::GltoAbt, RuntimeKind::GltoQth, RuntimeKind::GltoMth]
}

/// Expected validation-suite pass count for each matrix runtime, with the
/// reason for every deliberate shortfall from 126. Pinned so a regression
/// in *any* runtime turns the matrix red.
#[must_use]
pub fn expected_suite_passes(kind: RuntimeKind) -> usize {
    match kind {
        // Cross-mode detector entries need a real second thread to
        // demonstrate detection; the serialized baseline can't.
        RuntimeKind::Serial => SERIAL_SUITE_PASSES,
        // Table I: GNU and Intel both fail the five final/untied/taskyield
        // entries (no mid-task migration, `final` runs deferred).
        RuntimeKind::Gnu | RuntimeKind::Intel => 121,
        // Help-first GLTO cannot migrate started untied tasks (DESIGN.md).
        RuntimeKind::GltoAbt | RuntimeKind::GltoQth | RuntimeKind::GltoMth => 122,
        // Same help-first model; additionally, race *detector* entries that
        // rely on OS timeslicing see token-serialized execution and cannot
        // demonstrate detection under the stepper.
        RuntimeKind::GltoDet { .. } => DET_SUITE_PASSES,
        // Composes the Intel-like and GLTO engines, but both composed
        // engines honor `final` (the adaptive pomp engine executes final
        // tasks directly), so whichever mechanism a suite entry's region
        // is routed to — probe or commit — it scores the GLTO count.
        RuntimeKind::Adaptive => 122,
    }
}

/// See [`expected_suite_passes`]. The serialized baseline runs every
/// entry with a team of one: entries that verify team size, cross-thread
/// interaction, or race *detection* cannot pass by construction.
pub const SERIAL_SUITE_PASSES: usize = 78;
/// See [`expected_suite_passes`]: the stealing-GLTO count (122) minus the
/// two cross-mode race-detector entries (`critical (cross)`,
/// `atomic (cross)`) that cannot demonstrate detection under token
/// serialization. This is a *floor*: the suite's `omp flush` consumer
/// raw-spins and is released by the stall watchdog, after which the run
/// continues under OS scheduling, where those two detector entries may
/// nondeterministically pass (see `validation_suite_matrix_is_green`).
pub const DET_SUITE_PASSES: usize = 120;

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    use omp::{LockKind, OmpRuntimeExt, Schedule};

    use super::*;
    use crate::cases::adaptive_commit_storm;
    use crate::fast_stall;

    /// Build `kind` from `cfg`, run the validation suite, and assert its
    /// pinned pass count. `glto-det` accepts [`DET_SUITE_PASSES`] up to the
    /// stealing-GLTO count: after the designed flush-consumer stall the det
    /// run free-runs under OS scheduling, where the two cross-mode
    /// race-detector entries may (machine-dependently) demonstrate their
    /// race.
    fn assert_suite_pinned(kind: RuntimeKind, cfg: OmpConfig, label: &str) {
        let r = validation::run_suite(kind.build(cfg).as_ref());
        let range = match kind {
            RuntimeKind::GltoDet { .. } => {
                DET_SUITE_PASSES..=expected_suite_passes(RuntimeKind::GltoMth)
            }
            _ => expected_suite_passes(kind)..=expected_suite_passes(kind),
        };
        assert!(
            range.contains(&r.passed),
            "{} ({label}): passed {} outside {range:?}: {}",
            kind.name(),
            r.passed,
            r.row()
        );
    }

    #[test]
    fn validation_suite_matrix_is_green() {
        fast_stall();
        for kind in RuntimeKind::matrix() {
            assert_suite_pinned(kind, OmpConfig::with_threads(4), "default");
        }
    }

    #[test]
    fn shared_queue_suite_passes_are_pinned() {
        fast_stall();
        for kind in glto_matrix() {
            assert_suite_pinned(
                kind,
                OmpConfig::with_threads(4).shared_queues(true),
                "shared queues",
            );
        }
    }

    #[test]
    fn hot_ult_suite_passes_are_pinned() {
        fast_stall();
        for kind in glto_matrix() {
            assert_suite_pinned(kind, OmpConfig::with_threads(4).hot_ults(true), "hot ULTs");
        }
    }

    #[test]
    fn validation_suite_passes_are_pinned_under_synthetic_topologies() {
        fast_stall();
        for spec in ["2x4x1", "2x4x2"] {
            let topo = glt::Topology::parse(spec).expect("valid spec");
            for kind in glto_matrix() {
                assert_suite_pinned(kind, OmpConfig::with_threads(4).topology(topo), spec);
            }
        }
    }

    #[test]
    fn adaptive_suite_passes_pinned_across_probe_budgets() {
        fast_stall();
        // probe_k=1 is the CI fast-explore setting; 2 is the default. The
        // pinned count must hold under both — mechanism routing may
        // differ, semantics may not.
        for k in [1u32, 2] {
            let cfg = OmpConfig::with_threads(4).adaptive_probe_k(k);
            assert_suite_pinned(RuntimeKind::Adaptive, cfg, &format!("probe_k={k}"));
        }
    }

    /// Build `kind` from `cfg`, run `workload`, assert the drained counter
    /// laws, and return the final snapshot.
    fn drained(
        kind: RuntimeKind,
        cfg: OmpConfig,
        workload: impl FnOnce(&dyn OmpRuntime),
    ) -> CounterSnapshot {
        let label = format!("{} {cfg:?}", kind.name());
        let rt = kind.build(cfg);
        workload(rt.as_ref());
        let viol = check_counter_invariants(rt.as_ref());
        assert!(viol.is_empty(), "{label}: {viol:?}");
        rt.counters().snapshot()
    }

    #[test]
    fn counter_invariants_hold_under_hot_ults_with_width_changes() {
        fast_stall();
        for kind in glto_matrix() {
            // `check_counter_invariants` retires the parked team first, so
            // the drained laws must hold afterwards.
            let s = drained(kind, OmpConfig::with_threads(4).hot_ults(true), |rt| {
                for width in [4usize, 2, 4, 4] {
                    let hits = AtomicU64::new(0);
                    rt.parallel_n(Some(width), |_| {
                        hits.fetch_add(1, Ordering::SeqCst);
                    });
                    assert_eq!(hits.into_inner() as usize, width, "{}", kind.name());
                }
            });
            assert!(s.ults_reused >= 3, "{}: final same-width fork must reuse", kind.name());
        }
    }

    #[test]
    fn adaptive_counter_laws_hold_across_probe_budgets() {
        fast_stall();
        for k in [1u32, 2, 4] {
            let cfg = OmpConfig::with_threads(3).adaptive_probe_k(k);
            let s = drained(RuntimeKind::Adaptive, cfg, |rt| {
                assert!(adaptive_commit_storm(rt), "storm must pass (probe_k={k})");
            });
            let commits = s.adaptive_commits_os + s.adaptive_commits_ult;
            assert!(s.adaptive_probes >= commits, "probe_k={k}: commits without probes");
            assert!(commits >= 2, "probe_k={k}: both storm callsites must commit ({s:?})");
        }
    }

    #[test]
    fn lock_slow_paths_obey_counter_laws_across_matrix() {
        fast_stall();
        for kind in RuntimeKind::matrix() {
            for lk in [LockKind::SpinYield, LockKind::Mcs] {
                let cfg = OmpConfig::with_threads(4).lock_kind(lk).spin_budget(8);
                let s = drained(kind, cfg, |rt| {
                    rt.parallel(|ctx| {
                        for _ in 0..32 {
                            ctx.critical("law-storm", || {});
                        }
                    });
                });
                for (law, n) in [("yields", s.lock_yields), ("handoffs", s.lock_handoffs)] {
                    let spins = s.lock_spins;
                    assert!(n <= spins, "{} {lk:?}: {law} {n} > spins {spins}", kind.name());
                }
            }
        }
    }

    #[test]
    fn counter_invariants_hold_after_mixed_workload_on_every_runtime() {
        fast_stall();
        for kind in RuntimeKind::matrix() {
            drained(kind, OmpConfig::with_threads(4), run_task_storm);
        }
    }

    /// Mixed work-sharing and tasking: a dynamic loop, then a burst of
    /// yielding tasks from one producer, then `taskwait`.
    fn run_task_storm(rt: &dyn OmpRuntime) {
        let hits = AtomicU64::new(0);
        let hits = &hits;
        rt.parallel(|ctx| {
            ctx.for_each(0..32, Schedule::Dynamic { chunk: 4 }, |_| {
                hits.fetch_add(1, Ordering::SeqCst);
            });
            ctx.single(|| {
                for _ in 0..24 {
                    ctx.task(move |c| {
                        hits.fetch_add(1, Ordering::SeqCst);
                        c.taskyield();
                    });
                }
            });
            ctx.taskwait();
        });
    }

    #[test]
    fn locality_laws_hold_across_matrix_and_topologies() {
        fast_stall();
        for spec in ["1x1x1", "2x4x1", "2x4x2"] {
            let topo = glt::Topology::parse(spec).expect("valid spec");
            for kind in RuntimeKind::matrix() {
                let s = drained(kind, OmpConfig::with_threads(4).topology(topo), run_task_storm);
                let (same, cross) = (s.steals_same_domain, s.steals_cross_domain);
                let name = kind.name();
                assert_eq!(same + cross, s.steals, "{name} under {spec}: locality must conserve");
                if topo.num_domains() == 1 {
                    assert_eq!(cross, 0, "{name} under {spec}: one domain has no cross steals");
                }
            }
        }
    }

    #[test]
    fn bound_teams_never_steal_across_sockets() {
        fast_stall();
        let topo = glt::Topology::parse("2x4x2").expect("valid spec");
        let kinds = [RuntimeKind::GltoAbt, RuntimeKind::GltoMth, RuntimeKind::GltoDet { seed: 7 }];
        for bind in [omp::ProcBind::Close, omp::ProcBind::Master, omp::ProcBind::Spread] {
            for kind in kinds {
                let cfg = OmpConfig::with_threads(4).topology(topo).proc_bind(bind);
                let s = drained(kind, cfg, run_task_storm);
                let name = kind.name();
                assert_eq!(
                    s.steals_cross_domain, 0,
                    "{name} bound with {bind:?} stole across sockets"
                );
            }
        }
    }
}

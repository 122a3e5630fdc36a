//! One seeded-schedule harness: run, sweep, replay and shrink a case under
//! the deterministic `glt-det` backend, on either det target.

use glt::CounterSnapshot;
use glt_det::{DetScheduler, EventKind};
use glto::{Backend, GltoRuntime};
use omp::{OmpConfig, OmpRuntime};
use omp_adaptive::{AdaptiveRuntime, CallsiteDecision, Mechanism};

use crate::laws::verdict;
use crate::Case;

/// The runtime a det run builds over the seeded `glt-det` backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DetTarget {
    /// `glto-det`: GLTO with every scheduling decision drawn from the seed.
    Glto,
    /// `omp-adaptive` over the det ULT engine: additionally, every
    /// mechanism decision is a seeded [`EventKind::External`] draw, and
    /// each run is audited for commit consistency
    /// ([`DetRun::wrong_commits`]).
    Adaptive,
}

/// Outcome of one deterministic run of a case.
#[derive(Debug, Clone)]
pub struct DetRun {
    /// Seed the schedule was drawn from.
    pub seed: u64,
    /// Randomized-decision budget the run was capped at.
    pub budget: u64,
    /// The case returned `true`.
    pub ok: bool,
    /// The case panicked (counts as a failure).
    pub panicked: bool,
    /// The stall watchdog fired (schedule no longer trustworthy).
    pub stalled: bool,
    /// Counter conservation-law violations after quiesce.
    pub violations: Vec<String>,
    /// Randomized scheduling decisions actually drawn. Replays of one seed
    /// draw the same count on [`DetTarget::Glto`] only: on
    /// [`DetTarget::Adaptive`] the OS-engine probe regions free-run, and
    /// the master's waits inside them yield through the det stepper.
    pub decisions: u64,
    /// The `(callsite, pick)` stream of adaptive mechanism decisions, in
    /// master-thread program order (empty on [`DetTarget::Glto`]). Replays
    /// of one seed must produce the identical stream.
    pub external: Vec<(u64, usize)>,
    /// Commit-consistency audit failures on [`DetTarget::Adaptive`] (empty
    /// = every committed memo-table entry matches its seeded commit draw).
    pub wrong_commits: Vec<String>,
}

impl DetRun {
    /// Conforming run: case passed, no stall, laws hold, and every commit
    /// matches its seeded draw.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.ok
            && !self.panicked
            && !self.stalled
            && self.violations.is_empty()
            && self.wrong_commits.is_empty()
    }

    /// What a replay of this run on `target` must reproduce: the verdict,
    /// the external stream and, on [`DetTarget::Glto`] only, the
    /// scheduling-decision count.
    fn replayed(&self, target: DetTarget) -> (bool, Option<u64>, &[(u64, usize)]) {
        (self.passed(), (target == DetTarget::Glto).then_some(self.decisions), &self.external)
    }
}

/// The commit-consistency audit behind [`DetRun::wrong_commits`]: a
/// committed entry's mechanism must equal the **last** external draw
/// recorded for its callsite — in det mode the commit pick is itself the
/// final seeded draw of the explore phase. Entries still exploring are
/// skipped; a post-budget fallback draw (`pick == 0`) legitimately commits
/// the OS mechanism, which is what lets [`shrink`] bound a wrong commit to
/// a minimal prefix of real draws.
fn audit_commits(decisions: &[CallsiteDecision], external: &[(u64, usize)]) -> Vec<String> {
    let drawn = |callsite| {
        let (_, pick) = external.iter().rev().find(|&&(tag, _)| tag == callsite)?;
        Some(if *pick == 1 { Mechanism::Ult } else { Mechanism::Os })
    };
    decisions
        .iter()
        .filter_map(|d| {
            let (committed, drawn) = (d.committed?, drawn(d.callsite));
            (drawn != Some(committed)).then(|| {
                format!("callsite {:#x} committed {committed:?}, seeded draw {drawn:?}", d.callsite)
            })
        })
        .collect()
}

/// Run `case` on `rt` and collect every verdict but the commit audit.
fn observe(
    rt: &dyn OmpRuntime,
    det: &DetScheduler,
    case: impl Fn(&dyn OmpRuntime) -> bool,
    seed: u64,
    budget: u64,
) -> DetRun {
    let (ok, panicked, violations) = verdict(rt, case);
    let external = det
        .events()
        .into_iter()
        .filter_map(|e| match e.kind {
            EventKind::External { tag, pick } => Some((tag, pick)),
            _ => None,
        })
        .collect();
    DetRun {
        seed,
        budget,
        ok,
        panicked,
        stalled: det.stalled(),
        violations,
        decisions: det.decisions(),
        external,
        wrong_commits: Vec::new(),
    }
}

/// Run `case` once on `target` built from `cfg` over the det backend, with
/// the given seed and randomized-decision budget (`u64::MAX` = fully
/// randomized). `cfg` carries team size, topology and binding, so a sweep
/// explores those without touching process-wide environment variables.
#[must_use]
pub fn run_det(
    target: DetTarget,
    case: impl Fn(&dyn OmpRuntime) -> bool,
    cfg: &OmpConfig,
    seed: u64,
    budget: u64,
) -> DetRun {
    const SCHED: &str = "Det backend exposes its scheduler";
    let backend = Backend::Det { seed, max_random_decisions: budget };
    match target {
        DetTarget::Glto => {
            let rt = GltoRuntime::new(backend, cfg.clone());
            observe(&*rt, rt.det_scheduler().expect(SCHED), case, seed, budget)
        }
        DetTarget::Adaptive => {
            let rt = AdaptiveRuntime::with_backend(backend, cfg.clone());
            let mut run = observe(&*rt, rt.det_scheduler().expect(SCHED), case, seed, budget);
            run.wrong_commits = audit_commits(&rt.decisions(), &run.external);
            run
        }
    }
}

/// Result of a seed sweep.
#[derive(Debug)]
pub struct SweepReport {
    /// Case name (for messages).
    pub case_name: String,
    /// Seeds run.
    pub seeds_run: usize,
    /// Seeds whose run failed (case false/panic/stall/invariant/commit).
    pub failing: Vec<u64>,
}

impl SweepReport {
    /// Assert that every seed passed.
    ///
    /// # Panics
    ///
    /// Naming the failing seeds, if any failed.
    #[track_caller]
    pub fn assert_all_passed(&self) {
        let (name, failing, n) = (&self.case_name, &self.failing, self.seeds_run);
        assert!(failing.is_empty(), "case `{name}` failed seeds {failing:?} of {n} swept");
    }
}

/// Sweep `case` on `target` across `seeds` at full randomness. Every
/// failing seed is printed with a replay recipe: the seed plus the same
/// target and `cfg` reproduce the schedule.
pub fn sweep(
    target: DetTarget,
    name: &str,
    case: impl Fn(&dyn OmpRuntime) -> bool,
    cfg: &OmpConfig,
    seeds: impl IntoIterator<Item = u64>,
) -> SweepReport {
    let threads = cfg.num_threads;
    let mut report = SweepReport { case_name: name.to_string(), seeds_run: 0, failing: Vec::new() };
    for seed in seeds {
        report.seeds_run += 1;
        let run = run_det(target, &case, cfg, seed, u64::MAX);
        if !run.passed() {
            eprintln!(
                "conformance: case `{name}` FAILED on {target:?} (threads={threads}): {run:?}\n\
                 conformance: replay with conformance::run_det(DetTarget::{target:?}, case, \
                 &cfg, {seed}, u64::MAX)"
            );
            report.failing.push(seed);
        }
    }
    report
}

/// Shrink a failing seed: binary-search the smallest randomized-decision
/// budget that still fails. Past the budget every draw — scheduler and
/// adaptive alike — falls back to a fixed alternative, so the returned
/// budget bounds the prefix of seeded decisions the failure needs. Returns
/// `None` if the seed does not fail at full randomness.
#[must_use]
pub fn shrink(
    target: DetTarget,
    case: impl Fn(&dyn OmpRuntime) -> bool,
    cfg: &OmpConfig,
    seed: u64,
) -> Option<u64> {
    let full = run_det(target, &case, cfg, seed, u64::MAX);
    if full.passed() {
        return None;
    }
    // The budget caps the scheduler's and the external draws' counters
    // alike; at the larger of the two counts neither is capped, so the run
    // replays the full one (`DetRun::replayed`): the known-failing upper
    // bound.
    let mut lo = 0u64;
    let mut hi = full.decisions.max(full.external.len() as u64);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if run_det(target, &case, cfg, seed, mid).passed() {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Some(hi)
}

/// The teeth check for a planted bug: the sweep over `seeds` must find a
/// failing seed, two replays of it must agree on verdict, external decision
/// stream and (on [`DetTarget::Glto`]) scheduling decisions, and the shrunk
/// budget must be an exact boundary (it fails, one less passes). Returns
/// the replayed failing run.
///
/// # Panics
///
/// On any of those checks failing.
pub fn assert_caught_replayed_shrunk(
    target: DetTarget,
    case: impl Fn(&dyn OmpRuntime) -> bool,
    cfg: &OmpConfig,
    seeds: impl IntoIterator<Item = u64>,
) -> DetRun {
    let name = std::any::type_name_of_val(&case);
    let report = sweep(target, name, &case, cfg, seeds);
    let Some(&seed) = report.failing.first() else {
        panic!("the sweep must expose `{name}` in {} seeds", report.seeds_run);
    };
    // A printed seed is a complete reproduction recipe.
    let r1 = run_det(target, &case, cfg, seed, u64::MAX);
    let r2 = run_det(target, &case, cfg, seed, u64::MAX);
    assert!(!r1.passed(), "failing seed {seed} must replay");
    assert_eq!(r1.replayed(target), r2.replayed(target), "replays of seed {seed} must agree");
    let budget = shrink(target, &case, cfg, seed).expect("seed fails, so it shrinks");
    assert!(!run_det(target, &case, cfg, seed, budget).passed(), "budget {budget} must fail");
    if budget > 0 {
        let below = budget - 1;
        assert!(run_det(target, &case, cfg, seed, below).passed(), "budget {below} must pass");
    }
    r1
}

/// Deterministic seed stream for sweeps: `count` seeds derived from
/// `stream` via SplitMix64 (so different sweeps explore different seeds
/// without any wall-clock randomness).
#[must_use]
pub fn seed_stream(stream: u64, count: usize) -> Vec<u64> {
    let mut s = stream.wrapping_mul(0xA076_1D64_78BD_642F).wrapping_add(1);
    (0..count).map(|_| glt_det::splitmix64(&mut s)).collect()
}

/// Number of seeds to sweep: `CONFORMANCE_SEEDS` as `lookup` serves it,
/// else `default_n`; clamped ≥ 1. Returns one warning per malformed knob.
#[must_use]
pub fn seeds_from_vars(
    lookup: impl Fn(&str) -> Option<String>,
    default_n: usize,
) -> (usize, Vec<String>) {
    let mut vars = glt::config::Vars { lookup: &lookup, warnings: Vec::new() };
    let n = vars.number("CONFORMANCE_SEEDS").unwrap_or(default_n).max(1);
    (n, vars.warnings)
}

/// [`seeds_from_vars`] over the process environment, printing each
/// warning to stderr. CI pins 64; local runs default to ≥256 (see
/// TESTING.md).
#[must_use]
pub fn seeds_from_env(default_n: usize) -> usize {
    let (n, warnings) = seeds_from_vars(|name| std::env::var(name).ok(), default_n);
    for w in warnings {
        eprintln!("conformance: {w}");
    }
    n
}

/// Identity of one deterministic schedule: the scheduler event log plus the
/// timing-free counter snapshot, both captured *before* runtime teardown
/// (teardown runs in free-run mode and is legitimately nondeterministic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetFingerprint {
    /// Scheduler events (grants, pushes, pops, steals) in order.
    pub events: Vec<EventKind>,
    /// Counters with wall-clock-derived fields zeroed.
    pub counters: CounterSnapshot,
}

/// Run `case` under `glto-det` and capture its schedule fingerprint.
/// Two calls with the same `(case, threads, seed)` must return equal
/// fingerprints — that equality *is* the determinism guarantee.
///
/// # Panics
///
/// If the case fails or the stall watchdog fires: a fingerprint of an
/// uncontrolled schedule would be meaningless.
#[must_use]
pub fn det_fingerprint(case: Case, threads: usize, seed: u64) -> DetFingerprint {
    let rt = GltoRuntime::new(Backend::det(seed), OmpConfig::with_threads(threads));
    let ok = case(&*rt);
    let det = rt.det_scheduler().expect("Det backend exposes its scheduler");
    assert!(ok, "det_fingerprint requires a passing case (seed {seed})");
    assert!(!det.stalled(), "stall watchdog fired under seed {seed}; schedule not controlled");
    let events = det.events().into_iter().map(|e| e.kind).collect();
    let counters = rt.counters().snapshot().without_timing();
    DetFingerprint { events, counters }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::{adaptive_commit_storm, case_tasks_taskwait};
    use crate::fast_stall;

    #[test]
    fn same_seed_same_fingerprint_at_omp_level() {
        fast_stall();
        for seed in [0u64, 1, 42] {
            let a = det_fingerprint(case_tasks_taskwait, 3, seed);
            let b = det_fingerprint(case_tasks_taskwait, 3, seed);
            assert_eq!(a.events, b.events, "event order must replay (seed {seed})");
            assert_eq!(a.counters, b.counters, "counters must replay (seed {seed})");
        }
    }

    #[test]
    fn different_seeds_explore_different_omp_schedules() {
        fast_stall();
        let logs: std::collections::HashSet<String> = (0..8u64)
            .map(|s| format!("{:?}", det_fingerprint(case_tasks_taskwait, 3, s).events))
            .collect();
        assert!(logs.len() >= 2, "8 seeds produced {} distinct schedules", logs.len());
    }

    #[test]
    fn seed_stream_is_deterministic_and_distinct() {
        assert_eq!(seed_stream(3, 16), seed_stream(3, 16));
        assert_ne!(seed_stream(3, 16), seed_stream(4, 16));
        let s = seed_stream(0, 64);
        let uniq: std::collections::HashSet<_> = s.iter().collect();
        assert_eq!(uniq.len(), s.len());
    }

    #[test]
    fn seed_and_stall_knobs_valid_malformed_absent() {
        type Parse = fn(Option<&str>) -> (u64, Vec<String>);
        fn lookup<'a>(knob: &'a str, v: Option<&'a str>) -> impl Fn(&str) -> Option<String> + 'a {
            move |k| v.filter(|_| k == knob).map(str::to_owned)
        }
        let seeds: Parse = |v| {
            let (n, w) = seeds_from_vars(lookup("CONFORMANCE_SEEDS", v), 256);
            (n as u64, w)
        };
        let stall: Parse = |v| {
            let (c, w) = glt_det::DetConfig::from_vars(lookup("GLT_DET_STALL_MS", v));
            (c.stall_timeout.as_millis() as u64, w)
        };
        // knob, its parse, valid spelling → value, zero → clamped value,
        // malformed spelling, default.
        let table: [(&str, Parse, &str, u64, u64, &str, u64); 2] = [
            ("CONFORMANCE_SEEDS", seeds, " 64 ", 64, 1, "64x", 256),
            ("GLT_DET_STALL_MS", stall, "750", 750, 1, "fast", 10_000),
        ];
        for (knob, parse, valid, want, zero, malformed, default) in table {
            assert_eq!(parse(Some(valid)), (want, vec![]), "{knob}={valid}");
            assert_eq!(parse(Some("0")), (zero, vec![]), "{knob}=0 is clamped");
            assert_eq!(parse(None), (default, vec![]), "{knob} absent");
            let (got, w) = parse(Some(malformed));
            assert_eq!((got, w.len()), (default, 1), "{knob}={malformed} keeps the default: {w:?}");
            assert!(w[0].starts_with(&format!("ignoring {knob}=`{malformed}`: ")), "{}", w[0]);
        }
    }

    #[test]
    fn shrink_bound_reproduces_the_full_run_on_both_targets() {
        fast_stall();
        let cfg = OmpConfig::with_threads(3);
        for (target, case) in [
            (DetTarget::Glto, case_tasks_taskwait as Case),
            (DetTarget::Adaptive, adaptive_commit_storm),
        ] {
            for seed in [0u64, 7] {
                let full = run_det(target, case, &cfg, seed, u64::MAX);
                let bound = full.decisions.max(full.external.len() as u64);
                let capped = run_det(target, case, &cfg, seed, bound);
                assert_eq!(
                    capped.replayed(target),
                    full.replayed(target),
                    "{target:?} seed {seed}: budget {bound} must reproduce the full run"
                );
            }
        }
    }

    #[test]
    fn adaptive_det_decisions_replay_by_seed() {
        fast_stall();
        let cfg = OmpConfig::with_threads(3);
        for seed in [0u64, 7, 0xC0FFEE] {
            let a = run_det(DetTarget::Adaptive, adaptive_commit_storm, &cfg, seed, u64::MAX);
            let b = run_det(DetTarget::Adaptive, adaptive_commit_storm, &cfg, seed, u64::MAX);
            assert!(a.passed(), "seed {seed}: {a:?}");
            assert!(!a.external.is_empty(), "the storm must draw mechanism decisions");
            assert_eq!(a.external, b.external, "decision stream must replay (seed {seed})");
        }
    }

    #[test]
    fn adaptive_det_sweep_commits_consistently() {
        fast_stall();
        sweep(
            DetTarget::Adaptive,
            "adaptive-commit-storm",
            adaptive_commit_storm,
            &OmpConfig::with_threads(3),
            seed_stream(0xADA7, seeds_from_env(64)),
        )
        .assert_all_passed();
    }
}

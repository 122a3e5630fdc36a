//! # conformance — cross-runtime conformance harness
//!
//! The paper's Table I argument ("GLTO complies with the evaluated OpenMP
//! constructs") is only as strong as the harness behind it. This crate
//! turns the repository's semantics suites into a *matrix*: every case and
//! the full validation suite run against **all eight** runtimes the stack
//! can execute a region on ([`RuntimeKind::matrix`]):
//!
//! | runtime      | what it checks                                          |
//! |--------------|---------------------------------------------------------|
//! | `serial`     | the semantics themselves, minus concurrency             |
//! | `gnu`        | pthread runtime, GNU-libgomp-like                       |
//! | `intel`      | pthread runtime, hot teams + task deques                |
//! | `glto-abt`   | GLT backend: private pools, no stealing                 |
//! | `glto-qth`   | GLT backend: shepherds + FEB                            |
//! | `glto-mth`   | GLT backend: work-first deques + stealing               |
//! | `glto-det`   | deterministic seeded stepper (`glt-det`), many seeds    |
//! | `adaptive`   | pomp + GLTO composed, mechanism picked per callsite     |
//!
//! On top of pass/fail, every case run ends with a **counter-invariant
//! check**: after [`quiesce`], the runtime's counter snapshot must
//! satisfy the conservation laws of
//! [`CounterSnapshot::invariant_violations`] — a second, structural
//! verdict that catches bookkeeping bugs even when a case's own assertion
//! happens to pass.
//!
//! ## Seeded schedule exploration
//!
//! For `glto-det`, a case is not one run but a **seed sweep**
//! ([`sweep_det`]): each u64 seed fully determines the interleaving, so a
//! failing seed printed by the sweep is a complete reproduction recipe —
//! [`replay_det`] reruns it, [`det_fingerprint`] proves two replays take
//! the identical schedule, and [`shrink_det`] binary-searches the smallest
//! randomized-decision budget that still fails, pinning the failure to a
//! minimal prefix of schedule decisions.
//!
//! The planted-bug cases [`planted_lost_update`] (an intentionally racy
//! read-yield-write task pair) and [`planted_depend_race`] (the same pair
//! with its `depend` clauses deliberately weakened from `inout` to `in`)
//! exist to prove the explorer has teeth: the sweep must find seeds that
//! expose the lost update, and the failure must replay and shrink. The
//! second one makes the sweep the race detector for the task core's
//! dependency resolver. See `TESTING.md` at the repository root.

#![warn(missing_docs)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use glt::CounterSnapshot;
use glt_det::EventKind;
use glto::{Backend, GltoRuntime};
use omp::{Dep, LockKind, OmpConfig, OmpLock, OmpNestLock, OmpRuntime, OmpRuntimeExt, Schedule};
use omp_adaptive::{AdaptiveRuntime, CallsiteDecision, Mechanism};
use workloads::RuntimeKind;

/// A conformance case: exercises one construct cluster on any runtime and
/// returns `true` on conforming behavior. Cases must signal failure by
/// returning `false` (not by panicking) so failing seeds replay cleanly.
pub type Case = fn(&dyn OmpRuntime) -> bool;

// --------------------------------------------------------------- quiesce

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

// ------------------------------------------------------------ case runner

/// Run one case on one runtime kind, then verify counter invariants.
///
/// # Errors
///
/// A human-readable description of the first failure: the case returned
/// `false`, panicked, or left the counters violating a conservation law.
pub fn run_case(kind: RuntimeKind, threads: usize, name: &str, case: Case) -> Result<(), String> {
    run_case_cfg(kind, OmpConfig::with_threads(threads), name, case)
}

/// [`run_case`] with an explicit [`OmpConfig`] — how the shared-queue
/// (`GLT_SHARED_QUEUES=1`, §IV-F) variants of the matrix are exercised.
///
/// # Errors
///
/// Same contract as [`run_case`].
pub fn run_case_cfg(
    kind: RuntimeKind,
    cfg: OmpConfig,
    name: &str,
    case: Case,
) -> Result<(), String> {
    let rt = kind.build(cfg);
    match catch_unwind(AssertUnwindSafe(|| case(rt.as_ref()))) {
        Err(_) => return Err(format!("case `{name}` panicked on {}", kind.name())),
        Ok(false) => return Err(format!("case `{name}` failed on {}", kind.name())),
        Ok(true) => {}
    }
    let viol = check_counter_invariants(rt.as_ref());
    if viol.is_empty() {
        Ok(())
    } else {
        Err(format!("case `{name}` on {}: counter invariants violated: {viol:?}", kind.name()))
    }
}

// --------------------------------------------------------- seeded sweeps

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
    /// Randomized decisions actually drawn.
    pub decisions: u64,
}

impl DetRun {
    /// Conforming run: case passed, no stall, no invariant violation.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.ok && !self.panicked && !self.stalled && self.violations.is_empty()
    }
}

/// Run `case` once under `glto-det` with the given seed and
/// randomized-decision budget (`u64::MAX` = fully randomized).
#[must_use]
pub fn run_det_once(case: Case, threads: usize, seed: u64, budget: u64) -> DetRun {
    run_det_once_cfg(case, &OmpConfig::with_threads(threads), seed, budget)
}

/// [`run_det_once`] with an explicit [`OmpConfig`] — how the seed sweep is
/// parameterized over synthetic topologies (`OmpConfig::topology`) and
/// binding policies without touching process-wide environment variables.
#[must_use]
pub fn run_det_once_cfg(case: Case, cfg: &OmpConfig, seed: u64, budget: u64) -> DetRun {
    let rt = GltoRuntime::new(Backend::Det { seed, max_random_decisions: budget }, cfg.clone());
    let outcome = catch_unwind(AssertUnwindSafe(|| case(&*rt)));
    let (ok, panicked) = match outcome {
        Ok(b) => (b, false),
        Err(_) => (false, true),
    };
    let violations = if panicked {
        Vec::new() // mid-unwind counters are legitimately mid-flight
    } else {
        check_counter_invariants(&*rt)
    };
    let det = rt.det_scheduler().expect("Det backend exposes its scheduler");
    DetRun {
        seed,
        budget,
        ok,
        panicked,
        stalled: det.stalled(),
        violations,
        decisions: det.decisions(),
    }
}

/// Result of a seed sweep.
#[derive(Debug)]
pub struct SweepReport {
    /// Case name (for messages).
    pub case_name: String,
    /// Team size swept under.
    pub threads: usize,
    /// Seeds run.
    pub seeds_run: usize,
    /// Seeds whose run failed (case false/panic/stall/invariant).
    pub failing: Vec<u64>,
}

impl SweepReport {
    /// Every seed passed.
    #[must_use]
    pub fn all_passed(&self) -> bool {
        self.failing.is_empty()
    }
}

/// Sweep `case` across `seeds` under `glto-det`. Every failing seed is
/// printed with a replay recipe — the seed alone reproduces the schedule.
pub fn sweep_det(
    name: &str,
    case: Case,
    threads: usize,
    seeds: impl IntoIterator<Item = u64>,
) -> SweepReport {
    sweep_det_cfg(name, case, &OmpConfig::with_threads(threads), seeds)
}

/// [`sweep_det`] with an explicit [`OmpConfig`]: the same seeds explore the
/// same cases under a synthetic topology / binding policy (the replay
/// recipe then needs the config too — pass the identical one to
/// [`replay_det_cfg`] / [`shrink_det_cfg`]).
pub fn sweep_det_cfg(
    name: &str,
    case: Case,
    cfg: &OmpConfig,
    seeds: impl IntoIterator<Item = u64>,
) -> SweepReport {
    let threads = cfg.num_threads;
    let mut failing = Vec::new();
    let mut seeds_run = 0;
    for seed in seeds {
        seeds_run += 1;
        let run = run_det_once_cfg(case, cfg, seed, u64::MAX);
        if !run.passed() {
            eprintln!(
                "conformance: case `{name}` FAILED on glto-det \
                 (seed={seed} threads={threads} ok={} panicked={} stalled={} violations={:?})\n\
                 conformance: replay with RuntimeKind::GltoDet {{ seed: {seed} }} \
                 or conformance::replay_det_cfg(case, &cfg, {seed})",
                run.ok, run.panicked, run.stalled, run.violations
            );
            failing.push(seed);
        }
    }
    SweepReport { case_name: name.to_string(), threads, seeds_run, failing }
}

/// Deterministic seed stream for sweeps: `count` seeds derived from
/// `stream` via SplitMix64 (so different sweeps explore different seeds
/// without any wall-clock randomness).
#[must_use]
pub fn seed_stream(stream: u64, count: usize) -> Vec<u64> {
    let mut s = stream.wrapping_mul(0xA076_1D64_78BD_642F).wrapping_add(1);
    (0..count).map(|_| glt_det::splitmix64(&mut s)).collect()
}

/// Number of seeds to sweep: `CONFORMANCE_SEEDS` env override, else
/// `default_n`. CI pins 64; local runs default to ≥256 (see TESTING.md).
#[must_use]
pub fn seeds_from_env(default_n: usize) -> usize {
    std::env::var("CONFORMANCE_SEEDS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(default_n)
        .max(1)
}

/// Re-run a failing seed at full randomness. Returns the run outcome; the
/// same seed must reproduce the same verdict (see [`det_fingerprint`] for
/// the stronger schedule-identity check).
#[must_use]
pub fn replay_det(case: Case, threads: usize, seed: u64) -> DetRun {
    run_det_once(case, threads, seed, u64::MAX)
}

/// [`replay_det`] with an explicit [`OmpConfig`] (must match the sweep's).
#[must_use]
pub fn replay_det_cfg(case: Case, cfg: &OmpConfig, seed: u64) -> DetRun {
    run_det_once_cfg(case, cfg, seed, u64::MAX)
}

/// Shrink a failing seed: binary-search the smallest randomized-decision
/// budget that still fails. After the budget, every schedule decision falls
/// back to the fixed first alternative, so the returned budget bounds the
/// prefix of "interesting" decisions needed to trigger the failure.
/// Returns `None` if the seed does not fail at full randomness.
#[must_use]
pub fn shrink_det(case: Case, threads: usize, seed: u64) -> Option<u64> {
    shrink_det_cfg(case, &OmpConfig::with_threads(threads), seed)
}

/// [`shrink_det`] with an explicit [`OmpConfig`] (must match the sweep's).
#[must_use]
pub fn shrink_det_cfg(case: Case, cfg: &OmpConfig, seed: u64) -> Option<u64> {
    let full = run_det_once_cfg(case, cfg, seed, u64::MAX);
    if full.passed() {
        return None;
    }
    // Budget == decisions-drawn reproduces the full run exactly; use it as
    // the known-failing upper bound.
    let mut lo = 0u64;
    let mut hi = full.decisions;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if run_det_once_cfg(case, cfg, seed, mid).passed() {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Some(hi)
}

// ------------------------------------------- adaptive mechanism decisions

/// Outcome of one deterministic run of a case on `omp-adaptive` over the
/// det ULT backend ([`AdaptiveRuntime::with_backend`] with
/// [`Backend::Det`]). Under that backend every mechanism decision the
/// dispatcher takes — each probe's engine pick and the final commit — is a
/// seeded stepper draw recorded as [`EventKind::External`], so the whole
/// decision history of a run is a pure function of the seed.
///
/// Beyond the [`DetRun`]-style verdicts, every run is audited for **commit
/// consistency**: each committed memo-table entry must match the last
/// seeded draw recorded for its callsite (the commit draw; `pick == 1` ⇒
/// ULT). An inconsistent commit means the dispatcher chose a mechanism its
/// own replayable decision stream did not pick — exactly the wrong-commit
/// class of bug `--features planted-bad-commit` plants.
#[derive(Debug, Clone)]
pub struct AdaptiveDetRun {
    /// Seed the decision stream was drawn from.
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
    /// The `(callsite, pick)` stream of adaptive decisions, in
    /// master-thread program order. Replays of the same seed must produce
    /// the identical stream — that equality is the determinism guarantee
    /// the OS-probe regions (whose pomp threads free-run) cannot disturb.
    pub external: Vec<(u64, usize)>,
    /// Commit-consistency audit failures (empty = every committed entry
    /// matches its seeded commit draw).
    pub wrong_commits: Vec<String>,
}

impl AdaptiveDetRun {
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
}

/// The commit-consistency audit behind [`AdaptiveDetRun::wrong_commits`]:
/// a committed entry's mechanism must equal the **last** external draw
/// recorded for its callsite — in det mode the commit pick is itself the
/// final seeded draw of the explore phase. Entries still exploring are
/// skipped; a post-budget fallback draw (`pick == 0`) legitimately commits
/// the OS mechanism, which is what lets [`shrink_det_adaptive`] bound the
/// failure to a minimal prefix of real draws.
fn audit_commits(decisions: &[CallsiteDecision], external: &[(u64, usize)]) -> Vec<String> {
    let mut bad = Vec::new();
    for d in decisions {
        let Some(committed) = d.committed else { continue };
        let Some(&(_, pick)) = external.iter().rev().find(|&&(tag, _)| tag == d.callsite) else {
            bad.push(format!(
                "callsite {:#x} committed {committed:?} with no recorded decision draw",
                d.callsite
            ));
            continue;
        };
        let drawn = if pick == 1 { Mechanism::Ult } else { Mechanism::Os };
        if committed != drawn {
            bad.push(format!(
                "callsite {:#x} committed {committed:?} but its seeded commit draw picked {drawn:?}",
                d.callsite
            ));
        }
    }
    bad
}

/// Run `case` once on `omp-adaptive` with the det ULT backend at the given
/// seed and randomized-decision budget (`u64::MAX` = fully randomized).
#[must_use]
pub fn run_det_adaptive_once(case: Case, threads: usize, seed: u64, budget: u64) -> AdaptiveDetRun {
    run_det_adaptive_once_cfg(case, &OmpConfig::with_threads(threads), seed, budget)
}

/// [`run_det_adaptive_once`] with an explicit [`OmpConfig`].
#[must_use]
pub fn run_det_adaptive_once_cfg(
    case: Case,
    cfg: &OmpConfig,
    seed: u64,
    budget: u64,
) -> AdaptiveDetRun {
    let rt = AdaptiveRuntime::with_backend(
        Backend::Det { seed, max_random_decisions: budget },
        cfg.clone(),
    );
    let outcome = catch_unwind(AssertUnwindSafe(|| case(&*rt)));
    let (ok, panicked) = match outcome {
        Ok(b) => (b, false),
        Err(_) => (false, true),
    };
    let violations = if panicked {
        Vec::new() // mid-unwind counters are legitimately mid-flight
    } else {
        check_counter_invariants(&*rt)
    };
    let det = rt.det_scheduler().expect("Det backend exposes its scheduler");
    let external: Vec<(u64, usize)> = det
        .events()
        .into_iter()
        .filter_map(|e| match e.kind {
            EventKind::External { tag, pick } => Some((tag, pick)),
            _ => None,
        })
        .collect();
    let wrong_commits = audit_commits(&rt.decisions(), &external);
    AdaptiveDetRun {
        seed,
        budget,
        ok,
        panicked,
        stalled: det.stalled(),
        violations,
        external,
        wrong_commits,
    }
}

/// Sweep `case` on `omp-adaptive` over the det backend across `seeds`:
/// every seed fully determines the dispatcher's decision history, and each
/// run ends with the commit-consistency audit. Failing seeds print a
/// replay recipe, exactly like [`sweep_det`].
pub fn sweep_det_adaptive(
    name: &str,
    case: Case,
    threads: usize,
    seeds: impl IntoIterator<Item = u64>,
) -> SweepReport {
    let mut failing = Vec::new();
    let mut seeds_run = 0;
    for seed in seeds {
        seeds_run += 1;
        let run = run_det_adaptive_once(case, threads, seed, u64::MAX);
        if !run.passed() {
            eprintln!(
                "conformance: case `{name}` FAILED on adaptive(det) \
                 (seed={seed} threads={threads} ok={} panicked={} stalled={} violations={:?} \
                 wrong_commits={:?})\n\
                 conformance: replay with conformance::replay_det_adaptive(case, {threads}, {seed})",
                run.ok, run.panicked, run.stalled, run.violations, run.wrong_commits
            );
            failing.push(seed);
        }
    }
    SweepReport { case_name: name.to_string(), threads, seeds_run, failing }
}

/// Re-run a failing adaptive seed at full randomness. The same seed must
/// reproduce the same verdict *and* the same decision stream
/// ([`AdaptiveDetRun::external`]).
#[must_use]
pub fn replay_det_adaptive(case: Case, threads: usize, seed: u64) -> AdaptiveDetRun {
    run_det_adaptive_once(case, threads, seed, u64::MAX)
}

/// Shrink a failing adaptive seed: binary-search the smallest
/// randomized-decision budget that still fails. Past the budget every
/// draw — scheduler *and* adaptive — falls back to alternative 0 (the OS
/// pick), so the returned budget bounds the prefix of real seeded
/// decisions needed to trigger the wrong commit. Returns `None` if the
/// seed does not fail at full randomness.
#[must_use]
pub fn shrink_det_adaptive(case: Case, threads: usize, seed: u64) -> Option<u64> {
    let full = run_det_adaptive_once(case, threads, seed, u64::MAX);
    if full.passed() {
        return None;
    }
    // Every adaptive draw in the full run is within its own count; use
    // that as the known-failing upper bound (the wrong-commit audit only
    // depends on which adaptive draws are real, which is monotone in the
    // budget: see `audit_commits`).
    let mut lo = 0u64;
    let mut hi = full.external.len() as u64;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if run_det_adaptive_once(case, threads, seed, mid).passed() {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Some(hi)
}

// ----------------------------------------------------------- fingerprints

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

// -------------------------------------------------------- curated cases

/// The curated conformance cases: small, assertion-dense programs covering
/// the synchronization-heavy constructs (the ones whose semantics depend on
/// the schedule). Each runs on every [`RuntimeKind::matrix`] runtime and is
/// swept across seeds on `glto-det`.
#[must_use]
pub fn cases() -> Vec<(&'static str, Case)> {
    vec![
        ("reduce-sum", case_reduce_sum as Case),
        ("dynamic-for", case_dynamic_for as Case),
        ("tasks-taskwait", case_tasks_taskwait as Case),
        ("depend-chain", case_depend_chain as Case),
        ("critical-rmw", case_critical_rmw as Case),
        ("lock-rmw", case_lock_rmw as Case),
        ("lock-kinds-rmw", case_lock_kinds_rmw as Case),
        ("nest-lock-ownership", case_nest_lock_ownership as Case),
        ("ordered-sequence", case_ordered_sequence as Case),
        ("single-copy", case_single_copy as Case),
        ("nested-region", case_nested_region as Case),
        ("batched-fork", case_batched_fork as Case),
    ]
}

fn team_size(rt: &dyn OmpRuntime) -> u64 {
    let n = AtomicU64::new(0);
    rt.parallel(|ctx| {
        if ctx.thread_num() == 0 {
            n.store(ctx.num_threads() as u64, Ordering::SeqCst);
        }
    });
    n.load(Ordering::SeqCst)
}

fn case_reduce_sum(rt: &dyn OmpRuntime) -> bool {
    let out = AtomicU64::new(0);
    rt.parallel(|ctx| {
        let s = ctx.for_reduce(
            0..100,
            Schedule::Static { chunk: None },
            0u64,
            |i, acc| *acc += i,
            |a, b| a + b,
        );
        if ctx.thread_num() == 0 {
            out.store(s, Ordering::SeqCst);
        }
    });
    out.load(Ordering::SeqCst) == 4950
}

fn case_dynamic_for(rt: &dyn OmpRuntime) -> bool {
    let sum = AtomicU64::new(0);
    let hits = AtomicU64::new(0);
    rt.parallel(|ctx| {
        ctx.for_each(0..64, Schedule::Dynamic { chunk: 3 }, |i| {
            sum.fetch_add(i, Ordering::SeqCst);
            hits.fetch_add(1, Ordering::SeqCst);
        });
    });
    sum.load(Ordering::SeqCst) == (0..64).sum::<u64>() && hits.load(Ordering::SeqCst) == 64
}

fn case_tasks_taskwait(rt: &dyn OmpRuntime) -> bool {
    let done = AtomicU64::new(0);
    let after_wait = AtomicU64::new(u64::MAX);
    rt.parallel(|ctx| {
        let done = &done;
        ctx.single(|| {
            for _ in 0..8 {
                ctx.task(move |_| {
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
            ctx.taskwait();
            after_wait.store(done.load(Ordering::SeqCst), Ordering::SeqCst);
        });
    });
    // taskwait must have seen all 8 children complete.
    after_wait.load(Ordering::SeqCst) == 8 && done.load(Ordering::SeqCst) == 8
}

fn case_depend_chain(rt: &dyn OmpRuntime) -> bool {
    // `depend(inout: x)` must serialize the chain in creation order on
    // every runtime and under every det schedule: each link applies the
    // non-commutative update `acc ← acc·3 + i`, with a scheduling point
    // inside the read-modify-write window to invite reordering. Trailing
    // `depend(in: x)` readers must all see the chain's final value.
    const LINKS: u64 = 4;
    let expected = (0..LINKS).fold(1, |acc, i| acc * 3 + i);
    let acc = AtomicU64::new(1);
    let bad_reads = AtomicU64::new(0);
    let x = 0u8;
    rt.parallel(|ctx| {
        let acc = &acc;
        let bad_reads = &bad_reads;
        ctx.single(|| {
            for i in 0..LINKS {
                ctx.task_depend(&[Dep::readwrite(&x)], move |c| {
                    let read = acc.load(Ordering::SeqCst);
                    c.taskyield(); // scheduling point inside the RMW window
                    acc.store(read * 3 + i, Ordering::SeqCst);
                });
            }
            for _ in 0..2 {
                ctx.task_depend(&[Dep::read(&x)], move |_| {
                    if acc.load(Ordering::SeqCst) != expected {
                        bad_reads.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
            ctx.taskwait();
        });
    });
    acc.load(Ordering::SeqCst) == expected && bad_reads.load(Ordering::SeqCst) == 0
}

fn case_critical_rmw(rt: &dyn OmpRuntime) -> bool {
    let n = team_size(rt);
    let cell = AtomicU64::new(0);
    let reps = 16u64;
    rt.parallel(|ctx| {
        for _ in 0..reps {
            ctx.critical("conformance-rmw", || {
                // Non-atomic read-modify-write: correct only under mutual
                // exclusion, which is exactly what's under test.
                let v = cell.load(Ordering::Relaxed);
                cell.store(v + 1, Ordering::Relaxed);
            });
        }
    });
    cell.load(Ordering::SeqCst) == reps * n
}

fn case_lock_rmw(rt: &dyn OmpRuntime) -> bool {
    let n = team_size(rt);
    let lock = OmpLock::new();
    let cell = AtomicU64::new(0);
    let reps = 16u64;
    rt.parallel(|_| {
        for _ in 0..reps {
            lock.set();
            let v = cell.load(Ordering::Relaxed);
            cell.store(v + 1, Ordering::Relaxed);
            lock.unset();
        }
    });
    cell.load(Ordering::SeqCst) == reps * n
}

fn case_lock_kinds_rmw(rt: &dyn OmpRuntime) -> bool {
    // Every lock discipline must give the same mutual-exclusion answer on
    // every runtime and under every det schedule. The hold spans an
    // explicit scheduling point, so the stepper gets a chance to switch
    // units *inside* the critical window — exactly where a broken slow
    // path (or a lost MCS hand-off) loses an update.
    let n = team_size(rt);
    let reps = 8u64;
    let mut ok = true;
    for kind in [LockKind::Spin, LockKind::SpinYield, LockKind::Mcs] {
        let lock = OmpLock::with_kind(kind, 4);
        let cell = AtomicU64::new(0);
        rt.parallel(|_| {
            for _ in 0..reps {
                lock.set();
                let v = cell.load(Ordering::Relaxed);
                glt::coop::yield_to_scheduler();
                cell.store(v + 1, Ordering::Relaxed);
                lock.unset();
            }
        });
        ok &= cell.load(Ordering::SeqCst) == reps * n;
    }
    ok
}

fn case_nest_lock_ownership(rt: &dyn OmpRuntime) -> bool {
    // Regression shape for the owner-word release-order fix: members race
    // to re-enter a shared nest lock to depth 2 across a scheduling point
    // while *yielding waiters* contend for it. If ownership leaked across
    // a hand-off (the clear-after-release race), some thread would observe
    // a fresh acquire at depth ≠ 1 or unwind to a wrong depth.
    let bad = AtomicU64::new(0);
    for kind in [LockKind::SpinYield, LockKind::Mcs] {
        let lock = OmpNestLock::with_kind(kind, 4);
        rt.parallel(|_| {
            for _ in 0..8 {
                let mut ok = lock.set() == 1;
                ok &= lock.set() == 2;
                glt::coop::yield_to_scheduler(); // waiters yield around the hold
                ok &= lock.unset() == 1;
                ok &= lock.unset() == 0;
                if !ok {
                    bad.fetch_add(1, Ordering::SeqCst);
                }
            }
        });
    }
    bad.load(Ordering::SeqCst) == 0
}

fn case_ordered_sequence(rt: &dyn OmpRuntime) -> bool {
    let order = parking_lot::Mutex::new(Vec::new());
    rt.parallel(|ctx| {
        ctx.for_each_ordered(0..24, |i, scope| {
            scope.ordered(|| order.lock().push(i));
        });
    });
    let got = order.into_inner();
    got == (0..24).collect::<Vec<u64>>()
}

fn case_single_copy(rt: &dyn OmpRuntime) -> bool {
    let n = team_size(rt);
    let agree = AtomicU64::new(0);
    let singles = AtomicU64::new(0);
    rt.parallel(|ctx| {
        let v = ctx.single_copy(|| {
            singles.fetch_add(1, Ordering::SeqCst);
            0x5EED_u64
        });
        if v == 0x5EED {
            agree.fetch_add(1, Ordering::SeqCst);
        }
        ctx.barrier();
    });
    // Exactly one thread ran the single; every thread got its value.
    singles.load(Ordering::SeqCst) == 1 && agree.load(Ordering::SeqCst) == n
}

fn case_batched_fork(rt: &dyn OmpRuntime) -> bool {
    // Consecutive top-level forks: every cold fork submits its member
    // units through the batched enqueue path (one scheduler call per
    // fork), so sweeping this case under `glto-det` explores schedules
    // around `push_batch` specifically.
    let mut ok = true;
    for round in 0..4u64 {
        let sum = AtomicU64::new(0);
        rt.parallel(|ctx| {
            ctx.for_each(0..32, Schedule::Static { chunk: None }, |i| {
                sum.fetch_add(i + round, Ordering::SeqCst);
            });
        });
        ok &= sum.load(Ordering::SeqCst) == (0..32).sum::<u64>() + 32 * round;
    }
    ok
}

fn case_nested_region(rt: &dyn OmpRuntime) -> bool {
    let inner_hits = AtomicU64::new(0);
    let outer_hits = AtomicU64::new(0);
    rt.parallel(|ctx| {
        outer_hits.fetch_add(1, Ordering::SeqCst);
        ctx.parallel_n(Some(2), |_| {
            inner_hits.fetch_add(1, Ordering::SeqCst);
        });
    });
    let outer = outer_hits.load(Ordering::SeqCst);
    // Nested regions serialize to teams of 1 unless nesting is enabled;
    // either way every outer thread runs at least one inner "team".
    outer >= 1 && inner_hits.load(Ordering::SeqCst) >= outer
}

// ---------------------------------------------------------- planted bug

/// The planted ordering bug: two sibling tasks each do a **non-atomic
/// read-modify-write** of a shared cell with a task scheduling point
/// (`taskyield`) between the read and the write. Correct final value is 2;
/// an interleaving that switches tasks inside the window loses an update
/// and yields 1.
///
/// This case is intentionally wrong — it exists to prove the `glto-det`
/// seed sweep *finds* schedule-dependent bugs, and that a failing seed
/// replays and shrinks. It is **not** part of [`cases`].
pub fn planted_lost_update(rt: &dyn OmpRuntime) -> bool {
    let cell = AtomicU64::new(0);
    rt.parallel(|ctx| {
        let cell = &cell;
        ctx.single(|| {
            for _ in 0..2 {
                ctx.task(move |c| {
                    let read = cell.load(Ordering::SeqCst);
                    c.taskyield(); // scheduling point inside the RMW window
                    cell.store(read + 1, Ordering::SeqCst);
                });
            }
        });
    });
    cell.load(Ordering::SeqCst) == 2
}

/// The planted out-of-order `depend` bug: the same read-yield-write task
/// pair as [`planted_lost_update`], but each task *declares* a dependence
/// on the shared cell — deliberately weakened from the `inout` the access
/// pattern requires to `in`. `in` deps do not order readers against each
/// other, so the dependency resolver correctly runs the tasks
/// concurrently and a schedule that switches tasks inside the RMW window
/// loses an update.
///
/// This case is intentionally wrong — it exists to prove the `glto-det`
/// seed sweep detects under-declared dependences (the classic `depend`
/// misuse), making the sweep the race detector for the task core's
/// dependency resolver. It is **not** part of [`cases`].
pub fn planted_depend_race(rt: &dyn OmpRuntime) -> bool {
    let cell = AtomicU64::new(0);
    let x = 0u8;
    rt.parallel(|ctx| {
        let cell = &cell;
        ctx.single(|| {
            for _ in 0..2 {
                // BUG under test: should be `Dep::readwrite(&x)`.
                ctx.task_depend(&[Dep::read(&x)], move |c| {
                    let read = cell.load(Ordering::SeqCst);
                    c.taskyield(); // scheduling point inside the RMW window
                    cell.store(read + 1, Ordering::SeqCst);
                });
            }
        });
    });
    cell.load(Ordering::SeqCst) == 2
}

/// The planted **lost wakeup** (`--features planted-lost-wakeup`): the MCS
/// release path is sabotaged to pop one queued waiter *without* granting
/// it — the classic dropped hand-off. The victim's backstop detects the
/// orphaned node after ~64 fruitless yields, repairs it, and bumps a
/// repair counter; this case fails iff a repair happened during its run.
///
/// Contention is invited by holding the lock across an explicit scheduling
/// point, so whether a waiter is queued at release time — and therefore
/// whether the bug fires — is decided by the det schedule. The 64-seed
/// sweep must find firing seeds, and a firing seed must replay and shrink.
/// It is **not** part of [`cases`].
#[cfg(feature = "planted-lost-wakeup")]
pub fn planted_lost_wakeup(rt: &dyn OmpRuntime) -> bool {
    let lock = OmpLock::with_kind(LockKind::Mcs, 4);
    let before = omp::planted_repairs();
    omp::plant_drop_one();
    rt.parallel(|_| {
        for _ in 0..4 {
            lock.set();
            glt::coop::yield_to_scheduler(); // hold across a scheduling point
            lock.unset();
        }
    });
    omp::planted_repairs() == before
}

/// The planted **cross-domain starvation** (`--features
/// planted-cross-starvation`): the det scheduler's hierarchical victim
/// selection is sabotaged to drop every steal tier beyond the thief's own
/// domain — a thief whose domain has no work simply finds nothing, the
/// classic locality-gate liveness bug. A backstop detects the starvation
/// after repeated fruitless attempts, performs the cross-domain steal
/// anyway, and bumps a rescue counter; this case fails iff a rescue
/// happened during its run.
///
/// Run it under a **multi-domain** synthetic topology (e.g.
/// `OmpConfig::topology(Topology::parse("2x4x1"))`) via
/// [`sweep_det_cfg`]: the single-runner task burst lands in the
/// producer's pool, so every thief in the *other* domain sees only
/// cross-domain victims and starves until rescued. Under a single-domain
/// (flat) topology the sabotage is inert — there is no cross tier to
/// drop — which keeps the armed window harmless to unrelated tests.
/// It is **not** part of [`cases`].
#[cfg(feature = "planted-cross-starvation")]
pub fn planted_cross_starvation(rt: &dyn OmpRuntime) -> bool {
    let before = glt_det::planted_rescues();
    glt_det::plant_cross_starvation();
    let sink = AtomicU64::new(0);
    rt.parallel(|ctx| {
        let sink = &sink;
        ctx.single(|| {
            for i in 0..32u64 {
                ctx.task(move |c| {
                    sink.fetch_add(i, Ordering::SeqCst);
                    c.taskyield();
                });
            }
            ctx.taskwait();
        });
    });
    glt_det::unplant_cross_starvation();
    glt_det::planted_rescues() == before
}

// -------------------------------------------------------- service layer

/// Det-sweepable shape of the multi-tenant accounting hazard: four tenants
/// complete four jobs each as concurrent tasks on one runtime, every
/// completion charging its own ledger slot
/// ([`omp_service::colocated_accounting_probe`]). Clean builds must be
/// exact on every seed; with `--features planted-tenant-bleed` the ledger
/// parks the tenant id in a shared scratch cell across a scheduling point,
/// and seeded schedules that interleave two charges misdirect one. It is
/// **not** part of [`cases`] (the service crate is an optional tenant of
/// the conformance matrix, not an OpenMP construct).
pub fn tenant_accounting(rt: &dyn OmpRuntime) -> bool {
    omp_service::colocated_accounting_probe(rt, 4, 4)
}

/// Per-runtime fault scoping, service-shaped: a co-tenant runtime arms the
/// planted lost wakeup in *its* lock scope and goes away; this tenant's
/// contended MCS hand-offs must be untouched (repairs in its own scope
/// stay flat). All-green across the sweep = the `omp::lock` fault statics
/// are really per-runtime now. It is **not** part of [`cases`].
#[cfg(feature = "planted-lost-wakeup")]
pub fn planted_lost_wakeup_foreign_arm(rt: &dyn OmpRuntime) -> bool {
    {
        // Building the co-tenant installs its waiter innermost on this
        // thread, so the arm lands in the co-tenant's cell only.
        let foreign = RuntimeKind::GltoAbt.build(OmpConfig::with_threads(2));
        omp::plant_drop_one();
        drop(foreign);
    }
    let lock = OmpLock::with_kind(LockKind::Mcs, 4);
    let before = omp::planted_repairs();
    rt.parallel(|_| {
        for _ in 0..4 {
            lock.set();
            glt::coop::yield_to_scheduler();
            lock.unset();
        }
    });
    omp::planted_repairs() == before
}

/// Commit-heavy adaptive workload: drives two distinct callsites — one
/// flat, one task-heavy — past the explore budget (at the default
/// `OMP_ADAPTIVE_PROBE_K` each commits after four probes), then keeps
/// forking on the committed path. On `omp-adaptive` this exercises the
/// full memo-table lifecycle; on every other runtime it is an ordinary
/// fork/task loop. Used by the adaptive det sweep, where the
/// [`AdaptiveDetRun`] commit-consistency audit turns any wrong commit
/// (planted or real) into a failing, replayable, shrinkable seed.
pub fn adaptive_commit_storm(rt: &dyn OmpRuntime) -> bool {
    let hits = AtomicU64::new(0);
    let hits = &hits;
    for _ in 0..10 {
        rt.parallel(|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
    }
    let flat = hits.load(Ordering::SeqCst);
    for _ in 0..10 {
        rt.parallel(|ctx| {
            ctx.single(|| {
                for _ in 0..2 {
                    ctx.task(move |_| {
                        hits.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
            ctx.taskwait();
        });
    }
    flat >= 10 && hits.load(Ordering::SeqCst) >= flat + 20
}

// -------------------------------------------------- shared-queue matrix

/// The §IV-F shared-queue (`GLT_SHARED_QUEUES=1`) variants of the three
/// GLTO runtimes. Sharing ready queues changes *scheduling*, never
/// *results*: the curated cases and the validation-suite pass counts
/// (pinned by [`expected_suite_passes`]) must match the private-queue
/// matrix exactly.
#[must_use]
pub fn shared_queue_matrix() -> [RuntimeKind; 3] {
    [RuntimeKind::GltoAbt, RuntimeKind::GltoQth, RuntimeKind::GltoMth]
}

/// The `GLTO_HOT_ULTS=1` variants of the three GLTO runtimes: top-level
/// team members are parked between forks and re-armed instead of
/// re-created. Like shared queues, this changes the *fork mechanism*,
/// never *results*: the curated cases and the pinned validation-suite
/// pass counts must match the cold-fork matrix exactly.
#[must_use]
pub fn hot_ult_matrix() -> [RuntimeKind; 3] {
    [RuntimeKind::GltoAbt, RuntimeKind::GltoQth, RuntimeKind::GltoMth]
}

// ------------------------------------------------------ validation suite

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
    use super::*;

    /// Keep the det stall watchdog short in this test binary: one suite
    /// entry (`omp flush`'s consumer) legitimately raw-spins without a
    /// scheduler entry, and the watchdog is the designed escape hatch.
    /// Every test sets the same value, so concurrent setting is benign.
    fn fast_stall() {
        std::env::set_var("GLT_DET_STALL_MS", "750");
    }

    #[test]
    fn curated_cases_pass_on_every_matrix_runtime() {
        fast_stall();
        for kind in RuntimeKind::matrix() {
            for (name, case) in cases() {
                run_case(kind, 4, name, case).unwrap();
            }
        }
    }

    #[test]
    fn curated_cases_pass_under_shared_queues() {
        fast_stall();
        for kind in shared_queue_matrix() {
            for (name, case) in cases() {
                let cfg = OmpConfig::with_threads(4).shared_queues(true);
                run_case_cfg(kind, cfg, name, case).unwrap();
            }
        }
    }

    #[test]
    fn shared_queue_suite_passes_are_pinned() {
        fast_stall();
        for kind in shared_queue_matrix() {
            let rt = kind.build(OmpConfig::with_threads(4).shared_queues(true));
            let r = validation::run_suite(rt.as_ref());
            assert_eq!(
                r.passed,
                expected_suite_passes(kind),
                "{} (shared queues): {}",
                kind.name(),
                r.row()
            );
        }
    }

    #[test]
    fn curated_cases_pass_under_hot_ults() {
        fast_stall();
        for kind in hot_ult_matrix() {
            for (name, case) in cases() {
                let cfg = OmpConfig::with_threads(4).hot_ults(true);
                run_case_cfg(kind, cfg, name, case).unwrap();
            }
        }
    }

    #[test]
    fn hot_ult_suite_passes_are_pinned() {
        fast_stall();
        for kind in hot_ult_matrix() {
            let rt = kind.build(OmpConfig::with_threads(4).hot_ults(true));
            let r = validation::run_suite(rt.as_ref());
            assert_eq!(
                r.passed,
                expected_suite_passes(kind),
                "{} (hot ULTs): {}",
                kind.name(),
                r.row()
            );
        }
    }

    #[test]
    fn counter_invariants_hold_under_hot_ults_with_width_changes() {
        fast_stall();
        for kind in hot_ult_matrix() {
            let rt = kind.build(OmpConfig::with_threads(4).hot_ults(true));
            for width in [4usize, 2, 4, 4] {
                let hits = AtomicU64::new(0);
                let hits = &hits;
                rt.parallel_n(Some(width), |_| {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
                assert_eq!(hits.load(Ordering::SeqCst) as usize, width, "{}", kind.name());
            }
            // `check_counter_invariants` retires the parked team first, so
            // the drained laws must hold afterwards.
            let viol = check_counter_invariants(rt.as_ref());
            assert!(viol.is_empty(), "{}: {viol:?}", kind.name());
            let s = rt.counters().snapshot();
            assert!(s.ults_reused >= 3, "{}: final same-width fork must reuse", kind.name());
        }
    }

    #[test]
    fn det_sweep_batched_fork_enqueue() {
        fast_stall();
        // 64 seeds over a fork-heavy case at threads=4: schedule
        // exploration specifically around the one-call batched enqueue.
        let report = sweep_det("batched-fork", case_batched_fork, 4, seed_stream(0xBA7C, 64));
        assert!(
            report.all_passed(),
            "batched-fork failed seeds {:?} of {} swept",
            report.failing,
            report.seeds_run
        );
    }

    #[test]
    fn det_sweep_curated_cases() {
        fast_stall();
        let per_case = seeds_from_env(256).div_ceil(cases().len());
        for (i, (name, case)) in cases().into_iter().enumerate() {
            let report = sweep_det(name, case, 3, seed_stream(i as u64, per_case));
            assert!(
                report.all_passed(),
                "case `{}` failed seeds {:?} of {} swept",
                report.case_name,
                report.failing,
                report.seeds_run
            );
        }
    }

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
    fn planted_bug_caught_replayed_and_shrunk() {
        fast_stall();
        let report = sweep_det("planted-lost-update", planted_lost_update, 2, 0..64);
        assert!(
            !report.failing.is_empty(),
            "the seed sweep must expose the planted lost update in 64 seeds"
        );
        let seed = report.failing[0];
        // A printed seed is a complete reproduction recipe.
        let r1 = replay_det(planted_lost_update, 2, seed);
        let r2 = replay_det(planted_lost_update, 2, seed);
        assert!(!r1.passed() && !r2.passed(), "failing seed {seed} must replay");
        assert_eq!(r1.decisions, r2.decisions, "replays must take the same schedule");
        // And it shrinks to a minimal randomized-decision budget.
        let budget = shrink_det(planted_lost_update, 2, seed).expect("seed fails, so it shrinks");
        assert!(budget <= r1.decisions);
        assert!(!run_det_once(planted_lost_update, 2, seed, budget).passed());
        if budget > 0 {
            assert!(run_det_once(planted_lost_update, 2, seed, budget - 1).passed());
        }
    }

    #[test]
    fn planted_depend_race_caught_replayed_and_shrunk() {
        fast_stall();
        // The correctly-declared chain must survive the same sweep the
        // under-declared one fails: the detector blames the declaration,
        // not the resolver.
        let clean = sweep_det("depend-chain", case_depend_chain, 2, 0..64);
        assert!(clean.all_passed(), "inout chain failed seeds {:?}", clean.failing);
        let report = sweep_det("planted-depend-race", planted_depend_race, 2, 0..64);
        assert!(
            !report.failing.is_empty(),
            "the seed sweep must expose the under-declared `in` dependence in 64 seeds"
        );
        let seed = report.failing[0];
        let r1 = replay_det(planted_depend_race, 2, seed);
        let r2 = replay_det(planted_depend_race, 2, seed);
        assert!(!r1.passed() && !r2.passed(), "failing seed {seed} must replay");
        assert_eq!(r1.decisions, r2.decisions, "replays must take the same schedule");
        let budget = shrink_det(planted_depend_race, 2, seed).expect("seed fails, so it shrinks");
        assert!(budget <= r1.decisions);
        assert!(!run_det_once(planted_depend_race, 2, seed, budget).passed());
        if budget > 0 {
            assert!(run_det_once(planted_depend_race, 2, seed, budget - 1).passed());
        }
    }

    // ------------------------------------------------ adaptive runtime

    /// Under `--features planted-bad-commit` every adaptive commit is
    /// deliberately wrong, so the honest-decision assertions below are
    /// compiled out (the sabotage is a compile-time plant, not an armable
    /// one) and `planted_bad_commit_caught_replayed_and_shrunk` takes
    /// over as the suite's teeth.
    #[cfg(not(feature = "planted-bad-commit"))]
    #[test]
    fn adaptive_det_decisions_replay_by_seed() {
        fast_stall();
        for seed in [0u64, 7, 0xC0FFEE] {
            let a = run_det_adaptive_once(adaptive_commit_storm, 3, seed, u64::MAX);
            let b = run_det_adaptive_once(adaptive_commit_storm, 3, seed, u64::MAX);
            assert!(
                a.passed(),
                "seed {seed}: ok={} violations={:?} wrong_commits={:?}",
                a.ok,
                a.violations,
                a.wrong_commits
            );
            assert!(!a.external.is_empty(), "the storm must draw mechanism decisions");
            assert_eq!(a.external, b.external, "decision stream must replay (seed {seed})");
        }
    }

    #[cfg(not(feature = "planted-bad-commit"))]
    #[test]
    fn adaptive_det_sweep_commits_consistently() {
        fast_stall();
        let n = seeds_from_env(64);
        let report = sweep_det_adaptive(
            "adaptive-commit-storm",
            adaptive_commit_storm,
            3,
            seed_stream(0xADA7, n),
        );
        assert!(
            report.all_passed(),
            "adaptive-commit-storm failed seeds {:?} of {} swept",
            report.failing,
            report.seeds_run
        );
    }

    #[test]
    fn adaptive_counter_laws_hold_across_probe_budgets() {
        fast_stall();
        for k in [1u32, 2, 4] {
            let rt = RuntimeKind::Adaptive.build(OmpConfig::with_threads(3).adaptive_probe_k(k));
            assert!(adaptive_commit_storm(rt.as_ref()), "storm must pass (probe_k={k})");
            let viol = check_counter_invariants(rt.as_ref());
            assert!(viol.is_empty(), "probe_k={k}: {viol:?}");
            let s = rt.counters().snapshot();
            assert!(
                s.adaptive_probes >= s.adaptive_commits_os + s.adaptive_commits_ult,
                "probe_k={k}: commits without probes"
            );
            assert!(
                s.adaptive_commits_os + s.adaptive_commits_ult >= 2,
                "probe_k={k}: both storm callsites must commit \
                 (probes={} commits_os={} commits_ult={})",
                s.adaptive_probes,
                s.adaptive_commits_os,
                s.adaptive_commits_ult
            );
        }
    }

    #[test]
    fn adaptive_suite_passes_pinned_across_probe_budgets() {
        fast_stall();
        // probe_k=1 is the CI fast-explore setting; 2 is the default. The
        // pinned count must hold under both — mechanism routing may
        // differ, semantics may not.
        for k in [1u32, 2] {
            let rt = RuntimeKind::Adaptive.build(OmpConfig::with_threads(4).adaptive_probe_k(k));
            let r = validation::run_suite(rt.as_ref());
            assert_eq!(
                r.passed,
                expected_suite_passes(RuntimeKind::Adaptive),
                "adaptive (probe_k={k}): {}",
                r.row()
            );
        }
    }

    #[cfg(feature = "planted-bad-commit")]
    #[test]
    fn planted_bad_commit_caught_replayed_and_shrunk() {
        fast_stall();
        let report = sweep_det_adaptive("planted-bad-commit", adaptive_commit_storm, 2, 0..64);
        assert!(
            !report.failing.is_empty(),
            "the seed sweep must expose the planted wrong commit in 64 seeds"
        );
        let seed = report.failing[0];
        let r1 = replay_det_adaptive(adaptive_commit_storm, 2, seed);
        let r2 = replay_det_adaptive(adaptive_commit_storm, 2, seed);
        assert!(!r1.passed() && !r2.passed(), "failing seed {seed} must replay");
        assert_eq!(r1.external, r2.external, "replays must draw the same decisions");
        assert!(
            !r1.wrong_commits.is_empty(),
            "the failure must be a commit contradicting its own seeded draw, got \
             ok={} violations={:?}",
            r1.ok,
            r1.violations
        );
        // And it shrinks to a minimal prefix of real seeded decisions.
        let budget =
            shrink_det_adaptive(adaptive_commit_storm, 2, seed).expect("seed fails, so it shrinks");
        assert!(budget <= r1.external.len() as u64);
        assert!(!run_det_adaptive_once(adaptive_commit_storm, 2, seed, budget).passed());
        if budget > 0 {
            assert!(run_det_adaptive_once(adaptive_commit_storm, 2, seed, budget - 1).passed());
        }
    }

    #[cfg(feature = "planted-lost-wakeup")]
    #[test]
    fn planted_lost_wakeup_caught_replayed_and_shrunk() {
        fast_stall();
        let report = sweep_det("planted-lost-wakeup", planted_lost_wakeup, 2, 0..64);
        assert!(
            !report.failing.is_empty(),
            "the seed sweep must expose the planted dropped MCS hand-off in 64 seeds"
        );
        let seed = report.failing[0];
        let r1 = replay_det(planted_lost_wakeup, 2, seed);
        let r2 = replay_det(planted_lost_wakeup, 2, seed);
        assert!(!r1.passed() && !r2.passed(), "failing seed {seed} must replay");
        assert_eq!(r1.decisions, r2.decisions, "replays must take the same schedule");
        let budget = shrink_det(planted_lost_wakeup, 2, seed).expect("seed fails, so it shrinks");
        assert!(budget <= r1.decisions);
        assert!(!run_det_once(planted_lost_wakeup, 2, seed, budget).passed());
        if budget > 0 {
            assert!(run_det_once(planted_lost_wakeup, 2, seed, budget - 1).passed());
        }
    }

    #[test]
    fn lock_slow_paths_obey_counter_laws_across_matrix() {
        fast_stall();
        for kind in RuntimeKind::matrix() {
            for lk in [LockKind::SpinYield, LockKind::Mcs] {
                let rt = kind.build(OmpConfig::with_threads(4).lock_kind(lk).spin_budget(8));
                rt.parallel(|ctx| {
                    for _ in 0..32 {
                        ctx.critical("law-storm", || {});
                    }
                });
                let viol = check_counter_invariants(rt.as_ref());
                assert!(viol.is_empty(), "{} {lk:?}: {viol:?}", kind.name());
                let s = rt.counters().snapshot();
                assert!(
                    s.lock_yields <= s.lock_spins,
                    "{} {lk:?}: yields {} > spins {}",
                    kind.name(),
                    s.lock_yields,
                    s.lock_spins
                );
                assert!(
                    s.lock_handoffs <= s.lock_spins,
                    "{} {lk:?}: handoffs {} > spins {}",
                    kind.name(),
                    s.lock_handoffs,
                    s.lock_spins
                );
            }
        }
    }

    #[test]
    fn validation_suite_matrix_is_green() {
        fast_stall();
        for kind in RuntimeKind::matrix() {
            let rt = kind.build(OmpConfig::with_threads(4));
            let r = validation::run_suite(rt.as_ref());
            if matches!(kind, RuntimeKind::GltoDet { .. }) {
                // After the designed flush-consumer stall the det run
                // free-runs under OS scheduling, where the two cross-mode
                // race-detector entries may (machine-dependently) manage
                // to demonstrate their race: accept [floor, stealing-GLTO
                // count].
                let range = DET_SUITE_PASSES..=expected_suite_passes(RuntimeKind::GltoMth);
                assert!(
                    range.contains(&r.passed),
                    "{}: passed {} outside {range:?}: {}",
                    kind.name(),
                    r.passed,
                    r.row()
                );
            } else {
                assert_eq!(r.passed, expected_suite_passes(kind), "{}: {}", kind.name(), r.row());
            }
        }
    }

    #[test]
    fn counter_invariants_hold_after_mixed_workload_on_every_runtime() {
        fast_stall();
        for kind in RuntimeKind::matrix() {
            let rt = kind.build(OmpConfig::with_threads(4));
            let hits = AtomicU64::new(0);
            let hits = &hits;
            rt.parallel(|ctx| {
                ctx.for_each(0..32, Schedule::Dynamic { chunk: 4 }, |_| {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
                ctx.single(|| {
                    for _ in 0..6 {
                        ctx.task(move |_| {
                            hits.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
                ctx.taskwait();
            });
            let viol = check_counter_invariants(rt.as_ref());
            assert!(viol.is_empty(), "{}: {viol:?}", kind.name());
        }
    }

    // ------------------------------------------------- topology matrix

    /// The ISSUE's topology sweep shapes: flat single-domain, two-socket
    /// without SMT, two-socket with SMT.
    fn sweep_topologies() -> [glt::Topology; 3] {
        ["1x1x1", "2x4x1", "2x4x2"].map(|s| glt::Topology::parse(s).expect("valid spec"))
    }

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
        for topo in sweep_topologies() {
            for kind in RuntimeKind::matrix() {
                let rt = kind.build(OmpConfig::with_threads(4).topology(topo));
                run_task_storm(rt.as_ref());
                let viol = check_counter_invariants(rt.as_ref());
                assert!(viol.is_empty(), "{} under {topo:?}: {viol:?}", kind.name());
                let s = rt.counters().snapshot();
                assert_eq!(
                    s.steals_same_domain + s.steals_cross_domain,
                    s.steals,
                    "{} under {topo:?}: steal locality accounting must conserve",
                    kind.name()
                );
                if topo.num_domains() == 1 {
                    assert_eq!(
                        s.steals_cross_domain,
                        0,
                        "{} under {topo:?}: a single domain has no cross-domain steals",
                        kind.name()
                    );
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
                let rt = kind.build(OmpConfig::with_threads(4).topology(topo).proc_bind(bind));
                run_task_storm(rt.as_ref());
                let viol = check_counter_invariants(rt.as_ref());
                assert!(viol.is_empty(), "{} bind {bind:?}: {viol:?}", kind.name());
                let s = rt.counters().snapshot();
                assert_eq!(
                    s.steals_cross_domain,
                    0,
                    "{} bound with {bind:?} stole across sockets",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn validation_suite_passes_are_pinned_under_synthetic_topologies() {
        fast_stall();
        for topo in [glt::Topology::parse("2x4x1"), glt::Topology::parse("2x4x2")] {
            let topo = topo.expect("valid spec");
            for kind in shared_queue_matrix() {
                let rt = kind.build(OmpConfig::with_threads(4).topology(topo));
                let r = validation::run_suite(rt.as_ref());
                assert_eq!(
                    r.passed,
                    expected_suite_passes(kind),
                    "{} under {topo:?}: {}",
                    kind.name(),
                    r.row()
                );
            }
        }
    }

    #[test]
    fn det_sweep_under_synthetic_topologies() {
        fast_stall();
        // 64 seeds per shape: the same schedule explorer, now also deciding
        // *which steal tier* a thief raids, must stay conforming whether
        // the machine is flat or hierarchical.
        for (i, topo) in sweep_topologies().into_iter().enumerate() {
            let cfg = OmpConfig::with_threads(4).topology(topo);
            let report = sweep_det_cfg(
                "tasks-taskwait",
                case_tasks_taskwait,
                &cfg,
                seed_stream(0x7090 + i as u64, 64),
            );
            assert!(
                report.all_passed(),
                "tasks-taskwait under {topo:?} failed seeds {:?} of {} swept",
                report.failing,
                report.seeds_run
            );
        }
    }

    #[cfg(feature = "planted-cross-starvation")]
    #[test]
    fn planted_cross_starvation_caught_replayed_and_shrunk() {
        fast_stall();
        // Two domains, no SMT: the single-runner's pool is in one domain,
        // so the other domain's thieves see only cross-domain victims —
        // exactly what the plant starves until the backstop rescues them.
        let cfg =
            OmpConfig::with_threads(4).topology(glt::Topology::parse("2x4x1").expect("valid spec"));
        let report =
            sweep_det_cfg("planted-cross-starvation", planted_cross_starvation, &cfg, 0..64);
        assert!(
            !report.failing.is_empty(),
            "the seed sweep must expose the planted cross-domain starvation in 64 seeds"
        );
        let seed = report.failing[0];
        let r1 = replay_det_cfg(planted_cross_starvation, &cfg, seed);
        let r2 = replay_det_cfg(planted_cross_starvation, &cfg, seed);
        assert!(!r1.passed() && !r2.passed(), "failing seed {seed} must replay");
        assert_eq!(r1.decisions, r2.decisions, "replays must take the same schedule");
        let budget = shrink_det_cfg(planted_cross_starvation, &cfg, seed)
            .expect("seed fails, so it shrinks");
        assert!(budget <= r1.decisions);
        assert!(!run_det_once_cfg(planted_cross_starvation, &cfg, seed, budget).passed());
        if budget > 0 {
            assert!(run_det_once_cfg(planted_cross_starvation, &cfg, seed, budget - 1).passed());
        }
    }

    #[test]
    fn seed_stream_is_deterministic_and_distinct() {
        assert_eq!(seed_stream(3, 16), seed_stream(3, 16));
        assert_ne!(seed_stream(3, 16), seed_stream(4, 16));
        let s = seed_stream(0, 64);
        let uniq: std::collections::HashSet<_> = s.iter().collect();
        assert_eq!(uniq.len(), s.len());
    }

    // ---------------------------------------------------- service layer

    /// 2–8 concurrent tenants on one substrate: every job verifies, the
    /// admission conservation laws hold once drained, and each tenant's
    /// ledger slot counts exactly its own jobs.
    #[test]
    fn service_admission_conserves_across_tenant_counts() {
        fast_stall();
        for tenants in [2usize, 3, 5, 8] {
            let mut cfg = omp_service::ServiceConfig::new(tenants);
            cfg.topology = glt::Topology::new(4, 2, 1);
            cfg.max_concurrent = 4;
            let s = omp_service::Substrate::start(cfg);
            let mix = omp_service::Workload::mix();
            let kinds = [RuntimeKind::GltoAbt, RuntimeKind::GltoQth, RuntimeKind::GltoMth];
            let tickets: Vec<_> = (0..tenants * 2)
                .map(|i| {
                    s.submit(omp_service::JobSpec {
                        tenant: i % tenants,
                        workload: mix[i % mix.len()].clone(),
                        threads: 2,
                        runtime: kinds[i % kinds.len()],
                    })
                    .expect("unbounded queue")
                })
                .collect();
            for t in tickets {
                let out = t.wait();
                assert!(out.ok, "tenant {} wrong digest with {tenants} tenants", out.tenant);
            }
            let report = s.shutdown();
            assert!(report.is_clean(), "{tenants} tenants: {:?}", report.violations);
            assert!(
                report.per_tenant_violations().is_empty(),
                "{tenants} tenants: {:?}",
                report.per_tenant_violations()
            );
            assert_eq!(report.service.jobs_queued, (tenants * 2) as u64);
            assert_eq!(report.service.jobs_admitted, (tenants * 2) as u64);
            assert_eq!(report.aggregate.tenant_steals_leaked, 0);
            for (t, totals) in report.per_tenant.iter().enumerate() {
                assert_eq!((totals.jobs_ok, totals.jobs_bad), (2, 0), "tenant {t}");
            }
        }
    }

    /// Coexistence must not change semantics: tenants that each run the
    /// full validation suite as a service job still score their runtime's
    /// pinned pass count (Table I) while sharing one substrate.
    #[test]
    fn concurrent_tenant_suites_keep_pinned_pass_counts() {
        fast_stall();
        let kinds = [
            RuntimeKind::Gnu,
            RuntimeKind::Intel,
            RuntimeKind::GltoAbt,
            RuntimeKind::GltoQth,
            RuntimeKind::GltoMth,
            RuntimeKind::Adaptive,
        ];
        let mut cfg = omp_service::ServiceConfig::new(kinds.len());
        cfg.topology = glt::Topology::new(4, 2, 1);
        cfg.max_concurrent = 4;
        let s = omp_service::Substrate::start(cfg);
        let tickets: Vec<_> = kinds
            .iter()
            .enumerate()
            .map(|(t, &kind)| {
                let suite = omp_service::Workload::Custom(std::sync::Arc::new(|rt| {
                    validation::run_suite(rt).passed as u64
                }));
                s.submit(omp_service::JobSpec {
                    tenant: t,
                    workload: suite,
                    threads: 2,
                    runtime: kind,
                })
                .expect("unbounded queue")
            })
            .collect();
        for (t, ticket) in tickets.into_iter().enumerate() {
            let out = ticket.wait();
            assert_eq!(
                out.digest,
                expected_suite_passes(kinds[t]) as u64,
                "{} under multi-tenancy",
                kinds[t].name()
            );
        }
        let report = s.shutdown();
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    /// The clean accounting probe is exact on every swept schedule (the
    /// planted-bleed build must flip this same sweep red).
    #[cfg(not(feature = "planted-tenant-bleed"))]
    #[test]
    fn tenant_accounting_sweep_is_clean() {
        fast_stall();
        let report = sweep_det(
            "tenant-accounting",
            tenant_accounting,
            4,
            seed_stream(97, seeds_from_env(64)),
        );
        assert!(report.all_passed(), "failing seeds: {:?}", report.failing);
    }

    #[cfg(feature = "planted-tenant-bleed")]
    #[test]
    fn planted_tenant_bleed_caught_replayed_and_shrunk() {
        fast_stall();
        let report = sweep_det("planted-tenant-bleed", tenant_accounting, 2, 0..64);
        assert!(
            !report.failing.is_empty(),
            "the seed sweep must expose the planted cross-tenant charge bleed in 64 seeds"
        );
        let seed = report.failing[0];
        let r1 = replay_det(tenant_accounting, 2, seed);
        let r2 = replay_det(tenant_accounting, 2, seed);
        assert!(!r1.passed() && !r2.passed(), "failing seed {seed} must replay");
        assert_eq!(r1.decisions, r2.decisions, "replays must take the same schedule");
        let budget = shrink_det(tenant_accounting, 2, seed).expect("seed fails, so it shrinks");
        assert!(budget <= r1.decisions);
        assert!(!run_det_once(tenant_accounting, 2, seed, budget).passed());
        if budget > 0 {
            assert!(run_det_once(tenant_accounting, 2, seed, budget - 1).passed());
        }
    }

    /// A co-tenant arming the planted lock fault never fires in another
    /// runtime's lock scope — all-green across the sweep even though the
    /// arm is live for the whole case.
    #[cfg(feature = "planted-lost-wakeup")]
    #[test]
    fn foreign_arm_sweep_is_all_green() {
        fast_stall();
        let report =
            sweep_det("planted-lost-wakeup-foreign-arm", planted_lost_wakeup_foreign_arm, 2, 0..32);
        assert!(report.all_passed(), "failing seeds: {:?}", report.failing);
    }
}

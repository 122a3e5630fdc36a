//! The curated conformance cases and the planted-bug cases that prove the
//! seed sweep has teeth.

use std::sync::atomic::{AtomicU64, Ordering};

use omp::{Dep, LockKind, OmpLock, OmpNestLock, OmpRuntime, OmpRuntimeExt, Schedule};

use crate::Case;

/// The curated conformance cases: small, assertion-dense programs covering
/// the synchronization-heavy constructs (the ones whose semantics depend on
/// the schedule). Each runs on every [`workloads::RuntimeKind::matrix`]
/// runtime and is swept across seeds on `glto-det`.
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

pub(crate) fn case_tasks_taskwait(rt: &dyn OmpRuntime) -> bool {
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

/// Commit-heavy adaptive workload: drives two distinct callsites — one
/// flat, one task-heavy — past the explore budget (at the default
/// `OMP_ADAPTIVE_PROBE_K` each commits after four probes), then keeps
/// forking on the committed path. On `omp-adaptive` this exercises the
/// full memo-table lifecycle; on every other runtime it is an ordinary
/// fork/task loop. Swept on [`crate::DetTarget::Adaptive`], where the
/// commit-consistency audit turns any wrong commit (planted or real) into
/// a failing, replayable, shrinkable seed.
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

// ---------------------------------------------------------- planted bugs

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
    read_yield_write_pair(rt, &[])
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
    let x = 0u8;
    // BUG under test: should be `Dep::readwrite(&x)`.
    read_yield_write_pair(rt, &[Dep::read(&x)])
}

/// The planted bugs' shared body: two sibling tasks declaring `deps`, each
/// reading the cell, yielding, and writing back the read value plus one.
fn read_yield_write_pair(rt: &dyn OmpRuntime, deps: &[Dep]) -> bool {
    let cell = AtomicU64::new(0);
    rt.parallel(|ctx| {
        let cell = &cell;
        ctx.single(|| {
            for _ in 0..2 {
                ctx.task_depend(deps, move |c| {
                    let read = cell.load(Ordering::SeqCst);
                    c.taskyield(); // scheduling point inside the RMW window
                    cell.store(read + 1, Ordering::SeqCst);
                });
            }
        });
    });
    cell.load(Ordering::SeqCst) == 2
}

#[cfg(test)]
mod tests {
    use omp::OmpConfig;
    use workloads::RuntimeKind;

    use super::*;
    use crate::det::{
        assert_caught_replayed_shrunk, seed_stream, seeds_from_env, sweep, DetTarget,
    };
    use crate::fast_stall;
    use crate::laws::{glto_matrix, run_case};

    fn assert_cases_pass(kinds: impl IntoIterator<Item = RuntimeKind>, cfg: OmpConfig) {
        fast_stall();
        for kind in kinds {
            for (name, case) in cases() {
                run_case(kind, cfg.clone(), name, case).unwrap();
            }
        }
    }

    #[test]
    fn curated_cases_pass_on_every_matrix_runtime() {
        assert_cases_pass(RuntimeKind::matrix(), OmpConfig::with_threads(4));
    }

    #[test]
    fn curated_cases_pass_under_shared_queues() {
        assert_cases_pass(glto_matrix(), OmpConfig::with_threads(4).shared_queues(true));
    }

    #[test]
    fn curated_cases_pass_under_hot_ults() {
        assert_cases_pass(glto_matrix(), OmpConfig::with_threads(4).hot_ults(true));
    }

    #[test]
    fn det_sweep_batched_fork_enqueue() {
        fast_stall();
        // 64 seeds over a fork-heavy case at threads=4: schedule
        // exploration specifically around the one-call batched enqueue.
        let cfg = OmpConfig::with_threads(4);
        sweep(DetTarget::Glto, "batched-fork", case_batched_fork, &cfg, seed_stream(0xBA7C, 64))
            .assert_all_passed();
    }

    #[test]
    fn det_sweep_curated_cases() {
        fast_stall();
        let per_case = seeds_from_env(256).div_ceil(cases().len());
        let cfg = OmpConfig::with_threads(3);
        for (i, (name, case)) in cases().into_iter().enumerate() {
            sweep(DetTarget::Glto, name, case, &cfg, seed_stream(i as u64, per_case))
                .assert_all_passed();
        }
    }

    #[test]
    fn det_sweep_under_synthetic_topologies() {
        fast_stall();
        // 64 seeds per shape: the same schedule explorer, now also deciding
        // *which steal tier* a thief raids, must stay conforming whether
        // the machine is flat or hierarchical.
        for (i, spec) in ["1x1x1", "2x4x1", "2x4x2"].into_iter().enumerate() {
            let topo = glt::Topology::parse(spec).expect("valid spec");
            let cfg = OmpConfig::with_threads(4).topology(topo);
            let seeds = seed_stream(0x7090 + i as u64, 64);
            sweep(DetTarget::Glto, spec, case_tasks_taskwait, &cfg, seeds).assert_all_passed();
        }
    }

    #[test]
    fn planted_bug_caught_replayed_and_shrunk() {
        fast_stall();
        let cfg = OmpConfig::with_threads(2);
        assert_caught_replayed_shrunk(DetTarget::Glto, planted_lost_update, &cfg, 0..64);
    }

    #[test]
    fn planted_depend_race_caught_replayed_and_shrunk() {
        fast_stall();
        // The correctly-declared chain must survive the same sweep the
        // under-declared one fails: the detector blames the declaration,
        // not the resolver.
        let cfg = OmpConfig::with_threads(2);
        sweep(DetTarget::Glto, "depend-chain", case_depend_chain, &cfg, 0..64).assert_all_passed();
        assert_caught_replayed_shrunk(DetTarget::Glto, planted_depend_race, &cfg, 0..64);
    }
}

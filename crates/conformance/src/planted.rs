//! The planted faults (feature `planted`): the probe that catches each
//! one, the sweep each is caught under, and the proof that an armed fault
//! stays in the runtime that armed it.

use std::sync::atomic::{AtomicU64, Ordering};

use glt::planted::Fault;
use omp::{LockKind, OmpConfig, OmpLock, OmpRuntime, OmpRuntimeExt};

use crate::cases::adaptive_commit_storm;
use crate::det::DetTarget;
use crate::service::tenant_accounting;
use crate::Case;

/// Probe for [`Fault::LostWakeup`]: contended MCS hand-offs with the lock
/// held across an explicit scheduling point, so whether a waiter is queued
/// at release time — and therefore whether an armed fault fires — is
/// decided by the det schedule. Fails iff the victim's backstop repaired a
/// dropped hand-off in this runtime's scope.
fn lost_wakeup_probe(rt: &dyn OmpRuntime) -> bool {
    let lock = OmpLock::with_kind(LockKind::Mcs, 4);
    let before = glt::planted::hits(Fault::LostWakeup);
    rt.parallel(|_| {
        for _ in 0..4 {
            lock.set();
            glt::coop::yield_to_scheduler(); // hold across a scheduling point
            lock.unset();
        }
    });
    glt::planted::hits(Fault::LostWakeup) == before
}

/// Probe for [`Fault::CrossStarvation`]: a single-runner burst of yielding
/// tasks. Under a multi-domain topology the burst lands in the producer's
/// pool, so every thief in the *other* domain sees only cross-domain
/// victims — what the armed fault starves until its backstop rescues the
/// thief. Fails iff a rescue happened in this runtime's scope.
fn cross_starvation_probe(rt: &dyn OmpRuntime) -> bool {
    let before = glt::planted::hits(Fault::CrossStarvation);
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
    glt::planted::hits(Fault::CrossStarvation) == before
}

/// The catching sweep of a planted fault: the det target and
/// configuration to sweep, and a probe that passes on every seed while the
/// fault is unarmed in the probed runtime's scope and fails on the seeds
/// where an armed fault fires.
#[must_use]
fn plant(fault: Fault) -> (DetTarget, OmpConfig, Case) {
    let two = OmpConfig::with_threads(2);
    match fault {
        Fault::LostWakeup => (DetTarget::Glto, two, lost_wakeup_probe),
        // Two domains, no SMT: the single runner's pool is in one domain,
        // so the other domain's thieves see only cross-domain victims.
        // Under a flat topology the fault is inert.
        Fault::CrossStarvation => {
            let topo = glt::Topology::parse("2x4x1").expect("valid spec");
            (DetTarget::Glto, OmpConfig::with_threads(4).topology(topo), cross_starvation_probe)
        }
        Fault::BadCommit => (DetTarget::Adaptive, two, adaptive_commit_storm),
        Fault::TenantBleed => (DetTarget::Glto, two, tenant_accounting),
    }
}

/// The catching case of a planted fault: arm `fault` for the runtime the
/// case runs on (the calling thread's innermost), then run `probe`.
fn armed(fault: Fault, probe: Case) -> impl Fn(&dyn OmpRuntime) -> bool + Copy {
    move |rt| {
        glt::planted::arm(fault);
        probe(rt)
    }
}

#[cfg(test)]
mod tests {
    use workloads::RuntimeKind;

    use super::*;
    use crate::det::{assert_caught_replayed_shrunk, sweep, DetRun};
    use crate::fast_stall;

    fn assert_plant_caught(fault: Fault) -> DetRun {
        fast_stall();
        let (target, cfg, probe) = plant(fault);
        assert_caught_replayed_shrunk(target, armed(fault, probe), &cfg, 0..64)
    }

    #[test]
    fn planted_lost_wakeup_caught_replayed_and_shrunk() {
        assert_plant_caught(Fault::LostWakeup);
    }

    #[test]
    fn planted_cross_starvation_caught_replayed_and_shrunk() {
        assert_plant_caught(Fault::CrossStarvation);
    }

    #[test]
    fn planted_bad_commit_caught_replayed_and_shrunk() {
        let r = assert_plant_caught(Fault::BadCommit);
        assert!(!r.wrong_commits.is_empty(), "the failure must be a wrong commit: {r:?}");
    }

    #[test]
    fn planted_tenant_bleed_caught_replayed_and_shrunk() {
        assert_plant_caught(Fault::TenantBleed);
    }

    /// Every planted fault is scoped to the runtime that armed it: a
    /// co-tenant arms the fault inside every swept schedule and goes away,
    /// and the victim's own catching probe — under that fault's own target
    /// and topology — stays green on all seeds.
    #[test]
    fn foreign_arm_sweep_is_all_green() {
        fast_stall();
        for fault in
            [Fault::LostWakeup, Fault::CrossStarvation, Fault::BadCommit, Fault::TenantBleed]
        {
            let (target, cfg, probe) = plant(fault);
            let foreign_armed = move |rt: &dyn OmpRuntime| {
                // Building the co-tenant registers it innermost on this
                // thread, so the arm lands in the co-tenant's scope only.
                let foreign = RuntimeKind::GltoAbt.build(OmpConfig::with_threads(2));
                glt::planted::arm(fault);
                drop(foreign);
                probe(rt)
            };
            let name = format!("{fault:?}-foreign-arm");
            sweep(target, &name, foreign_armed, &cfg, 0..32).assert_all_passed();
        }
    }
}

//! The backend scheduler interface.
//!
//! A GLT backend is, at this level, a placement + queueing policy: where a
//! newly created work unit goes, and where a worker looks for its next unit.
//! Everything else (worker threads, parking, join-help loops, counters) is
//! shared infrastructure in [`crate::runtime`], so the *only* difference
//! between the Argobots-, Qthreads-, and MassiveThreads-like backends is the
//! scheduling semantics the paper attributes to them.

use crate::config::GltConfig;
use crate::topology::Topology;
use crate::unit::Unit;

/// Where a creation call asked the unit to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Backend default: the creator's own pool (GLT `ult_create`).
    Local,
    /// A specific worker's pool (GLT `ult_create_to`); GLTO uses this for
    /// its round-robin task dispatch (§IV-D).
    To(usize),
}

/// A successful steal: the unit plus the topology domain of the pool it was
/// taken from, so the runtime can classify the steal as same- vs
/// cross-domain (the `steals_same_domain`/`steals_cross_domain` counters).
#[derive(Debug)]
pub struct Stolen {
    /// The stolen unit.
    pub unit: Unit,
    /// Domain (socket) of the victim pool under the scheduler's topology.
    pub from_domain: usize,
}

/// Scheduling policy implemented by each backend crate.
///
/// Implementations must be safe to call concurrently from all workers.
/// `rank` arguments are the *calling* worker's rank; `push` may be called
/// from a non-worker thread with `rank == None` (e.g. an external thread
/// creating work before registering), in which case backends should fall
/// back to worker 0's pool or a shared queue.
pub trait Scheduler: Send + Sync + 'static {
    /// Human-readable backend name, e.g. `"argobots"`.
    fn name(&self) -> &'static str;

    /// Enqueue a unit created by `creator` with the given placement.
    fn push(&self, creator: Option<usize>, placement: Placement, unit: Unit);

    /// Enqueue a whole fork's worth of units in one scheduler call.
    ///
    /// Backends override this to amortize their per-push synchronization
    /// over the batch: one lock acquisition (Qthreads-like: one FEB
    /// round-trip) per *target pool* rather than per unit. Within one
    /// target pool, units must become poppable in batch order. The default
    /// is the unamortized loop, so correctness never depends on the
    /// override.
    fn push_batch(&self, creator: Option<usize>, units: Vec<(Placement, Unit)>) {
        for (placement, unit) in units {
            self.push(creator, placement, unit);
        }
    }

    /// Take the next unit for worker `rank` from its own pool(s).
    fn pop_own(&self, rank: usize) -> Option<Unit>;

    /// Attempt to take work from elsewhere (work stealing). Backends that
    /// do not steal (Argobots-like private pools) return `None`.
    ///
    /// Stealing backends must honor the configured topology: prefer
    /// same-domain victims, fall outward tier by tier, and never cross a
    /// domain boundary when `GltConfig::cross_domain_steal` is off. The
    /// returned [`Stolen::from_domain`] reports where the unit actually
    /// came from.
    fn steal(&self, thief: usize) -> Option<Stolen>;

    /// Whether this backend's policy migrates units between workers.
    fn can_steal(&self) -> bool;

    /// Approximate total queued units (used by tests and load reporting).
    fn queued_len(&self) -> usize;

    /// Hook invoked once, on the thread dropping the runtime, before the
    /// stop flag is raised and workers are joined (optional). Cooperative
    /// schedulers (e.g. the deterministic stepper backend) use this to
    /// release any worker they are holding at a scheduling decision, so
    /// shutdown can never deadlock on the scheduler's own serialization.
    fn on_shutdown(&self) {}

    /// Reconfigure hints from the runtime config (shared queues etc.) are
    /// passed at construction time by each backend's constructor; this
    /// accessor reports whether the backend is running in the paper's
    /// `GLT_SHARED_QUEUES` mode (§IV-F).
    fn shared_queues(&self) -> bool;

    /// Backend-specific yield for a *blocking* waiter on worker `rank`
    /// (lock slow path, barrier arrival): give the rest of the system a
    /// chance to run the holder. Units run to completion in this stack, so
    /// there is no ULT context to switch to mid-unit; the default — and
    /// every preemptively-scheduled backend's choice — is to release the
    /// worker's OS timeslice. The deterministic stepper overrides this to
    /// hand its run token to another controlled thread instead (an OS
    /// yield would be a no-op there: the other threads are token-blocked,
    /// not runnable).
    fn waiter_yield(&self, _rank: usize) {
        std::thread::yield_now();
    }

    /// `true` when this scheduler serializes its threads through a run
    /// token (`glt-det`): waiters must never raw-spin, because the holder
    /// cannot run until the waiter reaches a yield point.
    fn schedule_controlled(&self) -> bool {
        false
    }
}

/// The shared-queue scheduler, used directly when `GLT_SHARED_QUEUES` is
/// requested and as the reference implementation in tests. One injector
/// queue **per topology domain**: all workers of a socket share their
/// domain's queue, so load imbalance is neutralized within each domain
/// (the paper's §IV-F behaviour) without making every push/pop in a
/// multi-socket machine contend on one global line. Under the default flat
/// topology there is exactly one shard — the original single shared queue.
///
/// `pop_own` drains the caller's domain shard; `steal` first re-probes the
/// own shard (another worker may have pushed since `pop_own` failed), then
/// — when cross-domain stealing is allowed — walks the other shards
/// nearest-first.
#[derive(Debug)]
pub struct SharedQueueScheduler {
    shards: Vec<crossbeam_queue::SegQueue<Unit>>,
    topo: Topology,
    cross_domain: bool,
}

impl SharedQueueScheduler {
    /// Create a shared-queue scheduler for `cfg.num_threads` workers over
    /// `cfg`'s (possibly synthetic) topology.
    #[must_use]
    pub fn new(cfg: &GltConfig) -> Self {
        let topo = cfg.resolved_topology();
        SharedQueueScheduler {
            shards: (0..topo.num_domains()).map(|_| crossbeam_queue::SegQueue::new()).collect(),
            topo,
            cross_domain: cfg.cross_domain_steal,
        }
    }

    /// Number of per-domain shards (tests/diagnostics).
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Queued units in domain `d`'s shard (tests/diagnostics).
    #[must_use]
    pub fn shard_len(&self, d: usize) -> usize {
        self.shards.get(d).map_or(0, crossbeam_queue::SegQueue::len)
    }

    fn shard_of(&self, creator: Option<usize>, placement: Placement) -> usize {
        let rank = match placement {
            Placement::To(t) => t,
            Placement::Local => creator.unwrap_or(0),
        };
        self.topo.domain_of_rank(rank)
    }
}

impl Scheduler for SharedQueueScheduler {
    fn name(&self) -> &'static str {
        "shared-queue"
    }

    fn push(&self, creator: Option<usize>, placement: Placement, unit: Unit) {
        self.shards[self.shard_of(creator, placement)].push(unit);
    }

    fn pop_own(&self, rank: usize) -> Option<Unit> {
        self.shards[self.topo.domain_of_rank(rank)].pop()
    }

    fn steal(&self, thief: usize) -> Option<Stolen> {
        let own = self.topo.domain_of_rank(thief);
        if let Some(unit) = self.shards[own].pop() {
            return Some(Stolen { unit, from_domain: own });
        }
        if !self.cross_domain {
            return None;
        }
        // Nearest-first ring walk over the other domains.
        for off in 1..self.shards.len() {
            let d = (own + off) % self.shards.len();
            if let Some(unit) = self.shards[d].pop() {
                return Some(Stolen { unit, from_domain: d });
            }
        }
        None
    }

    fn can_steal(&self) -> bool {
        true
    }

    fn queued_len(&self) -> usize {
        self.shards.iter().map(crossbeam_queue::SegQueue::len).sum()
    }

    fn shared_queues(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::{UnitKind, UnitState};

    fn unit() -> Unit {
        Unit(UnitState::new(UnitKind::Ult, 0, Box::new(|| {})))
    }

    #[test]
    fn shared_queue_fifo_and_lengths() {
        let s = SharedQueueScheduler::new(&GltConfig::with_threads(2));
        assert_eq!(s.queued_len(), 0);
        s.push(Some(0), Placement::Local, unit());
        s.push(Some(1), Placement::To(0), unit());
        assert_eq!(s.queued_len(), 2);
        assert!(s.pop_own(1).is_some());
        assert!(s.steal(0).is_some());
        assert!(s.pop_own(0).is_none());
    }

    #[test]
    fn push_batch_preserves_batch_order_per_pool() {
        let s = SharedQueueScheduler::new(&GltConfig::with_threads(2));
        let mk = |i: u64| {
            Unit(UnitState::new_with_class(
                UnitKind::Ult,
                crate::unit::UnitClass::Task,
                i,
                0,
                Box::new(|| {}),
            ))
        };
        s.push_batch(Some(0), (0..4).map(|i| (Placement::Local, mk(i))).collect());
        assert_eq!(s.queued_len(), 4);
        for i in 0..4 {
            let u = s.pop_own(0).expect("queued");
            assert_eq!(u.0.tag(), i, "units pop in batch order");
        }
    }

    #[test]
    fn shared_queue_reports_semantics() {
        let s = SharedQueueScheduler::new(&GltConfig::default());
        assert!(s.can_steal());
        assert!(s.shared_queues());
        assert_eq!(s.name(), "shared-queue");
        assert_eq!(s.num_shards(), 1, "flat topology collapses to the single shared queue");
    }

    #[test]
    fn sharded_queue_routes_by_domain() {
        let topo = Topology::parse("2x4x1").unwrap();
        let s = SharedQueueScheduler::new(&GltConfig::with_threads(4).topology(topo));
        assert_eq!(s.num_shards(), 2);
        // Ranks 0/2 are domain 0; ranks 1/3 domain 1 (scatter layout).
        s.push(Some(0), Placement::To(0), unit());
        s.push(Some(0), Placement::To(2), unit());
        s.push(Some(0), Placement::To(1), unit());
        s.push(Some(1), Placement::Local, unit());
        assert_eq!(s.shard_len(0), 2);
        assert_eq!(s.shard_len(1), 2);
        // pop_own drains only the caller's domain shard.
        assert!(s.pop_own(0).is_some());
        assert!(s.pop_own(2).is_some());
        assert!(s.pop_own(0).is_none(), "domain 0 drained; rank 0 must not see domain 1 work");
        // Cross-domain steal reports the victim domain.
        let st = s.steal(0).expect("domain 1 still has work");
        assert_eq!(st.from_domain, 1);
        let st = s.steal(1).expect("own-domain steal");
        assert_eq!(st.from_domain, 1);
    }

    #[test]
    fn sharded_queue_honors_cross_domain_gate() {
        let topo = Topology::parse("2x4x1").unwrap();
        let s = SharedQueueScheduler::new(
            &GltConfig::with_threads(4).topology(topo).cross_domain_steal(false),
        );
        s.push(Some(0), Placement::To(1), unit());
        assert!(s.steal(0).is_none(), "rank 0 (domain 0) must not steal domain 1 work");
        let st = s.steal(1).expect("domain 1's own worker takes it");
        assert_eq!(st.from_domain, 1);
    }
}

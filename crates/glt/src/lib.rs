//! # GLT — Generic Lightweight Threads
//!
//! A Rust reimplementation of the **Generic Lightweight Threads (GLT)** API
//! from *GLTO: On the Adequacy of Lightweight Thread Approaches for OpenMP
//! Implementations* (Castelló et al., ICPP 2017). GLT unifies several
//! lightweight-thread (LWT) libraries under one programming model so that a
//! runtime built on it — like the paper's GLTO OpenMP runtime (`glto`
//! crate) — can swap the underlying LWT library without code changes.
//!
//! The programming model (paper Fig. 1):
//!
//! * **GLT_thread** — an OS thread bound to a core; `num_threads` of them
//!   exist for the life of the runtime. The thread that starts the runtime
//!   is GLT_thread 0.
//! * **GLT_ult** — a user-level thread, created/scheduled in user space.
//! * **GLT_tasklet** — a stackless work unit that cannot yield or migrate
//!   once started (native in Argobots, emulated elsewhere).
//! * **GLT_scheduler** — backend policy; changes performance, not results.
//!
//! Backends live in sibling crates: `glt-abt` (Argobots-like private
//! pools), `glt-qth` (Qthreads-like shepherds + full/empty-bit
//! synchronization) and `glt-mth` (MassiveThreads-like work-first stealing).
//!
//! ## Quick start
//!
//! ```
//! use glt::{GltConfig, start_shared, scope, GltRuntime};
//!
//! let rt = start_shared(GltConfig::with_threads(2));
//! let mut data = vec![0u64; 16];
//! scope(&rt, |s| {
//!     for chunk in data.chunks_mut(4) {
//!         s.spawn(move || chunk.iter_mut().for_each(|v| *v += 1));
//!     }
//! });
//! assert!(data.iter().all(|&v| v == 1));
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod coop;
pub mod counters;
pub mod feb;
pub mod park;
#[cfg(feature = "planted")]
pub mod planted;
pub mod runtime;
pub mod sched;
pub mod scope;
pub mod timer;
pub mod topology;
pub mod unit;

pub use config::{GltConfig, WaitPolicy};
pub use coop::{SpinWait, SyncWaiter};
pub use counters::{CounterSnapshot, Counters};
pub use feb::FebTable;
pub use runtime::{start_shared, GltRuntime, Runtime, SharedRuntime};
pub use sched::{Placement, Scheduler, SharedQueueScheduler, Stolen};
pub use scope::{scope, GltScope};
pub use timer::{wtick, GltTimer};
pub use topology::Topology;
pub use unit::{UltHandle, Unit, UnitClass, UnitKind, UnitSlab, UnitState, WorkFn, NO_RANK};

/// Backends either implement their own policy or — when the user sets
/// `GLT_SHARED_QUEUES` (paper §IV-F) — fall back to one shared queue.
/// This wrapper lets every backend honor that switch without duplicating
/// the shared-queue logic.
#[derive(Debug)]
pub enum Pooled<S: Scheduler> {
    /// Backend-native scheduling policy.
    Backend(S),
    /// `GLT_SHARED_QUEUES` mode: one queue for all GLT_threads.
    Shared(SharedQueueScheduler),
}

impl<S: Scheduler> Pooled<S> {
    /// Build from config: shared-queue mode if requested, else `make()`.
    pub fn new(cfg: &GltConfig, make: impl FnOnce(&GltConfig) -> S) -> Self {
        if cfg.shared_queues {
            Pooled::Shared(SharedQueueScheduler::new(cfg))
        } else {
            Pooled::Backend(make(cfg))
        }
    }
}

impl<S: Scheduler> Scheduler for Pooled<S> {
    #[inline]
    fn name(&self) -> &'static str {
        match self {
            Pooled::Backend(s) => s.name(),
            Pooled::Shared(s) => s.name(),
        }
    }

    #[inline]
    fn push(&self, creator: Option<usize>, placement: Placement, unit: Unit) {
        match self {
            Pooled::Backend(s) => s.push(creator, placement, unit),
            Pooled::Shared(s) => s.push(creator, placement, unit),
        }
    }

    #[inline]
    fn push_batch(&self, creator: Option<usize>, units: Vec<(Placement, Unit)>) {
        match self {
            Pooled::Backend(s) => s.push_batch(creator, units),
            Pooled::Shared(s) => s.push_batch(creator, units),
        }
    }

    #[inline]
    fn pop_own(&self, rank: usize) -> Option<Unit> {
        match self {
            Pooled::Backend(s) => s.pop_own(rank),
            Pooled::Shared(s) => s.pop_own(rank),
        }
    }

    #[inline]
    fn steal(&self, thief: usize) -> Option<sched::Stolen> {
        match self {
            Pooled::Backend(s) => s.steal(thief),
            Pooled::Shared(s) => s.steal(thief),
        }
    }

    #[inline]
    fn can_steal(&self) -> bool {
        match self {
            Pooled::Backend(s) => s.can_steal(),
            Pooled::Shared(s) => s.can_steal(),
        }
    }

    #[inline]
    fn queued_len(&self) -> usize {
        match self {
            Pooled::Backend(s) => s.queued_len(),
            Pooled::Shared(s) => s.queued_len(),
        }
    }

    fn on_shutdown(&self) {
        match self {
            Pooled::Backend(s) => s.on_shutdown(),
            Pooled::Shared(s) => s.on_shutdown(),
        }
    }

    #[inline]
    fn shared_queues(&self) -> bool {
        matches!(self, Pooled::Shared(_))
    }

    #[inline]
    fn waiter_yield(&self, rank: usize) {
        match self {
            Pooled::Backend(s) => s.waiter_yield(rank),
            Pooled::Shared(s) => s.waiter_yield(rank),
        }
    }

    #[inline]
    fn schedule_controlled(&self) -> bool {
        match self {
            Pooled::Backend(s) => s.schedule_controlled(),
            Pooled::Shared(s) => s.schedule_controlled(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooled_respects_shared_queue_flag() {
        let cfg = GltConfig::with_threads(2).shared_queues(true);
        let p = Pooled::new(&cfg, SharedQueueScheduler::new);
        assert!(p.shared_queues());

        let cfg = GltConfig::with_threads(2);
        let p = Pooled::new(&cfg, SharedQueueScheduler::new);
        assert!(!p.shared_queues());
    }

    #[test]
    fn pooled_runtime_end_to_end() {
        let cfg = GltConfig::with_threads(2).shared_queues(true);
        let sched = Pooled::new(&cfg, SharedQueueScheduler::new);
        let rt = Runtime::start(cfg, sched);
        let h = rt.ult_create(Box::new(|| {}));
        rt.join(&h);
        assert!(h.is_done());
    }
}

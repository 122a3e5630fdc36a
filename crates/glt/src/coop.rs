//! Per-thread runtime registration: the one hook between blocking waits in
//! the OpenMP layers and the GLT scheduler underneath.
//!
//! Every thread a GLT runtime registers (rank 0 at start, workers at loop
//! entry) carries one registration per runtime: the runtime's id, the
//! thread's rank in it, and a [`SyncWaiter`] routing to the backend's
//! scheduler. That single stack answers every per-thread question the
//! stack above asks: which rank am I in runtime `id` ([`rank_in`]), which
//! runtime instance scopes my lock state ([`current_runtime_id`]), how do I
//! give the scheduler a turn ([`yield_to_scheduler`]), may I raw-spin or
//! block in the kernel ([`schedule_controlled`], [`coop_acquire`]), and
//! whose counters do my slow paths charge ([`with_sync_counters`]).
//!
//! `omp` locks, criticals and barrier loops yield through the innermost
//! waiter when a probe fails instead of burning the worker an entire OS
//! timeslice while the lock holder waits to run — the classic spin-lock
//! pathology of LWT environments. Under the deterministic stepper
//! (`glt-det`) all registered threads share a single run token that only
//! changes hands at scheduler entry points, so a token holder that blocked
//! in an *OS-level* wait (mutex, condvar) or spun without yielding would
//! wedge the schedule; its waiter reports `schedule_controlled()` and every
//! such wait becomes a probe/yield loop through [`coop_acquire`].

use std::cell::RefCell;
use std::sync::Arc;

use crate::counters::Counters;

/// A scheduler yield point for blocking synchronization, installed for
/// every thread a GLT runtime registers (rank 0 and workers alike).
pub trait SyncWaiter: Send + Sync {
    /// Give the worker's scheduler a turn. For ULT backends this is an
    /// OS-level `yield` scoped to the worker (units run to completion, so
    /// there is nothing to switch to mid-unit); for the deterministic
    /// stepper it hands the run token to another controlled thread. Must
    /// not execute queued work units (lock acquisition is not a task
    /// scheduling point).
    fn yield_to_scheduler(&self);

    /// The runtime's counter block, so lock slow paths can record
    /// `lock_spins`/`lock_yields`/`lock_handoffs` without a dependency
    /// from `omp` onto any concrete runtime type.
    fn counters(&self) -> &Counters;

    /// `true` when the calling thread's schedule is token-controlled
    /// (`glt-det`): blocking or unbounded raw spinning would deadlock, so
    /// even the pure-spin lock kind must route through
    /// [`SyncWaiter::yield_to_scheduler`].
    fn schedule_controlled(&self) -> bool {
        false
    }
}

/// One runtime's claim on the calling thread.
struct Registration {
    id: u64,
    rank: usize,
    waiter: Arc<dyn SyncWaiter>,
}

thread_local! {
    /// Registrations, newest last. A stack because one OS thread can be
    /// registered with nested/successive runtimes (benchmarks that sweep
    /// configurations, a unit that starts its own runtime); the innermost
    /// (latest) runtime controls the thread, while rank lookups go by id.
    /// Waiters are always cloned out and called *after* the borrow ends: a
    /// yield may run code that starts a nested runtime and re-enters
    /// [`register`].
    static REGISTRATIONS: RefCell<Vec<Registration>> = const { RefCell::new(Vec::new()) };
}

/// Register the calling thread as `rank` of runtime `id`, reachable through
/// `waiter`. Replaces a previous registration with the same id.
pub fn register(id: u64, rank: usize, waiter: Arc<dyn SyncWaiter>) {
    unregister(id);
    REGISTRATIONS.with(|r| r.borrow_mut().push(Registration { id, rank, waiter }));
}

/// Remove the calling thread's registration with runtime `id` (no-op if
/// absent).
pub fn unregister(id: u64) {
    // The removed entry leaves the closure so its waiter drops unborrowed.
    let _removed = REGISTRATIONS.with(|r| {
        let mut v = r.borrow_mut();
        v.iter().position(|e| e.id == id).map(|i| v.remove(i))
    });
}

/// The calling thread's rank in runtime `id`, if registered there.
#[must_use]
pub fn rank_in(id: u64) -> Option<usize> {
    REGISTRATIONS.with(|r| r.borrow().iter().rev().find(|e| e.id == id).map(|e| e.rank))
}

/// The innermost sync waiter installed for the calling thread, if any.
fn current_waiter() -> Option<Arc<dyn SyncWaiter>> {
    REGISTRATIONS.with(|r| r.borrow().last().map(|e| Arc::clone(&e.waiter)))
}

/// The id of the innermost runtime the calling thread is registered with.
///
/// This is the key the `omp` layer scopes per-runtime synchronization
/// state by (nest-lock owner tokens, fault-injection arming): every thread
/// a GLT runtime registers — rank 0 and workers alike — carries the same
/// id, so state keyed by it is shared exactly across one runtime instance
/// and never across coexisting instances. Unregistered threads (external
/// submitters, pthread-style runtimes) return `None` and share a common
/// fallback namespace.
#[must_use]
pub fn current_runtime_id() -> Option<u64> {
    REGISTRATIONS.with(|r| r.borrow().last().map(|e| e.id))
}

/// Yield to the calling thread's scheduler: the innermost installed
/// waiter's backend-specific yield, else a plain OS `yield_now` (external
/// threads and pthread-style runtimes).
pub fn yield_to_scheduler() {
    match current_waiter() {
        Some(w) => w.yield_to_scheduler(),
        None => std::thread::yield_now(),
    }
}

/// `true` when the calling thread is under a token-controlled schedule
/// (see [`SyncWaiter::schedule_controlled`]). Threads without a waiter are
/// never controlled.
#[must_use]
pub fn schedule_controlled() -> bool {
    current_waiter().is_some_and(|w| w.schedule_controlled())
}

/// Run `f` against the calling thread's runtime counters, if a waiter is
/// installed (external threads have no counter block to charge).
pub fn with_sync_counters(f: impl FnOnce(&Counters)) {
    if let Some(w) = current_waiter() {
        f(w.counters());
    }
}

/// Turn an OS-blocking wait into a probe/yield loop when the calling
/// thread is schedule-controlled: probe `try_acquire`, yielding through the
/// innermost waiter between failures, until it succeeds. Returns `None`
/// immediately on any other thread (no waiter, or an uncontrolled one) —
/// the caller should then use its normal blocking path, which is the
/// cheaper wait whenever blocking cannot wedge the schedule.
pub fn coop_acquire<T>(mut try_acquire: impl FnMut() -> Option<T>) -> Option<T> {
    let waiter = current_waiter().filter(|w| w.schedule_controlled())?;
    loop {
        if let Some(v) = try_acquire() {
            return Some(v);
        }
        waiter.yield_to_scheduler();
    }
}

// ---------------------------------------------------------------- SpinWait

/// Stateful spin-then-yield helper: the one blocking-wait discipline every
/// idle loop in the stack shares (barrier arrival, region join, lock slow
/// paths). Probes are the caller's; between failed probes the waiter
/// spins `budget` times with `spin_loop` hints, then yields to its
/// scheduler via [`yield_to_scheduler`], and — only for threads with *no*
/// installed waiter, under a passive wait policy — escalates to a short
/// sleep so an external thread stops burning its core entirely.
#[derive(Debug)]
pub struct SpinWait {
    budget: u32,
    spins: u32,
    yields: u32,
    passive: bool,
    /// Captured once at construction: token-controlled threads skip the
    /// spin phase entirely (a burned probe can never be overlapped with
    /// the holder — only one controlled thread runs at a time).
    controlled: bool,
}

impl SpinWait {
    /// Yields between escalation sleeps on the passive no-waiter path.
    const YIELDS_PER_SLEEP: u32 = 32;

    /// A waiter with `budget` spin-hint probes before the first yield.
    /// `passive` enables the sleep escalation for waiter-less threads
    /// (map it from `WaitPolicy::Passive`).
    #[must_use]
    pub fn new(budget: u32, passive: bool) -> Self {
        SpinWait { budget, spins: 0, yields: 0, passive, controlled: schedule_controlled() }
    }

    /// Back off once after a failed probe: spin while the budget lasts,
    /// then yield to the scheduler (with periodic sleeps when passive and
    /// uncontrolled). Returns `true` if this step yielded (vs spun).
    pub fn wait(&mut self) -> bool {
        if self.spins < self.budget && !self.controlled {
            self.spins += 1;
            std::hint::spin_loop();
            return false;
        }
        self.yields += 1;
        if self.passive
            && self.yields.is_multiple_of(Self::YIELDS_PER_SLEEP)
            && current_runtime_id().is_none()
        {
            std::thread::sleep(std::time::Duration::from_micros(20));
        } else {
            yield_to_scheduler();
        }
        true
    }

    /// Restart the spin budget (after a successful probe, when the caller
    /// loops on a new condition).
    pub fn reset(&mut self) {
        self.spins = 0;
        self.yields = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct TestWaiter {
        yields: AtomicU64,
        counters: Counters,
        controlled: bool,
    }
    impl TestWaiter {
        fn new(controlled: bool) -> Arc<Self> {
            Arc::new(TestWaiter {
                yields: AtomicU64::new(0),
                counters: Counters::new(),
                controlled,
            })
        }
        fn yields(&self) -> u64 {
            self.yields.load(Ordering::Relaxed)
        }
    }
    impl SyncWaiter for TestWaiter {
        fn yield_to_scheduler(&self) {
            self.yields.fetch_add(1, Ordering::Relaxed);
        }
        fn counters(&self) -> &Counters {
            &self.counters
        }
        fn schedule_controlled(&self) -> bool {
            self.controlled
        }
    }

    #[test]
    fn coop_acquire_needs_a_controlled_innermost_waiter() {
        let mut probes = 0;
        let mut probe_until = |n: u32| {
            probes = 0;
            coop_acquire(|| {
                probes += 1;
                (probes == n).then_some("ok")
            })
        };

        // No waiter, and an uncontrolled one: `None`, even for a probe that
        // would succeed — the caller keeps its blocking path.
        assert!(probe_until(1).is_none());
        let plain = TestWaiter::new(false);
        register(1, 0, plain.clone());
        assert!(probe_until(1).is_none());
        assert_eq!(plain.yields(), 0);

        // Controlled innermost waiter: probe, yield, probe, … until success.
        let det = TestWaiter::new(true);
        register(2, 3, det.clone());
        assert_eq!(probe_until(4), Some("ok"));
        assert_eq!(det.yields(), 3, "one yield per failed probe");
        assert_eq!(plain.yields(), 0, "outer waiter is never consulted");
        assert_eq!(probe_until(1), Some("ok"));
        assert_eq!(det.yields(), 3, "a first-try success does not yield");

        // Innermost wins in both directions: an uncontrolled runtime nested
        // over the controlled one turns the cooperative path off again…
        let inner = TestWaiter::new(false);
        register(3, 0, inner.clone());
        assert!(probe_until(1).is_none());
        unregister(3);
        // …and re-registering the same id replaces the waiter in place.
        let det2 = TestWaiter::new(true);
        register(2, 3, det2.clone());
        assert_eq!(probe_until(2), Some("ok"));
        assert_eq!((det.yields(), det2.yields()), (3, 1));

        unregister(2);
        assert!(probe_until(1).is_none());
        unregister(1);
        assert_eq!(current_runtime_id(), None);
    }

    #[test]
    fn waiter_stack_innermost_wins() {
        assert_eq!(current_runtime_id(), None);
        assert!(!schedule_controlled());
        yield_to_scheduler(); // no waiter: plain OS yield, must not panic

        let a = TestWaiter::new(false);
        register(1, 0, a.clone());
        let b = TestWaiter::new(true);
        register(2, 0, b.clone());

        assert!(schedule_controlled(), "innermost waiter is controlled");
        yield_to_scheduler();
        assert_eq!(b.yields(), 1);
        assert_eq!(a.yields(), 0);

        with_sync_counters(|c| Counters::bump(&c.lock_spins, 5));
        assert_eq!(b.counters.snapshot().lock_spins, 5);
        assert_eq!(a.counters.snapshot().lock_spins, 0);

        unregister(2);
        assert!(!schedule_controlled());
        yield_to_scheduler();
        assert_eq!(a.yields(), 1);
        unregister(1);
        assert_eq!(current_runtime_id(), None);
    }

    #[test]
    fn runtime_id_is_innermost_and_rank_is_by_id() {
        assert_eq!(current_runtime_id(), None);
        assert_eq!(rank_in(41), None);
        register(41, 5, TestWaiter::new(false));
        assert_eq!(current_runtime_id(), Some(41));
        register(42, 0, TestWaiter::new(false));
        assert_eq!(current_runtime_id(), Some(42));
        assert_eq!(rank_in(41), Some(5), "outer runtime's rank survives nesting");
        assert_eq!(rank_in(42), Some(0));
        unregister(42);
        assert_eq!(current_runtime_id(), Some(41));
        assert_eq!(rank_in(42), None);
        unregister(41);
        assert_eq!(current_runtime_id(), None);
    }

    #[test]
    fn spin_wait_spins_budget_then_yields() {
        let w = TestWaiter::new(false);
        register(3, 0, w.clone());
        let mut sw = SpinWait::new(4, false);
        for _ in 0..4 {
            assert!(!sw.wait(), "within budget: spin, not yield");
        }
        assert!(sw.wait(), "budget exhausted: yield");
        assert_eq!(w.yields(), 1);
        sw.reset();
        assert!(!sw.wait(), "reset restores the spin budget");
        unregister(3);
    }

    #[test]
    fn spin_wait_skips_spinning_when_controlled() {
        let w = TestWaiter::new(true);
        register(4, 0, w.clone());
        let mut sw = SpinWait::new(1000, false);
        assert!(sw.wait(), "controlled threads must not burn the token on spins");
        assert_eq!(w.yields(), 1);
        unregister(4);
    }
}

//! `omp_lock_t` / `omp_nest_lock_t` analogs with scheduler-aware slow paths.
//!
//! The seed's locks blocked in the kernel (parking_lot mutex + condvar),
//! which is exactly the pathology the paper's LWT argument warns about: on
//! an oversubscribed machine a blocked *worker* takes its whole scheduler
//! down with it, and a spinning worker burns the OS timeslice the lock
//! holder needs to release. The rework gives every lock a **spin-then-yield
//! slow path** over [`glt::coop`]'s [`SpinWait`]: a waiter probes, spins a
//! bounded budget (`OMP_SPIN_BUDGET`), then yields to *its own backend's*
//! scheduler — `ABT_thread_yield`/`qthread_yield` analogs for the ULT
//! runtimes, `sched_yield` for the pthread runtimes, and a run-token
//! hand-off under the deterministic stepper.
//!
//! Three disciplines are selectable per lock (default via `OMP_LOCK_KIND`):
//!
//! * [`LockKind::Spin`] — the paper-baseline test-and-set spinner. Kept for
//!   the contention benchmarks' "before" column. Even this kind yields when
//!   the schedule is token-controlled, since raw spinning would wedge the
//!   deterministic stepper.
//! * [`LockKind::SpinYield`] — bounded spin, then scheduler yields
//!   (default).
//! * [`LockKind::Mcs`] — an MCS-style queue lock: contended waiters enqueue
//!   once on a per-waiter node from a free-list slab and spin/yield on
//!   their **own** node's grant flag; release hands the lock directly to
//!   the FIFO head. No thundering herd, no cache-line ping-pong between
//!   waiters, and bounded unfairness.
//!
//! Slow paths charge the owning runtime's counters through
//! [`glt::coop::with_sync_counters`]: `lock_spins` (failed probes),
//! `lock_yields` (scheduler yields; ≤ spins by construction — every yield
//! follows a counted failed probe), and `lock_handoffs` (MCS direct grants;
//! ≤ spins because a waiter counts its failed fast-path probe *before*
//! enqueueing).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use glt::coop;
use glt::{Counters, SpinWait};
use parking_lot::Mutex;

/// Slow-path discipline for OpenMP locks and named criticals
/// (`OMP_LOCK_KIND`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// Unbounded test-and-set spinning (paper baseline). Token-controlled
    /// threads still yield — see module docs.
    Spin,
    /// Bounded spin, then yield to the worker's scheduler (default).
    SpinYield,
    /// MCS-style queue lock with direct FIFO hand-off.
    Mcs,
}

impl LockKind {
    /// Parse an `OMP_LOCK_KIND` value (`spin` | `spinyield`/`yield` |
    /// `mcs`); `None` on anything unrecognized.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "spin" => Some(LockKind::Spin),
            "spinyield" | "spin_yield" | "spin-yield" | "yield" => Some(LockKind::SpinYield),
            "mcs" | "queue" => Some(LockKind::Mcs),
            _ => None,
        }
    }
}

// ------------------------------------------------- planted lost-wakeup bug
//
// Test-only fault injection (`--features planted-lost-wakeup`): when armed,
// the next MCS release pops a waiter from the queue *without* granting it —
// a classic lost wakeup. A victim-side backstop detects the orphaned node
// after ~64 yields, repairs it (the hand-off left the lock assigned to the
// victim, so it may simply proceed) and bumps a repair counter; the
// conformance suite's planted case fails iff a repair happened, which is
// what the 64-seed deterministic sweep must catch, replay, and shrink.
//
// The arming and repair state is **per runtime instance**, keyed by the
// calling thread's innermost registered runtime
// (`glt::coop::current_runtime_id`): under the multi-tenant service layer
// N independent `OmpRuntime` instances coexist in one process, and a
// process-global armed flag would let one tenant's fault arming fire — or
// be consumed — inside another tenant's run.

#[cfg(feature = "planted-lost-wakeup")]
mod planted {
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::sync::{Arc, Mutex, OnceLock};

    /// One runtime instance's fault-injection state.
    #[derive(Default)]
    pub struct Cell {
        pub armed: AtomicBool,
        pub repairs: AtomicU64,
    }

    fn registry() -> &'static Mutex<Vec<(Option<u64>, Arc<Cell>)>> {
        static REGISTRY: OnceLock<Mutex<Vec<(Option<u64>, Arc<Cell>)>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
    }

    /// The fault cell of the calling thread's runtime instance (threads
    /// registered with no runtime share one fallback cell), created on
    /// first use.
    pub fn current_cell() -> Arc<Cell> {
        let rid = glt::coop::current_runtime_id();
        let mut reg = registry().lock().expect("planted registry poisoned");
        if let Some((_, cell)) = reg.iter().find(|(r, _)| *r == rid) {
            return Arc::clone(cell);
        }
        let cell = Arc::new(Cell::default());
        reg.push((rid, Arc::clone(&cell)));
        cell
    }
}

/// Arm the planted bug **for the calling thread's runtime instance**: the
/// next contended MCS release by one of that runtime's threads drops its
/// waiter. Arming never leaks into coexisting runtime instances.
#[cfg(feature = "planted-lost-wakeup")]
pub fn plant_drop_one() {
    planted::current_cell().armed.store(true, Ordering::SeqCst);
}

/// Number of lost wakeups the victim backstop has repaired so far, scoped
/// like [`plant_drop_one`] to the calling thread's runtime instance.
#[cfg(feature = "planted-lost-wakeup")]
#[must_use]
pub fn planted_repairs() -> u64 {
    planted::current_cell().repairs.load(Ordering::SeqCst)
}

/// One MCS waiter's wait word. Cache-line padded so neighbouring waiters'
/// grant flags never share a line (the point of MCS: each waiter spins on
/// private state).
#[derive(Debug, Default)]
#[repr(align(64))]
struct McsNode {
    granted: AtomicBool,
}

#[derive(Debug, Default)]
struct McsInner {
    held: bool,
    queue: VecDeque<Arc<McsNode>>,
    /// Recycled nodes: a waiter returns its node here after being granted,
    /// so steady-state contention allocates nothing.
    free: Vec<Arc<McsNode>>,
    #[cfg(feature = "planted-lost-wakeup")]
    dropped: Option<Arc<McsNode>>,
}

/// A simple (non-nestable) OpenMP lock: `omp_init_lock` = [`OmpLock::new`],
/// `omp_set_lock` = [`OmpLock::set`], `omp_unset_lock` = [`OmpLock::unset`],
/// `omp_test_lock` = [`OmpLock::test`].
#[derive(Debug)]
pub struct OmpLock {
    kind: LockKind,
    budget: u32,
    /// Lock word for the spin kinds.
    held: AtomicBool,
    /// Queue state for [`LockKind::Mcs`] (tiny critical sections only; the
    /// holder never yields inside, so this mutex is safe even under the
    /// deterministic stepper).
    mcs: Mutex<McsInner>,
}

impl Default for OmpLock {
    fn default() -> Self {
        let cfg = crate::OmpConfig::process_default();
        Self::with_kind(cfg.lock_kind, cfg.spin_budget)
    }
}

impl OmpLock {
    /// `omp_init_lock`: kind and spin budget from the process default
    /// ([`crate::OmpConfig::process_default`]: `OMP_LOCK_KIND` and
    /// `OMP_SPIN_BUDGET`, parsed once).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A lock with an explicit discipline (used by [`crate::CriticalRegistry`]
    /// to honor the runtime's [`crate::OmpConfig`]).
    #[must_use]
    pub fn with_kind(kind: LockKind, budget: u32) -> Self {
        OmpLock { kind, budget, held: AtomicBool::new(false), mcs: Mutex::new(McsInner::default()) }
    }

    /// This lock's slow-path discipline.
    #[must_use]
    pub fn kind(&self) -> LockKind {
        self.kind
    }

    fn try_acquire_word(&self) -> bool {
        // Relaxed pre-check keeps failed probes read-only (no cache-line
        // ownership traffic from spinners).
        !self.held.load(Ordering::Relaxed)
            && self.held.compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed).is_ok()
    }

    /// `omp_set_lock`: block until acquired, yielding to the worker's
    /// scheduler per this lock's [`LockKind`].
    pub fn set(&self) {
        match self.kind {
            LockKind::Mcs => self.set_mcs(),
            LockKind::Spin | LockKind::SpinYield => {
                if self.try_acquire_word() {
                    return;
                }
                self.set_spin();
            }
        }
    }

    #[cold]
    fn set_spin(&self) {
        // Spin kind: effectively unbounded budget. SpinWait still routes
        // token-controlled threads straight to scheduler yields.
        let budget = match self.kind {
            LockKind::Spin => u32::MAX,
            _ => self.budget,
        };
        let mut sw = SpinWait::new(budget, false);
        let (mut spins, mut yields) = (0u64, 0u64);
        loop {
            if self.try_acquire_word() {
                break;
            }
            spins += 1;
            if sw.wait() {
                yields += 1;
            }
        }
        coop::with_sync_counters(|c| {
            // Spins first: a racing reader must never see yields > spins.
            Counters::bump(&c.lock_spins, spins);
            Counters::bump(&c.lock_yields, yields);
        });
    }

    #[cold]
    fn set_mcs(&self) {
        let node = {
            let mut g = self.mcs.lock();
            if !g.held {
                g.held = true;
                return;
            }
            // Contended: count the failed fast-path probe *before* the
            // enqueue so `lock_handoffs <= lock_spins` holds at any
            // interleaving (the hand-off that wakes us can only follow
            // this bump).
            coop::with_sync_counters(|c| Counters::bump(&c.lock_spins, 1));
            let node: Arc<McsNode> = g.free.pop().unwrap_or_default();
            node.granted.store(false, Ordering::Relaxed);
            g.queue.push_back(Arc::clone(&node));
            node
        };
        let mut sw = SpinWait::new(self.budget, false);
        let (mut spins, mut yields) = (0u64, 0u64);
        while !node.granted.load(Ordering::Acquire) {
            spins += 1;
            if sw.wait() {
                yields += 1;
                // Victim backstop for the planted lost wakeup: after ~64
                // fruitless yields, check whether a release orphaned us.
                #[cfg(feature = "planted-lost-wakeup")]
                if yields % 64 == 0 {
                    let mut g = self.mcs.lock();
                    if g.dropped.as_ref().is_some_and(|d| Arc::ptr_eq(d, &node)) {
                        // The faulty release assigned us the lock (held
                        // stayed true) but never flipped our grant flag:
                        // repair and proceed as the holder.
                        g.dropped = None;
                        g.free.push(Arc::clone(&node));
                        planted::current_cell().repairs.fetch_add(1, Ordering::SeqCst);
                        drop(g);
                        coop::with_sync_counters(|c| {
                            Counters::bump(&c.lock_spins, spins);
                            Counters::bump(&c.lock_yields, yields);
                        });
                        return;
                    }
                }
            }
        }
        // Granted: we hold the lock; recycle our node for later waiters.
        self.mcs.lock().free.push(node);
        coop::with_sync_counters(|c| {
            Counters::bump(&c.lock_spins, spins);
            Counters::bump(&c.lock_yields, yields);
        });
    }

    /// `omp_unset_lock`.
    pub fn unset(&self) {
        match self.kind {
            LockKind::Spin | LockKind::SpinYield => {
                debug_assert!(self.held.load(Ordering::Relaxed), "unset of an unheld omp lock");
                self.held.store(false, Ordering::Release);
            }
            LockKind::Mcs => {
                let mut g = self.mcs.lock();
                debug_assert!(g.held, "unset of an unheld omp lock");
                if let Some(node) = g.queue.pop_front() {
                    #[cfg(feature = "planted-lost-wakeup")]
                    if planted::current_cell().armed.swap(false, Ordering::SeqCst)
                        && g.dropped.is_none()
                    {
                        // Planted bug: drop the waiter without granting.
                        g.dropped = Some(node);
                        return;
                    }
                    // Direct FIFO hand-off: `held` stays true across the
                    // grant, so no third party can barge in between.
                    node.granted.store(true, Ordering::Release);
                    drop(g);
                    coop::with_sync_counters(|c| Counters::bump(&c.lock_handoffs, 1));
                } else {
                    g.held = false;
                }
            }
        }
    }

    /// `omp_test_lock`: try to acquire; `true` on success. Never blocks and
    /// never yields, for every kind.
    pub fn test(&self) -> bool {
        match self.kind {
            LockKind::Spin | LockKind::SpinYield => self.try_acquire_word(),
            LockKind::Mcs => {
                let mut g = self.mcs.lock();
                if g.held {
                    false
                } else {
                    g.held = true;
                    true
                }
            }
        }
    }

    /// RAII convenience: run `f` holding the lock.
    pub fn with<R>(&self, f: impl FnOnce() -> R) -> R {
        self.set();
        let out = f();
        self.unset();
        out
    }
}

/// Nonzero owner token for nest-lock ownership (0 is reserved for
/// "unowned", so a plain atomic load can do the owner check).
///
/// Tokens are allocated from **per-runtime namespaces** keyed by the
/// calling thread's innermost registered runtime
/// ([`glt::coop::current_runtime_id`]; threads registered with no runtime —
/// external submitters, pthread-style pool members — share one fallback
/// namespace). A process-global counter was the last piece of cross-tenant
/// mutable lock state; scoping it means N coexisting `OmpRuntime` instances
/// allocate independently, while the namespace-slot high bits keep tokens
/// collision-free even for a nest lock shared across instances. Within one
/// namespace a thread's token is stable for the namespace's lifetime, which
/// preserves the per-OS-thread ownership model (help-first units never
/// migrate mid-execution, so thread identity is stable across a hold).
fn thread_token() -> u64 {
    use std::cell::RefCell;
    use std::sync::Mutex;
    /// Sequence bits per namespace; the slot index occupies the bits above.
    const SEQ_BITS: u32 = 40;
    /// `(runtime id, next sequence)` per namespace. The *slot index*, not
    /// the raw runtime id, forms the token's high bits, so arbitrary ids
    /// can never mint colliding tokens.
    static NAMESPACES: Mutex<Vec<(Option<u64>, u64)>> = Mutex::new(Vec::new());
    thread_local! {
        /// Tokens this thread already holds, per runtime namespace.
        static TOKENS: RefCell<Vec<(Option<u64>, u64)>> = const { RefCell::new(Vec::new()) };
    }
    let rid = coop::current_runtime_id();
    TOKENS.with(|t| {
        if let Some(&(_, tok)) = t.borrow().iter().find(|(r, _)| *r == rid) {
            return tok;
        }
        let mut ns = NAMESPACES.lock().expect("token namespaces poisoned");
        let slot = match ns.iter().position(|(r, _)| *r == rid) {
            Some(s) => s,
            None => {
                ns.push((rid, 1));
                ns.len() - 1
            }
        };
        let seq = ns[slot].1;
        ns[slot].1 += 1;
        let tok = ((slot as u64 + 1) << SEQ_BITS) | seq;
        t.borrow_mut().push((rid, tok));
        tok
    })
}

/// A nestable OpenMP lock (`omp_nest_lock_t`): the owner may re-acquire;
/// `unset` decrements the nesting count.
///
/// Ownership is per OS thread; in the GLTO help-first model a unit never
/// migrates mid-execution, so thread identity is stable across a hold.
///
/// Built over [`OmpLock`], so the contended path inherits the
/// scheduler-aware spin-then-yield discipline. The owner word lives
/// *outside* the core lock and is read by re-entering owners without
/// taking it — which is only sound because release order is pinned: the
/// owner word is cleared **before** the core lock is released. (Clearing
/// after releasing raced with a yielding waiter: the next holder could
/// acquire and store its own token, then have it wiped by the previous
/// owner's late clear, letting a third thread "re-enter" a lock it never
/// held.)
#[derive(Debug, Default)]
pub struct OmpNestLock {
    core: OmpLock,
    /// Owning thread's token, 0 when unowned. Written only by the holder
    /// (store-after-acquire, clear-before-release).
    owner: AtomicU64,
    depth: AtomicUsize,
}

impl OmpNestLock {
    /// `omp_init_nest_lock` (kind/budget from the process default, like
    /// [`OmpLock::new`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A nest lock with an explicit slow-path discipline.
    #[must_use]
    pub fn with_kind(kind: LockKind, budget: u32) -> Self {
        OmpNestLock {
            core: OmpLock::with_kind(kind, budget),
            owner: AtomicU64::new(0),
            depth: AtomicUsize::new(0),
        }
    }

    /// `omp_set_nest_lock`: acquire or re-enter; returns nesting depth.
    pub fn set(&self) -> usize {
        let me = thread_token();
        if self.owner.load(Ordering::Acquire) == me {
            return self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        }
        self.core.set();
        self.owner.store(me, Ordering::Release);
        self.depth.store(1, Ordering::Relaxed);
        1
    }

    /// `omp_unset_nest_lock`: returns remaining depth (0 = released).
    pub fn unset(&self) -> usize {
        let me = thread_token();
        assert_eq!(self.owner.load(Ordering::Acquire), me, "unset by non-owner");
        let d = self.depth.fetch_sub(1, Ordering::Relaxed) - 1;
        if d == 0 {
            // Order matters: clear ownership *before* releasing the core
            // lock (see the type-level docs for the race this prevents).
            self.owner.store(0, Ordering::Release);
            self.core.unset();
        }
        d
    }

    /// `omp_test_nest_lock`: non-blocking; returns new depth or 0.
    pub fn test(&self) -> usize {
        let me = thread_token();
        if self.owner.load(Ordering::Acquire) == me {
            return self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        }
        if self.core.test() {
            self.owner.store(me, Ordering::Release);
            self.depth.store(1, Ordering::Relaxed);
            1
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds() -> [LockKind; 3] {
        [LockKind::Spin, LockKind::SpinYield, LockKind::Mcs]
    }

    #[test]
    fn lock_kind_parsing() {
        assert_eq!(LockKind::parse("spin"), Some(LockKind::Spin));
        assert_eq!(LockKind::parse(" SpinYield "), Some(LockKind::SpinYield));
        assert_eq!(LockKind::parse("yield"), Some(LockKind::SpinYield));
        assert_eq!(LockKind::parse("MCS"), Some(LockKind::Mcs));
        assert_eq!(LockKind::parse("queue"), Some(LockKind::Mcs));
        assert_eq!(LockKind::parse("ticket"), None);
    }

    #[test]
    fn lock_mutual_exclusion_all_kinds() {
        for kind in kinds() {
            let l = Arc::new(OmpLock::with_kind(kind, 16));
            let v = Arc::new(AtomicUsize::new(0));
            let mut th = Vec::new();
            for _ in 0..4 {
                let l = l.clone();
                let v = v.clone();
                th.push(std::thread::spawn(move || {
                    for _ in 0..1000 {
                        l.with(|| {
                            let x = v.load(Ordering::Relaxed);
                            v.store(x + 1, Ordering::Relaxed);
                        });
                    }
                }));
            }
            for t in th {
                t.join().unwrap();
            }
            assert_eq!(v.load(Ordering::Relaxed), 4000, "{kind:?}");
        }
    }

    #[test]
    fn test_lock_nonblocking() {
        for kind in kinds() {
            let l = OmpLock::with_kind(kind, 16);
            assert!(l.test(), "{kind:?}");
            assert!(!l.test(), "{kind:?}: second test must fail while held");
            l.unset();
            assert!(l.test(), "{kind:?}");
            l.unset();
        }
    }

    #[test]
    fn mcs_handoff_is_fifo() {
        // Hold the lock, queue two waiters in a known order, then release:
        // the waiters must win in enqueue order.
        let l = Arc::new(OmpLock::with_kind(LockKind::Mcs, 4));
        let order = Arc::new(Mutex::new(Vec::new()));
        l.set();
        let mut th = Vec::new();
        for i in 0..2 {
            let li = l.clone();
            let order = order.clone();
            th.push(std::thread::spawn(move || {
                li.set();
                order.lock().push(i);
                li.unset();
            }));
            // Wait until waiter i is actually enqueued before spawning the
            // next, to pin the queue order.
            while l.mcs.lock().queue.len() != i + 1 {
                std::thread::yield_now();
            }
        }
        l.unset();
        for t in th {
            t.join().unwrap();
        }
        assert_eq!(*order.lock(), vec![0, 1], "MCS grant order must be FIFO");
    }

    #[test]
    fn mcs_nodes_are_recycled() {
        let l = Arc::new(OmpLock::with_kind(LockKind::Mcs, 4));
        for _ in 0..3 {
            l.set();
            let l2 = l.clone();
            let t = std::thread::spawn(move || l2.with(|| {}));
            while l.mcs.lock().queue.is_empty() {
                std::thread::yield_now();
            }
            l.unset();
            t.join().unwrap();
        }
        let g = l.mcs.lock();
        assert!(!g.held);
        assert!(g.queue.is_empty());
        assert_eq!(g.free.len(), 1, "one slab node serves every successive waiter");
    }

    #[test]
    fn nest_lock_reentry() {
        let l = OmpNestLock::new();
        assert_eq!(l.set(), 1);
        assert_eq!(l.set(), 2);
        assert_eq!(l.test(), 3);
        assert_eq!(l.unset(), 2);
        assert_eq!(l.unset(), 1);
        assert_eq!(l.unset(), 0);
    }

    #[test]
    fn nest_lock_blocks_other_thread() {
        let l = Arc::new(OmpNestLock::new());
        l.set();
        let l2 = l.clone();
        let t = std::thread::spawn(move || l2.test());
        assert_eq!(t.join().unwrap(), 0, "other thread must fail test()");
        l.unset();
        let l3 = l.clone();
        let t = std::thread::spawn(move || {
            let d = l3.set();
            l3.unset();
            d
        });
        assert_eq!(t.join().unwrap(), 1);
    }

    #[test]
    fn nest_lock_ownership_transfers_cleanly_under_contention() {
        // Regression shape for the clear-before-release fix: many threads
        // repeatedly take the nest lock to depth 2 and fully release; any
        // owner-word leakage across the hand-off shows up as a depth
        // mismatch or a non-owner unset panic.
        for kind in kinds() {
            let l = Arc::new(OmpNestLock::with_kind(kind, 8));
            let mut th = Vec::new();
            for _ in 0..4 {
                let l = l.clone();
                th.push(std::thread::spawn(move || {
                    for _ in 0..500 {
                        assert_eq!(l.set(), 1, "fresh acquire must start at depth 1");
                        assert_eq!(l.set(), 2);
                        assert_eq!(l.unset(), 1);
                        assert_eq!(l.unset(), 0);
                    }
                }));
            }
            for t in th {
                t.join().unwrap();
            }
            assert_eq!(l.owner.load(Ordering::Relaxed), 0, "{kind:?}: released lock is unowned");
        }
    }

    struct TestWaiter {
        counters: Counters,
    }
    impl coop::SyncWaiter for TestWaiter {
        fn yield_to_scheduler(&self) {
            std::thread::yield_now();
        }
        fn counters(&self) -> &Counters {
            &self.counters
        }
    }

    #[test]
    fn nest_lock_tokens_are_scoped_per_runtime_namespace() {
        // One OS thread working on behalf of different runtime instances
        // must present a different (but stable) owner token under each, and
        // tokens from distinct namespaces never collide.
        let w: Arc<dyn coop::SyncWaiter> = Arc::new(TestWaiter { counters: Counters::new() });
        let fallback = thread_token();
        coop::register(9100, 0, Arc::clone(&w));
        let under_a = thread_token();
        coop::unregister(9100);
        coop::register(9101, 0, Arc::clone(&w));
        let under_b = thread_token();
        coop::unregister(9101);
        assert_ne!(fallback, 0, "tokens are nonzero (0 means unowned)");
        assert_ne!(under_a, 0);
        assert_ne!(under_b, 0);
        assert_ne!(under_a, fallback, "runtime namespace differs from fallback");
        assert_ne!(under_a, under_b, "distinct runtimes get distinct namespaces");
        assert_eq!(fallback, thread_token(), "fallback token is stable");
        coop::register(9100, 0, Arc::clone(&w));
        assert_eq!(under_a, thread_token(), "per-runtime token is stable");
        coop::unregister(9100);
    }

    #[cfg(feature = "planted-lost-wakeup")]
    #[test]
    fn planted_arming_is_scoped_per_runtime() {
        // Arm the fault under runtime 9201, then run a fully contended MCS
        // storm under runtime 9202: the foreign arming must neither fire
        // nor be consumed there. Back under 9201, it is still pending and
        // fires on the next contended release.
        let w1: Arc<dyn coop::SyncWaiter> = Arc::new(TestWaiter { counters: Counters::new() });
        let w2: Arc<dyn coop::SyncWaiter> = Arc::new(TestWaiter { counters: Counters::new() });
        coop::register(9201, 0, Arc::clone(&w1));
        plant_drop_one();
        coop::unregister(9201);

        coop::register(9202, 0, Arc::clone(&w2));
        let l = Arc::new(OmpLock::with_kind(LockKind::Mcs, 4));
        l.set();
        let l2 = l.clone();
        let w2b = Arc::clone(&w2);
        let t = std::thread::spawn(move || {
            coop::register(9202, 0, w2b);
            l2.with(|| {});
            coop::unregister(9202);
        });
        while l.mcs.lock().queue.is_empty() {
            std::thread::yield_now();
        }
        l.unset();
        t.join().unwrap();
        assert_eq!(planted_repairs(), 0, "runtime 9202 must not see 9201's arming");
        coop::unregister(9202);

        coop::register(9201, 0, Arc::clone(&w1));
        let l = Arc::new(OmpLock::with_kind(LockKind::Mcs, 4));
        l.set();
        let l2 = l.clone();
        let w1b = Arc::clone(&w1);
        let t = std::thread::spawn(move || {
            coop::register(9201, 0, w1b);
            l2.with(|| {});
            coop::unregister(9201);
        });
        while l.mcs.lock().queue.is_empty() {
            std::thread::yield_now();
        }
        l.unset();
        t.join().unwrap();
        assert_eq!(planted_repairs(), 1, "arming fires in the runtime that armed it");
        coop::unregister(9201);
    }

    #[test]
    fn slow_paths_charge_runtime_counters() {
        for kind in kinds() {
            let l = Arc::new(OmpLock::with_kind(kind, 4));
            let w = Arc::new(TestWaiter { counters: Counters::new() });
            l.set();
            let l2 = l.clone();
            let w2 = Arc::clone(&w);
            let t = std::thread::spawn(move || {
                coop::register(9000, 0, w2);
                l2.with(|| {});
                coop::unregister(9000);
            });
            // Give the waiter time to enter the slow path, then release.
            std::thread::sleep(std::time::Duration::from_millis(20));
            l.unset();
            t.join().unwrap();
            let s = w.counters.snapshot();
            assert!(s.lock_spins > 0, "{kind:?}: contended set must count spins");
            assert!(s.lock_yields <= s.lock_spins, "{kind:?}: yields bounded by spins");
            assert!(s.lock_handoffs <= s.lock_spins, "{kind:?}: handoffs bounded by spins");
            assert!(
                s.invariant_violations(true).is_empty(),
                "{kind:?}: {:?}",
                s.invariant_violations(true)
            );
        }
    }
}

//! The generic GLT runtime: worker threads + a backend [`Scheduler`].
//!
//! A GLT runtime owns `num_threads` *GLT_threads*: the thread that calls
//! [`Runtime::start`] is registered as rank 0 (it will be the OpenMP master
//! in GLTO, §IV-G), and `num_threads - 1` OS worker threads are spawned up
//! front ("created when the library is loaded", §IV-B). Work units (ULTs
//! and tasklets) are placed by the backend's [`Scheduler`] policy and
//! executed by whichever worker the policy hands them to.
//!
//! ## Blocking model
//!
//! This reproduction uses **cooperative help-first waiting** instead of
//! stackful context switching: a caller that joins a unit (or yields)
//! executes other ready units — chosen by the *backend's own* pop/steal
//! policy — on its current stack until the awaited unit completes. This
//! preserves the properties the paper measures (cheap creation, fixed
//! worker count → no oversubscription, backend-specific migration), at the
//! cost that a unit never migrates after it first runs; see DESIGN.md §2.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam_utils::Backoff;
use parking_lot::Mutex;

use crate::config::GltConfig;
use crate::counters::Counters;
use crate::park::{IdleWait, WaitSlot};
use crate::sched::{Placement, Scheduler, SharedQueueScheduler};
use crate::topology::Topology;
use crate::unit::{UltHandle, Unit, UnitClass, UnitKind, UnitSlab, UnitState, WorkFn};

static NEXT_RUNTIME_ID: AtomicU64 = AtomicU64::new(1);

/// Object-safe view of a GLT runtime, independent of backend type.
///
/// This is the Rust analog of the GLT C API surface the paper's GLTO links
/// against: creation (`glt_ult_creation[_to]`, `glt_tasklet_creation[_to]`),
/// join, yield, and identity queries.
pub trait GltRuntime: Send + Sync {
    /// Backend name (`"argobots"`, `"qthreads"`, `"massivethreads"`, …).
    fn backend_name(&self) -> &'static str;
    /// Number of GLT_threads (including the registered rank-0 caller).
    fn num_threads(&self) -> usize;
    /// Rank of the calling thread, if it is a registered GLT_thread.
    fn self_rank(&self) -> Option<usize>;
    /// Create a ULT in the caller's own pool (backend default placement).
    fn ult_create(&self, work: WorkFn) -> UltHandle;
    /// Create a ULT destined for worker `target`'s pool.
    fn ult_create_to(&self, target: usize, work: WorkFn) -> UltHandle;
    /// Create a tasklet (stackless unit) with default placement.
    fn tasklet_create(&self, work: WorkFn) -> UltHandle;
    /// Create a tasklet destined for worker `target`'s pool.
    fn tasklet_create_to(&self, target: usize, work: WorkFn) -> UltHandle;
    /// Create a long-lived service ULT ([`UnitClass::Service`]) in worker
    /// `target`'s pool. Only a worker's outermost loop executes service
    /// units (GLTO parks hot-team members in them); joins, yields, and help
    /// frames skip them.
    fn service_ult_create_to(&self, target: usize, work: WorkFn) -> UltHandle;
    /// Create a whole fork's worth of ULTs in one scheduler call
    /// (`None` target = own pool, `Some(t)` = worker `t`'s pool): a single
    /// [`Scheduler::push_batch`] instead of one push per unit.
    fn ult_create_batch(&self, specs: Vec<(Option<usize>, WorkFn)>) -> Vec<UltHandle>;
    /// As [`GltRuntime::ult_create_batch`], for the *region-member* ULTs
    /// ([`UnitClass::Region`]) of one region fork, tagged with their team's
    /// generation. Region units may block on team barriers, so blocked
    /// waits only execute them under the predicate of
    /// [`GltRuntime::help_once_filtered`].
    fn region_ult_create_batch(
        &self,
        tag: u64,
        specs: Vec<(Option<usize>, WorkFn)>,
    ) -> Vec<UltHandle>;
    /// Offer a joined handle's frame back to the unit slab for reuse.
    /// No-op unless the unit is done; callers that wait on handles outside
    /// [`GltRuntime::join`] (GLTO's region master) call this to keep the
    /// steady-state fork path allocation-free. Default: no slab, no-op.
    fn unit_recycle(&self, _h: &UltHandle) {}
    /// Wait for `h`, helping execute other ready units meanwhile.
    fn join(&self, h: &UltHandle);
    /// Run at most one ready unit from the caller's own pool, then return.
    /// Returns whether a unit was executed.
    fn yield_now(&self) -> bool;
    /// Help once using the backend's full policy (own pool, then steal if
    /// the backend steals). Returns whether a unit was executed. This is
    /// what blocked waiters (joins, barriers) use.
    fn help_once(&self) -> bool;
    /// Help once but execute only [`UnitClass::Task`] units; a popped or
    /// stolen region unit is re-queued locally and the call reports no
    /// progress. Task-scheduling points (taskyield) use this so a
    /// multi-barrier region member is never started nested above another
    /// member's wait frame.
    fn help_once_task(&self) -> bool;
    /// Help once, executing task units unconditionally and region units
    /// only when `allow_region(unit, from_own_pool)` approves; rejected
    /// region units are set aside during the search (so they cannot mask
    /// runnable work) and re-queued afterwards — popped rejects locally,
    /// stolen rejects toward a neighbour's pool.
    fn help_once_filtered(&self, allow_region: &dyn Fn(&UnitState, bool) -> bool) -> bool;
    /// Whether the backend migrates units between workers (work stealing).
    fn can_steal(&self) -> bool;
    /// Whether tasklets are native (Argobots) or emulated over ULTs.
    fn tasklets_native(&self) -> bool;
    /// Instrumentation counters.
    fn counters(&self) -> &Counters;
    /// The configuration this runtime was started with.
    fn config(&self) -> &GltConfig;
}

struct Shared<S: Scheduler> {
    id: u64,
    cfg: GltConfig,
    topo: Topology,
    sched: S,
    counters: Arc<Counters>,
    unit_slab: UnitSlab,
    slots: Vec<Arc<WaitSlot>>,
    stop: AtomicBool,
    wake_rr: AtomicUsize,
    tasklets_native: bool,
}

impl<S: Scheduler> Shared<S> {
    /// Count a successful steal by `rank` from a pool in `from_domain`,
    /// classifying it as same- or cross-domain. A cross-domain steal is
    /// also a domain migration: the unit will execute outside the socket
    /// it was queued on.
    fn count_steal(&self, rank: usize, from_domain: usize) {
        Counters::bump(&self.counters.steals, 1);
        if from_domain == self.topo.domain_of_rank(rank) {
            Counters::bump(&self.counters.steals_same_domain, 1);
        } else {
            Counters::bump(&self.counters.steals_cross_domain, 1);
            Counters::bump(&self.counters.domain_migrations, 1);
        }
    }

    /// Forward target for a unit `rank` cannot run here (skipped service,
    /// rejected region unit): the next rank in `rank`'s own domain, so a
    /// forward never leaks work across a socket unless `rank` is its
    /// domain's sole resident (global-ring fallback). A fallback that does
    /// cross counts as a migration.
    fn forward_target(&self, rank: usize) -> usize {
        let n = self.slots.len().max(1);
        let target = self.topo.next_in_domain(rank, n);
        if self.topo.domain_of_rank(target) != self.topo.domain_of_rank(rank) {
            Counters::bump(&self.counters.domain_migrations, 1);
        }
        target
    }
    fn wake_for(&self, placement: Placement) {
        match placement {
            Placement::To(r) if r < self.slots.len() => self.slots[r].wake(),
            _ => {
                // Local pushes: if the backend can migrate the unit, give a
                // parked worker a chance to steal it; otherwise wake the
                // owner (which may be parked between units).
                let n = self.slots.len();
                if n > 1 {
                    let r = self.wake_rr.fetch_add(1, Ordering::Relaxed) % n;
                    self.slots[r].wake();
                }
            }
        }
    }

    /// Next unit for `rank`: own pool first, then one steal attempt.
    /// `run_services` is true only for a worker's outermost loop — service
    /// units popped from inside a join/help frame are set aside (re-queued
    /// locally after the search), and a *stolen* service is forwarded to a
    /// neighbour's pool so the skip cannot strand it with a worker (the
    /// master) that never runs services at top level. Skipped steals count
    /// in neither `steals` nor `steal_fails`: the thief took nothing it
    /// will execute, and the victim was provably not empty.
    fn take_work(&self, rank: usize, run_services: bool) -> Option<Unit> {
        let mut skipped_own: Vec<Unit> = Vec::new();
        let mut found: Option<Unit> = None;
        while let Some(u) = self.sched.pop_own(rank) {
            if !run_services && u.0.class() == UnitClass::Service {
                skipped_own.push(u);
            } else {
                found = Some(u);
                break;
            }
        }
        for u in skipped_own {
            // Back into this worker's own pool: the owner is awake (it is
            // executing this very call), so no wake is needed.
            self.sched.push(Some(rank), Placement::Local, u);
        }
        if found.is_none() && self.sched.can_steal() {
            match self.sched.steal(rank) {
                Some(st) => {
                    let u = st.unit;
                    if !run_services && u.0.class() == UnitClass::Service {
                        let target = self.forward_target(rank);
                        u.0.mark_migrated();
                        self.sched.push(Some(rank), Placement::To(target), u);
                        self.wake_for(Placement::To(target));
                    } else {
                        self.count_steal(rank, st.from_domain);
                        found = Some(u);
                    }
                }
                None => {
                    Counters::bump(&self.counters.steal_fails, 1);
                }
            }
        }
        found
    }

    fn run_unit(&self, rank: usize, u: &Unit) {
        u.run(rank);
        Counters::bump(&self.counters.units_executed, 1);
    }
}

/// The per-thread [`crate::coop::SyncWaiter`] every GLT runtime installs
/// for the threads it registers (rank 0 at start, workers at loop entry):
/// blocking primitives in the OpenMP layers reach the backend's
/// [`Scheduler::waiter_yield`] through this hook without knowing the
/// concrete runtime type. One allocation per thread, cache-line aligned:
/// every yield and counter charge clones this `Arc`, and its reference
/// count must not share a line with anything another thread touches (a
/// QTH master bumps it twice per FEB operation — next to `Shared`'s stop
/// flag that cost `service_mix` 10–15 %).
#[repr(align(64))]
struct WaiterHook<S: Scheduler> {
    shared: Arc<Shared<S>>,
    rank: usize,
}

impl<S: Scheduler> crate::coop::SyncWaiter for WaiterHook<S> {
    fn yield_to_scheduler(&self) {
        self.shared.sched.waiter_yield(self.rank);
    }

    fn counters(&self) -> &Counters {
        &self.shared.counters
    }

    fn schedule_controlled(&self) -> bool {
        self.shared.sched.schedule_controlled()
    }
}

/// A running GLT instance: `num_threads - 1` spawned workers plus the
/// registered caller (rank 0). Dropping the runtime stops and joins the
/// workers; any still-queued units are drained on the caller first.
pub struct Runtime<S: Scheduler> {
    shared: Arc<Shared<S>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl<S: Scheduler> std::fmt::Debug for Runtime<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("backend", &self.shared.sched.name())
            .field("num_threads", &self.shared.cfg.num_threads)
            .finish()
    }
}

impl<S: Scheduler> Runtime<S> {
    /// Start a runtime over `sched`, registering the calling thread as
    /// GLT_thread 0 and spawning `cfg.num_threads - 1` workers.
    pub fn start(cfg: GltConfig, sched: S) -> Self
    where
        S: Sized,
    {
        Self::start_with_native_tasklets(cfg, sched, false)
    }

    /// As [`Runtime::start`], also declaring whether the backend supports
    /// tasklets natively (Argobots) rather than emulating them over ULTs.
    pub fn start_with_native_tasklets(cfg: GltConfig, sched: S, tasklets_native: bool) -> Self {
        let n = cfg.num_threads.max(1);
        let id = NEXT_RUNTIME_ID.fetch_add(1, Ordering::Relaxed);
        let slots = (0..n).map(|_| Arc::new(WaitSlot::new())).collect();
        let topo = cfg.resolved_topology();
        let counters = cfg.counters.clone().unwrap_or_else(|| Arc::new(Counters::new()));
        let shared = Arc::new(Shared {
            id,
            cfg,
            topo,
            sched,
            counters,
            unit_slab: UnitSlab::new(),
            slots,
            stop: AtomicBool::new(false),
            wake_rr: AtomicUsize::new(0),
            tasklets_native,
        });
        crate::coop::register(id, 0, Arc::new(WaiterHook { shared: Arc::clone(&shared), rank: 0 }));
        let mut handles = Vec::with_capacity(n.saturating_sub(1));
        for rank in 1..n {
            let sh = Arc::clone(&shared);
            let h = std::thread::Builder::new()
                .name(format!("glt-{}-{rank}", sh.sched.name()))
                .spawn(move || worker_loop(&sh, rank))
                .expect("failed to spawn GLT worker");
            Counters::bump(&shared.counters.os_threads_created, 1);
            handles.push(h);
        }
        Runtime { shared, workers: Mutex::new(handles) }
    }

    fn create(&self, kind: UnitKind, placement: Placement, work: WorkFn) -> UltHandle {
        self.create_class(kind, UnitClass::Task, 0, placement, work)
    }

    fn create_class(
        &self,
        kind: UnitKind,
        class: UnitClass,
        tag: u64,
        placement: Placement,
        work: WorkFn,
    ) -> UltHandle {
        let creator = self.self_rank();
        let state = self.shared.unit_slab.acquire(
            &self.shared.counters,
            kind,
            class,
            tag,
            creator.unwrap_or(crate::unit::NO_RANK),
            work,
        );
        let unit = Unit(Arc::clone(&state));
        match kind {
            UnitKind::Ult => Counters::bump(&self.shared.counters.ults_created, 1),
            UnitKind::Tasklet => Counters::bump(&self.shared.counters.tasklets_created, 1),
        }
        if let Placement::To(t) = placement {
            if creator != Some(t) {
                Counters::bump(&self.shared.counters.remote_pushes, 1);
            }
        }
        self.shared.sched.push(creator, placement, unit);
        self.shared.wake_for(placement);
        UltHandle::new(state)
    }

    /// Batched [`Runtime::create_class`]: acquire every frame, bump the
    /// counters once, submit all units in one [`Scheduler::push_batch`],
    /// and only then wake targets — one wake per distinct `To` pool, one
    /// round-robin wake per `Local` unit (matching the per-unit path's
    /// wake pressure without re-waking a pool per member).
    fn create_class_batch(
        &self,
        kind: UnitKind,
        class: UnitClass,
        tag: u64,
        specs: Vec<(Option<usize>, WorkFn)>,
    ) -> Vec<UltHandle> {
        if specs.is_empty() {
            return Vec::new();
        }
        let creator = self.self_rank();
        let created_by = creator.unwrap_or(crate::unit::NO_RANK);
        let count = specs.len() as u64;
        let nslots = self.shared.slots.len();
        let mut handles = Vec::with_capacity(specs.len());
        let mut units = Vec::with_capacity(specs.len());
        // Wake set tracked in fixed words (slot counts are small): the fork
        // path must not allocate per-batch bookkeeping beyond the two Vecs.
        let mut wake_words = [0u64; 4];
        let mut wake_local = 0usize;
        let mut remote = 0u64;
        for (target, work) in specs {
            let placement = match target {
                Some(t) => Placement::To(t),
                None => Placement::Local,
            };
            let state = self.shared.unit_slab.acquire(
                &self.shared.counters,
                kind,
                class,
                tag,
                created_by,
                work,
            );
            match placement {
                Placement::To(t) if t < nslots && t < 64 * wake_words.len() => {
                    if creator != Some(t) {
                        remote += 1;
                    }
                    wake_words[t / 64] |= 1 << (t % 64);
                }
                Placement::To(t) => {
                    if creator != Some(t) {
                        remote += 1;
                    }
                    wake_local += 1; // out-of-range rank: round-robin wake
                }
                Placement::Local => wake_local += 1,
            }
            units.push((placement, Unit(Arc::clone(&state))));
            handles.push(UltHandle::new(state));
        }
        match kind {
            UnitKind::Ult => Counters::bump(&self.shared.counters.ults_created, count),
            UnitKind::Tasklet => Counters::bump(&self.shared.counters.tasklets_created, count),
        }
        if remote > 0 {
            Counters::bump(&self.shared.counters.remote_pushes, remote);
        }
        self.shared.sched.push_batch(creator, units);
        for (w, word) in wake_words.into_iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let r = w * 64 + bits.trailing_zeros() as usize;
                self.shared.slots[r].wake();
                bits &= bits - 1;
            }
        }
        for _ in 0..wake_local {
            // One round-robin wake per locally-placed unit, matching the
            // unbatched path (each wake may rouse a different stealer).
            self.shared.wake_for(Placement::Local);
        }
        handles
    }

    /// Scheduler access for tests and backend-specific probes.
    pub fn scheduler(&self) -> &S {
        &self.shared.sched
    }

    /// Total units currently queued across all pools (diagnostics).
    pub fn queued_len(&self) -> usize {
        self.shared.sched.queued_len()
    }
}

fn worker_loop<S: Scheduler>(shared: &Arc<Shared<S>>, rank: usize) {
    crate::coop::register(
        shared.id,
        rank,
        Arc::new(WaiterHook { shared: Arc::clone(shared), rank }),
    );
    let mut idle = IdleWait::new(
        shared.cfg.wait_policy,
        shared.cfg.spin_before_park,
        shared.cfg.park_timeout,
        Arc::clone(&shared.slots[rank]),
    );
    while !shared.stop.load(Ordering::Acquire) {
        match shared.take_work(rank, true) {
            Some(u) => {
                shared.run_unit(rank, &u);
                idle.reset();
            }
            None => {
                if idle.idle() {
                    Counters::bump(&shared.counters.parks, 1);
                }
            }
        }
    }
    // Drain anything still visible to this worker so no unit is lost.
    while let Some(u) = shared.take_work(rank, true) {
        shared.run_unit(rank, &u);
    }
    crate::coop::unregister(shared.id);
}

impl<S: Scheduler> GltRuntime for Runtime<S> {
    fn backend_name(&self) -> &'static str {
        self.shared.sched.name()
    }

    fn num_threads(&self) -> usize {
        self.shared.cfg.num_threads
    }

    fn self_rank(&self) -> Option<usize> {
        crate::coop::rank_in(self.shared.id)
    }

    fn ult_create(&self, work: WorkFn) -> UltHandle {
        self.create(UnitKind::Ult, Placement::Local, work)
    }

    fn ult_create_to(&self, target: usize, work: WorkFn) -> UltHandle {
        self.create(UnitKind::Ult, Placement::To(target), work)
    }

    fn tasklet_create(&self, work: WorkFn) -> UltHandle {
        self.create(UnitKind::Tasklet, Placement::Local, work)
    }

    fn tasklet_create_to(&self, target: usize, work: WorkFn) -> UltHandle {
        self.create(UnitKind::Tasklet, Placement::To(target), work)
    }

    fn service_ult_create_to(&self, target: usize, work: WorkFn) -> UltHandle {
        self.create_class(UnitKind::Ult, UnitClass::Service, 0, Placement::To(target), work)
    }

    fn ult_create_batch(&self, specs: Vec<(Option<usize>, WorkFn)>) -> Vec<UltHandle> {
        self.create_class_batch(UnitKind::Ult, UnitClass::Task, 0, specs)
    }

    fn region_ult_create_batch(
        &self,
        tag: u64,
        specs: Vec<(Option<usize>, WorkFn)>,
    ) -> Vec<UltHandle> {
        self.create_class_batch(UnitKind::Ult, UnitClass::Region, tag, specs)
    }

    fn unit_recycle(&self, h: &UltHandle) {
        self.shared.unit_slab.recycle(h.state());
    }

    fn join(&self, h: &UltHandle) {
        if h.is_done() {
            self.shared.unit_slab.recycle(h.state());
            h.propagate_panic();
            return;
        }
        match self.self_rank() {
            Some(rank) => {
                // Help-first wait: run other ready units per backend policy.
                let mut idle = IdleWait::new(
                    self.shared.cfg.wait_policy,
                    self.shared.cfg.spin_before_park,
                    self.shared.cfg.park_timeout,
                    Arc::clone(&self.shared.slots[rank]),
                );
                while !h.is_done() {
                    match self.shared.take_work(rank, false) {
                        Some(u) => {
                            self.shared.run_unit(rank, &u);
                            idle.reset();
                        }
                        None => {
                            if idle.idle() {
                                Counters::bump(&self.shared.counters.parks, 1);
                            }
                        }
                    }
                }
            }
            None => {
                // External thread: no pool to help with; bounded spin-sleep.
                let backoff = Backoff::new();
                while !h.is_done() {
                    if backoff.is_completed() {
                        std::thread::sleep(std::time::Duration::from_micros(50));
                    } else {
                        backoff.snooze();
                    }
                }
            }
        }
        // Recycle before propagating: an unwinding joiner still returns the
        // frame, and no acquirer can reset it while this handle is live.
        self.shared.unit_slab.recycle(h.state());
        h.propagate_panic();
    }

    fn yield_now(&self) -> bool {
        if let Some(rank) = self.self_rank() {
            if let Some(u) = self.shared.sched.pop_own(rank) {
                if u.0.class() == UnitClass::Service {
                    // Services only run at a worker's outermost loop.
                    self.shared.sched.push(Some(rank), Placement::Local, u);
                } else {
                    self.shared.run_unit(rank, &u);
                    return true;
                }
            }
        }
        std::thread::yield_now();
        false
    }

    fn help_once(&self) -> bool {
        if let Some(rank) = self.self_rank() {
            if let Some(u) = self.shared.take_work(rank, false) {
                self.shared.run_unit(rank, &u);
                return true;
            }
        }
        false
    }

    fn help_once_task(&self) -> bool {
        self.help_once_filtered(&|_, _| false)
    }

    fn help_once_filtered(&self, allow_region: &dyn Fn(&UnitState, bool) -> bool) -> bool {
        let Some(rank) = self.self_rank() else { return false };
        // Set rejected region units aside while searching, so one
        // unrunnable unit at the head of a LIFO pool cannot mask runnable
        // work behind it or on other workers (that would livelock: pop,
        // reject, re-push, pop the same unit again, never reach steal).
        let mut rejected_own: Vec<Unit> = Vec::new();
        let mut rejected_stolen: Vec<Unit> = Vec::new();
        let mut found: Option<Unit> = None;
        while let Some(u) = self.shared.sched.pop_own(rank) {
            let cls = u.0.class();
            if cls == UnitClass::Service || (cls == UnitClass::Region && !allow_region(&u.0, true))
            {
                rejected_own.push(u);
            } else {
                found = Some(u);
                break;
            }
        }
        if found.is_none() && self.shared.sched.can_steal() {
            while let Some(st) = self.shared.sched.steal(rank) {
                let u = st.unit;
                let cls = u.0.class();
                if cls == UnitClass::Service
                    || (cls == UnitClass::Region && !allow_region(&u.0, false))
                {
                    rejected_stolen.push(u);
                } else {
                    self.shared.count_steal(rank, st.from_domain);
                    found = Some(u);
                    break;
                }
            }
        }
        for u in rejected_own {
            self.shared.sched.push(Some(rank), Placement::Local, u);
            self.shared.wake_for(Placement::Local);
        }
        // Stolen rejects go toward a same-domain neighbour, not into this
        // worker's own pool: keeping them out of "my pool" preserves the
        // meaning of the `from_own_pool` allowance (units *I* forked), and
        // some top-level loop will still run them. The unit is also tainted
        // as migrated — it may land in its creator's pool after going
        // around the ring, and the creator must not mistake it for a unit
        // it just forked.
        for u in rejected_stolen {
            let target = self.shared.forward_target(rank);
            u.0.mark_migrated();
            self.shared.sched.push(Some(rank), Placement::To(target), u);
            self.shared.wake_for(Placement::To(target));
        }
        match found {
            Some(u) => {
                self.shared.run_unit(rank, &u);
                true
            }
            None => false,
        }
    }

    fn can_steal(&self) -> bool {
        self.shared.sched.can_steal()
    }

    fn tasklets_native(&self) -> bool {
        self.shared.tasklets_native
    }

    fn counters(&self) -> &Counters {
        &self.shared.counters
    }

    fn config(&self) -> &GltConfig {
        &self.shared.cfg
    }
}

impl<S: Scheduler> Drop for Runtime<S> {
    fn drop(&mut self) {
        // Let cooperative schedulers release any worker they are holding at
        // a scheduling decision before we ask those workers to observe the
        // stop flag (otherwise a stepper-serialized worker could never
        // reach its next stop-flag check).
        self.shared.sched.on_shutdown();
        // Drain work still queued (structured callers joined everything, so
        // this is normally empty) on the dropping thread, then stop workers.
        if let Some(rank) = self.self_rank() {
            while let Some(u) = self.shared.take_work(rank, true) {
                self.shared.run_unit(rank, &u);
            }
        }
        self.shared.stop.store(true, Ordering::Release);
        for s in &self.shared.slots {
            s.wake();
        }
        for h in self.workers.lock().drain(..) {
            let _ = h.join();
        }
        crate::coop::unregister(self.shared.id);
    }
}

/// Convenience: a runtime over the plain shared-queue scheduler, used by
/// tests and as the `GLT_SHARED_QUEUES` reference.
pub type SharedRuntime = Runtime<SharedQueueScheduler>;

/// Start a shared-queue runtime.
#[must_use]
pub fn start_shared(cfg: GltConfig) -> SharedRuntime {
    let sched = SharedQueueScheduler::new(&cfg);
    Runtime::start(cfg, sched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as TestCounter;

    fn rt(n: usize) -> SharedRuntime {
        start_shared(GltConfig::with_threads(n))
    }

    #[test]
    fn caller_is_rank_zero() {
        let r = rt(2);
        assert_eq!(r.self_rank(), Some(0));
        assert_eq!(r.num_threads(), 2);
    }

    #[test]
    fn single_thread_runtime_executes_on_join() {
        let r = rt(1);
        let hits = Arc::new(TestCounter::new(0));
        let h2 = hits.clone();
        let h = r.ult_create(Box::new(move || {
            h2.fetch_add(1, Ordering::SeqCst);
        }));
        r.join(&h);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn many_units_all_execute() {
        let r = rt(4);
        let hits = Arc::new(TestCounter::new(0));
        let handles: Vec<_> = (0..200)
            .map(|_| {
                let h = hits.clone();
                r.ult_create(Box::new(move || {
                    h.fetch_add(1, Ordering::SeqCst);
                }))
            })
            .collect();
        for h in &handles {
            r.join(h);
        }
        assert_eq!(hits.load(Ordering::SeqCst), 200);
        assert_eq!(r.counters().snapshot().ults_created, 200);
    }

    #[test]
    fn create_to_targets_specific_worker() {
        let r = rt(3);
        let h = r.ult_create_to(2, Box::new(|| {}));
        r.join(&h);
        // Shared scheduler doesn't honor placement, but the unit must have
        // executed on *some* registered rank.
        assert!(h.executed_by() < 3);
    }

    #[test]
    fn tasklet_counts_separately() {
        let r = rt(2);
        let h = r.tasklet_create(Box::new(|| {}));
        r.join(&h);
        let s = r.counters().snapshot();
        assert_eq!(s.tasklets_created, 1);
        assert_eq!(s.ults_created, 0);
    }

    #[test]
    fn join_propagates_panic() {
        let r = rt(1);
        let h = r.ult_create(Box::new(|| panic!("unit failed")));
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| r.join(&h)));
        assert!(res.is_err());
    }

    #[test]
    fn nested_create_from_inside_unit() {
        let r = Arc::new(rt(2));
        let r2 = Arc::clone(&r);
        let hits = Arc::new(TestCounter::new(0));
        let hits2 = hits.clone();
        let outer = r.ult_create(Box::new(move || {
            let inner_hits = hits2.clone();
            let inner = r2.ult_create(Box::new(move || {
                inner_hits.fetch_add(1, Ordering::SeqCst);
            }));
            r2.join(&inner);
        }));
        r.join(&outer);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn drop_drains_pending_units() {
        let hits = Arc::new(TestCounter::new(0));
        {
            let r = rt(1);
            for _ in 0..10 {
                let h = hits.clone();
                r.ult_create(Box::new(move || {
                    h.fetch_add(1, Ordering::SeqCst);
                }));
            }
            // no join: Drop must still run them
        }
        assert_eq!(hits.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn two_runtimes_coexist_on_one_thread() {
        let a = rt(1);
        let b = rt(1);
        assert_eq!(a.self_rank(), Some(0));
        assert_eq!(b.self_rank(), Some(0));
        let h = a.ult_create(Box::new(|| {}));
        a.join(&h);
        let h = b.ult_create(Box::new(|| {}));
        b.join(&h);
    }

    #[test]
    fn yield_runs_at_most_one_unit() {
        let r = rt(1);
        let hits = Arc::new(TestCounter::new(0));
        for _ in 0..3 {
            let h = hits.clone();
            r.ult_create(Box::new(move || {
                h.fetch_add(1, Ordering::SeqCst);
            }));
        }
        assert!(r.yield_now());
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn dyn_object_usable() {
        let r: Arc<dyn GltRuntime> = Arc::new(rt(2));
        let h = r.ult_create(Box::new(|| {}));
        r.join(&h);
        assert!(h.is_done());
        assert_eq!(r.backend_name(), "shared-queue");
    }

    #[test]
    fn batch_create_executes_everything_and_counts_once() {
        let r = rt(2);
        let hits = Arc::new(TestCounter::new(0));
        let specs: Vec<(Option<usize>, WorkFn)> = (0..16)
            .map(|i| {
                let h = hits.clone();
                let target = if i % 2 == 0 { Some(1) } else { None };
                (
                    target,
                    Box::new(move || {
                        h.fetch_add(1, Ordering::SeqCst);
                    }) as WorkFn,
                )
            })
            .collect();
        let handles = r.ult_create_batch(specs);
        assert_eq!(handles.len(), 16);
        for h in &handles {
            r.join(h);
        }
        assert_eq!(hits.load(Ordering::SeqCst), 16);
        let s = r.counters().snapshot();
        assert_eq!(s.ults_created, 16);
        assert_eq!(s.unit_slab_fresh + s.unit_slab_reused, 16);

        // A region fork's members ride the same path, classed and tagged.
        let members = r.region_ult_create_batch(
            7,
            vec![(Some(1), Box::new(|| {}) as WorkFn), (None, Box::new(|| {}) as WorkFn)],
        );
        for h in &members {
            assert_eq!((h.state().class(), h.state().tag()), (UnitClass::Region, 7));
            r.join(h);
        }
        assert_eq!(r.counters().snapshot().ults_created, 18);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let r = rt(2);
        let handles = r.ult_create_batch(Vec::new());
        assert!(handles.is_empty());
        let s = r.counters().snapshot();
        assert_eq!(s.ults_created, 0);
        assert_eq!(s.unit_slab_fresh + s.unit_slab_reused, 0);
    }

    #[test]
    fn join_recycles_frames_for_reuse() {
        let r = rt(1);
        // First round allocates fresh; handles must be dropped to unpin.
        for _ in 0..8 {
            let h = r.ult_create(Box::new(|| {}));
            r.join(&h);
        }
        // Steady state: frames come from the slab.
        for _ in 0..8 {
            let h = r.ult_create(Box::new(|| {}));
            r.join(&h);
        }
        let s = r.counters().snapshot();
        assert_eq!(s.ults_created, 16);
        assert_eq!(s.unit_slab_fresh + s.unit_slab_reused, 16);
        assert!(
            s.unit_slab_reused >= 8,
            "sequential spawn/join must reach steady-state reuse, got fresh={} reused={}",
            s.unit_slab_fresh,
            s.unit_slab_reused
        );
    }

    #[test]
    fn runtime_installs_sync_waiter_on_registered_threads() {
        let r = rt(2);
        assert!(crate::coop::current_runtime_id().is_some(), "rank 0 must be registered");
        assert!(!crate::coop::schedule_controlled(), "shared-queue scheduler is not controlled");
        crate::coop::yield_to_scheduler(); // routes to the backend hook; must return
        crate::coop::with_sync_counters(|c| Counters::bump(&c.lock_spins, 3));
        assert_eq!(r.counters().snapshot().lock_spins, 3, "waiter charges this runtime");
        drop(r);
        assert!(crate::coop::current_runtime_id().is_none(), "drop must unregister the thread");
    }

    #[test]
    fn service_units_only_run_at_worker_top_level() {
        let r = rt(1);
        // A service unit sits in the only pool; joins and yields on the
        // master must skip it rather than wedge inside it.
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let svc = r.service_ult_create_to(
            0,
            Box::new(move || {
                stop2.store(true, Ordering::SeqCst);
            }),
        );
        assert!(!r.yield_now(), "yield must not run a service unit");
        assert!(!r.help_once(), "help must not run a service unit");
        let h = r.ult_create(Box::new(|| {}));
        r.join(&h); // join skips the service, still finds the task behind it
        assert!(h.is_done());
        assert!(!svc.is_done(), "service must still be pending after joins");
        assert!(!stop.load(Ordering::SeqCst));
        // Drop drains at top level, where services are allowed to run.
        drop(r);
        assert!(stop.load(Ordering::SeqCst));
        assert!(svc.is_done());
    }
}

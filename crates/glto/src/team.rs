//! The GLTO team: OpenMP semantics mapped onto GLT work units.
//!
//! * **Work-sharing (§IV-C)**: the master creates one `GLT_ult` per other
//!   team member, bound to that member's `GLT_thread`, runs its own share
//!   inline, and joins the rest.
//! * **Tasks (§IV-D)**: each `omp task` becomes a `GLT_ult`. Inside a
//!   `single`/`master` region the runtime detects the single-producer
//!   pattern and dispatches round-robin across all `GLT_thread`s;
//!   otherwise each thread keeps its own tasks local.
//! * **Nested parallelism (§IV-E)**: an inner region creates ULTs on the
//!   encountering `GLT_thread` — never new OS threads — so the system is
//!   not oversubscribed.
//! * **Load imbalance (§IV-F)**: `GLT_SHARED_QUEUES` replaces every pool
//!   with one shared queue (handled in the GLT layer).
//! * **MassiveThreads quirk (§IV-G)**: the primary `GLT_thread` (the
//!   OpenMP master) is not allowed to yield/help under the
//!   MassiveThreads-like backend; its work must be stolen by others.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use glt::{Counters, GltRuntime, SpinWait, WaitPolicy, WorkFn};
use omp::serial::SerialTeam;
use omp::{
    run_region_member, CentralBarrier, Dep, OmpRuntime, ProcBind, RegionFn, TaskCore, TaskEngine,
    TaskMeta, TaskNode, TeamOps, WorkshareTable,
};

use crate::runtime::GltoRuntime;
use crate::tasking::GltoPolicy;

/// Raw-pointer capsule for the fork: the region ULTs reference the
/// master's stack frame (team + body), valid until the master has joined
/// every region ULT.
struct ForkCmd {
    team: *const GltoTeam<'static>,
    body: *const RegionFn<'static>,
    tid: usize,
}
// SAFETY: see above — join-before-return protocol in `run_region`.
unsafe impl Send for ForkCmd {}

/// Monotonic team generation: a unique tag per team, stamped on its
/// member ULTs so waits can classify a pending member as belonging to
/// this thread's current team, an ancestor team, or an unrelated
/// (sibling/deeper) team.
static NEXT_TEAM_TAG: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Lineages (ancestor-tag chains, own tag last) of the teams whose
    /// member frames are live on this OS thread, innermost last, each
    /// keyed by the owning runtime instance ([`GltoRuntime::team_key`]).
    /// Pushed on entry to a member's body, popped on exit. The key is
    /// what lets N coexisting runtime instances share OS threads (the
    /// multi-tenant service substrate, cross-mechanism handoffs): nesting
    /// decisions made on behalf of one runtime see only that runtime's
    /// frames, never a co-tenant's.
    static ACTIVE_TEAMS: std::cell::RefCell<Vec<(u64, std::sync::Arc<Vec<u64>>)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// RAII: marks a team (with its whole ancestor lineage) active on this
/// thread for the duration of one member-body execution.
pub(crate) struct ActiveTeamGuard;

impl ActiveTeamGuard {
    pub(crate) fn enter(key: u64, lineage: std::sync::Arc<Vec<u64>>) -> ActiveTeamGuard {
        ACTIVE_TEAMS.with(|t| t.borrow_mut().push((key, lineage)));
        ActiveTeamGuard
    }
}

impl Drop for ActiveTeamGuard {
    fn drop(&mut self) {
        ACTIVE_TEAMS.with(|t| {
            t.borrow_mut().pop();
        });
    }
}

/// May a region member start nested on this stack right now?
///
/// * A member of an *unrelated* team (not on this thread's active stack —
///   a sibling or deeper fork) is always safe: its barriers only involve
///   frames on other stacks.
/// * A member of the *current innermost* team is safe at quiescent points
///   (`end_region`, the fork join): if that member had any barrier ahead
///   of it, the caller could not have reached quiescence — so its body is
///   barrier-free from here. At a *barrier* wait it is started only in the
///   sole-runner case — this thread forked it itself, still holds it in
///   its own pool, and the unit has never **migrated**. Denying that case
///   guarantees deadlock whenever no other rank is idle at its top-level
///   loop (every rank blocked in a filtered helping wait), which happens
///   even on stealing backends; allowing it is safe as long as the member
///   body has at most one barrier wait beyond this point — bodies with
///   more remain a documented limitation of the help-first model. The
///   migration taint is load-bearing: stolen-and-rejected member units are
///   forwarded around the pool ring, so a member created by this thread
///   can land back in its own pool *mid-region*, after barriers this
///   thread already passed — nested-starting such a unit at a barrier
///   deadlocks on this stack at the member's next barrier (the nested
///   frame waits for the buried one to arrive). Found by the deterministic
///   schedule sweep (`glto-det`, single-copy case, seed 1).
/// * A member of an ancestor team is never safe: its barriers need frames
///   buried beneath this one.
///
/// Decisions are scoped to one runtime instance (`key`): only frames that
/// runtime registered on this thread are consulted. Frames a *co-tenant*
/// runtime buried here are invisible — their teams' barriers involve only
/// that runtime's own frames and units, which this runtime's scheduler can
/// never hand us (team tags are allocated process-globally, so a tag names
/// exactly one team in exactly one runtime).
fn region_nesting_allowed(
    key: u64,
    u: &glt::UnitState,
    from_own_pool: bool,
    at_quiescent_point: bool,
    my_rank: usize,
    shared_queues: bool,
) -> bool {
    ACTIVE_TEAMS.with(|t| {
        let t = t.borrow();
        let tag = u.tag();
        // The member's team must not be an ancestor — in the *global team
        // tree*, not merely this thread's stack — of any team active on
        // this thread: an ancestor team's barriers can transitively
        // require this thread's buried frames (e.g. an outer-team member
        // blocking at the outer barrier that needs the master, while the
        // master waits for the very frame beneath us). Each active entry
        // carries its full lineage, so one containment check covers both
        // "on my stack" and "ancestor of something on my stack".
        let innermost_own = t
            .iter()
            .rev()
            .find(|(k, _)| *k == key)
            .map(|(_, l)| *l.last().expect("non-empty lineage"));
        for (k, lineage) in t.iter() {
            if *k != key {
                continue;
            }
            if lineage.contains(&tag) {
                // Exception: the innermost current team itself, at a
                // quiescent point (its body is provably past every
                // barrier) or as this thread's own fork (sole-runner).
                return innermost_own == Some(tag)
                    && (at_quiescent_point
                        || (from_own_pool
                            && !shared_queues
                            && !u.migrated()
                            && u.created_by() == my_rank));
            }
        }
        true // unrelated lineage (sibling / deeper elsewhere)
    })
}

/// Map the OMP thread ids of a top-level region onto GLT_thread ranks,
/// honoring `OMP_PLACES` and `OMP_PROC_BIND`. Returns `None` when the
/// policy resolves to the legacy pinning `tid % nthreads` — which, under
/// the scatter rank layout (`glt::Topology`), *is* a spread placement — so
/// the common case pays no allocation on the fork path.
///
/// A returned mapping is always **injective over non-zero ranks** for the
/// members (tids 1..n). Region members are run-to-completion units: one
/// blocked at a barrier spins on its worker without releasing it, so two
/// members sharing a rank deadlock at any intra-region barrier. And rank 0
/// (the master's pool) is drained only at region join — no-steal backends
/// (ABT) cannot rescue a member stranded there, and the barrier helper may
/// not start Region-class units nested (see `run_region`'s join comment).
/// Hence:
///
/// * The candidate rank set comes from `OMP_PLACES` (explicit lists are
///   flattened in place order and filtered to live workers; abstract sets
///   expose every rank).
/// * `proc_bind(close)` orders candidates by topology distance from the
///   master (rank 0), packing members onto its SMT siblings and socket
///   before crossing the interconnect.
/// * `proc_bind(master)` prefers the master's own domain, then spills
///   outward by distance (a place cannot be oversubscribed, so "master"
///   degrades toward "close" when the home domain is full).
/// * A place list with fewer free ranks than members likewise spills to
///   the nearest ranks not named by the list.
/// * Oversubscribed teams (n > workers) fall back to the legacy mapping:
///   no injective assignment exists.
pub(crate) fn place_members(rt: &GltoRuntime, n: usize) -> Option<Vec<usize>> {
    let cfg = rt.omp_config();
    if cfg.places.is_none() && !matches!(cfg.proc_bind, ProcBind::Master | ProcBind::Close) {
        return None;
    }
    let w = rt.glt().num_threads();
    if n > w {
        return None;
    }
    let topo = rt.glt().config().resolved_topology();
    let mut candidates: Vec<usize> = match &cfg.places {
        Some(p) => p.candidate_ranks(w),
        None => (0..w).collect(),
    };
    let by_distance = |ranks: &mut Vec<usize>| {
        ranks.sort_unstable_by_key(|&r| (topo.distance(0, r), r));
    };
    match cfg.proc_bind {
        ProcBind::False | ProcBind::True | ProcBind::Spread => {}
        ProcBind::Close => by_distance(&mut candidates),
        ProcBind::Master => {
            let home = topo.domain_of_rank(0);
            by_distance(&mut candidates);
            candidates.sort_by_key(|&r| usize::from(topo.domain_of_rank(r) != home));
        }
    }
    // First n-1 distinct non-zero candidate ranks, in policy order; spill
    // to the nearest ranks outside the candidate set if the policy cannot
    // seat every member.
    let mut taken = vec![false; w];
    taken[0] = true;
    let mut members: Vec<usize> = Vec::with_capacity(n.saturating_sub(1));
    let mut spill: Vec<usize> = (1..w).filter(|&r| !candidates.contains(&r)).collect();
    by_distance(&mut spill);
    for r in candidates.into_iter().chain(spill) {
        if members.len() + 1 == n {
            break;
        }
        if r < w && !taken[r] {
            taken[r] = true;
            members.push(r);
        }
    }
    debug_assert_eq!(members.len() + 1, n, "n <= w guarantees a full injective seating");
    Some(std::iter::once(0).chain(members).collect())
}

/// One active GLTO parallel region.
pub(crate) struct GltoTeam<'rt> {
    rt: &'rt GltoRuntime,
    tag: u64,
    /// Ancestor tags (outermost first) + own tag last.
    lineage: std::sync::Arc<Vec<u64>>,
    level: usize,
    nthreads: usize,
    barrier: CentralBarrier,
    ws: WorkshareTable,
    engine: TaskEngine<'rt, GltoPolicy<'rt>>,
    region_arrivals: AtomicUsize,
}

impl<'rt> GltoTeam<'rt> {
    pub(crate) fn new(rt: &'rt GltoRuntime, level: usize, nthreads: usize) -> Self {
        Self::with_parent(rt, level, nthreads, &[])
    }

    /// Create a team nested under `parent_lineage` (empty for top level).
    pub(crate) fn with_parent(
        rt: &'rt GltoRuntime,
        level: usize,
        nthreads: usize,
        parent_lineage: &[u64],
    ) -> Self {
        let nthreads = nthreads.max(1);
        let tag = NEXT_TEAM_TAG.fetch_add(1, Ordering::Relaxed);
        let mut lineage = Vec::with_capacity(parent_lineage.len() + 1);
        lineage.extend_from_slice(parent_lineage);
        lineage.push(tag);
        GltoTeam {
            rt,
            tag,
            lineage: std::sync::Arc::new(lineage),
            level,
            nthreads,
            barrier: CentralBarrier::new(nthreads),
            ws: WorkshareTable::new(),
            engine: TaskEngine::new(GltoPolicy::new(rt, nthreads), rt.counters()),
            region_arrivals: AtomicUsize::new(0),
        }
    }

    /// §IV-G: may the calling thread help at a *scheduling point*
    /// (barrier/taskwait/taskyield)? Under the MassiveThreads-like backend
    /// the primary GLT_thread may not yield — its pending work must be
    /// stolen — which is what slows GLTO(MTH) in the paper's Figs. 8–9.
    fn may_help(&self) -> bool {
        !(self.rt.master_yield_forbidden() && self.rt.glt().self_rank() == Some(0))
    }

    /// The runtime this team executes on (hot-path orchestration).
    pub(crate) fn rt(&self) -> &'rt GltoRuntime {
        self.rt
    }

    /// Ancestor-tag chain, own tag last (hot members re-enter with it).
    pub(crate) fn lineage(&self) -> &std::sync::Arc<Vec<u64>> {
        &self.lineage
    }

    /// A fresh spin-then-yield waiter for one wait loop: bounded spinning
    /// (`OMP_SPIN_BUDGET`), then yields routed to the *backend's* scheduler
    /// (`ABT_thread_yield`/`qthread_yield` analogs; run-token hand-offs
    /// under the deterministic stepper) instead of burning the worker's
    /// timeslice. Passive wait policy adds sleep escalation for threads
    /// outside any runtime.
    pub(crate) fn spin_wait(&self) -> SpinWait {
        SpinWait::new(self.rt.spin_budget(), matches!(self.rt.wait_policy(), WaitPolicy::Passive))
    }

    /// Fork/execute/join a whole region from the encountering thread
    /// (§IV-C): ULTs for members 1..n, member 0 inline, then join. With
    /// `GLTO_HOT_ULTS`, eligible top-level forks re-arm parked member ULTs
    /// instead (see [`crate::hot`]); everything else takes the cold path,
    /// whose member units are submitted in a single batched scheduler call.
    pub(crate) fn run_region(&self, body: &RegionFn<'static>) {
        if crate::hot::try_run_hot(self, body) {
            return;
        }
        let glt = self.rt.glt();
        let counters = self.rt.counters();
        let w = glt.num_threads();
        let n = self.nthreads;
        let t0 = Instant::now();
        let map = if self.level <= 1 { place_members(self.rt, n) } else { None };
        // A foreign encountering thread (cross-mechanism nested handoff:
        // a pomp pool member, no GLT rank) must not use Local placement —
        // those units land in pool 0, whose owner (the OpenMP master
        // thread) may be busy inside the *other* engine and never drain
        // it, and private-pool backends cannot steal them out. Spread the
        // members over the spawned workers (ranks 1..w) instead.
        let foreign = glt.self_rank().is_none();
        let mut specs: Vec<(Option<usize>, WorkFn)> = Vec::with_capacity(n.saturating_sub(1));
        for tid in 1..n {
            let cmd = ForkCmd {
                team: std::ptr::from_ref(self).cast::<GltoTeam<'static>>(),
                body: std::ptr::from_ref(body),
                tid,
            };
            let lineage = std::sync::Arc::clone(&self.lineage);
            let key = self.rt.team_key();
            let work: WorkFn = Box::new(move || {
                let cmd = cmd;
                // SAFETY: fork/join protocol (master joins all handles).
                let team: &GltoTeam<'_> = unsafe { &*cmd.team };
                let body: &RegionFn<'static> = unsafe { &*cmd.body };
                let _active = ActiveTeamGuard::enter(key, lineage);
                run_region_member(team, cmd.tid, body);
            });
            // Top-level regions pin OMP thread i to GLT_thread i (Fig. 3) —
            // or to its place under OMP_PLACES/proc_bind — while nested
            // regions create on the encountering thread (§IV-E). Members
            // are Region-class units: barrier help may not start them
            // nested (see glt::UnitClass).
            specs.push(if self.level <= 1 {
                (Some(map.as_ref().map_or(tid % w, |m| m[tid])), work)
            } else if foreign && w > 1 {
                (Some(1 + (tid - 1) % (w - 1)), work)
            } else {
                (None, work)
            });
        }
        // One scheduler submit for the whole fork: per-pool locks (QTH: FEB
        // round-trips) and wakes are paid per target, not per member.
        let handles = glt.region_ult_create_batch(self.tag, specs);
        Counters::bump(&counters.assign_ns, t0.elapsed().as_nanos() as u64);
        Counters::bump(&counters.forks, 1);
        {
            let _active =
                ActiveTeamGuard::enter(self.rt.team_key(), std::sync::Arc::clone(&self.lineage));
            run_region_member(self, 0, body);
        }
        let mut sw = self.spin_wait();
        for h in &handles {
            // Join with the nesting-safe filter, not glt::join: an
            // indiscriminate helper could start a member of an outer team
            // above this frame and deadlock on its own stack. The §IV-G
            // MassiveThreads restriction applies to *scheduling points*
            // (the master may not yield mid-execution); at its own join it
            // blocks-and-runs like any joiner, or nothing could ever run
            // the master's pending work when every other worker is busy.
            while !h.is_done() {
                if self.help_at_quiescence() {
                    sw.reset();
                } else {
                    sw.wait();
                }
            }
            // Return the frame to the unit slab before any unwind: the next
            // fork reuses it and the steady-state path stays allocation-free.
            glt.unit_recycle(h);
            h.propagate_panic();
        }
    }

    /// Help once from a *barrier-like* wait (see [`region_nesting_allowed`]).
    fn help_at_wait(&self) -> bool {
        let glt = self.rt.glt();
        let Some(me) = glt.self_rank() else { return false };
        let shared = glt.config().shared_queues;
        let key = self.rt.team_key();
        glt.help_once_filtered(&move |u, own| {
            region_nesting_allowed(key, u, own, false, me, shared)
        })
    }

    /// Help once from a quiescent point (`end_region` / fork join).
    pub(crate) fn help_at_quiescence(&self) -> bool {
        let glt = self.rt.glt();
        let Some(me) = glt.self_rank() else { return false };
        let shared = glt.config().shared_queues;
        let key = self.rt.team_key();
        glt.help_once_filtered(&move |u, own| region_nesting_allowed(key, u, own, true, me, shared))
    }
}

impl TeamOps for GltoTeam<'_> {
    fn num_threads(&self) -> usize {
        self.nthreads
    }

    fn level(&self) -> usize {
        self.level
    }

    fn barrier(&self, tid: usize) {
        if self.rt.trace {
            eprintln!(
                "[team] barrier-arrive team={} tid={tid} thread={:?}",
                self.tag,
                std::thread::current().id()
            );
        }
        let help = self.may_help();
        let t0 = std::time::Instant::now();
        let mut warned = false;
        let mut sw = self.spin_wait();
        self.barrier.wait(
            || help && self.try_run_task(tid),
            || {
                sw.wait();
                if self.rt.debug_stall && !warned && t0.elapsed().as_secs() >= 5 {
                    warned = true;
                    eprintln!(
                        "[stall] glto barrier team={} tid={tid} rank={:?} level={} thread={:?}",
                        self.tag,
                        self.rt.glt().self_rank(),
                        self.level,
                        std::thread::current().id()
                    );
                }
            },
        );
    }

    fn end_region(&self, tid: usize) {
        self.region_arrivals.fetch_add(1, Ordering::AcqRel);
        if tid == 0 {
            // Only the master waits out the whole team: every member has
            // arrived AND every task has completed (tasks may be finishing
            // nested on member stacks that already arrived). Unlike a
            // barrier wait, this point is outside every construct, so it
            // is a *safe* help point: it may start region-member units
            // (e.g. this thread's own nested-team members, which nobody
            // else can reach on a no-steal backend, or which stealing
            // backends may leave here).
            let mut sw = self.spin_wait();
            while self.region_arrivals.load(Ordering::Acquire) < self.nthreads
                || self.outstanding_tasks() > 0
            {
                if self.help_at_quiescence() {
                    sw.reset();
                } else {
                    sw.wait();
                }
            }
        }
    }

    fn workshares(&self) -> &WorkshareTable {
        &self.ws
    }

    fn critical(&self, name: &str, f: &mut dyn FnMut()) {
        self.rt.criticals().enter(name, f);
    }

    fn taskcore(&self) -> &TaskCore {
        self.engine.core()
    }

    fn spawn_task(&self, meta: TaskMeta, deps: &[Dep], task: TaskNode) {
        // The engine gates on `deps`, then `GltoPolicy::push` turns the
        // ready task into a GLT_ult (§IV-D dispatch).
        self.engine.spawn(meta, deps, task);
    }

    fn try_run_task(&self, _tid: usize) -> bool {
        if !self.may_help() {
            return false;
        }
        self.help_at_wait()
    }

    fn taskyield(&self, _tid: usize) {
        if self.may_help() {
            // A taskyield runs another *task*, never a region member.
            let _ = self.rt.glt().help_once_task();
        }
    }

    fn nested_parallel(&self, _tid: usize, nthreads: Option<usize>, body: &RegionFn<'static>) {
        let icvs = self.rt.icvs();
        if !icvs.nested() || self.level >= icvs.max_active_levels() {
            SerialTeam::new(self.rt, self.rt.criticals(), self.level + 1).run(body);
            return;
        }
        // Cross-mechanism handoff (omp-adaptive): the composing runtime may
        // route this nested region to its OS-thread engine instead — e.g.
        // when a single GLT worker would serialize the inner team while the
        // OS pool offers real concurrency.
        if let Some(hook) = self.rt.nested_handoff() {
            if hook(self.level, nthreads, body) {
                return;
            }
        }
        let n = nthreads.unwrap_or_else(|| icvs.num_threads()).max(1);
        // §IV-E: the nested team is ULTs on the existing GLT_threads — no
        // new OS threads, no oversubscription.
        let team = GltoTeam::with_parent(self.rt, self.level + 1, n, &self.lineage);
        team.run_region(body);
    }

    fn runtime(&self) -> &dyn OmpRuntime {
        self.rt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glt::{UnitClass, UnitKind, UnitState};

    fn unit(tag: u64, created_by: usize) -> std::sync::Arc<UnitState> {
        UnitState::new_with_class(
            UnitKind::Ult,
            UnitClass::Region,
            tag,
            created_by,
            Box::new(|| {}),
        )
    }

    fn lineage(tags: &[u64]) -> std::sync::Arc<Vec<u64>> {
        std::sync::Arc::new(tags.to_vec())
    }

    /// Runtime key used by the single-runtime tests.
    const RT: u64 = 1;

    #[test]
    fn unrelated_team_is_always_allowed() {
        let _g = ActiveTeamGuard::enter(RT, lineage(&[1, 2]));
        let u = unit(99, 5);
        assert!(region_nesting_allowed(RT, &u, false, false, 0, false));
        assert!(region_nesting_allowed(RT, &u, true, true, 0, true));
    }

    #[test]
    fn ancestor_team_is_never_allowed() {
        // Active frame of team 2 whose lineage includes team 1: a member
        // of team 1 (the parent) must never nest here.
        let _g = ActiveTeamGuard::enter(RT, lineage(&[1, 2]));
        let u = unit(1, 0);
        assert!(!region_nesting_allowed(RT, &u, true, false, 0, false));
        assert!(!region_nesting_allowed(RT, &u, false, true, 0, false));
        assert!(!region_nesting_allowed(RT, &u, true, true, 0, false));
    }

    #[test]
    fn current_team_allowed_only_at_quiescence_or_as_own_fork() {
        let _g = ActiveTeamGuard::enter(RT, lineage(&[1, 2]));
        let mine = unit(2, 7); // created by rank 7
                               // At a barrier-like wait, from a steal: never.
        assert!(!region_nesting_allowed(RT, &mine, false, false, 7, false));
        // At a barrier-like wait, own pool, own fork: the sole-runner case.
        assert!(region_nesting_allowed(RT, &mine, true, false, 7, false));
        // ... but not if someone else forked it.
        assert!(!region_nesting_allowed(RT, &mine, true, false, 3, false));
        // ... and not in shared-queue mode (no pool ownership).
        assert!(!region_nesting_allowed(RT, &mine, true, false, 7, true));
        // ... and never once the unit has migrated between pools: it can
        // wander back into its creator's pool mid-region, and nesting it
        // there deadlocks two-barrier bodies (glto-det single-copy, seed 1).
        mine.mark_migrated();
        assert!(!region_nesting_allowed(RT, &mine, true, false, 7, false));
        // At a quiescent point: always, even migrated.
        assert!(region_nesting_allowed(RT, &mine, false, true, 3, true));
    }

    #[test]
    fn deeper_frames_shadow_outer_current_team() {
        // Stack: team 2 hosting a member of sibling team 9. Team 2 is no
        // longer the innermost current team; its members are "ancestor of
        // an active frame" from here and must be rejected even at
        // quiescent points.
        let _g1 = ActiveTeamGuard::enter(RT, lineage(&[1, 2]));
        let _g2 = ActiveTeamGuard::enter(RT, lineage(&[1, 9]));
        let u2 = unit(2, 0);
        assert!(!region_nesting_allowed(RT, &u2, true, true, 0, false));
        // The innermost team (9) keeps its own-fork allowance.
        let u9 = unit(9, 0);
        assert!(region_nesting_allowed(RT, &u9, true, false, 0, false));
        // Team 1 (common ancestor) still rejected.
        let u1 = unit(1, 0);
        assert!(!region_nesting_allowed(RT, &u1, false, true, 0, false));
    }

    #[test]
    fn empty_stack_allows_everything() {
        let u = unit(5, 0);
        assert!(region_nesting_allowed(RT, &u, false, false, 0, false));
    }

    #[test]
    fn guards_pop_on_drop() {
        {
            let _g = ActiveTeamGuard::enter(RT, lineage(&[42]));
            let u = unit(42, 1);
            assert!(!region_nesting_allowed(RT, &u, false, false, 0, false));
        }
        // Guard dropped: team 42 no longer active.
        let u = unit(42, 1);
        assert!(region_nesting_allowed(RT, &u, false, false, 0, false));
    }

    #[test]
    fn co_tenant_frames_are_invisible() {
        // An OS thread hosting a frame of runtime 1 must not let that frame
        // influence nesting decisions made on behalf of runtime 2: each
        // tenant sees only its own team stack.
        let _g = ActiveTeamGuard::enter(1, lineage(&[1, 2]));
        let u = unit(2, 0);
        // Under the owning runtime: the usual barrier-wait rejection.
        assert!(!region_nesting_allowed(1, &u, false, false, 0, false));
        // Under a co-tenant: the same tag is an unrelated lineage.
        assert!(region_nesting_allowed(2, &u, false, false, 0, false));
    }

    #[test]
    fn innermost_own_is_per_runtime_not_per_stack() {
        // Stack: runtime 1's team 5 buried beneath runtime 2's team 9. For
        // runtime 1's decisions, team 5 is still the innermost *own* team
        // and keeps its sole-runner allowance — the co-tenant frame above
        // it does not shadow it.
        let _g1 = ActiveTeamGuard::enter(1, lineage(&[5]));
        let _g2 = ActiveTeamGuard::enter(2, lineage(&[9]));
        let u5 = unit(5, 0);
        assert!(region_nesting_allowed(1, &u5, true, false, 0, false));
        // And runtime 2's own innermost allowance is equally unaffected.
        let u9 = unit(9, 0);
        assert!(region_nesting_allowed(2, &u9, true, false, 0, false));
    }
}

#[cfg(test)]
mod topology_tests {
    use super::place_members;
    use crate::{Backend, GltoRuntime};
    use glt::Topology;
    use omp::{OmpConfig, OmpRuntime, OmpRuntimeExt, Places, ProcBind};
    use std::collections::HashSet;

    /// 2 sockets x 4 cores x 2 SMT; scatter layout puts even ranks on
    /// socket 0 and odd ranks on socket 1.
    fn two_socket() -> Topology {
        Topology::new(2, 4, 2)
    }

    #[test]
    fn default_policy_takes_the_allocation_free_path() {
        let r = GltoRuntime::new(Backend::Abt, OmpConfig::with_threads(4).topology(two_socket()));
        assert_eq!(place_members(&r, 4), None, "true/spread without places is legacy tid % w");
    }

    #[test]
    fn close_packs_members_into_the_masters_socket_first() {
        let cfg = OmpConfig::with_threads(8).topology(two_socket()).proc_bind(ProcBind::Close);
        let r = GltoRuntime::new(Backend::Abt, cfg);
        let map = place_members(&r, 8).expect("close must compute a mapping");
        // Distance-from-rank-0 order: self, SMT sibling, same-socket
        // even ranks, then the odd (cross-socket) ranks.
        let topo = two_socket();
        for tid in 0..4 {
            assert_eq!(topo.domain_of_rank(map[tid]), 0, "first half stays on socket 0: {map:?}");
        }
        assert_eq!(map[0], 0);
    }

    #[test]
    fn master_binds_every_member_to_the_masters_domain() {
        let cfg = OmpConfig::with_threads(8).topology(two_socket()).proc_bind(ProcBind::Master);
        let r = GltoRuntime::new(Backend::Abt, cfg);
        // The home socket seats the master plus three members; a team of
        // four fits entirely.
        let map = place_members(&r, 4).expect("master must compute a mapping");
        let topo = two_socket();
        for (tid, &rank) in map.iter().enumerate() {
            assert_eq!(
                topo.domain_of_rank(rank),
                0,
                "tid {tid} escaped the master domain: {map:?}"
            );
        }
        // A full-width team cannot be seated on one socket (members may not
        // share a rank — run-to-completion units deadlock at barriers if
        // they do): the home domain fills first, the rest spill outward.
        let map = place_members(&r, 8).expect("master must compute a mapping");
        let used: HashSet<usize> = map.iter().copied().collect();
        assert_eq!(used.len(), 8, "seating must be injective: {map:?}");
        for rank in [0, 2, 4, 6] {
            assert!(used.contains(&rank), "home-domain rank {rank} left idle: {map:?}");
        }
        assert!(
            (0..4).all(|tid| topo.domain_of_rank(map[tid]) == 0),
            "home domain must fill before spilling: {map:?}"
        );
    }

    #[test]
    fn explicit_places_restrict_the_candidate_ranks() {
        let places = Places::parse("{0},{2},{4}").expect("valid explicit list");
        let cfg = OmpConfig::with_threads(6).topology(two_socket()).places(places.clone());
        let r = GltoRuntime::new(Backend::Abt, cfg);
        let map = place_members(&r, 3).expect("explicit places force a mapping");
        let used: HashSet<usize> = map.into_iter().collect();
        assert!(used.is_subset(&HashSet::from([0, 2, 4])), "ranks outside the place list used");
        // More members than free places: the named places are all seated,
        // the remainder spill to the nearest unnamed ranks (injectively).
        let cfg = OmpConfig::with_threads(6).topology(two_socket()).places(places);
        let r = GltoRuntime::new(Backend::Abt, cfg);
        let map = place_members(&r, 6).expect("explicit places force a mapping");
        let used: HashSet<usize> = map.iter().copied().collect();
        assert_eq!(used.len(), 6, "seating must be injective: {map:?}");
        for rank in [0, 2, 4] {
            assert!(used.contains(&rank), "named place {{{rank}}} left idle: {map:?}");
        }
    }

    #[test]
    fn bound_regions_never_steal_across_sockets() {
        // ISSUE acceptance: cross-domain steals == 0 under proc_bind(close)
        // on a synthetic 2x4x2 machine, while same-domain stealing and the
        // region itself stay fully live.
        for backend in [Backend::Abt, Backend::Mth] {
            let cfg = OmpConfig::with_threads(8).topology(two_socket()).proc_bind(ProcBind::Close);
            let r = GltoRuntime::new(backend, cfg);
            r.counters().reset();
            for _ in 0..4 {
                let tids = parking_lot::Mutex::new(HashSet::new());
                r.parallel(|ctx| {
                    tids.lock().insert(ctx.thread_num());
                    ctx.single(|| {
                        for _ in 0..64 {
                            ctx.task(|_| {
                                std::hint::black_box(0u64);
                            });
                        }
                    });
                });
                assert_eq!(tids.lock().len(), 8, "backend {backend:?}");
            }
            let s = r.counters().snapshot();
            assert_eq!(s.steals_cross_domain, 0, "bound team stole across sockets ({backend:?})");
            assert_eq!(
                s.steals_same_domain + s.steals_cross_domain,
                s.steals,
                "steal locality accounting must conserve ({backend:?})"
            );
        }
    }

    #[test]
    fn unbound_regions_may_roam_and_still_conserve_steal_counts() {
        let cfg = OmpConfig::with_threads(8).topology(two_socket()).proc_bind(ProcBind::False);
        let r = GltoRuntime::new(Backend::Mth, cfg);
        r.counters().reset();
        r.parallel(|ctx| {
            ctx.single(|| {
                for _ in 0..128 {
                    ctx.task(|_| {
                        std::hint::black_box(0u64);
                    });
                }
            });
        });
        let s = r.counters().snapshot();
        assert_eq!(s.steals_same_domain + s.steals_cross_domain, s.steals);
        assert!(s.steals_cross_domain <= s.domain_migrations);
    }
}

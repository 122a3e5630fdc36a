//! `GltoRuntime`: the OpenMP runtime over GLT (the paper's contribution).

use std::sync::{Arc, OnceLock};

use glt::{Counters, GltConfig, GltRuntime, WaitPolicy};
use omp::{CriticalRegistry, Icvs, NestedHandoff, OmpConfig, OmpRuntime, RegionFn};

use crate::backend::{AnyGlt, Backend};
use crate::hot::HotPool;
use crate::team::GltoTeam;

/// The GLTO OpenMP runtime: complies with the `omp` front-end (the paper's
/// OpenMP 4.0 surface) while executing everything as GLT work units over
/// the selected LWT backend.
pub struct GltoRuntime {
    cfg: OmpConfig,
    icvs: Arc<Icvs>,
    criticals: Arc<CriticalRegistry>,
    backend: Backend,
    glt: AnyGlt,
    /// Unique per-instance key scoping this runtime's thread-local team
    /// bookkeeping (`glto::team::ACTIVE_TEAMS`): an OS thread hosting
    /// frames for several coexisting runtimes keeps their team stacks
    /// disjoint.
    key: u64,
    /// Parked hot-ULT team (`GLTO_HOT_ULTS`, see [`crate::hot`]).
    hot: HotPool,
    /// Cross-mechanism nested-region handoff (see [`NestedHandoff`]).
    nested_handoff: OnceLock<NestedHandoff>,
    /// `GLT_TRACE` was set at construction: barrier arrivals log to stderr.
    pub(crate) trace: bool,
    /// `GLTO_DEBUG_STALL` was set at construction: a barrier wait longer
    /// than 5 s reports its team/rank/level once.
    pub(crate) debug_stall: bool,
}

impl GltoRuntime {
    /// Start GLTO over `backend`. The `GLT_thread`s (one of which is the
    /// calling thread) are created here, up front — "GLT_threads are bound
    /// to CPU cores and are created when the library is loaded" (§IV-B).
    #[must_use]
    pub fn new(backend: Backend, cfg: OmpConfig) -> Arc<Self> {
        Self::with_counters(backend, cfg, None)
    }

    /// As [`GltoRuntime::new`], optionally charging into a shared counter
    /// block (the `omp-adaptive` composition passes the block it also hands
    /// its pomp engine, so one statistics stream covers both mechanisms).
    #[must_use]
    pub fn with_counters(
        backend: Backend,
        cfg: OmpConfig,
        counters: Option<Arc<Counters>>,
    ) -> Arc<Self> {
        let icvs = Arc::new(Icvs::new(&cfg));
        let criticals = Arc::new(CriticalRegistry::from_config(&cfg));
        Self::build(backend, cfg, counters, icvs, criticals)
    }

    /// Build the ULT engine of an `omp-adaptive` composition: counter
    /// block, mutable ICVs, and named-critical registry are shared with the
    /// composing runtime (and its OS-thread engine), so `omp_set_*` calls
    /// and named criticals behave identically whichever mechanism a region
    /// runs on.
    #[must_use]
    pub fn adaptive_engine(
        backend: Backend,
        cfg: OmpConfig,
        counters: Arc<Counters>,
        icvs: Arc<Icvs>,
        criticals: Arc<CriticalRegistry>,
    ) -> Arc<Self> {
        Self::build(backend, cfg, Some(counters), icvs, criticals)
    }

    fn build(
        backend: Backend,
        cfg: OmpConfig,
        counters: Option<Arc<Counters>>,
        icvs: Arc<Icvs>,
        criticals: Arc<CriticalRegistry>,
    ) -> Arc<Self> {
        let glt_cfg = GltConfig {
            num_threads: cfg.num_threads,
            shared_queues: cfg.shared_queues,
            wait_policy: cfg.wait_policy,
            // The OpenMP layer owns placement policy: the machine topology
            // flows down (explicit config first, then `GLT_TOPOLOGY`), and
            // the named proc_bind policies forbid the GLT backends from
            // migrating a bound team's work across a socket boundary.
            topology: cfg.topology.or_else(glt::Topology::from_env),
            cross_domain_steal: cfg.proc_bind.allows_cross_domain(),
            counters,
            ..GltConfig::default()
        };
        let glt = AnyGlt::start(backend, glt_cfg);
        static NEXT_RUNTIME_KEY: std::sync::atomic::AtomicU64 =
            std::sync::atomic::AtomicU64::new(1);
        Arc::new(GltoRuntime {
            cfg,
            icvs,
            criticals,
            backend,
            glt,
            key: NEXT_RUNTIME_KEY.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            hot: HotPool::new(),
            nested_handoff: OnceLock::new(),
            trace: std::env::var("GLT_TRACE").is_ok(),
            debug_stall: std::env::var("GLTO_DEBUG_STALL").is_ok(),
        })
    }

    /// The key under which this instance's team frames register in the
    /// thread-local active-team stack (see [`crate::team`]).
    pub(crate) fn team_key(&self) -> u64 {
        self.key
    }

    /// Install the cross-mechanism nested handoff (at most once, before
    /// first use). Consulted by [`crate::team::GltoTeam`] after the
    /// serial-fallback checks: a hook that returns `true` has run the
    /// nested region on the other mechanism.
    pub fn install_nested_handoff(&self, hook: NestedHandoff) {
        assert!(self.nested_handoff.set(hook).is_ok(), "nested handoff already installed");
    }

    /// The installed cross-mechanism nested handoff, if any.
    pub(crate) fn nested_handoff(&self) -> Option<&NestedHandoff> {
        self.nested_handoff.get()
    }

    /// Run a nested region at `level + 1` as a fresh ULT team — the entry
    /// point the OS-thread engine's handoff uses for the "ULT region nested
    /// under an OS-thread region" direction. The encountering thread (a
    /// pomp pool member, foreign to GLT) runs the master share inline;
    /// member ULTs run on the GLT workers. The team starts a fresh lineage:
    /// no GLT frame of an ancestor team lives on the calling OS thread.
    pub fn run_nested_region(
        &self,
        level: usize,
        nthreads: Option<usize>,
        body: &RegionFn<'static>,
    ) {
        let n = nthreads.unwrap_or_else(|| self.icvs.num_threads()).max(1);
        let team = GltoTeam::with_parent(self, level + 1, n, &[]);
        team.run_region(body);
    }

    /// The underlying GLT runtime.
    #[must_use]
    pub fn glt(&self) -> &AnyGlt {
        &self.glt
    }

    /// Which LWT backend this runtime uses.
    #[must_use]
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Critical-section registry (shared by all this runtime's teams).
    #[must_use]
    pub fn criticals(&self) -> &CriticalRegistry {
        &self.criticals
    }

    /// Wait policy for idle loops.
    #[must_use]
    pub fn wait_policy(&self) -> WaitPolicy {
        self.cfg.wait_policy
    }

    /// `OMP_SPIN_BUDGET`: probes an idle waiter spins before yielding to
    /// its scheduler (locks, barriers, region joins).
    #[must_use]
    pub fn spin_budget(&self) -> u32 {
        self.cfg.spin_budget
    }

    /// The deterministic scheduler when running on [`Backend::Det`]
    /// (seed/event-log/stall accessors for test harnesses), else `None`.
    #[must_use]
    pub fn det_scheduler(&self) -> Option<&glt_det::DetScheduler> {
        self.glt.det_scheduler()
    }

    /// §IV-G: under the MassiveThreads-like backend the primary GLT_thread
    /// (the OpenMP master) must not yield/help — MassiveThreads would let
    /// its work be stolen, displacing the master from GLT_thread 0. GLTO
    /// forbids the yield instead, which is exactly the modification the
    /// paper describes (and the reason GLTO(MTH) suffers in Figs. 8–9).
    /// With a single GLT_thread there is nobody to steal anything, so the
    /// restriction would deadlock every wait; it only applies when other
    /// workers exist.
    #[must_use]
    pub fn master_yield_forbidden(&self) -> bool {
        self.backend == Backend::Mth && self.glt.num_threads() > 1
    }

    /// Whether hot ULT teams are active (`GLTO_HOT_ULTS`, and not
    /// shared-queue mode — a parked loop in the shared queue would be
    /// stolen into the wrong worker).
    #[must_use]
    pub fn hot_enabled(&self) -> bool {
        self.cfg.hot_ults && !self.cfg.shared_queues
    }

    /// The parked hot-team cache (hot-path orchestration in [`crate::hot`]).
    pub(crate) fn hot_pool(&self) -> &HotPool {
        &self.hot
    }

    /// Retire the parked hot team, if any: member service ULTs run to
    /// completion and their frames return to the unit slab. Also invoked
    /// via [`OmpRuntime::retire_cached`] and on drop.
    pub fn retire_hot(&self) {
        self.hot.retire(&self.glt);
    }
}

impl Drop for GltoRuntime {
    fn drop(&mut self) {
        // Parked member loops hold a raw pointer to this runtime; retire
        // and join them before any field (the GLT runtime in particular)
        // is torn down.
        self.retire_hot();
    }
}

impl OmpRuntime for GltoRuntime {
    fn name(&self) -> &'static str {
        self.backend.name()
    }

    fn label(&self) -> &'static str {
        self.backend.label()
    }

    fn icvs(&self) -> &Icvs {
        &self.icvs
    }

    fn omp_config(&self) -> &OmpConfig {
        &self.cfg
    }

    fn counters(&self) -> &Counters {
        // One shared block: ULT creations are counted by the GLT layer,
        // task/fork statistics by the GLTO layer.
        self.glt.counters()
    }

    fn parallel_erased(&self, nthreads: Option<usize>, body: &RegionFn<'static>) {
        let n = nthreads.unwrap_or_else(|| self.icvs.num_threads()).max(1);
        let team = GltoTeam::new(self, 1, n);
        team.run_region(body);
    }

    fn honors_final(&self) -> bool {
        true // GLTO executes `final` tasks directly (passes the suite)
    }

    fn retire_cached(&self) {
        self.retire_hot();
    }
}

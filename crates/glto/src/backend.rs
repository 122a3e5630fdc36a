//! Backend selection: GLTO compiled against one of the three GLT
//! implementations (paper Fig. 2's "desired LWT solution").
//!
//! The concrete runtimes are dispatched through an enum with `#[inline]`
//! methods — the Rust analog of GLT's header-only `static inline` build
//! (§III-B), which lets the compiler flatten the extra API layer. A
//! `dyn GltRuntime` path also exists (any variant coerces), and the bench
//! crate's dispatch ablation measures the difference.

use glt::{CounterSnapshot, GltConfig, GltRuntime, UltHandle, WorkFn};

/// Which LWT library GLTO runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Argobots-like: private pools, no stealing, native tasklets.
    Abt,
    /// Qthreads-like: shepherds + full/empty-bit synchronization.
    Qth,
    /// MassiveThreads-like: work-first deques + random stealing.
    Mth,
    /// Deterministic seeded stepper (testing backend, not in the paper's
    /// plots): the seed fully determines the schedule. See the `glt-det`
    /// crate.
    Det {
        /// Seed of the scheduling-decision stream.
        seed: u64,
        /// Randomized-decision budget before the deterministic fallback
        /// (`u64::MAX` = fully randomized; used by failing-seed shrinking).
        max_random_decisions: u64,
    },
}

impl Backend {
    /// The paper's three measured backends, in its plotting order. The
    /// deterministic testing backend is deliberately *not* listed here —
    /// `all()` drives benchmark sweeps and figures; use
    /// [`Backend::det`] explicitly for schedule exploration.
    #[must_use]
    pub fn all() -> [Backend; 3] {
        [Backend::Abt, Backend::Qth, Backend::Mth]
    }

    /// The deterministic testing backend with a fully-randomized decision
    /// budget.
    #[must_use]
    pub fn det(seed: u64) -> Backend {
        Backend::Det { seed, max_random_decisions: u64::MAX }
    }

    /// Paper series label: `GLTO(ABT)` / `GLTO(QTH)` / `GLTO(MTH)`
    /// (plus `GLTO(DET)` for the testing backend).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Backend::Abt => "GLTO(ABT)",
            Backend::Qth => "GLTO(QTH)",
            Backend::Mth => "GLTO(MTH)",
            Backend::Det { .. } => "GLTO(DET)",
        }
    }

    /// Short runtime name: `glto-abt` / `glto-qth` / `glto-mth` /
    /// `glto-det`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Backend::Abt => "glto-abt",
            Backend::Qth => "glto-qth",
            Backend::Mth => "glto-mth",
            Backend::Det { .. } => "glto-det",
        }
    }
}

/// A started GLT runtime of whichever backend was selected.
pub enum AnyGlt {
    /// Argobots-like runtime.
    Abt(glt_abt::AbtRuntime),
    /// Qthreads-like runtime.
    Qth(glt_qth::QthRuntime),
    /// MassiveThreads-like runtime.
    Mth(glt_mth::MthRuntime),
    /// Deterministic seeded-stepper runtime (testing).
    Det(glt_det::DetRuntime),
}

impl AnyGlt {
    /// Start the chosen backend with `cfg`.
    #[must_use]
    pub fn start(backend: Backend, cfg: GltConfig) -> Self {
        match backend {
            Backend::Abt => AnyGlt::Abt(glt_abt::start(cfg)),
            Backend::Qth => AnyGlt::Qth(glt_qth::start(cfg)),
            Backend::Mth => AnyGlt::Mth(glt_mth::start(cfg)),
            Backend::Det { seed, max_random_decisions } => AnyGlt::Det(glt_det::start(
                cfg,
                glt_det::DetConfig { seed, max_random_decisions, ..glt_det::DetConfig::default() },
            )),
        }
    }

    /// Counter snapshot (convenience).
    #[must_use]
    pub fn snapshot(&self) -> CounterSnapshot {
        self.counters().snapshot()
    }

    /// Total units currently queued across pools (diagnostics).
    #[must_use]
    pub fn queued_len(&self) -> usize {
        match self {
            AnyGlt::Abt(rt) => rt.queued_len(),
            AnyGlt::Qth(rt) => rt.queued_len(),
            AnyGlt::Mth(rt) => rt.queued_len(),
            AnyGlt::Det(rt) => rt.queued_len(),
        }
    }

    /// The deterministic scheduler, when running on the `Det` backend
    /// (seed/event-log/stall accessors for test harnesses).
    #[must_use]
    pub fn det_scheduler(&self) -> Option<&glt_det::DetScheduler> {
        match self {
            AnyGlt::Det(rt) => Some(rt.scheduler()),
            _ => None,
        }
    }
}

macro_rules! dispatch {
    ($self:ident, $rt:ident => $e:expr) => {
        match $self {
            AnyGlt::Abt($rt) => $e,
            AnyGlt::Qth($rt) => $e,
            AnyGlt::Mth($rt) => $e,
            AnyGlt::Det($rt) => $e,
        }
    };
}

impl GltRuntime for AnyGlt {
    #[inline]
    fn backend_name(&self) -> &'static str {
        dispatch!(self, rt => rt.backend_name())
    }

    #[inline]
    fn num_threads(&self) -> usize {
        dispatch!(self, rt => rt.num_threads())
    }

    #[inline]
    fn self_rank(&self) -> Option<usize> {
        dispatch!(self, rt => rt.self_rank())
    }

    #[inline]
    fn ult_create(&self, work: WorkFn) -> UltHandle {
        dispatch!(self, rt => rt.ult_create(work))
    }

    #[inline]
    fn ult_create_to(&self, target: usize, work: WorkFn) -> UltHandle {
        dispatch!(self, rt => rt.ult_create_to(target, work))
    }

    #[inline]
    fn service_ult_create_to(&self, target: usize, work: WorkFn) -> UltHandle {
        dispatch!(self, rt => rt.service_ult_create_to(target, work))
    }

    #[inline]
    fn ult_create_batch(&self, specs: Vec<(Option<usize>, WorkFn)>) -> Vec<UltHandle> {
        dispatch!(self, rt => rt.ult_create_batch(specs))
    }

    #[inline]
    fn region_ult_create_batch(
        &self,
        tag: u64,
        specs: Vec<(Option<usize>, WorkFn)>,
    ) -> Vec<UltHandle> {
        dispatch!(self, rt => rt.region_ult_create_batch(tag, specs))
    }

    #[inline]
    fn unit_recycle(&self, h: &UltHandle) {
        dispatch!(self, rt => rt.unit_recycle(h))
    }

    #[inline]
    fn tasklet_create(&self, work: WorkFn) -> UltHandle {
        dispatch!(self, rt => rt.tasklet_create(work))
    }

    #[inline]
    fn tasklet_create_to(&self, target: usize, work: WorkFn) -> UltHandle {
        dispatch!(self, rt => rt.tasklet_create_to(target, work))
    }

    #[inline]
    fn join(&self, h: &UltHandle) {
        dispatch!(self, rt => rt.join(h))
    }

    #[inline]
    fn yield_now(&self) -> bool {
        dispatch!(self, rt => rt.yield_now())
    }

    #[inline]
    fn help_once(&self) -> bool {
        dispatch!(self, rt => rt.help_once())
    }

    #[inline]
    fn help_once_task(&self) -> bool {
        dispatch!(self, rt => rt.help_once_task())
    }

    #[inline]
    fn help_once_filtered(&self, allow_region: &dyn Fn(&glt::UnitState, bool) -> bool) -> bool {
        dispatch!(self, rt => rt.help_once_filtered(allow_region))
    }

    #[inline]
    fn can_steal(&self) -> bool {
        dispatch!(self, rt => rt.can_steal())
    }

    #[inline]
    fn tasklets_native(&self) -> bool {
        dispatch!(self, rt => rt.tasklets_native())
    }

    #[inline]
    fn counters(&self) -> &glt::Counters {
        dispatch!(self, rt => rt.counters())
    }

    #[inline]
    fn config(&self) -> &GltConfig {
        dispatch!(self, rt => rt.config())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_names() {
        assert_eq!(Backend::Abt.label(), "GLTO(ABT)");
        assert_eq!(Backend::Qth.name(), "glto-qth");
        assert_eq!(Backend::all().len(), 3);
    }

    #[test]
    fn any_backend_starts_and_runs() {
        for b in Backend::all() {
            let rt = AnyGlt::start(b, GltConfig::with_threads(2));
            let h = rt.ult_create(Box::new(|| {}));
            rt.join(&h);
            assert!(h.is_done(), "backend {b:?}");
        }
    }

    #[test]
    fn det_backend_starts_and_exposes_scheduler() {
        let b = Backend::det(17);
        assert_eq!(b.label(), "GLTO(DET)");
        assert_eq!(b.name(), "glto-det");
        let rt = AnyGlt::start(b, GltConfig::with_threads(2));
        let h = rt.ult_create(Box::new(|| {}));
        rt.join(&h);
        assert!(h.is_done());
        let det = rt.det_scheduler().expect("Det variant must expose its scheduler");
        assert_eq!(det.seed(), 17);
        assert!(!det.stalled());
        // The non-det backends expose nothing.
        let abt = AnyGlt::start(Backend::Abt, GltConfig::with_threads(1));
        assert!(abt.det_scheduler().is_none());
    }

    #[test]
    fn semantics_match_backend() {
        let abt = AnyGlt::start(Backend::Abt, GltConfig::with_threads(1));
        assert!(!abt.can_steal());
        assert!(abt.tasklets_native());
        let mth = AnyGlt::start(Backend::Mth, GltConfig::with_threads(1));
        assert!(mth.can_steal());
        assert!(!mth.tasklets_native());
    }
}

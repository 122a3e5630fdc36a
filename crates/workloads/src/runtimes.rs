//! Runtime registry: the paper's Fig. 2 "software stack choices".
//!
//! One program, eight runtimes: the paper's five (GNU-like, Intel-like,
//! and GLTO over each of the three LWT backends), which everything in the
//! evaluation iterates over as [`RuntimeKind::all`], plus the serialized
//! baseline, the deterministic GLTO backend and the adaptive composition
//! that complete [`RuntimeKind::matrix`]. All are built here.

use std::sync::Arc;

use glto::{Backend, GltoRuntime};
use omp::{OmpConfig, OmpRuntime};
use pomp::{GnuRuntime, IntelRuntime};

/// The five OpenMP implementations compared in the paper, plus two
/// testing-only kinds (a serialized baseline and the deterministic
/// seeded-schedule GLTO backend) used by the conformance harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuntimeKind {
    /// Serialized team-of-one baseline (testing only, not a paper series).
    Serial,
    /// GNU libgomp-like ("GCC").
    Gnu,
    /// Intel-like ("ICC").
    Intel,
    /// GLTO over Argobots-like ("GLTO(ABT)").
    GltoAbt,
    /// GLTO over Qthreads-like ("GLTO(QTH)").
    GltoQth,
    /// GLTO over MassiveThreads-like ("GLTO(MTH)").
    GltoMth,
    /// GLTO over the deterministic seeded stepper (testing only): the seed
    /// fully determines the schedule. See the `glt-det` crate.
    GltoDet {
        /// Seed of the scheduling-decision stream.
        seed: u64,
    },
    /// Adaptive composition ("ADAPT"): picks the pomp hot-team OS path or
    /// the GLTO hot-ULT path per region, per callsite. See `omp-adaptive`.
    Adaptive,
}

impl RuntimeKind {
    /// The paper's five measured runtimes, in its plotting order. The
    /// testing-only kinds (`Serial`, `GltoDet`) are deliberately excluded:
    /// `all()` drives the benchmark sweeps and figures. Use
    /// [`RuntimeKind::matrix`] for the conformance test matrix.
    #[must_use]
    pub fn all() -> [RuntimeKind; 5] {
        [
            RuntimeKind::Gnu,
            RuntimeKind::Intel,
            RuntimeKind::GltoAbt,
            RuntimeKind::GltoQth,
            RuntimeKind::GltoMth,
        ]
    }

    /// The full conformance matrix: every runtime the stack can execute a
    /// region on — the serialized baseline, both pthread runtimes, the
    /// three paper GLTO backends, the deterministic backend (seed 0;
    /// harnesses substitute their own seeds), and the adaptive composition.
    #[must_use]
    pub fn matrix() -> [RuntimeKind; 8] {
        [
            RuntimeKind::Serial,
            RuntimeKind::Gnu,
            RuntimeKind::Intel,
            RuntimeKind::GltoAbt,
            RuntimeKind::GltoQth,
            RuntimeKind::GltoMth,
            RuntimeKind::GltoDet { seed: 0 },
            RuntimeKind::Adaptive,
        ]
    }

    /// The LWT-based subset.
    #[must_use]
    pub fn glto_all() -> [RuntimeKind; 3] {
        [RuntimeKind::GltoAbt, RuntimeKind::GltoQth, RuntimeKind::GltoMth]
    }

    /// Figure label (`GCC`, `ICC`, `GLTO(ABT)`, …).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RuntimeKind::Serial => "Serial",
            RuntimeKind::Gnu => "GCC",
            RuntimeKind::Intel => "ICC",
            RuntimeKind::GltoAbt => "GLTO(ABT)",
            RuntimeKind::GltoQth => "GLTO(QTH)",
            RuntimeKind::GltoMth => "GLTO(MTH)",
            RuntimeKind::GltoDet { .. } => "GLTO(DET)",
            RuntimeKind::Adaptive => "ADAPT",
        }
    }

    /// CLI / env name (`gnu`, `intel`, `glto-abt`, …).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RuntimeKind::Serial => "serial",
            RuntimeKind::Gnu => "gnu",
            RuntimeKind::Intel => "intel",
            RuntimeKind::GltoAbt => "glto-abt",
            RuntimeKind::GltoQth => "glto-qth",
            RuntimeKind::GltoMth => "glto-mth",
            RuntimeKind::GltoDet { .. } => "glto-det",
            RuntimeKind::Adaptive => "adaptive",
        }
    }

    /// Parse a CLI / `OMP_RUNTIME` spelling.
    #[must_use]
    pub fn parse(s: &str) -> Option<RuntimeKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "serial" => Some(RuntimeKind::Serial),
            "gnu" | "gcc" | "gomp" => Some(RuntimeKind::Gnu),
            "intel" | "icc" | "iomp" => Some(RuntimeKind::Intel),
            "glto-abt" | "abt" | "argobots" => Some(RuntimeKind::GltoAbt),
            "glto-qth" | "qth" | "qthreads" => Some(RuntimeKind::GltoQth),
            "glto-mth" | "mth" | "massivethreads" => Some(RuntimeKind::GltoMth),
            "glto-det" | "det" => Some(RuntimeKind::GltoDet { seed: 0 }),
            "adaptive" | "adapt" | "omp-adaptive" => Some(RuntimeKind::Adaptive),
            _ => None,
        }
    }

    /// Whether this is an LWT-based (GLTO) runtime.
    #[must_use]
    pub fn is_glto(self) -> bool {
        matches!(
            self,
            RuntimeKind::GltoAbt
                | RuntimeKind::GltoQth
                | RuntimeKind::GltoMth
                | RuntimeKind::GltoDet { .. }
        )
    }

    /// The GLT backend, for GLTO kinds.
    #[must_use]
    pub fn backend(self) -> Option<Backend> {
        match self {
            RuntimeKind::GltoAbt => Some(Backend::Abt),
            RuntimeKind::GltoQth => Some(Backend::Qth),
            RuntimeKind::GltoMth => Some(Backend::Mth),
            RuntimeKind::GltoDet { seed } => Some(Backend::det(seed)),
            _ => None,
        }
    }

    /// Instantiate the runtime ("link the binary against it", Fig. 2).
    #[must_use]
    pub fn build(self, cfg: OmpConfig) -> Arc<dyn OmpRuntime> {
        match self {
            RuntimeKind::Serial => Arc::new(omp::SerialRuntime::new(cfg)),
            RuntimeKind::Gnu => GnuRuntime::new(cfg),
            RuntimeKind::Intel => IntelRuntime::new(cfg),
            RuntimeKind::GltoAbt => GltoRuntime::new(Backend::Abt, cfg),
            RuntimeKind::GltoQth => GltoRuntime::new(Backend::Qth, cfg),
            RuntimeKind::GltoMth => GltoRuntime::new(Backend::Mth, cfg),
            RuntimeKind::GltoDet { seed } => GltoRuntime::new(Backend::det(seed), cfg),
            RuntimeKind::Adaptive => omp_adaptive::AdaptiveRuntime::new(cfg),
        }
    }

    /// Runtime selected by `OMP_RUNTIME` (default Intel, like linking icc).
    #[must_use]
    pub fn from_env() -> RuntimeKind {
        std::env::var("OMP_RUNTIME")
            .ok()
            .and_then(|s| RuntimeKind::parse(&s))
            .unwrap_or(RuntimeKind::Intel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omp::OmpRuntimeExt;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parse_roundtrip() {
        for k in RuntimeKind::all() {
            assert_eq!(RuntimeKind::parse(k.name()), Some(k));
            assert_eq!(RuntimeKind::parse(&k.name().to_uppercase()), Some(k));
        }
        assert_eq!(RuntimeKind::parse("gcc"), Some(RuntimeKind::Gnu));
        assert_eq!(RuntimeKind::parse("nonsense"), None);
    }

    #[test]
    fn labels_match_paper() {
        let labels: Vec<_> = RuntimeKind::all().iter().map(|k| k.label()).collect();
        assert_eq!(labels, vec!["GCC", "ICC", "GLTO(ABT)", "GLTO(QTH)", "GLTO(MTH)"]);
    }

    #[test]
    fn build_all_and_run_one_region() {
        for k in RuntimeKind::all() {
            let rt = k.build(OmpConfig::with_threads(2));
            assert_eq!(rt.label(), k.label());
            let hits = AtomicUsize::new(0);
            rt.parallel(|_| {
                hits.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(hits.load(Ordering::SeqCst), 2, "runtime {}", k.name());
        }
    }

    #[test]
    fn matrix_is_eight_and_every_runtime_runs_a_region() {
        let m = RuntimeKind::matrix();
        assert_eq!(m.len(), 8);
        for k in m {
            let rt = k.build(OmpConfig::with_threads(2));
            let hits = AtomicUsize::new(0);
            rt.parallel(|_| {
                hits.fetch_add(1, Ordering::SeqCst);
            });
            // The serialized baseline runs a team of one; every real
            // runtime honors the requested team size.
            let expect = if k == RuntimeKind::Serial { 1 } else { 2 };
            assert_eq!(hits.load(Ordering::SeqCst), expect, "runtime {}", k.name());
        }
    }

    #[test]
    fn det_kind_carries_seed_and_parses() {
        assert_eq!(RuntimeKind::parse("det"), Some(RuntimeKind::GltoDet { seed: 0 }));
        assert_eq!(RuntimeKind::parse("serial"), Some(RuntimeKind::Serial));
        let k = RuntimeKind::GltoDet { seed: 9 };
        assert_eq!(k.backend(), Some(Backend::det(9)));
        assert!(k.is_glto());
        assert_eq!(k.label(), "GLTO(DET)");
        assert!(!RuntimeKind::Serial.is_glto());
    }

    #[test]
    fn adaptive_kind_parses_and_is_not_glto() {
        assert_eq!(RuntimeKind::parse("adaptive"), Some(RuntimeKind::Adaptive));
        assert_eq!(RuntimeKind::parse("adapt"), Some(RuntimeKind::Adaptive));
        assert_eq!(RuntimeKind::Adaptive.label(), "ADAPT");
        assert_eq!(RuntimeKind::Adaptive.name(), "adaptive");
        assert_eq!(RuntimeKind::Adaptive.backend(), None, "composes both mechanisms");
        assert!(!RuntimeKind::Adaptive.is_glto());
        assert!(!RuntimeKind::all().contains(&RuntimeKind::Adaptive), "paper series stay five");
        assert!(RuntimeKind::matrix().contains(&RuntimeKind::Adaptive));
    }

    #[test]
    fn backend_mapping() {
        assert_eq!(RuntimeKind::GltoAbt.backend(), Some(Backend::Abt));
        assert_eq!(RuntimeKind::Gnu.backend(), None);
        assert!(RuntimeKind::GltoMth.is_glto());
        assert!(!RuntimeKind::Intel.is_glto());
    }
}

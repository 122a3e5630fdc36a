//! The benchmark's definitions: workloads, runtimes, metric names, units
//! and regression bounds. `BENCHMARK.json` is generated from this file
//! (`glto-benchmark manifest`) and a unit test keeps the two in step.

use glt::WaitPolicy;
use workloads::RuntimeKind;

use crate::json::Json;

/// Team width everywhere (`nproc` of the reference container).
pub const WIDTH: usize = 2;
/// Outstanding jobs in the `service_mix` closed loop.
pub const SERVICE_WINDOW: usize = 4;
/// Tenants the `service_mix` job stream rotates through.
pub const SERVICE_TENANTS: usize = 64;
/// Operations every cell runs before its first timed one.
pub const WARMUP_OPS: usize = 20;
/// Fewest timed operations in a cell, however slow the runtime.
pub const MIN_TIMED_OPS: usize = 10;
/// `--seconds` of one driver run; also what `run.sh` uses per workload.
pub const RUN_SECONDS: u64 = 28;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    CloverFor,
    NestedNull,
    CgTasks,
    ServiceMix,
}

impl WorkloadId {
    pub const ALL: [WorkloadId; 4] = [
        WorkloadId::CloverFor,
        WorkloadId::NestedNull,
        WorkloadId::CgTasks,
        WorkloadId::ServiceMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::CloverFor => "clover_for",
            WorkloadId::NestedNull => "nested_null",
            WorkloadId::CgTasks => "cg_tasks",
            WorkloadId::ServiceMix => "service_mix",
        }
    }

    pub fn parse(s: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == s)
    }

    /// One line for `BENCHMARK.json`: which layer the workload loads.
    pub fn why(self) -> &'static str {
        match self {
            WorkloadId::CloverFor => {
                "120 flat parallel-for regions per op on a 128x128 hydro grid: fork/join, barrier \
                 and static work-share dominate; the task layer is idle (paper Fig. 6-7)"
            }
            WorkloadId::NestedNull => {
                "5 x Listing 1 (100 outer x 100 inner, empty bodies): pure inner-team creation \
                 cost, ULT create vs OS-thread spawn; no kernels, no tasks (Fig. 8-9, Table II)"
            }
            WorkloadId::CgTasks => {
                "task-parallel CG, 1,488 ten-row tasks per iteration from one producer: task \
                 frames, queues, steals and taskwait dominate; a handful of forks (Fig. 10-13)"
            }
            WorkloadId::ServiceMix => {
                "closed loop of 4 outstanding tiny jobs from 64 tenants on one omp-service lane: \
                 admission, lease, ledger and cold-ish runtime re-entry dominate; kernels are tiny"
            }
        }
    }

    /// Paper §VI-A: active waiting for the loop codes, the default
    /// (passive) for the task codes. `service_mix` lanes are configured by
    /// the substrate itself, which leaves the default.
    pub fn wait_policy(self) -> WaitPolicy {
        match self {
            WorkloadId::CloverFor | WorkloadId::NestedNull => WaitPolicy::Active,
            WorkloadId::CgTasks | WorkloadId::ServiceMix => WaitPolicy::Passive,
        }
    }
}

pub fn wait_policy_name(wp: WaitPolicy) -> &'static str {
    match wp {
        WaitPolicy::Active => "active",
        WaitPolicy::Passive => "passive",
    }
}

/// Runtimes a workload is measured on: the width-1 serial control, then
/// the six real runtimes.
pub const RUNTIMES: [RuntimeKind; 7] = [
    RuntimeKind::Serial,
    RuntimeKind::Gnu,
    RuntimeKind::Intel,
    RuntimeKind::GltoAbt,
    RuntimeKind::GltoQth,
    RuntimeKind::GltoMth,
    RuntimeKind::Adaptive,
];

/// The six real runtimes (per-layer `<rt>`).
fn real_runtimes() -> impl Iterator<Item = RuntimeKind> {
    RUNTIMES.into_iter().filter(|k| *k != RuntimeKind::Serial)
}

pub fn time_metric(kind: RuntimeKind) -> String {
    format!("time_ms.{}", kind.name())
}

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// Regression bound; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// Bounds of the retained `time_ms.<rt>` metrics, from calibration (README
/// "Bounds, and what was demoted").
const TIME_BOUNDS: [(RuntimeKind, f64); 4] = [
    (RuntimeKind::Serial, 0.05),
    (RuntimeKind::GltoAbt, 0.10),
    (RuntimeKind::GltoQth, 0.10),
    (RuntimeKind::GltoMth, 0.10),
];
// The contract wants set-up time bounded whatever its noise, with the
// largest bound: 33 ms of `service_mix` set-up spread over two pthread lanes.
const SETUP_BOUND: f64 = 0.25;
const RSS_BOUND: f64 = 0.05;

/// Runtimes whose `time_ms` wandered more between runs than a 0.10 bound
/// allows: still measured in every pass and printed under the same name,
/// but listed as per-layer metrics, without a bound.
pub const DEMOTED: [RuntimeKind; 3] = [RuntimeKind::Gnu, RuntimeKind::Intel, RuntimeKind::Adaptive];

pub fn end_to_end() -> Vec<MetricDef> {
    let mut v: Vec<MetricDef> = TIME_BOUNDS
        .iter()
        .map(|&(k, bound)| MetricDef {
            name: time_metric(k),
            unit: "ms",
            better: "lower",
            bound: Some(bound),
        })
        .collect();
    v.push(MetricDef {
        name: "setup_s".into(),
        unit: "s",
        better: "lower",
        bound: Some(SETUP_BOUND),
    });
    v.push(MetricDef {
        name: "rss_mb".into(),
        unit: "MB",
        better: "lower",
        bound: Some(RSS_BOUND),
    });
    v
}

/// Per-runtime probe families: `(prefix, unit)`.
const TEAM_PROBES: [(&str, &str); 5] = [
    ("team.fork_join_ns", "ns"),
    ("team.assign_ns", "ns"),
    ("team.barrier_ns", "ns"),
    ("team.inner_fork_ns", "ns"),
    ("team.build_ms", "ms"),
];
const OMP_PROBES: [(&str, &str); 5] = [
    ("omp.for_static_ns", "ns"),
    ("omp.for_dynamic_chunk_ns", "ns"),
    ("omp.critical_ns", "ns"),
    ("omp.task_spawn_run_ns", "ns"),
    ("omp.task_recursive_ns", "ns"),
];
const OPS_COUNTS: [(&str, &str, &str); 5] = [
    ("ops.forks_per_op", "count", "lower"),
    ("ops.units_per_op", "count", "lower"),
    ("ops.tasks_queued_frac", "ratio", "higher"),
    ("ops.steals_per_op", "count", "lower"),
    ("ops.slab_reuse_frac", "ratio", "higher"),
];
pub const GLT_PROBES: [&str; 4] = [
    "glt.ult_create_join_ns",
    "glt.batch8_create_join_ns",
    "glt.remote_create_join_ns",
    "glt.tasklet_create_join_ns",
];

pub fn per_layer() -> Vec<MetricDef> {
    let def = |name: String, unit: &'static str, better: &'static str| MetricDef {
        name,
        unit,
        better,
        bound: None,
    };
    let mut v = Vec::new();
    for probe in GLT_PROBES {
        for be in glto::Backend::all() {
            v.push(def(format!("{probe}.{}", backend_suffix(be)), "ns", "lower"));
        }
    }
    v.push(def("glt.feb_lock_unlock_ns".into(), "ns", "lower"));
    for (prefix, unit) in TEAM_PROBES.into_iter().chain(OMP_PROBES) {
        for rt in real_runtimes() {
            v.push(def(format!("{prefix}.{}", rt.name()), unit, "lower"));
        }
    }
    for (prefix, unit, better) in OPS_COUNTS {
        for rt in real_runtimes() {
            v.push(def(format!("{prefix}.{}", rt.name()), unit, better));
        }
    }
    v.push(def("service.submit_ns".into(), "ns", "lower"));
    for rt in real_runtimes() {
        v.push(def(format!("service.overhead_us.{}", rt.name()), "us", "lower"));
    }
    v.push(def("service.start_shutdown_ms".into(), "ms", "lower"));
    v.push(def("service.rejected".into(), "count", "lower"));
    v.push(def("host.spin_ms".into(), "ms", "lower"));
    v.push(def("trace.overhead_frac".into(), "ratio", "lower"));
    for k in DEMOTED {
        v.push(def(time_metric(k), "ms", "lower"));
    }
    v
}

/// `abt` / `qth` / `mth`.
pub fn backend_suffix(be: glto::Backend) -> &'static str {
    be.name().trim_start_matches("glto-")
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let metric = |m: &MetricDef| {
        let mut pairs = vec![
            ("name", Json::str(m.name.clone())),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better)),
        ];
        if let Some(b) = m.bound {
            pairs.push(("bound", Json::Num(b)));
        }
        Json::obj(pairs)
    };
    Json::obj([
        ("command", Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")])),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WorkloadId::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", Json::Arr(end_to_end().iter().map(metric).collect())),
        ("per_layer", Json::Arr(per_layer().iter().map(metric).collect())),
    ])
}

/// Deterministic generator (SplitMix64) for everything the seed drives:
/// round order and the `service_mix` job stream. The harness keeps its own
/// rather than borrow `workloads::util::SplitMix64`, so that a change to
/// the program cannot change the inputs it is measured on.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

/// Order in which round `round` visits the runtimes.
pub fn round_order(seed: u64, round: usize) -> Vec<RuntimeKind> {
    let mut order = RUNTIMES.to_vec();
    Rng::new(seed ^ (round as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)).shuffle(&mut order);
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_within_contract_limits() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()), "{} per-layer metrics", layers.len());
        assert_eq!(layers.len(), 114 + DEMOTED.len());
        assert_eq!(TIME_BOUNDS.len() + DEMOTED.len(), RUNTIMES.len(), "every runtime is reported");
        let mut names: Vec<&str> = e2e.iter().chain(&layers).map(|m| m.name.as_str()).collect();
        names.extend(WorkloadId::ALL.iter().map(|w| w.name()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for n in names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
        }
        let setup = e2e.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        let largest = e2e.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s carries the largest bound");
        assert!(largest <= 0.25, "the contract's cap");
        for m in e2e.iter().filter(|m| m.name != "setup_s") {
            assert!(m.bound.unwrap() <= 0.10, "{}: retained bounds are at most 0.10", m.name);
        }
        for w in WorkloadId::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
    }

    #[test]
    fn committed_manifest_matches_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(Json::parse(&text).unwrap(), manifest(), "regenerate: glto-benchmark manifest");
    }

    #[test]
    fn round_order_is_a_seed_determined_permutation() {
        let a = round_order(7, 0);
        assert_eq!(a, round_order(7, 0));
        let mut sorted: Vec<&str> = a.iter().map(|k| k.name()).collect();
        sorted.sort_unstable();
        let mut all: Vec<&str> = RUNTIMES.iter().map(|k| k.name()).collect();
        all.sort_unstable();
        assert_eq!(sorted, all);
        let orders: Vec<_> = (0..8).map(|r| round_order(7, r)).collect();
        assert!(orders.iter().any(|o| *o != orders[0]), "rounds are shuffled independently");
        assert!((0..8).any(|s| round_order(s, 0) != a), "the seed drives the order");
    }
}

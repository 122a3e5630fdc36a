//! One cell = (workload, runtime), measured in a process of its own so
//! that exactly one runtime is alive: idle active-wait workers of a second
//! runtime would otherwise fight the team under test for the two cores.
//!
//! The cell prints one JSON line; the driver parses it.

use std::time::{Duration, Instant};

use glt::CounterSnapshot;
use workloads::RuntimeKind;

use crate::host::peak_rss_kb;
use crate::json::Json;
use crate::ops::Runner;
use crate::probes::{self, Probes};
use crate::spec::{WorkloadId, MIN_TIMED_OPS, WARMUP_OPS};
use crate::stats::median;
use crate::trace::{spans_to_json, Tracer};

/// Arguments of the `cell` subcommand.
#[derive(Debug, Clone, Copy)]
pub struct CellArgs {
    pub workload: WorkloadId,
    pub runtime: RuntimeKind,
    pub seed: u64,
    /// Timed window after the [`WARMUP_OPS`] warm-up operations; it runs
    /// on until it holds [`MIN_TIMED_OPS`].
    pub timed: Duration,
    pub trace: bool,
    /// Budget of each probe (traced cells only).
    pub probe: Duration,
}

/// Counts per operation from a counter delta over `ops` operations.
fn ops_metrics(runtime: RuntimeKind, d: &CounterSnapshot, ops: usize, out: &mut Probes) {
    let name = runtime.name();
    let per_op = |x: u64| x as f64 / ops.max(1) as f64;
    let share = |part: u64, whole: u64| if whole == 0 { 0.0 } else { part as f64 / whole as f64 };
    let reused = d.unit_slab_reused + d.task_slab_reused;
    out.extend([
        (format!("ops.forks_per_op.{name}"), per_op(d.forks)),
        (
            format!("ops.units_per_op.{name}"),
            per_op(d.ults_created + d.tasklets_created + d.os_threads_created),
        ),
        (format!("ops.tasks_queued_frac.{name}"), share(d.tasks_queued, d.tasks_created)),
        (format!("ops.steals_per_op.{name}"), per_op(d.steals)),
        (
            format!("ops.slab_reuse_frac.{name}"),
            share(reused, reused + d.unit_slab_fresh + d.task_slab_fresh),
        ),
    ]);
}

/// Run the cell. `process_start` is taken first thing in `main`.
pub fn run(args: CellArgs, process_start: Instant) -> Json {
    let CellArgs { workload, runtime, seed, timed, trace, probe } = args;
    let real = runtime != RuntimeKind::Serial;
    let mut probes = Probes::new();
    if trace && real {
        // Needs a process with no runtime alive yet.
        probes
            .push((format!("team.build_ms.{}", runtime.name()), probes::build_ms(runtime, probe)));
    }

    let mut off = Tracer::off();
    let mut runner = Runner::prepare(workload, runtime, seed);
    let warm = runner.measure(&mut off, WARMUP_OPS, Duration::ZERO);
    // Set-up as the program causes it: inputs, serial reference, runtime
    // construction, and the warm-up operations with their lazy set-up.
    let setup_ns = process_start.elapsed().as_nanos() as f64;
    let mut attempted = warm.samples_ns.len();
    let mut failed = warm.failed;

    let mut fields: Vec<(&str, Json)> = Vec::new();
    let samples = if trace {
        let untraced = runner.measure(&mut off, MIN_TIMED_OPS, timed / 2);
        let mut on = Tracer::on();
        let before = runner.counters();
        let traced = runner.measure(&mut on, MIN_TIMED_OPS, timed / 2);
        let delta = runner.counters().delta_since(&before);
        attempted += traced.samples_ns.len();
        failed += traced.failed;
        if real {
            ops_metrics(runtime, &delta, traced.samples_ns.len(), &mut probes);
        }
        let overhead = median(&traced.samples_ns) / median(&untraced.samples_ns) - 1.0;
        fields.push(("trace_overhead_frac", Json::Num(overhead)));
        fields.push(("traced_ops", Json::Num(traced.samples_ns.len() as f64)));
        fields.push(("spans", spans_to_json(on.spans())));
        untraced
    } else {
        runner.measure(&mut off, MIN_TIMED_OPS, timed)
    };
    attempted += samples.samples_ns.len();
    failed += samples.failed;
    let rejected = runner.rejected();
    let errors = runner.finish();

    if trace {
        // The workload's runtime is gone; each probe family builds its own.
        if real {
            probes::team_and_loop_probes(runtime, probe, &mut probes);
            probes::task_probes(runtime, probe, &mut probes);
            probes::service_probes(runtime, probe, &mut probes);
            if let Some(backend) = runtime.backend() {
                probes::glt_probes(backend, probe, &mut probes);
            }
        } else {
            probes::feb_probe(probe, &mut probes);
        }
        fields.push(("probes", Json::obj(probes.into_iter().map(|(k, v)| (k, Json::Num(v))))));
    }

    fields.extend([
        ("workload", Json::str(workload.name())),
        ("runtime", Json::str(runtime.name())),
        ("setup_ns", Json::Num(setup_ns)),
        ("samples_ns", Json::nums(samples.samples_ns)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("rejected", Json::Num(rejected as f64)),
        ("errors", Json::Arr(errors.into_iter().map(Json::Str).collect())),
        ("rss_kb", Json::Num(peak_rss_kb().unwrap_or(f64::NAN))),
    ]);
    Json::obj(fields)
}

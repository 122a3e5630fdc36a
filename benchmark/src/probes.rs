//! Per-layer probes: each times calls into one layer's public functions
//! from outside, on a runtime that is the only one alive in the process.
//!
//! A probe repeats a small batch until its time budget is spent and
//! reports the median batch, per item. Probes that isolate one construct
//! subtract the median empty region measured on the same runtime.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use glt::{FebTable, GltConfig, GltRuntime, WaitPolicy, WorkFn};
use glto::{AnyGlt, Backend};
use omp::{OmpConfig, OmpRuntime, OmpRuntimeExt, Schedule};
use omp_service::{Substrate, Workload};
use workloads::{taskbench, RuntimeKind};

use crate::ops::{lane_config, service_config};
use crate::spec::{backend_suffix, GLT_PROBES, SERVICE_TENANTS, WIDTH};
use crate::stats::median;

/// Named probe results of one cell.
pub type Probes = Vec<(String, f64)>;

const STATIC: Schedule = Schedule::Static { chunk: None };
const FIB_N: u64 = 14;

/// Median nanoseconds of `batch` over repeated calls: three warm-up calls,
/// then at least five timed ones and as many as fit in `budget`.
fn median_ns(budget: Duration, mut batch: impl FnMut()) -> f64 {
    for _ in 0..3 {
        batch();
    }
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || started.elapsed() < budget {
        let t0 = Instant::now();
        batch();
        samples.push(t0.elapsed().as_nanos() as f64);
    }
    median(&samples)
}

fn probe_config(wait: WaitPolicy) -> OmpConfig {
    OmpConfig::with_threads(WIDTH).nested(true).wait_policy(wait)
}

/// `team.build_ms`: construct the runtime and run its first region, on a
/// fresh runtime each time. Run before any other runtime exists.
pub fn build_ms(kind: RuntimeKind, budget: Duration) -> f64 {
    median_ns(budget / 4, || {
        let rt = kind.build(probe_config(WaitPolicy::Active));
        rt.parallel(|ctx| {
            black_box(ctx.thread_num());
        });
    }) / 1e6
}

/// Team-layer and loop-construct probes, on an active-wait runtime (the
/// policy of the loop workloads).
pub fn team_and_loop_probes(kind: RuntimeKind, budget: Duration, out: &mut Probes) {
    let rt = kind.build(probe_config(WaitPolicy::Active));
    let rt: &dyn OmpRuntime = rt.as_ref();
    let name = kind.name();

    const FORKS: u32 = 32;
    let before = rt.counters().snapshot();
    let empty = median_ns(budget, || {
        for _ in 0..FORKS {
            rt.parallel(|_| {});
        }
    }) / f64::from(FORKS);
    let assign = rt.counters().snapshot().delta_since(&before).assign_ns_per_fork();
    out.push((format!("team.fork_join_ns.{name}"), empty));
    out.push((format!("team.assign_ns.{name}"), assign));

    // One region holding `n` copies of a construct, less the empty region.
    let per_construct = |n: u32, region_ns: f64| (region_ns - empty) / f64::from(n);

    const BARRIERS: u32 = 64;
    let t = median_ns(budget, || {
        rt.parallel(|ctx| {
            for _ in 0..BARRIERS {
                ctx.barrier();
            }
        });
    });
    out.push((format!("team.barrier_ns.{name}"), per_construct(BARRIERS, t)));

    const INNER: u32 = 16;
    let t = median_ns(budget, || {
        rt.parallel(|ctx| {
            for _ in 0..INNER {
                ctx.parallel(|_| {});
            }
        });
    });
    out.push((format!("team.inner_fork_ns.{name}"), per_construct(INNER, t)));

    const LOOPS: u32 = 64;
    let t = median_ns(budget, || {
        rt.parallel(|ctx| {
            for _ in 0..LOOPS {
                ctx.for_each(0..64, STATIC, |i| {
                    black_box(i);
                });
            }
        });
    });
    let for_static = per_construct(LOOPS, t);
    out.push((format!("omp.for_static_ns.{name}"), for_static));

    const CHUNKS: u32 = 4096;
    let t = median_ns(budget, || {
        rt.parallel(|ctx| {
            ctx.for_each(0..u64::from(CHUNKS), Schedule::Dynamic { chunk: 1 }, |i| {
                black_box(i);
            });
        });
    });
    out.push((format!("omp.for_dynamic_chunk_ns.{name}"), per_construct(CHUNKS, t - for_static)));

    const CRITICALS: u32 = 256;
    let entered = AtomicU64::new(0);
    let t = median_ns(budget, || {
        rt.parallel(|ctx| {
            for _ in 0..CRITICALS {
                ctx.critical("probe", || entered.fetch_add(1, Ordering::Relaxed));
            }
        });
    });
    assert_eq!(
        entered.into_inner() % u64::from(CRITICALS * WIDTH as u32),
        0,
        "a critical was lost"
    );
    out.push((format!("omp.critical_ns.{name}"), per_construct(CRITICALS * WIDTH as u32, t)));
}

/// Task-layer probes, on a passive-wait runtime (the policy of the task
/// workloads).
pub fn task_probes(kind: RuntimeKind, budget: Duration, out: &mut Probes) {
    let rt = kind.build(probe_config(WaitPolicy::Passive));
    let rt: &dyn OmpRuntime = rt.as_ref();
    let name = kind.name();

    let empty = median_ns(budget / 2, || rt.parallel(|_| {}));

    const TASKS: u32 = 1024;
    let ran = AtomicU64::new(0);
    let t = median_ns(budget, || {
        rt.parallel(|ctx| {
            ctx.single(|| {
                for _ in 0..TASKS {
                    let ran = &ran;
                    ctx.task(move |_| {
                        ran.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        });
    });
    assert_eq!(ran.into_inner() % u64::from(TASKS), 0, "a task was lost");
    out.push((format!("omp.task_spawn_run_ns.{name}"), (t - empty) / f64::from(TASKS)));

    // Every thread that runs a task produces more: the same task layer
    // used the other way round.
    let before = rt.counters().snapshot();
    let mut calls = 0u64;
    let t = median_ns(budget, || {
        calls += 1;
        assert_eq!(taskbench::fib_tasks(rt, FIB_N, 0), taskbench::fib_seq(FIB_N));
    });
    let tasks = rt.counters().snapshot().delta_since(&before).tasks_created / calls;
    out.push((format!("omp.task_recursive_ns.{name}"), (t - empty) / tasks.max(1) as f64));
}

fn noop() -> WorkFn {
    Box::new(|| {})
}

/// GLT substrate probes on a bare backend runtime.
pub fn glt_probes(backend: Backend, budget: Duration, out: &mut Probes) {
    let g = AnyGlt::start(backend, GltConfig::with_threads(WIDTH));
    let be = backend_suffix(backend);
    const REPS: u32 = 64;
    let per_item = |create_join: &dyn Fn()| {
        median_ns(budget, || {
            for _ in 0..REPS {
                create_join();
            }
        }) / f64::from(REPS)
    };
    let ult = per_item(&|| g.join(&g.ult_create(noop())));
    let batch8 = per_item(&|| {
        for h in g.ult_create_batch((0..8).map(|_| (None, noop())).collect()) {
            g.join(&h);
        }
    });
    // Remote push plus wake of the other worker.
    let remote = per_item(&|| g.join(&g.ult_create_to(1, noop())));
    let tasklet = per_item(&|| g.join(&g.tasklet_create(noop())));
    for (probe, ns) in GLT_PROBES.into_iter().zip([ult, batch8, remote, tasklet]) {
        out.push((format!("{probe}.{be}"), ns));
    }
}

/// `glt.feb_lock_unlock_ns`: uncontended full/empty-bit lock round trip.
pub fn feb_probe(budget: Duration, out: &mut Probes) {
    let table = FebTable::new();
    const REPS: u32 = 256;
    let t = median_ns(budget, || {
        for key in 0..REPS as usize {
            table.lock(key % 8);
            table.unlock(key % 8);
        }
    });
    out.push(("glt.feb_lock_unlock_ns".into(), t / f64::from(REPS)));
}

/// `omp-service` probes for one runtime kind: a window of one job through
/// the substrate against the same `Workload::run` inline on an identically
/// configured runtime, so the difference is what the service adds.
pub fn service_probes(kind: RuntimeKind, budget: Duration, out: &mut Probes) {
    let mix = Workload::mix();
    let job = |k: usize, tenant: usize| omp_service::JobSpec {
        tenant,
        workload: mix[k].clone(),
        threads: WIDTH,
        runtime: kind,
    };

    let t0 = Instant::now();
    let substrate = Substrate::start(service_config());
    let start_ns = t0.elapsed().as_nanos() as f64;
    let mut submit_ns = Vec::new();
    let mut latency_ns: [Vec<f64>; 4] = Default::default();
    let mut rejected = 0u64;
    let started = Instant::now();
    let mut n = 0usize;
    // Two warm-up rotations (lane construction), then at least five timed.
    while n < 28 || started.elapsed() < budget * 2 {
        let k = n % mix.len();
        let t0 = Instant::now();
        let submitted = substrate.submit(job(k, n % SERVICE_TENANTS));
        let t1 = Instant::now();
        match submitted {
            Ok(ticket) => {
                let outcome = ticket.wait();
                assert!(outcome.ok, "service probe: wrong digest for {}", mix[k].name());
                if n >= 8 {
                    submit_ns.push((t1 - t0).as_nanos() as f64);
                    latency_ns[k].push(t0.elapsed().as_nanos() as f64);
                }
            }
            Err(_) => rejected += 1,
        }
        n += 1;
    }
    let t0 = Instant::now();
    let report = substrate.shutdown();
    let shutdown_ns = t0.elapsed().as_nanos() as f64;
    assert!(report.is_clean(), "service probe: {:?}", report.violations);

    let rt = kind.build(lane_config(WIDTH));
    let overhead_ns: f64 = (0..mix.len())
        .map(|k| {
            let inline = median_ns(budget / 2, || {
                black_box(mix[k].run(rt.as_ref()));
            });
            median(&latency_ns[k]) - inline
        })
        .sum::<f64>()
        / mix.len() as f64;

    out.push((format!("service.overhead_us.{}", kind.name()), overhead_ns / 1e3));
    out.push(("service.submit_ns".into(), median(&submit_ns)));
    out.push(("service.start_shutdown_ms".into(), (start_ns + shutdown_ns) / 1e6));
    out.push(("service.rejected".into(), rejected as f64));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_family_reports_its_metrics_on_one_runtime() {
        let budget = Duration::from_millis(1);
        let mut out = Probes::new();
        team_and_loop_probes(RuntimeKind::Intel, budget, &mut out);
        task_probes(RuntimeKind::Intel, budget, &mut out);
        glt_probes(Backend::Abt, budget, &mut out);
        feb_probe(budget, &mut out);
        service_probes(RuntimeKind::Intel, budget, &mut out);
        out.push(("team.build_ms.intel".into(), build_ms(RuntimeKind::Intel, budget)));
        let defined: Vec<String> = crate::spec::per_layer().into_iter().map(|m| m.name).collect();
        for (name, value) in &out {
            assert!(defined.contains(name), "{name} is not in the spec");
            assert!(value.is_finite(), "{name} = {value}");
        }
        assert_eq!(out.len(), 7 + 2 + 4 + 1 + 4 + 1);
    }
}

//! The four workloads: inputs, serial references, one operation each, and
//! the correctness check applied to every operation.
//!
//! Everything here calls the program's public API only. The traced and
//! untraced passes run the same code; a disabled [`Tracer`] records nothing.

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use glt::{CounterSnapshot, Topology};
use omp::{OmpConfig, OmpRuntime, OmpRuntimeExt, ProcBind, Schedule};
use omp_service::{JobSpec, JobTicket, LeaseMode, ServiceConfig, Substrate, Workload};
use workloads::cg::{self, Csr};
use workloads::clover::{Clover, CloverParams};
use workloads::RuntimeKind;

use crate::spec::{Rng, WorkloadId, SERVICE_TENANTS, SERVICE_WINDOW, WIDTH};
use crate::trace::Tracer;

const STATIC: Schedule = Schedule::Static { chunk: None };

/// Smallest grid on which a width-2 team beats the serial run, so both the
/// kernels and the 120 forks per op are visible.
const CLOVER: CloverParams = CloverParams { nx: 128, ny: 128, steps: 10, schedule: STATIC };
const NESTED_REPEATS: u64 = 5;
const NESTED_OUTER: u64 = 100;
const NESTED_INNER: u64 = 100;
const CG_ITERATIONS: usize = 3;
const CG_GRANULARITY: usize = 10;
const REL_TOL: f64 = 1e-9;

fn rel_close(got: f64, want: f64) -> bool {
    (got - want).abs() <= REL_TOL * want.abs().max(f64::MIN_POSITIVE)
}

/// The runtime configuration of a cell.
pub fn cell_config(workload: WorkloadId, kind: RuntimeKind) -> OmpConfig {
    let width = if kind == RuntimeKind::Serial { 1 } else { WIDTH };
    OmpConfig::with_threads(width).nested(true).wait_policy(workload.wait_policy())
}

/// What the substrate gives a `service_mix` lane (`omp-service`'s
/// `lane_config` for an exclusive lease of a 1x2x1 domain); the inline
/// comparison runs use the same.
pub fn lane_config(width: usize) -> OmpConfig {
    OmpConfig::with_threads(width).topology(Topology::new(1, WIDTH, 1)).proc_bind(ProcBind::True)
}

pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        topology: Topology::new(1, WIDTH, 1),
        max_concurrent: 1,
        queue_cap: 2 * SERVICE_WINDOW,
        lease: LeaseMode::Exclusive,
        det_seed: None,
        tenants: SERVICE_TENANTS,
    }
}

/// One execution of paper Listing 1 with a checksum per inner region.
/// Returns the number of inner regions whose checksum was wrong.
///
/// Listing 1 uses the combined `parallel for` on both levels, whose only
/// barrier is the region's end, hence the `nowait` loops. (A second barrier
/// inside a nested body is also the known help-first self-deadlock of
/// ROADMAP item 6; a workload must not be able to hang.)
fn nested_construct(rt: &dyn OmpRuntime) -> u64 {
    let bad = AtomicU64::new(0);
    rt.parallel(|ctx| {
        ctx.for_each_nowait(0..NESTED_OUTER, STATIC, |i| {
            let sum = AtomicU64::new(0);
            ctx.parallel(|inner| {
                let mut local = 0u64;
                inner.for_each_nowait(0..NESTED_INNER, STATIC, |j| {
                    local += black_box(i * NESTED_INNER + j);
                });
                sum.fetch_add(local, Ordering::Relaxed);
            });
            let want = NESTED_INNER * i * NESTED_INNER + NESTED_INNER * (NESTED_INNER - 1) / 2;
            if sum.into_inner() != want {
                bad.fetch_add(1, Ordering::Relaxed);
            }
        });
    });
    bad.into_inner()
}

/// The seeded `service_mix` job stream: workload kinds in strict rotation
/// (so every window of [`SERVICE_WINDOW`] consecutive jobs holds each kind
/// once and latency has one mode), starting at a seeded phase, with the
/// tenants visited in a freshly seeded order every 64 jobs.
pub struct JobStream {
    rng: Rng,
    mix: [Workload; 4],
    order: Vec<usize>,
    next: usize,
    phase: usize,
}

impl JobStream {
    pub fn new(seed: u64) -> JobStream {
        let mut rng = Rng::new(seed ^ 0x5E2F_1CE0_F00D);
        let phase = (rng.next_u64() % 4) as usize;
        JobStream { rng, mix: Workload::mix(), order: Vec::new(), next: 0, phase }
    }

    /// `(tenant, index into Workload::mix())` of the next job.
    pub fn next_ids(&mut self) -> (usize, usize) {
        let slot = self.next % SERVICE_TENANTS;
        if slot == 0 {
            self.order = (0..SERVICE_TENANTS).collect();
            self.rng.shuffle(&mut self.order);
        }
        let kind = (self.phase + self.next) % self.mix.len();
        self.next += 1;
        (self.order[slot], kind)
    }

    fn next_spec(&mut self, runtime: RuntimeKind) -> JobSpec {
        let (tenant, kind) = self.next_ids();
        JobSpec { tenant, workload: self.mix[kind].clone(), threads: WIDTH, runtime }
    }
}

/// Samples of one measuring call.
#[derive(Debug, Default)]
pub struct Batch {
    pub samples_ns: Vec<f64>,
    pub failed: u64,
}

struct InFlight {
    ticket: JobTicket,
    submit_start: Instant,
    submit_end: Instant,
}

// One value per process, so the size of the largest variant costs nothing.
#[allow(clippy::large_enum_variant)]
enum Kind {
    Clover {
        reference: (f64, f64),
    },
    Nested,
    Cg {
        a: Csr,
        b: Vec<f64>,
        reference_residual: f64,
    },
    /// `service_mix` on a real runtime: closed loop through the substrate.
    Service {
        substrate: Substrate,
        stream: JobStream,
        deltas: CounterSnapshot,
        rejected: u64,
    },
    /// `service_mix` control: the same job stream inline, no substrate.
    ServiceInline {
        stream: JobStream,
    },
}

/// One cell's prepared workload and the single runtime alive in the process.
pub struct Runner {
    kind: Kind,
    runtime: RuntimeKind,
    /// `None` for substrate cells, where the substrate owns the lane.
    rt: Option<Arc<dyn OmpRuntime>>,
}

impl Runner {
    /// Build inputs and serial references, then the runtime under test.
    pub fn prepare(workload: WorkloadId, runtime: RuntimeKind, seed: u64) -> Runner {
        let serial = || omp::SerialRuntime::new(OmpConfig::with_threads(1));
        let kind = match workload {
            WorkloadId::CloverFor => {
                Kind::Clover { reference: workloads::clover::run(&serial(), CLOVER) }
            }
            WorkloadId::NestedNull => Kind::Nested,
            WorkloadId::CgTasks => {
                let a = Csr::bmwcra_shaped(1.0);
                let b = cg::rhs_ones(&a);
                let reference_residual = cg::cg_serial(&a, &b, CG_ITERATIONS, 0.0).residual;
                Kind::Cg { a, b, reference_residual }
            }
            WorkloadId::ServiceMix => {
                // Serial reference digests, once per process.
                for w in Workload::mix() {
                    let _ = w.expected();
                }
                let stream = JobStream::new(seed);
                if runtime == RuntimeKind::Serial {
                    Kind::ServiceInline { stream }
                } else {
                    Kind::Service {
                        substrate: Substrate::start(service_config()),
                        stream,
                        deltas: CounterSnapshot::default(),
                        rejected: 0,
                    }
                }
            }
        };
        let rt = match &kind {
            Kind::Service { .. } => None,
            Kind::ServiceInline { .. } => Some(runtime.build(lane_config(1))),
            _ => Some(runtime.build(cell_config(workload, runtime))),
        };
        Runner { kind, runtime, rt }
    }

    /// Cumulative counters of the work done so far (lane deltas for
    /// substrate cells).
    pub fn counters(&self) -> CounterSnapshot {
        match (&self.kind, &self.rt) {
            (Kind::Service { deltas, .. }, _) => *deltas,
            (_, Some(rt)) => rt.counters().snapshot(),
            (_, None) => CounterSnapshot::default(),
        }
    }

    pub fn rejected(&self) -> u64 {
        match &self.kind {
            Kind::Service { rejected, .. } => *rejected,
            _ => 0,
        }
    }

    /// Run operations until at least `min_ops` have completed and
    /// `min_time` has passed; one latency sample per operation.
    pub fn measure(&mut self, tracer: &mut Tracer, min_ops: usize, min_time: Duration) -> Batch {
        let started = Instant::now();
        let mut batch = Batch::default();
        let more = |b: &Batch| b.samples_ns.len() < min_ops || started.elapsed() < min_time;
        if let Kind::Service { .. } = self.kind {
            self.service_loop(tracer, &mut batch, more);
            return batch;
        }
        while more(&batch) {
            let t0 = Instant::now();
            let ok = tracer.op(|t| self.op(t));
            batch.samples_ns.push(t0.elapsed().as_nanos() as f64);
            batch.failed += u64::from(!ok);
        }
        batch
    }

    /// One operation of an op-at-a-time workload; `true` when its output
    /// matches the serial reference.
    fn op(&mut self, t: &mut Tracer) -> bool {
        let rt = self.rt.as_deref().expect("op-at-a-time cells own a runtime");
        match &mut self.kind {
            Kind::Clover { reference } => {
                // Exactly `workloads::clover::run`, opened up at the
                // boundaries `Clover`'s public API offers.
                let mut c = t.span("clover.init", "workloads::clover", || Clover::new(CLOVER));
                for _ in 0..CLOVER.steps {
                    t.span("clover.step", "workloads::clover", || c.step(rt));
                }
                let (mass, energy) =
                    t.span("clover.summary", "workloads::clover", || c.field_summary(rt));
                rel_close(mass, reference.0) && rel_close(energy, reference.1)
            }
            Kind::Nested => (0..NESTED_REPEATS)
                .map(|_| t.span("nested.construct", "omp", || nested_construct(rt)))
                .all(|bad| bad == 0),
            Kind::Cg { a, b, reference_residual } => {
                let r = t.span("cg.solve", "workloads::cg", || {
                    cg::cg_tasks(rt, a, b, CG_ITERATIONS, 0.0, CG_GRANULARITY)
                });
                r.iterations == CG_ITERATIONS && rel_close(r.residual, *reference_residual)
            }
            Kind::ServiceInline { stream } => {
                // The latency a window-of-four client sees when the
                // service adds nothing: four consecutive jobs back to back.
                (0..SERVICE_WINDOW).all(|_| {
                    let spec = stream.next_spec(RuntimeKind::Serial);
                    let digest =
                        t.span("service.inline_run", "workloads", || spec.workload.run(rt));
                    Some(digest) == spec.workload.expected()
                })
            }
            Kind::Service { .. } => unreachable!("substrate cells run service_loop"),
        }
    }

    /// Closed loop: keep [`SERVICE_WINDOW`] jobs outstanding, wait for the
    /// oldest (one dispatcher, FIFO), resubmit. Sample = submit call start
    /// → completion observed by the generator.
    fn service_loop(
        &mut self,
        tracer: &mut Tracer,
        batch: &mut Batch,
        more: impl Fn(&Batch) -> bool,
    ) {
        let Kind::Service { substrate, stream, deltas, rejected } = &mut self.kind else {
            unreachable!("checked by the caller");
        };
        let runtime = self.runtime;
        let mut window: VecDeque<InFlight> = VecDeque::new();
        loop {
            let filling = more(batch);
            while filling && window.len() < SERVICE_WINDOW {
                let spec = stream.next_spec(runtime);
                let submit_start = Instant::now();
                match substrate.submit(spec) {
                    Ok(ticket) => window.push_back(InFlight {
                        ticket,
                        submit_start,
                        submit_end: Instant::now(),
                    }),
                    Err(_) => {
                        // A refused job is a failed operation with no latency.
                        *rejected += 1;
                        batch.failed += 1;
                        batch.samples_ns.push(submit_start.elapsed().as_nanos() as f64);
                        break;
                    }
                }
            }
            let Some(job) = window.pop_front() else { break };
            let outcome = job.ticket.wait();
            let done = Instant::now();
            tracer.add_op(
                job.submit_start,
                done,
                &[
                    ("service.submit", "omp-service", job.submit_start, job.submit_end),
                    ("service.wait", "omp-service", job.submit_end, done),
                ],
            );
            batch.samples_ns.push((done - job.submit_start).as_nanos() as f64);
            batch.failed += u64::from(!outcome.ok);
            *deltas = deltas.accumulate(&outcome.delta);
        }
    }

    /// Tear the cell down; returns what the end-of-run checks found wrong.
    pub fn finish(self) -> Vec<String> {
        match self.kind {
            Kind::Service { substrate, .. } => {
                let report = substrate.shutdown();
                let mut errors = report.violations.clone();
                errors.extend(report.per_tenant_violations());
                let bad: u64 = report.per_tenant.iter().map(|t| t.jobs_bad).sum();
                if bad > 0 {
                    errors.push(format!("ledger holds {bad} jobs with a wrong digest"));
                }
                errors
            }
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_stream_is_seed_determined_and_rotates_kinds() {
        let ids = |seed| {
            let mut s = JobStream::new(seed);
            (0..200).map(|_| s.next_ids()).collect::<Vec<_>>()
        };
        let a = ids(11);
        assert_eq!(a, ids(11), "same seed, same stream");
        assert!((0..16).any(|s| ids(s) != a), "the seed drives the stream");
        for w in a.windows(SERVICE_WINDOW) {
            let mut kinds: Vec<usize> = w.iter().map(|&(_, k)| k).collect();
            kinds.sort_unstable();
            assert_eq!(kinds, vec![0, 1, 2, 3], "every window holds each kind once");
        }
        for cycle in a.chunks(SERVICE_TENANTS).filter(|c| c.len() == SERVICE_TENANTS) {
            let mut tenants: Vec<usize> = cycle.iter().map(|&(t, _)| t).collect();
            tenants.sort_unstable();
            assert_eq!(tenants, (0..SERVICE_TENANTS).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_workload_passes_its_check_on_the_serial_control() {
        for w in WorkloadId::ALL {
            let mut r = Runner::prepare(w, RuntimeKind::Serial, 3);
            let b = r.measure(&mut Tracer::off(), 2, Duration::ZERO);
            assert_eq!((b.samples_ns.len(), b.failed), (2, 0), "{}", w.name());
            assert!(r.finish().is_empty());
        }
    }

    #[test]
    fn a_wrong_reference_is_counted_as_a_failed_operation() {
        let mut r = Runner::prepare(WorkloadId::CloverFor, RuntimeKind::Serial, 0);
        if let Kind::Clover { reference } = &mut r.kind {
            reference.0 *= 1.0 + 1e-6;
        }
        assert_eq!(r.measure(&mut Tracer::off(), 1, Duration::ZERO).failed, 1);
    }
}

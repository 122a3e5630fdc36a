//! Instrumentation counters.
//!
//! Table II of the paper reports *created threads*, *reused threads*, and
//! *created `GLT_ult`s* per runtime; Table III reports queued-vs-direct task
//! percentages. Every runtime in this reproduction feeds the same counter
//! block so the repro harness can print those tables from live runs.

use std::sync::atomic::{AtomicU64, Ordering};

/// Declares every counter exactly once. Generates [`Counters`] (the atomic
/// block), [`CounterSnapshot`] (its plain-integer copy, same field names and
/// docs) and everything that has to visit all of them: `snapshot`, `reset`,
/// `delta_since`, `accumulate` and the by-name [`CounterSnapshot::iter`].
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident,)+) => {
        /// Monotonic event counters for one runtime instance.
        ///
        /// All counters use relaxed atomics: they are statistics, not
        /// synchronization. Reads may race with writes; totals are exact once the
        /// runtime has quiesced (e.g. after a join or shutdown).
        #[derive(Debug, Default)]
        pub struct Counters {
            $($(#[$doc])* pub $name: AtomicU64,)+
        }

        /// Plain-integer snapshot of [`Counters`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct CounterSnapshot {
            $($(#[$doc])* pub $name: u64,)+
        }

        impl Counters {
            /// Reset every counter to zero (between experiment repetitions).
            pub fn reset(&self) {
                $(self.$name.store(0, Ordering::Relaxed);)+
            }

            /// Snapshot of all counters as plain integers.
            #[must_use]
            pub fn snapshot(&self) -> CounterSnapshot {
                CounterSnapshot { $($name: self.$name.load(Ordering::Relaxed),)+ }
            }
        }

        impl CounterSnapshot {
            /// Every counter as `(field name, value)`, in declaration
            /// order: the one export format exporters, signatures and
            /// law checks select from by name or prefix.
            pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($name), self.$name),)+].into_iter()
            }

            /// A snapshot holding `f(1), f(2), …` in declaration order.
            #[cfg(test)]
            fn numbered(mut f: impl FnMut(u64) -> u64) -> Self {
                let mut i = 0;
                CounterSnapshot {
                    $($name: {
                        i += 1;
                        f(i)
                    },)+
                }
            }

            /// Field-wise difference `self − earlier` (saturating), for scoping a
            /// shared counter block to one interval: the `omp-service` ledger
            /// brackets each tenant job with two snapshots of its lane's block and
            /// charges the tenant with the delta. Counters are monotonic, so on
            /// quiesced brackets the subtraction is exact.
            #[must_use]
            pub fn delta_since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
                CounterSnapshot { $($name: self.$name.saturating_sub(earlier.$name),)+ }
            }

            /// Field-wise sum `self + other` (saturating), for aggregating one
            /// tenant's per-job deltas into a running total.
            #[must_use]
            pub fn accumulate(&self, other: &CounterSnapshot) -> CounterSnapshot {
                CounterSnapshot { $($name: self.$name.saturating_add(other.$name),)+ }
            }
        }
    };
}

counters! {
    /// OS threads created (workers, team members, nested teams…).
    os_threads_created,
    /// OS threads reused from a pool instead of created (Intel hot teams).
    os_threads_reused,
    /// ULTs created.
    ults_created,
    /// ULTs reused instead of created: a parked hot-team member re-armed
    /// with new region work (`GLTO_HOT_ULTS=1`), reported like Intel's
    /// created/reused thread split in Table II.
    ults_reused,
    /// Tasklets created.
    tasklets_created,
    /// Work units executed to completion.
    units_executed,
    /// Successful steals (unit taken from another worker's pool).
    steals,
    /// Successful steals whose victim pool was in the thief's own topology
    /// domain (socket). Every steal is classified: `steals_same_domain +
    /// steals_cross_domain == steals`. Under the default flat (one-domain)
    /// topology all steals are same-domain.
    steals_same_domain,
    /// Successful steals that crossed a domain (socket) boundary. Zero
    /// whenever cross-domain stealing is disabled
    /// (`proc_bind(master|close|spread)`) or only one domain exists.
    steals_cross_domain,
    /// Units that moved across a domain boundary: cross-domain steals plus
    /// cross-domain service-unit forwards, so `steals_cross_domain ≤
    /// domain_migrations`.
    domain_migrations,
    /// Failed steal attempts (victim empty).
    steal_fails,
    /// Units pushed to a worker other than the creator.
    remote_pushes,
    /// Times an idle worker parked its OS thread.
    parks,
    /// Full/empty-bit operations performed (Qthreads-like backend).
    feb_ops,
    /// Explicit tasks created (`#pragma omp task` instances reaching the
    /// runtime). Every created task is either deferred (`tasks_queued`) or
    /// executed undeferred (`tasks_direct`) — the conservation law the
    /// conformance invariant checker asserts.
    tasks_created,
    /// Tasks enqueued through the runtime's deferred path (Table III).
    tasks_queued,
    /// Tasks executed directly/undeferred (cut-off or `final`/`if(0)` path).
    tasks_direct,
    /// Task frames allocated fresh by the slab (free list was empty).
    task_slab_fresh,
    /// Task frames recycled from the slab free list (steady-state path:
    /// no allocation per task).
    task_slab_reused,
    /// GLT unit frames (`UnitState`) allocated fresh by the unit slab.
    unit_slab_fresh,
    /// GLT unit frames recycled from the unit slab free list (steady-state
    /// fork path: no allocation per spawned ULT/tasklet).
    unit_slab_reused,
    /// Deferred tasks carrying at least one `depend` clause (routed through
    /// the dependency resolver before dispatch).
    dep_tasks,
    /// Nanoseconds the master spent in the work-assignment step of region
    /// forks (handing the body to team members), accumulated across
    /// regions — the quantity Fig. 7 of the paper plots.
    assign_ns,
    /// Number of region forks contributing to `assign_ns`.
    forks,
    /// Failed lock-acquisition probes (`omp` lock/critical slow path).
    /// Every probe that does not take the lock counts one spin.
    lock_spins,
    /// Times a lock waiter yielded to its scheduler instead of burning its
    /// worker (the spin-then-yield discipline, ROADMAP item 4). Each yield
    /// is preceded by at least one counted failed probe.
    lock_yields,
    /// MCS direct handoffs: the releaser granted the lock to the queued
    /// head waiter instead of unlocking into a free-for-all.
    lock_handoffs,
    /// FEB stripe operations that took their stripe mutex on the first
    /// attempt (no cross-stripe contention): with striped hot words this
    /// should be the overwhelming majority of `feb_ops`.
    feb_stripe_hits,
    /// Adaptive-runtime exploration forks: region forks the `omp-adaptive`
    /// dispatcher ran while still sampling both mechanisms for a callsite
    /// (the explore phase of its explore/exploit rule).
    adaptive_probes,
    /// Adaptive-runtime commits to the OS-thread (pomp hot-team) mechanism:
    /// one per callsite commit event, including re-commits after a re-probe.
    adaptive_commits_os,
    /// Adaptive-runtime commits to the ULT (GLTO) mechanism, counted like
    /// `adaptive_commits_os`.
    adaptive_commits_ult,
    /// Adaptive-runtime re-probe events: a committed callsite whose fork
    /// count crossed the re-probe period and re-entered the explore phase.
    adaptive_reprobes,
    /// Service-layer jobs dispatched onto a substrate lane (`omp-service`
    /// admission controller). Charged on the substrate's service counter
    /// block, not on any tenant's.
    jobs_admitted,
    /// Service-layer jobs accepted into the FIFO submission queue. Every
    /// queued job is eventually admitted, so once the substrate drains,
    /// `jobs_queued ≤ jobs_admitted + jobs_rejected`.
    jobs_queued,
    /// Service-layer jobs refused at submission (queue at capacity). A
    /// rejected job is never queued and never admitted.
    jobs_rejected,
    /// Cross-domain steals observed inside a tenant's counter delta — work
    /// that escaped the topology domain the substrate leased to the tenant.
    /// Charged onto the tenant lane's block by the post-job audit, so
    /// `tenant_steals_leaked ≤ steals_cross_domain` on any block. Zero for
    /// domain-isolated leases (single-domain lane topology) and whenever a
    /// bound lane's cross-domain gate holds.
    tenant_steals_leaked,
}

impl Counters {
    /// Fresh, all-zero counter block.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to a counter. Convenience for the common `+1` pattern.
    #[inline]
    pub fn bump(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

impl CounterSnapshot {
    /// Percentage of tasks that went through the deferred/queued path,
    /// as reported in Table III. Returns 100.0 when no tasks ran (the
    /// paper's table never reports an empty cell).
    #[must_use]
    pub fn queued_task_percent(&self) -> f64 {
        let total = self.tasks_queued + self.tasks_direct;
        if total == 0 {
            100.0
        } else {
            100.0 * self.tasks_queued as f64 / total as f64
        }
    }

    /// Mean work-assignment time per region fork, in nanoseconds (Fig. 7).
    #[must_use]
    pub fn assign_ns_per_fork(&self) -> f64 {
        if self.forks == 0 {
            0.0
        } else {
            self.assign_ns as f64 / self.forks as f64
        }
    }

    /// A copy of this snapshot with wall-clock-derived fields zeroed, so two
    /// runs of the same deterministic schedule compare equal. `assign_ns`
    /// measures elapsed time; the contention statistics (`lock_spins`,
    /// `lock_yields`, `lock_handoffs`, `feb_stripe_hits`) count probe
    /// outcomes that depend on how long the other side held a mutex, which
    /// OS preemption perturbs even under a token-controlled schedule.
    #[must_use]
    pub fn without_timing(&self) -> CounterSnapshot {
        CounterSnapshot {
            assign_ns: 0,
            lock_spins: 0,
            lock_yields: 0,
            lock_handoffs: 0,
            feb_stripe_hits: 0,
            ..*self
        }
    }

    /// Check the conservation laws that must hold for *any* runtime once it
    /// has quiesced. `drained` means the caller verified no units remain
    /// queued (all joins returned and `queued_len() == 0`); only then do
    /// the `==` forms of the laws apply — mid-flight, creations may exceed
    /// executions.
    ///
    /// Returns one human-readable message per violated law (empty = OK):
    ///
    /// * units: `units_executed ≤ ults_created + tasklets_created`, with
    ///   equality once drained (every created unit runs exactly once);
    /// * steals: `steals ≤ units_executed + tasks_queued` (a steal only
    ///   counts when the thief takes a schedulable unit: a GLT unit — which
    ///   shows up in `units_executed` once run — or a deferred task taken
    ///   from another thread's queue);
    /// * steal locality: `steals_same_domain + steals_cross_domain ==
    ///   steals` (every counted steal is classified against the machine
    ///   topology — same-socket or cross-socket — with pthread task-deque
    ///   steals counting as same-domain);
    /// * migrations: `steals_cross_domain ≤ domain_migrations` (a
    ///   cross-domain steal is one way a unit migrates between domains;
    ///   cross-domain service forwards are the other);
    /// * tasks: `tasks_created == tasks_queued + tasks_direct` (every
    ///   `omp task` is either deferred or executed undeferred);
    /// * slab: `task_slab_fresh + task_slab_reused ≥ tasks_queued` (every
    ///   deferred task occupies a slab frame; undeferred tasks may run
    ///   inline without one);
    /// * unit slab: `unit_slab_fresh + unit_slab_reused ≥ ults_created +
    ///   tasklets_created` (every GLT unit occupies a unit-slab frame; the
    ///   frame counter is bumped before the kind counter, so mid-flight the
    ///   frame total may lead), with equality once drained;
    /// * reuse: `ults_reused > 0 ⇒ ults_created > 0` and
    ///   `unit_slab_reused > 0 ⇒ unit_slab_fresh > 0` (nothing can be
    ///   reused before it was created/allocated at least once);
    /// * deps: `dep_tasks ≤ tasks_created` (a dependent task is still a
    ///   created task);
    /// * forks: `forks > 0 ⇒ assign_ns > 0` (every region fork records its
    ///   work-assignment time);
    /// * lock yields: `lock_yields ≤ lock_spins` (a waiter only yields to
    ///   its scheduler after a counted failed probe);
    /// * lock handoffs: `lock_handoffs ≤ lock_spins` (a handoff grants a
    ///   queued waiter, and a waiter only enqueues after a counted failed
    ///   fast-path probe);
    /// * FEB stripes: `feb_stripe_hits ≤ feb_ops` (a first-attempt stripe
    ///   hit is still one FEB operation);
    /// * adaptive commits: `adaptive_commits_os + adaptive_commits_ult ≤
    ///   adaptive_probes` (every commit is preceded by at least one probe
    ///   fork — the explore budget is clamped to ≥ 1);
    /// * adaptive re-probes: `adaptive_reprobes ≤ adaptive_probes` (a
    ///   re-probe re-opens the explore phase, whose first fork is a probe);
    /// * service queue: once drained, `jobs_queued ≤ jobs_admitted +
    ///   jobs_rejected` (every job accepted into the submission FIFO was
    ///   eventually dispatched; a rejected job never entered the queue, so
    ///   mid-flight the queue may lead admissions but never after drain);
    /// * tenant leaks: `tenant_steals_leaked ≤ steals_cross_domain` (a
    ///   leaked steal is a cross-domain steal that crossed a tenant's lease
    ///   boundary — the audit can never charge more leaks than crossings).
    #[must_use]
    pub fn invariant_violations(&self, drained: bool) -> Vec<String> {
        let mut v = Vec::new();
        let created = self.ults_created + self.tasklets_created;
        if self.units_executed > created {
            v.push(format!(
                "units_executed ({}) > ults_created + tasklets_created ({created}): \
                 some unit ran more than once or was double-counted",
                self.units_executed
            ));
        } else if drained && self.units_executed != created {
            v.push(format!(
                "drained but units_executed ({}) != ults_created + tasklets_created \
                 ({created}): {} unit(s) were created and never executed",
                self.units_executed,
                created - self.units_executed
            ));
        }
        if self.steals > self.units_executed + self.tasks_queued {
            v.push(format!(
                "steals ({}) > units_executed + tasks_queued ({}): counted a steal \
                 that took neither a GLT unit nor a deferred task",
                self.steals,
                self.units_executed + self.tasks_queued
            ));
        }
        if self.steals_same_domain + self.steals_cross_domain != self.steals {
            v.push(format!(
                "steals_same_domain ({}) + steals_cross_domain ({}) != steals ({}): \
                 a steal escaped locality classification (or was double-classified)",
                self.steals_same_domain, self.steals_cross_domain, self.steals
            ));
        }
        if self.steals_cross_domain > self.domain_migrations {
            v.push(format!(
                "steals_cross_domain ({}) > domain_migrations ({}): a cross-domain \
                 steal was not counted as a migration",
                self.steals_cross_domain, self.domain_migrations
            ));
        }
        if self.tasks_created != self.tasks_queued + self.tasks_direct {
            v.push(format!(
                "tasks_created ({}) != tasks_queued ({}) + tasks_direct ({}): \
                 a task was neither deferred nor run undeferred (or double-counted)",
                self.tasks_created, self.tasks_queued, self.tasks_direct
            ));
        }
        let frames = self.task_slab_fresh + self.task_slab_reused;
        if frames < self.tasks_queued {
            v.push(format!(
                "task_slab_fresh + task_slab_reused ({frames}) < tasks_queued ({}): \
                 a deferred task was queued without a slab frame",
                self.tasks_queued
            ));
        }
        let unit_frames = self.unit_slab_fresh + self.unit_slab_reused;
        if unit_frames < created {
            v.push(format!(
                "unit_slab_fresh + unit_slab_reused ({unit_frames}) < ults_created + \
                 tasklets_created ({created}): a GLT unit was created without a \
                 unit-slab frame"
            ));
        } else if drained && unit_frames != created {
            v.push(format!(
                "drained but unit_slab_fresh + unit_slab_reused ({unit_frames}) != \
                 ults_created + tasklets_created ({created}): a unit-slab frame was \
                 acquired and never turned into a unit"
            ));
        }
        if self.ults_reused > 0 && self.ults_created == 0 {
            v.push(format!(
                "ults_reused ({}) > 0 with ults_created == 0: a hot-team member \
                 was reused without ever being created",
                self.ults_reused
            ));
        }
        if self.unit_slab_reused > 0 && self.unit_slab_fresh == 0 {
            v.push(format!(
                "unit_slab_reused ({}) > 0 with unit_slab_fresh == 0: a unit frame \
                 was recycled without ever being allocated",
                self.unit_slab_reused
            ));
        }
        if self.dep_tasks > self.tasks_created {
            v.push(format!(
                "dep_tasks ({}) > tasks_created ({}): a dependent task was \
                 counted without being created",
                self.dep_tasks, self.tasks_created
            ));
        }
        if self.forks > 0 && self.assign_ns == 0 {
            v.push(format!(
                "forks ({}) > 0 but assign_ns == 0: region forks did not record \
                 work-assignment time",
                self.forks
            ));
        }
        if self.lock_yields > self.lock_spins {
            v.push(format!(
                "lock_yields ({}) > lock_spins ({}): a lock waiter yielded to its \
                 scheduler without a counted failed probe",
                self.lock_yields, self.lock_spins
            ));
        }
        if self.lock_handoffs > self.lock_spins {
            v.push(format!(
                "lock_handoffs ({}) > lock_spins ({}): an MCS handoff granted a \
                 waiter that never recorded a failed fast-path probe",
                self.lock_handoffs, self.lock_spins
            ));
        }
        if self.feb_stripe_hits > self.feb_ops {
            v.push(format!(
                "feb_stripe_hits ({}) > feb_ops ({}): a stripe hit was counted \
                 without its FEB operation",
                self.feb_stripe_hits, self.feb_ops
            ));
        }
        let commits = self.adaptive_commits_os + self.adaptive_commits_ult;
        if commits > self.adaptive_probes {
            v.push(format!(
                "adaptive_commits_os + adaptive_commits_ult ({commits}) > \
                 adaptive_probes ({}): a callsite committed a mechanism without \
                 a preceding probe fork",
                self.adaptive_probes
            ));
        }
        if self.adaptive_reprobes > self.adaptive_probes {
            v.push(format!(
                "adaptive_reprobes ({}) > adaptive_probes ({}): a re-probe was \
                 counted without its explore-phase probe fork",
                self.adaptive_reprobes, self.adaptive_probes
            ));
        }
        if drained && self.jobs_queued > self.jobs_admitted + self.jobs_rejected {
            v.push(format!(
                "drained but jobs_queued ({}) > jobs_admitted + jobs_rejected ({}): \
                 a queued job was never dispatched",
                self.jobs_queued,
                self.jobs_admitted + self.jobs_rejected
            ));
        }
        if self.tenant_steals_leaked > self.steals_cross_domain {
            v.push(format!(
                "tenant_steals_leaked ({}) > steals_cross_domain ({}): the lease \
                 audit charged a leak without a cross-domain steal",
                self.tenant_steals_leaked, self.steals_cross_domain
            ));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_and_snapshot() {
        let c = Counters::new();
        Counters::bump(&c.ults_created, 3);
        Counters::bump(&c.steals, 1);
        let s = c.snapshot();
        assert_eq!(s.ults_created, 3);
        assert_eq!(s.steals, 1);
        assert_eq!(s.tasklets_created, 0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let c = Counters::new();
        Counters::bump(&c.feb_ops, 10);
        Counters::bump(&c.parks, 2);
        c.reset();
        assert_eq!(c.snapshot(), CounterSnapshot::default());
    }

    #[test]
    fn assign_ns_per_fork_math() {
        let mut s = CounterSnapshot::default();
        assert_eq!(s.assign_ns_per_fork(), 0.0);
        s.assign_ns = 3000;
        s.forks = 3;
        assert!((s.assign_ns_per_fork() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn queued_percent_math() {
        let mut s = CounterSnapshot::default();
        assert_eq!(s.queued_task_percent(), 100.0);
        s.tasks_queued = 80;
        s.tasks_direct = 20;
        assert!((s.queued_task_percent() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn invariants_hold_on_consistent_snapshot() {
        let s = CounterSnapshot {
            ults_created: 10,
            ults_reused: 4,
            tasklets_created: 2,
            units_executed: 12,
            unit_slab_fresh: 7,
            unit_slab_reused: 5,
            steals: 3,
            steals_same_domain: 2,
            steals_cross_domain: 1,
            domain_migrations: 1,
            tasks_created: 5,
            tasks_queued: 4,
            tasks_direct: 1,
            task_slab_fresh: 3,
            task_slab_reused: 1,
            dep_tasks: 2,
            forks: 2,
            assign_ns: 800,
            ..CounterSnapshot::default()
        };
        assert!(s.invariant_violations(true).is_empty());
        assert!(s.invariant_violations(false).is_empty());
    }

    #[test]
    fn mid_flight_allows_pending_units_but_drained_does_not() {
        let s = CounterSnapshot {
            ults_created: 10,
            units_executed: 7,
            unit_slab_fresh: 10,
            ..CounterSnapshot::default()
        };
        assert!(s.invariant_violations(false).is_empty());
        let v = s.invariant_violations(true);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("never executed"), "got: {}", v[0]);
    }

    #[test]
    fn overexecution_is_always_a_violation() {
        let s =
            CounterSnapshot { ults_created: 1, units_executed: 2, ..CounterSnapshot::default() };
        assert!(!s.invariant_violations(false).is_empty());
        assert!(!s.invariant_violations(true).is_empty());
    }

    #[test]
    fn steal_and_task_conservation_violations_detected() {
        let s = CounterSnapshot {
            ults_created: 4,
            units_executed: 2,
            unit_slab_fresh: 4,
            steals: 4,
            steals_same_domain: 4,
            tasks_created: 3,
            tasks_queued: 1,
            tasks_direct: 1,
            task_slab_fresh: 1,
            ..CounterSnapshot::default()
        };
        let v = s.invariant_violations(false);
        assert_eq!(v.len(), 2, "expected steal + task violations, got: {v:?}");
        assert!(v.iter().any(|m| m.contains("steals")));
        assert!(v.iter().any(|m| m.contains("tasks_created")));
    }

    #[test]
    fn slab_and_dep_conservation_violations_detected() {
        let s = CounterSnapshot {
            tasks_created: 2,
            tasks_queued: 2,
            task_slab_fresh: 1,
            dep_tasks: 3,
            ..CounterSnapshot::default()
        };
        let v = s.invariant_violations(false);
        assert_eq!(v.len(), 2, "expected slab + dep violations, got: {v:?}");
        assert!(v.iter().any(|m| m.contains("slab")));
        assert!(v.iter().any(|m| m.contains("dep_tasks")));
    }

    #[test]
    fn unit_slab_conservation_violations_detected() {
        // A unit created without a slab frame is a violation even mid-flight.
        let s = CounterSnapshot {
            ults_created: 3,
            units_executed: 3,
            unit_slab_fresh: 2,
            ..CounterSnapshot::default()
        };
        let v = s.invariant_violations(false);
        assert_eq!(v.len(), 1, "got: {v:?}");
        assert!(v[0].contains("unit_slab"));
        // Excess frames are fine mid-flight (frame bumped before the kind
        // counter) but not once drained.
        let s = CounterSnapshot {
            ults_created: 3,
            units_executed: 3,
            unit_slab_fresh: 4,
            ..CounterSnapshot::default()
        };
        assert!(s.invariant_violations(false).is_empty());
        let v = s.invariant_violations(true);
        assert_eq!(v.len(), 1, "got: {v:?}");
        assert!(v[0].contains("never turned into a unit"));
    }

    #[test]
    fn reuse_without_creation_detected() {
        let s = CounterSnapshot { ults_reused: 2, ..CounterSnapshot::default() };
        let v = s.invariant_violations(false);
        assert_eq!(v.len(), 1, "got: {v:?}");
        assert!(v[0].contains("ults_reused"));
        let s = CounterSnapshot { unit_slab_reused: 2, ..CounterSnapshot::default() };
        let v = s.invariant_violations(false);
        // reused frames with no fresh ones also violate the ≥-created law's
        // drained sibling only when units exist; here only the reuse law fires.
        assert!(v.iter().any(|m| m.contains("unit_slab_reused")), "got: {v:?}");
    }

    #[test]
    fn steal_locality_conservation_violations_detected() {
        // Unclassified steal: same + cross falls short of the total.
        let s = CounterSnapshot {
            steals: 3,
            steals_same_domain: 1,
            steals_cross_domain: 1,
            domain_migrations: 1,
            units_executed: 3,
            ults_created: 3,
            unit_slab_fresh: 3,
            ..CounterSnapshot::default()
        };
        let v = s.invariant_violations(false);
        assert_eq!(v.len(), 1, "got: {v:?}");
        assert!(v[0].contains("escaped locality classification"));
        // Cross-domain steal not counted as a migration.
        let s = CounterSnapshot {
            steals: 2,
            steals_same_domain: 1,
            steals_cross_domain: 1,
            domain_migrations: 0,
            units_executed: 2,
            ults_created: 2,
            unit_slab_fresh: 2,
            ..CounterSnapshot::default()
        };
        let v = s.invariant_violations(false);
        assert_eq!(v.len(), 1, "got: {v:?}");
        assert!(v[0].contains("not counted as a migration"));
    }

    #[test]
    fn steal_locality_consistent_snapshot_passes() {
        let s = CounterSnapshot {
            steals: 5,
            steals_same_domain: 3,
            steals_cross_domain: 2,
            domain_migrations: 4, // 2 cross steals + 2 cross forwards
            units_executed: 5,
            ults_created: 5,
            unit_slab_fresh: 5,
            ..CounterSnapshot::default()
        };
        assert!(s.invariant_violations(true).is_empty());
    }

    #[test]
    fn fork_without_assign_time_detected() {
        let s = CounterSnapshot { forks: 1, ..CounterSnapshot::default() };
        let v = s.invariant_violations(true);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("assign_ns"));
    }

    #[test]
    fn without_timing_zeroes_only_wall_clock_fields() {
        let s = CounterSnapshot {
            ults_created: 3,
            assign_ns: 12345,
            forks: 2,
            lock_spins: 7,
            lock_yields: 5,
            lock_handoffs: 2,
            feb_stripe_hits: 9,
            ..CounterSnapshot::default()
        };
        let t = s.without_timing();
        assert_eq!(t.assign_ns, 0);
        assert_eq!(t.lock_spins, 0);
        assert_eq!(t.lock_yields, 0);
        assert_eq!(t.lock_handoffs, 0);
        assert_eq!(t.feb_stripe_hits, 0);
        assert_eq!(t.ults_created, 3);
        assert_eq!(t.forks, 2);
    }

    #[test]
    fn contention_counter_violations_detected() {
        // Yields and handoffs both exceed spins; stripe hits exceed feb_ops.
        let s = CounterSnapshot {
            lock_spins: 1,
            lock_yields: 2,
            lock_handoffs: 3,
            feb_ops: 4,
            feb_stripe_hits: 5,
            ..CounterSnapshot::default()
        };
        let v = s.invariant_violations(false);
        assert_eq!(v.len(), 3, "got: {v:?}");
        assert!(v.iter().any(|m| m.contains("lock_yields")));
        assert!(v.iter().any(|m| m.contains("lock_handoffs")));
        assert!(v.iter().any(|m| m.contains("feb_stripe_hits")));
    }

    #[test]
    fn adaptive_counter_violations_detected() {
        // Commits without probes, and re-probes exceeding probes.
        let s = CounterSnapshot {
            adaptive_probes: 1,
            adaptive_commits_os: 1,
            adaptive_commits_ult: 1,
            adaptive_reprobes: 2,
            ..CounterSnapshot::default()
        };
        let v = s.invariant_violations(false);
        assert_eq!(v.len(), 2, "got: {v:?}");
        assert!(v.iter().any(|m| m.contains("adaptive_commits_os")));
        assert!(v.iter().any(|m| m.contains("adaptive_reprobes")));
    }

    #[test]
    fn adaptive_counters_consistent_snapshot_passes() {
        let s = CounterSnapshot {
            adaptive_probes: 8,
            adaptive_commits_os: 2,
            adaptive_commits_ult: 3,
            adaptive_reprobes: 3,
            ..CounterSnapshot::default()
        };
        assert!(s.invariant_violations(true).is_empty());
    }

    #[test]
    fn adaptive_counters_survive_without_timing() {
        // Decisions must compare equal across runs of one det schedule, so
        // the timing filter leaves them alone.
        let s = CounterSnapshot {
            adaptive_probes: 4,
            adaptive_commits_ult: 2,
            adaptive_reprobes: 1,
            ..CounterSnapshot::default()
        };
        let t = s.without_timing();
        assert_eq!(t.adaptive_probes, 4);
        assert_eq!(t.adaptive_commits_ult, 2);
        assert_eq!(t.adaptive_reprobes, 1);
    }

    #[test]
    fn service_counter_violations_detected() {
        // A queued job that was never dispatched is only visible once the
        // substrate drained; mid-flight the queue legitimately leads.
        let s = CounterSnapshot {
            jobs_queued: 3,
            jobs_admitted: 1,
            jobs_rejected: 1,
            ..CounterSnapshot::default()
        };
        assert!(s.invariant_violations(false).is_empty());
        let v = s.invariant_violations(true);
        assert_eq!(v.len(), 1, "got: {v:?}");
        assert!(v[0].contains("never dispatched"));
        // A leak charged without a cross-domain steal is always a violation.
        let s = CounterSnapshot {
            steals: 1,
            steals_same_domain: 1,
            tenant_steals_leaked: 1,
            units_executed: 1,
            ults_created: 1,
            unit_slab_fresh: 1,
            ..CounterSnapshot::default()
        };
        let v = s.invariant_violations(false);
        assert_eq!(v.len(), 1, "got: {v:?}");
        assert!(v[0].contains("tenant_steals_leaked"));
    }

    #[test]
    fn service_counters_consistent_snapshot_passes() {
        let s = CounterSnapshot {
            jobs_queued: 5,
            jobs_admitted: 5,
            jobs_rejected: 2,
            steals: 2,
            steals_same_domain: 1,
            steals_cross_domain: 1,
            domain_migrations: 1,
            tenant_steals_leaked: 1,
            units_executed: 2,
            ults_created: 2,
            unit_slab_fresh: 2,
            ..CounterSnapshot::default()
        };
        assert!(s.invariant_violations(true).is_empty());
    }

    #[test]
    fn counter_table_is_complete() {
        let names: Vec<&str> = CounterSnapshot::default().iter().map(|(n, _)| n).collect();
        assert_eq!(
            names.len() * 8,
            std::mem::size_of::<CounterSnapshot>(),
            "iter() must visit every snapshot field"
        );
        assert_eq!(std::mem::size_of::<Counters>(), std::mem::size_of::<CounterSnapshot>());
        let unique: std::collections::HashSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "counter names must be unique");
        // Names pair with their own field, in declaration order.
        let s = CounterSnapshot::numbered(|i| i);
        assert_eq!(s.iter().next(), Some(("os_threads_created", s.os_threads_created)));
        assert_eq!(s.iter().find(|(n, _)| *n == "steals"), Some(("steals", s.steals)));
        assert_eq!(s.iter().last(), Some(("tenant_steals_leaked", names.len() as u64)));
    }

    #[test]
    fn delta_and_accumulate_round_trip_every_field() {
        let before = CounterSnapshot::numbered(|i| i);
        let after = CounterSnapshot::numbered(|i| 3 * i + 1);
        let d = after.delta_since(&before);
        for (((name, delta), (_, now)), (_, was)) in d.iter().zip(after.iter()).zip(before.iter()) {
            assert_eq!(delta, now - was, "{name}");
        }
        assert_eq!(d.accumulate(&before), after);
        // Deltas of a monotonic block never go negative, sums never wrap.
        assert_eq!(before.delta_since(&after), CounterSnapshot::default());
        let max = CounterSnapshot::numbered(|_| u64::MAX);
        assert_eq!(max.accumulate(&after), max);
    }

    #[test]
    fn contention_counters_consistent_snapshot_passes() {
        let s = CounterSnapshot {
            lock_spins: 10,
            lock_yields: 6,
            lock_handoffs: 3,
            feb_ops: 8,
            feb_stripe_hits: 8,
            ..CounterSnapshot::default()
        };
        assert!(s.invariant_violations(false).is_empty());
    }
}

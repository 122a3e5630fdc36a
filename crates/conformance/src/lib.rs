//! # conformance — cross-runtime conformance harness
//!
//! The paper's Table I argument ("GLTO complies with the evaluated OpenMP
//! constructs") is only as strong as the harness behind it. This crate
//! runs the repository's semantics suites against **all eight** runtimes
//! the stack can execute a region on
//! ([`RuntimeKind::matrix`](workloads::RuntimeKind::matrix)):
//!
//! | runtime      | what it checks                                          |
//! |--------------|---------------------------------------------------------|
//! | `serial`     | the semantics themselves, minus concurrency             |
//! | `gnu`        | pthread runtime, GNU-libgomp-like                       |
//! | `intel`      | pthread runtime, hot teams + task deques                |
//! | `glto-abt`   | GLT backend: private pools, no stealing                 |
//! | `glto-qth`   | GLT backend: shepherds + FEB                            |
//! | `glto-mth`   | GLT backend: work-first deques + stealing               |
//! | `glto-det`   | deterministic seeded stepper (`glt-det`), many seeds    |
//! | `adaptive`   | pomp + GLTO composed, mechanism picked per callsite     |
//!
//! The crate is split by concern:
//!
//! * `cases` — the curated [`cases`] and the planted-bug cases that prove
//!   the seed sweep has teeth.
//! * `laws` — [`run_case`] and the structural verdicts: after [`quiesce`]
//!   every runtime's counters must satisfy the conservation laws of
//!   [`CounterSnapshot::invariant_violations`](glt::CounterSnapshot::invariant_violations), and
//!   the validation suite must score its pinned [`expected_suite_passes`].
//! * `det` — one seeded-schedule harness over a [`DetTarget`] (the plain
//!   `glto-det` runtime or `omp-adaptive` over it): [`run_det`] runs a case
//!   under one seed and decision budget, [`sweep`] runs it across seeds and
//!   prints a replay recipe per failing seed, and [`shrink`] binary-searches
//!   the smallest budget that still fails. [`det_fingerprint`] proves two
//!   runs of one seed take the identical schedule.
//! * `service` — multi-tenant `omp-service` cases.
//! * `planted` (tests under `--features planted`) — a probe and a catching
//!   sweep per fault armed through `glt::planted`, and the proof that an
//!   armed fault stays in the runtime that armed it.
//!
//! See `TESTING.md` at the repository root.

#![warn(missing_docs)]

mod cases;
mod det;
mod laws;
#[cfg(all(test, feature = "planted"))]
mod planted;
mod service;

pub use cases::{adaptive_commit_storm, cases, planted_depend_race, planted_lost_update};
pub use det::{
    assert_caught_replayed_shrunk, det_fingerprint, run_det, seed_stream, seeds_from_env,
    seeds_from_vars, shrink, sweep, DetFingerprint, DetRun, DetTarget, SweepReport,
};
pub use laws::{
    check_counter_invariants, expected_suite_passes, glto_matrix, quiesce, run_case,
    DET_SUITE_PASSES, SERIAL_SUITE_PASSES,
};
pub use service::tenant_accounting;

/// A conformance case: exercises one construct cluster on any runtime and
/// returns `true` on conforming behavior. Cases must signal failure by
/// returning `false` (not by panicking) so failing seeds replay cleanly.
pub type Case = fn(&dyn omp::OmpRuntime) -> bool;

/// Keep the det stall watchdog short in the test binary: one suite entry
/// (`omp flush`'s consumer) legitimately raw-spins without a scheduler
/// entry, and the watchdog is the designed escape hatch. Every test sets
/// the same value, so concurrent setting is benign.
#[cfg(test)]
fn fast_stall() {
    std::env::set_var("GLT_DET_STALL_MS", "750");
}

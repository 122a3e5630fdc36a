//! # omp — a directive-shaped OpenMP programming-model front-end
//!
//! This crate is the Rust analog of "the OpenMP API" for the GLTO
//! reproduction (*GLTO: On the Adequacy of Lightweight Thread Approaches
//! for OpenMP Implementations*, ICPP 2017): the programming surface an
//! application writes against, deliberately separated from the *runtime*
//! that executes it. The same program — written against [`ParCtx`] — runs
//! over:
//!
//! * `pomp::GnuRuntime` — GNU-libgomp-like, POSIX threads;
//! * `pomp::IntelRuntime` — Intel-like, POSIX threads, hot teams, task
//!   deques + stealing + cut-off;
//! * `glto::GltoRuntime` — the paper's contribution, over any GLT backend
//!   (Argobots-, Qthreads-, MassiveThreads-like).
//!
//! That one-binary-many-runtimes property is Fig. 2 of the paper, and the
//! whole evaluation (§VI) consists of timing identical programs across
//! these runtimes.
//!
//! ```
//! use omp::{OmpConfig, OmpRuntimeExt, Schedule};
//! use omp::serial::SerialRuntime;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let rt = SerialRuntime::new(OmpConfig::with_threads(1));
//! let sum = AtomicU64::new(0);
//! rt.parallel(|ctx| {
//!     ctx.for_each(0..10, Schedule::Static { chunk: None }, |i| {
//!         sum.fetch_add(i, Ordering::Relaxed);
//!     });
//! });
//! assert_eq!(sum.into_inner(), 45);
//! ```

#![warn(missing_docs)]

pub mod barrier;
pub mod critical;
pub mod ctx;
pub mod env;
pub mod lock;
pub mod runtime;
pub mod schedule;
pub mod serial;
pub mod taskcore;
pub mod workshare;

pub use barrier::CentralBarrier;
pub use critical::CriticalRegistry;
pub use ctx::{region_epilogue, run_region_member, OrderedScope, ParCtx, TaskFlags};
pub use env::{Icvs, OmpConfig, Places, ProcBind};
pub use lock::{LockKind, OmpLock, OmpNestLock};
pub use runtime::{
    callsite_id, wtime, NestedHandoff, OmpRuntime, OmpRuntimeExt, RegionFn, TaskGroup, TaskMeta,
    TeamOps,
};
pub use schedule::Schedule;
pub use serial::SerialRuntime;
pub use taskcore::{
    Dep, DepKind, DepTable, DirectPolicy, Popped, PushResult, RunnerRef, TaskCore, TaskEngine,
    TaskNode, TaskQueuePolicy, TaskRunner, TaskSlab,
};
pub use workshare::{LoopState, ReduceState, SingleState, WorkshareTable};

//! Test-only fault injection (feature `planted`): one registry through
//! which every planted fault in the stack is armed, per runtime instance.
//!
//! A fault is armed for the calling thread's innermost registered runtime
//! ([`crate::coop::current_runtime_id`]): every thread that runtime
//! registers sees the arm and charges its hits, and no coexisting runtime
//! does. Threads registered with no runtime share one fallback scope. The
//! crate hosting a fault checks [`armed`] (or consumes a one-shot arm with
//! [`disarm`]) at the fault site and [`record`]s each backstop repair.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A fault a crate of the stack can plant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Fault {
    /// `omp::lock`: the next contended MCS release drops its waiter
    /// without granting it; the victim's backstop repairs it (a hit).
    LostWakeup,
    /// `glt-det`: steals drop every victim tier outside the thief's
    /// domain; a backstop performs the steal anyway (a hit).
    CrossStarvation,
    /// `omp-adaptive`: every callsite commit pins the OS engine, ignoring
    /// the seeded draw.
    BadCommit,
    /// `omp-service`: ledger charges route the tenant id through a shared
    /// scratch cell across a scheduling point.
    TenantBleed,
}

/// One runtime instance's fault state, indexed by `Fault as usize`.
#[derive(Default)]
struct Scope {
    armed: [AtomicBool; 4],
    hits: [AtomicU64; 4],
}

/// The calling thread's scope, created on first use.
fn scope() -> Arc<Scope> {
    static REGISTRY: OnceLock<Mutex<HashMap<Option<u64>, Arc<Scope>>>> = OnceLock::new();
    let rid = crate::coop::current_runtime_id();
    let mut reg = REGISTRY.get_or_init(Mutex::default).lock().expect("planted registry poisoned");
    Arc::clone(reg.entry(rid).or_default())
}

/// Arm `fault` for the calling thread's runtime instance.
pub fn arm(fault: Fault) {
    scope().armed[fault as usize].store(true, Ordering::SeqCst);
}

/// Disarm `fault` in the calling thread's scope; `true` if it was armed.
pub fn disarm(fault: Fault) -> bool {
    scope().armed[fault as usize].swap(false, Ordering::SeqCst)
}

/// Whether `fault` is armed in the calling thread's scope.
#[must_use]
pub fn armed(fault: Fault) -> bool {
    scope().armed[fault as usize].load(Ordering::SeqCst)
}

/// Count one firing of `fault` in the calling thread's scope.
pub fn record(fault: Fault) {
    scope().hits[fault as usize].fetch_add(1, Ordering::SeqCst);
}

/// Firings of `fault` recorded so far in the calling thread's scope.
#[must_use]
pub fn hits(fault: Fault) -> u64 {
    scope().hits[fault as usize].load(Ordering::SeqCst)
}

//! Named `critical` sections: a per-runtime registry of named locks
//! (OpenMP critical names have program-wide scope; scoping the registry to
//! the runtime keeps independent runtime instances — as created by the
//! benchmark sweeps — from interfering).
//!
//! Criticals are [`OmpLock`]s, so they inherit the scheduler-aware
//! spin-then-yield slow path (and the optional MCS queue discipline) from
//! the runtime's [`OmpConfig`]: `lock_kind`/`spin_budget`, surfaced as
//! `OMP_LOCK_KIND`/`OMP_SPIN_BUDGET`. A contended critical no longer parks
//! a worker in the kernel — it yields the worker back to its backend's
//! scheduler, which is the whole point of running OpenMP over LWTs.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::env::OmpConfig;
use crate::lock::{LockKind, OmpLock};

/// Registry mapping critical-section names to their locks. The unnamed
/// critical section is the reserved name `""`.
#[derive(Debug)]
pub struct CriticalRegistry {
    kind: LockKind,
    budget: u32,
    locks: Mutex<HashMap<String, Arc<OmpLock>>>,
}

impl Default for CriticalRegistry {
    fn default() -> Self {
        Self::from_config(OmpConfig::process_default())
    }
}

impl CriticalRegistry {
    /// Empty registry (one per runtime instance); lock discipline from the
    /// process default ([`OmpConfig::process_default`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registry honoring an explicit runtime config.
    #[must_use]
    pub fn from_config(cfg: &OmpConfig) -> Self {
        CriticalRegistry {
            kind: cfg.lock_kind,
            budget: cfg.spin_budget,
            locks: Mutex::new(HashMap::new()),
        }
    }

    /// Get (or create) the lock for `name`.
    #[must_use]
    pub fn lock_for(&self, name: &str) -> Arc<OmpLock> {
        let mut m = self.locks.lock();
        match m.get(name) {
            Some(l) => Arc::clone(l),
            None => {
                let l = Arc::new(OmpLock::with_kind(self.kind, self.budget));
                m.insert(name.to_owned(), Arc::clone(&l));
                l
            }
        }
    }

    /// Run `f` inside the named critical section. The slow path is
    /// scheduler-aware for every runtime: bounded spinning, then yields to
    /// the caller's backend scheduler (run-token hand-offs under the
    /// deterministic stepper — see [`glt::coop`]).
    pub fn enter(&self, name: &str, f: &mut dyn FnMut()) {
        let l = self.lock_for(name);
        l.with(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn same_name_same_lock() {
        let r = CriticalRegistry::new();
        let a = r.lock_for("x");
        let b = r.lock_for("x");
        assert!(Arc::ptr_eq(&a, &b));
        let c = r.lock_for("y");
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn enter_is_mutually_exclusive() {
        let r = Arc::new(CriticalRegistry::new());
        let v = Arc::new(AtomicUsize::new(0));
        let mut th = Vec::new();
        for _ in 0..4 {
            let r = r.clone();
            let v = v.clone();
            th.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    r.enter("c", &mut || {
                        let x = v.load(Ordering::Relaxed);
                        v.store(x + 1, Ordering::Relaxed);
                    });
                }
            }));
        }
        for t in th {
            t.join().unwrap();
        }
        assert_eq!(v.load(Ordering::Relaxed), 2000);
    }

    #[test]
    fn different_names_do_not_exclude() {
        // Hold "a" and take "b" on another thread: must not deadlock.
        let r = Arc::new(CriticalRegistry::new());
        let la = r.lock_for("a");
        la.set();
        let r2 = r.clone();
        let t = std::thread::spawn(move || {
            r2.enter("b", &mut || {});
            true
        });
        assert!(t.join().unwrap());
        la.unset();
    }

    #[test]
    fn registry_honors_config_kind() {
        let cfg = OmpConfig::with_threads(2).lock_kind(LockKind::Mcs).spin_budget(3);
        let r = CriticalRegistry::from_config(&cfg);
        assert_eq!(r.lock_for("c").kind(), LockKind::Mcs);
    }
}

//! Full/empty-bit (FEB) word-level synchronization, Qthreads-style.
//!
//! Qthreads associates a *full/empty bit* with every aligned machine word;
//! primitives like `writeEF` ("wait until empty, write, set full") and
//! `readFE` ("wait until full, read, set empty") build locks, futures, and
//! producer/consumer queues out of plain memory addresses. The paper blames
//! GLTO(QTH)'s degradation in UTS and task parallelism on exactly this
//! machinery: "the Qthreads implementation protects all the memory words
//! with mutex regions, adding a noticeable contention when we increase the
//! number of OS threads" (§VI-B).
//!
//! This module implements an FEB table with address-hashed striped locks.
//! Each logical word carries a state (`Full(value)` / `Empty`) plus a
//! waiter list; every operation takes the stripe lock for its address —
//! reproducing the per-word-mutex cost model. The Qthreads-like backend
//! routes its queue operations through [`FebTable::lock`]/[`FebTable::unlock`],
//! and the native UTS driver uses FEBs directly, as the original does.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Condvar, Mutex};

/// Number of lock stripes. Power of two; enough to keep unrelated addresses
/// from false-sharing a stripe at the thread counts we sweep (≤ 72).
const STRIPES: usize = 128;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WordState {
    /// Word holds a value and is "full".
    Full(u64),
    /// Word is "empty" (readers of `readFE`/`readFF` must wait).
    Empty,
}

/// One lock stripe, padded to a cache line: the stripe mutexes are the
/// hot words of the QTH fork/join path (every queue push/pop takes one),
/// and without the alignment adjacent stripes share a line — so two
/// shepherds touching *different* stripes still ping-pong the same cache
/// line, which is false sharing the striping exists to prevent.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Stripe {
    words: Mutex<HashMap<usize, WordState>>,
    cv: Condvar,
}

/// A table of full/empty bits keyed by address-like `usize` keys.
///
/// Keys are arbitrary `usize` values; callers typically pass the address of
/// the datum being protected (`&x as *const _ as usize`).
#[derive(Debug)]
pub struct FebTable {
    stripes: Box<[Stripe]>,
    ops: AtomicU64,
    stripe_hits: AtomicU64,
}

impl Default for FebTable {
    fn default() -> Self {
        Self::new()
    }
}

impl FebTable {
    /// Create an empty FEB table. Words not present in the table are
    /// implicitly **full with value 0**, matching Qthreads' view that
    /// ordinary memory starts full.
    #[must_use]
    pub fn new() -> Self {
        let stripes = (0..STRIPES).map(|_| Stripe::default()).collect::<Vec<_>>();
        FebTable {
            stripes: stripes.into_boxed_slice(),
            ops: AtomicU64::new(0),
            stripe_hits: AtomicU64::new(0),
        }
    }

    /// Total FEB operations performed (contention statistic).
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// FEB operations whose stripe mutex was free on the first attempt
    /// (`ops - stripe_hits` = operations that contended on a stripe).
    /// With padded, well-spread stripes this tracks `ops` closely.
    #[must_use]
    pub fn stripe_hits(&self) -> u64 {
        self.stripe_hits.load(Ordering::Relaxed)
    }

    fn stripe(&self, key: usize) -> &Stripe {
        // Fibonacci hash spreads consecutive addresses across stripes.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.stripes[(h >> (usize::BITS - 7)) % STRIPES]
    }

    fn bump(&self) {
        self.ops.fetch_add(1, Ordering::Relaxed);
        // Mirror into the calling thread's runtime counters so the
        // conformance invariants see FEB traffic without a backend
        // dependency (external threads have no waiter and skip this).
        crate::coop::with_sync_counters(|c| {
            crate::counters::Counters::bump(&c.feb_ops, 1);
        });
    }

    /// Take a stripe's word mutex, counting a `stripe_hit` when the first
    /// attempt succeeds (the striping did its job: no cross-key contention
    /// on this stripe). Only called from `ops`-counting paths, so
    /// `stripe_hits ≤ ops` holds by construction.
    fn guard<'a>(&self, s: &'a Stripe) -> parking_lot::MutexGuard<'a, HashMap<usize, WordState>> {
        if let Some(g) = s.words.try_lock() {
            self.stripe_hits.fetch_add(1, Ordering::Relaxed);
            crate::coop::with_sync_counters(|c| {
                crate::counters::Counters::bump(&c.feb_stripe_hits, 1);
            });
            return g;
        }
        s.words.lock()
    }

    /// Set the word empty without waiting (qthread `empty`).
    pub fn empty(&self, key: usize) {
        self.bump();
        let s = self.stripe(key);
        let mut w = self.guard(s);
        w.insert(key, WordState::Empty);
        s.cv.notify_all();
    }

    /// Set the word full with `val` without waiting (qthread `fill`).
    pub fn fill(&self, key: usize, val: u64) {
        self.bump();
        let s = self.stripe(key);
        let mut w = self.guard(s);
        w.insert(key, WordState::Full(val));
        s.cv.notify_all();
    }

    /// Non-blocking state probe: `Some(value)` if full, `None` if empty.
    #[must_use]
    pub fn peek(&self, key: usize) -> Option<u64> {
        let s = self.stripe(key);
        let w = s.words.lock();
        match w.get(&key).copied().unwrap_or(WordState::Full(0)) {
            WordState::Full(v) => Some(v),
            WordState::Empty => None,
        }
    }

    /// Wait until the word is **empty**, write `val`, mark **full**
    /// (qthread `writeEF`).
    pub fn write_ef(&self, key: usize, val: u64) {
        self.bump();
        let s = self.stripe(key);
        let mut w = self.guard(s);
        loop {
            match w.get(&key).copied().unwrap_or(WordState::Full(0)) {
                WordState::Empty => {
                    w.insert(key, WordState::Full(val));
                    s.cv.notify_all();
                    return;
                }
                WordState::Full(_) => s.cv.wait(&mut w),
            }
        }
    }

    /// Write `val` and mark full regardless of current state
    /// (qthread `writeF`).
    pub fn write_f(&self, key: usize, val: u64) {
        self.fill(key, val);
    }

    /// Wait until the word is **full**, read it, mark **empty**
    /// (qthread `readFE`).
    #[must_use]
    pub fn read_fe(&self, key: usize) -> u64 {
        self.bump();
        let s = self.stripe(key);
        let mut w = self.guard(s);
        loop {
            match w.get(&key).copied().unwrap_or(WordState::Full(0)) {
                WordState::Full(v) => {
                    w.insert(key, WordState::Empty);
                    s.cv.notify_all();
                    return v;
                }
                WordState::Empty => s.cv.wait(&mut w),
            }
        }
    }

    /// Wait until the word is **full** and read it, leaving it full
    /// (qthread `readFF`).
    #[must_use]
    pub fn read_ff(&self, key: usize) -> u64 {
        self.bump();
        let s = self.stripe(key);
        let mut w = self.guard(s);
        loop {
            match w.get(&key).copied().unwrap_or(WordState::Full(0)) {
                WordState::Full(v) => return v,
                WordState::Empty => s.cv.wait(&mut w),
            }
        }
    }

    /// Acquire a word as a mutex (qthread `lock`): wait-full, take, empty.
    ///
    /// Safe against lost wakeups because hold times in this codebase are
    /// short critical sections executed by running OS threads (work units
    /// run to completion; nothing suspends while holding an FEB lock).
    pub fn lock(&self, key: usize) {
        let _ = self.read_fe(key);
    }

    /// Release a word held via [`FebTable::lock`].
    pub fn unlock(&self, key: usize) {
        self.write_ef(key, 0);
    }

    /// Run `f` under the FEB lock for `key` (RAII-style convenience).
    pub fn with_lock<R>(&self, key: usize, f: impl FnOnce() -> R) -> R {
        self.lock(key);
        let out = f();
        self.unlock(key);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn unknown_words_start_full_zero() {
        let t = FebTable::new();
        assert_eq!(t.peek(0xdead), Some(0));
        assert_eq!(t.read_ff(0xdead), 0);
    }

    #[test]
    fn fill_then_read_fe_empties() {
        let t = FebTable::new();
        t.fill(1, 42);
        assert_eq!(t.read_fe(1), 42);
        assert_eq!(t.peek(1), None);
    }

    #[test]
    fn write_ef_requires_empty() {
        let t = FebTable::new();
        t.empty(7);
        t.write_ef(7, 9);
        assert_eq!(t.peek(7), Some(9));
    }

    #[test]
    fn lock_unlock_roundtrip() {
        let t = FebTable::new();
        t.lock(100);
        assert_eq!(t.peek(100), None); // held
        t.unlock(100);
        assert_eq!(t.peek(100), Some(0)); // released
    }

    #[test]
    fn with_lock_mutual_exclusion_across_threads() {
        let t = Arc::new(FebTable::new());
        let counter = Arc::new(Mutex::new(0u64));
        let mut joins = Vec::new();
        for _ in 0..4 {
            let t = t.clone();
            let c = counter.clone();
            joins.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    t.with_lock(0xABCD, || {
                        let mut g = c.lock();
                        *g += 1;
                    });
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(*counter.lock(), 400);
    }

    #[test]
    fn producer_consumer_handoff() {
        let t = Arc::new(FebTable::new());
        t.empty(55);
        let t2 = t.clone();
        let prod = std::thread::spawn(move || {
            for i in 0..50u64 {
                t2.write_ef(55, i);
            }
        });
        let mut seen = Vec::new();
        for _ in 0..50 {
            seen.push(t.read_fe(55));
        }
        prod.join().unwrap();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn ops_counter_increments() {
        let t = FebTable::new();
        let before = t.ops();
        t.fill(1, 1);
        let _ = t.read_fe(1);
        assert!(t.ops() >= before + 2);
    }

    #[test]
    fn stripes_are_cache_line_padded() {
        assert_eq!(std::mem::align_of::<Stripe>(), 64);
        assert_eq!(std::mem::size_of::<Stripe>() % 64, 0);
    }

    #[test]
    fn uncontended_ops_are_all_stripe_hits() {
        let t = FebTable::new();
        for k in 0..64 {
            t.fill(k, k as u64);
            assert_eq!(t.read_fe(k), k as u64);
        }
        assert_eq!(t.stripe_hits(), t.ops(), "single-threaded: every stripe is free");
        assert_eq!(t.ops(), 128);
    }

    #[test]
    fn stripe_hits_never_exceed_ops_under_contention() {
        let t = Arc::new(FebTable::new());
        let mut joins = Vec::new();
        for tid in 0..4usize {
            let t = t.clone();
            joins.push(std::thread::spawn(move || {
                for i in 0..200usize {
                    // All threads hammer a small key set: some stripe
                    // acquisitions must queue behind another thread.
                    t.with_lock(i % 8, || {});
                    let _ = tid;
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert!(t.stripe_hits() <= t.ops());
        assert_eq!(t.ops(), 4 * 200 * 2);
    }

    #[test]
    fn feb_ops_mirror_into_installed_runtime_counters() {
        let c = std::sync::Arc::new(MirrorWaiter(crate::counters::Counters::new()));
        crate::coop::register(u64::MAX - 1, 0, c.clone());
        let t = FebTable::new();
        t.fill(9, 9);
        let _ = t.read_fe(9);
        crate::coop::unregister(u64::MAX - 1);
        let s = c.0.snapshot();
        assert_eq!(s.feb_ops, 2);
        assert_eq!(s.feb_stripe_hits, 2, "uncontended: both ops hit their stripe");
        // After uninstall the table still works, it just stops mirroring.
        t.fill(9, 1);
        assert_eq!(c.0.snapshot().feb_ops, 2);
    }

    struct MirrorWaiter(crate::counters::Counters);
    impl crate::coop::SyncWaiter for MirrorWaiter {
        fn yield_to_scheduler(&self) {}
        fn counters(&self) -> &crate::counters::Counters {
            &self.0
        }
    }
}

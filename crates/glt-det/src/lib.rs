//! # glt-det — deterministic schedule-exploration GLT backend
//!
//! The fourth backend. Unlike `glt-abt`/`glt-qth`/`glt-mth`, which model the
//! scheduling policies of real lightweight-thread libraries, this backend
//! exists to *test* the rest of the stack: it serializes all GLT_threads
//! through a single run token so that exactly one registered thread executes
//! at a time, and the token only changes hands at scheduler entry points
//! (`push` / `pop_own` / `steal`). Every hand-off decision is drawn from a
//! [SplitMix64](https://prng.di.unimi.it/splitmix64.c) stream, so **a u64
//! seed fully determines the interleaving**: same seed → same schedule →
//! same event log, same counters (modulo wall-clock timing), same outcome.
//! A failing seed printed by a test is a complete reproduction recipe.
//!
//! ## How the stepper serializes execution
//!
//! * [`Stepper::acquire`] is the preemption point. A thread entering the
//!   scheduler gives up the token (if it holds it), joins the waiter set,
//!   and blocks until granted. Because every *other* controlled thread is
//!   always blocked inside `acquire`, the waiter set at each grant decision
//!   is exactly the full set of GLT_threads — which is what makes the
//!   seeded choice reproducible.
//! * The first grant is gated on **all** `num_threads` threads having
//!   arrived (a startup barrier); before that, OS spawn timing could make
//!   the waiter set differ between runs.
//! * The token is held *between* scheduler calls: the grantee runs
//!   arbitrary user code until its next `push`/`pop_own`/`steal`.
//! * A thread that must block *outside* the scheduler (OpenMP locks,
//!   `critical`, `ordered` tickets) would deadlock the token, so
//!   [`DetScheduler`] reports itself `schedule_controlled` and those waits
//!   probe/yield through [`glt::coop`], with [`Stepper::acquire`] as the
//!   yield ([`Scheduler::waiter_yield`]).
//! * Shutdown ([`Scheduler::on_shutdown`], called first thing in the
//!   runtime's `Drop`) and a stall watchdog both flip the stepper into
//!   `free_run`, releasing every thread, so a missed cooperative path
//!   degrades to a loud nondeterministic run instead of a silent hang.
//!
//! ## Schedule exploration and shrinking
//!
//! [`DetConfig::max_random_decisions`] caps how many decisions come from
//! the seeded stream; after the cap every choice falls back to the fixed
//! first alternative (lowest-rank grant, LIFO pop, lowest-rank victim).
//! A harness that found a failing seed can binary-search the smallest cap
//! that still fails — shrinking the schedule to a minimal prefix of
//! randomized decisions (see the `conformance` crate).

#![warn(missing_docs)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use glt::{GltConfig, Placement, Runtime, Scheduler, Stolen, Topology, Unit, WaitPolicy};
use parking_lot::{Condvar, Mutex};

/// One SplitMix64 step: advances `state` and returns the next output.
#[must_use]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Configuration of the deterministic stepper.
#[derive(Debug, Clone)]
pub struct DetConfig {
    /// Seed of the decision stream; fully determines the schedule.
    pub seed: u64,
    /// Number of decisions drawn from the seeded stream before falling back
    /// to the fixed first alternative. `u64::MAX` = fully randomized;
    /// smaller values are produced by failing-seed shrinking.
    pub max_random_decisions: u64,
    /// How long a waiter sits before concluding the token holder is blocked
    /// outside the scheduler (a missed cooperative path or lost wakeup).
    /// On expiry the stepper goes `free_run` and records a stall instead of
    /// hanging. Overridable via `GLT_DET_STALL_MS`.
    pub stall_timeout: Duration,
    /// Record the per-decision event log (see [`Event`]).
    pub record_events: bool,
    /// Cap on recorded events (the sequence counter keeps advancing).
    pub max_events: usize,
}

impl Default for DetConfig {
    /// [`DetConfig::from_vars`] over the process environment, printing each
    /// warning to stderr.
    fn default() -> Self {
        let (cfg, warnings) = Self::from_vars(|name| std::env::var(name).ok());
        for w in warnings {
            eprintln!("glt-det: {w}");
        }
        cfg
    }
}

impl DetConfig {
    /// Seed 0, fully randomized, with the stall timeout from
    /// `GLT_DET_STALL_MS` as `lookup` serves it (10000 ms when absent or
    /// malformed; clamped ≥ 1). Returns one warning per malformed knob.
    #[must_use]
    pub fn from_vars(lookup: impl Fn(&str) -> Option<String>) -> (Self, Vec<String>) {
        let mut vars = glt::config::Vars { lookup: &lookup, warnings: Vec::new() };
        let stall_ms: u64 = vars.number("GLT_DET_STALL_MS").unwrap_or(10_000);
        let cfg = DetConfig {
            seed: 0,
            max_random_decisions: u64::MAX,
            stall_timeout: Duration::from_millis(stall_ms.max(1)),
            record_events: true,
            max_events: 1 << 16,
        };
        (cfg, vars.warnings)
    }

    /// Defaults with the given seed.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        DetConfig { seed, ..Self::default() }
    }
}

/// What happened at one point of the serialized schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The run token was handed to thread `to`.
    Grant {
        /// Rank that received the token.
        to: usize,
    },
    /// A unit (identified by its scheduler-local push token) was enqueued.
    Push {
        /// Creating rank (`None` for unregistered/external threads).
        by: Option<usize>,
        /// Pool the unit landed in.
        pool: usize,
        /// Scheduler-local creation sequence number of the unit.
        token: u64,
    },
    /// Thread `by` popped a unit from its own pool.
    Pop {
        /// Popping rank.
        by: usize,
        /// Push token of the unit taken.
        token: u64,
    },
    /// Thread `by` stole a unit from pool `from`.
    Steal {
        /// Thief rank.
        by: usize,
        /// Victim pool index.
        from: usize,
        /// Push token of the unit taken.
        token: u64,
    },
    /// A consumer outside the scheduler (the `omp-adaptive` dispatcher)
    /// drew a seeded decision: `tag` identifies the choice point (the
    /// callsite key) and `pick` is the index drawn. In the log so schedule
    /// fingerprints cover mechanism picks, and replays/shrinks reproduce
    /// them like any pop/steal decision.
    External {
        /// Caller-supplied choice-point identity (adaptive callsite key).
        tag: u64,
        /// Index drawn (0 = the deterministic post-budget fallback).
        pick: usize,
    },
    /// `on_shutdown` released the stepper into free-run mode.
    Shutdown,
    /// The stall watchdog fired: a token holder blocked outside the
    /// scheduler. The run is no longer schedule-controlled after this.
    Stall,
}

/// One entry of the deterministic event log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number (gap-free while under `max_events`).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
}

#[derive(Debug)]
struct StepState {
    /// Ranks currently blocked in `acquire`, kept sorted so the seeded
    /// index choice maps to a deterministic rank.
    waiting: Vec<usize>,
    holder: Option<usize>,
    /// Set once the startup barrier (all threads waiting) has been passed.
    started: bool,
    /// When set, `acquire` is a no-op: threads run under OS scheduling.
    free_run: bool,
    stalled: bool,
    rng: u64,
    decisions: u64,
    /// Post-budget grant rotation (see [`Stepper::grant_choice`]).
    fallback_grants: u64,
    /// Per-tag SplitMix64 streams for [`Stepper::external_decision`] —
    /// separate from `rng` so an external pick is a pure function of
    /// (seed, tag, per-tag draw index), independent of how scheduling
    /// draws interleave with it.
    external_rng: std::collections::HashMap<u64, u64>,
    /// External draws taken so far (budget accounting for external picks).
    external_decisions: u64,
    seq: u64,
    events: Vec<Event>,
}

/// The run-token arbiter: serializes its `n` registered GLT_threads and
/// makes every hand-off decision from the seeded stream.
#[derive(Debug)]
pub struct Stepper {
    n: usize,
    cfg: DetConfig,
    state: Mutex<StepState>,
    cv: Condvar,
}

impl Stepper {
    fn new(n: usize, cfg: DetConfig) -> Self {
        let rng = cfg.seed;
        Stepper {
            n: n.max(1),
            cfg,
            state: Mutex::new(StepState {
                waiting: Vec::new(),
                holder: None,
                started: false,
                free_run: false,
                stalled: false,
                rng,
                decisions: 0,
                fallback_grants: 0,
                external_rng: std::collections::HashMap::new(),
                external_decisions: 0,
                seq: 0,
                events: Vec::new(),
            }),
            cv: Condvar::new(),
        }
    }

    /// Draw one decision among `choices` alternatives. Returns 0 (the fixed
    /// fallback) once the randomized-decision budget is spent — this is the
    /// knob failing-seed shrinking binary-searches.
    fn decide(&self, st: &mut StepState, choices: usize) -> usize {
        if choices <= 1 {
            return 0;
        }
        if st.decisions >= self.cfg.max_random_decisions {
            return 0;
        }
        st.decisions += 1;
        (splitmix64(&mut st.rng) % choices as u64) as usize
    }

    /// The grant decision. Unlike [`Stepper::decide`], the post-budget
    /// fallback is a deterministic round-robin over the waiting set, not
    /// the fixed index 0: always granting the lowest waiting rank starves
    /// any higher rank whose turn the lowest one depends on — a livelock
    /// the watchdog's per-wait timer cannot see, because every grant's
    /// `notify_all` resets it (found by shrinking the planted-lost-update
    /// case: capped budgets hung instead of failing).
    fn grant_choice(&self, st: &mut StepState) -> usize {
        let len = st.waiting.len();
        if len <= 1 {
            return 0;
        }
        if st.decisions >= self.cfg.max_random_decisions {
            st.fallback_grants = st.fallback_grants.wrapping_add(1);
            return (st.fallback_grants % len as u64) as usize;
        }
        st.decisions += 1;
        (splitmix64(&mut st.rng) % len as u64) as usize
    }

    fn record(&self, st: &mut StepState, kind: EventKind) {
        if self.cfg.record_events && st.events.len() < self.cfg.max_events {
            st.events.push(Event { seq: st.seq, kind });
        }
        st.seq += 1;
    }

    fn maybe_grant(&self, st: &mut StepState) {
        if st.free_run || st.holder.is_some() || st.waiting.is_empty() {
            return;
        }
        // Startup barrier: the first decision must see the full thread set,
        // or OS spawn timing would leak into the schedule.
        if !st.started && st.waiting.len() < self.n {
            return;
        }
        st.started = true;
        let i = self.grant_choice(st);
        let to = st.waiting[i];
        st.holder = Some(to);
        self.record(st, EventKind::Grant { to });
        self.cv.notify_all();
    }

    /// The preemption point: give up the token (if held), wait to be
    /// granted it again. Returns immediately in free-run mode.
    pub fn acquire(&self, rank: usize) {
        let mut st = self.state.lock();
        if st.free_run {
            return;
        }
        if st.holder == Some(rank) {
            st.holder = None;
        }
        if let Err(i) = st.waiting.binary_search(&rank) {
            st.waiting.insert(i, rank);
        }
        self.maybe_grant(&mut st);
        // Two stall conditions: a silent wait (`wait_for` runs to its
        // timeout — the holder is blocked outside the scheduler and nobody
        // notifies), and a noisy starvation (this thread is never granted
        // although grants keep arriving for others — each `notify_all`
        // resets the per-wait timer, so only a wall-clock bound across the
        // whole `acquire` can catch it).
        let t0 = std::time::Instant::now();
        let starvation_bound = self.cfg.stall_timeout.saturating_mul(20);
        while st.holder != Some(rank) && !st.free_run {
            let timed_out = self.cv.wait_for(&mut st, self.cfg.stall_timeout).timed_out()
                || t0.elapsed() >= starvation_bound;
            if timed_out && st.holder != Some(rank) && !st.free_run {
                st.free_run = true;
                st.stalled = true;
                self.record(&mut st, EventKind::Stall);
                eprintln!(
                    "glt-det: stall after {:?} — a token holder blocked outside the \
                     scheduler (missed cooperative wait?); releasing all threads. \
                     seed={} decisions={}",
                    self.cfg.stall_timeout, self.cfg.seed, st.decisions
                );
                self.cv.notify_all();
                break;
            }
        }
        if let Ok(i) = st.waiting.binary_search(&rank) {
            st.waiting.remove(i);
        }
    }

    /// Flip into free-run mode, releasing every blocked thread. Called from
    /// `on_shutdown` so runtime teardown can never deadlock on the token.
    pub fn release_all(&self) {
        let mut st = self.state.lock();
        if !st.free_run {
            st.free_run = true;
            self.record(&mut st, EventKind::Shutdown);
        }
        st.holder = None;
        self.cv.notify_all();
    }

    /// Draw one seeded decision among `choices` for a consumer outside the
    /// scheduler (the `omp-adaptive` dispatcher routes its explore-phase
    /// mechanism picks here when running over the det backend). Each `tag`
    /// gets its own SplitMix64 stream derived from the seed, so the pick is
    /// a pure function of (seed, tag, per-tag draw index) — replayable even
    /// though *scheduling* draws race ahead on worker threads between two
    /// external draws. The same randomized-decision budget applies (its own
    /// counter), with the same post-budget fallback (index 0), so a mis-pick
    /// shrinks by binary-searching the budget exactly like a pop/steal
    /// mis-schedule. The draw is recorded as an [`EventKind::External`]
    /// event.
    #[must_use]
    pub fn external_decision(&self, tag: u64, choices: usize) -> usize {
        let mut st = self.state.lock();
        let pick = if choices <= 1 || st.external_decisions >= self.cfg.max_random_decisions {
            0
        } else {
            st.external_decisions += 1;
            let seed = self.cfg.seed;
            let rng = st.external_rng.entry(tag).or_insert_with(|| {
                let mut s = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                // One warm-up step decorrelates nearby tags.
                let _ = splitmix64(&mut s);
                s
            });
            (splitmix64(rng) % choices as u64) as usize
        };
        self.record(&mut st, EventKind::External { tag, pick });
        pick
    }

    /// Whether the stall watchdog fired at any point (the schedule is not
    /// trustworthy as deterministic evidence if it did).
    #[must_use]
    pub fn stalled(&self) -> bool {
        self.state.lock().stalled
    }

    /// Number of randomized decisions drawn so far.
    #[must_use]
    pub fn decisions(&self) -> u64 {
        self.state.lock().decisions
    }

    /// Snapshot of the event log.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.state.lock().events.clone()
    }
}

/// The deterministic scheduler: per-worker pools (collapsed to one in
/// `GLT_SHARED_QUEUES` mode) behind the [`Stepper`] token.
pub struct DetScheduler {
    n: usize,
    shared: bool,
    /// `(push token, unit)` pairs. The token is a scheduler-local creation
    /// sequence number, used to identify units in the event log (global
    /// unit ids would race across unrelated runtimes in one process).
    pools: Vec<Mutex<VecDeque<(u64, Unit)>>>,
    stepper: Arc<Stepper>,
    push_tokens: AtomicU64,
    /// Worker layout for hierarchy-aware victim grouping.
    topo: Topology,
    /// Whether thieves may reach across a domain boundary.
    cross_domain: bool,
    /// Fruitless steal attempts while the planted cross-domain starvation
    /// suppressed remote-only work (drives the liveness backstop).
    #[cfg(feature = "planted")]
    starved_attempts: AtomicU64,
}

impl std::fmt::Debug for DetScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DetScheduler")
            .field("workers", &self.n)
            .field("seed", &self.stepper.cfg.seed)
            .finish()
    }
}

impl DetScheduler {
    /// Build the scheduler for `cfg.num_threads` workers under `det`.
    #[must_use]
    pub fn new(cfg: &GltConfig, det: DetConfig) -> Self {
        let n = cfg.num_threads.max(1);
        let shared = cfg.shared_queues;
        let npools = if shared { 1 } else { n };
        DetScheduler {
            n,
            shared,
            pools: (0..npools).map(|_| Mutex::new(VecDeque::new())).collect(),
            stepper: Arc::new(Stepper::new(n, det)),
            push_tokens: AtomicU64::new(0),
            topo: cfg.resolved_topology(),
            cross_domain: cfg.cross_domain_steal,
            #[cfg(feature = "planted")]
            starved_attempts: AtomicU64::new(0),
        }
    }

    /// The stepper driving this scheduler (tests, harnesses).
    #[must_use]
    pub fn stepper(&self) -> &Arc<Stepper> {
        &self.stepper
    }

    /// Seed this scheduler runs under.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.stepper.cfg.seed
    }

    /// Event-log snapshot (see [`Event`]).
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.stepper.events()
    }

    /// Randomized decisions drawn so far.
    #[must_use]
    pub fn decisions(&self) -> u64 {
        self.stepper.decisions()
    }

    /// Whether the stall watchdog fired.
    #[must_use]
    pub fn stalled(&self) -> bool {
        self.stepper.stalled()
    }

    fn pool_of(&self, creator: Option<usize>, placement: Placement) -> usize {
        if self.shared {
            return 0;
        }
        match placement {
            Placement::To(t) => t % self.n,
            Placement::Local => creator.unwrap_or(0) % self.n,
        }
    }

    fn note(&self, kind: EventKind) {
        let mut st = self.stepper.state.lock();
        self.stepper.record(&mut st, kind);
    }

    /// The planted cross-domain starvation bug: while
    /// `Fault::CrossStarvation` is armed in this runtime's `glt::planted`
    /// scope, drop every victim group outside the thief's domain. When that
    /// leaves a thief with *no* groups although remote work exists, count
    /// the fruitless attempt; after a handful, perform the suppressed steal
    /// anyway (the liveness backstop) and record the rescue as a hit.
    /// Deterministic under the stepper: attempts are counted in schedule
    /// order.
    #[cfg(feature = "planted")]
    fn sabotage_cross_groups(&self, groups: Vec<Vec<usize>>, own_domain: usize) -> Vec<Vec<usize>> {
        use glt::planted::Fault;
        const BACKSTOP_AFTER: u64 = 6;
        if !glt::planted::armed(Fault::CrossStarvation) {
            return groups;
        }
        let (same, cross): (Vec<Vec<usize>>, Vec<Vec<usize>>) =
            groups.into_iter().partition(|g| self.topo.domain_of_rank(g[0]) == own_domain);
        if !same.is_empty() || cross.is_empty() {
            return same; // local work masks the bug; or nothing suppressed
        }
        if self.starved_attempts.fetch_add(1, Ordering::Relaxed) + 1 >= BACKSTOP_AFTER {
            self.starved_attempts.store(0, Ordering::Relaxed);
            glt::planted::record(Fault::CrossStarvation);
            return cross;
        }
        Vec::new()
    }
}

impl Scheduler for DetScheduler {
    fn name(&self) -> &'static str {
        "deterministic"
    }

    fn push(&self, creator: Option<usize>, placement: Placement, unit: Unit) {
        // Preemption point. Unregistered (external) creators bypass the
        // token: they are outside the controlled thread set, and waiting
        // would distort the startup barrier. All scheduler calls in the
        // GLTO stack come from registered GLT_threads.
        if let Some(r) = creator {
            self.stepper.acquire(r);
        }
        let pool = self.pool_of(creator, placement);
        let token = self.push_tokens.fetch_add(1, Ordering::Relaxed);
        self.pools[pool].lock().push_back((token, unit));
        self.note(EventKind::Push { by: creator, pool, token });
    }

    fn push_batch(&self, creator: Option<usize>, units: Vec<(Placement, Unit)>) {
        // One preemption point covers the whole fork: the batch is a single
        // scheduler entry, so the token changes hands at most once per
        // batched fork instead of once per member. Push tokens and events
        // are still minted per unit, in batch order, so the event log stays
        // unit-precise and seed-replayable.
        if let Some(r) = creator {
            self.stepper.acquire(r);
        }
        for (placement, unit) in units {
            let pool = self.pool_of(creator, placement);
            let token = self.push_tokens.fetch_add(1, Ordering::Relaxed);
            self.pools[pool].lock().push_back((token, unit));
            self.note(EventKind::Push { by: creator, pool, token });
        }
    }

    fn pop_own(&self, rank: usize) -> Option<Unit> {
        self.stepper.acquire(rank);
        let pool = if self.shared { 0 } else { rank % self.n };
        let mut st = self.stepper.state.lock();
        let mut q = self.pools[pool].lock();
        if q.is_empty() {
            return None;
        }
        // Seeded LIFO/FIFO choice widens the explored schedule space; the
        // post-budget fallback (0) is LIFO.
        let back = self.stepper.decide(&mut st, 2) == 0;
        let (token, unit) =
            if back { q.pop_back().expect("non-empty") } else { q.pop_front().expect("non-empty") };
        self.stepper.record(&mut st, EventKind::Pop { by: rank, token });
        Some(unit)
    }

    fn steal(&self, thief: usize) -> Option<Stolen> {
        self.stepper.acquire(thief);
        if self.shared || self.n <= 1 {
            return None;
        }
        let mut st = self.stepper.state.lock();
        let own = thief % self.n;
        let own_domain = self.topo.domain_of_rank(own);
        // Victims with work, grouped by distance tier nearest-first. The
        // *domain* choice is itself a seeded schedule decision (which tier
        // to raid), then the victim within the tier is a second decision —
        // so schedule exploration covers both "stayed local" and "went
        // remote" interleavings. Post-budget fallback (index 0 twice) is
        // the nearest group's lowest-rank victim.
        let mut groups: Vec<Vec<usize>> = self
            .topo
            .victim_tiers(own, self.n)
            .into_iter()
            .map(|g| g.into_iter().filter(|&v| !self.pools[v].lock().is_empty()).collect())
            .filter(|g: &Vec<usize>| !g.is_empty())
            .collect();
        if !self.cross_domain {
            groups.retain(|g| self.topo.domain_of_rank(g[0]) == own_domain);
        }
        #[cfg(feature = "planted")]
        let groups = self.sabotage_cross_groups(groups, own_domain);
        if groups.is_empty() {
            return None;
        }
        let group = &groups[self.stepper.decide(&mut st, groups.len())];
        let from = group[self.stepper.decide(&mut st, group.len())];
        // Thieves take the oldest unit (FIFO end), like the real stealing
        // backends.
        let (token, unit) = self.pools[from].lock().pop_front()?;
        self.stepper.record(&mut st, EventKind::Steal { by: thief, from, token });
        Some(Stolen { unit, from_domain: self.topo.domain_of_rank(from) })
    }

    fn can_steal(&self) -> bool {
        true
    }

    fn queued_len(&self) -> usize {
        self.pools.iter().map(|p| p.lock().len()).sum()
    }

    fn on_shutdown(&self) {
        // Registrations outlive this (the runtime removes them when its
        // threads exit), which is harmless post-free_run: `acquire` returns
        // immediately, so cooperative probes degrade to spinning.
        self.stepper.release_all();
    }

    fn shared_queues(&self) -> bool {
        self.shared
    }

    fn waiter_yield(&self, rank: usize) {
        // A blocked lock/barrier waiter hands the run token to another
        // controlled thread — the det analog of yielding to the scheduler.
        // An OS yield would be useless here: every other controlled thread
        // is token-blocked, not runnable.
        self.stepper.acquire(rank);
    }

    fn schedule_controlled(&self) -> bool {
        true
    }
}

/// A GLT runtime over the deterministic backend.
pub type DetRuntime = Runtime<DetScheduler>;

/// Start a deterministic runtime. The wait policy is forced to
/// [`WaitPolicy::Active`]: a parked token holder would block the schedule
/// in the kernel, and with the token serializing execution there is no
/// oversubscription for parking to relieve.
#[must_use]
pub fn start(cfg: GltConfig, det: DetConfig) -> DetRuntime {
    let mut cfg = cfg;
    cfg.wait_policy = WaitPolicy::Active;
    let sched = DetScheduler::new(&cfg, det);
    Runtime::start(cfg, sched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use glt::{CounterSnapshot, GltRuntime};
    use std::sync::atomic::AtomicUsize;

    /// A small fork/join workload with cross-thread placement, returning
    /// the unit-movement event log and counters.
    fn run_workload(threads: usize, seed: u64) -> (Vec<EventKind>, CounterSnapshot, bool) {
        let rt = start(GltConfig::with_threads(threads), DetConfig::with_seed(seed));
        let hits = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for i in 0..12 {
            let h = hits.clone();
            handles.push(if i % 3 == 0 {
                rt.ult_create_to(
                    i % threads,
                    Box::new(move || {
                        h.fetch_add(1, Ordering::SeqCst);
                    }),
                )
            } else {
                rt.ult_create(Box::new(move || {
                    h.fetch_add(1, Ordering::SeqCst);
                }))
            });
        }
        for h in &handles {
            rt.join(h);
        }
        assert_eq!(hits.load(Ordering::SeqCst), 12);
        let stalled = rt.scheduler().stalled();
        let events: Vec<EventKind> = rt
            .scheduler()
            .events()
            .into_iter()
            .map(|e| e.kind)
            .filter(|k| {
                matches!(
                    k,
                    EventKind::Push { .. } | EventKind::Pop { .. } | EventKind::Steal { .. }
                )
            })
            .collect();
        let counters = rt.counters().snapshot();
        drop(rt);
        (events, counters, stalled)
    }

    #[test]
    fn same_seed_same_schedule() {
        for seed in [0u64, 1, 0xDEAD_BEEF] {
            let (e1, c1, s1) = run_workload(3, seed);
            let (e2, c2, s2) = run_workload(3, seed);
            assert!(!s1 && !s2, "no stall expected (seed {seed})");
            assert_eq!(e1, e2, "event log must be identical for seed {seed}");
            assert_eq!(
                c1.without_timing(),
                c2.without_timing(),
                "counters must be identical for seed {seed}"
            );
        }
    }

    #[test]
    fn different_seeds_explore_different_schedules() {
        let logs: Vec<Vec<EventKind>> = (0..8u64).map(|s| run_workload(3, s).0).collect();
        let distinct: std::collections::HashSet<_> =
            logs.iter().map(|l| format!("{l:?}")).collect();
        assert!(
            distinct.len() >= 2,
            "8 seeds must produce at least 2 distinct schedules, got {}",
            distinct.len()
        );
    }

    #[test]
    fn external_decisions_are_seeded_logged_and_budgeted() {
        let draw = |seed, budget| {
            let rt = start(
                GltConfig::with_threads(1),
                DetConfig { seed, max_random_decisions: budget, ..DetConfig::default() },
            );
            let picks: Vec<usize> =
                (0..6).map(|i| rt.scheduler().stepper().external_decision(i, 4)).collect();
            let logged = rt
                .scheduler()
                .events()
                .iter()
                .filter(|e| matches!(e.kind, EventKind::External { .. }))
                .count();
            (picks, logged)
        };
        let (a, la) = draw(42, u64::MAX);
        let (b, lb) = draw(42, u64::MAX);
        assert_eq!(a, b, "same seed, same pick stream");
        assert_eq!((la, lb), (6, 6), "every draw is logged");
        let (c, _) = draw(43, u64::MAX);
        assert_ne!(a, c, "different seed should explore different picks");
        let (d, ld) = draw(42, 0);
        assert_eq!(d, vec![0; 6], "exhausted budget falls back to index 0");
        assert_eq!(ld, 6, "fallback draws are still logged");
    }

    #[test]
    fn wait_policy_is_forced_active() {
        let cfg = GltConfig::with_threads(2).wait_policy(WaitPolicy::Passive);
        let rt = start(cfg, DetConfig::default());
        assert_eq!(rt.config().wait_policy, WaitPolicy::Active);
        assert_eq!(rt.backend_name(), "deterministic");
        assert!(rt.can_steal());
    }

    #[test]
    fn idle_runtime_shuts_down_cleanly() {
        // No work at all: every worker is blocked at the startup barrier /
        // token wait; Drop must release them via on_shutdown.
        let rt = start(GltConfig::with_threads(4), DetConfig::with_seed(7));
        drop(rt);
    }

    #[test]
    fn shared_queue_mode_single_pool() {
        let cfg = GltConfig::with_threads(3).shared_queues(true);
        let rt = start(cfg, DetConfig::with_seed(1));
        let h = rt.ult_create_to(2, Box::new(|| {}));
        rt.join(&h);
        assert!(rt.scheduler().shared_queues());
        drop(rt);
    }

    #[test]
    fn decision_budget_caps_randomness() {
        let det = DetConfig { max_random_decisions: 0, ..DetConfig::with_seed(42) };
        let rt = start(GltConfig::with_threads(2), det);
        let h = rt.ult_create(Box::new(|| {}));
        rt.join(&h);
        assert_eq!(rt.scheduler().decisions(), 0, "budget 0 must draw no random decisions");
        drop(rt);
    }

    #[test]
    fn stall_watchdog_releases_and_reports() {
        // Two controlled threads; the granted one never re-enters the
        // scheduler, so the other's wait must time out, flip free_run, and
        // mark the stepper stalled instead of hanging.
        let det = DetConfig { stall_timeout: Duration::from_millis(50), ..DetConfig::with_seed(3) };
        let stepper = Arc::new(Stepper::new(2, det));
        let s2 = Arc::clone(&stepper);
        let t = std::thread::spawn(move || {
            s2.acquire(1);
            // Whichever of us got the token first: stop cooperating.
        });
        stepper.acquire(0);
        t.join().unwrap();
        // One of the two acquires returned via grant; the other via the
        // watchdog. Either way both returned and the stall is recorded.
        assert!(stepper.stalled());
        assert!(stepper.events().iter().any(|e| e.kind == EventKind::Stall));
        // Post-stall acquires are pass-through.
        stepper.acquire(0);
        stepper.acquire(1);
    }

    #[test]
    fn batched_push_logs_every_unit_in_order() {
        // External (unregistered) creator bypasses the token, so the
        // scheduler can be driven directly without a worker set.
        let s = DetScheduler::new(&GltConfig::with_threads(2), DetConfig::with_seed(5));
        let mk = || glt::Unit(glt::UnitState::new(glt::UnitKind::Ult, 0, Box::new(|| {})));
        s.push_batch(None, (0..4).map(|i| (Placement::To(i % 2), mk())).collect());
        assert_eq!(s.queued_len(), 4);
        let pushes: Vec<u64> = s
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Push { token, .. } => Some(token),
                _ => None,
            })
            .collect();
        assert_eq!(pushes, vec![0, 1, 2, 3], "per-unit Push events minted in batch order");
    }

    #[test]
    fn steal_reports_victim_domain_and_honors_gate() {
        // External creator bypasses the token, so the scheduler is driven
        // directly. 2x4x1 scatter over 4 workers: ranks 0/2 domain 0,
        // ranks 1/3 domain 1.
        let topo = Topology::parse("2x4x1").unwrap();
        let mk = || glt::Unit(glt::UnitState::new(glt::UnitKind::Ult, 0, Box::new(|| {})));
        let s = DetScheduler::new(
            &GltConfig::with_threads(4).topology(topo),
            DetConfig { max_random_decisions: 0, ..DetConfig::with_seed(0) },
        );
        s.stepper().release_all(); // free-run: no worker set to serialize
        s.push(None, Placement::To(2), mk());
        s.push(None, Placement::To(1), mk());
        // Budget 0: fallback picks the nearest tier's lowest victim — the
        // same-domain rank 2 before the cross-domain rank 1.
        let st = s.steal(0).expect("work queued");
        assert_eq!(st.from_domain, 0);
        let st = s.steal(0).expect("cross work remains");
        assert_eq!(st.from_domain, 1);

        let s = DetScheduler::new(
            &GltConfig::with_threads(4).topology(topo).cross_domain_steal(false),
            DetConfig::with_seed(0),
        );
        s.stepper().release_all();
        s.push(None, Placement::To(1), mk());
        assert!(s.steal(0).is_none(), "gate forbids the cross-domain steal");
        assert!(s.steal(3).is_some(), "domain 1 thief may take it");
    }

    #[test]
    fn splitmix_is_deterministic_and_nontrivial() {
        let mut a = 99;
        let mut b = 99;
        let xs: Vec<u64> = (0..4).map(|_| splitmix64(&mut a)).collect();
        let ys: Vec<u64> = (0..4).map(|_| splitmix64(&mut b)).collect();
        assert_eq!(xs, ys);
        assert_eq!(xs.iter().collect::<std::collections::HashSet<_>>().len(), 4);
    }
}

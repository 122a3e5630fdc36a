//! OpenMP internal control variables (ICVs) and their environment surface.
//!
//! The paper's evaluation (§VI-A) pins these explicitly: `OMP_NUM_THREADS`
//! sweeps the x-axis of every figure, `OMP_NESTED=true` so nested regions
//! are *actually* nested, `OMP_PROC_BIND=true` against migration, and
//! `OMP_WAIT_POLICY` active for work-sharing / default for tasking. This
//! module provides the same knobs to every runtime in the reproduction.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

use glt::config::Vars;
use glt::{Topology, WaitPolicy};

use crate::lock::LockKind;
use crate::schedule::Schedule;

/// `OMP_PROC_BIND`: thread-affinity policy for region members.
///
/// The OpenMP 4+ values. `True` is the paper's setting ("OMP_PROC_BIND=true
/// ... against migration", §VI-A): binding requested, placement left to the
/// implementation — which in this reproduction is the legacy round-robin
/// member mapping. The named policies additionally control *where* members
/// land relative to the machine topology and forbid cross-domain work
/// migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcBind {
    /// `false`: no binding; members may migrate anywhere.
    False,
    /// `true`: bind, implementation-defined placement (paper default).
    True,
    /// All members on the master's place (its socket domain).
    Master,
    /// Members packed onto places nearest the master, in rank order.
    Close,
    /// Members spread as evenly as possible over the places.
    Spread,
}

impl ProcBind {
    /// Parse the `OMP_PROC_BIND` spelling (case-insensitive). `1`/`yes`
    /// map to `true`, `0`/`no` to `false`; unknown values yield `None`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "1" | "true" | "yes" => Some(ProcBind::True),
            "0" | "false" | "no" => Some(ProcBind::False),
            "master" | "primary" => Some(ProcBind::Master),
            "close" => Some(ProcBind::Close),
            "spread" => Some(ProcBind::Spread),
            _ => None,
        }
    }

    /// Whether binding was requested at all (`omp_get_proc_bind() != false`).
    #[must_use]
    pub fn is_bound(self) -> bool {
        self != ProcBind::False
    }

    /// Whether a team under this policy tolerates work migrating across a
    /// domain (socket) boundary. The named policies pin members to their
    /// places, so the GLT layer must not steal across sockets beneath them;
    /// `False`/`True` keep the backend's full stealing policy.
    #[must_use]
    pub fn allows_cross_domain(self) -> bool {
        matches!(self, ProcBind::False | ProcBind::True)
    }
}

/// `OMP_PLACES`: the set of places team members may be bound to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Places {
    /// One place per hardware thread (SMT lane).
    Threads,
    /// One place per physical core.
    Cores,
    /// One place per socket.
    Sockets,
    /// An explicit place list: each inner vec is one place's rank set,
    /// e.g. `{0,2},{1,3}`.
    Explicit(Vec<Vec<usize>>),
}

impl Places {
    /// Parse an `OMP_PLACES` spec: an abstract name (`threads`, `cores`,
    /// `sockets`, optionally with a `(n)` count that is validated and
    /// dropped — this runtime always exposes all places), or an explicit
    /// list of `{...}` groups whose entries are ranks or `start:count`
    /// ranges.
    ///
    /// # Errors
    /// A human-readable message naming the malformed part of the spec.
    pub fn parse(s: &str) -> Result<Self, String> {
        let spec = s.trim();
        if spec.is_empty() {
            return Err("empty OMP_PLACES spec".to_string());
        }
        if !spec.starts_with('{') {
            if spec.starts_with(|c: char| c.is_ascii_digit()) {
                return Err(format!(
                    "OMP_PLACES `{spec}`: bare numbers are not a place list — \
                     expected `{{` (e.g. `{{0,1}},{{2,3}}`)"
                ));
            }
            let (name, count) = match spec.find('(') {
                Some(i) => {
                    let close = spec
                        .find(')')
                        .ok_or_else(|| format!("OMP_PLACES `{spec}`: unclosed `(`"))?;
                    if close != spec.len() - 1 {
                        return Err(format!("OMP_PLACES `{spec}`: trailing text after `)`"));
                    }
                    (spec[..i].trim(), Some(spec[i + 1..close].trim()))
                }
                None => (spec, None),
            };
            if let Some(c) = count {
                let n: usize = c.parse().map_err(|_| {
                    format!("OMP_PLACES `{spec}`: count `{c}` is not a positive integer")
                })?;
                if n == 0 {
                    return Err(format!("OMP_PLACES `{spec}`: count must be >= 1"));
                }
            }
            return match name.to_ascii_lowercase().as_str() {
                "threads" => Ok(Places::Threads),
                "cores" => Ok(Places::Cores),
                "sockets" => Ok(Places::Sockets),
                other => Err(format!(
                    "OMP_PLACES `{spec}`: unknown abstract place name `{other}` \
                     (expected threads, cores, sockets, or an explicit {{...}} list)"
                )),
            };
        }
        let mut places = Vec::new();
        for group in split_top_level_groups(spec)? {
            let mut ranks = Vec::new();
            for entry in group.split(',') {
                let entry = entry.trim();
                if entry.is_empty() {
                    return Err(format!("OMP_PLACES `{spec}`: empty entry in `{{{group}}}`"));
                }
                match entry.split_once(':') {
                    Some((start, count)) => {
                        let start: usize = start.trim().parse().map_err(|_| {
                            format!("OMP_PLACES `{spec}`: `{entry}` has a non-numeric start")
                        })?;
                        let count: usize = count.trim().parse().map_err(|_| {
                            format!("OMP_PLACES `{spec}`: `{entry}` has a non-numeric count")
                        })?;
                        if count == 0 {
                            return Err(format!("OMP_PLACES `{spec}`: `{entry}` has a zero count"));
                        }
                        ranks.extend(start..start + count);
                    }
                    None => ranks.push(entry.parse().map_err(|_| {
                        format!("OMP_PLACES `{spec}`: `{entry}` is not a rank number")
                    })?),
                }
            }
            places.push(ranks);
        }
        if places.is_empty() {
            return Err(format!("OMP_PLACES `{spec}`: no places in list"));
        }
        Ok(Places::Explicit(places))
    }

    /// The worker ranks (`< n`) this place set allows team members on, in
    /// place order. Abstract place sets expose every rank (the runtime's
    /// workers *are* its places under the scatter layout); explicit lists
    /// flatten in list order, dropping out-of-range ranks and duplicates.
    /// Falls back to all ranks if the explicit list covers none of them —
    /// a place list that excludes every worker must not empty the team.
    #[must_use]
    pub fn candidate_ranks(&self, n: usize) -> Vec<usize> {
        match self {
            Places::Threads | Places::Cores | Places::Sockets => (0..n).collect(),
            Places::Explicit(groups) => {
                let mut seen = vec![false; n];
                let mut out = Vec::new();
                for r in groups.iter().flatten() {
                    if *r < n && !seen[*r] {
                        seen[*r] = true;
                        out.push(*r);
                    }
                }
                if out.is_empty() {
                    (0..n).collect()
                } else {
                    out
                }
            }
        }
    }
}

/// Split `{a},{b},...` into the inner group strings, validating braces.
fn split_top_level_groups(spec: &str) -> Result<Vec<&str>, String> {
    let mut groups = Vec::new();
    let mut rest = spec.trim();
    while !rest.is_empty() {
        if !rest.starts_with('{') {
            return Err(format!("OMP_PLACES `{spec}`: expected `{{` at `{rest}`"));
        }
        let close = rest.find('}').ok_or_else(|| format!("OMP_PLACES `{spec}`: unclosed `{{`"))?;
        groups.push(&rest[1..close]);
        rest = rest[close + 1..].trim_start();
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim_start();
            if rest.is_empty() {
                return Err(format!("OMP_PLACES `{spec}`: trailing comma"));
            }
        } else if !rest.is_empty() {
            return Err(format!("OMP_PLACES `{spec}`: expected `,` between places at `{rest}`"));
        }
    }
    Ok(groups)
}

/// Immutable startup configuration for an OpenMP runtime instance.
#[derive(Debug, Clone)]
pub struct OmpConfig {
    /// `OMP_NUM_THREADS`: default team size.
    pub num_threads: usize,
    /// `OMP_NESTED`: whether nested regions get real teams.
    pub nested: bool,
    /// `OMP_MAX_ACTIVE_LEVELS` analog (levels beyond it serialize).
    pub max_active_levels: usize,
    /// `OMP_WAIT_POLICY`.
    pub wait_policy: WaitPolicy,
    /// `OMP_PROC_BIND` policy. Affinity is advisory on this container, but
    /// the policy steers member→worker mapping and cross-domain stealing.
    pub proc_bind: ProcBind,
    /// `OMP_PLACES`: place set members may land on (`None` = every rank).
    pub places: Option<Places>,
    /// `GLT_TOPOLOGY`: synthetic machine layout for the GLT layer beneath
    /// (`None` = the flat single-domain default).
    pub topology: Option<Topology>,
    /// `OMP_SCHEDULE`: schedule used by `Schedule::Runtime` loops.
    pub runtime_schedule: Schedule,
    /// `GLT_SHARED_QUEUES` (GLTO runtimes only, §IV-F).
    pub shared_queues: bool,
    /// `GLTO_HOT_ULTS` (GLTO runtimes only): keep top-level team member
    /// ULTs parked between same-width regions instead of re-creating them
    /// per fork. Off by default — the paper's measurements use cold forks.
    pub hot_ults: bool,
    /// Intel-runtime task cut-off: with this many tasks already queued,
    /// new tasks execute directly/undeferred. The paper measures 256 as
    /// the Intel default and sweeps {16, 256, 4096} in Fig. 14.
    pub task_cutoff: usize,
    /// `OMP_LOCK_KIND`: slow-path discipline for `omp_lock_t` and named
    /// criticals (spin / spin-then-yield / MCS queue lock).
    pub lock_kind: LockKind,
    /// `OMP_SPIN_BUDGET`: failed acquire probes before a waiter starts
    /// yielding to the scheduler (also bounds barrier idle spinning).
    pub spin_budget: u32,
    /// `OMP_ADAPTIVE_PROBE_K` (omp-adaptive only): exploration forks per
    /// callsite *per mechanism* before the dispatcher commits to the
    /// cheaper one. Clamped to ≥ 1 so every commit is preceded by at least
    /// one probe (the `probes ≥ commits` conservation law).
    pub adaptive_probe_k: u32,
    /// `OMP_ADAPTIVE_REPROBE` (omp-adaptive only): committed forks at one
    /// callsite before its decision is re-opened for exploration, so phase
    /// changes re-trigger sampling. `0` disables re-probing.
    pub adaptive_reprobe: u32,
    /// `OMP_ADAPTIVE_TRACE` (omp-adaptive only): dump the per-callsite
    /// decision table to stderr when the runtime is dropped.
    pub adaptive_trace: bool,
}

impl Default for OmpConfig {
    fn default() -> Self {
        OmpConfig {
            num_threads: 4,
            nested: true, // paper: OMP_NESTED=true for all tests
            max_active_levels: 8,
            wait_policy: WaitPolicy::Passive,
            proc_bind: ProcBind::True, // paper: OMP_PROC_BIND=true for all tests
            places: None,
            topology: None,
            runtime_schedule: Schedule::Static { chunk: None },
            shared_queues: false,
            hot_ults: false,
            task_cutoff: 256, // paper: Intel default cut-off
            lock_kind: LockKind::SpinYield,
            spin_budget: 100,
            adaptive_probe_k: 2,
            adaptive_reprobe: 1024,
            adaptive_trace: false,
        }
    }
}

impl OmpConfig {
    /// Config with a given team size, defaults elsewhere.
    #[must_use]
    pub fn with_threads(n: usize) -> Self {
        OmpConfig { num_threads: n.max(1), ..Self::default() }
    }

    /// Build a configuration from the knobs `lookup` serves — every
    /// `OMP_*` variable above plus `GLT_TOPOLOGY`, `GLT_SHARED_QUEUES`,
    /// `GLTO_HOT_ULTS` and `KMP_TASK_CUTOFF`. Returns the configuration and
    /// one ``ignoring NAME=`value` `` warning per malformed knob (which
    /// keeps its default); an absent knob keeps its default silently.
    #[must_use]
    pub fn from_vars(lookup: impl Fn(&str) -> Option<String>) -> (Self, Vec<String>) {
        fn known<T>(v: Option<T>, what: &str) -> Result<T, String> {
            v.ok_or_else(|| format!("unknown {what}"))
        }
        let mut vars = Vars { lookup: &lookup, warnings: Vec::new() };
        let d = Self::default();
        let cfg = OmpConfig {
            num_threads: vars.number("OMP_NUM_THREADS").map_or(d.num_threads, |n: usize| n.max(1)),
            nested: vars.flag("OMP_NESTED").unwrap_or(d.nested),
            max_active_levels: vars.number("OMP_MAX_ACTIVE_LEVELS").unwrap_or(d.max_active_levels),
            wait_policy: vars.parsed("OMP_WAIT_POLICY", WaitPolicy::parse).unwrap_or(d.wait_policy),
            proc_bind: vars
                .parsed("OMP_PROC_BIND", |s| known(ProcBind::parse(s), "policy"))
                .unwrap_or(d.proc_bind),
            places: vars.parsed("OMP_PLACES", Places::parse),
            topology: vars.parsed("GLT_TOPOLOGY", Topology::parse),
            runtime_schedule: vars
                .parsed("OMP_SCHEDULE", |s| known(Schedule::parse(s), "kind"))
                .unwrap_or(d.runtime_schedule),
            shared_queues: vars.flag("GLT_SHARED_QUEUES").unwrap_or(d.shared_queues),
            hot_ults: vars.flag("GLTO_HOT_ULTS").unwrap_or(d.hot_ults),
            task_cutoff: vars.number("KMP_TASK_CUTOFF").map_or(d.task_cutoff, |n: usize| n.max(1)),
            lock_kind: vars
                .parsed("OMP_LOCK_KIND", |s| known(LockKind::parse(s), "kind"))
                .unwrap_or(d.lock_kind),
            spin_budget: vars.number("OMP_SPIN_BUDGET").unwrap_or(d.spin_budget),
            adaptive_probe_k: vars
                .number("OMP_ADAPTIVE_PROBE_K")
                .map_or(d.adaptive_probe_k, |k: u32| k.max(1)),
            adaptive_reprobe: vars.number("OMP_ADAPTIVE_REPROBE").unwrap_or(d.adaptive_reprobe),
            adaptive_trace: vars.flag("OMP_ADAPTIVE_TRACE").unwrap_or(d.adaptive_trace),
        };
        (cfg, vars.warnings)
    }

    /// [`OmpConfig::from_vars`] over the process environment, printing each
    /// warning to stderr once.
    #[must_use]
    pub fn from_env() -> Self {
        let (cfg, warnings) = Self::from_vars(|name| std::env::var(name).ok());
        for w in warnings {
            eprintln!("omp: {w}");
        }
        cfg
    }

    /// The process-wide default: the environment parsed once, on first use.
    /// This is what objects created with no runtime config in reach fall
    /// back on (`OmpLock::new()`, harness configs honoring `GLTO_HOT_ULTS`),
    /// so none of them re-reads the environment.
    #[must_use]
    pub fn process_default() -> &'static OmpConfig {
        static DEFAULT: OnceLock<OmpConfig> = OnceLock::new();
        DEFAULT.get_or_init(Self::from_env)
    }

    /// Builder: set nesting.
    #[must_use]
    pub fn nested(mut self, on: bool) -> Self {
        self.nested = on;
        self
    }

    /// Builder: set wait policy.
    #[must_use]
    pub fn wait_policy(mut self, wp: WaitPolicy) -> Self {
        self.wait_policy = wp;
        self
    }

    /// Builder: set Intel-style task cut-off.
    #[must_use]
    pub fn task_cutoff(mut self, n: usize) -> Self {
        self.task_cutoff = n.max(1);
        self
    }

    /// Builder: set shared queues (GLTO backends).
    #[must_use]
    pub fn shared_queues(mut self, on: bool) -> Self {
        self.shared_queues = on;
        self
    }

    /// Builder: set hot ULT teams (GLTO backends).
    #[must_use]
    pub fn hot_ults(mut self, on: bool) -> Self {
        self.hot_ults = on;
        self
    }

    /// Builder: set the lock slow-path kind.
    #[must_use]
    pub fn lock_kind(mut self, k: LockKind) -> Self {
        self.lock_kind = k;
        self
    }

    /// Builder: set the waiter spin budget.
    #[must_use]
    pub fn spin_budget(mut self, n: u32) -> Self {
        self.spin_budget = n;
        self
    }

    /// Builder: set the adaptive explore budget (clamped to ≥ 1).
    #[must_use]
    pub fn adaptive_probe_k(mut self, k: u32) -> Self {
        self.adaptive_probe_k = k.max(1);
        self
    }

    /// Builder: set the adaptive re-probe period (`0` disables).
    #[must_use]
    pub fn adaptive_reprobe(mut self, n: u32) -> Self {
        self.adaptive_reprobe = n;
        self
    }

    /// Builder: enable the per-callsite decision dump on drop.
    #[must_use]
    pub fn adaptive_trace(mut self, on: bool) -> Self {
        self.adaptive_trace = on;
        self
    }

    /// Builder: set the `OMP_PROC_BIND` policy.
    #[must_use]
    pub fn proc_bind(mut self, pb: ProcBind) -> Self {
        self.proc_bind = pb;
        self
    }

    /// Builder: set the `OMP_PLACES` place set.
    #[must_use]
    pub fn places(mut self, p: Places) -> Self {
        self.places = Some(p);
        self
    }

    /// Builder: set a (usually synthetic) machine topology.
    #[must_use]
    pub fn topology(mut self, t: Topology) -> Self {
        self.topology = Some(t);
        self
    }
}

/// Mutable ICVs, adjustable at run time via the `omp_set_*` API analogs
/// (`omp_set_num_threads`, `omp_set_nested`, `omp_set_max_active_levels`).
#[derive(Debug)]
pub struct Icvs {
    nthreads: AtomicUsize,
    nested: AtomicBool,
    max_active_levels: AtomicUsize,
}

impl Icvs {
    /// Initialize from startup config.
    #[must_use]
    pub fn new(cfg: &OmpConfig) -> Self {
        Icvs {
            nthreads: AtomicUsize::new(cfg.num_threads),
            nested: AtomicBool::new(cfg.nested),
            max_active_levels: AtomicUsize::new(cfg.max_active_levels),
        }
    }

    /// `omp_get_max_threads`.
    #[must_use]
    pub fn num_threads(&self) -> usize {
        self.nthreads.load(Ordering::Relaxed)
    }

    /// `omp_set_num_threads`.
    pub fn set_num_threads(&self, n: usize) {
        self.nthreads.store(n.max(1), Ordering::Relaxed);
    }

    /// `omp_get_nested`.
    #[must_use]
    pub fn nested(&self) -> bool {
        self.nested.load(Ordering::Relaxed)
    }

    /// `omp_set_nested`.
    pub fn set_nested(&self, on: bool) {
        self.nested.store(on, Ordering::Relaxed);
    }

    /// `omp_get_max_active_levels`.
    #[must_use]
    pub fn max_active_levels(&self) -> usize {
        self.max_active_levels.load(Ordering::Relaxed)
    }

    /// `omp_set_max_active_levels`.
    pub fn set_max_active_levels(&self, n: usize) {
        self.max_active_levels.store(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = OmpConfig::default();
        assert!(c.nested, "paper sets OMP_NESTED=true");
        assert_eq!(c.proc_bind, ProcBind::True, "paper sets OMP_PROC_BIND=true");
        assert!(c.proc_bind.is_bound());
        assert!(c.proc_bind.allows_cross_domain(), "plain `true` keeps backend stealing");
        assert!(c.places.is_none());
        assert!(c.topology.is_none());
        assert_eq!(c.task_cutoff, 256, "paper: Intel default cut-off is 256");
    }

    #[test]
    fn proc_bind_parses_all_spellings() {
        assert_eq!(ProcBind::parse("TRUE"), Some(ProcBind::True));
        assert_eq!(ProcBind::parse("1"), Some(ProcBind::True));
        assert_eq!(ProcBind::parse("no"), Some(ProcBind::False));
        assert_eq!(ProcBind::parse(" master "), Some(ProcBind::Master));
        assert_eq!(ProcBind::parse("primary"), Some(ProcBind::Master));
        assert_eq!(ProcBind::parse("Close"), Some(ProcBind::Close));
        assert_eq!(ProcBind::parse("SPREAD"), Some(ProcBind::Spread));
        assert_eq!(ProcBind::parse("sideways"), None);
    }

    #[test]
    fn named_bind_policies_forbid_cross_domain_migration() {
        for pb in [ProcBind::Master, ProcBind::Close, ProcBind::Spread] {
            assert!(pb.is_bound());
            assert!(!pb.allows_cross_domain(), "{pb:?} must pin work to its domain");
        }
        assert!(!ProcBind::False.is_bound());
        assert!(ProcBind::False.allows_cross_domain());
    }

    #[test]
    fn places_parses_abstract_names() {
        assert_eq!(Places::parse("threads").unwrap(), Places::Threads);
        assert_eq!(Places::parse(" Cores ").unwrap(), Places::Cores);
        assert_eq!(Places::parse("sockets(2)").unwrap(), Places::Sockets);
        assert_eq!(Places::Threads.candidate_ranks(3), vec![0, 1, 2]);
    }

    #[test]
    fn places_parses_explicit_lists_and_ranges() {
        let p = Places::parse("{0,2},{1,3}").unwrap();
        assert_eq!(p, Places::Explicit(vec![vec![0, 2], vec![1, 3]]));
        assert_eq!(p.candidate_ranks(4), vec![0, 2, 1, 3], "flattened in place order");
        assert_eq!(p.candidate_ranks(2), vec![0, 1], "out-of-range ranks dropped");
        let p = Places::parse("{0:2}, {4:2}").unwrap();
        assert_eq!(p, Places::Explicit(vec![vec![0, 1], vec![4, 5]]));
    }

    #[test]
    fn places_rejects_malformed_specs_with_clear_errors() {
        for (spec, needle) in [
            ("", "empty OMP_PLACES"),
            ("numa", "unknown abstract place name"),
            ("cores(", "unclosed `(`"),
            ("cores(0)", "count must be >= 1"),
            ("cores(x)", "not a positive integer"),
            ("{0,1", "unclosed `{`"),
            ("{0,q}", "not a rank number"),
            ("{0:0}", "zero count"),
            ("{0},", "trailing comma"),
            ("{0}{1}", "expected `,`"),
            ("{0,,1}", "empty entry"),
            ("0,1", "expected `{`"),
        ] {
            let err = Places::parse(spec).unwrap_err();
            assert!(err.contains(needle), "spec `{spec}`: error `{err}` missing `{needle}`");
        }
    }

    #[test]
    fn explicit_places_covering_no_worker_fall_back_to_all() {
        let p = Places::parse("{8,9}").unwrap();
        assert_eq!(p.candidate_ranks(4), vec![0, 1, 2, 3]);
    }

    #[test]
    fn icvs_roundtrip() {
        let icv = Icvs::new(&OmpConfig::with_threads(8));
        assert_eq!(icv.num_threads(), 8);
        icv.set_num_threads(3);
        assert_eq!(icv.num_threads(), 3);
        icv.set_num_threads(0);
        assert_eq!(icv.num_threads(), 1, "clamp to 1 like omp_set_num_threads");
        icv.set_nested(false);
        assert!(!icv.nested());
        icv.set_max_active_levels(2);
        assert_eq!(icv.max_active_levels(), 2);
    }

    #[test]
    fn builders() {
        let c = OmpConfig::with_threads(2)
            .nested(false)
            .task_cutoff(16)
            .shared_queues(true)
            .hot_ults(true)
            .proc_bind(ProcBind::Close)
            .places(Places::Cores)
            .topology(Topology::parse("2x4x2").unwrap());
        assert_eq!(c.num_threads, 2);
        assert!(!c.nested);
        assert_eq!(c.task_cutoff, 16);
        assert!(c.shared_queues);
        assert!(c.hot_ults);
        assert_eq!(c.proc_bind, ProcBind::Close);
        assert_eq!(c.places, Some(Places::Cores));
        assert_eq!(c.topology, Some(Topology::parse("2x4x2").unwrap()));
    }

    #[test]
    fn from_vars_every_knob_valid_malformed_absent() {
        fn dbg(v: impl std::fmt::Debug) -> String {
            format!("{v:?}")
        }
        // knob, valid spelling, malformed spelling, the field it lands in,
        // that field after the valid spelling.
        type Row = (&'static str, &'static str, &'static str, fn(&OmpConfig) -> String, String);
        let table: [Row; 16] = [
            ("OMP_NUM_THREADS", " 0 ", "-3", |c| dbg(c.num_threads), dbg(1)),
            ("OMP_NESTED", "No", "maybe", |c| dbg(c.nested), dbg(false)),
            ("OMP_MAX_ACTIVE_LEVELS", "2", "two", |c| dbg(c.max_active_levels), dbg(2)),
            ("OMP_WAIT_POLICY", "ACTIVE", "busy", |c| dbg(c.wait_policy), dbg(WaitPolicy::Active)),
            ("OMP_PROC_BIND", "spread", "sideways", |c| dbg(c.proc_bind), dbg(ProcBind::Spread)),
            ("OMP_PLACES", "cores(2)", "{0,1", |c| dbg(&c.places), dbg(Some(Places::Cores))),
            (
                "GLT_TOPOLOGY",
                "2x4x2",
                "2xfour",
                |c| dbg(c.topology),
                dbg(Topology::parse("2x4x2").ok()),
            ),
            (
                "OMP_SCHEDULE",
                "dynamic,4",
                "fair",
                |c| dbg(c.runtime_schedule),
                dbg(Schedule::Dynamic { chunk: 4 }),
            ),
            ("GLT_SHARED_QUEUES", "1", "shared", |c| dbg(c.shared_queues), dbg(true)),
            ("GLTO_HOT_ULTS", "true", "hot", |c| dbg(c.hot_ults), dbg(true)),
            ("KMP_TASK_CUTOFF", "0", "4k", |c| dbg(c.task_cutoff), dbg(1)),
            ("OMP_LOCK_KIND", "queue", "ticket", |c| dbg(c.lock_kind), dbg(LockKind::Mcs)),
            ("OMP_SPIN_BUDGET", "0", "lots", |c| dbg(c.spin_budget), dbg(0)),
            ("OMP_ADAPTIVE_PROBE_K", "0", "k", |c| dbg(c.adaptive_probe_k), dbg(1)),
            ("OMP_ADAPTIVE_REPROBE", "0", "never", |c| dbg(c.adaptive_reprobe), dbg(0)),
            ("OMP_ADAPTIVE_TRACE", "yes", "2", |c| dbg(c.adaptive_trace), dbg(true)),
        ];
        for (knob, valid, malformed, field, want) in table {
            let with = |value: Option<&str>| {
                let (c, w) =
                    OmpConfig::from_vars(|k| value.filter(|_| k == knob).map(str::to_owned));
                (field(&c), w)
            };
            let default = field(&OmpConfig::default());
            assert_ne!(want, default, "{knob}: the valid row must move the field");
            assert_eq!(with(Some(valid)), (want, vec![]), "{knob}={valid}");
            assert_eq!(with(None), (default.clone(), vec![]), "{knob} absent");
            let (got, w) = with(Some(malformed));
            assert_eq!((got, w.len()), (default, 1), "{knob}={malformed} keeps the default: {w:?}");
            assert!(w[0].starts_with(&format!("ignoring {knob}=`{malformed}`: ")), "{}", w[0]);
        }
        // Knobs are independent: three malformed values, three warnings.
        let (_, w) = OmpConfig::from_vars(|k| k.starts_with("OMP_ADAPTIVE").then(|| "?".into()));
        assert_eq!(w.len(), 3, "{w:?}");
    }

    #[test]
    fn hot_ults_defaults_off() {
        assert!(!OmpConfig::default().hot_ults, "repro setting: cold forks by default");
    }

    #[test]
    fn lock_defaults_are_spin_yield_with_bounded_budget() {
        let c = OmpConfig::default();
        assert_eq!(c.lock_kind, LockKind::SpinYield);
        assert!(c.spin_budget > 0, "waiters must spin briefly before yielding");
    }

    #[test]
    fn lock_builders() {
        let c = OmpConfig::with_threads(2).lock_kind(LockKind::Mcs).spin_budget(7);
        assert_eq!(c.lock_kind, LockKind::Mcs);
        assert_eq!(c.spin_budget, 7);
    }

    #[test]
    fn adaptive_defaults_and_builders() {
        let c = OmpConfig::default();
        assert!(c.adaptive_probe_k >= 1, "every commit needs a preceding probe");
        assert!(!c.adaptive_trace);
        let c = OmpConfig::with_threads(2)
            .adaptive_probe_k(0) // clamped
            .adaptive_reprobe(64)
            .adaptive_trace(true);
        assert_eq!(c.adaptive_probe_k, 1);
        assert_eq!(c.adaptive_reprobe, 64);
        assert!(c.adaptive_trace);
    }
}

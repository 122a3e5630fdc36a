//! Runtime configuration for a GLT instance.
//!
//! Mirrors the environment-variable surface of the GLT library from the
//! paper: `GLT_NUM_THREADS` selects the number of `GLT_thread`s (OS worker
//! threads, one of which is the calling thread), and `GLT_SHARED_QUEUES`
//! switches every backend to a single shared work queue, which the paper
//! uses to neutralize load imbalance (§IV-F).
//!
//! The environment is read only by `*::from_env` wrappers and runtime
//! constructors. Each config struct has one pure parse,
//! `from_vars(lookup) -> (config, warnings)`, built on the shared [`Vars`]
//! reader: an absent knob keeps its default silently, a malformed one
//! keeps its default and yields exactly one ``ignoring NAME=`value` ``
//! warning.

use std::sync::Arc;
use std::time::Duration;

use crate::counters::Counters;
use crate::topology::Topology;

/// How an idle worker (or a joiner with nothing to help with) waits.
///
/// This is the GLT-level analog of `OMP_WAIT_POLICY`:
/// * [`WaitPolicy::Active`] — bounded spinning with CPU-relax hints and
///   periodic OS yields; lowest wake-up latency, burns a hardware thread.
/// * [`WaitPolicy::Passive`] — short spin, then park the OS thread until a
///   work unit is pushed its way (or a timeout elapses as a lost-wakeup
///   backstop).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaitPolicy {
    /// Spin actively (with `std::hint::spin_loop` and periodic
    /// `std::thread::yield_now`) while waiting.
    Active,
    /// Spin briefly, then park the OS thread until woken.
    Passive,
}

impl WaitPolicy {
    /// Parse the `OMP_WAIT_POLICY` spelling (case-insensitive): `active`,
    /// `passive`, or `default` — the implementation default
    /// [`WaitPolicy::Passive`], the setting the paper uses for task codes.
    ///
    /// # Errors
    /// The accepted spellings, for any other value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "active" => Ok(WaitPolicy::Active),
            "passive" | "default" => Ok(WaitPolicy::Passive),
            _ => Err("expected active|passive|default".to_string()),
        }
    }
}

/// Reader for a set of configuration knobs: looks each name up through the
/// caller's closure (the process environment in `from_env`, a table in
/// tests) and collects one warning per malformed value.
pub struct Vars<'a> {
    /// Where knob values come from.
    pub lookup: &'a dyn Fn(&str) -> Option<String>,
    /// One ``ignoring NAME=`value`: reason`` entry per malformed knob so far.
    pub warnings: Vec<String>,
}

impl Vars<'_> {
    /// The knob `name` run through `parse` (which sees the trimmed value).
    /// `None` when the knob is absent, and when it is malformed — then
    /// `parse`'s reason is also recorded as a warning.
    pub fn parsed<T>(
        &mut self,
        name: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Option<T> {
        let raw = (self.lookup)(name)?;
        match parse(raw.trim()) {
            Ok(v) => Some(v),
            Err(why) => {
                self.warnings.push(format!("ignoring {name}=`{raw}`: {why}"));
                None
            }
        }
    }

    /// An on/off knob: `1|true|yes` or `0|false|no`, case-insensitive.
    pub fn flag(&mut self, name: &str) -> Option<bool> {
        self.parsed(name, |s| match s.to_ascii_lowercase().as_str() {
            "1" | "true" | "yes" => Ok(true),
            "0" | "false" | "no" => Ok(false),
            _ => Err("expected 1|true|yes or 0|false|no".to_string()),
        })
    }

    /// A non-negative integer knob.
    pub fn number<T: std::str::FromStr>(&mut self, name: &str) -> Option<T> {
        self.parsed(name, |s| s.parse().map_err(|_| "not a non-negative integer".to_string()))
    }
}

/// Configuration for one GLT runtime instance.
#[derive(Debug, Clone)]
pub struct GltConfig {
    /// Number of `GLT_thread`s (OS-level workers). The thread that calls
    /// [`crate::Runtime::start`] is registered as rank 0; `num_threads - 1`
    /// additional OS threads are spawned, mirroring the paper's
    /// "GLT_threads ... are created when the library is loaded" (§IV-B).
    pub num_threads: usize,
    /// When `true`, all work units go to (and come from) one shared queue,
    /// regardless of backend. This is the paper's `GLT_SHARED_QUEUES`
    /// load-imbalance escape hatch (§IV-F).
    pub shared_queues: bool,
    /// Idle-wait behaviour for workers and joiners.
    pub wait_policy: WaitPolicy,
    /// Spin iterations before a passive waiter parks.
    pub spin_before_park: u32,
    /// Park timeout used as a lost-wakeup backstop.
    pub park_timeout: Duration,
    /// Machine topology the workers are laid out over (`GLT_TOPOLOGY`).
    /// `None` resolves to the flat single-domain
    /// [`Topology::flat`]`(num_threads)`, which reproduces the pre-topology
    /// flat-ring behaviour byte for byte.
    pub topology: Option<Topology>,
    /// Whether idle workers may steal across domain (socket) boundaries.
    /// The OpenMP layer clears this under `proc_bind(master|close|spread)`
    /// — a bound team must not migrate work off its domain. Same-domain
    /// stealing (and the owner's own pool) stay available, which is enough
    /// for liveness: every unit's home worker eventually runs it.
    pub cross_domain_steal: bool,
    /// Counter block the runtime charges into. `None` (the default) gives
    /// the runtime a private block; a composing runtime (`omp-adaptive`)
    /// passes one shared block so both of its execution engines feed the
    /// same statistics and the conservation laws hold across the pair.
    pub counters: Option<Arc<Counters>>,
}

impl Default for GltConfig {
    fn default() -> Self {
        GltConfig {
            num_threads: 4,
            shared_queues: false,
            wait_policy: WaitPolicy::Passive,
            spin_before_park: 64,
            park_timeout: Duration::from_millis(1),
            topology: None,
            cross_domain_steal: true,
            counters: None,
        }
    }
}

impl GltConfig {
    /// A configuration with `n` workers and defaults elsewhere.
    #[must_use]
    pub fn with_threads(n: usize) -> Self {
        GltConfig { num_threads: n.max(1), ..Self::default() }
    }

    /// Build a configuration from the knobs `lookup` serves, mirroring the
    /// paper's variables: `GLT_NUM_THREADS`, `GLT_SHARED_QUEUES`,
    /// `OMP_WAIT_POLICY` and `GLT_TOPOLOGY`. Returns the configuration and
    /// one warning per malformed knob (which keeps its default).
    #[must_use]
    pub fn from_vars(lookup: impl Fn(&str) -> Option<String>) -> (Self, Vec<String>) {
        let mut vars = Vars { lookup: &lookup, warnings: Vec::new() };
        let d = Self::default();
        let cfg = GltConfig {
            num_threads: vars.number("GLT_NUM_THREADS").map_or(d.num_threads, |n: usize| n.max(1)),
            shared_queues: vars.flag("GLT_SHARED_QUEUES").unwrap_or(d.shared_queues),
            wait_policy: vars.parsed("OMP_WAIT_POLICY", WaitPolicy::parse).unwrap_or(d.wait_policy),
            topology: vars.parsed("GLT_TOPOLOGY", Topology::parse),
            ..d
        };
        (cfg, vars.warnings)
    }

    /// [`GltConfig::from_vars`] over the process environment, printing each
    /// warning to stderr once.
    #[must_use]
    pub fn from_env() -> Self {
        let (cfg, warnings) = Self::from_vars(|name| std::env::var(name).ok());
        for w in warnings {
            eprintln!("glt: {w}");
        }
        cfg
    }

    /// The topology this configuration resolves to: the explicit/synthetic
    /// one if set, else the flat single-domain layout over `num_threads`.
    #[must_use]
    pub fn resolved_topology(&self) -> Topology {
        self.topology.unwrap_or_else(|| Topology::flat(self.num_threads))
    }

    /// Builder-style: set the shared-queues flag.
    #[must_use]
    pub fn shared_queues(mut self, on: bool) -> Self {
        self.shared_queues = on;
        self
    }

    /// Builder-style: set the wait policy.
    #[must_use]
    pub fn wait_policy(mut self, wp: WaitPolicy) -> Self {
        self.wait_policy = wp;
        self
    }

    /// Builder-style: set a (usually synthetic) topology.
    #[must_use]
    pub fn topology(mut self, t: Topology) -> Self {
        self.topology = Some(t);
        self
    }

    /// Builder-style: allow or forbid cross-domain stealing.
    #[must_use]
    pub fn cross_domain_steal(mut self, on: bool) -> Self {
        self.cross_domain_steal = on;
        self
    }

    /// Builder-style: charge this runtime's statistics into a shared
    /// counter block instead of a private one.
    #[must_use]
    pub fn counters(mut self, c: Arc<Counters>) -> Self {
        self.counters = Some(c);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_has_at_least_one_thread() {
        assert!(GltConfig::default().num_threads >= 1);
    }

    #[test]
    fn with_threads_clamps_zero_to_one() {
        assert_eq!(GltConfig::with_threads(0).num_threads, 1);
        assert_eq!(GltConfig::with_threads(7).num_threads, 7);
    }

    #[test]
    fn wait_policy_parses_known_and_unknown() {
        assert_eq!(WaitPolicy::parse("ACTIVE"), Ok(WaitPolicy::Active));
        assert_eq!(WaitPolicy::parse(" active "), Ok(WaitPolicy::Active));
        assert_eq!(WaitPolicy::parse("passive"), Ok(WaitPolicy::Passive));
        assert_eq!(WaitPolicy::parse("default"), Ok(WaitPolicy::Passive));
        assert!(WaitPolicy::parse("").is_err());
        assert!(WaitPolicy::parse("busy").is_err());
    }

    #[test]
    fn from_vars_every_knob_valid_malformed_absent() {
        fn dbg(v: impl std::fmt::Debug) -> String {
            format!("{v:?}")
        }
        // knob, valid spelling, malformed spelling, the field it lands in,
        // that field after the valid spelling.
        type Row = (&'static str, &'static str, &'static str, fn(&GltConfig) -> String, String);
        let table: [Row; 4] = [
            ("GLT_NUM_THREADS", " 0 ", "many", |c| dbg(c.num_threads), dbg(1)),
            ("GLT_SHARED_QUEUES", "YES", "on", |c| dbg(c.shared_queues), dbg(true)),
            ("OMP_WAIT_POLICY", "Active", "busy", |c| dbg(c.wait_policy), dbg(WaitPolicy::Active)),
            ("GLT_TOPOLOGY", "2x4", "2x0", |c| dbg(c.topology), dbg(Some(Topology::new(2, 4, 1)))),
        ];
        for (knob, valid, malformed, field, want) in table {
            let with = |value: Option<&str>| {
                let (c, w) =
                    GltConfig::from_vars(|k| value.filter(|_| k == knob).map(str::to_owned));
                (field(&c), w)
            };
            let default = field(&GltConfig::default());
            assert_ne!(want, default, "{knob}: the valid row must move the field");
            assert_eq!(with(Some(valid)), (want, vec![]), "{knob}={valid}");
            assert_eq!(with(None), (default.clone(), vec![]), "{knob} absent");
            let (got, w) = with(Some(malformed));
            assert_eq!((got, w.len()), (default, 1), "{knob}={malformed} keeps the default: {w:?}");
            assert!(w[0].starts_with(&format!("ignoring {knob}=`{malformed}`: ")), "{}", w[0]);
        }
    }

    #[test]
    fn builders_compose() {
        let c = GltConfig::with_threads(3).shared_queues(true).wait_policy(WaitPolicy::Active);
        assert_eq!(c.num_threads, 3);
        assert!(c.shared_queues);
        assert_eq!(c.wait_policy, WaitPolicy::Active);
    }

    #[test]
    fn topology_defaults_to_flat_single_domain() {
        let c = GltConfig::with_threads(6);
        assert!(c.topology.is_none());
        assert!(c.cross_domain_steal);
        let t = c.resolved_topology();
        assert_eq!(t, Topology::flat(6));
        assert_eq!(t.num_domains(), 1);
    }

    #[test]
    fn topology_builder_overrides_flat_resolution() {
        let t = Topology::parse("2x4x2").unwrap();
        let c = GltConfig::with_threads(8).topology(t).cross_domain_steal(false);
        assert_eq!(c.resolved_topology(), t);
        assert!(!c.cross_domain_steal);
    }
}

//! Machine-topology model: sockets → cores → SMT lanes.
//!
//! The paper's machine is a 36-core dual-socket Xeon; this container is
//! usually one core. To exercise multi-domain scheduling logic anyway, a
//! [`Topology`] is *synthesizable*: `GLT_TOPOLOGY=2x4x2` describes two
//! sockets of four cores with two SMT lanes each, regardless of what the
//! host actually has. When no synthetic spec is given, the host is probed
//! (`available_parallelism`, reported as one socket — `/sys` topology files
//! are absent in most containers and a wrong guess would silently change
//! scheduling, so detection stays deliberately conservative).
//!
//! ## Domains and the scatter rank layout
//!
//! The *steal domain* is the socket: stealing within a socket hits shared
//! cache, stealing across sockets crosses the interconnect. GLT_thread
//! ranks are laid out **scatter** (round-robin) over sockets:
//!
//! ```text
//! domain_of_rank(r) = r % sockets
//! ```
//!
//! so even a 2-worker runtime under a 2-socket synthetic topology spans
//! both domains, and the legacy `tid % nthreads` member mapping of
//! `glto::team` is exactly a *spread* placement. With one socket (the
//! default), every rank is in domain 0 and all topology-aware paths
//! degenerate to the old flat-ring behaviour.
//!
//! Distance between two ranks is tiered, never measured: `0` = same rank,
//! `1` = SMT sibling (same socket and core), `2` = same socket, `3` =
//! cross-socket. Hierarchy-aware stealing walks victims outward by tier.

use std::fmt;

/// A machine topology: `sockets` × `cores` (per socket) × `smt` (lanes per
/// core). All three are at least 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    sockets: usize,
    cores: usize,
    smt: usize,
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.sockets, self.cores, self.smt)
    }
}

impl Topology {
    /// A topology with the given shape (each clamped to ≥ 1).
    #[must_use]
    pub fn new(sockets: usize, cores: usize, smt: usize) -> Self {
        Topology { sockets: sockets.max(1), cores: cores.max(1), smt: smt.max(1) }
    }

    /// The flat (single-domain) topology: one socket of `n` cores. This is
    /// what an unconfigured runtime uses, and it reproduces the pre-topology
    /// flat-ring behaviour exactly.
    #[must_use]
    pub fn flat(n: usize) -> Self {
        Topology::new(1, n.max(1), 1)
    }

    /// Parse a `SxCxT` spec like `2x4x2` (sockets × cores/socket ×
    /// SMT/core). `S` or `SxC` are accepted with the missing trailing
    /// dimensions defaulting to 1.
    ///
    /// # Errors
    /// A human-readable message naming the offending part of the spec.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Err("empty topology spec (expected e.g. `2x4x2`)".to_string());
        }
        let parts: Vec<&str> = spec.split(['x', 'X']).collect();
        if parts.len() > 3 {
            return Err(format!(
                "topology spec `{spec}` has {} dimensions, expected at most 3 (SxCxT)",
                parts.len()
            ));
        }
        let mut dims = [1usize; 3];
        for (i, part) in parts.iter().enumerate() {
            let v: usize = part.trim().parse().map_err(|_| {
                format!("topology spec `{spec}`: `{part}` is not a positive integer")
            })?;
            if v == 0 {
                return Err(format!("topology spec `{spec}`: dimensions must be >= 1"));
            }
            dims[i] = v;
        }
        Ok(Topology::new(dims[0], dims[1], dims[2]))
    }

    /// The topology named by `GLT_TOPOLOGY` in the process environment, if
    /// any. Malformed specs are reported on stderr and ignored (an env
    /// typo must not change scheduling *silently*, but also must not abort
    /// a run that never asked for topology awareness).
    #[must_use]
    pub fn from_env() -> Option<Self> {
        let lookup = |name: &str| std::env::var(name).ok();
        let mut vars = crate::config::Vars { lookup: &lookup, warnings: Vec::new() };
        let topo = vars.parsed("GLT_TOPOLOGY", Self::parse);
        for w in vars.warnings {
            eprintln!("glt: {w}");
        }
        topo
    }

    /// Best-effort host detection: one socket of `available_parallelism`
    /// cores. Containers rarely expose `/sys` socket layout, so detection
    /// never invents domains — synthetic specs (`GLT_TOPOLOGY`) are the
    /// supported way to get more than one.
    #[must_use]
    pub fn detect() -> Self {
        let n = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Topology::flat(n)
    }

    /// Socket count.
    #[must_use]
    pub fn sockets(&self) -> usize {
        self.sockets
    }

    /// Cores per socket.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// SMT lanes per core.
    #[must_use]
    pub fn smt(&self) -> usize {
        self.smt
    }

    /// Hardware places (ranks) the topology describes.
    #[must_use]
    pub fn num_places(&self) -> usize {
        self.sockets * self.cores * self.smt
    }

    /// Number of steal domains (= sockets).
    #[must_use]
    pub fn num_domains(&self) -> usize {
        self.sockets
    }

    /// Steal domain of a worker rank (scatter layout: `r % sockets`).
    #[must_use]
    pub fn domain_of_rank(&self, rank: usize) -> usize {
        rank % self.sockets
    }

    /// Core (within its socket) a rank maps to under the scatter layout.
    #[must_use]
    pub fn core_of_rank(&self, rank: usize) -> usize {
        (rank / self.sockets) % self.cores
    }

    /// Distance tier between two ranks: `0` same rank, `1` SMT sibling
    /// (same socket + core), `2` same socket, `3` cross-socket.
    #[must_use]
    pub fn distance(&self, a: usize, b: usize) -> usize {
        if a == b {
            0
        } else if self.domain_of_rank(a) != self.domain_of_rank(b) {
            3
        } else if self.core_of_rank(a) == self.core_of_rank(b) {
            1
        } else {
            2
        }
    }

    /// Ranks `< n` that live in domain `d`, ascending.
    #[must_use]
    pub fn domain_ranks(&self, d: usize, n: usize) -> Vec<usize> {
        (0..n).filter(|&r| self.domain_of_rank(r) == d).collect()
    }

    /// The next rank after `rank` (cyclically) in `rank`'s own domain, for
    /// forwarding work that must stay local. Falls back to the global ring
    /// `(rank + 1) % n` when `rank` is alone in its domain — a unit parked
    /// forever on a sole-resident domain would never be re-examined.
    #[must_use]
    pub fn next_in_domain(&self, rank: usize, n: usize) -> usize {
        if n <= 1 {
            return 0;
        }
        // Scatter layout: domain peers are `sockets` apart.
        let peer = rank + self.sockets;
        if peer < n {
            return peer;
        }
        let first = self.domain_of_rank(rank); // lowest rank in this domain
        if first != rank && first < n {
            return first;
        }
        (rank + 1) % n
    }

    /// Steal victims for `thief` among ranks `< n`, grouped by distance
    /// tier, nearest group first (SMT siblings, then same socket, then
    /// cross-socket). `thief` itself is excluded; empty groups are dropped.
    #[must_use]
    pub fn victim_tiers(&self, thief: usize, n: usize) -> Vec<Vec<usize>> {
        let mut tiers: [Vec<usize>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for r in 0..n {
            if r != thief {
                tiers[self.distance(thief, r) - 1].push(r);
            }
        }
        tiers.into_iter().filter(|t| !t.is_empty()).collect()
    }
}

impl Default for Topology {
    fn default() -> Self {
        Topology::flat(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_and_partial_specs() {
        assert_eq!(Topology::parse("2x4x2").unwrap(), Topology::new(2, 4, 2));
        assert_eq!(Topology::parse(" 2X4 ").unwrap(), Topology::new(2, 4, 1));
        assert_eq!(Topology::parse("8").unwrap(), Topology::new(8, 1, 1));
    }

    #[test]
    fn parse_rejects_malformed_specs_with_clear_errors() {
        for (spec, needle) in [
            ("", "empty topology spec"),
            ("2x4x2x2", "expected at most 3"),
            ("2xqx2", "not a positive integer"),
            ("0x4x2", "must be >= 1"),
            ("2x-4", "not a positive integer"),
        ] {
            let err = Topology::parse(spec).unwrap_err();
            assert!(err.contains(needle), "spec `{spec}`: error `{err}` missing `{needle}`");
        }
    }

    #[test]
    fn scatter_layout_spans_domains_early() {
        let t = Topology::parse("2x4x1").unwrap();
        assert_eq!(t.num_domains(), 2);
        // Even two workers land in different sockets.
        assert_eq!(t.domain_of_rank(0), 0);
        assert_eq!(t.domain_of_rank(1), 1);
        assert_eq!(t.domain_of_rank(2), 0);
        assert_eq!(t.domain_ranks(0, 6), vec![0, 2, 4]);
        assert_eq!(t.domain_ranks(1, 6), vec![1, 3, 5]);
    }

    #[test]
    fn flat_topology_is_one_domain() {
        let t = Topology::flat(8);
        assert_eq!(t.num_domains(), 1);
        for r in 0..8 {
            assert_eq!(t.domain_of_rank(r), 0);
        }
        // Domain forwarding on one domain is the old global ring.
        for r in 0..8 {
            assert_eq!(t.next_in_domain(r, 8), (r + 1) % 8);
        }
    }

    #[test]
    fn distance_tiers() {
        let t = Topology::parse("2x4x2").unwrap();
        assert_eq!(t.distance(3, 3), 0);
        assert_eq!(t.distance(0, 1), 3, "adjacent ranks sit in different sockets (scatter)");
        assert_eq!(t.distance(0, 2), 2, "two apart = same socket, different core");
        // Ranks 0 and 8: both domain 0; idx 0 and 4; cores 0 and 0 -> SMT
        // siblings under 4 cores/socket.
        assert_eq!(t.core_of_rank(0), t.core_of_rank(8));
        assert_eq!(t.distance(0, 8), 1);
    }

    #[test]
    fn next_in_domain_cycles_within_socket() {
        let t = Topology::parse("2x4x1").unwrap();
        // Domain 0 ranks of n=6: 0 -> 2 -> 4 -> 0.
        assert_eq!(t.next_in_domain(0, 6), 2);
        assert_eq!(t.next_in_domain(2, 6), 4);
        assert_eq!(t.next_in_domain(4, 6), 0);
        // Sole resident of domain 1 (n=2): global ring fallback.
        assert_eq!(t.next_in_domain(1, 2), 0);
    }

    #[test]
    fn victim_tiers_order_near_to_far() {
        let t = Topology::parse("2x4x2").unwrap();
        let tiers = t.victim_tiers(0, 10);
        // Tier 1: SMT sibling rank 8. Tier 2: same-socket 2,4,6. Tier 3:
        // cross-socket odd ranks.
        assert_eq!(tiers, vec![vec![8], vec![2, 4, 6], vec![1, 3, 5, 7, 9]]);
        let flat = Topology::flat(4).victim_tiers(1, 4);
        assert_eq!(flat, vec![vec![0, 2, 3]]);
    }

    #[test]
    fn detect_is_single_socket() {
        let t = Topology::detect();
        assert_eq!(t.num_domains(), 1, "conservative host detection never invents sockets");
        assert!(t.num_places() >= 1);
    }

    #[test]
    fn display_roundtrips() {
        let t = Topology::parse("2x4x2").unwrap();
        assert_eq!(Topology::parse(&t.to_string()).unwrap(), t);
    }
}

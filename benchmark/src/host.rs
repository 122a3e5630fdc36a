//! Host description, a fixed CPU-speed reference, and peak memory.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

use glt::Topology;

use crate::json::Json;
use crate::spec::{wait_policy_name, WorkloadId, WIDTH};

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Provenance block written into every result.
pub fn provenance() -> Json {
    let topo = Topology::from_env().unwrap_or_else(Topology::detect);
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("team_width", Json::Num(WIDTH as f64)),
        ("glt_topology_env", std::env::var("GLT_TOPOLOGY").map_or(Json::Null, Json::Str)),
        ("topology", Json::str(format!("{}x{}x{}", topo.sockets(), topo.cores(), topo.smt()))),
        (
            "git_rev",
            Json::str(
                command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
            ),
        ),
        (
            "rustc",
            Json::str(command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "wait_policy",
            Json::obj(
                WorkloadId::ALL
                    .iter()
                    .map(|w| (w.name(), Json::str(wait_policy_name(w.wait_policy())))),
            ),
        ),
        // ROADMAP: numbers taken through a stand-in are labelled. Every
        // pool push/pop/steal goes through shims/crossbeam-* today.
        ("queues", Json::str("mutex-backed shims")),
    ])
}

/// A fixed pure-CPU loop (≈ 5 ms) run on both cores at once; the slower of
/// the two, in milliseconds. It does not depend on the program, so a
/// change means the host changed speed under the measurement. Both cores,
/// because on the reference VM the speed of one core depends on what the
/// other is doing: a one-core loop would report the state it started in.
pub fn spin_ms() -> f64 {
    fn one() -> f64 {
        let t0 = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..4_000_000u64 {
            x = (x ^ black_box(i)).wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(29);
        }
        black_box(x);
        t0.elapsed().as_secs_f64() * 1e3
    }
    // Best of three, so that one preempted loop is not read as a slow host.
    (0..3)
        .map(|_| {
            std::thread::scope(|s| {
                let other = s.spawn(one);
                one().max(other.join().expect("the loop cannot panic"))
            })
        })
        .fold(f64::INFINITY, f64::min)
}

/// Peak resident set of this process (`VmHWM`), in kB.
pub fn peak_rss_kb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

//! `repro` — regenerate the paper's tables and figures as CSV.
//!
//! ```text
//! cargo run -p bench --release --bin repro -- <target> [--paper] \
//!     [--threads a,b,c] [--runtimes gnu,glto-abt,...] [--reps N] \
//!     [--json results.json]
//!
//! targets:
//!   table1          validation suite results
//!   fig4            UTS over OpenMP runtimes
//!   fig5            UTS over pthreads + native LWT APIs
//!   fig6            CloverLeaf-like mini-app over runtimes
//!   fig7            work-assignment time per region fork
//!   fig8 | fig9     nested null loops (outer = 100 | 1000)
//!   table2          created/reused threads & ULTs in the nested case
//!   fig10..fig13    task CG, granularity 10/20/50/100
//!   table3          % queued tasks per granularity (Intel)
//!   fig14           4,000-task cut-off study (cut-off 16/256/4096)
//!   steal_locality  flat ring vs per-domain sharded stealing (+ counters)
//!   adaptive        omp-adaptive vs the composed specialists (+ decision
//!                   counters; OMP_ADAPTIVE_TRACE=1 dumps the memo table)
//!   service         multi-tenant job server: throughput + p50/p95/p99
//!                   latency at 10/100(/1000 with --paper) tenants
//!   all             everything above
//! ```

use glt::WaitPolicy;
use omp::{OmpRuntime, OmpRuntimeExt};
use workloads::runtimes::RuntimeKind;
use workloads::{cg, clover, micro, uts};

use bench::{
    paper_config, print_series_header, print_series_row, record_counter, record_result,
    task_figure_runtimes, time_reps, Scale,
};

struct Opts {
    scale: Scale,
    threads_override: Option<Vec<usize>>,
    reps_override: Option<usize>,
    runtimes_override: Option<Vec<RuntimeKind>>,
}

impl Opts {
    fn threads(&self) -> Vec<usize> {
        self.threads_override.clone().unwrap_or_else(|| self.scale.threads())
    }

    fn reps(&self, quick: usize, paper: usize) -> usize {
        self.reps_override.unwrap_or_else(|| self.scale.reps(quick, paper))
    }

    /// Runtimes a series target sweeps: `--runtimes` if given, else the
    /// paper's five.
    fn runtimes(&self) -> Vec<RuntimeKind> {
        self.runtimes_override.clone().unwrap_or_else(|| RuntimeKind::all().to_vec())
    }

    /// Task-figure runtime set (Figs. 10-14 omit GNU by default; see
    /// `task_figure_runtimes`). An explicit `--runtimes` wins outright so
    /// off-default runtimes (`adaptive`, `gnu`) can be swept too.
    fn task_runtimes(&self) -> Vec<RuntimeKind> {
        self.runtimes_override.clone().unwrap_or_else(task_figure_runtimes)
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts {
        scale: Scale::Quick,
        threads_override: None,
        reps_override: None,
        runtimes_override: None,
    };
    let mut targets: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;
    let i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                json_path = Some(args.remove(i + 1));
                args.remove(i);
            }
            "--paper" => {
                opts.scale = Scale::Paper;
                args.remove(i);
            }
            "--threads" => {
                let v = args.remove(i + 1);
                opts.threads_override =
                    Some(v.split(',').filter_map(|s| s.trim().parse().ok()).collect());
                args.remove(i);
            }
            "--reps" => {
                let v = args.remove(i + 1);
                opts.reps_override = v.trim().parse().ok();
                args.remove(i);
            }
            "--runtimes" => {
                let v = args.remove(i + 1);
                let kinds: Vec<RuntimeKind> = v
                    .split(',')
                    .map(|s| {
                        RuntimeKind::parse(s.trim()).unwrap_or_else(|| {
                            eprintln!(
                                "unknown runtime `{}`; valid: serial, gnu, intel, \
                                 glto-abt, glto-qth, glto-mth, glto-det, adaptive",
                                s.trim()
                            );
                            std::process::exit(2);
                        })
                    })
                    .collect();
                opts.runtimes_override = Some(kinds);
                args.remove(i);
            }
            _ => {
                targets.push(args.remove(i));
            }
        }
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }

    for t in &targets {
        match t.as_str() {
            "table1" => table1(&opts),
            "fig4" => fig4(&opts),
            "fig5" => fig5(&opts),
            "fig6" => fig6(&opts),
            "fig7" => fig7(&opts),
            "fig8" => nested_fig(&opts, "fig8", 100),
            "fig9" => nested_fig(&opts, "fig9", 1000),
            "table2" => table2(&opts),
            "fig10" => cg_fig(&opts, "fig10", 10),
            "fig11" => cg_fig(&opts, "fig11", 20),
            "fig12" => cg_fig(&opts, "fig12", 50),
            "fig13" => cg_fig(&opts, "fig13", 100),
            "table3" => table3(&opts),
            "fig14" => fig14(&opts),
            "steal_locality" => steal_locality(&opts),
            "adaptive" => adaptive_target(&opts),
            "service" => service_target(&opts),
            "check" => shape_check(&opts),
            "all" => {
                shape_check(&opts);
                table1(&opts);
                fig4(&opts);
                fig5(&opts);
                fig6(&opts);
                fig7(&opts);
                nested_fig(&opts, "fig8", 100);
                nested_fig(&opts, "fig9", 1000);
                table2(&opts);
                for (f, g) in [("fig10", 10), ("fig11", 20), ("fig12", 50), ("fig13", 100)] {
                    cg_fig(&opts, f, g);
                }
                table3(&opts);
                fig14(&opts);
                steal_locality(&opts);
                adaptive_target(&opts);
                service_target(&opts);
            }
            other => {
                eprintln!("unknown target: {other}");
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = &json_path {
        match bench::write_json(path) {
            Ok(n) => eprintln!("# wrote {n} records to {path}"),
            Err(e) => {
                eprintln!("--json {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

// --------------------------------------------------------- shape assertions

/// `check` — machine-verify the paper's qualitative claims (§VII) at a
/// small scale: who wins each scenario. Prints PASS/FAIL per shape.
fn shape_check(opts: &Opts) {
    println!("# check — qualitative shape assertions (paper §VII)");
    let threads = 4;
    let mut pass = 0;
    let mut fail = 0;
    let mut report = |name: &str, ok: bool, detail: String| {
        println!("check,{},{},{}", name, if ok { "PASS" } else { "FAIL" }, detail);
        if ok {
            pass += 1;
        } else {
            fail += 1;
        }
    };

    // 1. Nested parallelism: pthread-based runtimes pay OS-thread teams;
    //    GLTO(ABT) pays only ULTs (Figs. 8–9). Expect a large gap.
    {
        let reps = opts.reps(3, 10);
        let time_nested = |kind: RuntimeKind| {
            let rt = kind.build(paper_config(threads, WaitPolicy::Active));
            let _ = micro::nested_null(rt.as_ref(), 10, 10); // warm-up
            time_reps(reps, || {
                let _ = micro::nested_null(rt.as_ref(), 30, 30);
            })
            .mean()
        };
        let gnu = time_nested(RuntimeKind::Gnu);
        let abt = time_nested(RuntimeKind::GltoAbt);
        report(
            "nested: GLTO(ABT) beats GCC by >2x",
            gnu > 2.0 * abt,
            format!("gcc={gnu:.4}s abt={abt:.4}s"),
        );
    }

    // 2. Fine-grained tasks (Figs. 10–13 / Table III mechanism). The
    //    paper's multi-core crossover (GLTO beats Intel at fine grain) is
    //    driven by concurrent steal contention, which a single core cannot
    //    produce (EXPERIMENTS.md). What IS machine-checkable here is the
    //    mechanism the paper blames: at fine granularity the Intel cut-off
    //    engages (tasks execute directly, serialized), while at coarse
    //    granularity everything queues — Table III's gradient — and GLTO
    //    never cuts off at all (architectural contrast, §IV-D).
    {
        let a = cg::Csr::bmwcra_shaped(0.25);
        let b = cg::rhs_ones(&a);
        let queued_pct = |kind: RuntimeKind, gran: usize| {
            let rt = kind.build(paper_config(8, WaitPolicy::Passive));
            rt.counters().reset();
            let _ = cg::cg_tasks(rt.as_ref(), &a, &b, 2, 0.0, gran);
            rt.counters().snapshot().queued_task_percent()
        };
        let intel_fine = queued_pct(RuntimeKind::Intel, 10);
        let intel_coarse = queued_pct(RuntimeKind::Intel, 100);
        let abt_fine = queued_pct(RuntimeKind::GltoAbt, 10);
        report(
            "tasks: ICC cut-off engages at fine grain, not coarse; GLTO never",
            intel_fine < 95.0 && intel_coarse > 99.0 && abt_fine > 99.0,
            format!("icc queued% g10={intel_fine:.0} g100={intel_coarse:.0} abt g10={abt_fine:.0}"),
        );
    }

    // 3. Work assignment: pthread-based fork is cheaper than GLTO's
    //    ULT-per-member fork (Fig. 7) — the paper's cold-fork shape. With
    //    hot ULT teams on (`GLTO_HOT_ULTS=1`) the expected shape flips:
    //    re-arming a parked team must bring GLTO(ABT) within 3x of ICC
    //    (the gap the feature exists to close).
    {
        let cfg = paper_config(threads, WaitPolicy::Active);
        let assign = |kind: RuntimeKind| {
            let rt = kind.build(cfg.clone());
            let _ = micro::work_assignment_ns(rt.as_ref(), 50); // warm-up
            micro::work_assignment_ns(rt.as_ref(), 2000)
        };
        let intel = assign(RuntimeKind::Intel);
        let abt = assign(RuntimeKind::GltoAbt);
        if cfg.hot_ults {
            report(
                "work assignment: hot GLTO(ABT) within 3x of ICC",
                abt < 3.0 * intel,
                format!("icc={intel:.0}ns abt={abt:.0}ns (hot)"),
            );
        } else {
            report(
                "work assignment: ICC fork cheaper than GLTO(ABT)",
                intel < abt,
                format!("icc={intel:.0}ns abt={abt:.0}ns"),
            );
        }
    }

    // 4. Environment creator: all runtimes in one band (Fig. 4).
    {
        let p = uts::UtsParams::t1_scaled();
        let (expected, _) = uts::count_sequential(&p);
        let reps = opts.reps(3, 10);
        let mut means = Vec::new();
        for kind in [RuntimeKind::Gnu, RuntimeKind::Intel, RuntimeKind::GltoAbt] {
            let rt = kind.build(paper_config(threads, WaitPolicy::Active));
            means.push(
                time_reps(reps, || {
                    assert_eq!(uts::run_omp(rt.as_ref(), &p), expected);
                })
                .mean(),
            );
        }
        let min = means.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = means.iter().cloned().fold(0.0f64, f64::max);
        report(
            "env creator: GCC/ICC/GLTO(ABT) within 3x band",
            max < 3.0 * min,
            format!("min={min:.4}s max={max:.4}s"),
        );
    }

    // 5. Cut-off: with everything queued (4096) the run is no faster than
    //    with the default cut-off (Fig. 14 mechanism).
    {
        let reps = opts.reps(3, 10);
        let time_cutoff = |cutoff: usize| {
            let cfg = paper_config(threads, WaitPolicy::Passive).task_cutoff(cutoff);
            let rt = RuntimeKind::Intel.build(cfg);
            time_reps(reps, || {
                let _ = micro::producer_consumer_tasks(rt.as_ref(), 2000, 50);
            })
            .mean()
        };
        let c16 = time_cutoff(16);
        let c4096 = time_cutoff(4096);
        report(
            "cut-off: all-queued (4096) not faster than 16",
            c4096 >= c16 * 0.8,
            format!("c16={c16:.4}s c4096={c4096:.4}s"),
        );
    }

    println!("# check summary: {pass} PASS, {fail} FAIL");
    if fail > 0 {
        std::process::exit(1);
    }
}

// ------------------------------------------------------------------ Table I

fn table1(opts: &Opts) {
    println!("# table1 — OpenUH-style validation suite (paper Table I)");
    println!("table,runtime,constructs,tests,successful,failed");
    for kind in opts.runtimes() {
        let rt = kind.build(paper_config(4, WaitPolicy::Passive));
        let r = validation::run_suite(rt.as_ref());
        println!(
            "table1,{},{},{},{},{}",
            r.runtime,
            r.constructs,
            r.total,
            r.passed,
            r.total - r.passed
        );
        let _ = opts;
    }
}

// ------------------------------------------------------------- Fig 4 (UTS)

fn fig4(opts: &Opts) {
    // §VI-B: OMP as environment creator; work-sharing setting ⇒ active.
    let p = if opts.scale == Scale::Paper {
        uts::UtsParams::t1_paper()
    } else {
        uts::UtsParams::t1_scaled()
    };
    let (expected, _) = uts::count_sequential(&p);
    let reps = opts.reps(3, 50);
    print_series_header("fig4 — UTS (environment creator) over OpenMP runtimes", "seconds");
    for kind in opts.runtimes() {
        for &n in &opts.threads() {
            let rt = kind.build(paper_config(n, WaitPolicy::Active));
            let st = time_reps(reps, || {
                assert_eq!(uts::run_omp(rt.as_ref(), &p), expected, "tree must be deterministic");
            });
            print_series_row("fig4", kind.label(), n, &st);
        }
    }
}

// ------------------------------------------------- Fig 5 (UTS, native APIs)

fn fig5(opts: &Opts) {
    let p = if opts.scale == Scale::Paper {
        uts::UtsParams::t1_paper()
    } else {
        uts::UtsParams::t1_scaled()
    };
    let (expected, _) = uts::count_sequential(&p);
    let reps = opts.reps(3, 50);
    print_series_header("fig5 — UTS over pthreads and native LWT APIs", "seconds");
    for &n in &opts.threads() {
        let st = time_reps(reps, || {
            assert_eq!(uts::run_threads(n, &p), expected);
        });
        print_series_row("fig5", "Pthreads", n, &st);
    }
    for backend in glto::Backend::all() {
        for &n in &opts.threads() {
            let cfg = glt::GltConfig::with_threads(n).wait_policy(WaitPolicy::Active);
            let rt = glto::AnyGlt::start(backend, cfg);
            // Qthreads programs synchronize through FEBs; others use a
            // plain mutex (paper Fig. 5's native ports).
            let st = time_reps(reps, || {
                let lock = match &rt {
                    glto::AnyGlt::Qth(q) => {
                        glt_qth::feb_of(q).map_or(uts::StackLock::Mutex, uts::StackLock::Feb)
                    }
                    _ => uts::StackLock::Mutex,
                };
                assert_eq!(uts::run_glt(&rt, &p, lock), expected);
            });
            print_series_row("fig5", backend.label(), n, &st);
        }
    }
}

// ------------------------------------------------------- Fig 6 (CloverLeaf)

fn fig6(opts: &Opts) {
    let p = if opts.scale == Scale::Paper {
        clover::CloverParams::bm_paper()
    } else {
        clover::CloverParams::bm_scaled()
    };
    let reps = opts.reps(2, 50);
    print_series_header("fig6 — CloverLeaf-like mini-app (compute-bound parallel for)", "seconds");
    for kind in opts.runtimes() {
        for &n in &opts.threads() {
            let rt = kind.build(paper_config(n, WaitPolicy::Active));
            let st = time_reps(reps, || {
                let (mass, energy) = clover::run(rt.as_ref(), p);
                assert!(mass.is_finite() && energy.is_finite());
            });
            print_series_row("fig6", kind.label(), n, &st);
        }
    }
}

// -------------------------------------------------- Fig 7 (work assignment)

fn fig7(opts: &Opts) {
    let reps = opts.reps(2000, 20_000);
    println!("# fig7 — work-assignment time inside the runtime (per region fork)");
    println!("figure,runtime,threads,assign_ns,empty_region_ns,forks");
    for kind in opts.runtimes() {
        for &n in &opts.threads() {
            let rt = kind.build(paper_config(n, WaitPolicy::Active));
            // Warm the pools (hot teams) so creation cost is excluded,
            // as in the paper's steady-state measurement.
            let _ = micro::work_assignment_ns(rt.as_ref(), 10); // warm-up
            let assign = micro::work_assignment_ns(rt.as_ref(), reps);
            let wall = micro::empty_region_time(rt.as_ref(), reps);
            println!(
                "fig7,{},{},{:.1},{:.1},{}",
                kind.label(),
                n,
                assign,
                wall.as_nanos() as f64,
                reps
            );
            // Single aggregate per config — record the per-fork means for
            // both probes (there is no per-rep distribution here).
            record_result("fig7", kind.label(), n, wall.as_nanos() as f64, wall.as_nanos() as f64);
            record_result("fig7_assign", kind.label(), n, assign, assign);
        }
    }
}

// ------------------------------------------------ Figs 8 & 9 (nested loops)

fn nested_fig(opts: &Opts, name: &str, outer: u64) {
    // §VI-D: iterations == outer for both loops in the paper's listing.
    let inner = outer;
    let reps = opts.reps(2, 1000);
    print_series_header(&format!("{name} — nested null parallel-for, outer={outer}"), "seconds");
    for kind in opts.runtimes() {
        for &n in &opts.threads() {
            let rt = kind.build(paper_config(n, WaitPolicy::Active));
            let st = time_reps(reps, || {
                let _ = micro::nested_null(rt.as_ref(), outer, inner);
            });
            print_series_row(name, kind.label(), n, &st);
        }
    }
}

// ----------------------------------------------------------------- Table II

fn table2(opts: &Opts) {
    // Paper: OMP_NUM_THREADS=36, outer loop = 100 iterations.
    let n = 36;
    let outer = 100;
    println!("# table2 — created/reused threads and ULTs, nested case (paper Table II)");
    println!("table,runtime,created_threads,reused_threads,created_ults");
    for kind in opts.runtimes() {
        let rt = kind.build(paper_config(n, WaitPolicy::Active));
        rt.counters().reset();
        let _ = micro::nested_null(rt.as_ref(), outer, outer);
        let s = rt.counters().snapshot();
        // Team-member accounting as in the paper's table: OS threads
        // created (+1 master for the pthread runtimes; GLTO reports its
        // fixed GLT_thread count), reuse events, ULTs created.
        let (created, reused, ults) = if kind.is_glto() {
            (n as u64, 0, s.ults_created)
        } else {
            (s.os_threads_created + 1, s.os_threads_reused, 0)
        };
        println!("table2,{},{},{},{}", kind.label(), created, reused, ults);
        let _ = opts;
    }
    println!("# paper: GCC 3,536/0/—   Intel 1,296/2,240/—   GLTO 36/0/3,500");
}

// ---------------------------------------------------- Figs 10–13 (task CG)

fn cg_fig(opts: &Opts, name: &str, granularity: usize) {
    // Full bmwcra_1 row count so tasks-per-iteration matches the paper
    // (1,488 / 744 / 298 / 149); fewer CG iterations at quick scale.
    let a = cg::Csr::bmwcra_shaped(1.0);
    let b = cg::rhs_ones(&a);
    let iters = opts.reps(3, 20);
    let reps = opts.reps(2, 1000);
    print_series_header(
        &format!(
            "{name} — task CG, granularity {granularity} ({} tasks/iter)",
            cg::tasks_per_iteration(a.n, granularity)
        ),
        "seconds",
    );
    for kind in opts.task_runtimes() {
        for &n in &opts.threads() {
            // §VI-A: task codes use the default (passive) wait policy.
            let rt = kind.build(paper_config(n, WaitPolicy::Passive));
            let st = time_reps(reps, || {
                let r = cg::cg_tasks(rt.as_ref(), &a, &b, iters, 0.0, granularity);
                assert_eq!(r.iterations, iters);
            });
            print_series_row(name, kind.label(), n, &st);
        }
    }
}

// ---------------------------------------------------------------- Table III

fn table3(opts: &Opts) {
    let a = cg::Csr::bmwcra_shaped(1.0);
    let b = cg::rhs_ones(&a);
    let iters = opts.reps(2, 10);
    println!("# table3 — % queued tasks per granularity, Intel runtime (paper Table III)");
    println!("table,threads,gran10,gran20,gran50,gran100");
    for &n in &opts.threads() {
        let mut row = format!("table3,{n}");
        for g in [10, 20, 50, 100] {
            let rt = RuntimeKind::Intel.build(paper_config(n, WaitPolicy::Passive));
            rt.counters().reset();
            let _ = cg::cg_tasks(rt.as_ref(), &a, &b, iters, 0.0, g);
            let pct = rt.counters().snapshot().queued_task_percent();
            row.push_str(&format!(",{pct:.0}"));
        }
        println!("{row}");
    }
}

// --------------------------------------------------- steal_locality (new)

/// Flat worker ring vs per-domain sharded pools: the same single-producer
/// task storm on the stealing backends under (a) the legacy flat layout
/// (`1xWx1`, one domain) and (b) a synthetic two-socket SMT machine
/// (`2x4x2`) with `proc_bind(close)`. Besides wall time, each row dumps
/// the locality counters — under (b) the close binding must hold
/// `steals_cross_domain` at exactly 0 (the ISSUE's acceptance criterion),
/// and `same + cross == steals` must conserve in every row.
fn steal_locality(opts: &Opts) {
    let reps = opts.reps(5, 200);
    let widths = opts.threads_override.clone().unwrap_or_else(|| vec![8, 36]);
    println!("# steal_locality — flat ring vs per-domain sharded stealing");
    println!(
        "figure,runtime,layout,threads,seconds,stddev,steals,same_domain,cross_domain,migrations"
    );
    let sharded = glt::Topology::parse("2x4x2").expect("valid spec");
    for &n in &widths {
        for (layout, topo) in [("flat", glt::Topology::flat(n)), ("sharded-2x4x2", sharded)] {
            for kind in [RuntimeKind::GltoMth, RuntimeKind::GltoAbt] {
                let cfg = paper_config(n, WaitPolicy::Passive)
                    .topology(topo)
                    .proc_bind(omp::ProcBind::Close);
                let rt = kind.build(cfg);
                let _ = micro::producer_consumer_tasks(rt.as_ref(), 200, 20); // warm-up
                rt.counters().reset();
                let st = time_reps(reps, || {
                    let _ = micro::producer_consumer_tasks(rt.as_ref(), 1000, 20);
                });
                let s = rt.counters().snapshot();
                assert_eq!(
                    s.steals_same_domain + s.steals_cross_domain,
                    s.steals,
                    "steal locality accounting must conserve"
                );
                if topo.num_domains() > 1 {
                    assert_eq!(
                        s.steals_cross_domain, 0,
                        "proc_bind(close) must forbid cross-domain steals"
                    );
                }
                println!(
                    "steal_locality,{},{layout},{n},{:.6e},{:.2e},{},{},{},{}",
                    kind.label(),
                    st.mean(),
                    st.stddev(),
                    s.steals,
                    s.steals_same_domain,
                    s.steals_cross_domain,
                    s.domain_migrations
                );
                let label = format!("{}/{layout}", kind.label());
                record_result("steal_locality", &label, n, st.mean() * 1e9, st.min() * 1e9);
                for (c, v) in s.iter() {
                    if c.starts_with("steals") || c == "domain_migrations" {
                        record_counter("steal_locality", &label, n, c, v);
                    }
                }
            }
        }
    }
}

// ------------------------------------------------------- service (new)

/// The multi-tenant service bench: N tenants each submit one job from the
/// mixed rotation (UTS / CG / Clover / task burst) to one shared
/// substrate, per OpenMP implementation. Reports job throughput and the
/// p50/p95/p99 submit-to-completion latency (queue wait included — this
/// is an *admission* tail). Tenant counts: 10 and 100 at quick scale,
/// plus the 1000-tenant soak point under `--paper`.
fn service_target(opts: &Opts) {
    let tenant_counts: &[usize] = match opts.scale {
        Scale::Quick => &[10, 100],
        Scale::Paper => &[10, 100, 1000],
    };
    let kinds = opts.runtimes_override.clone().unwrap_or_else(|| {
        vec![
            RuntimeKind::Gnu,
            RuntimeKind::Intel,
            RuntimeKind::GltoAbt,
            RuntimeKind::GltoQth,
            RuntimeKind::GltoMth,
            RuntimeKind::Adaptive,
        ]
    });
    println!(
        "# service — N concurrent tenants on one shared substrate (4 domains, FIFO admission)"
    );
    println!(
        "figure,runtime,tenants,throughput_jobs_per_s,mean_s,p50_s,p95_s,p99_s,\
         admitted,rejected,leaked"
    );
    for &n in tenant_counts {
        for &kind in &kinds {
            let mut cfg = omp_service::ServiceConfig::new(n);
            cfg.topology = glt::Topology::new(4, 2, 1);
            cfg.max_concurrent = 4;
            cfg.queue_cap = n + 1;
            let s = omp_service::Substrate::start(cfg);
            let mix = omp_service::Workload::mix();
            let t0 = std::time::Instant::now();
            let tickets: Vec<_> = (0..n)
                .map(|t| {
                    s.submit(omp_service::JobSpec {
                        tenant: t,
                        workload: mix[t % mix.len()].clone(),
                        threads: 2,
                        runtime: kind,
                    })
                    .expect("queue sized for every tenant")
                })
                .collect();
            let mut lat: Vec<u64> = tickets
                .into_iter()
                .map(|t| {
                    let out = t.wait();
                    assert!(out.ok, "tenant {} wrong digest on {}", out.tenant, kind.label());
                    u64::try_from(out.latency.as_nanos()).unwrap_or(u64::MAX)
                })
                .collect();
            let wall = t0.elapsed();
            let stats = omp_service::latency_stats(&mut lat);
            let report = s.shutdown();
            assert!(report.is_clean(), "{}: {:?}", kind.label(), report.violations);
            let throughput = n as f64 / wall.as_secs_f64();
            println!(
                "service,{},{n},{throughput:.1},{:.6e},{:.6e},{:.6e},{:.6e},{},{},{}",
                kind.label(),
                stats.mean_ns as f64 * 1e-9,
                stats.p50_ns as f64 * 1e-9,
                stats.p95_ns as f64 * 1e-9,
                stats.p99_ns as f64 * 1e-9,
                report.service.jobs_admitted,
                report.service.jobs_rejected,
                report.aggregate.tenant_steals_leaked,
            );
            record_result("service", kind.label(), n, stats.mean_ns as f64, stats.p50_ns as f64);
            record_counter("service", kind.label(), n, "lat_p50_ns", stats.p50_ns);
            record_counter("service", kind.label(), n, "lat_p95_ns", stats.p95_ns);
            record_counter("service", kind.label(), n, "lat_p99_ns", stats.p99_ns);
            record_counter(
                "service",
                kind.label(),
                n,
                "throughput_jobs_per_s",
                throughput.round() as u64,
            );
            for (c, v) in report.service.iter().filter(|(c, _)| c.starts_with("jobs_")) {
                record_counter("service", kind.label(), n, c, v);
            }
            record_counter(
                "service",
                kind.label(),
                n,
                "tenant_steals_leaked",
                report.aggregate.tenant_steals_leaked,
            );
        }
    }
}

// ------------------------------------------------------- Fig 14 (cut-off)

fn fig14(opts: &Opts) {
    let ntasks = 4000;
    let work = 200;
    let reps = opts.reps(3, 50);
    println!("# fig14 — 4,000 tasks under different Intel cut-off values (paper Fig. 14)");
    println!("figure,cutoff,threads,seconds,stddev,reps");
    for cutoff in [16usize, 256, 4096] {
        for &n in &opts.threads() {
            let cfg = paper_config(n, WaitPolicy::Passive).task_cutoff(cutoff);
            let rt = RuntimeKind::Intel.build(cfg);
            let st = time_reps(reps, || {
                let _ = micro::producer_consumer_tasks(rt.as_ref(), ntasks, work);
            });
            println!("fig14,{cutoff},{n},{:.6e},{:.2e},{}", st.mean(), st.stddev(), st.count());
            record_result("fig14", &format!("cutoff{cutoff}"), n, st.mean() * 1e9, st.min() * 1e9);
        }
    }
}

// ------------------------------------------------------- adaptive (new)

/// `omp-adaptive` against the two specialists it composes, one scenario
/// per regime the cost model must get right: flat forks (Fig. 7's shape),
/// nested regions (Figs. 8–9), and the all-queued task storm (Fig. 14,
/// cut-off 4096). Adaptive rows are measured *after* a warm-up long
/// enough for every callsite to commit — the ≤10%-of-best acceptance
/// criterion is a steady-state claim — while the exploration tax stays
/// visible in the decision counters each adaptive row records for
/// `--json`. Set `OMP_ADAPTIVE_TRACE=1` to additionally dump each
/// adaptive runtime's per-callsite memo table when it drops.
fn adaptive_target(opts: &Opts) {
    struct Scen {
        name: &'static str,
        wait: WaitPolicy,
        cutoff: Option<usize>,
        quick_reps: usize,
        paper_reps: usize,
        run: fn(&dyn OmpRuntime),
    }
    let scens = [
        Scen {
            name: "flat_fork",
            wait: WaitPolicy::Active,
            cutoff: None,
            quick_reps: 300,
            paper_reps: 5000,
            run: |rt| rt.parallel(|_| {}),
        },
        Scen {
            name: "nested",
            wait: WaitPolicy::Active,
            cutoff: None,
            quick_reps: 5,
            paper_reps: 200,
            run: |rt| {
                let _ = micro::nested_null(rt, 30, 30);
            },
        },
        Scen {
            name: "tasks_cutoff4096",
            wait: WaitPolicy::Passive,
            cutoff: Some(4096),
            quick_reps: 5,
            paper_reps: 200,
            run: |rt| {
                let _ = micro::producer_consumer_tasks(rt, 2000, 50);
            },
        },
    ];

    let n = opts.threads_override.as_ref().and_then(|t| t.last().copied()).unwrap_or(4);
    println!("# adaptive — mechanism selection vs the composed specialists");
    println!("figure,scenario,runtime,threads,mean_ns,reps");
    for sc in &scens {
        let mut best_specialist = f64::INFINITY;
        // Intel = the pomp hot-team engine; hot GLTO(ABT) = the ULT
        // engine — exactly the two mechanisms the adaptive table routes
        // between, each in its specialist configuration.
        for kind in [RuntimeKind::Intel, RuntimeKind::GltoAbt, RuntimeKind::Adaptive] {
            let mut cfg = paper_config(n, sc.wait);
            if let Some(c) = sc.cutoff {
                cfg = cfg.task_cutoff(c);
            }
            if kind == RuntimeKind::GltoAbt {
                cfg = cfg.hot_ults(true);
            }
            let rt = kind.build(cfg);
            for _ in 0..16 {
                (sc.run)(rt.as_ref()); // warm pools, hot teams, and commits
            }
            let st = time_reps(opts.reps(sc.quick_reps, sc.paper_reps), || (sc.run)(rt.as_ref()));
            let mean_ns = st.mean() * 1e9;
            println!("adaptive,{},{},{n},{:.1},{}", sc.name, kind.label(), mean_ns, st.count());
            let target = format!("adaptive:{}", sc.name);
            record_result(&target, kind.label(), n, mean_ns, st.min() * 1e9);
            if kind == RuntimeKind::Adaptive {
                let s = rt.counters().snapshot();
                for (c, v) in s.iter().filter(|(c, _)| c.starts_with("adaptive_")) {
                    record_counter(&target, kind.label(), n, c, v);
                }
                println!(
                    "# adaptive:{} vs best specialist: {:.2}x (probes={} commits os/ult={}/{})",
                    sc.name,
                    mean_ns / best_specialist,
                    s.adaptive_probes,
                    s.adaptive_commits_os,
                    s.adaptive_commits_ult
                );
            } else {
                best_specialist = best_specialist.min(mean_ns);
            }
        }
    }
}

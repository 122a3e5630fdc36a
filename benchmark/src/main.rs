//! `glto-benchmark`: the repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! glto-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! glto-benchmark cell ...            (internal: one cell in its own process)
//! glto-benchmark compare A.json B.json
//! glto-benchmark manifest            (prints BENCHMARK.json)
//! ```

mod cell;
mod compare;
mod driver;
mod host;
mod json;
mod ops;
mod probes;
mod spec;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use json::Json;
use workloads::RuntimeKind;

/// `--key value` pairs and bare flags after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, key: &str) -> Option<&str> {
        self.0.iter().position(|a| a == key).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    fn has(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.value(key)
            .map(|v| v.parse().map_err(|_| format!("{key}: cannot parse {v:?}")))
            .transpose()
    }

    fn required<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.parsed(key)?.ok_or_else(|| format!("{key} is required"))
    }

    fn workload(&self) -> Result<Option<spec::WorkloadId>, String> {
        self.value("--workload")
            .map(|w| spec::WorkloadId::parse(w).ok_or_else(|| format!("unknown workload {w:?}")))
            .transpose()
    }

    fn trace(&self) -> Result<Option<bool>, String> {
        Ok(self.parsed::<u8>("--trace")?.map(|t| t != 0))
    }
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn dispatch(process_start: Instant, args: Vec<String>) -> Result<bool, String> {
    let (command, rest) = args.split_first().ok_or("usage: glto-benchmark run|compare|manifest")?;
    let flags = Flags(rest.to_vec());
    match command.as_str() {
        "run" => driver::run(&driver::RunArgs {
            workload: flags.workload()?,
            seed: flags.parsed("--seed")?.unwrap_or(1),
            seconds: flags.parsed("--seconds")?.unwrap_or(spec::RUN_SECONDS as f64),
            trace: flags.trace()?,
            smoke: flags.has("--smoke"),
            out_dir: flags.value("--out").unwrap_or("benchmark/out").into(),
        }),
        "cell" => {
            let us = |key| flags.required(key).map(Duration::from_micros);
            let runtime: String = flags.required("--runtime")?;
            let out = cell::run(
                cell::CellArgs {
                    workload: flags.workload()?.ok_or("--workload is required")?,
                    runtime: RuntimeKind::parse(&runtime)
                        .ok_or_else(|| format!("unknown runtime {runtime:?}"))?,
                    seed: flags.required("--seed")?,
                    timed: us("--timed-us")?,
                    trace: flags.trace()?.unwrap_or(false),
                    probe: us("--probe-us")?,
                },
                process_start,
            );
            println!("{}", out.to_line());
            Ok(true)
        }
        "compare" => match rest {
            [a, b] => compare::compare(&read_json(a)?, &read_json(b)?),
            _ => Err("usage: glto-benchmark compare <a.json> <b.json>".into()),
        },
        "manifest" => {
            print!("{}", spec::manifest().to_pretty());
            Ok(true)
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    match dispatch(process_start, std::env::args().skip(1).collect()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("glto-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

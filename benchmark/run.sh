#!/usr/bin/env bash
# Build the benchmark and run it.
#
#   benchmark/run.sh [--seed N] [--workload W] [--smoke]      every metric, both passes,
#                                                             writes benchmark/out/result.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                             one pass; last line is the
#                                                             one-line JSON result
#   benchmark/run.sh compare A.json B.json                    verdict per (metric, workload)
#   benchmark/run.sh manifest                                 prints BENCHMARK.json
#
# The package is its own workspace with path dependencies on ../crates, so it
# builds only inside a checkout of the repository. CARGO_TARGET_DIR is
# honoured (a relative one is taken from the current directory); the default
# is the repository's target/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/../target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac

CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
  --manifest-path "$here/Cargo.toml" >&2

bin="$target/release/glto-benchmark"
case "${1:-}" in
  compare | manifest) exec "$bin" "$@" ;;
  *) exec "$bin" run --out "$here/out" "$@" ;;
esac

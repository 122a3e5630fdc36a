#!/usr/bin/env python3
"""How the bounds in src/spec.rs were calibrated.

  calibrate.py bounds RUN.json [RUN.json ...]
      ISSUE 11's rule over full-run result files:
      bound = max(0.03, 2 * (max - min) / median) per (metric, workload).

  calibrate.py seeds [FIRST_SEED]
      The acceptance driver's check: ten runs of each workload, each with
      another seed, through the driver's own command line; prints the
      distance between the first and third quartile of the ten values as a
      share of their median (statistics.quantiles, n=4).

Run from the repository root on an otherwise idle machine.
"""
import json
import statistics
import subprocess
import sys

WORKLOADS = ["clover_for", "nested_null", "cg_tasks", "service_mix"]


def table(values, stat, label):
    """values[workload][metric] -> list; prints one row per metric."""
    metrics = list(next(iter(values.values())))
    print(f"{'metric':<20}" + "".join(f"{w:>13}" for w in values) + f"{'worst':>9}")
    for m in metrics:
        cells = [stat(values[w][m]) for w in values]
        print(f"{m:<20}" + "".join(f"{c:>12.2%} " for c in cells) + f"{max(cells):>8.2%}")
    print(f"({label})")


def bounds(paths):
    values = {}
    for path in paths:
        with open(path) as f:
            result = json.load(f)
        for w, entry in result["workloads"].items():
            for m, rec in entry["end_to_end_pass"]["metrics"].items():
                values.setdefault(w, {}).setdefault(m, []).append(rec["value"])
    rule = lambda v: max(0.03, 2 * (max(v) - min(v)) / statistics.median(v))
    table(values, rule, f"max(0.03, 2*(max-min)/median) over {len(paths)} full runs")


def seeds(first):
    values = {}
    for w in WORKLOADS:
        for seed in range(first, first + 10):
            out = subprocess.run(
                ["bash", "benchmark/run.sh", "--workload", w, "--seed", str(seed),
                 "--seconds", "28", "--trace", "0"],
                check=True, capture_output=True, text=True).stdout
            line = json.loads(out.strip().splitlines()[-1])
            assert line["correct"] and line["failed"] == 0, (w, seed)
            # Every runtime's time is printed; only bounded ones are in the last line.
            for m, rec in line["metrics"].items():
                values.setdefault(w, {}).setdefault(m, []).append(rec["value"])
            print(w, seed, " ".join(f"{m}={r['value']:.5g}" for m, r in line["metrics"].items()),
                  flush=True)

    def spread(v):
        q = statistics.quantiles(v, n=4)
        return (q[2] - q[0]) / statistics.median(v)

    table(values, spread, f"IQR/median of ten seeds {first}..{first + 9}")


if __name__ == "__main__":
    if len(sys.argv) >= 3 and sys.argv[1] == "bounds":
        bounds(sys.argv[2:])
    elif len(sys.argv) >= 2 and sys.argv[1] == "seeds":
        seeds(int(sys.argv[2]) if len(sys.argv) > 2 else 1)
    else:
        sys.exit(__doc__)

"""Run the benchmark repeatedly and record medians and run-to-run spread.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Each workload of BENCHMARK.json runs RUNS times untraced for its
``run_seconds``, run k with seed ``FIRST_SEED + k``, then once traced.  For
every end-to-end metric the file keeps each run's value, the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(q3 - q1) / median, both as reported (at reference host speed) and as
measured, so that the need for the speed scaling can be checked.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIRST_SEED = 101
RUNS = 10


def run_once(workload, seed, seconds, trace):
    """(machine, measured values, result) of one run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.splitlines()
    return (json.loads(lines[0])["machine"], json.loads(lines[-2])["measured"],
            json.loads(lines[-1]))


def summarize(runs):
    """runs: one {metric: value} per run -> per-metric statistics."""
    out = {}
    for name in runs[0]:
        values = [r[name] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median,
            "values": values,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    record = {"run_seconds": seconds, "runs": RUNS,
              "date": time.strftime("%Y-%m-%d", time.gmtime()), "workloads": {}}
    for name in [w["name"] for w in bench["workloads"]]:
        seeds = [FIRST_SEED + k for k in range(RUNS)]
        results, measured = [], []
        for seed in seeds:
            machine, meas, result = run_once(name, seed, seconds, 0)
            results.append(result)
            measured.append(meas)
            print(f"{name} seed {seed}: correct {result['correct']}", flush=True)
        record["machine"] = machine
        traced = run_once(name, FIRST_SEED, seconds, 1)[2]
        reported = summarize([{k: v["value"] for k, v in r["metrics"].items()}
                              for r in results])
        for metric, s in reported.items():
            s["unit"] = units[metric]
        record["workloads"][name] = {
            "seeds": seeds,
            "jobs": [r["attempted"] for r in results],
            "all_correct": all(r["correct"] for r in results + [traced]),
            "end_to_end": reported,
            "end_to_end_measured": summarize(measured),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for metric, s in reported.items():
            m = record["workloads"][name]["end_to_end_measured"].get(metric)
            raw = f"  measured spread {m['spread']:.4f}" if m else ""
            print(f"  {metric:<14} median {s['median']:.6g} {s['unit']}  "
                  f"spread {s['spread']:.4f}{raw}", flush=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the benchmark over several seeds and write benchmarks/BENCH_<label>.json.

    python3 benchmarks/sweep.py --label baseline --seeds 1-10
    python3 benchmarks/sweep.py --label try --workloads cli --seeds 1-5 --no-trace

For every workload and end-to-end metric it records the values of each
run, their median, quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, and whether that spread is under the metric's bound.
Unless --no-trace is given, one traced run per workload adds the per-layer
metrics.  Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return {"meta": json.loads(lines[-2])["meta"], **json.loads(lines[-1])}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--no-trace", action="store_true")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {"seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        results = [run(workload, s, spec["run_seconds"], 0) for s in args.seeds]
        entry: dict = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
        }
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            entry["end_to_end"][name] = {
                "unit": results[0]["metrics"][name]["unit"], "median": statistics.median(values),
                "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                "spread_under_third_of_bound": spread < bound / 3, "values": values,
            }
            print(f"{workload:8s} {name:14s} median {statistics.median(values):12.5g} "
                  f"spread {spread:.4f} (bound {bound})", flush=True)
        if not args.no_trace:
            traced = run(workload, args.seeds[0], spec["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["traced_correct"] = traced["correct"]
        report["meta"] = {k: results[0]["meta"][k] for k in ("python", "nproc", "src_loc")}
        report["workloads"][workload] = entry
    out = BENCH / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

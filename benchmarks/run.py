#!/usr/bin/env python3
"""pifam benchmark: run one workload for a fixed time and print its metrics.

    python3 benchmarks/run.py --workload bnb --seed 1 --seconds 20 --trace 0

A run repeats passes over the workload's calls, each pass in a new order
drawn from the seed, until `--seconds` have passed and the workload's
minimum number of passes is done.  Load is a closed loop with one client:
one call at a time on one core, and for `cli` at most one child process
alive.  Every answer is checked (see workloads.py).  Times are scaled by a
reference loop timed around each call (see workloads.REFERENCE_S), which
takes out the changing speed of a shared machine.  The last line of
standard output is one JSON object {"correct", "attempted", "failed",
"metrics"}; with `--trace 0` the metrics are the end-to-end ones of
BENCHMARK.json, with `--trace 1` the per-layer ones, from passes traced by
spans.py alternating with untraced passes.  Run details, metadata, raw
times and the spans of a traced run go to benchmarks/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
PROBES = 9  # fresh processes timed per run for setup_s and cli.import_s; medians reported


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def tail_percentile(calls: int) -> int:
    """The highest whole percentile with at least 10 of `calls` beyond it, at most 99."""
    return max(50, min(99, math.floor(100 * (1 - 10 / calls))))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def child_output(argv: list[str]) -> list[str]:
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, env=child_env(),
                          timeout=120, check=True)
    return proc.stdout.split()


def setup_probe(workload: str, seed: int) -> float:
    """Scaled time from spawning a fresh process to its first call being ready.

    The child prints perf_counter() once its inputs are ready, then the time
    of the reference loop; perf_counter reads CLOCK_MONOTONIC, which all
    processes of the machine share.  The set-up is scaled like a call, by
    the reference loop timed here before the spawn and in the child after it.
    """
    import workloads

    before = workloads.reference_seconds()
    t0 = perf_counter()
    ready, after = map(float, child_output(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--setup-probe"])[-2:])
    return (ready - t0) * workloads.REFERENCE_S / ((before + after) / 2)


def import_seconds() -> float:
    """Median time of a fresh `import pifam.cli`."""
    code = ("import time; t = time.perf_counter(); import pifam.cli; "
            "print(time.perf_counter() - t)")
    return statistics.median(float(child_output([sys.executable, "-c", code])[-1])
                             for _ in range(PROBES))


def src_loc() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def run_pass(workload, rng: random.Random, tracer=None) -> dict:
    import workloads

    tasks = list(enumerate(workload.tasks))
    rng.shuffle(tasks)
    rec, extra = workloads.Recorder(tracer), workloads.Recorder(tracer)
    first = len(tracer.spans) if tracer else 0
    if tracer:
        tracer.install()
    try:
        t0 = perf_counter()
        rec.run(tasks)
        wall = perf_counter() - t0
        if tracer:
            extra.run(list(enumerate(workload.traced_extra)))
    finally:
        if tracer:
            tracer.uninstall()
    return {
        "wall": wall,
        "scaled_wall": sum(rec.scaled.values()),
        "latencies": rec.latencies,
        "scaled": rec.scaled,
        "attempted": rec.attempted + extra.attempted,
        "failed": rec.failed + extra.failed,
        "failures": rec.failures + extra.failures,
        "counters": rec.counters,
        "peak_child_kb": rec.peak_child_kb,
        "layers": tracer.layer_metrics(first) if tracer else {},
    }


def measure(workload, seconds: float, rng: random.Random, probe) -> tuple[list, list]:
    """Untraced passes for `seconds`, with the set-up probes spread between them.

    Stops once the minimum number of passes is done and less than half a
    pass of the time is left.
    """
    passes, setups = [], []
    t0 = perf_counter()
    while True:
        passes.append(run_pass(workload, rng))
        while len(setups) < PROBES * min(1.0, (perf_counter() - t0) / seconds):
            setups.append(probe())
        left = seconds - (perf_counter() - t0)
        if len(passes) >= workload.passes_min and left <= passes[-1]["wall"] / 2:
            break
    while len(setups) < PROBES:
        setups.append(probe())
    return passes, setups


def measure_traced(workload, seconds: float, rng: random.Random, tracer) -> tuple[list, list]:
    """Untraced and traced passes alternating, at least two of each."""
    plain, traced = [], []
    t0 = perf_counter()
    while True:
        for on in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            (traced if on else plain).append(run_pass(workload, rng, tracer if on else None))
        left = seconds - (perf_counter() - t0)
        if len(traced) >= 2 and left <= (plain[-1]["wall"] + traced[-1]["wall"]) / 2:
            return plain, traced


def pooled(passes: list[dict], key: str = "scaled") -> list[float]:
    """Every (scaled) call time of the passes, sorted."""
    return sorted(dt for p in passes for dt in p[key].values())


def same(values: list) -> bool:
    return all(v == values[0] for v in values)


DETERMINISTIC = ("search.vertices", "search.edges", "search.nodes", "exactlin.cells",
                 "exactlin.gram_calls", "exactlin.gram_ok_ratio", "setsys.pairs",
                 "cli.stdout_bytes")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="generate the inputs, print perf_counter() and the time of "
                             "the reference loop, and exit")
    args = parser.parse_args(argv)

    if not (SRC / "pifam" / "__init__.py").is_file():
        print(f"error: pifam sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # One core for the run and its children, so that every call, child
        # process included, runs on the core its reference loops ran on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(perf_counter())
            print(statistics.median(workloads.reference_seconds() for _ in range(5)))
            return 0
        rng = random.Random(args.seed)
        tracer = spans.Tracer() if args.trace else None
        if tracer:
            plain, traced = measure_traced(workload, args.seconds, rng, tracer)
        else:
            traced = []
            plain, setups = measure(workload, args.seconds, rng,
                                    lambda: setup_probe(args.workload, args.seed))
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    counters = [{k: v for k, v in p["layers"].items() if k in DETERMINISTIC} for p in traced]
    if not same([p["counters"] for p in passes]) or not same(counters):
        failed += 1
        failures.append("deterministic counters differ between passes")

    calls = pooled(plain)
    walls = [p["scaled_wall"] for p in plain]
    raw = pooled(plain, "latencies")
    per_pass = len(plain[0]["latencies"])
    tail_pct = tail_percentile(per_pass * workload.passes_min)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "src_loc": src_loc(), "passes": len(plain), "traced_passes": len(traced),
        "calls_per_pass": per_pass, "tail_percentile": tail_pct, "tail_samples": len(calls),
        "counters": passes[0]["counters"], "failures": failures[:20],
        "scaled_pass_walls_s": walls,
        "raw_wall_s": statistics.median(sum(p["latencies"].values()) for p in plain),
        "raw_call_p50_ms": statistics.median(raw) * 1e3,
        "raw_call_tail_ms": nearest_rank(raw, tail_pct) * 1e3,
        "reference_loop_ms": statistics.median(
            p["latencies"][k] / p["scaled"][k] * workloads.REFERENCE_S * 1e3
            for p in plain for k in p["scaled"] if p["scaled"][k] > 0),
        "call_times_s": {f"{k[0]}.{k[1]}": [p["latencies"].get(k) for p in plain]
                         for k in plain[0]["latencies"]},
        "scaled_call_times_s": {f"{k[0]}.{k[1]}": [p["scaled"].get(k) for p in plain]
                                for k in plain[0]["scaled"]},
    }
    if args.trace:
        layers = {}
        for key in traced[0]["layers"]:
            values = [p["layers"][key] for p in traced]
            layers[key] = statistics.median(values) if key.endswith("_s") else values[0]
        if "search.nodes" in layers:
            solve = layers["search.solve_s"]
            layers["search.nodes_per_s"] = layers["search.nodes"] / solve if solve > 0 else 0.0
        layers["cli.stdout_bytes"] = passes[0]["counters"].get("cli.stdout_bytes", 0)
        layers["cli.import_s"] = import_seconds()
        layers["trace.overhead_frac"] = (statistics.median(p["scaled_wall"] for p in traced)
                                         / statistics.median(walls) - 1)
        values, wanted = layers, spec["per_layer"]
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"meta": meta, "spans": tracer.spans}))
    else:
        values = {
            "wall_s": statistics.median(walls),
            "call_p50_ms": statistics.median(calls) * 1e3,
            "call_tail_ms": nearest_rank(calls, tail_pct) * 1e3,
            "peak_rss_mb": (max(p["peak_child_kb"] for p in plain) if args.workload == "cli"
                            else own) / 1024,
            "setup_s": statistics.median(setups),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    meta["metrics"] = metrics
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(meta, indent=1))
    print(json.dumps({"meta": {k: v for k, v in meta.items() if not k.endswith("call_times_s")}}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

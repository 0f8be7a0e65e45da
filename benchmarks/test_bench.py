"""Tests of the benchmark itself: its answer table, inputs, checks and tracer.

    python3 -m pytest benchmarks/test_bench.py
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import pifam  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


def test_expected_table_matches_networkx_oracles():
    pytest.importorskip("networkx")
    sys.path.insert(0, str(ROOT / "tests"))
    import oracles

    for n, g in wl.EXPECTED_G.items():
        if n <= 10:  # beyond, the raw subset graph is too large for networkx
            assert oracles.brute_g(n) == g, n
    for n, f in wl.EXPECTED_F.items():
        assert oracles.brute_g(n) + 1 == f, n
    for key, omega in wl.EXPECTED_OMEGA.items():
        assert oracles.brute_johnson_omega(*key) == omega, key


def test_generated_inputs_pass_the_own_predicates():
    for n in wl.HADAMARD_ORDERS:
        fam = wl.hadamard_family(n)
        assert len(fam) == n and wl.is_g_family(n, fam)
    for q in wl.SINGER:
        v = q * q + q + 1
        assert wl.is_symmetric_design(v, q + 1, 1, wl.plane_blocks(q))
        n, fam = wl.dual_plane_family(q)
        assert len(fam) == v + 1 and wl.is_g_family(n, fam)
    rng = random.Random(5)
    fam = wl.relabel(wl.hadamard_family(12), 12, rng)
    assert wl.is_g_family(12, fam)
    assert not wl.is_g_family(12, wl.perturb(fam, 12, rng))


def test_inputs_depend_on_the_seed_only():
    a = wl.certify_inputs(random.Random(3))
    assert a == wl.certify_inputs(random.Random(3))
    assert a != wl.certify_inputs(random.Random(4))


def test_correct_answers_pass(tmp_path):
    rec = wl.Recorder()
    tasks = [wl.g_task(6), wl.f_task(8), wl.johnson_task(9, 3, 1), wl.hadamard_task(12),
             wl.plane_task(7), *(wl.copy_task(*c) for c in wl.certify_inputs(random.Random(1))[:4])]
    tasks += [wl.cli_task(argv, check, in_process=True)
              for argv, check in wl.cli_commands(tmp_path, random.Random(1))]
    rec.run(list(enumerate(tasks)))
    assert rec.failed == 0, rec.failures
    assert rec.attempted == 1 + 1 + 1 + 4 + 2 + 16 + 11


def test_a_wrong_expected_value_trips_failed(monkeypatch, tmp_path):
    monkeypatch.setitem(wl.EXPECTED_G, 6, 4)
    monkeypatch.setitem(wl.EXPECTED_OMEGA, (9, 3, 1), 6)
    work = wl.Workload("t", [wl.g_task(6), wl.johnson_task(9, 3, 1), wl.g_task(8)], 1)
    result = run.run_pass(work, random.Random(0))
    assert (result["attempted"], result["failed"]) == (3, 2)
    cmds = dict((" ".join(a), c) for a, c in wl.cli_commands(tmp_path, random.Random(0)))
    rec = wl.Recorder()
    wl.cli_task("gmax --n 6 --method search --json".split(),
                cmds["gmax --n 6 --method search --json"], in_process=True)(rec)
    assert rec.failed == 1


def test_an_unexpected_exception_is_a_failed_call():
    rec = wl.Recorder()
    with pytest.raises(wl.Abort):
        rec.call(pifam.g_exact, 99, "search")
    rec.call(pifam.dualize_design, pifam.projective_plane(2), raises=pifam.CapacityError)
    assert (rec.attempted, rec.failed) == (2, 2)

    def unreadable(rec):
        rec.call(pifam.g_exact, 6, "search").no_such_field

    rec.run([(0, unreadable), (1, wl.g_task(6))])
    assert (rec.attempted, rec.failed) == (4, 3)


def test_a_call_is_scaled_by_the_reference_loop_around_it(monkeypatch):
    monkeypatch.setattr(wl, "reference_seconds", lambda: 2 * wl.REFERENCE_S)
    rec = wl.Recorder()
    rec.run([(0, wl.g_task(6)), (1, wl.johnson_task(9, 3, 1))])
    assert rec.failed == 0 and set(rec.scaled) == set(rec.latencies) == {(0, 1), (1, 1)}
    for key, seconds in rec.latencies.items():
        assert rec.scaled[key] == pytest.approx(seconds / 2)


def small_workload(seed: int) -> wl.Workload:
    rng = random.Random(seed)
    tasks = [wl.g_task(6), wl.g_task(8), wl.johnson_task(9, 3, 1), wl.hadamard_task(12),
             wl.sweep_task, *(wl.copy_task(*c) for c in wl.certify_inputs(rng)[:6])]
    return wl.Workload("small", tasks, 1)


def test_deterministic_counters_repeat_across_runs_and_seeds():
    seen = []
    for seed in (1, 2, 1):
        tracer = spans.Tracer()
        layers = run.run_pass(small_workload(seed), random.Random(seed), tracer)["layers"]
        seen.append({k: layers[k] for k in run.DETERMINISTIC if k in layers})
    assert seen[0] == seen[1] == seen[2]
    assert seen[0]["search.nodes"] == 302 + 2 + 648
    assert seen[0]["exactlin.gram_calls"] == 1 + 6
    assert set(seen[0]) == set(run.DETERMINISTIC) - {"cli.stdout_bytes"}


def test_tracer_restores_the_package():
    originals = (pifam.g_exact, pifam.search.max_clique, pifam.search.hadamard_matrix,
                 pifam.search.PowerSetGraphOracle.build_graph)
    tracer = spans.Tracer()
    tracer.install()
    assert pifam.g_exact is not originals[0]
    assert pifam.search.hadamard_matrix is pifam.construct.hadamard_matrix
    tracer.uninstall()
    assert originals == (pifam.g_exact, pifam.search.max_clique, pifam.search.hadamard_matrix,
                         pifam.search.PowerSetGraphOracle.build_graph)


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer()
    tracer.installed = {"search.g_exact", spans.BUILD, "construct.hadamard_matrix"}
    tracer.spans = [
        ["search.g_exact", 0.0, 10.0, -1, 1, None],
        [spans.BUILD, 1.0, 4.0, 0, 1, None],
        ["construct.hadamard_matrix", 5.0, 6.0, 0, 1, None],
        ["construct.hadamard_matrix", 5.2, 5.7, 2, 1, None],
    ]
    out = tracer.layer_metrics(0)
    assert out["search.solve_s"] == 6.0
    assert out["search.build_s"] == 3.0
    assert out["construct.hadamard_s"] == 1.0


def test_a_removed_public_function_makes_its_metrics_absent(monkeypatch):
    for name in spans.LAYERS["exactlin"]:
        monkeypatch.delattr(pifam.exactlin, name)
    monkeypatch.delattr(pifam.search, "conjecture_sweep")
    tracer = spans.Tracer()
    tracer.install()
    try:
        pifam.is_valid_g_family(pifam.hadamard_family(pifam.hadamard_matrix(8)))
    finally:
        tracer.uninstall()
    out = tracer.layer_metrics(0)
    for name in ("exactlin.gram_s", "exactlin.gram_calls", "exactlin.cells",
                 "exactlin.gram_ok_ratio", "construct.sweep_s"):
        assert name not in out
    assert out["setsys.pairs"] == 2 * 28  # inside hadamard_family, then the outer call


def test_tail_percentile_keeps_ten_calls_beyond():
    assert run.tail_percentile(27) == 62
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(7 * 153) == 99
    values = sorted(range(1, 101))
    assert run.nearest_rank(values, 50) == 50 and run.nearest_rank(values, 90) == 90


def test_without_the_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "graph", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""

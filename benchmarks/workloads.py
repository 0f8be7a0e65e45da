"""Workloads of the pifam benchmark: seeded inputs, the calls, and answer checks.

Every answer is checked by predicates restated here, independently of the
package: the expected g/f/omega table (cross-checked against the networkx
oracles in tests/oracles.py by test_bench.py), the independence relation
n*|A&B| == |A|*|B|, Hadamard row orthogonality and the symmetric-design
axioms.  The input families are built here too (Sylvester and Paley
Hadamard families, duals of Singer-difference-set planes), then relabelled
and perturbed from the seed, so the package only ever receives generated
inputs.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import pifam
import pifam.cli

SRC = Path(__file__).resolve().parents[1] / "src"

EXPECTED_G = {4: 4, 6: 3, 8: 8, 9: 8, 10: 3, 12: 12}
EXPECTED_F = {8: 9}
EXPECTED_OMEGA = {
    (9, 3, 1): 7,
    (10, 4, 2): 7,
    (11, 4, 2): 7,
    (13, 3, 1): 7,
    (14, 7, 1): 2,
    (12, 6, 1): 2,
    (10, 5, 1): 2,
}
# orders 4..60 covered by a Sylvester (2^k) or Paley (q+1, prime q = 3 mod 4) generator
HADAMARD_ORDERS = (4, 8, 12, 16, 20, 24, 32, 44, 48, 60)
# perfect difference sets mod q^2+q+1: their translates are the lines of a plane of order q
SINGER = {2: (0, 1, 3), 3: (0, 1, 3, 9), 5: (0, 1, 3, 8, 12, 18)}
PLANE_ORDERS = (2, 3, 5, 7)  # q=7 dualizes to n=64, past the 63-point limit
SWEEP_OPEN = frozenset({28, 36, 40, 52, 56, 64})

CLI_BOOT = "import sys; from pifam.cli import main; sys.exit(main())"


# ---------------------------------------------------------------- predicates

def independent(n: int, a: int, b: int) -> bool:
    return n * (a & b).bit_count() == a.bit_count() * b.bit_count()


def is_g_family(n: int, masks) -> bool:
    """Distinct nonempty events inside {1..n}, pairwise independent."""
    masks = list(masks)
    full = (1 << n) - 1
    return (
        len(set(masks)) == len(masks)
        and all(0 < m <= full for m in masks)
        and all(independent(n, a, b) for a, b in itertools.combinations(masks, 2))
    )


def is_clique(n: int, r: int, s: int, masks) -> bool:
    """Distinct r-subsets of {1..n} meeting pairwise in exactly s points."""
    masks = list(masks)
    return (
        len(set(masks)) == len(masks)
        and all(0 < m < 1 << n and m.bit_count() == r for m in masks)
        and all((a & b).bit_count() == s for a, b in itertools.combinations(masks, 2))
    )


def is_symmetric_design(v: int, k: int, lam: int, blocks) -> bool:
    """v blocks of size k inside {1..v} meeting pairwise in lam points."""
    blocks = list(blocks)
    return (
        len(blocks) == v
        and lam * (v - 1) == k * (k - 1)
        and all(0 <= b < 1 << v and b.bit_count() == k for b in blocks)
        and all((a & b).bit_count() == lam for a, b in itertools.combinations(blocks, 2))
    )


def is_hadamard(rows, n: int) -> bool:
    """n rows of n entries +1/-1, pairwise orthogonal."""
    if len(rows) != n or any(len(r) != n or any(x not in (1, -1) for x in r) for r in rows):
        return False
    plus = [sum(1 << j for j, x in enumerate(r) if x == 1) for r in rows]
    return all((a ^ b).bit_count() * 2 == n for a, b in itertools.combinations(plus, 2))


def points_mask(points) -> int:
    return sum(1 << (p - 1) for p in points)


def mask_points(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


# ---------------------------------------------------------------- inputs

def sylvester_family(n: int) -> list[int]:
    """For x != 0 the points y with even <x,y>, plus the full space."""
    return [
        sum(1 << y for y in range(n) if (x & y).bit_count() % 2 == 0) for x in range(1, n)
    ] + [(1 << n) - 1]


def paley_family(n: int) -> list[int]:
    """Translates of the quadratic residues mod q = n-1, each plus point n, plus the full space."""
    q = n - 1
    residues = {i * i % q for i in range(1, q)}
    return [
        sum(1 << (i + r) % q for r in residues) | 1 << q for i in range(q)
    ] + [(1 << n) - 1]


def hadamard_family(n: int) -> list[int]:
    return sylvester_family(n) if n & (n - 1) == 0 else paley_family(n)


def plane_blocks(q: int) -> list[int]:
    v = q * q + q + 1
    return [sum(1 << (d + j) % v for d in SINGER[q]) for j in range(v)]


def dual_plane_family(q: int) -> tuple[int, list[int]]:
    """Point p -> the lines through it, on n = (q+1)^2 points, plus the full space."""
    v = q * q + q + 1
    n = (q + 1) ** 2
    events = [sum(1 << (p - d) % v for d in SINGER[q]) for p in range(v)]
    return n, events + [(1 << n) - 1]


def relabel(masks: list[int], n: int, rng: random.Random) -> list[int]:
    """Apply a random permutation of the points and shuffle the events."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [sum(1 << perm[i] for i in range(n) if m >> i & 1) for m in masks]
    rng.shuffle(out)
    return out


def perturb(masks: list[int], n: int, rng: random.Random) -> list[int]:
    """Toggle one point of one event so that pairwise independence breaks."""
    while True:
        i = rng.randrange(len(masks))
        m = masks[i] ^ 1 << rng.randrange(n)
        out = masks[:i] + [m] + masks[i + 1:]
        if m and m not in masks and not is_g_family(n, out):
            return out


def family_json(n: int, masks: list[int]) -> dict:
    return {"n": n, "events": [mask_points(m) for m in masks]}


def design_json(v: int, k: int, lam: int, blocks: list[int]) -> dict:
    return {"v": v, "k": k, "lambda": lam, "blocks": [mask_points(b) for b in blocks]}


def certify_inputs(rng: random.Random) -> list[tuple[int, str, bool]]:
    """(n, family JSON text, perturbed?) for a relabelled and a perturbed copy of each family."""
    bases = [(n, hadamard_family(n)) for n in HADAMARD_ORDERS]
    bases += [dual_plane_family(q) for q in sorted(SINGER)]
    out = []
    for n, masks in bases:
        if not is_g_family(n, masks):
            raise RuntimeError(f"benchmark input family on n={n} is not pairwise independent")
        out.append((n, json.dumps(family_json(n, relabel(masks, n, rng))), False))
        bad = perturb(relabel(masks, n, rng), n, rng)
        out.append((n, json.dumps(family_json(n, bad)), True))
    return out


# ---------------------------------------------------------------- recording

# On a shared host, other tenants switch this machine's cores between a fast
# and a 1.4-2x slower state for seconds to minutes at a time, so raw times
# follow the share of slow stretches in a run.  A fixed pure-Python loop timed
# just before and just after a call runs in the same state as the call; a
# call's time divided by the loop's time is free of that state.
REFERENCE_S = 4e-4  # scaled times are those of a core on which reference_loop takes 0.4 ms


def reference_loop() -> int:
    """Fixed integer, bit and dict work, independent of pifam."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(2000):
        key = (i * 40503) & 1023
        table[key] = table.get(key, 0) ^ i
        acc += (key | i).bit_count()
    return acc + len(table)


def reference_seconds() -> float:
    """The fastest of three runs of the loop, which leaves out a cold cache or an interrupt."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        reference_loop()
        best = min(best, perf_counter() - t0)
    return best


class Abort(Exception):
    """A call raised unexpectedly; the rest of its task is skipped."""


@dataclass
class Recorder:
    """Times the calls of one pass and counts the calls whose output fails a check.

    A call's latency is keyed by (task, ordinal within the task), which
    names the same call in every pass whatever the shuffled task order.
    `scaled` holds each latency times REFERENCE_S over the mean time of the
    reference loop run just before and just after the call.
    """

    tracer: object = None
    latencies: dict[tuple[int, int], float] = field(default_factory=dict)
    scaled: dict[tuple[int, int], float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    peak_child_kb: int = 0
    task: int = 0
    _ordinal: int = 0
    _marked: bool = True

    def call(self, fn: Callable, *args, raises: type[BaseException] | None = None):
        self.attempted += 1
        self._marked = False
        self._ordinal += 1
        key = (self.task, self._ordinal)
        if self.tracer is not None:
            self.tracer.call_id += 1
        before = reference_seconds()
        t0 = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:
            self._record(key, perf_counter() - t0, before)
            if raises is not None and isinstance(exc, raises):
                return exc
            self.fail(f"{getattr(fn, '__name__', fn)}{args!r:.80} raised {exc!r}")
            raise Abort from exc
        self._record(key, perf_counter() - t0, before)
        if raises is not None:
            self.fail(f"{getattr(fn, '__name__', fn)}{args!r:.80} did not raise {raises.__name__}")
        return result

    def _record(self, key: tuple[int, int], seconds: float, before: float) -> None:
        self.latencies[key] = seconds
        self.scaled[key] = seconds * REFERENCE_S / ((before + reference_seconds()) / 2)

    def run(self, tasks: list[tuple[int, Task]]) -> None:
        """Run (index, task) pairs in the given order; a task that raises counts as failed."""
        for i, task in tasks:
            self.task, self._ordinal = i, 0
            try:
                task(self)
            except Abort:
                pass
            except Exception as exc:  # a check could not read the output it was given
                self.fail(f"task {i}: {exc!r}")

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        if not self._marked:
            self.failed += 1
            self._marked = True
            self.failures.append(what)

    def count(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + value


# ---------------------------------------------------------------- tasks

Task = Callable[[Recorder], None]


def g_task(n: int) -> Task:
    def task(rec: Recorder) -> None:
        res = rec.call(pifam.g_exact, n, "search")
        rec.check(
            res.size == EXPECTED_G[n] and res.optimal and len(res.witness) == res.size
            and is_g_family(n, res.witness),
            f"g_exact({n}) gave {res.size}, expected {EXPECTED_G[n]} with a valid witness",
        )
    return task


def f_task(n: int) -> Task:
    def task(rec: Recorder) -> None:
        res = rec.call(pifam.f_exact, n, "search")
        w = list(res.witness)
        rec.check(
            res.size == EXPECTED_F[n] and res.optimal and len(w) == res.size
            and w.count(0) == 1 and is_g_family(n, [m for m in w if m]),
            f"f_exact({n}) gave {res.size}, expected {EXPECTED_F[n]} with a valid witness",
        )
    return task


def johnson_task(n: int, r: int, s: int) -> Task:
    def task(rec: Recorder) -> None:
        res = rec.call(pifam.johnson_omega, n, r, s)
        want = EXPECTED_OMEGA[n, r, s]
        rec.check(
            res.size == want and res.optimal and len(res.witness) == want
            and is_clique(n, r, s, res.witness),
            f"johnson_omega{(n, r, s)} gave {res.size}, expected {want} with a valid witness",
        )
    return task


def hadamard_task(n: int) -> Task:
    def task(rec: Recorder) -> None:
        h = rec.call(pifam.hadamard_matrix, n)
        rec.check(is_hadamard(h.rows, n), f"hadamard_matrix({n}) is not Hadamard")
        d = rec.call(pifam.hadamard_to_design, h)
        rec.check(
            (d.v, d.k, d.lam) == (n - 1, n // 2 - 1, n // 4 - 1)
            and is_symmetric_design(d.v, d.k, d.lam, d.blocks),
            f"hadamard_to_design at order {n} is not a symmetric 2-design",
        )
        fam = rec.call(pifam.hadamard_family, h)
        masks = fam.masks()
        rec.check(
            fam.space.n == n and len(masks) == n and is_g_family(n, masks),
            f"hadamard_family at order {n} is not {n} independent events",
        )
        rep = rec.call(pifam.gram_certify, fam)
        rec.check(
            rep.gram_ok and rep.full_column_rank and (rep.n, rep.t, rep.rank) == (n, n, n),
            f"gram_certify at order {n} gave {rep.to_dict()}",
        )
    return task


def plane_task(q: int) -> Task:
    def task(rec: Recorder) -> None:
        d = rec.call(pifam.projective_plane, q)
        v = q * q + q + 1
        rec.check(
            (d.v, d.k, d.lam) == (v, q + 1, 1) and is_symmetric_design(v, q + 1, 1, d.blocks),
            f"projective_plane({q}) is not a 2-({v},{q + 1},1) design",
        )
        if q not in SINGER:
            rec.call(pifam.dualize_design, d, raises=pifam.CapacityError)
            return
        fam = rec.call(pifam.dualize_design, d)
        n = (q + 1) ** 2
        rec.check(
            fam.space.n == n and len(fam) == v + 1 and is_g_family(n, fam.masks()),
            f"dualize_design(plane {q}) is not {v + 1} independent events on {n} points",
        )
    return task


def sweep_task(rec: Recorder) -> None:
    rows = rec.call(pifam.conjecture_sweep, 64)
    got = [(r.n, r.g, r.verdict) for r in rows]
    want = [(n, None, "OPEN") if n in SWEEP_OPEN else (n, n, "HOLDS") for n in range(4, 65, 4)]
    rec.check(got == want, f"conjecture_sweep(64) rows {got}")


def copy_task(n: int, text: str, perturbed: bool) -> Task:
    def task(rec: Recorder) -> None:
        data = json.loads(text)
        t = len(data["events"])
        fam = rec.call(pifam.family_from_dict, data)
        rec.check(len(fam) == t, f"family_from_dict lost events on n={n}")
        back = rec.call(pifam.family_to_dict, fam)
        rec.check(back == data, f"JSON round trip changed a family on n={n}")
        valid = rec.call(pifam.is_valid_g_family, fam)
        rec.check(valid is not perturbed, f"is_valid_g_family={valid} on n={n}, perturbed={perturbed}")
        rep = rec.call(pifam.gram_certify, fam)
        rank_ok = rep.rank == t if not perturbed else 1 <= rep.rank <= min(n, t)
        rec.check(
            rep.gram_ok is not perturbed and (rep.n, rep.t) == (n, t) and rank_ok,
            f"gram_certify on n={n}, perturbed={perturbed} gave {rep.to_dict()}",
        )
    return task


# ---------------------------------------------------------------- the CLI

def run_cli(argv: list[str]) -> tuple[int, bytes, int]:
    """One `pifam` command in a fresh interpreter, as the console script runs it.

    Returns the exit code, the standard output and the child's peak RSS in KiB.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with subprocess.Popen([sys.executable, "-c", CLI_BOOT, *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as proc:
        watchdog = threading.Timer(120, proc.kill)
        watchdog.start()
        try:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout, usage.ru_maxrss


def main_in_process(argv: list[str]) -> tuple[int, bytes, int]:
    """The same command through pifam.cli.main in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pifam.cli.main(argv)
    return code, out.getvalue().encode(), 0


def _json_or_none(stdout: bytes):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def gmax_check(n: int, method: str) -> Callable[[int, bytes], bool]:
    def check(code: int, stdout: bytes) -> bool:
        out = _json_or_none(stdout)
        if code != 0 or not isinstance(out, dict):
            return False
        w = out.get("witness", {})
        masks = [points_mask(e) for e in w.get("events", [])]
        g = EXPECTED_G[n]
        return (
            (out.get("n"), out.get("g"), out.get("f"), out.get("optimal"), out.get("method"))
            == (n, g, g + 1, True, method)
            and w.get("n") == n and len(masks) == g and is_g_family(n, masks)
        )
    return check


def verify_check(t: int, perturbed: bool) -> Callable[[int, bytes], bool]:
    def check(code: int, stdout: bytes) -> bool:
        if perturbed:
            return code == 1 and stdout.startswith(b"FAIL: ")
        return code == 0 and stdout.startswith(f"PASS: {t} nonempty".encode())
    return check


def gram_check(n: int, t: int, perturbed: bool) -> Callable[[int, bytes], bool]:
    def check(code: int, stdout: bytes) -> bool:
        out = _json_or_none(stdout)
        if code != 0 or not isinstance(out, dict):
            return False
        if perturbed:
            return out.get("gram_ok") is False and (out.get("n"), out.get("t")) == (n, t)
        return (out.get("gram_ok"), out.get("rank"), out.get("t"), out.get("n"),
                out.get("full_column_rank")) == (True, t, t, n, True)
    return check


def design_check(v: int, k: int) -> Callable[[int, bytes], bool]:
    def check(code: int, stdout: bytes) -> bool:
        lines = stdout.decode().splitlines()
        return (
            code == 0 and bool(lines) and lines[-1] == "PASS"
            and lines[0] == f"design: 2-({v},{k},1), {v} blocks"
        )
    return check


def johnson_check(n: int, r: int, s: int) -> Callable[[int, bytes], bool]:
    def check(code: int, stdout: bytes) -> bool:
        out = _json_or_none(stdout)
        if code != 0 or not isinstance(out, dict):
            return False
        masks = [points_mask(p) for p in out.get("witness", [])]
        want = EXPECTED_OMEGA[n, r, s]
        bound = want + 2 if n * s == r * r else None
        return (
            out.get("size") == want and out.get("optimal") is True
            and out.get("f_lower_bound") == bound and is_clique(n, r, s, masks)
        )
    return check


def cli_commands(workdir: Path, rng: random.Random) -> list[tuple[list[str], Callable]]:
    """The commands of one cli pass, with the files they read written to workdir."""
    n = 12
    fam = relabel(hadamard_family(n), n, rng)
    bad = perturb(relabel(hadamard_family(n), n, rng), n, rng)
    q, v = 3, 13
    plane = relabel(plane_blocks(q), v, rng)
    if not (is_g_family(n, fam) and is_symmetric_design(v, q + 1, 1, plane)):
        raise RuntimeError("benchmark CLI inputs failed their own checks")
    files = {
        "family.json": family_json(n, fam),
        "perturbed.json": family_json(n, bad),
        "plane.json": design_json(v, q + 1, 1, plane),
    }
    for name, data in files.items():
        (workdir / name).write_text(json.dumps(data))
    good, pert, des = (str(workdir / name) for name in files)
    cmds = [
        ([*f"gmax --n {k} --method search --json".split()], gmax_check(k, "search-exhaustive"))
        for k in (4, 6, 8, 9)
    ]
    cmds += [
        ("gmax --n 12 --json".split(), gmax_check(12, "construction-plus-bound")),
        (["family", "verify", good], verify_check(n, False)),
        (["family", "verify", pert], verify_check(n, True)),
        (["family", "gram", good], gram_check(n, n, False)),
        (["family", "gram", pert], gram_check(n, n, True)),
        (["design", "check", des], design_check(v, q + 1)),
        ("johnson --n 9 --r 3 --s 1 --json".split(), johnson_check(9, 3, 1)),
    ]
    return cmds


def cli_task(argv: list[str], check: Callable[[int, bytes], bool], in_process: bool) -> Task:
    def task(rec: Recorder) -> None:
        if in_process:
            code, stdout, _ = rec.call(main_in_process, argv)
        else:
            with rec.tracer.region("cli.process") if rec.tracer else contextlib.nullcontext():
                code, stdout, rss = rec.call(run_cli, argv)
            rec.count("cli.stdout_bytes", len(stdout))
            rec.peak_child_kb = max(rec.peak_child_kb, rss)
        rec.check(check(code, stdout), f"pifam {' '.join(argv)} exited {code}: {stdout[:200]!r}")
    return task


# ---------------------------------------------------------------- workloads

@dataclass
class Workload:
    """The tasks of one pass.  A run repeats passes, each in a new seeded order,
    for at least `passes_min` passes; `traced_extra` runs after each traced pass,
    outside its timing."""

    name: str
    tasks: list[Task]
    passes_min: int
    traced_extra: list[Task] = field(default_factory=list)


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the inputs of workload `name` from `seed`."""
    rng = random.Random(seed)
    if name == "bnb":
        tasks = [johnson_task(*k) for k in ((9, 3, 1), (10, 4, 2), (11, 4, 2), (13, 3, 1))]
        tasks += [g_task(8), g_task(9), f_task(8)]
        # 7 calls and 6 passes make the tail p76, inside the second slowest call's times
        return Workload(name, tasks, passes_min=6)
    if name == "graph":
        tasks = [g_task(10), g_task(6)]
        tasks += [johnson_task(*k) for k in ((14, 7, 1), (12, 6, 1), (10, 5, 1))]
        # 5 calls and 14 passes make the tail p85, inside the slowest call's times
        return Workload(name, tasks, passes_min=14)
    if name == "certify":
        tasks = [hadamard_task(n) for n in HADAMARD_ORDERS]
        tasks += [plane_task(q) for q in PLANE_ORDERS] + [sweep_task]
        tasks += [copy_task(*c) for c in certify_inputs(rng)]
        # 153 calls and 7 passes make the tail p99, among the gram_certify(n=60) calls
        return Workload(name, tasks, passes_min=7)
    if name == "cli":
        cmds = cli_commands(workdir, rng)
        # 11 commands and 7 passes make the tail p87, inside the second slowest command's times
        return Workload(
            name,
            [cli_task(argv, check, False) for argv, check in cmds],
            passes_min=7,
            traced_extra=[cli_task(argv, check, True) for argv, check in cmds],
        )
    raise ValueError(f"unknown workload {name!r}")


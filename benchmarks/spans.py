"""Span tracer for the pifam benchmark, installed from outside the package.

`Tracer.install` replaces each public function listed in LAYERS, in every
loaded pifam module that binds it, by a wrapper that records a span
[name, start, end, parent, call id, payload].  Spans stay in memory and are
written out when the run ends.  A layer's self time is the duration of its
spans minus the time their child spans cover.  A function that the package
no longer has is skipped, and the metrics that need it are absent.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
from time import perf_counter

# the public entry points of each module; per-element helpers such as
# is_independent or points_to_mask are left out, their cost stays in the caller
LAYERS = {
    "setsys": ("family_from_dict", "family_to_dict", "is_valid_g_family",
               "is_pairwise_independent"),
    "exactlin": ("gram_certify", "incidence", "rank"),
    "construct": ("hadamard_matrix", "sylvester", "paley1", "normalize",
                  "hadamard_to_design", "check_design", "validate_design",
                  "projective_plane", "design_from_dict", "hadamard_family",
                  "dualize_design"),
    "search": ("g_exact", "f_exact", "johnson_omega", "max_clique", "conjecture_sweep"),
    "cli": ("main",),
}
GRAPH_ORACLES = ("PowerSetGraphOracle", "JohnsonGraphOracle")  # search.<class>.build_graph
BUILD = "search.build_graph"

# span name -> the per-layer metric its self time counts toward
SELF_TIME = {
    BUILD: "search.build_s",
    **{f"search.{f}": "search.solve_s" for f in LAYERS["search"]},
    **{f"construct.{f}": "construct.hadamard_s"
       for f in ("hadamard_matrix", "sylvester", "paley1", "normalize")},
    **{f"construct.{f}": "construct.design_s"
       for f in ("hadamard_to_design", "check_design", "validate_design",
                 "projective_plane", "design_from_dict")},
    **{f"construct.{f}": "construct.family_s" for f in ("hadamard_family", "dualize_design")},
    **{f"exactlin.{f}": "exactlin.gram_s" for f in LAYERS["exactlin"]},
    "setsys.family_from_dict": "setsys.parse_s",
    "setsys.family_to_dict": "setsys.parse_s",
    "setsys.is_valid_g_family": "setsys.verify_s",
    "setsys.is_pairwise_independent": "setsys.verify_s",
}
# spans whose arguments and result the counters read
KEEP = {BUILD, "exactlin.gram_certify", "setsys.is_valid_g_family",
        *(f"search.{f}" for f in LAYERS["search"])}

NAME, START, END, PARENT, CALL, PAYLOAD = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.call_id = 0
        self.installed: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _run(self, name: str, fn, args, kwargs):
        with self.region(name) as span:
            result = fn(*args, **kwargs)
        if name in KEEP:
            span[PAYLOAD] = (args, result)
        return result

    @contextlib.contextmanager
    def region(self, name: str):
        """A span around a block of code; yields the span record."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.call_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        try:
            yield span
        finally:
            span[END] = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._run(name, fn, args, kwargs)
        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "pifam" or k.startswith("pifam."))]
        for layer, names in LAYERS.items():
            mod = sys.modules.get(f"pifam.{layer}")
            for fname in names:
                orig = getattr(mod, fname, None)
                if orig is None:
                    continue
                self.installed.add(f"{layer}.{fname}")
                traced = self._wrap(f"{layer}.{fname}", orig)
                for m in modules:
                    for attr in [a for a, v in vars(m).items() if v is orig]:
                        self._undo.append((m, attr, orig))
                        setattr(m, attr, traced)
        search = sys.modules.get("pifam.search")
        for cls_name in GRAPH_ORACLES:
            cls = getattr(search, cls_name, None)
            orig = getattr(cls, "__dict__", {}).get("build_graph")
            if orig is None:
                continue
            self.installed.add(BUILD)
            self._undo.append((cls, "build_graph", orig))
            setattr(cls, "build_graph", self._wrap(BUILD, orig))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def layer_metrics(self, first: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since index `first`.

        Drops the kept arguments and results once counted, so memory stays
        flat across passes.  Metrics whose functions were not installed are
        absent; installed but unused ones read 0.
        """
        spans = self.spans[first:]
        covered = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= first:
                covered[s[PARENT] - first] += s[END] - s[START]
        out: dict[str, float] = {m: 0.0 for n, m in SELF_TIME.items() if n in self.installed}
        for s, cov in zip(spans, covered):
            metric = SELF_TIME.get(s[NAME])
            if metric is not None:
                out[metric] += s[END] - s[START] - cov

        def under(s, prefix: str) -> bool:
            p = s[PARENT]
            while p >= first:
                if self.spans[p][NAME].startswith(prefix):
                    return True
                p = self.spans[p][PARENT]
            return False

        def kept(name: str) -> list[tuple]:
            return [s[PAYLOAD] for s in spans if s[NAME] == name and s[PAYLOAD] is not None]

        if BUILD in self.installed:
            graphs = [result for _, result in kept(BUILD)]
            if all(hasattr(g, "cand") and hasattr(g, "adj") for g in graphs):
                out["search.vertices"] = sum(len(g.cand) for g in graphs)
                out["search.edges"] = sum(sum(a.bit_count() for a in g.adj) for g in graphs) // 2
        if "search.solve_s" in out:
            out["search.nodes"] = sum(
                getattr(s[PAYLOAD][1], "nodes_explored", 0) for s in spans
                if s[NAME] in KEEP and s[NAME].startswith("search.") and s[NAME] != BUILD
                and s[PAYLOAD] is not None and not under(s, "search.")
            )
        if "search.conjecture_sweep" in self.installed:
            out["construct.sweep_s"] = sum(
                (s[END] - s[START] for s in spans
                 if s[NAME] == "search.conjecture_sweep" and not under(s, "search.")),
                0.0,
            )
        if "exactlin.gram_certify" in self.installed:
            grams = kept("exactlin.gram_certify")
            out["exactlin.gram_calls"] = len(grams)
            out["exactlin.cells"] = sum(a[0].space.n * len(a[0]) ** 2 for a, _ in grams)
            ok = sum(1 for _, r in grams if r.gram_ok)
            out["exactlin.gram_ok_ratio"] = ok / len(grams) if grams else 0.0
        if "setsys.is_valid_g_family" in self.installed:
            sizes = [len(a[0]) for a, _ in kept("setsys.is_valid_g_family")]
            out["setsys.pairs"] = sum(t * (t - 1) // 2 for t in sizes)
        if "cli.main" in self.installed:
            mains = [s[END] - s[START] for s in spans if s[NAME] == "cli.main"]
            out["cli.main_s"] = statistics.fmean(mains) if mains else 0.0
        procs = [s[END] - s[START] for s in spans if s[NAME] == "cli.process"]
        out["cli.process_s"] = statistics.fmean(procs) if procs else 0.0
        for s in spans:
            s[PAYLOAD] = None
        return out

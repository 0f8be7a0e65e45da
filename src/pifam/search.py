"""Exact maximum-clique search over independence graphs.

g(n) is the clique number of the graph on nonempty subsets of {1..n}
with edges where n|A∩B| = |A||B|; f(n) = g(n) + 1 is the clique number
of the same graph over all subsets (the empty set joins for free).

`max_clique` searches the candidate graph of each root of a graph oracle
(see `pifam.graphs`) with a deterministic branch-and-bound with
greedy-coloring upper bounds over bitset adjacency rows.  One incumbent
is kept across the roots, and the search stops as soon as it meets a
proven upper bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Any, Sequence

from .construct import _is_prime, hadamard_family, hadamard_matrix, projective_plane
from .graphs import JohnsonGraphOracle, PowerSetGraphOracle
from .setsys import (
    CapacityError,
    CertificateError,
    ParameterError,
    SampleSpace,
    mask_to_points,
)

SEARCH_MAX_N = 16     # exhaustive g/f search capacity


@dataclass(frozen=True)
class CliqueResult:
    """A clique plus the evidence trail of the search that produced it."""

    size: int
    witness: tuple[int, ...]   # events as point bitmasks
    optimal: bool
    nodes_explored: int
    method: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "size": self.size,
            "optimal": self.optimal,
            "witness": [list(mask_to_points(v)) for v in self.witness],
            "nodes_explored": self.nodes_explored,
            "method": self.method,
        }


def _color_sort(p: int, adj: list[int]) -> tuple[list[int], list[int]]:
    """Greedy coloring of the candidate set; vertices in ascending color."""
    order: list[int] = []
    colors: list[int] = []
    color = 0
    rest = p
    while rest:
        color += 1
        avail = rest
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            order.append(v)
            colors.append(color)
            rest ^= low
            avail = (avail ^ low) & ~adj[v]
    return order, colors


def _branch_and_bound(
    adj: list[int], lower: int, cap: int | None
) -> tuple[int, int, int]:
    """Largest clique strictly above `lower`, stopping early at `cap`.

    Returns (best size, best clique bitset, expand calls).  A result of
    `lower` with an empty bitset means nothing better was found.
    """
    m = len(adj)
    best = lower
    best_bits = 0
    nodes = 0
    done = False

    def expand(size: int, rbits: int, p: int) -> None:
        nonlocal best, best_bits, nodes, done
        nodes += 1
        order, colors = _color_sort(p, adj)
        for idx in range(len(order) - 1, -1, -1):
            if done:
                return
            if size + colors[idx] <= best:
                return
            v = order[idx]
            bit = 1 << v
            p ^= bit
            r2 = rbits | bit
            if size + 1 > best:
                best = size + 1
                best_bits = r2
                if cap is not None and best >= cap:
                    done = True
                    return
            nxt = p & adj[v]
            if nxt:
                expand(size + 1, r2, nxt)

    if m:
        expand(0, 0, (1 << m) - 1)
    return best, best_bits, nodes


def max_clique(
    oracle: Any,
    upper_bound: int | None = None,
    seed_clique: Sequence[int] | None = None,
) -> CliqueResult:
    """Exact maximum clique over a graph oracle.

    Searches the candidate graph of each of `oracle.roots()` in turn,
    keeping one incumbent across them.  `upper_bound`, when given, must be
    a valid bound on the clique number; the search stops with optimal=True
    as soon as the incumbent reaches it (this is how a construction meeting
    a proven bound turns into an instant optimality certificate).
    `seed_clique` primes the incumbent and must be pairwise adjacent.  The
    method is "bound-met-by-seed" when the seed alone reaches the bound,
    "bound-met-by-search" when the search does, else "branch-and-bound".
    The returned witness is re-verified through the oracle before
    returning, independently of the search internals; a seed witness was
    already checked pair by pair on the way in.
    """
    seed = tuple(seed_clique) if seed_clique else ()
    if len(set(seed)) != len(seed):
        raise ParameterError("seed clique repeats a vertex")
    for v in seed:
        if not oracle.contains_vertex(v):
            raise ParameterError(f"seed vertex {v} is not a vertex of this graph")
    for a, b in itertools.combinations(seed, 2):
        if not oracle.adjacent(a, b):
            raise ParameterError(f"seed clique is not pairwise adjacent: {a} vs {b}")

    def met(size: int) -> bool:
        return upper_bound is not None and size >= upper_bound

    best = seeded = list(seed)
    nodes = 0

    def finish(method: str) -> CliqueResult:
        if best is seeded:  # its pairs were checked above
            return CliqueResult(len(best), tuple(best), True, nodes, method)
        return _verified(oracle, best, True, nodes, method)

    if met(len(best)):
        return finish("bound-met-by-seed")
    for root in oracle.roots():
        graph = oracle.build_graph(root)
        base = list(graph.prefix)
        if len(base) > len(best):
            best = base
        if graph.cand and not met(len(best)):
            cap = None if upper_bound is None else upper_bound - len(base)
            size, bits, used = _branch_and_bound(graph.adj, len(best) - len(base), cap)
            nodes += used
            if len(base) + size > len(best):
                best = base + sorted(v for i, v in enumerate(graph.cand) if bits >> i & 1)
        if met(len(best)):
            return finish("bound-met-by-search")
    return finish("branch-and-bound")


def _verified(
    oracle: Any, witness: list[int], optimal: bool, nodes: int, method: str
) -> CliqueResult:
    for a, b in itertools.combinations(witness, 2):
        if not oracle.adjacent(a, b):
            raise CertificateError(f"witness fails adjacency: {a} vs {b}")
    return CliqueResult(len(witness), tuple(witness), optimal, nodes, method)


def _try_hadamard_family(n: int):
    """Witness family from a Hadamard generator covering order n, else None."""
    if n < 4 or n % 4 != 0 or n > 63:
        return None
    try:
        h = hadamard_matrix(n)
    except CapacityError:
        return None
    return hadamard_family(h)


def g_exact(n: int, method: str = "auto") -> CliqueResult:
    """Maximum size of a pairwise-independent family of nonempty events
    on {1..n}, with witness.

    method="construct" demands a Hadamard-pipeline witness meeting the
    bound g(n) <= n; method="search" runs exhaustive branch-and-bound
    (n <= 16); "auto" prefers the construction and falls back to search.
    """
    if method not in ("auto", "search", "construct"):
        raise ParameterError(f"unknown method {method!r}; use search, construct, or auto")
    space = SampleSpace(n)
    family = None
    if method in ("auto", "construct"):
        family = _try_hadamard_family(n)
    if method == "construct" or (method == "auto" and family is not None):
        if family is None:
            raise CapacityError(
                f"no Hadamard generator covers n={n} (needs 4 | n and a Sylvester or "
                f"Paley order); use method='search' for n <= {SEARCH_MAX_N}"
            )
        # hadamard_family certified its pairs; n events meet the bound g(n) <= n
        if len(family) != n:
            raise CertificateError(f"Hadamard witness has {len(family)} events, not n={n}")
        return CliqueResult(n, family.masks(), True, 0, "construction-plus-bound")
    if n > SEARCH_MAX_N:
        raise CapacityError(
            f"methods tried for n={n}: construction (no generator covers it), "
            f"search (capped at n <= {SEARCH_MAX_N})"
            if method == "auto"
            else f"exhaustive search is capped at n <= {SEARCH_MAX_N}, got n={n}"
        )
    result = max_clique(PowerSetGraphOracle(space), upper_bound=n)
    if result.size > n:
        raise CertificateError("rank bound violated: more than n pairwise-independent events")
    return replace(result, method="search-exhaustive")


def f_exact(n: int, method: str = "auto") -> CliqueResult:
    """Maximum number of pairwise independent events on {1..n}: g(n) + 1.

    Removing the empty event from a pairwise-independent family leaves a
    g-family, so f <= g + 1; the empty event is independent of every event
    B, because n*0 = 0*|B|, so it joins any g-family and f >= g + 1.  The
    witness is the g-witness plus the empty event (mask 0).
    """
    gres = g_exact(n, method)
    return replace(gres, size=gres.size + 1, witness=gres.witness + (0,))


def implied_f_bound(n: int, r: int, s: int, omega: int) -> int | None:
    """Lower bound f(n) >= omega + 2 implied by a clique of r-subsets
    meeting pairwise in s points, valid when n*s = r^2."""
    return omega + 2 if n * s == r * r else None


def johnson_omega(n: int, r: int, s: int) -> CliqueResult:
    """Exact clique number of the graph of r-subsets of {1..n} meeting in s points.

    The search stops at the least of three proven upper bounds, and
    `method` names the one that closed it ("deza-bound-met-by-seed", ...):
    * fisher, ω <= n: the incidence rows M of a clique have Gram matrix
      M Mᵀ = (r - s)I + sJ, which is positive definite as r > s, so the
      clique has at most rank M <= n members.
    * deza, ω <= max(r² - r + 1, ⌊(n - s)/(r - s)⌋): by Deza's theorem
      (JCTB 1974), more than r² - r + 1 r-sets meeting pairwise in exactly
      s points form a sunflower -- all share one s-set -- and a sunflower
      has at most ⌊(n - s)/(r - s)⌋ petals, disjoint (r - s)-sets among the
      other n - s points.
    * gram, ω <= n - 1 when n*s = r^2: the clique is then a family of
      pairwise-independent events, and with the full space added it obeys
      g(n) <= n.
    Seeds: the lines of the projective plane of prime order r - 1 (a
    clique of r² - r + 1 r-sets when s = 1 and r² - r + 1 <= n), and the
    proper events of a Hadamard witness when (r, s) = (n/2, n/4).
    """
    oracle = JohnsonGraphOracle(n, r, s)
    bounds = {"deza": max(r * r - r + 1, (n - s) // (r - s)), "fisher": n}
    seed = None
    if n * s == r * r:
        bounds["gram"] = n - 1
        if 2 * r == n and 4 * s == n:
            family = _try_hadamard_family(n)
            if family is not None:
                seed = family.masks()[:-1]  # proper events only
    if s == 1 and r * r - r + 1 <= n and _is_prime(r - 1):
        seed = projective_plane(r - 1).blocks
    name = min(bounds, key=bounds.__getitem__)
    result = max_clique(oracle, upper_bound=bounds[name], seed_clique=seed)
    if result.method.startswith("bound-met"):
        result = replace(result, method=f"{name}-{result.method}")
    return result


@dataclass(frozen=True)
class SweepRow:
    """One certified (or honestly open) value of g at a multiple of four."""

    n: int
    g: int | None
    method: str | None
    verdict: str  # HOLDS | OPEN | REFUTED

    def to_dict(self) -> dict[str, Any]:
        return {"n": self.n, "g": self.g, "method": self.method, "verdict": self.verdict}


def conjecture_sweep(n_max: int) -> list[SweepRow]:
    """For each n = 4, 8, ... <= n_max, certify g(n) = n or report OPEN.

    Each n is certified by `g_exact(n)`: a Hadamard construction meeting
    the g(n) <= n bound or exhaustive search; an n beyond both (a
    CapacityError) is OPEN, never guessed.
    """
    if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 1:
        raise ParameterError(f"n_max must be a positive integer, got {n_max!r}")
    if n_max > 64:
        raise ParameterError(f"the sweep is capped at n_max <= 64, got {n_max}")
    rows = []
    for n in range(4, n_max + 1, 4):
        try:
            result = g_exact(n)
        except CapacityError:
            rows.append(SweepRow(n, None, None, "OPEN"))
            continue
        verdict = "HOLDS" if result.size == n else "REFUTED"
        rows.append(SweepRow(n, result.size, result.method, verdict))
    return rows

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
import math
from typing import Any, NamedTuple, Sequence

from .construct import _is_prime, hadamard_family, hadamard_matrix, projective_plane
from .graphs import JohnsonGraphOracle, PowerSetGraphOracle
from .setsys import (
    CapacityError,
    CertificateError,
    Family,
    ParameterError,
    SampleSpace,
    _g_witness,
    _is_int,
    _shown,
    mask_to_points,
    points_to_mask,
)

SEARCH_MAX_N = 16     # exhaustive g/f search capacity


class CliqueResult(NamedTuple):
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
    a proven bound turns into an instant optimality certificate), and an
    incumbent above it -- seed, root prefix or search result -- raises
    CertificateError, so a wrong bound is never reported as met.
    `seed_clique` primes the incumbent and must be pairwise adjacent.  The
    method is "bound-met-by-seed" when the seed alone reaches the bound,
    "bound-met-by-search" when the search does, else "branch-and-bound".
    The returned witness is re-verified through the oracle before
    returning, independently of the search internals; a seed witness was
    already checked pair by pair on the way in.

    A root that meets the bound by itself builds nothing.  A root one
    event short of the bound takes the first of `oracle.candidates(root)`
    as its one node and builds no graph: every candidate is adjacent to
    every event of its root by construction, so the root plus any one
    candidate is a clique of the bound's size.
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
        if upper_bound is None:
            return False
        if size > upper_bound:
            raise CertificateError(f"a clique of {size} exceeds the upper bound {upper_bound}")
        return size == upper_bound

    best = seeded = list(seed)
    nodes = 0

    def finish(method: str) -> CliqueResult:
        if best is not seeded:  # a seed's pairs were checked above
            for a, b in itertools.combinations(best, 2):
                if not oracle.adjacent(a, b):
                    raise CertificateError(f"witness fails adjacency: {a} vs {b}")
        return CliqueResult(len(best), tuple(best), True, nodes, method)

    if met(len(best)):
        return finish("bound-met-by-seed")
    for root in oracle.roots():
        base = list(root)
        if len(base) > len(best):
            best = base
        if met(len(best)):
            return finish("bound-met-by-search")
        if upper_bound == len(base) + 1:
            first = next(oracle.candidates(root), None)
            if first is not None:
                nodes += 1
                best = base + [first]
        else:
            graph = oracle.build_graph(root)
            cap = None if upper_bound is None else upper_bound - len(base)
            size, bits, used = _branch_and_bound(graph.adj, len(best) - len(base), cap)
            nodes += used
            if len(base) + size > len(best):
                best = base + sorted(v for i, v in enumerate(graph.cand) if bits >> i & 1)
        if met(len(best)):
            return finish("bound-met-by-search")
    return finish("branch-and-bound")


def _try_hadamard_family(n: int) -> Family | None:
    """Witness family from a Hadamard generator covering order n, else None."""
    if n < 4 or n % 4 != 0:
        return None
    try:
        return hadamard_family(hadamard_matrix(n))
    except CapacityError:  # no generator, or order 64 past the bitmask limit
        return None


def _divisor_family(n: int, primes: list[int]) -> Family:
    """The events M_p = {j <= n : p | j}, one per prime p, then the full space."""
    masks = [points_to_mask(range(p, n + 1, p), n) for p in primes]
    return _g_witness(n, masks, f"divisor family of n={n}")


def g_exact(n: int, method: str = "auto") -> CliqueResult:
    """Maximum size of a pairwise-independent family of nonempty events
    on {1..n}, with witness.

    method="construct" demands a Hadamard-pipeline witness meeting the
    bound g(n) <= n; method="search" runs exhaustive branch-and-bound
    (n <= 16); "auto" prefers the Hadamard construction, then, for
    squarefree n, the divisor family below, and falls back to search.

    Size-quotient bound: for squarefree n with ν(n) prime factors,
    g(n) <= 1 + ν(n), and the search stops there instead of at n.
    * A proper event has size a with 0 < a < n, so n ∤ a: its size misses
      (is not divisible by) at least one prime of n.
    * Independent events of sizes a and b meet in ab/n points, so n | ab,
      and each prime of n divides a or b: no prime is missed by the sizes
      of two events of a family (equal sizes included).
    * Sending each proper event to a prime its size misses is therefore
      one-to-one, so at most ν(n) proper events fit, plus Ω.
    The events M_p = {j <= n : p | j}, one per prime p of n, plus Ω meet
    the bound: |M_p| = n/p and |M_p ∩ M_q| = n/pq.  So g(n) = 1 + ν(n), which
    "auto" certifies for every squarefree n <= 63 as
    "construction-plus-size-bound".
    """
    if method not in ("auto", "search", "construct"):
        raise ParameterError(f"unknown method {_shown(method)}; use search, construct, or auto")
    space = SampleSpace(n)
    primes = [p for p in range(2, n + 1) if n % p == 0 and _is_prime(p)]
    squarefree = math.prod(primes) == n
    family = _try_hadamard_family(n) if method != "search" else None
    if family is not None:
        # hadamard_family certified its pairs; n events meet the bound g(n) <= n
        if len(family) != n:
            raise CertificateError(f"Hadamard witness has {len(family)} events, not n={n}")
        return CliqueResult(n, family.masks(), True, 0, "construction-plus-bound")
    if method == "construct":
        raise CapacityError(
            f"no Hadamard generator covers n={n} (needs 4 | n and a Sylvester or "
            f"Paley order); use method='search' for n <= {SEARCH_MAX_N}"
        )
    if method == "auto" and squarefree:
        # the family's events are distinct, so it has 1 + ν(n) of them: the bound
        family = _divisor_family(n, primes)
        return CliqueResult(len(family), family.masks(), True, 0, "construction-plus-size-bound")
    if n > SEARCH_MAX_N:
        raise CapacityError(
            f"methods tried for n={n}: construction (no Hadamard generator covers it "
            f"and n is not squarefree), search (capped at n <= {SEARCH_MAX_N})"
            if method == "auto"
            else f"exhaustive search is capped at n <= {SEARCH_MAX_N}, got n={n}"
        )
    bound = 1 + len(primes) if squarefree else n
    result = max_clique(PowerSetGraphOracle(space), upper_bound=bound)
    return result._replace(method="search-exhaustive")


def f_exact(n: int, method: str = "auto") -> CliqueResult:
    """Maximum number of pairwise independent events on {1..n}: g(n) + 1.

    Removing the empty event from a pairwise-independent family leaves a
    g-family, so f <= g + 1; the empty event is independent of every event
    B, because n*0 = 0*|B|, so it joins any g-family and f >= g + 1.  The
    witness is the g-witness plus the empty event (mask 0).
    """
    gres = g_exact(n, method)
    return gres._replace(size=gres.size + 1, witness=gres.witness + (0,))


def implied_f_bound(n: int, r: int, s: int, omega: int) -> int | None:
    """Lower bound f(n) >= omega + 2 implied by a clique of r-subsets
    meeting pairwise in s points, valid when n*s = r^2."""
    return omega + 2 if n * s == r * r else None


def johnson_omega(n: int, r: int, s: int) -> CliqueResult:
    """Exact clique number of the graph of r-subsets of {1..n} meeting in s points.

    The search is rooted at one edge, since every edge is the image of
    (v0, v1) under a permutation of the points (proof in
    `JohnsonGraphOracle.roots`), so it branches only over the common
    neighbours of v0 and v1; a graph with no edge has ω = 1.
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
        result = result._replace(method=f"{name}-{result.method}")
    return result


class SweepRow(NamedTuple):
    """One certified (or honestly open) value of g at a multiple of four."""

    n: int
    g: int | None
    method: str | None
    verdict: str  # HOLDS | OPEN | REFUTED


def conjecture_sweep(n_max: int) -> list[SweepRow]:
    """For each n = 4, 8, ... <= n_max, certify g(n) = n or report OPEN.

    Each n is certified by `g_exact(n)`: a Hadamard construction meeting
    the g(n) <= n bound or exhaustive search; an n beyond both (a
    CapacityError) is OPEN, never guessed.
    """
    if not _is_int(n_max) or n_max < 1:
        raise ParameterError(f"n_max must be a positive integer, got {_shown(n_max)}")
    if n_max > 64:
        raise ParameterError(f"the sweep is capped at n_max <= 64, got {_shown(n_max)}")
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

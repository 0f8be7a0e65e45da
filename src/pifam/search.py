"""Exact maximum-clique search over independence graphs.

g(n) is the clique number of the graph on nonempty subsets of {1..n}
with edges where n|A∩B| = |A||B|; f(n) = g(n) + 1 is the clique number
of the same graph over all subsets (the empty set joins for free).

The solver is a deterministic branch-and-bound with greedy-coloring
upper bounds over bitset adjacency rows, on vertices relabeled in
reverse degeneracy order.  The family-graph builder prunes hard before
any pairwise work: sizes a and b can only be adjacent when n divides
a*b, so subsets are admitted per size class (for prime n nothing
survives and g(n) = 2 falls out immediately), and the full space --
adjacent to everything -- is kept out of the branch-and-bound entirely.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, replace
from typing import Any, Iterable, Sequence

from .construct import hadamard_family, hadamard_matrix
from .setsys import (
    CapacityError,
    CertificateError,
    ParameterError,
    SampleSpace,
    mask_to_points,
)

MAX_VERTICES = 1 << 20
SEARCH_MAX_N = 16     # exhaustive g/f search capacity


@dataclass(frozen=True)
class CliqueResult:
    """A clique plus the evidence trail of the search that produced it."""

    size: int
    witness: tuple[int, ...]   # vertex bitmasks (indices for explicit graphs)
    optimal: bool
    nodes_explored: int
    method: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "size": self.size,
            "optimal": self.optimal,
            "witness": [list(mask_to_points(m)) for m in self.witness],
            "nodes_explored": self.nodes_explored,
            "method": self.method,
        }


@dataclass
class _BuiltGraph:
    universal: tuple[int, ...]  # vertices adjacent to everything, and to each other
    cand: list[int]             # vertices that can carry a non-universal edge
    adj: list[int]              # adjacency bitsets over cand indices
    spare: int | None           # a vertex outside universal+cand, if any exists


@dataclass(frozen=True)
class PowerSetGraphOracle:
    """Graph on the nonempty subsets of {1..n}; edges are independent pairs."""

    space: SampleSpace

    def vertex_count(self) -> int:
        return (1 << self.space.n) - 1

    def contains_vertex(self, mask: int) -> bool:
        return 1 <= mask <= self.space.full_mask

    def adjacent(self, a: int, b: int) -> bool:
        if a == b or not (self.contains_vertex(a) and self.contains_vertex(b)):
            return False
        return self.space.n * (a & b).bit_count() == a.bit_count() * b.bit_count()

    def build_graph(self) -> _BuiltGraph:
        n = self.space.n
        if 1 << n > MAX_VERTICES:
            raise CapacityError(f"2^{n} subsets exceed the {MAX_VERTICES}-vertex limit")
        full = self.space.full_mask
        proper = range(1, n)
        active = {a for a in proper if any(a * b % n == 0 for b in proper)}
        by_size: dict[int, list[int]] = {a: [] for a in sorted(active)}
        cand: list[int] = []
        for mask in range(1, full):
            size = mask.bit_count()
            if size in active:
                by_size[size].append(len(cand))
                cand.append(mask)
        adj = [0] * len(cand)
        for a, b in itertools.combinations_with_replacement(sorted(active), 2):
            if a * b % n:
                continue
            want = a * b // n
            if a == b:
                pairs: Iterable[tuple[int, int]] = itertools.combinations(by_size[a], 2)
            else:
                pairs = itertools.product(by_size[a], by_size[b])
            for x, y in pairs:
                if (cand[x] & cand[y]).bit_count() == want:
                    adj[x] |= 1 << y
                    adj[y] |= 1 << x
        inactive = [a for a in proper if a not in active]
        spare = (1 << inactive[0]) - 1 if inactive else None
        return _BuiltGraph((full,), cand, adj, spare)


@dataclass(frozen=True)
class JohnsonGraphOracle:
    """Graph on the r-subsets of {1..n} with edges where |A∩B| = s."""

    n: int
    r: int
    s: int

    def __post_init__(self) -> None:
        if not self.n > self.r > self.s >= 1:
            raise ParameterError(f"need n > r > s >= 1, got ({self.n}, {self.r}, {self.s})")
        if math.comb(self.n, self.r) > MAX_VERTICES:
            raise CapacityError(
                f"C({self.n},{self.r}) = {math.comb(self.n, self.r)} vertices exceed "
                f"the {MAX_VERTICES} limit"
            )

    def vertex_count(self) -> int:
        return math.comb(self.n, self.r)

    def contains_vertex(self, mask: int) -> bool:
        return 0 < mask < 1 << self.n and mask.bit_count() == self.r

    def adjacent(self, a: int, b: int) -> bool:
        if a == b or not (self.contains_vertex(a) and self.contains_vertex(b)):
            return False
        return (a & b).bit_count() == self.s

    def build_graph(self) -> _BuiltGraph:
        cand = sorted(
            sum(1 << (p - 1) for p in combo)
            for combo in itertools.combinations(range(1, self.n + 1), self.r)
        )
        m = len(cand)
        adj = [0] * m
        for x in range(m):
            a = cand[x]
            for y in range(x + 1, m):
                if (a & cand[y]).bit_count() == self.s:
                    adj[x] |= 1 << y
                    adj[y] |= 1 << x
        return _BuiltGraph((), cand, adj, None)


@dataclass(frozen=True)
class ExplicitGraphOracle:
    """Graph given by a symmetric 0/1 adjacency matrix; vertices are indices."""

    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", tuple(tuple(row) for row in self.matrix))
        m = len(self.matrix)
        for i, row in enumerate(self.matrix):
            if len(row) != m:
                raise ParameterError("adjacency matrix must be square")
            if row[i]:
                raise ParameterError("adjacency matrix must have a zero diagonal")
            for j in range(m):
                if bool(row[j]) != bool(self.matrix[j][i]):
                    raise ParameterError("adjacency matrix must be symmetric")

    def vertex_count(self) -> int:
        return len(self.matrix)

    def contains_vertex(self, v: int) -> bool:
        return 0 <= v < len(self.matrix)

    def adjacent(self, a: int, b: int) -> bool:
        return self.contains_vertex(a) and self.contains_vertex(b) and bool(self.matrix[a][b])

    def build_graph(self) -> _BuiltGraph:
        m = len(self.matrix)
        adj = [0] * m
        for i in range(m):
            for j in range(m):
                if self.matrix[i][j]:
                    adj[i] |= 1 << j
        return _BuiltGraph((), list(range(m)), adj, None)


def _degeneracy_permutation(adj: list[int]) -> list[int]:
    """Reverse degeneracy order: densest-core vertices first.

    Ties break toward the smallest index, which is the smallest bitmask
    by construction, so runs are reproducible.
    """
    m = len(adj)
    cur = [a.bit_count() for a in adj]
    heap = [(cur[v], v) for v in range(m)]
    heapq.heapify(heap)
    alive = (1 << m) - 1
    peel: list[int] = []
    while heap:
        d, v = heapq.heappop(heap)
        if not alive >> v & 1 or d != cur[v]:
            continue
        peel.append(v)
        alive ^= 1 << v
        nb = adj[v] & alive
        while nb:
            low = nb & -nb
            u = low.bit_length() - 1
            nb ^= low
            cur[u] -= 1
            heapq.heappush(heap, (cur[u], u))
    peel.reverse()
    return peel


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

    `upper_bound`, when given, must be a valid bound on the clique
    number; the search stops with optimal=True as soon as the incumbent
    reaches it (this is how a construction meeting a proven bound turns
    into an instant optimality certificate).  `seed_clique` primes the
    incumbent and must be pairwise adjacent.  The returned witness is
    re-verified through the oracle before returning, independently of
    the search internals.
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

    best: list[int] = list(seed)
    if upper_bound is not None and len(best) >= upper_bound:
        return _verified(oracle, best, True, 0, "bound-met-by-seed")

    graph = oracle.build_graph()
    base = list(graph.universal)
    if len(base) > len(best):
        best = base.copy()
    if graph.spare is not None and len(base) + 1 > len(best):
        best = base + [graph.spare]
    if upper_bound is not None and len(best) >= upper_bound:
        return _verified(oracle, best, True, 0, "bound-met-by-seed")

    nodes = 0
    if graph.cand:
        perm = _degeneracy_permutation(graph.adj)
        inv = [0] * len(perm)
        for new, old in enumerate(perm):
            inv[old] = new
        masks = [graph.cand[old] for old in perm]
        adj = [0] * len(perm)
        for new, old in enumerate(perm):
            bits = graph.adj[old]
            acc = 0
            while bits:
                low = bits & -bits
                bits ^= low
                acc |= 1 << inv[low.bit_length() - 1]
            adj[new] = acc
        lower = len(best) - len(base)
        cap = None if upper_bound is None else upper_bound - len(base)
        size, bits, nodes = _branch_and_bound(adj, lower, cap)
        if len(base) + size > len(best):
            chosen = []
            while bits:
                low = bits & -bits
                bits ^= low
                chosen.append(masks[low.bit_length() - 1])
            best = base + sorted(chosen)
    return _verified(oracle, best, True, nodes, "branch-and-bound")


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
        oracle = PowerSetGraphOracle(space)
        result = max_clique(oracle, upper_bound=n, seed_clique=family.masks())
        if result.size != n:
            raise CertificateError(f"Hadamard witness has {result.size} events, not n={n}")
        return replace(result, method="construction-plus-bound")
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

    When n*s = r^2 these cliques are pairwise-independent families, so
    the clique number is at most n-1; a Hadamard witness is used as a
    seed when (r, s) = (n/2, n/4) and a generator covers n.
    """
    oracle = JohnsonGraphOracle(n, r, s)
    bound = None
    seed = None
    if n * s == r * r:
        bound = n - 1
        if 2 * r == n and 4 * s == n:
            family = _try_hadamard_family(n)
            if family is not None:
                seed = family.masks()[:-1]  # proper events only
    return max_clique(oracle, upper_bound=bound, seed_clique=seed)


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

    Certification is either a Hadamard construction meeting the g(n) <= n
    bound or exhaustive search; n beyond both is OPEN, never guessed.
    """
    if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 1:
        raise ParameterError(f"n_max must be a positive integer, got {n_max!r}")
    if n_max > 64:
        raise ParameterError(f"the sweep is capped at n_max <= 64, got {n_max}")
    rows = []
    for n in range(4, n_max + 1, 4):
        if n <= 63 and _try_hadamard_family(n) is not None:
            result = g_exact(n, "construct")
        elif n <= SEARCH_MAX_N:
            result = g_exact(n, "search")
        else:
            rows.append(SweepRow(n, None, None, "OPEN"))
            continue
        verdict = "HOLDS" if result.size == n else "REFUTED"
        rows.append(SweepRow(n, result.size, result.method, verdict))
    return rows

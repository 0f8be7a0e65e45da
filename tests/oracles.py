"""Independent reference computations the test suite checks the package against.

Nothing here shares code with the package internals: rank goes through
rational Gaussian elimination, clique numbers through networkx, the
independence relation is restated from scratch, the H H^T = nI and
design-axiom checks are the plain loops over row pairs, point pairs and
blocks, and Hadamard normalization negates columns and rows entry by entry.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import networkx as nx


def fraction_rank(matrix) -> int:
    """Rank by textbook Gaussian elimination over exact rationals."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    m = len(rows)
    width = len(rows[0]) if m else 0
    rk = 0
    for col in range(width):
        pivot = next((i for i in range(rk, m) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        for i in range(rk + 1, m):
            factor = rows[i][col] / rows[rk][col]
            for j in range(col, width):
                rows[i][j] -= factor * rows[rk][j]
        rk += 1
        if rk == m:
            break
    return rk


def independent_masks(n: int, a: int, b: int) -> bool:
    """The independence relation restated directly: n|A∩B| = |A||B|."""
    return n * (a & b).bit_count() == a.bit_count() * b.bit_count()


def brute_g(n: int) -> int:
    """g(n) via networkx max clique on the raw graph of nonempty subsets."""
    return _subset_clique(n, range(1, 1 << n))


def brute_f(n: int) -> int:
    """f(n) via networkx max clique on the raw graph of all 2^n subsets,
    the empty set included."""
    return _subset_clique(n, range(1 << n))


def _subset_clique(n: int, verts) -> int:
    graph = nx.Graph()
    graph.add_nodes_from(verts)
    for a, b in itertools.combinations(verts, 2):
        if independent_masks(n, a, b):
            graph.add_edge(a, b)
    _, size = nx.max_weight_clique(graph, weight=None)
    return size


def brute_johnson_omega(n: int, r: int, s: int) -> int:
    """Clique number of the r-subsets/s-intersection graph via networkx."""
    verts = [
        sum(1 << (p - 1) for p in combo)
        for combo in itertools.combinations(range(1, n + 1), r)
    ]
    graph = nx.Graph()
    graph.add_nodes_from(verts)
    for a, b in itertools.combinations(verts, 2):
        if (a & b).bit_count() == s:
            graph.add_edge(a, b)
    _, size = nx.max_weight_clique(graph, weight=None)
    return size


def brute_max_clique(matrix) -> int:
    """Clique number of an explicit adjacency matrix via networkx."""
    m = len(matrix)
    graph = nx.Graph()
    graph.add_nodes_from(range(m))
    for i, j in itertools.combinations(range(m), 2):
        if matrix[i][j]:
            graph.add_edge(i, j)
    _, size = nx.max_weight_clique(graph, weight=None)
    return size


def hadamard_gram_violation(rows) -> str | None:
    """The H H^T = nI test as a plain cubic loop over row pairs, diagonal
    included: the message for the first failing (i, j), or None."""
    n = len(rows)
    for i in range(n):
        for j in range(i, n):
            dot = sum(rows[i][c] * rows[j][c] for c in range(n))
            if dot != (n if i == j else 0):
                return (f"rows {i + 1} and {j + 1} have inner product {dot}; "
                        f"H H^T = {n}I fails")
    return None


def normalized_blocks(rows) -> list[int]:
    """Negate the columns where row 1 is -1, then the rows that start with
    -1; rows 2..n as masks of their +1 entries in columns 2..n (bit j - 2
    for column j)."""
    rows = [list(row) for row in rows]
    for j, sign in enumerate(rows[0]):
        if sign < 0:
            for row in rows:
                row[j] = -row[j]
    rows = [[-x for x in row] if row[0] < 0 else row for row in rows]
    return [sum(1 << (j - 1) for j in range(1, len(row)) if row[j] > 0) for row in rows[1:]]


def design_check_fields(v: int, k: int, lam: int, blocks) -> tuple:
    """The design axioms checked block by block and pair by pair, as the
    tuple (ok, symmetric, block_sizes_ok, pair_coverage_ok,
    intersections_ok, first_violation)."""
    first = None
    sizes_ok = True
    for idx, blk in enumerate(blocks):
        if blk.bit_count() != k:
            sizes_ok = False
            first = f"block {idx + 1} has size {blk.bit_count()}, expected k={k}"
            break
    pairs_ok = True
    for p, q in itertools.combinations(range(v), 2):
        need = (1 << p) | (1 << q)
        cover = sum(1 for blk in blocks if blk & need == need)
        if cover != lam:
            pairs_ok = False
            if first is None:
                first = f"pair {{{p + 1},{q + 1}}} lies in {cover} blocks, expected lambda={lam}"
            break
    symmetric = len(blocks) == v
    inter_ok = None
    if symmetric:
        inter_ok = True
        for (i, bi), (j, bj) in itertools.combinations(enumerate(blocks), 2):
            if (bi & bj).bit_count() != lam:
                inter_ok = False
                if first is None:
                    first = (f"blocks {i + 1} and {j + 1} meet in {(bi & bj).bit_count()} "
                             f"points, expected lambda={lam}")
                break
    ok = sizes_ok and pairs_ok and inter_ok is not False
    return ok, symmetric, sizes_ok, pairs_ok, inter_ok, first

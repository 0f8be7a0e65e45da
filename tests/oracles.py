"""Independent reference computations the test suite checks the package against.

Nothing here shares code with the package internals: rank goes through
rational Gaussian elimination, clique numbers through networkx, and the
independence relation is restated from scratch.
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

"""Independent reference computations the test suite checks the package against.

Nothing here shares code with the package internals: rank goes through
textbook Gaussian elimination on lists of rationals or of ints mod a
prime, clique numbers through networkx, the independence relation and
the oracles' adjacency with their vertex rule are restated from
scratch, the H H^T = nI and design-axiom checks are the plain loops
over row pairs, point pairs and blocks, Hadamard
normalization negates columns and rows entry by entry, a bit matrix
is transposed one entry at a time, a candidate graph is counted by the
loop over pairs, and the search's first-fit coloring is restated on
neighbour lists, one vertex at a time.  A root's candidates
per cell come from filtering every mask on the cells' union.  The
Hadamard generators are restated on +-1 lists, a projective plane by
testing every point against every line, and a g-family and its
violations by the plain loop over pairs.
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


def point_columns(masks, n: int) -> list[int]:
    """Column p of the 0/1 matrix whose row j is the bits of masks[j]: the
    int whose bit j is bit p of masks[j], read one entry at a time."""
    return [sum(1 << j for j, mask in enumerate(masks) if mask >> p & 1) for p in range(n)]


def rank_mod_p(matrix, p: int) -> int:
    """Rank over GF(p), p prime, by textbook Gaussian elimination on lists
    of ints reduced mod p after every row operation."""
    rows = [[x % p for x in row] for row in matrix]
    m = len(rows)
    width = len(rows[0]) if m else 0
    rk = 0
    for col in range(width):
        pivot = next((i for i in range(rk, m) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        inv = pow(rows[rk][col], p - 2, p)  # Fermat: a^(p-2) = 1/a mod p
        for i in range(rk + 1, m):
            factor = rows[i][col] * inv % p
            if factor:
                for j in range(col, width):
                    rows[i][j] = (rows[i][j] - factor * rows[rk][j]) % p
        rk += 1
        if rk == m:
            break
    return rk


def independent_masks(n: int, a: int, b: int) -> bool:
    """The independence relation restated directly: n|A∩B| = |A||B|."""
    return n * (a & b).bit_count() == a.bit_count() * b.bit_count()


def graph_vertex(v, n: int, r: int | None = None) -> bool:
    """A vertex of the power-set graph on {1..n} (r None) or of J(n, r, s),
    restated: an int, not a bool, naming a nonempty set of points in 1..n,
    of size r if given."""
    if isinstance(v, bool) or not isinstance(v, int) or not 0 < v < 2 ** n:
        return False
    return r is None or bin(v).count("1") == r


def graph_adjacent(a, b, n: int, r: int | None = None, s: int | None = None) -> bool:
    """Adjacency of the same graphs, restated: a != b, both are vertices,
    then n|A∩B| = |A||B| (power set) or |A∩B| = s (Johnson)."""
    if a == b or not (graph_vertex(a, n, r) and graph_vertex(b, n, r)):
        return False
    if r is None:
        return independent_masks(n, a, b)
    return bin(a & b).count("1") == s


def power_set_root_candidates(n: int, root) -> list[int]:
    """Every mask on {1..n} that contains point n, is not in `root` and is
    independent of each event of `root`, by filtering all 2^n masks, ascending."""
    top = 1 << (n - 1)
    return [m for m in range(1, 1 << n)
            if m & top and m not in root and all(independent_masks(n, m, u) for u in root)]


def cell_points(mask: int, cells) -> tuple[tuple[int, ...], ...]:
    """The points of `mask` in each of `cells`, one ascending tuple per cell."""
    return tuple(tuple(p for p in range(cell.bit_length()) if (mask & cell) >> p & 1) for cell in cells)


def cell_masks(cells, counts) -> list[int]:
    """Every mask over the union of the disjoint `cells` whose vector of
    points per cell is in `counts`, by filtering all masks on the union:
    ordered by that vector's place in `counts`, then by `cell_points`."""
    union = sum(cells)
    points = [p for p in range(union.bit_length()) if union >> p & 1]
    found = []
    for chosen in range(1 << len(points)):
        mask = sum(1 << p for j, p in enumerate(points) if chosen >> j & 1)
        vector = tuple((mask & cell).bit_count() for cell in cells)
        if vector in counts:
            found.append((counts.index(vector), cell_points(mask, cells), mask))
    return [mask for *_, mask in sorted(found)]


def greedy_descent(cand, adjacent) -> list:
    """The first descent of the graph on `cand`, by its definition: take
    the first vertex left, keep only the later vertices adjacent to it,
    repeat until none is left."""
    taken, left = [], list(cand)
    while left:
        v = left[0]
        taken.append(v)
        left = [u for u in left[1:] if adjacent(u, v)]
    return taken


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


def johnson_common_neighbours(n: int, r: int, s: int, prefix) -> list[int]:
    """The common neighbours of a nonempty `prefix` of r-subsets of {1..n}
    in the s-intersection graph, by filtering: every r-set made of s
    points of prefix[0] and r - s points outside it, in lexicographic
    order of those two point tuples, kept when it meets every later prefix
    set in exactly s points."""
    first = prefix[0]
    inside = [p for p in range(n) if first >> p & 1]
    outside = [p for p in range(n) if not first >> p & 1]
    found = []
    for a in itertools.combinations(inside, s):
        for b in itertools.combinations(outside, r - s):
            mask = sum(1 << p for p in a + b)
            if all((mask & u).bit_count() == s for u in prefix[1:]):
                found.append(mask)
    return found


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


def intersection_rows(cand, meet) -> list[int]:
    """Adjacency bitsets over `cand` by the loop over pairs: x ~ y iff
    x != y and |x & y| = meet(|x|, |y|)."""
    return [sum(1 << j for j, y in enumerate(cand)
                if x != y and (x & y).bit_count() == meet(x.bit_count(), y.bit_count()))
            for x in cand]


def greedy_coloring(p: int, adj) -> tuple[list[int], list[int]]:
    """First-fit coloring of the vertices in bitset p, in index order: each
    vertex takes the least color no earlier neighbour has.  Returns the
    vertices sorted by (color, index) and their colors."""
    color: dict[int, int] = {}
    for v in (v for v in range(p.bit_length()) if p >> v & 1):
        used = {color[u] for u in color if adj[v] >> u & 1}
        color[v] = next(c for c in itertools.count(1) if c not in used)
    order = sorted(color, key=lambda v: (color[v], v))
    return order, [color[v] for v in order]


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


def is_g_family(n: int, masks) -> bool:
    """Every event nonempty and every pair independent, pair by pair."""
    return 0 not in masks and all(independent_masks(n, a, b) for a, b in itertools.combinations(masks, 2))


def violation_lines(n: int, masks) -> list[str]:
    """Why `masks` is not a g-family on {1..n}, in the words of the library:
    each empty event, then each dependent pair, in order."""
    def shown(mask):
        return "{" + ",".join(str(p + 1) for p in range(n) if mask >> p & 1) + "}"

    lines = [f"event {shown(m)} is empty" for m in masks if not m]
    for a, b in itertools.combinations(masks, 2):
        if not independent_masks(n, a, b):
            lines.append(f"{shown(a)} vs {shown(b)}: {n}*|A∩B| = {n * (a & b).bit_count()} "
                         f"but |A|*|B| = {a.bit_count() * b.bit_count()}")
    return lines


def sylvester_rows(k: int) -> list[list[int]]:
    """Sylvester's matrix of order 2^k: [[H, H], [H, -H]] on lists of +-1."""
    rows = [[1]]
    for _ in range(k):
        rows = [r + r for r in rows] + [r + [-x for x in r] for r in rows]
    return rows


def paley_rows(q: int) -> list[list[int]]:
    """Paley's matrix of order q + 1 on lists of +-1: a row of +1, then row
    i = 1..q is -1 in column 0 and, in column j = 1..q, +1 when i = j or
    i - j is a nonzero square mod q."""
    squares = {i * i % q for i in range(1, q)}
    return [[1] * (q + 1)] + [
        [-1] + [1 if i == j or (i - j) % q in squares else -1 for j in range(1, q + 1)]
        for i in range(1, q + 1)
    ]


def matrix_text(rows) -> str:
    """One line per row, '+' for +1 and '-' for -1."""
    return "".join("".join("+" if x > 0 else "-" for x in row) + "\n" for row in rows)


def plane_blocks(q: int) -> list[int]:
    """The lines of the projective plane over F_q, q prime: point (x,y,z) is
    on line [a,b,c] when ax + by + cz = 0 mod q, tested for every pair, both
    indexed by the triples whose first nonzero coordinate is 1, in order."""
    triples = ([(1, y, z) for y in range(q) for z in range(q)]
               + [(0, 1, z) for z in range(q)] + [(0, 0, 1)])
    return [sum(1 << i for i, (x, y, z) in enumerate(triples) if (a * x + b * y + c * z) % q == 0)
            for a, b, c in triples]

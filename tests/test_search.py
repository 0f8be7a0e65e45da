"""Branch-and-bound clique search, g/f computation, and the sweep."""

import ast
import gc
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import pifam
from pifam import (
    CapacityError,
    CertificateError,
    Family,
    JohnsonGraphOracle,
    ParameterError,
    PowerSetGraphOracle,
    SampleSpace,
    conjecture_sweep,
    f_exact,
    g_exact,
    gram_certify,
    hadamard_family,
    hadamard_matrix,
    implied_f_bound,
    is_valid_g_family,
    johnson_omega,
    max_clique,
)

from oracles import (
    brute_f,
    brute_g,
    brute_johnson_omega,
    brute_max_clique,
    cell_masks,
    cell_points,
    graph_adjacent,
    graph_vertex,
    greedy_descent,
    johnson_common_neighbours,
    power_set_root_candidates,
)

# values computed with the networkx-based oracle in oracles.py, frozen here;
# n = 11..15, past networkx's reach, by the search and the g(n) <= n and
# 1 + ν(n) bounds
G_VALUES = {1: 1, 2: 2, 3: 2, 4: 4, 5: 2, 6: 3, 7: 2, 8: 8, 9: 8, 10: 3,
            11: 2, 12: 12, 13: 2, 14: 3, 15: 3}
JOHNSON_VALUES = {(4, 2, 1): 3, (8, 4, 2): 7, (9, 3, 1): 7, (6, 3, 1): 4}
# clique numbers of the edge-root Johnson graphs with n = 11, computed with
# brute_johnson_omega in oracles.py and frozen here, as networkx takes
# seconds on the larger ones; the graphs with n <= 10 are checked against it live
JOHNSON_11_VALUES = {
    (11, 2, 1): 10, (11, 3, 1): 7, (11, 3, 2): 9, (11, 4, 1): 6, (11, 4, 2): 7, (11, 4, 3): 8,
    (11, 5, 1): 2, (11, 5, 2): 11, (11, 5, 3): 7, (11, 5, 4): 7, (11, 6, 1): 2, (11, 6, 2): 2,
    (11, 6, 3): 11, (11, 6, 4): 7, (11, 6, 5): 7, (11, 7, 3): 2, (11, 7, 4): 6, (11, 7, 5): 7,
    (11, 7, 6): 8, (11, 8, 5): 3, (11, 8, 6): 7, (11, 8, 7): 9, (11, 9, 7): 5, (11, 9, 8): 10,
}
SQUAREFREE = [n for n in range(1, 64) if all(n % (p * p) for p in range(2, 8))]


def primes_of(n):
    """The distinct primes dividing n, ascending, by trial division."""
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]


def complete_graph(m):
    return tuple(tuple(int(i != j) for j in range(m)) for i in range(m))


def clique_of(mat):
    """Size of the branch-and-bound kernel's clique on the bitset rows of a
    0/1 matrix, after checking that the returned bitset is a clique of that size."""
    adj = [sum(1 << j for j, x in enumerate(row) if x) for row in mat]
    size, bits, _ = pifam.search._branch_and_bound(adj, 0, None)
    members = [v for v in range(len(adj)) if bits >> v & 1]
    assert len(members) == size
    for a, b in itertools.combinations(members, 2):
        assert mat[a][b]
    return size


def test_max_clique_on_plain_graphs():
    assert clique_of(((0, 0, 0), (0, 0, 0), (0, 0, 0))) == 1
    assert clique_of(complete_graph(5)) == 5


def test_max_clique_fuzz_against_networkx():
    rng = random.Random(99)
    for _ in range(120):
        m = rng.randint(1, 12)
        mat = [[0] * m for _ in range(m)]
        for i, j in itertools.combinations(range(m), 2):
            if rng.random() < rng.choice((0.2, 0.5, 0.8)):
                mat[i][j] = mat[j][i] = 1
        assert clique_of(mat) == brute_max_clique(mat)


def test_witness_check_survives_optimized_mode():
    # under python -O every assert is stripped; the witness re-verification
    # must still catch an oracle whose adjacent() contradicts its own graph
    code = """
import sys
from pifam import CertificateError, PowerSetGraphOracle, SampleSpace, max_clique

class Liar(PowerSetGraphOracle):
    def adjacent(self, a, b):
        return False

try:
    max_clique(Liar(SampleSpace(4)))
except CertificateError as exc:
    print(sys.flags.optimize, "CertificateError:", exc)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(pifam.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("1 CertificateError: witness fails adjacency")


def test_no_assert_in_package_source():
    # every certificate check is an explicit raise, which python -O keeps
    src = Path(pifam.__file__).resolve().parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not asserts, f"{path.name} has assert statements at lines {asserts}"


def test_no_unused_import_in_package_source():
    # no linter runs in CI; __init__.py imports only to re-export
    src = Path(pifam.__file__).resolve().parent
    for path in sorted(set(src.glob("*.py")) - {src / "__init__.py"}):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"{path.name} never uses {sorted(imported - used)}"


def test_max_clique_seed_and_bound():
    oracle = PowerSetGraphOracle(SampleSpace(4))
    seed = hadamard_family(hadamard_matrix(4)).masks()
    result = max_clique(oracle, upper_bound=4, seed_clique=seed)
    assert result.size == 4 and result.optimal
    assert result.nodes_explored == 0  # the seed already meets the bound
    assert set(result.witness) == set(seed)


def test_max_clique_refuses_an_incumbent_above_the_bound():
    # a wrong bound must never be reported as met: the root prefix (Ω, v_2)
    # already has two members, and so has a seed
    oracle = PowerSetGraphOracle(SampleSpace(4))
    with pytest.raises(CertificateError, match="exceeds the upper bound 1"):
        max_clique(oracle, upper_bound=1)
    seed = hadamard_family(hadamard_matrix(4)).masks()
    with pytest.raises(CertificateError, match="clique of 4 exceeds the upper bound 3"):
        max_clique(oracle, upper_bound=3, seed_clique=seed)
    assert max_clique(oracle, upper_bound=4).method == "bound-met-by-search"


def test_max_clique_refuses_a_bound_of_zero():
    # an empty seed never meets the bound: the first root's pair refutes it,
    # as it does a negative bound, quoted in brief however long
    for oracle in PowerSetGraphOracle(SampleSpace(4)), JohnsonGraphOracle(5, 2, 1):
        with pytest.raises(CertificateError, match="a clique of 2 exceeds the upper bound 0"):
            max_clique(oracle, upper_bound=0)
        for bound in -1, -(1 << 3000), -(10 ** 5000):
            with pytest.raises(CertificateError, match="^a clique of 2 exceeds the upper bound ") as err:
                max_clique(oracle, upper_bound=bound)
            assert len(str(err.value)) < 200


@pytest.mark.parametrize("oracle", [PowerSetGraphOracle(SampleSpace(4)), JohnsonGraphOracle(5, 2, 1)],
                         ids=["power-set", "johnson"])
@pytest.mark.parametrize("seed", [[1.5, 3], [3.0, 5], ["a"], [True, 15], ["x" * 100000], [1 << 3000], [10 ** 5000]])
def test_a_seed_vertex_that_is_not_an_int_mask_is_refused(oracle, seed):
    # a float, a string or a bool is no vertex, even where its value is a
    # mask, nor is an int wider than the points; the error quotes it in brief,
    # even past Python's 4300-digit limit for int to str
    assert not oracle.contains_vertex(seed[0])
    with pytest.raises(ParameterError, match="^seed vertex .* is not a vertex of this graph$") as err:
        max_clique(oracle, seed_clique=seed)
    assert len(str(err.value)) < 200


@pytest.mark.parametrize("bound", ["x", True, False, 4.0, [1] * 100000], ids=["str", "true", "false", "float", "list"])
def test_max_clique_refuses_an_upper_bound_that_is_not_an_int(bound):
    with pytest.raises(ParameterError, match="^upper_bound must be an integer or None, got ") as err:
        max_clique(PowerSetGraphOracle(SampleSpace(4)), upper_bound=bound)
    assert len(str(err.value)) < 200


@pytest.mark.parametrize("seed, message", [
    (5, "^seed_clique must be a list of vertices, got 5$"),
    (0, "^seed_clique must be a list of vertices, got 0$"),
    ([[1]], r"^seed vertex \[1\] is not a vertex of this graph$"),
    ([{1}], r"^seed vertex \{1\} is not a vertex of this graph$"),
], ids=["int", "zero", "list-item", "set-item"])
def test_a_malformed_seed_clique_is_refused(seed, message):
    # not iterable, or holding unhashable items: a ParameterError that quotes
    # the value, never a bare TypeError; 0 is no stand-in for None
    with pytest.raises(ParameterError, match=message) as err:
        max_clique(PowerSetGraphOracle(SampleSpace(4)), seed_clique=seed)
    assert len(str(err.value)) < 200


def test_max_clique_rejects_bad_seeds():
    oracle = PowerSetGraphOracle(SampleSpace(4))
    with pytest.raises(ParameterError):
        max_clique(oracle, seed_clique=[0b0001, 0b0010])  # not adjacent on n=4
    with pytest.raises(ParameterError):
        max_clique(oracle, seed_clique=[0])  # empty set is not a vertex here
    with pytest.raises(ParameterError):
        max_clique(oracle, seed_clique=[1, 1])


def test_power_set_oracle_contract():
    oracle = PowerSetGraphOracle(SampleSpace(4))
    for a in range(1, 16):
        assert not oracle.adjacent(a, a)
        for b in range(1, 16):
            assert oracle.adjacent(a, b) == oracle.adjacent(b, a)


@pytest.mark.parametrize("n,value", sorted(G_VALUES.items()))
def test_g_exact_matches_frozen_oracle_values(n, value):
    result = g_exact(n, "search")
    assert result.size == value
    assert result.optimal
    assert result.method == "search-exhaustive"
    fam = Family.from_masks(n, result.witness)
    assert is_valid_g_family(fam)
    assert SampleSpace(n).full_mask in result.witness


def test_g_exact_oracle_rederivation_small_n():
    # re-derive the frozen table live: networkx on the raw subset graph
    for n in range(1, 10):
        assert brute_g(n) == G_VALUES[n] == g_exact(n, "search").size


@pytest.mark.parametrize("n", [n for n in sorted(G_VALUES) if n <= 10])
def test_root_reduction_matches_unreduced_search(n):
    # complement halving, one root per size class and one branch-and-bound
    # per candidate class with its first candidate fixed, searched with no
    # bound and at g(n) <= n or 1 + ν(n), give the clique number of the
    # whole graph, by networkx
    rooted = max_clique(PowerSetGraphOracle(SampleSpace(n)))
    assert rooted.size == brute_g(n) == G_VALUES[n] == g_exact(n, "search").size


def test_size_quotient_bound_matches_brute_force_for_squarefree_n():
    # 1 + ν(n) against networkx on the whole graph and the rooted search with no bound
    for n in (n for n in SQUAREFREE if n <= 10):
        rooted = max_clique(PowerSetGraphOracle(SampleSpace(n))).size
        assert 1 + len(primes_of(n)) == brute_g(n) == rooted == g_exact(n, "search").size


@pytest.mark.parametrize("n", [n for n in SQUAREFREE if n <= 16])
def test_squarefree_search_stops_at_the_size_quotient_bound(n):
    result = g_exact(n, "search")
    assert (result.size, result.optimal) == (1 + len(primes_of(n)), True)
    assert result.method == "search-exhaustive"
    assert is_valid_g_family(Family.from_masks(n, result.witness))
    if len(primes_of(n)) > 1:  # 6, 10, 14, 15: the first node meets the bound
        assert result.nodes_explored == 1


def refused(self, *args):
    raise AssertionError(f"{type(self).__name__} generated what the bound made needless")


def flat(oracle, root):
    """Every candidate of a root, class after class."""
    return list(itertools.chain.from_iterable(oracle.candidates(root)))


def fixed_third_vertex_lists(oracle, root):
    """For each nonempty class C of a root, in order: the candidates of
    classes C and later, after C's first, that are adjacent to C's first."""
    classes = [list(members) for members in oracle.candidates(root)]
    cand = [m for members in classes for m in members]
    lists, start = [], 0
    for members in classes:
        if members:
            lists.append([y for y in cand[start + 1:] if oracle.adjacent(members[0], y)])
        start += len(members)
    return lists


@pytest.mark.parametrize("n", [6, 10, 14, 15])
def test_squarefree_search_takes_the_first_candidate_without_a_graph(monkeypatch, n):
    # the root (Ω, v_a) is one event short of 1 + ν(n) = 3
    monkeypatch.setattr(PowerSetGraphOracle, "build_graph", refused)
    result = g_exact(n, "search")
    assert (result.size, result.optimal, result.nodes_explored) == (1 + len(primes_of(n)), True, 1)
    assert is_valid_g_family(Family.from_masks(n, result.witness))


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_prime_search_root_meets_the_bound_alone(monkeypatch, n):
    for name in ("build_graph", "candidates"):
        monkeypatch.setattr(PowerSetGraphOracle, name, refused)
    result = g_exact(n, "search")
    assert (result.size, result.optimal, result.nodes_explored) == (2, True, 0)
    assert is_valid_g_family(Family.from_masks(n, result.witness))


def test_johnson_root_one_short_of_the_bound_takes_the_first_candidate(monkeypatch):
    # johnson_omega meets a residual bound of 1 only through a seed, so call
    # max_clique directly: the edge root of J(4, 2) with s = 1 has two events
    monkeypatch.setattr(JohnsonGraphOracle, "build_graph", refused)
    oracle = JohnsonGraphOracle(4, 2, 1)
    result = max_clique(oracle, upper_bound=3)
    assert result.size == brute_johnson_omega(4, 2, 1) == 3
    assert (result.optimal, result.nodes_explored, result.method) == (True, 1, "bound-met-by-search")
    assert result.witness == (*oracle.roots()[0], flat(oracle, oracle.roots()[0])[0])


@pytest.mark.parametrize("oracle, roots", [
    (PowerSetGraphOracle(SampleSpace(6)), None),
    (PowerSetGraphOracle(SampleSpace(9)), None),
    (PowerSetGraphOracle(SampleSpace(4)), [(0b1111, 0b1001)]),
    (JohnsonGraphOracle(8, 4, 2), None),
    (JohnsonGraphOracle(9, 3, 1), [(0b111,)]),
])
def test_build_graph_orders_the_candidates(monkeypatch, oracle, roots):
    # with no bound, max_clique hands build_graph, for each class C of each
    # root in turn, the candidates of classes C and later that meet C's first,
    # and build_graph keeps them in that order; a list is skipped only when it
    # is too short to beat the final clique; every candidate is adjacent to
    # its root
    roots = roots or oracle.roots()
    build, built = type(oracle).build_graph, []

    def recorded(self, cand):
        graph = build(self, cand)
        built.append((list(cand), graph))
        return graph

    monkeypatch.setattr(type(oracle), "roots", lambda self: roots)
    monkeypatch.setattr(type(oracle), "build_graph", recorded)
    size = max_clique(oracle).size
    assert all(graph.cand == cand for cand, graph in built)
    handed = iter(cand for cand, _ in built)
    want = next(handed, None)
    for root in roots:
        for later in fixed_third_vertex_lists(oracle, root):
            if later == want:
                want = next(handed, None)
            else:
                assert len(root) + 1 + len(later) <= size
        assert all(oracle.adjacent(c, u) for c in flat(oracle, root) for u in root)
    assert want is None


@pytest.mark.parametrize("n", range(3, 13))
def test_johnson_root_candidates_equal_the_filtered_neighbours(n):
    # the neighbours of v0 that the filter keeps, one class per k, the points
    # taken from v0 - v1: the largest class first, ties to the smaller k, each
    # class ordered by the points in each cell; a rest smaller than r - s, as
    # in (7,5,3), rules out the least k
    for s, r in itertools.combinations(range(1, n), 2):
        oracle = JohnsonGraphOracle(n, r, s)
        for root in oracle.roots():
            v0, v1 = root[0], root[-1]
            cells = (v0 & v1, v0 & ~v1, v1 & ~v0, ((1 << n) - 1) & ~(v0 | v1))
            groups = {}
            for m in johnson_common_neighbours(n, r, s, root):
                groups.setdefault((m & cells[1]).bit_count(), []).append(m)
            expected = [sorted(groups[k], key=lambda m: cell_points(m, cells))
                        for k in sorted(groups, key=lambda k: (-len(groups[k]), k))]
            assert [members for members in map(list, oracle.candidates(root)) if members] == expected


@pytest.mark.parametrize("seed", range(40))
def test_masks_are_the_filtered_count_vectors_in_order(monkeypatch, seed):
    # seeded random disjoint cells, empty ones included, and count vectors,
    # some above a cell's size: one class per vector, in turn, each the exact
    # list of the filter; the limit is the count of masks, refused one below it
    rng = random.Random(seed)
    points = rng.sample(range(12), rng.randint(0, 12))
    cuts = sorted(rng.randint(0, len(points)) for _ in range(rng.randint(0, 3)))
    cells = tuple(sum(1 << p for p in points[i:j]) for i, j in zip([0, *cuts], [*cuts, len(points)]))
    vectors = {tuple(rng.randint(0, cell.bit_count() + (rng.random() < 0.1)) for cell in cells)
               for _ in range(rng.randint(0, 5))}
    counts = rng.sample(sorted(vectors), len(vectors))
    expected = [cell_masks(cells, [ks]) for ks in counts]
    total = sum(map(len, expected))
    for limit in (total, total - 1):
        monkeypatch.setattr(pifam.graphs, "MAX_VERTICES", limit)
        if limit < total:
            with pytest.raises(CapacityError, match=rf"a root's {total} candidates exceed the {limit}-"):
                next(pifam.graphs._masks(cells, counts))
        else:
            assert list(map(list, pifam.graphs._masks(cells, counts))) == expected


def root_cells(oracle, root):
    """The cells of a root's Venn partition: v - {n}, {n} and the rest for
    a power-set root (Ω, v); v0∩v1, v0 - v1, v1 - v0 and the rest for a
    Johnson root (v0, v1), with v1 = v0 for a vertex root."""
    if isinstance(oracle, PowerSetGraphOracle):
        n = oracle.space.n
        v, top = root[-1], 1 << (n - 1)
        return (v & ~top, top, ((1 << n) - 1) & ~v)
    v0, v1 = root[0], root[-1]
    return (v0 & v1, v0 & ~v1, v1 & ~v0, ((1 << oracle.n) - 1) & ~(v0 | v1))


CLASS_ORACLES = {f"g{n}": PowerSetGraphOracle(SampleSpace(n)) for n in range(1, 13)}
CLASS_ORACLES.update({f"j{n}-{r}-{s}": JohnsonGraphOracle(n, r, s) for n, r, s in
                      [(7, 3, 1), (8, 4, 2), (9, 6, 4), (10, 4, 2), (11, 5, 2), (12, 6, 4), (7, 5, 1)]})


@pytest.mark.parametrize("oracle", CLASS_ORACLES.values(), ids=list(CLASS_ORACLES))
def test_each_class_is_one_count_vector_over_the_root_cells(oracle):
    # a class is exactly the candidates with one vector of points per cell
    # of the root, by the filter over the cells' union, and no two classes
    # share a vector: one orbit of the permutations that keep every cell
    for root in oracle.roots():
        cells = root_cells(oracle, root)
        classes = [members for members in map(list, oracle.candidates(root)) if members]
        vectors = [tuple((members[0] & cell).bit_count() for cell in cells) for members in classes]
        assert len(set(vectors)) == len(vectors)
        assert classes == [cell_masks(cells, [vector]) for vector in vectors]


@pytest.mark.parametrize("key", [(14, 7, 1), (12, 6, 1), (10, 5, 1)])
def test_johnson_edge_root_without_candidates_builds_nothing(monkeypatch, key):
    # ω = 2: no r-set meets both r-sets of the edge root in one point, so
    # the root has no candidates and nothing is counted
    monkeypatch.setattr(pifam.graphs, "_intersection_graph", refused)
    result = johnson_omega(*key)
    assert (result.size, result.optimal, result.nodes_explored) == (2, True, 0)


@pytest.mark.parametrize("oracle", [
    PowerSetGraphOracle(SampleSpace(8)),
    PowerSetGraphOracle(SampleSpace(12)),
    JohnsonGraphOracle(11, 4, 2),
    JohnsonGraphOracle(14, 10, 7),
], ids=["g8", "g12", "j11-4-2", "j14-10-7"])
def test_build_graph_counts_intersections_once(monkeypatch, oracle):
    # the graph is counted once, in the order of its candidates, whose
    # point columns are the one transpose
    count, transpose = pifam.graphs._intersection_graph, pifam.graphs._point_columns
    calls, transposes = [], []

    def counted(cand, meet):
        calls.append(len(cand))
        return count(cand, meet)

    def transposed(masks, n):
        transposes.append((len(masks), n))
        return transpose(masks, n)

    monkeypatch.setattr(pifam.graphs, "_intersection_graph", counted)
    monkeypatch.setattr(pifam.graphs, "_point_columns", transposed)
    graph = oracle.build_graph(flat(oracle, oracle.roots()[0]))
    m = len(graph.cand)
    assert calls == [m] and graph.cand
    assert transposes == [(m, max(graph.cand).bit_length())]


@pytest.mark.parametrize("call, reorders", [
    (lambda: g_exact(4, "search"), False),
    (lambda: g_exact(8, "search"), False),
    (lambda: f_exact(8, "search"), False),
    (lambda: g_exact(9, "search"), True),
    (lambda: g_exact(12, "search"), True),
    (lambda: johnson_omega(10, 4, 2), True),
    (lambda: johnson_omega(11, 4, 2), True),
], ids=["g4", "g8", "f8", "g9", "g12", "j10-4-2", "j11-4-2"])
def test_a_first_descent_that_meets_the_bound_skips_the_reorder(monkeypatch, call, reorders):
    # at 4 and 8 the first root's first descent meets g(n) <= n, so no graph
    # is built or counted; elsewhere it falls short and the root is built,
    # counted and searched in full
    calls = set()

    def record(owner, name):
        kernel = getattr(owner, name)

        def recorded(*args):
            calls.add(name)
            return kernel(*args)

        monkeypatch.setattr(owner, name, recorded)

    for owner in (PowerSetGraphOracle, JohnsonGraphOracle):
        record(owner, "build_graph")
    record(pifam.graphs, "_intersection_graph")
    result = call()
    assert result.optimal
    assert calls == ({"build_graph", "_intersection_graph"} if reorders else set())


class Built(Exception):
    """Raised in place of a build; its argument is the candidate list handed over."""


def stop_at_build(self, cand):
    raise Built(list(cand))


def check_descents(monkeypatch, oracle):
    # at every root, each bound the greedy descent of its candidates can
    # meet closes the root with that many of them, in as many nodes and
    # with no build; under one more, the descent is the incumbent, and the
    # first class whose candidates meeting its first could beat it goes to
    # build_graph; if there is none, root and descent are the answer
    cls = type(oracle)
    monkeypatch.setattr(cls, "build_graph", stop_at_build)
    for root in oracle.roots():
        descent = greedy_descent(flat(oracle, root), oracle.adjacent)
        with monkeypatch.context() as patch:
            patch.setattr(cls, "roots", lambda self: [root])
            for k in range(1, len(descent) + 1):
                result = max_clique(oracle, upper_bound=len(root) + k)
                assert (result.witness, result.nodes_explored) == ((*root, *sorted(descent[:k])), k)
            short = len(root) + len(descent) + 1
            first = next((later for later in fixed_third_vertex_lists(oracle, root)
                          if len(later) >= len(descent)), None)
            if first is not None:
                with pytest.raises(Built) as handed:
                    max_clique(oracle, upper_bound=short)
                assert handed.value.args[0] == first
            else:
                result = max_clique(oracle, upper_bound=short)
                assert (result.witness, result.nodes_explored) == ((*root, *sorted(descent)), len(descent))


@pytest.mark.parametrize("n", range(1, 13))
def test_power_set_roots_close_by_the_greedy_descent(monkeypatch, n):
    check_descents(monkeypatch, PowerSetGraphOracle(SampleSpace(n)))


@pytest.mark.parametrize("n", range(3, 12))
def test_johnson_roots_close_by_the_greedy_descent(monkeypatch, n):
    for s, r in itertools.combinations(range(1, n), 2):
        check_descents(monkeypatch, JohnsonGraphOracle(n, r, s))


@pytest.mark.parametrize("n", [4, 8])
def test_first_descent_graph_is_a_clique_that_completes_its_root(monkeypatch, n):
    # at 4 and 8 the first root's first descent is a clique of exactly the
    # n - |root| candidates that g(n) <= n leaves room for, and max_clique
    # returns root and descent as its witness without building a graph
    oracle = PowerSetGraphOracle(SampleSpace(n))
    root = oracle.roots()[0]
    cand = flat(oracle, root)
    descent = greedy_descent(cand, oracle.adjacent)
    assert len(descent) == n - len(root) and set(descent) <= set(cand)
    assert all(oracle.adjacent(u, v) for u, v in itertools.combinations(descent, 2))
    assert is_valid_g_family(Family.from_masks(n, [*root, *descent]))
    monkeypatch.setattr(PowerSetGraphOracle, "build_graph", stop_at_build)
    result = max_clique(oracle, upper_bound=n)
    assert result.optimal and result.witness == (*root, *sorted(descent))


# node counts and witnesses of the search order: a change to the order in
# which the candidates are generated, or to the order the graph keeps them
# in, changes them; J(15,6,2), at some 4 000 nodes, is where the vertex
# order weighs most
SEARCH_ORDER_PINS = [
    (lambda: g_exact(8, "search"), 8, 6, (255, 135, 153, 170, 180, 204, 210, 225)),
    (lambda: g_exact(9, "search"), 8, 16, (511, 259, 317, 336, 366, 414, 416, 461)),
    (lambda: g_exact(12, "search"), 12, 11,
     (4095, 2079, 2275, 2412, 2740, 2898, 2953, 3288, 3377, 3462, 3626, 3653)),
    (lambda: johnson_omega(10, 4, 2), 7, 6, (15, 51, 85, 105, 153, 165, 195)),
    (lambda: johnson_omega(12, 4, 2), 7, 7, (15, 51, 85, 105, 153, 165, 195)),
    (lambda: johnson_omega(12, 6, 4), 7, 13, (63, 207, 343, 423, 615, 663, 783)),
    (lambda: johnson_omega(14, 10, 7), 13, 52,
     (1023, 7295, 8117, 8154, 11679, 12019, 12156, 13817, 14014, 14167, 14838, 15069, 15163)),
    (lambda: johnson_omega(15, 6, 2), 10, 3959,
     (63, 963, 3276, 5912, 13409, 14482, 20002, 20900, 25172, 26889)),
    (lambda: g_exact(16, "search"), 16, 14,
     (65535, 32895, 34695, 39321, 40545, 43690, 44370, 45900, 46260, 52020, 52428, 53970, 54570, 57825,
      58905, 63495)),
]


@pytest.mark.parametrize("call, size, nodes, witness", SEARCH_ORDER_PINS,
                         ids=["g8", "g9", "g12", "j10-4-2", "j12-4-2", "j12-6-4", "j14-10-7", "j15-6-2", "g16"])
def test_search_order_is_pinned(call, size, nodes, witness):
    result = call()
    assert (result.size, result.optimal, result.nodes_explored, result.witness) == (size, True, nodes, witness)


def test_a_search_leaves_no_reference_cycle():
    # each call reaches the branch-and-bound, whose graph rows must be freed
    # when it returns, not kept alive in a cycle until the collector runs
    gc.collect()
    gc.disable()
    try:
        g_exact(9, "search")
        johnson_omega(10, 4, 2)
        max_clique(PowerSetGraphOracle(SampleSpace(9)))
        assert gc.collect() == 0
    finally:
        gc.enable()


NOT_SQUAREFREE = [n for n in range(1, pifam.search.SEARCH_MAX_N + 1) if n not in SQUAREFREE]


class FullCandidatePowerSetGraph(PowerSetGraphOracle):
    """The power-set graph whose roots take every candidate, by the filter in
    oracles.py, one class per size: the events of one size containing point
    n are one orbit of the permutations that keep the root.  Sizes go by
    |2b - n|, the larger first on a tie; smallest first, the size-4 class
    of n = 16 holds no clique that reaches 16, and proving it takes minutes."""

    def candidates(self, root):
        n = self.space.n
        cand = power_set_root_candidates(n, root)
        sizes = sorted(range(1, n), key=lambda b: (abs(2 * b - n), -b))
        return iter([[m for m in cand if m.bit_count() == b] for b in sizes])


@pytest.mark.parametrize("n", range(1, pifam.search.SEARCH_MAX_N + 1))
def test_power_set_root_candidates_are_the_filter_cut_to_core_sizes_at_core_roots(n):
    # a root whose last event has a core size a (n | a²) keeps the core
    # sizes; every other root keeps every candidate
    oracle = PowerSetGraphOracle(SampleSpace(n))
    for root in oracle.roots():
        core = root[-1].bit_count() ** 2 % n == 0
        expected = [m for m in power_set_root_candidates(n, root) if not core or m.bit_count() ** 2 % n == 0]
        assert sorted(flat(oracle, root)) == expected


def test_core_sizes_are_the_multiples_of_the_least_core_size():
    # the sizes a with n | a² are the multiples of c(n), the least c with n | c²
    for n in range(1, 64):
        c = next(c for c in range(1, n + 1) if c * c % n == 0)
        assert [a for a in range(1, n + 1) if a * a % n == 0] == list(range(c, n + 1, c))


@pytest.mark.parametrize("n", NOT_SQUAREFREE)
def test_core_first_search_matches_the_unreduced_search(n):
    result = g_exact(n, "search")
    unreduced = max_clique(FullCandidatePowerSetGraph(SampleSpace(n)), upper_bound=n)
    assert (result.size, result.optimal) == (unreduced.size, unreduced.optimal)
    assert result.method == "search-exhaustive"
    assert is_valid_g_family(Family.from_masks(n, result.witness))
    if n <= 10:
        assert result.size == brute_g(n)


@pytest.mark.parametrize("n", [12, 6, 10])
def test_a_non_core_root_keeps_every_candidate(monkeypatch, n):
    # at n = 12 the root (Ω, v_3) alone gives 3 through events of sizes 4
    # and 8, none of them core; squarefree n has no proper core size at all.
    # Cutting a non-core root to core sizes loses the third event.
    space = SampleSpace(n)
    if n == 12:
        root = next(r for r in PowerSetGraphOracle(space).roots() if r[-1].bit_count() == 3)
        monkeypatch.setattr(PowerSetGraphOracle, "roots", lambda self: [root])
    assert max_clique(PowerSetGraphOracle(space)).size == 3
    generate = PowerSetGraphOracle.candidates
    monkeypatch.setattr(PowerSetGraphOracle, "candidates", lambda self, root: (
        [m for m in members if m.bit_count() ** 2 % n == 0] for members in generate(self, root)))
    assert max_clique(PowerSetGraphOracle(space)).size == 2


@pytest.mark.parametrize("n", [4, 9, 6, 10, 15])
def test_g_search_node_counts_where_the_core_rule_drops_no_candidate(n):
    # at 4 and 9 every candidate of a core root has a core size already, and
    # squarefree n has no proper core size, so the rule leaves these searches as they were
    result = g_exact(n, "search")
    assert (result.size, result.nodes_explored) == {4: (4, 2), 9: (8, 16)}.get(n, (3, 1))


@pytest.mark.parametrize("n", SQUAREFREE)
def test_auto_certifies_squarefree_n_by_the_divisor_family(n):
    result = g_exact(n)
    assert (result.size, result.optimal, result.nodes_explored) == (1 + len(primes_of(n)), True, 0)
    assert result.method == "construction-plus-size-bound"
    assert is_valid_g_family(Family.from_masks(n, result.witness))
    multiples = [sum(1 << (j - 1) for j in range(p, n + 1, p)) for p in primes_of(n)]
    assert result.witness == (*multiples, (1 << n) - 1)


def test_g_exact_construct_method():
    for n in (4, 8, 12):
        result = g_exact(n, "construct")
        assert result.size == n and result.optimal
        assert result.method == "construction-plus-bound"
        fam = Family.from_masks(n, result.witness)
        assert is_valid_g_family(fam)
        assert gram_certify(fam).rank == n
    with pytest.raises(CapacityError):
        g_exact(6, "construct")
    with pytest.raises(CapacityError):
        g_exact(9, "construct")


@pytest.mark.parametrize("name, n, route", [
    ("_try_hadamard_family", 8, "construction-plus-bound"),
    ("_divisor_family", 30, "construction-plus-size-bound"),
])
def test_a_construction_short_of_its_bound_raises(monkeypatch, name, n, route):
    build = getattr(pifam.search, name)
    monkeypatch.setattr(pifam.search, name, lambda n, *primes: Family.from_masks(n, build(n, *primes).masks()[1:]))
    with pytest.raises(CertificateError, match=f"^{route}: the witness has .* events, not the bound"):
        g_exact(n)


def test_search_at_the_capacity_agrees_with_the_hadamard_route():
    result = g_exact(16, "search")
    assert result.size == 16 == g_exact(16, "construct").size
    assert result.optimal and is_valid_g_family(Family.from_masks(16, result.witness))


def test_g_exact_auto_prefers_construction():
    assert g_exact(8).method == "construction-plus-bound"
    assert g_exact(9).method == "search-exhaustive"
    assert g_exact(7).method == "construction-plus-size-bound"
    assert g_exact(20).method == "construction-plus-bound"  # beyond search capacity


def test_auto_route_of_every_n_below_64():
    routes = {}
    for n in range(1, 64):
        try:
            route = g_exact(n).method
        except CapacityError:
            route = "CapacityError"
        routes.setdefault(route, []).append(n)
    assert routes == {
        "CapacityError": [18, 25, 27, 28, 36, 40, 45, 49, 50, 52, 54, 56, 63],
        "construction-plus-size-bound": SQUAREFREE,
        "construction-plus-bound": [4, 8, 12, 16, 20, 24, 32, 44, 48, 60],
        "search-exhaustive": [9],
    }
    assert len(SQUAREFREE) == 39


def test_g_exact_capacity_and_parameters():
    with pytest.raises(CapacityError):
        g_exact(17, "search")
    with pytest.raises(CapacityError) as err:
        g_exact(18, "auto")  # 18 is neither a multiple of 4 nor squarefree; search is capped
    assert "search" in str(err.value)
    with pytest.raises(CapacityError):
        g_exact(30, "search")  # auto certifies 30 by construction; search is still capped
    with pytest.raises(CapacityError):
        g_exact(30, "construct")  # the construct method is Hadamard-only
    with pytest.raises(ParameterError):
        g_exact(4, "guess")
    with pytest.raises(ParameterError):
        g_exact(0)


def test_g_prime_witnesses_are_minimal():
    for p in (2, 3, 5, 7, 11, 13):
        result = g_exact(p, "search")
        assert result.size == 2
        fam = Family.from_masks(p, result.witness)
        assert is_valid_g_family(fam)


def test_f_exact_values_and_witnesses():
    for n, g in G_VALUES.items():
        result = f_exact(n, "search")
        assert result.size == g + 1
        assert 0 in result.witness  # the empty event joins any family
        assert len(set(result.witness)) == result.size


def test_f_exact_examples():
    assert f_exact(4).size == 5
    assert f_exact(3).size == 3
    assert f_exact(8).size == 9


def test_direct_full_graph_search_agrees_with_g_plus_one():
    # networkx searches the raw all-subsets graph, the empty set included,
    # without any of the g-side reductions, so f = g + 1 is cross-checked
    for n in range(1, 9):
        assert brute_f(n) == G_VALUES[n] + 1 == g_exact(n, "search").size + 1


@pytest.mark.parametrize("key,value", sorted(JOHNSON_VALUES.items()))
def test_johnson_omega_frozen_values(key, value):
    n, r, s = key
    result = johnson_omega(n, r, s)
    assert result.size == value
    oracle = JohnsonGraphOracle(n, r, s)
    for a, b in itertools.combinations(result.witness, 2):
        assert oracle.adjacent(a, b)


def test_johnson_omega_oracle_rederivation():
    for (n, r, s), value in JOHNSON_VALUES.items():
        assert brute_johnson_omega(n, r, s) == value


SMALL_JOHNSON = [
    (n, r, s)
    for n in range(4, 10)
    for r in range(2, n - 1)
    for s in range(1, r)
    if math.comb(n, r) <= 130
]


@pytest.mark.parametrize("n,r,s", SMALL_JOHNSON)
def test_johnson_omega_matches_networkx(n, r, s):
    # the single root, the Deza/Fisher/Gram bounds and the plane seeds
    # against networkx on the whole graph, several s per r
    result = johnson_omega(n, r, s)
    assert result.size == brute_johnson_omega(n, r, s)
    assert result.optimal and len(set(result.witness)) == result.size
    oracle = JohnsonGraphOracle(n, r, s)
    for a, b in itertools.combinations(result.witness, 2):
        assert oracle.adjacent(a, b)


def test_johnson_root_matches_unreduced_search():
    # the edge root, with the bounds and with none, against networkx on the whole graph
    for key in ((10, 4, 2), (10, 5, 1), (7, 3, 1)):
        assert johnson_omega(*key).size == max_clique(JohnsonGraphOracle(*key)).size == brute_johnson_omega(*key)


class VertexRootJohnsonGraph(JohnsonGraphOracle):
    """The same graph rooted at the vertex v0 alone, not at an edge."""

    def roots(self):
        return [((1 << self.r) - 1,)]


EDGE_ROOT_JOHNSON = [
    (n, r, s)
    for n in range(4, 12)
    for r in range(2, n - 1)
    for s in range(1, r)
    if math.comb(n, r) <= 462
]


@pytest.mark.parametrize("n,r,s", [(n, r, s) for n, r, s in EDGE_ROOT_JOHNSON if n - r >= r - s])
def test_third_vertex_search_matches_networkx_on_johnson_graphs(n, r, s):
    # one branch-and-bound per class of the edge root, each with that
    # class's first candidate fixed, gives networkx's clique number of the
    # whole graph, with no bound and at the least named bound of johnson_omega
    omega = JOHNSON_11_VALUES[n, r, s] if n == 11 else brute_johnson_omega(n, r, s)
    assert max_clique(JohnsonGraphOracle(n, r, s)).size == omega
    result = johnson_omega(n, r, s)
    assert (result.size, result.optimal) == (omega, True)


@pytest.mark.parametrize("n,r,s", EDGE_ROOT_JOHNSON)
def test_johnson_edge_root_matches_vertex_root(n, r, s):
    # with no bound and no seed, the edge root's clique number is the
    # vertex root's, including the graphs with no edge (n - r < r - s)
    edge = max_clique(JohnsonGraphOracle(n, r, s))
    assert edge.size == max_clique(VertexRootJohnsonGraph(n, r, s)).size


def test_johnson_roots_pins():
    (root,) = JohnsonGraphOracle(11, 4, 2).roots()
    assert len(root) == 2 and (root[0] & root[1]).bit_count() == 2
    assert JohnsonGraphOracle(7, 5, 1).roots() == [(0b11111,)]  # two 5-sets of 7 meet in >= 3
    assert johnson_omega(7, 5, 1).size == 1
    result = johnson_omega(11, 4, 2)
    assert (result.size, result.optimal, result.nodes_explored) == (7, True, 6)  # 1 793 nodes from the vertex root


@pytest.mark.parametrize("key,value,method", [
    ((16, 4, 1), 13, "deza-bound-met-by-seed"),  # 13 lines of the plane of order 3
    ((13, 3, 1), 7, "deza-bound-met-by-seed"),   # the Fano plane
    ((9, 3, 1), 7, "deza-bound-met-by-seed"),
    ((20, 2, 1), 19, "deza-bound-met-by-search"),  # a sunflower of 19 pairs
    ((11, 5, 2), 11, "fisher-bound-met-by-search"),  # the blocks of a 2-(11,5,2) design
])
def test_johnson_closed_by_a_named_bound(key, value, method):
    result = johnson_omega(*key)
    assert (result.size, result.optimal, result.method) == (value, True, method)
    if method.endswith("seed"):
        assert result.nodes_explored == 0


def test_johnson_search_at_a_bound_that_it_meets():
    # the edge root of J(18,6,2) has 2 870 candidates in three classes; with
    # a third vertex fixed per class, the search meets 16 (Delsarte's bound,
    # met by the 16 blocks of the biplane 2-(16,6,2)) in 99 686 nodes,
    # where one branch-and-bound over all of them took 6 571 417
    oracle = JohnsonGraphOracle(18, 6, 2)
    result = max_clique(oracle, upper_bound=16)
    assert (result.size, result.optimal, result.method) == (16, True, "bound-met-by-search")
    assert result.nodes_explored == 99686
    assert all(oracle.adjacent(a, b) for a, b in itertools.combinations(result.witness, 2))


def test_johnson_hadamard_seed_path():
    result = johnson_omega(12, 6, 3)
    assert result.size == 11
    assert result.method == "gram-bound-met-by-seed"  # the n - 1 bound closed it
    assert johnson_omega(16, 8, 4).size == 15


def test_johnson_validation():
    with pytest.raises(ParameterError):
        johnson_omega(4, 4, 1)
    with pytest.raises(ParameterError):
        johnson_omega(4, 2, 0)
    with pytest.raises(CapacityError):
        JohnsonGraphOracle(60, 30, 15)


class _Vertex(int):
    pass


def test_johnson_oracle_adjacency_needs_two_distinct_vertices():
    # on both oracles, every endpoint goes through the vertex rule: an int that
    # is not a bool, naming a nonempty set of points in 1..n (of size r for
    # Johnson); the odd ints below meet some vertex in the wanted number of
    # points when their bits are read as a set, so a dropped bool or range
    # check turns a non-edge into an edge
    oracles = [PowerSetGraphOracle(SampleSpace(n)) for n in (1, 4, 6)]
    oracles += [JohnsonGraphOracle(*k) for k in ((5, 2, 1), (6, 3, 1), (7, 4, 2))]
    for oracle in oracles:
        johnson = isinstance(oracle, JohnsonGraphOracle)
        n = oracle.n if johnson else oracle.space.n
        r, s = (oracle.r, oracle.s) if johnson else (None, None)
        odd = [True, False, 0, -1, -3, -(1 << n) | 3, 1 << n, 1 << n | 1, 1 << n | 3, (1 << n + 1) - 1,
               1.0, 3.0, float((1 << n) - 1), _Vertex(1), _Vertex(3), _Vertex((1 << n) - 1), _Vertex(1 << n | 1)]
        if johnson:
            odd += [1, (1 << r + 1) - 1, (1 << r - 1) - 1 << 1]  # sizes 1, r + 1 and r - 1
        values = odd + list(range(1, 1 << n))
        for v in values:
            assert oracle.contains_vertex(v) is graph_vertex(v, n, r), (oracle, v)
        for a, b in itertools.product(values, repeat=2):
            got = oracle.adjacent(a, b)
            assert got == oracle.adjacent(b, a), (oracle, a, b)
            assert got == graph_adjacent(a, b, n, r, s), (oracle, a, b)
    oracle = JohnsonGraphOracle(5, 2, 1)
    assert oracle.adjacent(0b00011, 0b00110)
    assert not oracle.adjacent(0b00011, 0b00011)
    assert not oracle.adjacent(0b00011, 0b00001)  # a 1-set meeting it in one point
    assert not oracle.adjacent(0b00011, 0b100001)  # meets it in point 1, but point 6 is outside {1..5}


def test_power_set_oracle_vertex_capacity(monkeypatch):
    # at n = 63 the root (Ω, v_31) has no candidate, and (Ω, v_30) those of
    # sizes 21 and 42, C(29,9)·C(33,11) + C(29,19)·C(33,22) of them: refused
    # at the first read, before any subset is listed
    oracle = PowerSetGraphOracle(SampleSpace(63))
    first, second = oracle.roots()[:2]
    assert list(oracle.candidates(first)) == []
    cand = oracle.candidates(second)
    monkeypatch.setattr(pifam.graphs, "itertools", None)  # listing a subset would fail
    total = math.comb(29, 9) * math.comb(33, 11) + math.comb(29, 19) * math.comb(33, 22)
    with pytest.raises(CapacityError, match=f"a root's {total} candidates exceed the 1048576-vertex limit"):
        next(cand)


def test_power_set_search_past_two_to_the_limit_subsets():
    # 2^21 subsets pass MAX_VERTICES, but no root at n = 21 builds that many
    result = max_clique(PowerSetGraphOracle(SampleSpace(21)), upper_bound=3)
    assert (result.size, result.optimal, result.nodes_explored) == (3, True, 1)
    assert is_valid_g_family(Family.from_masks(21, result.witness))


def test_implied_f_bound():
    assert implied_f_bound(4, 2, 1, 3) == 5
    assert implied_f_bound(9, 3, 1, 7) == 9
    assert implied_f_bound(6, 3, 1, 4) is None  # 6*1 != 9


def test_johnson_bound_consistency_with_g():
    # a johnson clique plus the full space is a valid family, so
    # g(n) >= omega + 1 whenever n*s = r^2
    for (n, r, s) in ((4, 2, 1), (8, 4, 2), (9, 3, 1)):
        assert g_exact(n, "search").size >= JOHNSON_VALUES[(n, r, s)] + 1


def test_search_is_deterministic():
    a = g_exact(9, "search")
    b = g_exact(9, "search")
    assert a == b
    x = johnson_omega(9, 3, 1)
    y = johnson_omega(9, 3, 1)
    assert x == y


def test_clique_result_serialization():
    result = g_exact(4)
    data = result.to_dict()
    assert set(data) == {"size", "optimal", "witness", "nodes_explored", "method"}
    assert data["size"] == 4
    assert [1, 2, 3, 4] in data["witness"]


def test_conjecture_sweep_rows():
    rows = conjecture_sweep(12)
    assert [(row.n, row.g, row.verdict) for row in rows] == [
        (4, 4, "HOLDS"),
        (8, 8, "HOLDS"),
        (12, 12, "HOLDS"),
    ]
    assert all(row.method == "construction-plus-bound" for row in rows)


def test_conjecture_sweep_honest_open_entries():
    rows = {row.n: row for row in conjecture_sweep(64)}
    assert rows[28].verdict == "OPEN" and rows[28].g is None
    assert rows[64].verdict == "OPEN"  # order-64 matrix exists, family does not fit
    assert rows[60].verdict == "HOLDS"
    holds = [n for n, row in rows.items() if row.verdict == "HOLDS"]
    assert holds == [4, 8, 12, 16, 20, 24, 32, 44, 48, 60]


def test_conjecture_sweep_builds_each_witness_once(monkeypatch):
    built = []

    def counted(h):
        built.append(h.order)
        return pifam.hadamard_family(h)

    monkeypatch.setattr(pifam.search, "hadamard_family", counted)
    rows = conjecture_sweep(64)
    assert built == [4, 8, 12, 16, 20, 24, 32, 44, 48, 60]
    assert [row.n for row in rows if row.verdict == "HOLDS"] == built


def test_construction_witness_pairs_are_checked_once(monkeypatch):
    # hadamard_family's is_valid_g_family is the one pass over the 66 pairs
    checked, adjacent_calls = [], []
    valid = pifam.setsys.is_valid_g_family
    adjacent = PowerSetGraphOracle.adjacent

    def counted_valid(family):
        checked.append(math.comb(len(family), 2))
        return valid(family)

    def counted_adjacent(self, a, b):
        adjacent_calls.append((a, b))
        return adjacent(self, a, b)

    for module in (pifam.setsys, pifam.exactlin):
        monkeypatch.setattr(module, "is_valid_g_family", counted_valid)
    monkeypatch.setattr(PowerSetGraphOracle, "adjacent", counted_adjacent)
    result = g_exact(12, "construct")
    assert result.size == 12 and result.method == "construction-plus-bound"
    assert checked == [math.comb(12, 2)] and adjacent_calls == []


def test_johnson_seed_pairs_are_checked_once(monkeypatch):
    calls = []
    adjacent = JohnsonGraphOracle.adjacent

    def counted(self, a, b):
        calls.append((a, b))
        return adjacent(self, a, b)

    monkeypatch.setattr(JohnsonGraphOracle, "adjacent", counted)
    for (n, r, s), lines in {(16, 4, 1): 13, (9, 3, 1): 7}.items():
        calls.clear()
        result = johnson_omega(n, r, s)
        assert result.size == lines and result.method == "deza-bound-met-by-seed"
        assert len(calls) == math.comb(lines, 2)  # 78 and 21
    oracle = JohnsonGraphOracle(9, 3, 1)
    with pytest.raises(ParameterError):
        max_clique(oracle, upper_bound=7, seed_clique=[0b111, 0b111000, 0b111000000])


def test_conjecture_sweep_validation():
    with pytest.raises(ParameterError):
        conjecture_sweep(0)
    with pytest.raises(ParameterError):
        conjecture_sweep(65)

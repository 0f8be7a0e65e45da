"""Branch-and-bound clique search, g/f computation, and the sweep."""

import ast
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

from oracles import brute_f, brute_g, brute_johnson_omega, brute_max_clique

# values computed with the networkx-based oracle in oracles.py, frozen here
G_VALUES = {1: 1, 2: 2, 3: 2, 4: 4, 5: 2, 6: 3, 7: 2, 8: 8, 9: 8, 10: 3}
JOHNSON_VALUES = {(4, 2, 1): 3, (8, 4, 2): 7, (9, 3, 1): 7, (6, 3, 1): 4}


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


def test_max_clique_seed_and_bound():
    oracle = PowerSetGraphOracle(SampleSpace(4))
    seed = hadamard_family(hadamard_matrix(4)).masks()
    result = max_clique(oracle, upper_bound=4, seed_clique=seed)
    assert result.size == 4 and result.optimal
    assert result.nodes_explored == 0  # the seed already meets the bound
    assert set(result.witness) == set(seed)


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


class WholePowerSetGraph(PowerSetGraphOracle):
    """The same graph with the root reductions switched off."""

    def roots(self):
        return [()]


class WholeJohnsonGraph(JohnsonGraphOracle):
    def roots(self):
        return [()]


@pytest.mark.parametrize("n", sorted(G_VALUES))
def test_root_reduction_matches_unreduced_search(n):
    # complement halving and one root per size class give the clique
    # number of the whole graph, searched from the empty prefix
    whole = max_clique(WholePowerSetGraph(SampleSpace(n)))
    assert whole.size == G_VALUES[n] == g_exact(n, "search").size


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


def test_search_at_the_capacity_agrees_with_the_hadamard_route():
    result = g_exact(16, "search")
    assert result.size == 16 == g_exact(16, "construct").size
    assert result.optimal and is_valid_g_family(Family.from_masks(16, result.witness))


def test_g_exact_auto_prefers_construction():
    assert g_exact(8).method == "construction-plus-bound"
    assert g_exact(7).method == "search-exhaustive"
    assert g_exact(20).method == "construction-plus-bound"  # beyond search capacity


def test_g_exact_capacity_and_parameters():
    with pytest.raises(CapacityError):
        g_exact(17, "search")
    with pytest.raises(CapacityError) as err:
        g_exact(18, "auto")  # 18 is not a multiple of 4; search is capped
    assert "search" in str(err.value)
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
    for key in ((10, 4, 2), (10, 5, 1), (7, 3, 1)):
        assert johnson_omega(*key).size == max_clique(WholeJohnsonGraph(*key)).size


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


def test_power_set_oracle_vertex_capacity():
    oracle = PowerSetGraphOracle(SampleSpace(21))
    with pytest.raises(CapacityError):
        oracle.build_graph()  # 2^21 subsets exceed the vertex cap


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
    # hadamard_family's is_valid_g_family is the one pass over the pairs
    calls = {"independent": 0, "adjacent": 0}
    independent = pifam.setsys.is_independent
    adjacent = PowerSetGraphOracle.adjacent

    def counted_independent(a, b):
        calls["independent"] += 1
        return independent(a, b)

    def counted_adjacent(self, a, b):
        calls["adjacent"] += 1
        return adjacent(self, a, b)

    monkeypatch.setattr(pifam.setsys, "is_independent", counted_independent)
    monkeypatch.setattr(PowerSetGraphOracle, "adjacent", counted_adjacent)
    result = g_exact(12, "construct")
    assert result.size == 12 and result.method == "construction-plus-bound"
    assert calls == {"independent": math.comb(12, 2), "adjacent": 0}


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

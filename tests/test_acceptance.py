"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line with the measured evidence.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import random
import time

from pifam import (
    Family,
    SampleSpace,
    check_design,
    conjecture_sweep,
    dualize_design,
    f_exact,
    g_exact,
    gram_certify,
    hadamard_family,
    hadamard_matrix,
    hadamard_to_design,
    is_independent,
    is_pairwise_independent,
    is_valid_g_family,
    johnson_omega,
    paley1,
    probability,
    projective_plane,
    sylvester,
)

from oracles import brute_f


def report(line: str) -> None:
    print(f"\n{line}")


def test_criterion_1_upper_bound_by_pure_search():
    started = time.perf_counter()
    values = {}
    for n in range(1, 11):
        result = g_exact(n, "search")
        assert result.size <= n, f"g({n}) = {result.size} exceeds n"
        assert result.optimal
        values[n] = result.size
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(f"criterion 1: PASS — g(n) <= n for n=1..10 by exhaustive search "
           f"({values}, {elapsed:.2f}s)")


def test_criterion_2_hadamard_equality_two_ways():
    for n in (4, 8):
        built = hadamard_family(hadamard_matrix(n))
        assert len(built) == n
        assert is_valid_g_family(built)
        gram = gram_certify(built)
        assert gram.gram_ok and gram.rank == n
        searched = g_exact(n, "search")
        assert searched.size == n
        assert f_exact(n).size == n + 1
    assert f_exact(4).size == 5 and f_exact(8).size == 9
    report("criterion 2: PASS — g(4)=4 and g(8)=8 by construction "
           "(family valid, gram rank = n) and by independent search; f = 5, 9")


def test_criterion_3_prime_case():
    started = time.perf_counter()
    for p in (2, 3, 5, 7, 11, 13):
        result = g_exact(p, "search")
        assert result.size == 2, f"g({p}) = {result.size}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(f"criterion 3: PASS — g(p) = 2 for p in {{2,3,5,7,11,13}} "
           f"by search ({elapsed:.2f}s)")


def test_criterion_4_hadamard_generators():
    checked = []

    def verify(h):
        # orthogonality re-verified here, independent of constructor checks
        n = h.order
        for i in range(n):
            for j in range(n):
                dot = sum(h.rows[i][c] * h.rows[j][c] for c in range(n))
                assert dot == (n if i == j else 0)
        checked.append(n)

    for k in range(7):
        verify(sylvester(k))
    for q in (3, 7, 11):
        verify(paley1(q))
    assert checked == [1, 2, 4, 8, 16, 32, 64, 4, 8, 12]
    report("criterion 4: PASS — H H^T = nI verified entrywise for sylvester "
           "orders {1,2,4,8,16,32,64} and paley orders {4,8,12}")


def test_criterion_5_design_pipeline():
    for n in (4, 8, 12):
        design = hadamard_to_design(hadamard_matrix(n))
        assert (design.v, design.k, design.lam) == (n - 1, n // 2 - 1, n // 4 - 1)
        result = check_design(design)
        assert result.ok and result.symmetric
        for a, b in itertools.combinations(design.blocks, 2):
            assert (a & b).bit_count() == n // 4 - 1
    report("criterion 5: PASS — orders {4,8,12} give symmetric "
           "2-(n-1, n/2-1, n/4-1) designs with block intersections n/4-1")


def test_criterion_6_projective_plane_dualization():
    family = dualize_design(projective_plane(2))
    assert family.space.n == 9
    assert len(family) == 8  # q^2+q+2 at q=2
    assert is_valid_g_family(family)
    exact = g_exact(9, "search").size
    assert 8 <= exact <= 9
    report(f"criterion 6: PASS — dual of the order-2 plane gives 8 pairwise-"
           f"independent events on {{1..9}}; exhaustive search gives g(9) = {exact}")


def test_criterion_7_johnson_graphs():
    for n, r, s, want in ((4, 2, 1, 3), (8, 4, 2, 7)):
        result = johnson_omega(n, r, s)
        assert result.size == want == n - 1
        assert len(result.witness) == want
        for a, b in itertools.combinations(result.witness, 2):
            assert a.bit_count() == r and (a & b).bit_count() == s
        assert g_exact(n).size >= result.size + 1
    report("criterion 7: PASS — omega(4,2,1) = 3 and omega(8,4,2) = 7 with "
           "verified witnesses; g(n) >= omega + 1 at both")


def test_criterion_8_conjecture_sweep():
    started = time.perf_counter()
    rows = {row.n: row for row in conjecture_sweep(12)}
    elapsed = time.perf_counter() - started
    assert set(rows) == {4, 8, 12}
    for n, row in rows.items():
        assert row.verdict == "HOLDS" and row.g == n
        assert row.method == "construction-plus-bound"
    assert elapsed < 10.0
    report(f"criterion 8: PASS — sweep certifies g(n) = n for n in {{4,8,12}} "
           f"by construction alone ({elapsed:.2f}s; n=12 via the paley pipeline)")


def test_criterion_9_property_suites():
    # exhaustive small-n: symmetry, edge-event universality, automatic
    # intersection, and agreement with the rational definition
    pair_checks = 0
    for n in range(1, 7):
        space = SampleSpace(n)
        events = [space.event_from_mask(m) for m in range(1 << n)]
        omega, empty = space.omega(), space.empty()
        for a in events:
            assert is_independent(a, omega) and is_independent(a, empty)
        for a, b in itertools.combinations(events, 2):
            forward = is_independent(a, b)
            assert forward == is_independent(b, a)
            assert forward == (probability(a & b) == probability(a) * probability(b))
            if forward and not a.is_empty and not b.is_empty:
                assert not (a & b).is_empty
            pair_checks += 1

    # gram_ok <=> pairwise independence over randomized families
    rng = random.Random(0x1202)
    families = 0
    independent_seen = 0
    for _ in range(1000):
        n = rng.randint(1, 8)
        space = SampleSpace(n)
        t = rng.randint(1, min(6, (1 << n) - 1))
        masks = rng.sample(range(1, 1 << n), t)
        fam = Family(space, tuple(space.event_from_mask(m) for m in masks))
        assert gram_certify(fam).gram_ok == is_pairwise_independent(fam)
        families += 1
        independent_seen += is_pairwise_independent(fam)
    # engineered independent families keep the true branch exercised too
    for n in (4, 8, 12):
        fam = hadamard_family(hadamard_matrix(n))
        for t in range(1, len(fam) + 1):
            sub = Family(fam.space, fam.events[:t])
            assert gram_certify(sub).gram_ok
            families += 1
            independent_seen += 1

    # f = g + 1 against a networkx clique search of the raw all-subsets graph
    for n in range(1, 9):
        assert brute_f(n) == g_exact(n, "search").size + 1

    assert families >= 1000
    report(f"criterion 9: PASS — {pair_checks} exhaustive pair checks (n <= 6), "
           f"{families} randomized/engineered families ({independent_seen} "
           f"independent), f = g+1 cross-checked for n <= 8")

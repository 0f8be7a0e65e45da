"""The incidence matrix's column sums, the scaled Gram identity, and exact rank."""

import itertools
import random

import pytest

from pifam import (
    Family,
    ParameterError,
    SampleSpace,
    dualize_design,
    exactlin,
    gram_certify,
    hadamard_family,
    hadamard_matrix,
    is_pairwise_independent,
    paley_orders,
    projective_plane,
    rank,
    sylvester,
    sylvester_orders,
)

from oracles import fraction_rank


def event_rows(family):
    """The transposed incidence matrix: one 0/1 row per event."""
    return [[m >> i & 1 for i in range(family.space.n)] for m in family.masks()]


def test_incidence_examples():
    assert gram_certify(Family.from_points(2, [[1, 2]])).sizes == (2,)
    rep = gram_certify(Family.from_points(2, [[1], [1, 2]]))
    assert (rep.n, rep.t, rep.sizes) == (2, 2, (1, 2))


def test_incidence_of_order_4_hadamard_family():
    # the order-4 witness family is three 2-sets through point 4 plus the
    # full space, so the incidence column sums must be (2, 2, 2, 4)
    assert gram_certify(hadamard_family(sylvester(2))).sizes == (2, 2, 2, 4)


def test_rank_examples():
    assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert rank([[1, 1, 1], [1, 1, 1], [1, 1, 1]]) == 1
    assert rank([]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank(event_rows(hadamard_family(sylvester(3)))) == 8


def test_rank_rejects_ragged_input():
    with pytest.raises(ParameterError):
        rank([[1, 2], [3]])


def test_rank_rejects_non_integer_entries():
    # int() would truncate 0.5 to 0 and report rank 0; over Q the rank is 1
    for bad in ([[0.5]], [[1, 0], [0, 1.0]], [[True]], [["1"]]):
        with pytest.raises(ParameterError):
            rank(bad)


def test_rank_matches_rational_elimination():
    rng = random.Random(11)
    for trial in range(400):
        m = rng.randint(1, 8)
        w = rng.randint(1, 8)
        if trial % 3 == 0:
            # engineered rank deficiency: product of thin factors
            inner = rng.randint(0, min(m, w))
            left = [[rng.randint(-4, 4) for _ in range(inner)] for _ in range(m)]
            right = [[rng.randint(-4, 4) for _ in range(w)] for _ in range(inner)]
            mat = [
                [sum(left[i][k] * right[k][j] for k in range(inner)) for j in range(w)]
                for i in range(m)
            ]
        else:
            mat = [[rng.randint(-6, 6) for _ in range(w)] for _ in range(m)]
        assert rank(mat) == fraction_rank(mat)


def test_rank_invariant_under_permutations():
    rng = random.Random(7)
    mat = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(5)]
    base = rank(mat)
    for _ in range(20):
        rows = mat[:]
        rng.shuffle(rows)
        cols = list(range(6))
        rng.shuffle(cols)
        assert rank([[row[c] for c in cols] for row in rows]) == base


def test_gram_examples():
    rep = gram_certify(Family.from_points(2, [[1], [1, 2]]))
    assert rep.gram_ok and rep.rank == 2 and rep.full_column_rank

    rep = gram_certify(Family.from_points(4, [[1, 2], [1, 3]]))
    assert rep.gram_ok and rep.rank == 2

    rep = gram_certify(Family.from_points(2, [[1], [2]]))
    assert not rep.gram_ok


def test_gram_rejects_empty_events():
    with pytest.raises(ParameterError):
        gram_certify(Family.from_points(3, [[], [1, 2, 3]]))


def test_gram_diag_formula():
    fam = Family.from_points(6, [[1], [1, 2, 3], [1, 2, 3, 4, 5, 6]])
    rep = gram_certify(fam)
    assert rep.sizes == (1, 3, 6)
    # n*D_ii = n|A_i| - |A_i|^2, zero exactly at the full space
    assert rep.diag_scaled == (6 * 1 - 1, 6 * 3 - 9, 6 * 6 - 36)
    assert rep.diag_scaled[-1] == 0
    assert all(d > 0 for d in rep.diag_scaled[:-1])


def test_gram_json_keys():
    rep = gram_certify(hadamard_family(sylvester(3)))
    assert rep.to_dict() == {
        "gram_ok": True,
        "rank": 8,
        "t": 8,
        "n": 8,
        "full_column_rank": True,
    }


def test_gram_matches_pairwise_independence_on_random_families():
    rng = random.Random(2203)
    seen_ok = 0
    for _ in range(600):
        n = rng.randint(1, 8)
        space = SampleSpace(n)
        t = rng.randint(1, min(6, (1 << n) - 1))
        masks = rng.sample(range(1, 1 << n), t)
        fam = Family(space, tuple(space.event_from_mask(m) for m in masks))
        rep = gram_certify(fam)
        assert rep.gram_ok == is_pairwise_independent(fam)
        if rep.gram_ok:
            seen_ok += 1
            # positive definiteness: full column rank and t <= n
            assert rep.full_column_rank and rep.rank == t <= n
    assert seen_ok > 50  # the sweep must exercise both outcomes


def test_gram_full_rank_with_omega_present():
    # join the full space to independent pairs: rank must stay full
    for n in (4, 6, 8):
        space = SampleSpace(n)
        for am, bm in itertools.combinations(range(1, 1 << n), 2):
            a, b = space.event_from_mask(am), space.event_from_mask(bm)
            if not (0 < am < space.full_mask and 0 < bm < space.full_mask):
                continue
            if n * (am & bm).bit_count() != a.size * b.size:
                continue
            fam = Family(space, (a, b, space.omega()))
            rep = gram_certify(fam)
            assert rep.gram_ok and rep.full_column_rank and rep.rank == 3
            break  # one instance per n keeps this cheap


def counted_rank(monkeypatch):
    """Replace exactlin.rank, the Bareiss fallback, by a counting wrapper."""
    calls = []

    def counted(matrix):
        calls.append(len(matrix))
        return rank(matrix)

    monkeypatch.setattr(exactlin, "rank", counted)
    return calls


def test_gram_falls_back_to_bareiss_when_p_divides_a_minor(monkeypatch):
    # det B = +-2 * 12^6 / 2^12 = +-2 * 3^6 for the order-12 witness, so
    # over GF(3) its rank is short of 12 and only Bareiss can certify it
    monkeypatch.setattr(exactlin, "_BITS", 2)
    monkeypatch.setattr(exactlin, "_P", 3)
    fam = hadamard_family(hadamard_matrix(12))
    assert exactlin._rank_mod_p(fam.masks(), 12) < 12
    calls = counted_rank(monkeypatch)
    rep = gram_certify(fam)
    assert rep.gram_ok and rep.full_column_rank and rep.rank == 12
    assert calls == [12]


def test_gram_rank_needs_no_bareiss_on_the_witness_families(monkeypatch):
    calls = counted_rank(monkeypatch)
    orders = sorted(n for n in set(sylvester_orders(60)) | set(paley_orders(60)) if n >= 4)
    families = [hadamard_family(hadamard_matrix(n)) for n in orders]
    families += [dualize_design(projective_plane(q)) for q in (2, 3, 5)]
    for fam in families:
        rep = gram_certify(fam)
        assert rep.gram_ok and rep.full_column_rank and rep.rank == len(fam)
    assert calls == []


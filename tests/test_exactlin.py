"""The incidence matrix's column sums, the scaled Gram identity, and exact rank."""

import itertools
import random

import pytest

from pifam import (
    CertificateError,
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
    sylvester,
    sylvester_orders,
)
from pifam.setsys import MAX_POINTS

from oracles import rank_mod_p


def test_incidence_examples():
    assert gram_certify(Family.from_points(2, [[1, 2]])).sizes == (2,)
    rep = gram_certify(Family.from_points(2, [[1], [1, 2]]))
    assert (rep.n, rep.t, rep.sizes) == (2, 2, (1, 2))


def test_incidence_of_order_4_hadamard_family():
    # the order-4 witness family is three 2-sets through point 4 plus the
    # full space, so the incidence column sums must be (2, 2, 2, 4)
    assert gram_certify(hadamard_family(sylvester(2))).sizes == (2, 2, 2, 4)


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


def counted_passes(monkeypatch, first_bits=13):
    """Record (exponent, rank) for each pass of the packed rank kernel; the
    first pass, mod 2^13 - 1, runs mod 2^first_bits - 1 instead."""
    calls = []
    kernel = exactlin._rank_mod_p

    def counted(masks, n, bits):
        calls.append((bits, kernel(masks, n, first_bits if bits == 13 else bits)))
        return calls[-1][1]

    monkeypatch.setattr(exactlin, "_rank_mod_p", counted)
    return calls


def test_two_primes_exceed_hadamards_bound_at_every_order():
    # a 0/1 matrix of order r has |det| <= (r+1)^((r+1)/2) / 2^r, and this
    # must stay below (2^13 - 1)(2^127 - 1) for every r up to MAX_POINTS
    pq = ((1 << 13) - 1) * ((1 << 127) - 1)
    for r in range(MAX_POINTS + 1):
        assert (r + 1) ** (r + 1) < 4**r * pq * pq


def test_packed_fields_hold_every_multiply_add_and_fold_to_residues():
    # a field starts at 0 or 1 and takes at most one multiply-add of at most
    # (p - 1)p per pivot, so it must hold 1 + 64(p - 1)p without a carry;
    # folding the widest field value must end at a residue 0..p
    for bits in (13, 127):
        p = (1 << bits) - 1
        width = 8 * -(-(2 * bits + 6) // 8)
        assert 1 + max(64, MAX_POINTS) * (p - 1) * p < 1 << width
        row = (1 << width) - 1
        while row >> bits:
            row = (row & p) + (row >> bits)
        assert row <= p and row % p == ((1 << width) - 1) % p


def test_rank_kernel_folds_until_no_field_is_above_p():
    # mod 3: Q = e_0 + e_62 is the first pivot, each R_i = e_0 + e_i reduces
    # to the pivot e_i + 2e_62, and F = e_1 + ... + e_51 = sum R_i mod 3 takes
    # 51 multiply-adds of 4 in field 62, which reaches 204 = 0 mod 3; three
    # folds leave 6 there, so F is zero only if folding goes on past three
    n = 63
    masks = [1 | 1 << 62] + [1 | 1 << i for i in range(1, 52)] + [(1 << 52) - 2]
    matrix = [[m >> i & 1 for i in range(n)] for m in masks]
    assert exactlin._rank_mod_p(masks, n, 2) == rank_mod_p(matrix, 3) == 52


def test_gram_falls_back_to_the_second_prime_when_p_divides_a_minor(monkeypatch):
    # det B = +-2 * 12^6 / 2^12 = +-2 * 3^6 for the order-12 witness, so
    # over GF(3) its rank is short of 12 and only the second prime certifies it
    fam = hadamard_family(hadamard_matrix(12))
    expected = gram_certify(fam)
    calls = counted_passes(monkeypatch, first_bits=2)
    assert gram_certify(fam) == expected
    assert expected.gram_ok and expected.full_column_rank and expected.rank == 12
    assert calls == [(13, 6), (127, 12)]


def test_gram_rank_needs_no_second_pass_on_the_witness_families(monkeypatch):
    calls = counted_passes(monkeypatch)
    orders = sorted(n for n in set(sylvester_orders()) | set(paley_orders()) if 4 <= n <= 60)
    families = [hadamard_family(hadamard_matrix(n)) for n in orders]
    families += [dualize_design(projective_plane(q)) for q in (2, 3, 5)]
    for fam in families:
        rep = gram_certify(fam)
        assert rep.gram_ok and rep.full_column_rank and rep.rank == len(fam)
    assert [bits for bits, _ in calls] == [13] * len(families)


def test_gram_ranks_a_deficient_family_in_the_second_pass(monkeypatch):
    # 256 random events that all avoid point 63 leave column 63 of B zero,
    # so rank 62 is the most possible and the first pass cannot reach 63
    space = SampleSpace(63)
    rng = random.Random(63)
    fam = Family(space, tuple(space.event_from_mask(rng.randrange(1, 1 << 62))
                              for _ in range(256)))
    calls = counted_passes(monkeypatch)
    rep = gram_certify(fam)
    assert (rep.rank, rep.gram_ok, rep.full_column_rank) == (62, False, False)
    assert [bits for bits, _ in calls] == [13, 127]


def test_a_gram_identity_with_a_short_rank_raises(monkeypatch):
    # positive definiteness forces full column rank, so a short rank is a failed certificate
    monkeypatch.setattr(exactlin, "_rank_mod_p", lambda masks, n, bits: 7)
    with pytest.raises(CertificateError, match="column rank deficient"):
        gram_certify(hadamard_family(hadamard_matrix(8)))

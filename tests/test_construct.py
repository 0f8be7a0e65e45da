"""Hadamard generators, design extraction, planes, and dualization."""

import itertools

import pytest

import pifam.construct
from pifam import (
    CapacityError,
    CertificateError,
    Design,
    DesignCheck,
    HadamardMatrix,
    ParameterError,
    check_design,
    design_from_dict,
    design_to_dict,
    dualize_design,
    gram_certify,
    hadamard_family,
    hadamard_from_json,
    hadamard_from_text,
    hadamard_matrix,
    hadamard_to_design,
    hadamard_to_json,
    hadamard_to_text,
    is_valid_g_family,
    johnson_omega,
    paley1,
    paley_orders,
    projective_plane,
    sylvester,
    sylvester_orders,
)
from pifam.construct import MAX_BLOCKS

from oracles import matrix_text, paley_rows, plane_blocks, sylvester_rows

FANO_LINES = [[1, 2, 3], [1, 4, 5], [1, 6, 7], [2, 4, 6], [2, 5, 7], [3, 4, 7], [3, 5, 6]]


def fano() -> Design:
    return design_from_dict({"v": 7, "k": 3, "lambda": 1, "blocks": FANO_LINES})


def test_hadamard_matrix_type_rejects_bad_input():
    with pytest.raises(ParameterError):
        HadamardMatrix(((1, 1), (1, 1)))  # rows not orthogonal
    with pytest.raises(ParameterError):
        HadamardMatrix(((1, 0), (0, 1)))  # entries must be +-1
    with pytest.raises(ParameterError):
        HadamardMatrix(((1, 1),))  # not square


def test_sylvester_examples():
    assert sylvester(0).rows == ((1,),)
    assert sylvester(1).rows == ((1, 1), (1, -1))
    assert sylvester(2).order == 4  # orthogonality checked at construction
    with pytest.raises(CapacityError):
        sylvester(7)
    with pytest.raises(CapacityError, match=r"got k=1000.*\.\.\..*0000$"):
        sylvester(10**100)  # refused before 2**k is formed, quoted in short
    with pytest.raises(ParameterError):
        sylvester(-1)


@pytest.mark.parametrize("q", [3, 7, 11, 19, 23])
def test_paley_orders_are_orthogonal(q):
    assert paley1(q).order == q + 1


@pytest.mark.parametrize("order, method", [
    (n, method) for method, orders in (("sylvester", sylvester_orders()), ("paley", paley_orders()))
    for n in orders] + [(n, "auto") for n in sorted(set(sylvester_orders()) | set(paley_orders()))])
def test_generators_emit_the_matrices_built_on_sign_lists(order, method):
    # the mask generators against the doubling and the residue test on +-1
    # lists; auto takes Sylvester's matrix where both generators cover the order
    rows = (sylvester_rows(order.bit_length() - 1) if order & (order - 1) == 0 and method != "paley"
            else paley_rows(order - 1))
    h = hadamard_matrix(order, method)
    assert hadamard_to_text(h) == matrix_text(rows)
    assert h.rows == tuple(map(tuple, rows))
    assert h.plus == tuple(sum(1 << c for c, x in enumerate(row) if x > 0) for row in rows)


@pytest.mark.parametrize("q", [5, 9, 15, 4])
def test_paley_rejects_bad_q(q):
    # 5 is 1 mod 4; 9, 15, 4 are not prime
    with pytest.raises(ParameterError):
        paley1(q)


def test_paley_capacity():
    with pytest.raises(CapacityError):
        paley1(67)


def test_generator_order_catalogs():
    assert sylvester_orders() == [1, 2, 4, 8, 16, 32, 64]
    assert paley_orders() == [4, 8, 12, 20, 24, 32, 44, 48, 60]


def test_hadamard_matrix_dispatch():
    assert hadamard_matrix(16).order == 16
    assert hadamard_matrix(12).order == 12  # only paley covers 12
    with pytest.raises(CapacityError):
        hadamard_matrix(6)
    with pytest.raises(CapacityError):
        hadamard_matrix(12, "sylvester")
    with pytest.raises(ParameterError):
        hadamard_matrix(4, "unknown")


@pytest.mark.parametrize("order", [0, -1, -4])
def test_hadamard_matrix_refuses_an_order_below_one(order):
    # an input error like sylvester(-1), not a capacity limit
    with pytest.raises(ParameterError, match="at least 1"):
        hadamard_matrix(order)
    assert hadamard_matrix(1).rows == ((1,),)


def test_matrix_text_and_json_round_trip():
    h = paley1(11)
    assert hadamard_from_text(hadamard_to_text(h)).rows == h.rows
    assert hadamard_from_json(hadamard_to_json(h)).rows == h.rows
    with pytest.raises(ParameterError):
        hadamard_from_text("++x\n+-+\n")
    with pytest.raises(ParameterError):
        hadamard_from_json([[1, 1], "nope"])


def test_matrix_text_skips_blank_lines_and_needs_a_row():
    assert hadamard_from_text("\n++\n  \n+-\n\n").rows == ((1, 1), (1, -1))
    with pytest.raises(ParameterError, match="contains no rows"):
        hadamard_from_text(" \n\t\n")
    with pytest.raises(ParameterError, match="at least one row"):
        HadamardMatrix(())


def test_design_blocks_are_points_of_the_design():
    with pytest.raises(ParameterError, match=r"block 1 has bits outside points 1\.\.3"):
        Design(3, 1, 0, (8,))


@pytest.mark.parametrize(
    "order,expected",
    [(4, (3, 1, 0)), (8, (7, 3, 1)), (12, (11, 5, 2))],
)
def test_hadamard_to_design_parameters(order, expected):
    design = hadamard_to_design(hadamard_matrix(order))
    assert (design.v, design.k, design.lam) == expected
    report = check_design(design)
    assert report.ok and report.symmetric
    if order > 4:  # blocks of a 2-(3,1,0) design are singletons, no pairs meet
        assert report.intersections_ok


def test_hadamard_to_design_order_4_is_three_singletons():
    design = hadamard_to_design(sylvester(2))
    assert sorted(design.block_points()) == [(1,), (2,), (3,)]


def test_hadamard_to_design_rejects_bad_orders():
    with pytest.raises(ParameterError):
        hadamard_to_design(sylvester(1))
    with pytest.raises(ParameterError):
        hadamard_to_design(sylvester(0))


def test_order_8_design_is_a_fano_plane():
    design = hadamard_to_design(sylvester(3))
    assert (design.v, design.k, design.lam, design.b) == (7, 3, 1, 7)
    assert check_design(design).ok


@pytest.mark.parametrize("order", [4, 8, 12])
def test_hadamard_family_is_maximum(order):
    fam = hadamard_family(hadamard_matrix(order))
    assert len(fam) == order
    proper = fam.events[:-1]
    assert all(ev.size == order // 2 for ev in proper)
    assert fam.events[-1].is_full
    assert all(
        (a & b).size == order // 4 for a, b in itertools.combinations(proper, 2)
    )
    assert is_valid_g_family(fam)
    report = gram_certify(fam)
    assert report.gram_ok and report.rank == order


def test_hadamard_family_order_4_matches_hand_enumeration():
    fam = hadamard_family(sylvester(2))
    assert {ev.points() for ev in fam} == {(1, 4), (2, 4), (3, 4), (1, 2, 3, 4)}


def test_hadamard_family_order_64_exceeds_sample_space():
    with pytest.raises(CapacityError):
        hadamard_family(sylvester(6))


def test_validate_design_examples():
    report = check_design(fano())
    assert report.ok and report.symmetric and report.intersections_ok
    bad = design_from_dict({"v": 3, "k": 2, "lambda": 1, "blocks": [[1, 2], [1, 3]]})
    rep = check_design(bad)
    assert not rep.ok
    assert "pair {2,3}" in rep.first_violation


def test_validate_design_catches_wrong_block_size():
    d = design_from_dict({"v": 3, "k": 2, "lambda": 1, "blocks": [[1, 2], [1, 3], [2, 3], [1]]})
    rep = check_design(d)
    assert not rep.ok and "size" in rep.first_violation


@pytest.mark.parametrize("q,v", [(2, 7), (3, 13), (5, 31), (7, 57)])
def test_projective_plane_parameters(q, v):
    design = projective_plane(q)
    assert (design.v, design.k, design.lam, design.b) == (v, q + 1, 1, v)
    report = check_design(design)
    assert report.ok and report.symmetric and report.intersections_ok


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_projective_plane_lines_are_those_of_every_point_line_test(q):
    assert list(projective_plane(q).blocks) == plane_blocks(q)


def test_projective_plane_rejects_non_primes_and_overflow():
    with pytest.raises(ParameterError):
        projective_plane(4)  # prime powers unsupported
    with pytest.raises(ParameterError):
        projective_plane(1)
    with pytest.raises(CapacityError):
        projective_plane(11)  # 133 points


def test_size_limits_come_before_the_primality_test(monkeypatch):
    def no_trial_division(q):
        raise AssertionError(f"_is_prime({q}) ran before the size limit")

    monkeypatch.setattr(pifam.construct, "_is_prime", no_trial_division)
    with pytest.raises(CapacityError):
        projective_plane(11)
    with pytest.raises(CapacityError):
        paley1(67)


def test_plane_of_order_2_is_isomorphic_to_fano():
    # same parameters and axioms; block sets may be labeled differently
    design = projective_plane(2)
    assert (design.v, design.k, design.lam) == (7, 3, 1)
    assert check_design(design).ok


def test_dualize_fano_certifies_g9():
    fam = dualize_design(fano())
    assert fam.space.n == 9
    assert len(fam) == 8
    proper = fam.events[:-1]
    assert all(ev.size == 3 for ev in proper)
    assert all((a & b).size == 1 for a, b in itertools.combinations(proper, 2))
    # dual events live on block indices {1..7}; points 8, 9 only in the full space
    assert all(ev.mask < 1 << 7 for ev in proper)
    assert is_valid_g_family(fam)


def test_dualize_plane_of_order_3():
    fam = dualize_design(projective_plane(3))
    assert fam.space.n == 16
    assert len(fam) == 14
    assert is_valid_g_family(fam)


def test_dualize_transposes_the_blocks_once(monkeypatch):
    # the axiom check and the dual events share one set of point columns
    plane = projective_plane(5)
    calls = []
    point_columns = pifam.construct._point_columns

    def counted(masks, n):
        calls.append(n)
        return point_columns(masks, n)

    monkeypatch.setattr(pifam.construct, "_point_columns", counted)
    fam = dualize_design(plane)
    assert calls == [31]
    assert fam.space.n == 36 and len(fam) == 32


def test_dualize_rejects_lambda_zero():
    design = hadamard_to_design(sylvester(2))  # 2-(3,1,0)
    with pytest.raises(ParameterError):
        dualize_design(design)


def test_dualize_rejects_non_integer_hypothesis():
    # all 3-subsets of {1..4} form a 2-(4,3,2) design with r = 3, and
    # r^2/lambda = 9/2 is not an integer
    blocks = [list(c) for c in itertools.combinations(range(1, 5), 3)]
    design = design_from_dict({"v": 4, "k": 3, "lambda": 2, "blocks": blocks})
    with pytest.raises(ParameterError, match="r\\^2/lambda"):
        dualize_design(design)


def test_dualize_complete_pair_design():
    # all 2-subsets of {1..4}: r = 3, n = 9, six block indices inside {1..9}
    blocks = [list(c) for c in itertools.combinations(range(1, 5), 2)]
    design = design_from_dict({"v": 4, "k": 2, "lambda": 1, "blocks": blocks})
    fam = dualize_design(design)
    assert fam.space.n == 9 and len(fam) == 5
    assert is_valid_g_family(fam)


@pytest.mark.parametrize("v, k, lam, blocks", [(3, 3, 2, [[1, 2, 3]] * 2), (2, 2, 1, [[1, 2]])])
def test_dualize_refuses_a_trivial_design(v, k, lam, blocks):
    # every point lies in every block, so every dual event would be the whole space
    design = design_from_dict({"v": v, "k": k, "lambda": lam, "blocks": blocks})
    assert check_design(design).ok
    with pytest.raises(ParameterError, match=f"^dualization needs 2 <= k < v, got k={k}, v={v}$"):
        dualize_design(design)


def test_dualize_rejects_invalid_design():
    bad = design_from_dict({"v": 3, "k": 2, "lambda": 1, "blocks": [[1, 2], [1, 3]]})
    with pytest.raises(ParameterError, match="not a valid 2-design"):
        dualize_design(bad)


def test_dualize_capacity():
    # plane of order 7 would dualize onto 64 points, past the mask limit
    with pytest.raises(CapacityError):
        dualize_design(projective_plane(7))


def test_design_json_round_trip():
    design = projective_plane(3)
    data = design_to_dict(design)
    again = design_from_dict(data)
    assert again == design


@pytest.mark.parametrize(
    "data",
    [
        42,
        {"v": 7, "k": 3, "blocks": []},
        {"v": 7, "k": 3, "lambda": "1", "blocks": []},
        {"v": 3, "k": 2, "lambda": 1, "blocks": [[1, 4]]},
        {"v": 3, "k": 2, "lambda": 1, "blocks": [[1, 1]]},
        # v, k and lambda are checked before the blocks are counted or read
        {"v": 0, "k": 0, "lambda": 0, "blocks": [[1]] * (MAX_BLOCKS + 1)},
        {"v": 3, "k": 4, "lambda": 1, "blocks": [[0]]},
        {"v": 3, "k": 2, "lambda": -1, "blocks": [[0]]},
        {"v": 3, "k": 2, "lambda": 1, "blocks": {"1": [1, 2]}},
        {"v": 3, "k": 2, "lambda": 1, "blocks": [[1, 2], 3]},
    ],
)
def test_design_from_dict_rejects_malformed(data):
    with pytest.raises(ParameterError):
        design_from_dict(data)


@pytest.mark.parametrize("blocks", [(1.5,), (True,), (0b111, 7.0)])
def test_design_blocks_must_be_integer_bitmasks(blocks):
    with pytest.raises(ParameterError, match="not an integer bitmask"):
        Design(7, 3, 1, blocks)


@pytest.mark.parametrize("v", [64, 10**9])
def test_design_refuses_more_points_than_a_bitmask_holds(v):
    # refused before the 2^v-bit mask of the range check is built
    with pytest.raises(CapacityError, match=f"v={v} points"):
        Design(v, 1, 0, ())


@pytest.mark.parametrize("call", [
    lambda: hadamard_matrix(4.0),
    lambda: hadamard_matrix(True),
    lambda: hadamard_matrix(4.0, "sylvester"),
    lambda: johnson_omega(9.0, 3, 1),
    lambda: johnson_omega(9, 3.0, 1),
    lambda: johnson_omega(9, 3, True),
    lambda: Design(7.0, 3, 1, ()),
    lambda: Design(7, 3, True, ()),
    lambda: Design(7, None, 1, ()),
], ids=["order-float", "order-bool", "sylvester-float", "johnson-n-float",
        "johnson-r-float", "johnson-s-bool", "design-v-float", "design-lambda-bool",
        "design-k-none"])
def test_integer_parameters_refuse_floats_and_bools(call):
    with pytest.raises(ParameterError, match="must be an integer"):
        call()


def test_failed_certificates_raise(monkeypatch):
    # explicit raises, not asserts, so they hold under python -O as well
    monkeypatch.setattr(pifam.setsys, "is_valid_g_family", lambda family: False)
    with pytest.raises(CertificateError, match="independence check"):
        hadamard_family(hadamard_matrix(8))
    with pytest.raises(CertificateError, match="independence check"):
        dualize_design(fano())
    failed = DesignCheck(False, True, True, False, True, "forced")
    monkeypatch.setattr(pifam.construct, "check_design", lambda design: failed)
    with pytest.raises(CertificateError, match="axioms"):
        hadamard_to_design(hadamard_matrix(8))
    with pytest.raises(CertificateError, match="axioms"):
        projective_plane(2)

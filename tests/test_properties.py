"""Property tests: the Gram certificate, the g-family predicate, `family
verify` and family JSON agree with each other and with the oracles on
random families (n <= 12, t <= 8, and n <= 6 with t up to 16 or with a
forced rank deficiency); the bit-parallel H H^T = nI and
design-axiom checks agree with the plain loops in the oracles on random
and perturbed matrices and designs; Hadamard designs and families do not
change under row and column negations of the generator matrices.

Examples are derandomized and no example database is kept, so a run is
deterministic and writes nothing.
"""

import contextlib
import io
import itertools
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pifam import (
    Design,
    Family,
    HadamardMatrix,
    ParameterError,
    check_design,
    family_from_dict,
    family_to_dict,
    gram_certify,
    hadamard_family,
    hadamard_matrix,
    hadamard_to_design,
    is_valid_g_family,
    paley1,
    paley_orders,
    projective_plane,
    sylvester,
    sylvester_orders,
    violations,
)
from pifam.cli import main

from oracles import (
    design_check_fields,
    fraction_rank,
    hadamard_gram_violation,
    independent_masks,
    normalized_blocks,
)

# no deadline: a CLI example writes a file, and its time depends on the host
PROPERTY = settings(derandomize=True, database=None, deadline=None)


@st.composite
def families(draw, allow_empty=False):
    """Random events, about half of them thinned to a pairwise-independent
    family, plus sub-families of Hadamard witnesses so that large
    independent families occur too."""
    if draw(st.integers(0, 3)) == 0:
        n = draw(st.sampled_from([4, 8, 12]))
        masks = hadamard_family(hadamard_matrix(n)).masks()
        chosen = draw(st.lists(st.sampled_from(masks), min_size=1, max_size=8, unique=True))
        return Family.from_masks(n, chosen)
    n = draw(st.integers(1, 12))
    lo = 0 if allow_empty else 1
    top = (1 << n) - 1
    masks = draw(st.lists(st.integers(lo, top), min_size=1,
                          max_size=min(8, top - lo + 1), unique=True))
    if draw(st.booleans()):
        kept = []
        for m in masks:
            if all(independent_masks(n, m, k) for k in kept):
                kept.append(m)
        masks = kept
    return Family.from_masks(n, masks)


def pairwise_independent(family):
    n = family.space.n
    return all(independent_masks(n, a, b)
               for a, b in itertools.combinations(family.masks(), 2))


@st.composite
def wide_or_deficient_families(draw):
    """Nonempty events on n <= 6 points, up to 16 of them so that t > n
    occurs, and about half the time with A, B and A ∪ B for disjoint A, B,
    which makes the rank deficient."""
    n = draw(st.integers(1, 6))
    top = (1 << n) - 1
    masks = draw(st.lists(st.integers(1, top), min_size=1,
                          max_size=min(16, top), unique=True))
    if n >= 2 and draw(st.booleans()):
        a = draw(st.integers(1, top - 1))
        rest = top & ~a
        b = draw(st.integers(1, top)) & rest or rest & -rest
        masks = [a, b, a | b] + [m for m in masks if m not in (a, b, a | b)]
    return Family.from_masks(n, masks)


@PROPERTY
@given(families() | wide_or_deficient_families())
def test_gram_ok_is_pairwise_independence_and_forces_full_rank(family):
    n, t = family.space.n, len(family)
    rep = gram_certify(family)
    assert rep.gram_ok == pairwise_independent(family)
    rows = [[m >> i & 1 for i in range(n)] for m in family.masks()]
    assert rep.rank == fraction_rank(rows)
    assert rep.full_column_rank == (rep.rank == t)
    if rep.gram_ok:
        assert rep.rank == t <= n and rep.full_column_rank


@PROPERTY
@given(families(allow_empty=True))
def test_valid_g_family_means_no_violation(family):
    valid = is_valid_g_family(family)
    assert valid == (not any(violations(family)))
    assert valid == (0 not in family.masks() and pairwise_independent(family))


@PROPERTY
@given(families(allow_empty=True))
def test_family_verify_exit_code_and_verdict(family):
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "family.json"
        path.write_text(json.dumps(family_to_dict(family)))
        with contextlib.redirect_stdout(out):
            code = main(["family", "verify", str(path)])
    if is_valid_g_family(family):
        assert code == 0 and out.getvalue().startswith("PASS")
    else:
        assert code == 1 and out.getvalue().startswith("FAIL")


@PROPERTY
@given(families(allow_empty=True))
def test_family_json_round_trip(family):
    data = family_to_dict(family)
    assert family_to_dict(family_from_dict(data)) == data
    assert family_from_dict(json.loads(json.dumps(data))) == family


HADAMARD_ORDERS = sorted(n for n in set(sylvester_orders()) | set(paley_orders()) if 4 <= n <= 60)


@st.composite
def sign_matrices(draw):
    """Random square +-1 matrices of order <= 8, or a Hadamard matrix of
    order 4..60 with its rows shuffled and, mostly, one entry negated."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 8))
        row = st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)
        return draw(st.lists(row, min_size=n, max_size=n))
    rows = [list(r) for r in hadamard_matrix(draw(st.sampled_from(HADAMARD_ORDERS))).rows]
    rows = draw(st.permutations(rows))
    if draw(st.integers(0, 3)):
        i = draw(st.integers(0, len(rows) - 1))
        c = draw(st.integers(0, len(rows) - 1))
        rows[i][c] = -rows[i][c]
    return rows


@PROPERTY
@given(sign_matrices())
def test_hadamard_check_matches_the_cubic_loop(rows):
    want = hadamard_gram_violation(rows)
    if want is None:
        assert HadamardMatrix(rows).rows == tuple(map(tuple, rows))
    else:
        with pytest.raises(ParameterError) as err:
            HadamardMatrix(rows)
        assert str(err.value) == want


BASE_DESIGNS = [projective_plane(q) for q in (2, 3, 5)] + [
    hadamard_to_design(hadamard_matrix(n)) for n in HADAMARD_ORDERS]


@st.composite
def designs(draw):
    """Random blocks on v <= 9 points (b = v about a third of the time), or
    a plane or Hadamard design, mostly with one point of one block toggled
    or moved, or one block replaced by another."""
    if draw(st.booleans()):
        v = draw(st.integers(1, 9))
        b = v if draw(st.integers(0, 2)) == 0 else draw(st.integers(0, 12))
        blocks = draw(st.lists(st.integers(0, (1 << v) - 1), min_size=b, max_size=b))
        return Design(v, draw(st.integers(0, v)), draw(st.integers(0, 3)), tuple(blocks))
    d = draw(st.sampled_from(BASE_DESIGNS))
    blocks = list(d.blocks)
    j = draw(st.integers(0, len(blocks) - 1))
    change = draw(st.sampled_from(["none", "toggle", "move", "replace"]))
    if change == "toggle":
        blocks[j] ^= 1 << draw(st.integers(0, d.v - 1))
    elif change == "move":  # one point of block j moves elsewhere; sizes stay k
        inside = [p for p in range(d.v) if blocks[j] >> p & 1]
        outside = [p for p in range(d.v) if not blocks[j] >> p & 1]
        blocks[j] ^= 1 << draw(st.sampled_from(inside)) | 1 << draw(st.sampled_from(outside))
    elif change == "replace":
        blocks[j] = blocks[draw(st.integers(0, len(blocks) - 1))]
    return Design(d.v, d.k, d.lam, tuple(blocks))


@PROPERTY
@given(designs())
def test_design_check_matches_the_pairwise_loop(design):
    want = design_check_fields(design.v, design.k, design.lam, design.blocks)
    assert tuple(check_design(design)) == want


def test_design_check_matches_the_pairwise_loop_on_every_small_design():
    # every block list with v <= 3, b <= 3, k <= v and lambda <= 2; by Ryser's
    # theorem only k <= 1 gets past sizes and pairs to unequal block meets
    meets = 0
    for v in range(1, 4):
        for k, lam, b in itertools.product(range(v + 1), range(3), range(4)):
            for blocks in itertools.product(range(1 << v), repeat=b):
                got = tuple(check_design(Design(v, k, lam, blocks)))
                assert got == design_check_fields(v, k, lam, blocks), (v, k, lam, blocks)
                meets += (got[5] or "").startswith("blocks ")
    assert meets == 23


GENERATOR_MATRICES = [sylvester(k) for k in range(2, 6)] + [
    paley1(n - 1) for n in paley_orders() if 4 <= n <= 60]


@PROPERTY
@given(st.sampled_from(GENERATOR_MATRICES), st.data())
def test_sign_flips_leave_hadamard_designs_and_families_unchanged(h, data):
    n = h.order
    signs = st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)
    row_signs, col_signs = data.draw(signs), data.draw(signs)
    flipped = HadamardMatrix(tuple(
        tuple(r * c * x for c, x in zip(col_signs, row)) for r, row in zip(row_signs, h.rows)))
    blocks = hadamard_to_design(h).blocks
    assert hadamard_to_design(flipped).blocks == blocks
    assert list(blocks) == normalized_blocks(h.rows) == normalized_blocks(flipped.rows)
    masks = hadamard_family(h).masks()
    assert hadamard_family(flipped).masks() == masks
    assert masks == tuple(b | 1 << (n - 1) for b in blocks) + ((1 << n) - 1,)

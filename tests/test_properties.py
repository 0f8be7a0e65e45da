"""Property tests: the Gram certificate, the g-family predicate, `family
verify` and family JSON agree with each other and with the oracles on
random families (n <= 12, t <= 8, and n <= 6 with t up to 16 or with a
forced rank deficiency); the packed rank kernel agrees with elimination
mod p for p = 2^2 - 1, 2^13 - 1 and 2^127 - 1 on 0/1 matrices of up to
70 rows and 63 columns, forced deficiencies included; the bit-matrix
transpose agrees with an entry-by-entry one on up to 130 rows and 70
columns, wide, square and tall; the bit-parallel
H H^T = nI and design-axiom checks agree with the plain loops in the
oracles on random and perturbed matrices and designs; a built candidate
graph keeps the candidates in their given order and equals the loop over
pairs, under both oracles' intersection rules, on lists whose length is
at or next to a power of two; the greedy coloring of the search agrees
with a plain restatement on random graphs of up to 130 vertices, empty,
sparse, dense and complete; Hadamard designs
and families do not change under row and column negations of the
generator matrices; the size-grouped g-family check agrees with the
pair loop on random families and on relabelled Hadamard and dual-plane
witnesses, perturbed, with an empty event or with an event whose size
times another's is not a multiple of n, and on a one-point change to a
generator's matrix, design or family, `violations`, `check_design` and
the H H^T check name the first failing pair as the plain loops do.

Examples are derandomized and no example database is kept, so a run is
deterministic.  Hypothesis still writes `.hypothesis/` in the working
directory: its cache of the constants it reads from the tested modules,
and a patch file when a property fails (the folder is gitignored).
"""

import contextlib
import io
import itertools
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pifam import (
    Design,
    Family,
    HadamardMatrix,
    JohnsonGraphOracle,
    ParameterError,
    PowerSetGraphOracle,
    SampleSpace,
    check_design,
    dualize_design,
    exactlin,
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
    search,
    setsys,
    sylvester,
    sylvester_orders,
    violations,
)
from pifam.cli import main

from oracles import (
    design_check_fields,
    fraction_rank,
    greedy_coloring,
    hadamard_gram_violation,
    independent_masks,
    intersection_rows,
    is_g_family,
    normalized_blocks,
    point_columns,
    rank_mod_p,
    violation_lines,
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


@st.composite
def packed_rows(draw):
    """0/1 rows as masks on n <= 63 columns, t <= 70 of them so that t > n
    occurs; mostly with one row repeated or with the sum of two disjoint
    rows added, either of which makes the rows dependent."""
    n = draw(st.integers(1, 63))
    top = (1 << n) - 1
    t = draw(st.integers(1, 68))
    masks = draw(st.lists(st.integers(0, top), min_size=t, max_size=t))
    extra = draw(st.sampled_from(["none", "repeat", "disjoint sum"]))
    if extra == "repeat":
        masks.append(draw(st.sampled_from(masks)))
    elif extra == "disjoint sum":
        a = draw(st.sampled_from(masks))
        b = draw(st.integers(0, top)) & ~a
        masks += [b, a | b]
    return n, draw(st.permutations(masks))


@PROPERTY
@given(packed_rows())
def test_packed_rank_kernel_matches_elimination_mod_p(rows):
    n, masks = rows
    matrix = [[m >> i & 1 for i in range(n)] for m in masks]
    for bits in (2, 13, 127):
        assert exactlin._rank_mod_p(masks, n, bits) == rank_mod_p(matrix, (1 << bits) - 1)


@pytest.mark.parametrize("shape", ["any", 63, 64, 65, 129, "wide"])
@settings(PROPERTY, max_examples=40)
@given(data=st.data())
def test_point_columns_is_the_transpose(shape, data):
    # any 0-130 rows on 0-70 columns; row counts at and next to the sides
    # 64 and 128 of a padded square, or past them, where rows are stacked;
    # fewer rows than columns, as in the rank pass on B^T when t < n
    n = data.draw(st.integers(1 if shape == "wide" else 0, 70))
    m = data.draw(st.integers(0, 130 if shape == "any" else n - 1)) if isinstance(shape, str) else shape
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=m, max_size=m))
    assert setsys._point_columns(masks, n) == point_columns(masks, n)
    assert setsys._point_columns([], n) == [0] * n


# no candidates, one, two, and lengths at and next to 64 and 128, which the
# point-column transpose stacks onto its side of 8 or 16 rows
RELABEL_SIZES = (0, 1, 2, 63, 64, 65, 129)


@st.composite
def candidate_lists(draw, m):
    """m distinct nonempty masks on 8 <= n <= 12 points (any m <= 40 if m
    is None), and an intersection size s for the Johnson rule."""
    n = draw(st.integers(8, 12))
    if m is None:
        m = draw(st.integers(0, 40))
    masks = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=m, max_size=m, unique=True))
    return n, masks, draw(st.integers(1, 4))


@pytest.mark.parametrize("m", [*RELABEL_SIZES, None])
@settings(PROPERTY, max_examples=20)
@given(data=st.data())
def test_relabelled_graph_equals_a_recount(m, data):
    # the built graph keeps the candidates in their given order, and its
    # bit-sliced count equals a pair loop, under both oracles' rules
    n, cand, s = data.draw(candidate_lists(m))
    for oracle in PowerSetGraphOracle(SampleSpace(n)), JohnsonGraphOracle(n, s + 1, s):
        graph = oracle.build_graph(cand)
        assert graph.cand == cand
        assert graph.adj == intersection_rows(cand, oracle.meet)


@st.composite
def random_graphs(draw):
    """Adjacency bitsets of a graph on 0 <= m <= 130 vertices, each edge kept
    with a drawn probability from none to all, by a drawn seed."""
    m = draw(st.integers(0, 130))
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 0.7, 0.95, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    adj = [0] * m
    for i, j in itertools.combinations(range(m), 2):
        if rng.random() < density:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


@settings(PROPERTY, max_examples=40)
@given(random_graphs(), st.data())
def test_color_sort_is_first_fit_in_index_order(adj, data):
    full = (1 << len(adj)) - 1
    p = data.draw(st.just(full) | st.integers(0, full))
    assert search._color_sort(p, [full ^ row for row in adj]) == greedy_coloring(p, adj)


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


WITNESSES = [hadamard_family(h).masks() for h in GENERATOR_MATRICES] + [
    dualize_design(projective_plane(q)).masks() for q in (2, 3, 5)]


@st.composite
def witness_families(draw):
    """A Hadamard or dual-plane witness with its points and events shuffled,
    mostly changed: one point of one event toggled or moved, the empty event
    put in, or an event put in whose size s has n not dividing s|A| for some
    event A of the witness; a change that repeats an event keeps the first."""
    masks = draw(st.sampled_from(WITNESSES))
    n = max(masks).bit_length()
    perm = draw(st.permutations(range(n)))
    masks = [sum(1 << perm[p] for p in range(n) if m >> p & 1) for m in draw(st.permutations(masks))]
    change = draw(st.sampled_from(["none", "toggle", "move", "empty", "indivisible"]))
    j = draw(st.integers(0, len(masks) - 1))
    if change == "toggle":
        masks[j] ^= 1 << draw(st.integers(0, n - 1))
    elif change == "move" and masks[j] != (1 << n) - 1:
        inside = [p for p in range(n) if masks[j] >> p & 1]
        outside = [p for p in range(n) if not masks[j] >> p & 1]
        masks[j] ^= 1 << draw(st.sampled_from(inside)) | 1 << draw(st.sampled_from(outside))
    elif change == "empty":
        masks.insert(j, 0)
    elif change == "indivisible":
        sizes = {m.bit_count() for m in masks}
        size = draw(st.sampled_from([a for a in range(1, n) if any(a * b % n for b in sizes)]))
        masks.insert(j, sum(1 << p for p in draw(st.permutations(range(n)))[:size]))
    return Family.from_masks(n, list(dict.fromkeys(masks)))


@PROPERTY
@given(families(allow_empty=True) | witness_families())
def test_size_grouped_check_matches_the_pair_loop(family):
    n, masks = family.space.n, family.masks()
    assert is_valid_g_family(family) == is_g_family(n, masks)
    assert list(violations(family)) == violation_lines(n, masks)


@PROPERTY
@given(st.sampled_from(GENERATOR_MATRICES), st.data())
def test_a_one_point_change_names_the_first_failing_pair_as_the_loops_do(h, data):
    # one entry of the matrix, one point of a block moved (sizes kept), and
    # one point of a family event toggled or moved
    n = h.order
    i, c = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    plus = list(h.plus)
    plus[i] ^= 1 << c
    rows = [[1 if p >> k & 1 else -1 for k in range(n)] for p in plus]
    for build in lambda: HadamardMatrix(rows), lambda: HadamardMatrix._from_plus(plus):
        with pytest.raises(ParameterError) as err:
            build()
        assert str(err.value) == hadamard_gram_violation(rows)

    design = hadamard_to_design(h)
    blocks = list(design.blocks)
    j = data.draw(st.integers(0, len(blocks) - 1))
    inside = [p for p in range(design.v) if blocks[j] >> p & 1]
    outside = [p for p in range(design.v) if not blocks[j] >> p & 1]
    blocks[j] ^= 1 << data.draw(st.sampled_from(inside)) | 1 << data.draw(st.sampled_from(outside))
    moved = Design(design.v, design.k, design.lam, tuple(blocks))
    want = design_check_fields(moved.v, moved.k, moved.lam, moved.blocks)
    assert tuple(check_design(moved)) == want and want[5] is not None

    masks = list(hadamard_family(h).masks())
    j = data.draw(st.integers(0, n - 2))  # a proper event
    inside = [p for p in range(n) if masks[j] >> p & 1]
    outside = [p for p in range(n) if not masks[j] >> p & 1]
    masks[j] ^= 1 << data.draw(st.sampled_from(inside))
    if n > 4 and data.draw(st.booleans()):  # a move keeps the size; at n = 4 it can repeat an event
        masks[j] |= 1 << data.draw(st.sampled_from(outside))
    family = Family.from_masks(n, masks)
    lines = violation_lines(n, masks)
    assert list(violations(family)) == lines and lines and not is_valid_g_family(family)

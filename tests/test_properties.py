"""Property tests: the Gram certificate, the g-family predicate, `family
verify` and family JSON agree with each other and with the oracles on
random families (n <= 12, t <= 8).

Examples are derandomized and no example database is kept, so a run is
deterministic and writes nothing.
"""

import contextlib
import io
import itertools
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from pifam import (
    Family,
    family_from_dict,
    family_to_dict,
    gram_certify,
    hadamard_family,
    hadamard_matrix,
    is_valid_g_family,
    violations,
)
from pifam.cli import main

from oracles import fraction_rank, independent_masks

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


@PROPERTY
@given(families())
def test_gram_ok_is_pairwise_independence_and_forces_full_rank(family):
    n, t = family.space.n, len(family)
    rep = gram_certify(family)
    assert rep.gram_ok == pairwise_independent(family)
    rows = [[m >> i & 1 for i in range(n)] for m in family.masks()]
    assert rep.rank == fraction_rank(rows)
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

"""Events, exact probabilities, and the pairwise-independence predicate."""

import itertools
from fractions import Fraction

import pytest

from pifam import (
    CapacityError,
    Event,
    Family,
    ParameterError,
    PifamError,
    SampleSpace,
    family_from_dict,
    family_to_dict,
    is_independent,
    is_pairwise_independent,
    is_valid_g_family,
    mask_to_points,
    points_to_mask,
    probability,
    violations,
)
from pifam.setsys import MAX_EVENTS, _point_lists


def test_sample_space_bounds():
    assert SampleSpace(1).n == 1
    assert SampleSpace(63).full_mask == (1 << 63) - 1
    with pytest.raises(ParameterError):
        SampleSpace(0)
    with pytest.raises(CapacityError):
        SampleSpace(64)


def test_event_mask_and_points():
    space = SampleSpace(5)
    ev = space.event([2, 5])
    assert ev.mask == 0b10010
    assert ev.points() == (2, 5)
    assert ev.size == 2
    assert space.event([]).is_empty
    assert space.omega().is_full
    with pytest.raises(ParameterError):
        space.event([6])
    with pytest.raises(ParameterError):
        space.event_from_mask(1 << 5)


def test_mask_point_round_trip():
    for mask in range(64):
        assert points_to_mask(mask_to_points(mask), 6) == mask


def test_probability_examples():
    assert probability(SampleSpace(5).omega()) == Fraction(1)
    assert probability(SampleSpace(5).empty()) == Fraction(0)
    assert probability(SampleSpace(4).event([1, 2])) == Fraction(1, 2)


def test_is_independent_examples():
    s4 = SampleSpace(4)
    assert is_independent(s4.event([1, 2]), s4.event([1, 3]))
    assert is_independent(s4.event([2, 4]), s4.omega())
    assert is_independent(s4.empty(), s4.event([1, 3]))
    s2 = SampleSpace(2)
    assert not is_independent(s2.event([1]), s2.event([2]))


def test_is_independent_rejects_mixed_spaces():
    a = SampleSpace(4).event([1])
    b = SampleSpace(5).event([1])
    with pytest.raises(ValueError):
        is_independent(a, b)


def test_independence_matches_rational_definition_exhaustively():
    # for n <= 6, the integer test must agree with P(A∩B) = P(A)P(B),
    # independence must be symmetric, and nonempty independent events
    # must intersect
    for n in range(1, 7):
        space = SampleSpace(n)
        events = [space.event_from_mask(m) for m in range(1 << n)]
        for a, b in itertools.combinations_with_replacement(events, 2):
            via_int = is_independent(a, b)
            via_frac = probability(a & b) == probability(a) * probability(b)
            assert via_int == via_frac
            assert via_int == is_independent(b, a)
            if via_int and not a.is_empty and not b.is_empty:
                assert (a & b).size > 0


def test_feasibility_filter_soundness():
    # sizes a, b with n not dividing a*b can never be independent
    for n in range(1, 7):
        space = SampleSpace(n)
        for am in range(1 << n):
            for bm in range(1 << n):
                a, b = space.event_from_mask(am), space.event_from_mask(bm)
                if is_independent(a, b):
                    assert (a.size * b.size) % n == 0


def test_complement_is_never_independent_for_proper_events():
    for n in range(2, 8):
        space = SampleSpace(n)
        for mask in range(1, (1 << n) - 1):
            ev = space.event_from_mask(mask)
            assert not is_independent(ev, ev.complement())


def test_edge_events_are_universal():
    space = SampleSpace(6)
    for mask in range(1 << 6):
        ev = space.event_from_mask(mask)
        assert is_independent(ev, space.omega())
        assert is_independent(ev, space.empty())


@pytest.mark.parametrize("mask", [15.0, True, False, "15", None])
def test_event_masks_must_be_integers(mask):
    with pytest.raises(ParameterError, match="not an integer"):
        SampleSpace(4).event_from_mask(mask)


@pytest.mark.parametrize("call", [lambda: SampleSpace(10 ** 5000), lambda: points_to_mask([10 ** 5000], 4)],
                         ids=["sample-space", "sample-point"])
def test_an_int_past_the_str_digit_limit_is_named_by_type(call):
    # str() refuses an int of more than 4300 digits; the error stays a short PifamError
    with pytest.raises(PifamError, match="<int too large to show>") as err:
        call()
    assert len(str(err.value)) < 200


def test_a_float_mask_cannot_pass_as_a_g_family():
    # a one-event family has no pair to test, so only the mask check stops it
    with pytest.raises(ParameterError):
        Family.from_masks(4, [15.0])
    assert is_valid_g_family(Family.from_masks(4, [15]))


def test_family_rejects_duplicates_and_mixed_spaces():
    space = SampleSpace(3)
    with pytest.raises(ParameterError):
        Family(space, (space.event([1]), space.event([1])))
    with pytest.raises(ValueError):
        Family(space, (space.event([1]), SampleSpace(4).event([1])))


def test_events_from_two_spaces_are_a_pifam_error():
    # a library caller catches every input error as PifamError
    a, b = SampleSpace(4).event([1]), SampleSpace(5).event([1])
    for call in (lambda: is_independent(a, b), lambda: a & b, lambda: Family(a.space, (a, b))):
        with pytest.raises(PifamError, match="sample space"):
            call()


@pytest.mark.parametrize("call, message", [
    (lambda: Family(3, []), "space must be a SampleSpace, got 3"),
    (lambda: Family(SampleSpace(4), [1]), "family member 1 is not an Event"),
    (lambda: Event(3, 1), "space must be a SampleSpace, got 3"),
], ids=["family-space", "family-member", "event-space"])
def test_a_space_or_member_of_the_wrong_type_is_a_parameter_error(call, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        call()


def test_family_set_equality_keeps_order():
    f1 = Family.from_points(3, [[1], [1, 2, 3]])
    f2 = Family.from_points(3, [[1, 2, 3], [1]])
    assert f1 == f2
    assert hash(f1) == hash(f2)
    assert [ev.points() for ev in f1] == [(1,), (1, 2, 3)]  # insertion order kept


def test_pairwise_independence_examples():
    assert is_pairwise_independent(Family.from_points(3, [[], [1, 2, 3]]))
    assert is_pairwise_independent(Family.from_points(2, [[1], [1, 2]]))  # g(2) = 2


def test_valid_g_family_examples():
    assert is_valid_g_family(Family.from_points(2, [[1], [1, 2]]))
    assert not is_valid_g_family(Family.from_points(2, [[], [1, 2]]))
    # empty events come first, then dependent pairs in family order
    assert list(violations(Family.from_points(4, [[1], [], [1, 2]]))) == [
        "event {} is empty",
        "{1} vs {1,2}: 4*|A∩B| = 4 but |A|*|B| = 2",
    ]
    assert list(violations(Family.from_points(2, [[1], [1, 2]]))) == []


def test_family_json_round_trip():
    fam = Family.from_points(4, [[1, 4], [2, 4], [3, 4], [1, 2, 3, 4]])
    data = family_to_dict(fam)
    assert data == {"n": 4, "events": [[1, 4], [2, 4], [3, 4], [1, 2, 3, 4]]}
    assert family_from_dict(data) == fam


@pytest.mark.parametrize(
    "data",
    [
        [],
        {"n": 4},
        {"n": "4", "events": []},
        {"n": 4, "events": [[0]]},
        {"n": 4, "events": [[5]]},
        {"n": 4, "events": [[1, 1]]},
        {"n": 4, "events": [3]},
        {"n": 4, "events": [[1], [1]]},
        {"n": 4, "events": {"1": [1]}},
        # n is checked before the events are counted, which would be CapacityError
        {"n": 0, "events": [[1]] * (MAX_EVENTS + 1)},
    ],
)
def test_family_from_dict_rejects_malformed(data):
    with pytest.raises(ParameterError):
        family_from_dict(data)


class Point(int):
    """An int subclass, which JSON never yields but a caller may pass."""


@pytest.mark.parametrize("item", [
    [], [1, 2, 4], [Point(3), 1], [1, True], [2, 3.0], [1, "2"], [None], [0], [1, 5], [4, -1],
    [3, 10 ** 5000], [1, 2, 3, 4], [2, 2],
])
def test_point_lists_read_each_item_as_points_to_mask_does(item):
    # each item gives the mask of points_to_mask, or its error word for word
    def outcome(read):
        try:
            return read()
        except ParameterError as err:
            return str(err)

    expected = outcome(lambda: [points_to_mask(item, 4)])
    if isinstance(expected, list) and expected[0].bit_count() != len(item):
        expected = f"event {item!r} repeats a sample point"
    assert outcome(lambda: _point_lists([item], "events", 4, 1)) == expected

"""Sample spaces, events, exact probabilities, and pairwise independence.

An event over the sample space {1..n} is stored as a fixed-width integer
bitmask: bit i-1 stands for sample point i (1-indexed outside, 0-indexed
bits inside).  All predicates run in exact integer arithmetic; the
independence test uses the cross-multiplied form n*|A & B| == |A|*|B| so
no rational numbers appear on search hot paths.
"""

from __future__ import annotations

import itertools
import reprlib
from collections import namedtuple
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    from fractions import Fraction


class PifamError(Exception):
    """Base class for toolkit errors."""


class ParameterError(PifamError, ValueError):
    """An argument violates a documented precondition."""


class CapacityError(PifamError):
    """The request exceeds a hard size limit of the toolkit."""


class CertificateError(PifamError):
    """A result failed the check that certifies it: a defect in the code or in
    a caller's graph oracle, not bad input."""


MAX_POINTS = 63  # an event must fit one machine-width bitmask
# Largest event list a family file may hold.  `family verify` tests every
# pair: 256 random events on 63 points take 1.4 s and print 32 000 lines
# (Python 3.11.7), the budget of construct.MAX_BLOCKS; 512 take 5.7 s.  A
# pairwise-independent family has at most n + 1 <= 64 events.
MAX_EVENTS = 256


def _is_int(value: Any) -> bool:
    """True for an int that is not a bool (bool is an int subclass)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _shown(value: Any) -> str:
    """`reprlib`'s short repr, so an error quotes a huge list or string in brief."""
    return reprlib.repr(value)


def _checked(typename: str, fields: str) -> type:
    """A namedtuple base whose `_make`, and so `_replace`, calls the type and its checks."""
    base = namedtuple(typename, fields)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


def points_to_mask(points: Iterable[int], n: int) -> int:
    """Bitmask of a collection of 1-indexed sample points."""
    mask = 0
    for p in points:
        if not _is_int(p):
            raise ParameterError(f"sample point {_shown(p)} is not an integer")
        if not 1 <= p <= n:
            raise ParameterError(f"sample point {_shown(p)} outside 1..{n}")
        mask |= 1 << (p - 1)
    return mask


def mask_to_points(mask: int) -> tuple[int, ...]:
    """Ascending 1-indexed sample points of a bitmask."""
    points = []
    while mask:
        low = mask & -mask
        points.append(low.bit_length())
        mask ^= low
    return tuple(points)


class SampleSpace(_checked("SampleSpace", "n")):
    """Uniform finite sample space on the points {1..n}, 1 <= n <= 63."""

    __slots__ = ()

    def __new__(cls, n: int) -> SampleSpace:
        if not _is_int(n):
            raise ParameterError(f"sample space size must be an integer, got {_shown(n)}")
        if n < 1:
            raise ParameterError(f"sample space needs at least one point, got n={_shown(n)}")
        if n > MAX_POINTS:
            raise CapacityError(f"n={_shown(n)} exceeds the {MAX_POINTS}-point bitmask limit")
        return tuple.__new__(cls, (n,))

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def event(self, points: Iterable[int]) -> Event:
        return Event(self, points_to_mask(points, self.n))

    def event_from_mask(self, mask: int) -> Event:
        return Event(self, mask)

    def omega(self) -> Event:
        return Event(self, self.full_mask)

    def empty(self) -> Event:
        return Event(self, 0)


class Event(_checked("Event", "space mask")):
    """A subset of a sample space, stored as a bitmask."""

    __slots__ = ()

    def __new__(cls, space: SampleSpace, mask: int) -> Event:
        if not _is_int(mask):
            raise ParameterError(f"event mask {_shown(mask)} is not an integer")
        if mask < 0 or mask > space.full_mask:
            raise ParameterError(f"mask {mask:#x} has bits outside points 1..{space.n}")
        return tuple.__new__(cls, (space, mask))

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    @property
    def is_full(self) -> bool:
        return self.mask == self.space.full_mask

    def points(self) -> tuple[int, ...]:
        return mask_to_points(self.mask)

    def intersection(self, other: Event) -> Event:
        _require_same_space(self, other)
        return Event(self.space, self.mask & other.mask)

    __and__ = intersection

    def complement(self) -> Event:
        return Event(self.space, self.space.full_mask ^ self.mask)

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.points())) + "}"


def _require_same_space(a: Event, b: Event) -> None:
    if a.space != b.space:
        raise ParameterError(
            f"events live on different sample spaces (n={a.space.n} vs n={b.space.n})"
        )


def probability(a: Event) -> Fraction:
    """P(A) = |A|/n as an exact reduced rational."""
    from fractions import Fraction  # on first use: it imports decimal, which nothing else needs
    return Fraction(a.size, a.space.n)


def is_independent(a: Event, b: Event) -> bool:
    """Exact test of n*|A intersect B| == |A|*|B|; no division performed."""
    _require_same_space(a, b)
    return a.space.n * (a.mask & b.mask).bit_count() == a.size * b.size


class Family:
    """Ordered collection of distinct events over one sample space.

    Insertion order is preserved for deterministic output; equality and
    hashing treat a family as a set of events.
    """

    __slots__ = ("space", "events")
    space: SampleSpace
    events: tuple[Event, ...]

    def __init__(self, space: SampleSpace, events: Iterable[Event]) -> None:
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "events", tuple(events))
        seen: set[int] = set()
        for ev in self.events:
            if ev.space != space:
                raise ParameterError("all events of a family must share its sample space")
            if ev.mask in seen:
                raise ParameterError(f"duplicate event {_shown(list(ev.points()))}")
            seen.add(ev.mask)

    def __setattr__(self, name: str, value: Any = None) -> None:
        raise AttributeError(f"Family is immutable; cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple[type, tuple[SampleSpace, tuple[Event, ...]]]:
        return type(self), (self.space, self.events)  # copy and pickle rebuild through the checks

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Family):
            return NotImplemented
        return self.space == other.space and set(self.masks()) == set(other.masks())

    def __hash__(self) -> int:
        return hash((self.space, frozenset(self.masks())))

    def masks(self) -> tuple[int, ...]:
        return tuple(ev.mask for ev in self.events)

    @classmethod
    def from_points(cls, n: int, point_lists: Iterable[Iterable[int]]) -> Family:
        space = SampleSpace(n)
        return cls(space, tuple(space.event(points) for points in point_lists))

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> Family:
        space = SampleSpace(n)
        return cls(space, tuple(space.event_from_mask(m) for m in masks))


def is_pairwise_independent(family: Iterable[Event]) -> bool:
    """True when every unordered pair of distinct events is independent."""
    return all(is_independent(a, b) for a, b in itertools.combinations(family, 2))


def violations(family: Family) -> Iterator[str]:
    """Why a family is not a g-family: each empty event, then each dependent
    pair, in family order.  Yields nothing for a valid family."""
    n, events, masks = family.space.n, family.events, family.masks()
    for ev in family:
        if ev.is_empty:
            yield f"event {ev} is empty"
    sizes = [m.bit_count() for m in masks]
    for i, a in enumerate(masks):
        for j in range(i + 1, len(masks)):
            meet = n * (a & masks[j]).bit_count()
            if meet != sizes[i] * sizes[j]:
                yield (f"{events[i]} vs {events[j]}: {n}*|A∩B| = {meet} "
                       f"but |A|*|B| = {sizes[i] * sizes[j]}")


def is_valid_g_family(family: Family) -> bool:
    """Nonempty, distinct, pairwise independent: the object g(n) counts.

    Such a family is automatically intersecting, because nonempty
    independent events satisfy |A intersect B| = |A||B|/n > 0.
    """
    return not any(violations(family))


def _g_witness(n: int, proper: Iterable[int], what: str) -> Family:
    """The family of the `proper` masks and then the full space on {1..n},
    a witness certified by `is_valid_g_family`; `what` names it if it fails."""
    family = Family.from_masks(n, [*proper, (1 << n) - 1])
    if not is_valid_g_family(family):
        raise CertificateError(f"{what} failed the independence check")
    return family


def _point_columns(masks: Sequence[int], n: int) -> list[int]:
    """cols[p]: bitmask of the masks that hold point p + 1, bit j for masks[j].
    Filled as bytearrays: OR-ing a bit into an int copies the whole int."""
    cols = [bytearray((len(masks) + 7) // 8) for _ in range(n)]
    for j, mask in enumerate(masks):
        byte, bit = j >> 3, 1 << (j & 7)
        while mask:
            low = mask & -mask
            cols[low.bit_length() - 1][byte] |= bit
            mask ^= low
    return [int.from_bytes(col, "little") for col in cols]


def family_to_dict(family: Family) -> dict[str, Any]:
    """JSON form: {"n": int, "events": [[sorted 1-indexed points], ...]}."""
    return {"n": family.space.n, "events": [list(ev.points()) for ev in family]}


def _json_object(data: Any, what: str, keys: tuple[str, ...]) -> list[Any]:
    """The values of `keys` in the JSON object `data`, a `what` file."""
    if not isinstance(data, dict):
        raise ParameterError(f"{what} JSON must be an object")
    missing = set(keys) - data.keys()
    if missing:
        raise ParameterError(f"{what} JSON is missing keys: {sorted(missing)}")
    return [data[key] for key in keys]


def _point_lists(data: Any, key: str, n: int, limit: int) -> list[int]:
    """Masks on 1..n of the point lists in JSON field `key` ("events" or "blocks"),
    whose count is refused past `limit` before any item is read."""
    if not isinstance(data, list):
        raise ParameterError(f'JSON field "{key}" must be a list of point lists')
    if len(data) > limit:
        raise CapacityError(f"{len(data)} {key} exceed the {limit}-{key[:-1]} limit")
    masks = []
    for item in data:
        if not isinstance(item, list):
            raise ParameterError(f"{key[:-1]} {_shown(item)} is not a list of points")
        mask = points_to_mask(item, n)
        if mask.bit_count() != len(item):
            raise ParameterError(f"{key[:-1]} {_shown(item)} repeats a sample point")
        masks.append(mask)
    return masks


def family_from_dict(data: Any) -> Family:
    n, events = _json_object(data, "family", ("n", "events"))
    SampleSpace(n)  # checks n before any point is read
    return Family.from_masks(n, _point_lists(events, "events", n, MAX_EVENTS))

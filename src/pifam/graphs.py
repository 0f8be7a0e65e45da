"""Graph oracles for the clique searches, and their candidate graphs.

An oracle defines a graph on events, stored as point bitmasks, and its
adjacency, and names its roots: forced clique prefixes, one per orbit of
a symmetry group of the graph, such that some maximum clique is the
image of a clique through some root.  The proofs are in the docstrings of
the oracles' `roots`.  `candidates(root)` generates that root's
candidates, the vertices adjacent to the whole prefix, directly by
intersection size; `build_graph(root)` builds only their graph, with
adjacency rows from bit-sliced intersection counts, in reverse degeneracy
order.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, NamedTuple

from .setsys import CapacityError, ParameterError, SampleSpace, _checked, _is_int, _point_columns, _shown

MAX_VERTICES = 1 << 20


class _BuiltGraph(NamedTuple):
    cand: list[int]  # vertices adjacent to every root vertex, in search order
    adj: list[int]   # adjacency bitsets over cand indices


def _ordered(cand: list[int], meet: Callable[[int, int], int | None]) -> _BuiltGraph:
    """The graph on `cand`, x ~ y iff |x∩y| = meet(|x|, |y|), in reverse degeneracy order."""
    perm = _degeneracy_permutation(_intersection_graph(cand, meet))
    cand = [cand[i] for i in perm]
    return _BuiltGraph(cand, _intersection_graph(cand, meet))


def _degeneracy_permutation(adj: list[int]) -> list[int]:
    """Reverse degeneracy order: densest-core vertices first.

    Peels the live vertex of least remaining degree, ties toward the
    smallest index, so runs are reproducible.  The degrees are binary
    counters sliced across all vertices, so finding the least degree and
    removing a vertex's edges take a few whole-bitset steps per vertex, not
    one step per edge.
    """
    m = len(adj)
    slices = [0] * m.bit_length()  # bit k of every vertex's degree
    for v, row in enumerate(adj):
        d = row.bit_count()
        for k in range(d.bit_length()):
            if d >> k & 1:
                slices[k] |= 1 << v
    alive = (1 << m) - 1
    peel: list[int] = []
    while alive:
        least = alive
        for s in reversed(slices):
            if least & ~s:
                least &= ~s
        v = (least & -least).bit_length() - 1
        peel.append(v)
        alive ^= 1 << v
        borrow = adj[v] & alive
        for k, s in enumerate(slices):
            if not borrow:
                break
            slices[k] = s ^ borrow
            borrow &= ~s
    peel.reverse()
    return peel


def _choose(inside: int, k_in: int, outside: int, k_out: int) -> Iterator[int]:
    """Masks made of k_in points of `inside` and k_out points of `outside`."""
    bits_in = [1 << i for i in range(inside.bit_length()) if inside >> i & 1]
    bits_out = [1 << i for i in range(outside.bit_length()) if outside >> i & 1]
    for a in itertools.combinations(bits_in, k_in):
        base = sum(a)
        for b in itertools.combinations(bits_out, k_out):
            yield base + sum(b)


def _intersection_graph(
    cand: list[int], meet: Callable[[int, int], int | None]
) -> list[int]:
    """Adjacency rows over `cand`, x ~ y iff |x∩y| = meet(|x|, |y|).

    Bit-sliced counting: column p is the bitset of candidates holding
    point p + 1; adding the columns of x's points into binary counter slices
    gives |x∩y| for every y at once, and matching the slices against the
    wanted count reads off x's row without testing any pair.
    """
    cols = _point_columns(cand, max(cand, default=0).bit_length())
    sizes: dict[int, int] = {}
    for i, mask in enumerate(cand):
        sizes[mask.bit_count()] = sizes.get(mask.bit_count(), 0) | 1 << i
    adj = []
    for i, x in enumerate(cand):
        slices: list[int] = []
        rest = x
        while rest:
            low = rest & -rest
            rest ^= low
            carry = cols[low.bit_length() - 1]
            for k, s in enumerate(slices):
                slices[k] = s ^ carry
                carry &= s
                if not carry:
                    break
            if carry:
                slices.append(carry)
        row = 0
        for b, members in sizes.items():
            w = meet(x.bit_count(), b)
            if w is None or w >> len(slices):
                continue
            for k, s in enumerate(slices):
                members &= s if w >> k & 1 else ~s
            row |= members
        adj.append(row & ~(1 << i))
    return adj


class PowerSetGraphOracle(NamedTuple):
    """Graph on the nonempty subsets of {1..n}; edges are independent pairs."""

    space: SampleSpace

    def contains_vertex(self, mask: int) -> bool:
        return 1 <= mask <= self.space.full_mask

    def adjacent(self, a: int, b: int) -> bool:
        if a == b or not (self.contains_vertex(a) and self.contains_vertex(b)):
            return False
        return self.space.n * (a & b).bit_count() == a.bit_count() * b.bit_count()

    def _meet(self, a: int, b: int) -> int | None:
        """The intersection size that makes events of sizes a and b independent."""
        n = self.space.n
        return None if a * b % n else a * b // n

    def roots(self) -> list[tuple[int, ...]]:
        """Roots (Ω, v_a) for a = ⌊n/2⌋ down to 1, v_a = {n} ∪ {1..a-1}; (Ω,) if n = 1.

        Soundness, for a maximum clique K:
        * Full space: n|Ω∩B| = n|B| = |Ω||B| for every B, so Ω is adjacent
          to every vertex and K may be taken to contain it.
        * Complement: for a proper event A and any B, n|Aᶜ∩B| - |Aᶜ||B| =
          -(n|A∩B| - |A||B|), so Aᶜ is independent of B exactly when A is,
          and n|A∩Aᶜ| = 0 < |A||Aᶜ|, so A and Aᶜ are never adjacent.
          Swapping A with Aᶜ is therefore an automorphism of the graph, and
          so is every permutation of the points.
        * Orbits: for n > 1, K has a proper member B; swap it with its
          complement if |B| > n/2, so that a = |B| <= n/2, and permute the
          points to take B onto v_a.  Then swap each other proper member
          that misses point n with its complement.  The image is a clique
          of |K| events through Ω and v_a whose proper events all contain n.
        So g = 2 + max over a of ω(the events containing n that are
        independent of v_a), the graphs on `candidates`, or 1 when
        n = 1.  Balanced sizes come first, where the Hadamard-type maxima
        live, so the incumbent grows early.
        """
        n = self.space.n
        full = self.space.full_mask
        top = 1 << (n - 1)
        return [(full, top | (1 << (a - 1)) - 1) for a in range(n // 2, 0, -1)] or [(full,)]

    def candidates(self, prefix: tuple[int, ...] = ()) -> Iterator[int]:
        """Every vertex for an empty prefix, else the candidates of a root
        from `roots()`: with v its last event, the events containing point
        n of each size b with n | |v|b, made of w - 1 points of v - {n} and
        b - w points outside v, where w = |v|b/n."""
        n = self.space.n
        if 1 << n > MAX_VERTICES:
            raise CapacityError(f"2^{n} subsets exceed the {MAX_VERTICES}-vertex limit")
        full = self.space.full_mask
        if not prefix:
            yield from range(1, full + 1)
            return
        v, top = prefix[-1], 1 << (n - 1)
        for b in range(1, n):
            w = self._meet(v.bit_count(), b)
            if w is not None:
                yield from (top | m for m in _choose(v ^ top, w - 1, full ^ v, b - w))

    def build_graph(self, prefix: tuple[int, ...] = ()) -> _BuiltGraph:
        """The graph on `candidates(prefix)`."""
        return _ordered(list(self.candidates(prefix)), self._meet)


class JohnsonGraphOracle(_checked("JohnsonGraphOracle", "n r s")):
    """Graph on the r-subsets of {1..n} with edges where |A∩B| = s.

    Its one root is an edge, or a vertex when the graph has no edge; the
    candidate graph is the common neighbourhood of the root.
    """

    __slots__ = ()

    def __new__(cls, n: int, r: int, s: int) -> JohnsonGraphOracle:
        for name, value in ("n", n), ("r", r), ("s", s):
            if not _is_int(value):
                raise ParameterError(f"{name} must be an integer, got {_shown(value)}")
        if not n > r > s >= 1:
            raise ParameterError(f"need n > r > s >= 1, got {_shown((n, r, s))}")
        count = 1  # C(n, i + 1) rises up to i + 1 = min(r, n - r): stop past the limit
        for i in range(min(r, n - r)):
            count = count * (n - i) // (i + 1)
            if count > MAX_VERTICES:
                raise CapacityError(f"C({_shown(n)},{_shown(r)}) vertices exceed the {MAX_VERTICES} limit")
        return tuple.__new__(cls, (n, r, s))

    def contains_vertex(self, mask: int) -> bool:
        return 0 < mask < 1 << self.n and mask.bit_count() == self.r

    def adjacent(self, a: int, b: int) -> bool:
        if a == b or not (self.contains_vertex(a) and self.contains_vertex(b)):
            return False
        return (a & b).bit_count() == self.s

    def roots(self) -> list[tuple[int, ...]]:
        """The single edge root (v0, v1), v0 = {1..r} and
        v1 = {1..s} ∪ {r+1..2r-s}; the vertex root (v0,) if n - r < r - s.

        Soundness: a permutation of {1..n} preserves sizes and
        intersection sizes, so it is an automorphism of the graph.
        * No edge: two r-sets meeting in s points cover 2r - s <= n
          points, so when n - r < r - s the graph has no edge and ω = 1,
          the vertex v0 alone.
        * Edge: an edge (X, Y) splits {1..n} into the cells X∩Y, X - Y,
          Y - X and the rest, of sizes s, r - s, r - s and n - 2r + s for
          every edge.  A permutation taking each cell of one edge onto the
          same cell of another maps the first edge onto the second, so the
          symmetric group is transitive on ordered edges.  A maximum clique
          has at least two members once an edge exists, and some
          permutation maps two of them onto (v0, v1), so
          ω = 2 + ω(N(v0) ∩ N(v1)).
        """
        v0 = (1 << self.r) - 1
        if self.n - self.r < self.r - self.s:
            return [(v0,)]
        return [(v0, (1 << self.s) - 1 | ((1 << (self.r - self.s)) - 1) << self.r)]

    def candidates(self, prefix: tuple[int, ...] = ()) -> Iterator[int]:
        """Every vertex for an empty prefix, else the common neighbours of
        the prefix: the r-sets with s points inside its first set and r - s
        outside, kept when they meet every other prefix set in s."""
        full = (1 << self.n) - 1
        if not prefix:
            yield from _choose(0, 0, full, self.r)
            return
        v, rest = prefix[0], prefix[1:]
        for m in _choose(v, self.s, full ^ v, self.r - self.s):
            if all((m & u).bit_count() == self.s for u in rest):
                yield m

    def build_graph(self, prefix: tuple[int, ...] = ()) -> _BuiltGraph:
        """The graph on `candidates(prefix)`."""
        return _ordered(list(self.candidates(prefix)), lambda a, b: self.s)

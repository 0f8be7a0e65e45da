"""Graph oracles for the clique searches, and their candidate graphs.

An oracle is a graph on events, stored as point bitmasks, behind the one
protocol that `search.max_clique` reads.  `roots()` names forced clique
prefixes, one per orbit of a symmetry group of the graph, such that some
maximum clique is the image of a clique through some root (proofs in the
oracles' `roots`).  `candidates(root)` generates the vertices adjacent to
every event of a root in classes, one iterator of masks per class: `_masks`
takes k_i points of cell i for each admitted count vector (k_i), over the
three cells of a power-set root and the four of a Johnson edge root.  A
class is one count vector, so it is one orbit of the root's stabilizer,
the permutations of the points that keep every cell, and `max_clique`
fixes a third vertex per class on that ground.  The classes come in search
order, generated in it: balanced sizes first (|2b - n| ascending) for the
power set, the largest class first for Johnson.  `meet(a, b)` is the
intersection size that joins events of sizes a and b, or None.
`build_graph(cand)` counts the graph on candidates already generated in
one bit-sliced pass and keeps them in the order generated: a greedy
colouring bounds the clique number in any vertex order, so the search
stays exact.  `adjacent(a, b)` and `contains_vertex(v)` check seeds and
witnesses apart from the search.  A vertex is an int, not a bool, in the
graph's range; `adjacent` states that rule itself for both endpoints,
without calling `contains_vertex`, so a subclass that overrides only
`contains_vertex` does not change `adjacent`.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Iterator, NamedTuple

from .setsys import CapacityError, ParameterError, SampleSpace, _checked, _is_int, _point_columns, _shown

MAX_VERTICES = 1 << 20  # the most candidates one root may build


class _BuiltGraph(NamedTuple):
    cand: list[int]  # vertices adjacent to every root vertex, in generation order
    adj: list[int]   # adjacency bitsets over cand indices


def _bits(mask: int) -> list[int]:
    """The one-point masks of `mask`, lowest point first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


def _masks(cells: tuple[int, ...], counts: Iterable[tuple[int, ...]]) -> Iterator[Iterator[int]]:
    """One iterator per count vector (k_i) of `counts`, in turn, of the masks
    with k_i points of cells[i], disjoint point masks: first cell outermost,
    each cell's subsets in lexicographic order, none for a k_i above its
    cell's size.

    A count vector is one orbit of the root's stabilizer, the permutations
    that keep every cell.  It has Π C(|cell_i|, k_i) masks, so a root of more
    than MAX_VERTICES is refused (CapacityError) at the first read, before any
    mask is made.  Only when the cells' 2^points subsets could pass the limit
    are `counts` listed and counted; otherwise they are read lazily.
    """
    bits = [_bits(cell) for cell in cells]
    if 1 << sum(map(len, bits)) > MAX_VERTICES:
        counts = list(counts)
        total = sum(math.prod(map(math.comb, map(len, bits), ks)) for ks in counts)
        if total > MAX_VERTICES:
            raise CapacityError(f"a root's {total} candidates exceed the {MAX_VERTICES}-vertex limit")
    for ks in counts:  # lists: product copies an iterator into a tuple it grows and shrinks
        parts = [b if k == 1 else list(map(sum, itertools.combinations(b, k))) for b, k in zip(bits, ks)]
        yield map(sum, itertools.product(*parts))


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
    # wanted[a]: the intersection size w for each size class b that meets a, with its members
    wanted = {a: [(w, members) for b, members in sizes.items() if (w := meet(a, b)) is not None]
              for a in sizes}
    adj = []
    for i, x in enumerate(cand):
        slices: list[int] = []
        rest = x
        while rest:
            low = rest & -rest
            rest ^= low
            carry = cols[low.bit_length() - 1]
            k = 0
            for s in slices:
                slices[k] = s ^ carry
                carry &= s
                if not carry:
                    break
                k += 1
            else:  # a carry out of the top slice starts a new one
                slices.append(carry)
        row = 0
        for w, members in wanted[x.bit_count()]:
            if w >> len(slices):
                continue
            for s in slices:  # w's bits, lowest first
                members = members & s if w & 1 else members ^ (members & s)
                w >>= 1
            row |= members
        adj.append(row ^ (row & 1 << i))
    return adj


class PowerSetGraphOracle(_checked("PowerSetGraphOracle", "space")):
    """Graph on the nonempty subsets of {1..n}; edges are independent pairs."""

    __slots__ = ()

    def __new__(cls, space: SampleSpace) -> PowerSetGraphOracle:
        if not isinstance(space, SampleSpace):
            raise ParameterError(f"space must be a SampleSpace, got {_shown(space)}")
        return tuple.__new__(cls, (space,))

    def contains_vertex(self, mask: int) -> bool:
        return (type(mask) is int or _is_int(mask)) and 0 < mask and not mask >> self.space.n

    def adjacent(self, a: int, b: int) -> bool:
        n = self.space.n
        if (a == b or not (type(a) is int or _is_int(a)) or not (type(b) is int or _is_int(b))
                or a <= 0 or b <= 0 or (a | b) >> n):
            return False
        return n * (a & b).bit_count() == a.bit_count() * b.bit_count()

    def meet(self, a: int, b: int) -> int | None:
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
        * Core sizes: call a size a core when n | a², that is when c | a
          for the least c with n | c².  Since (n - a)² ≡ a² mod n, a
          complement keeps whether a size is core, and a permutation keeps
          every size.  A root whose v_a has a core size takes only
          candidates of core sizes.  If some proper member of K is not
          core, take it as B: its root keeps every candidate, and the orbit
          step holds unchanged.  Otherwise every member is core, B is any
          of them, and the swaps and the permutation of that step keep
          every member core, so the image lies among the core root's
          candidates.  No bound is used, so this is exact at every n.
        So g = 2 + max over the roots of ω(the graph on `candidates`), or 1
        when n = 1.  Balanced sizes come first, where the Hadamard-type
        maxima live, so the incumbent grows early.  Maxima lean on the core:
        with p^k the exact power of a prime p in n, two proper events whose
        sizes both have 2·v_p < k have v_p(ab) < k, so n ∤ ab and they are
        not independent.  So per prime at most one member of a family is not
        core, and a Hadamard family, all of whose proper events have size
        n/2, is core whole: at 4 | n the first root is core and can meet g <= n.
        """
        n = self.space.n
        full = self.space.full_mask
        top = 1 << (n - 1)
        return [(full, top | (1 << (a - 1)) - 1) for a in range(n // 2, 0, -1)] or [(full,)]

    def candidates(self, root: tuple[int, ...]) -> Iterator[Iterator[int]]:
        """The candidates of a root from `roots()`, one class per size: with
        v its last event, the events containing point n of each size b with
        n | |v|b, made of w - 1 points of v - {n}, point n and b - w points
        outside v, where w = |v|b/n: the count vectors (w - 1, 1, b - w) over
        the cells v - {n}, {n} and the rest; of the core sizes b only
        (n | b²) when |v| is one (proof in `roots`).

        With m = gcd(n, |v|), n | |v|b exactly when d = n/m divides b: the
        sizes are b = jd for j = 1 .. m - 1, with w = je, e = |v|/m.  Balanced
        sizes come first, |2b - n| = d|2j - m| ascending, where the
        Hadamard-type maxima live.  On a tie the larger b comes first: the
        class of n - b has C(|v| - 1, w)·C(n - |v|, b - w) members,
        (|v| - w)/w times those of b, more when b < n/2.  The i-th j is
        (m + i + 1)/2 when m + i is odd and (m - i)/2 when it is even, so the
        sizes are neither sorted nor tried one by one.
        """
        n = self.space.n
        v, top = root[-1], 1 << (n - 1)
        a = v.bit_count()
        m = math.gcd(n, a)
        d, e = n // m, a // m
        counts = ((j * e - 1, 1, j * (d - e)) for i in range(m - 1)
                  for j in [(m + i + 1) // 2 if (m + i) % 2 else (m - i) // 2]
                  if a * a % n or (j * d) ** 2 % n == 0)
        return _masks((v ^ top, top, self.space.full_mask ^ v), counts)

    def build_graph(self, cand: list[int]) -> _BuiltGraph:
        """The graph on `cand`, candidates of one root."""
        return _BuiltGraph(cand, _intersection_graph(cand, self.meet))


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
        return (type(mask) is int or _is_int(mask)) and 0 < mask < 1 << self.n and mask.bit_count() == self.r

    def adjacent(self, a: int, b: int) -> bool:
        n, r, s = self
        if (a == b or not (type(a) is int or _is_int(a)) or not (type(b) is int or _is_int(b))
                or a <= 0 or b <= 0 or (a | b) >> n or a.bit_count() != r or b.bit_count() != r):
            return False
        return (a & b).bit_count() == s

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

    def meet(self, a: int, b: int) -> int:
        """The intersection size of two adjacent r-sets: s."""
        return self.s

    def candidates(self, root: tuple[int, ...]) -> Iterator[Iterator[int]]:
        """The common neighbours of a root from `roots()`, generated from
        the four cells of its sets, one class per k, the largest first.

        With v0, v1 the sets of the root (v1 = v0 for a vertex root) and
        t = r - s, an r-set m meets both in s points exactly when its count
        vector over the cells v0∩v1, v0 - v1, v1 - v0 and the rest is
        (s - k, k, k, t - k): counts (c, d, e, f) with c + d = |m∩v0| = s,
        c + e = |m∩v1| = s and c + d + e + f = r give d = e = s - c.  The
        counts are at least 0 and the last at most the rest's size, which
        bounds k; so no neighbour of v0 is generated only to be rejected.
        Class k has C(s, k)·C(t, k)²·C(|rest|, t - k) members; the k are
        taken by that size, descending, ties to the smaller k.
        """
        v0, v1 = root[0], root[-1]  # v1 = v0 for a vertex root
        both, rest = v0 & v1, ((1 << self.n) - 1) ^ (v0 | v1)
        s, t, free = self.s, self.r - self.s, rest.bit_count()
        ks = range(max(0, t - free), min(s, t) + 1)
        if len(ks) > 1:  # one class or none, as at J(14,7,1), has no order to take
            ks = sorted(ks, key=lambda k: math.comb(s, k) * math.comb(t, k) ** 2 * math.comb(free, t - k),
                        reverse=True)
        return _masks((both, v0 ^ both, v1 ^ both, rest), ((s - k, k, k, t - k) for k in ks))

    def build_graph(self, cand: list[int]) -> _BuiltGraph:
        """The graph on `cand`, candidates of one root."""
        return _BuiltGraph(cand, _intersection_graph(cand, self.meet))

"""Explicit constructions: Hadamard matrices, block designs, and the
families they induce.

Two routes produce pairwise-independent witness families:

* Hadamard matrix of order n (4 | n)  ->  family of n events on {1..n}:
  each block of the symmetric 2-(n-1, n/2-1, n/4-1) design plus the point
  n, topped off with the full space, showing g(n) = n.  The design's blocks
  are read straight off the +1 column masks (see `_normal_blocks`).
* Any 2-(v,k,lambda) design whose replication number r = lambda(v-1)/(k-1)
  satisfies r^2 = lambda*n for an integer n dualizes to v+1 events on
  {1..n}, showing g(n) >= v+1.  Projective planes of prime order q are
  built from the geometry of F_q^3 and feed this route.

Every HadamardMatrix is checked for H H^T = nI on construction, by a
popcount per row pair: with P and Q the bitmasks of the +1 columns of two
+-1 rows x and y, <x, y> = (n - |P xor Q|) - |P xor Q| = n - 2|P xor Q|,
since the rows agree on n - |P xor Q| columns and differ on the rest.
Design constructors re-check the design axioms, counting the blocks on a
pair of points as the popcount of the AND of the two points' block masks.
"""

from __future__ import annotations

import itertools
from typing import Any, NamedTuple, Sequence

from .setsys import (
    MAX_POINTS,
    CapacityError,
    CertificateError,
    Family,
    ParameterError,
    _checked,
    _g_witness,
    _is_int,
    _json_object,
    _point_columns,
    _point_lists,
    _shown,
    mask_to_points,
)

MAX_ORDER = 64  # largest Hadamard order any generator emits
# Largest block list a design file may hold.  check_design costs
# O(sum |B| + v^2 b / 64) word operations; at v = 63 a list of 2^16 full
# blocks takes about 1.3 s to check (Python 3.11.7), and no accepted file
# takes longer.  The package's own designs have b <= 63.
MAX_BLOCKS = 1 << 16


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def _check_prime_below(q: Any, limit: int, capacity: str) -> None:
    """Refuse q >= limit with `capacity` before the trial division of q."""
    if not _is_int(q) or (q < limit and not _is_prime(q)):
        raise ParameterError(f"q={_shown(q)} is not prime (prime powers are not supported)")
    if q >= limit:
        raise CapacityError(capacity)


class HadamardMatrix(_checked("HadamardMatrix", "rows plus")):
    """Square +1/-1 matrix H with H H^T = nI, checked at construction; plus[i],
    derived from the rows, masks the columns where row i is +1 (bit c for column c)."""

    __slots__ = ()

    def __new__(cls, rows: Sequence[Sequence[int]]) -> HadamardMatrix:
        rows = tuple(tuple(row) for row in rows)
        n = len(rows)
        if n == 0:
            raise ParameterError("a Hadamard matrix has at least one row")
        plus = []
        for row in rows:
            if len(row) != n:
                raise ParameterError(f"matrix is not square: {n} rows, a row of {len(row)}")
            mask = 0
            for c, x in enumerate(row):
                if type(x) is not int or x not in (1, -1):  # not bool, not float
                    raise ParameterError(f"entry {_shown(x)} is not +1 or -1")
                if x == 1:
                    mask |= 1 << c
            plus.append(mask)
        # <x, y> = n - 2|P xor Q| (see the module docstring); the diagonal
        # <x, x> = n holds once the entries are +-1
        for i, p in enumerate(plus):
            for j in range(i + 1, n):
                dot = n - 2 * (p ^ plus[j]).bit_count()
                if dot:
                    raise ParameterError(
                        f"rows {i + 1} and {j + 1} have inner product {dot}; "
                        f"H H^T = {n}I fails"
                    )
        return tuple.__new__(cls, (rows, tuple(plus)))

    _make = classmethod(lambda cls, fields: cls(next(iter(fields))))  # plus is derived: rows alone
    __getnewargs__ = lambda self: (self.rows,)  # noqa: E731 -- copy and pickle, likewise

    @property
    def order(self) -> int:
        return len(self.rows)


def sylvester(k: int) -> HadamardMatrix:
    """Hadamard matrix of order 2^k by the doubling construction."""
    if not _is_int(k) or k < 0:
        raise ParameterError(f"sylvester index must be a nonnegative integer, got {_shown(k)}")
    if k > 6:  # 2^6 = MAX_ORDER; 2**k of a huge k would not fit in memory
        raise CapacityError(f"sylvester supports orders up to {MAX_ORDER} (k <= 6), got k={_shown(k)}")
    rows: list[list[int]] = [[1]]
    for _ in range(k):
        rows = [r + r for r in rows] + [r + [-x for x in r] for r in rows]
    return HadamardMatrix(tuple(tuple(r) for r in rows))


def paley1(q: int) -> HadamardMatrix:
    """Hadamard matrix of order q+1 for a prime q congruent to 3 mod 4.

    The quadratic-residue character on Z/q gives a skew conference
    matrix S (zero diagonal, all-ones border); H = I + S is Hadamard.
    """
    _check_prime_below(q, MAX_ORDER, f"q={_shown(q)} gives an order q+1 above the {MAX_ORDER} limit")
    if q % 4 != 3:
        raise ParameterError(f"q={q} is {q % 4} mod 4; the construction needs q = 3 mod 4")
    residues = {i * i % q for i in range(1, q)}
    size = q + 1
    rows = [[1] * size]
    for i in range(1, size):
        row = [-1]
        for j in range(1, size):
            if i == j:
                row.append(1)
            else:
                row.append(1 if (i - j) % q in residues else -1)
        rows.append(row)
    return HadamardMatrix(tuple(tuple(r) for r in rows))


def sylvester_orders() -> list[int]:
    return [2**k for k in range(7)]


def paley_orders() -> list[int]:
    return [q + 1 for q in range(3, MAX_ORDER) if _is_prime(q) and q % 4 == 3]


def hadamard_matrix(order: int, method: str = "auto") -> HadamardMatrix:
    """Hadamard matrix of the given order, from whichever generator covers it."""
    if method not in ("auto", "sylvester", "paley"):
        raise ParameterError(f"unknown method {_shown(method)}; use sylvester, paley, or auto")
    if not _is_int(order):
        raise ParameterError(f"Hadamard order must be an integer, got {_shown(order)}")
    if method in ("auto", "sylvester") and order in sylvester_orders():
        return sylvester(order.bit_length() - 1)
    if method in ("auto", "paley") and order in paley_orders():
        return paley1(order - 1)
    tried = {"sylvester": sylvester_orders(), "paley": paley_orders()}
    supported = tried[method] if method != "auto" else sorted(set(tried["sylvester"]) | set(tried["paley"]))
    raise CapacityError(
        f"no {'generator' if method == 'auto' else method + ' construction'} covers order "
        f"{_shown(order)}; supported orders: {supported}"
    )


def hadamard_to_text(h: HadamardMatrix) -> str:
    """n lines of n characters, '+' for +1 and '-' for -1."""
    return "\n".join("".join("+" if x > 0 else "-" for x in row) for row in h.rows) + "\n"


def _check_order(rows: int) -> None:
    """Refuse a matrix file past MAX_ORDER rows before its H H^T check of
    n(n-1)/2 XOR-popcounts of +1 column masks."""
    if rows > MAX_ORDER:
        raise CapacityError(f"matrix has more than {MAX_ORDER} rows, above the order limit")


def hadamard_from_text(text: str) -> HadamardMatrix:
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        _check_order(len(rows) + 1)
        for ch in line:
            if ch not in "+-":
                raise ParameterError(f"unexpected character {ch!r} in matrix text")
        rows.append(tuple(1 if ch == "+" else -1 for ch in line))
    if not rows:
        raise ParameterError("matrix text contains no rows")
    return HadamardMatrix(tuple(rows))


def hadamard_to_json(h: HadamardMatrix) -> list[list[int]]:
    return [list(row) for row in h.rows]


def hadamard_from_json(data: Any) -> HadamardMatrix:
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise ParameterError("matrix JSON must be a list of rows of +1/-1 integers")
    _check_order(len(data))
    return HadamardMatrix(tuple(tuple(row) for row in data))


class Design(_checked("Design", "v k lam blocks")):
    """2-(v,k,lambda) block design; blocks are bitmasks over points {1..v}.

    The constructor checks only shapes and ranges; the design axioms are
    the business of check_design, so files can be loaded first and judged
    afterwards.
    """

    __slots__ = ()

    def __new__(cls, v: int, k: int, lam: int, blocks: Sequence[int]) -> Design:
        blocks = tuple(blocks)
        for name, value in ("v", v), ("k", k), ("lambda", lam):
            if not _is_int(value):
                raise ParameterError(f"design parameter {name} must be an integer, got {_shown(value)}")
        if v < 1:
            raise ParameterError(f"a design needs at least one point, got v={_shown(v)}")
        if v > MAX_POINTS:  # before the 2^v - 1 mask below
            raise CapacityError(f"design has v={_shown(v)} points, above the {MAX_POINTS}-point limit")
        if not 0 <= k <= v:
            raise ParameterError(f"block size k={_shown(k)} outside 0..v={v}")
        if lam < 0:
            raise ParameterError(f"lambda={_shown(lam)} must be nonnegative")
        full = (1 << v) - 1
        for idx, blk in enumerate(blocks):
            if not _is_int(blk):
                raise ParameterError(f"block {idx + 1} is {_shown(blk)}, not an integer bitmask")
            if blk < 0 or blk > full:
                raise ParameterError(f"block {idx + 1} has bits outside points 1..{v}")
        return tuple.__new__(cls, (v, k, lam, blocks))

    @property
    def b(self) -> int:
        return len(self.blocks)

    def block_points(self) -> list[tuple[int, ...]]:
        return [mask_to_points(blk) for blk in self.blocks]


def design_to_dict(design: Design) -> dict[str, Any]:
    return {
        "v": design.v,
        "k": design.k,
        "lambda": design.lam,
        "blocks": [list(pts) for pts in design.block_points()],
    }


def design_from_dict(data: Any) -> Design:
    v, k, lam, blocks = _json_object(data, "design", ("v", "k", "lambda", "blocks"))
    Design(v, k, lam, ())  # checks v, k and lambda before any block is read
    return Design(v, k, lam, _point_lists(blocks, "blocks", v, MAX_BLOCKS))


class DesignCheck(NamedTuple):
    """Outcome of checking the 2-design axioms on a Design."""

    ok: bool
    symmetric: bool                 # b == v
    block_sizes_ok: bool
    pair_coverage_ok: bool
    intersections_ok: bool | None   # symmetric designs only, else None
    first_violation: str | None


def _unequal_meet(masks: Sequence[int], lam: int) -> tuple[int, int, int] | None:
    """First pair i < j of masks whose AND has count != lam bits, as (i + 1, j + 1, count)."""
    for (i, a), (j, b) in itertools.combinations(enumerate(masks, 1), 2):
        count = (a & b).bit_count()
        if count != lam:
            return i, j, count
    return None


def check_design(design: Design) -> DesignCheck:
    return _check_design(design, _point_columns(design.blocks, design.v))


def _check_design(design: Design, cols: list[int]) -> DesignCheck:
    """`check_design` given the design's point columns from `setsys._point_columns`."""
    k, lam = design.k, design.lam
    size = next((i for i, blk in enumerate(design.blocks, 1) if blk.bit_count() != k), None)
    # the blocks that contain both points p and q are exactly cols[p] & cols[q]
    pair = _unequal_meet(cols, lam)
    symmetric = design.b == design.v
    meet = _unequal_meet(design.blocks, lam) if symmetric else None
    if size is not None:
        first = f"block {size} has size {design.blocks[size - 1].bit_count()}, expected k={k}"
    elif pair is not None:
        first = f"pair {{{pair[0]},{pair[1]}}} lies in {pair[2]} blocks, expected lambda={lam}"
    elif meet is not None:
        first = f"blocks {meet[0]} and {meet[1]} meet in {meet[2]} points, expected lambda={lam}"
    else:
        first = None
    return DesignCheck(first is None, symmetric, size is None, pair is None,
                       meet is None if symmetric else None, first)


def _symmetric_design(v: int, k: int, lam: int, blocks: list[int], what: str) -> Design:
    """The 2-(v,k,lam) design on `blocks`, certified by check_design as symmetric."""
    design = Design(v, k, lam, tuple(blocks))
    report = check_design(design)
    if not (report.ok and report.symmetric):
        raise CertificateError(f"{what} failed the design axioms")
    return design


def _normal_blocks(h: HadamardMatrix) -> list[int]:
    """Rows 2..n of the normalized h, as masks of their +1 columns among 2..n.

    Normalizing negates the columns where row 1 is -1, so that row 1 is
    all +1, then every row whose first entry is -1.  After the column
    negations row i is +1 exactly where it agrees with row 1, on the mask
    E_i = full ^ P_i ^ P_1 (full = 2^n - 1, P_i = `h.plus[i-1]`); the row
    negation keeps E_i when its bit 0 (column 1) is set and takes full ^ E_i
    otherwise.  Column 1 is then +1 in every row, and dropping it shifts the
    mask right by one.
    """
    n = h.order
    if n < 4 or n % 4 != 0:
        raise ParameterError(f"design extraction needs order >= 4 divisible by 4, got {n}")
    full = (1 << n) - 1
    blocks = []
    for p in h.plus[1:]:
        e = full ^ p ^ h.plus[0]
        blocks.append((e if e & 1 else full ^ e) >> 1)
    return blocks


def hadamard_to_design(h: HadamardMatrix) -> Design:
    """Symmetric 2-(n-1, n/2-1, n/4-1) design from a Hadamard matrix of order n:
    the blocks of `_normal_blocks` over the points 1..n-1."""
    n = h.order
    return _symmetric_design(n - 1, n // 2 - 1, n // 4 - 1, _normal_blocks(h),
                             "Hadamard-derived design")


def hadamard_family(h: HadamardMatrix) -> Family:
    """Maximum family of n pairwise-independent events on {1..n} from a
    Hadamard matrix of order n: each block of `_normal_blocks` plus the
    point n, then the full space."""
    top = 1 << (h.order - 1)
    # from_masks refuses orders above 63, past the bitmask limit
    return _g_witness(h.order, [blk | top for blk in _normal_blocks(h)], "Hadamard family")


def projective_plane(q: int) -> Design:
    """Symmetric 2-(q^2+q+1, q+1, 1) design from the geometry of F_q^3, q prime.

    Points and lines are both indexed by normalized nonzero triples (first
    nonzero coordinate 1); point (x,y,z) lies on line [a,b,c] iff
    ax + by + cz = 0 mod q.
    """
    _check_prime_below(q, 8, f"plane of order {_shown(q)} has q^2+q+1 points, above the 63-point limit")
    v = q * q + q + 1
    triples = (
        [(1, y, z) for y in range(q) for z in range(q)]
        + [(0, 1, z) for z in range(q)]
        + [(0, 0, 1)]
    )
    blocks = []
    for a, b, c in triples:
        mask = 0
        for idx, (x, y, z) in enumerate(triples):
            if (a * x + b * y + c * z) % q == 0:
                mask |= 1 << idx
        blocks.append(mask)
    return _symmetric_design(v, q + 1, 1, blocks, "projective plane")


def dualize_design(design: Design) -> Family:
    """Family of v+1 pairwise-independent events on {1..n}, n = r^2/lambda,
    from a 2-(v,k,lambda) design whose parameters admit such an n.

    Point p maps to its column of `setsys._point_columns`, the blocks that
    contain it; the dual events have size r and meet pairwise in lambda points,
    and the design identities guarantee b <= n, so they fit inside {1..n}.
    """
    cols = _point_columns(design.blocks, design.v)
    report = _check_design(design, cols)
    if not report.ok:
        raise ParameterError(f"not a valid 2-design: {report.first_violation}")
    if design.lam < 1:
        raise ParameterError(
            "dualization needs lambda >= 1 (with lambda=0 the target n = r^2/lambda "
            "is undefined)"
        )
    # with k = v every dual event would be the whole space {1..n}
    if not 2 <= design.k < design.v:
        raise ParameterError(f"dualization needs 2 <= k < v, got k={design.k}, v={design.v}")
    # the pairs through one point count r(k-1) = lambda(v-1): r is an integer
    r = design.lam * (design.v - 1) // (design.k - 1)
    if (r * r) % design.lam != 0:
        raise ParameterError(
            f"r^2/lambda = {r}^2/{design.lam} is not an integer; no sample-space size n "
            f"with lambda*n = r^2 exists"
        )
    n = r * r // design.lam
    if design.b > n:
        raise CertificateError("design identities guarantee at most n blocks")
    if any(col.bit_count() != r for col in cols):
        raise CertificateError(f"a dual event does not have size r={r}")
    # SampleSpace raises CapacityError above 63 points
    return _g_witness(n, cols, "dual family")

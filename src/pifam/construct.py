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
from dataclasses import dataclass, field
from typing import Any

from .setsys import (
    MAX_POINTS,
    CapacityError,
    CertificateError,
    Family,
    ParameterError,
    SampleSpace,
    is_valid_g_family,
    mask_to_points,
    points_to_mask,
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
    if not isinstance(q, int) or isinstance(q, bool) or (q < limit and not _is_prime(q)):
        raise ParameterError(f"q={q!r} is not prime (prime powers are not supported)")
    if q >= limit:
        raise CapacityError(capacity)


@dataclass(frozen=True)
class HadamardMatrix:
    """Square +1/-1 matrix H with H H^T = nI, checked at construction."""

    rows: tuple[tuple[int, ...], ...]
    # plus[i]: bitmask of the columns where row i is +1, bit c for column c
    plus: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(tuple(row) for row in self.rows))
        n = len(self.rows)
        if n == 0:
            raise ParameterError("a Hadamard matrix has at least one row")
        plus = []
        for row in self.rows:
            if len(row) != n:
                raise ParameterError(f"matrix is not square: {n} rows, a row of {len(row)}")
            mask = 0
            for c, x in enumerate(row):
                if type(x) is not int or x not in (1, -1):  # not bool, not float
                    raise ParameterError(f"entry {x!r} is not +1 or -1")
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
        object.__setattr__(self, "plus", tuple(plus))

    @property
    def order(self) -> int:
        return len(self.rows)


def sylvester(k: int) -> HadamardMatrix:
    """Hadamard matrix of order 2^k by the doubling construction."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ParameterError(f"sylvester index must be a nonnegative integer, got {k!r}")
    if 2**k > MAX_ORDER:
        raise CapacityError(f"sylvester supports orders up to {MAX_ORDER} (k <= 6), got k={k}")
    rows: list[list[int]] = [[1]]
    for _ in range(k):
        rows = [r + r for r in rows] + [r + [-x for x in r] for r in rows]
    return HadamardMatrix(tuple(tuple(r) for r in rows))


def paley1(q: int) -> HadamardMatrix:
    """Hadamard matrix of order q+1 for a prime q congruent to 3 mod 4.

    The quadratic-residue character on Z/q gives a skew conference
    matrix S (zero diagonal, all-ones border); H = I + S is Hadamard.
    """
    _check_prime_below(q, MAX_ORDER, f"q={q!r} gives an order q+1 above the {MAX_ORDER} limit")
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


def sylvester_orders(limit: int = MAX_ORDER) -> list[int]:
    return [2**k for k in range(7) if 2**k <= limit]


def paley_orders(limit: int = MAX_ORDER) -> list[int]:
    return [q + 1 for q in range(3, limit) if _is_prime(q) and q % 4 == 3 and q + 1 <= limit]


def hadamard_matrix(order: int, method: str = "auto") -> HadamardMatrix:
    """Hadamard matrix of the given order, from whichever generator covers it."""
    if method not in ("auto", "sylvester", "paley"):
        raise ParameterError(f"unknown method {method!r}; use sylvester, paley, or auto")
    if method in ("auto", "sylvester") and order in sylvester_orders():
        return sylvester(order.bit_length() - 1)
    if method in ("auto", "paley") and order in paley_orders():
        return paley1(order - 1)
    tried = {"sylvester": sylvester_orders(), "paley": paley_orders()}
    supported = tried[method] if method != "auto" else sorted(set(tried["sylvester"]) | set(tried["paley"]))
    raise CapacityError(
        f"no {'generator' if method == 'auto' else method + ' construction'} covers order "
        f"{order}; supported orders: {supported}"
    )


def hadamard_to_text(h: HadamardMatrix) -> str:
    """n lines of n characters, '+' for +1 and '-' for -1."""
    return "\n".join("".join("+" if x > 0 else "-" for x in row) for row in h.rows) + "\n"


def _check_order(rows: int) -> None:
    """Refuse a matrix file past MAX_ORDER rows before its O(n^3) H H^T check."""
    if rows > MAX_ORDER:
        raise CapacityError(f"matrix has more than {MAX_ORDER} rows, above the order limit")


def hadamard_from_text(text: str) -> HadamardMatrix:
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        _check_order(len(rows) + 1)
        row = []
        for ch in line:
            if ch == "+":
                row.append(1)
            elif ch == "-":
                row.append(-1)
            else:
                raise ParameterError(f"unexpected character {ch!r} in matrix text")
        rows.append(tuple(row))
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


@dataclass(frozen=True)
class Design:
    """2-(v,k,lambda) block design; blocks are bitmasks over points {1..v}.

    The constructor checks only shapes and ranges; the design axioms are
    the business of check_design / validate_design, so files can be
    loaded first and judged afterwards.
    """

    v: int
    k: int
    lam: int
    blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if self.v < 1:
            raise ParameterError(f"a design needs at least one point, got v={self.v}")
        if not 0 <= self.k <= self.v:
            raise ParameterError(f"block size k={self.k} outside 0..v={self.v}")
        if self.lam < 0:
            raise ParameterError(f"lambda={self.lam} must be nonnegative")
        full = (1 << self.v) - 1
        for idx, blk in enumerate(self.blocks):
            if blk < 0 or blk > full:
                raise ParameterError(f"block {idx + 1} has bits outside points 1..{self.v}")

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
    if not isinstance(data, dict):
        raise ParameterError("design JSON must be an object")
    missing = {"v", "k", "lambda", "blocks"} - data.keys()
    if missing:
        raise ParameterError(f"design JSON is missing keys: {sorted(missing)}")
    v, k, lam, raw = data["v"], data["k"], data["lambda"], data["blocks"]
    for name, value in ("v", v), ("k", k), ("lambda", lam):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ParameterError(f'design JSON field "{name}" must be an integer')
    if v > MAX_POINTS:
        raise CapacityError(f"design has v={v} points, above the {MAX_POINTS}-point limit")
    if not isinstance(raw, list):
        raise ParameterError('design JSON field "blocks" must be a list of point lists')
    if len(raw) > MAX_BLOCKS:
        raise CapacityError(f"design has {len(raw)} blocks, above the {MAX_BLOCKS}-block limit")
    blocks = []
    for item in raw:
        if not isinstance(item, list):
            raise ParameterError(f"block {item!r} is not a list of points")
        mask = points_to_mask(item, v if v >= 1 else 1)
        if mask.bit_count() != len(item):
            raise ParameterError(f"block {item!r} repeats a point")
        blocks.append(mask)
    return Design(v, k, lam, tuple(blocks))


@dataclass(frozen=True)
class DesignCheck:
    """Outcome of checking the 2-design axioms on a Design."""

    ok: bool
    symmetric: bool                 # b == v
    block_sizes_ok: bool
    pair_coverage_ok: bool
    intersections_ok: bool | None   # symmetric designs only, else None
    first_violation: str | None


def _point_columns(design: Design) -> list[int]:
    """cols[p]: bitmask of the blocks containing point p + 1, bit j for block j.
    Filled as bytearrays: OR-ing a bit into an int copies the whole int."""
    cols = [bytearray((design.b + 7) // 8) for _ in range(design.v)]
    for j, blk in enumerate(design.blocks):
        byte, bit = j >> 3, 1 << (j & 7)
        while blk:
            low = blk & -blk
            cols[low.bit_length() - 1][byte] |= bit
            blk ^= low
    return [int.from_bytes(col, "little") for col in cols]


def check_design(design: Design) -> DesignCheck:
    first: str | None = None
    sizes_ok = True
    for idx, blk in enumerate(design.blocks):
        got = blk.bit_count()
        if got != design.k:
            sizes_ok = False
            first = f"block {idx + 1} has size {got}, expected k={design.k}"
            break
    # the blocks that contain both p and q are exactly cols[p] & cols[q]
    cols = _point_columns(design)
    pairs_ok = True
    for p, q in itertools.combinations(range(design.v), 2):
        cover = (cols[p] & cols[q]).bit_count()
        if cover != design.lam:
            pairs_ok = False
            if first is None:
                first = (
                    f"pair {{{p + 1},{q + 1}}} lies in {cover} blocks, "
                    f"expected lambda={design.lam}"
                )
            break
    symmetric = design.b == design.v
    inter_ok: bool | None = None
    if symmetric:
        inter_ok = True
        for (i, bi), (j, bj) in itertools.combinations(enumerate(design.blocks), 2):
            got = (bi & bj).bit_count()
            if got != design.lam:
                inter_ok = False
                if first is None:
                    first = (
                        f"blocks {i + 1} and {j + 1} meet in {got} points, "
                        f"expected lambda={design.lam}"
                    )
                break
    ok = sizes_ok and pairs_ok and inter_ok is not False
    return DesignCheck(ok, symmetric, sizes_ok, pairs_ok, inter_ok, first)


def validate_design(design: Design) -> bool:
    """True iff block sizes and pair coverage (and, for symmetric designs,
    pairwise block intersections) all match the declared parameters."""
    return check_design(design).ok


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
    blocks = _normal_blocks(h)
    n = h.order
    design = Design(n - 1, n // 2 - 1, n // 4 - 1, tuple(blocks))
    report = check_design(design)
    if not (report.ok and report.symmetric):
        raise CertificateError("Hadamard-derived design failed its axioms")
    return design


def hadamard_family(h: HadamardMatrix) -> Family:
    """Maximum family of n pairwise-independent events on {1..n} from a
    Hadamard matrix of order n: each block of `_normal_blocks` plus the
    point n, then the full space."""
    blocks = _normal_blocks(h)
    n = h.order
    space = SampleSpace(n)  # orders above 63 exceed the bitmask limit
    top = 1 << (n - 1)
    events = [space.event_from_mask(blk | top) for blk in blocks]
    events.append(space.omega())
    family = Family(space, tuple(events))
    if not is_valid_g_family(family):
        raise CertificateError("Hadamard family failed the independence check")
    return family


def projective_plane(q: int) -> Design:
    """Symmetric 2-(q^2+q+1, q+1, 1) design from the geometry of F_q^3, q prime.

    Points and lines are both indexed by normalized nonzero triples (first
    nonzero coordinate 1); point (x,y,z) lies on line [a,b,c] iff
    ax + by + cz = 0 mod q.
    """
    _check_prime_below(q, 8, f"plane of order {q} has q^2+q+1 points, above the 63-point limit")
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
    design = Design(v, q + 1, 1, tuple(blocks))
    report = check_design(design)
    if not (report.ok and report.symmetric):
        raise CertificateError("projective plane failed the design axioms")
    return design


def dualize_design(design: Design) -> Family:
    """Family of v+1 pairwise-independent events on {1..n}, n = r^2/lambda,
    from a 2-(v,k,lambda) design whose parameters admit such an n.

    Point p maps to its column of `_point_columns`, the indices of the
    blocks containing it; the dual events have size r and pairwise intersections lambda, and the
    design identities guarantee b <= n, so they fit inside {1..n}.
    """
    report = check_design(design)
    if not report.ok:
        raise ParameterError(f"not a valid 2-design: {report.first_violation}")
    if design.lam < 1:
        raise ParameterError(
            "dualization needs lambda >= 1 (with lambda=0 the target n = r^2/lambda "
            "is undefined)"
        )
    if design.k < 2:
        raise ParameterError(f"dualization needs block size k >= 2, got k={design.k}")
    r_num = design.lam * (design.v - 1)
    if r_num % (design.k - 1) != 0:
        raise ParameterError(
            f"replication number r = lambda(v-1)/(k-1) = {design.lam}*{design.v - 1}/"
            f"{design.k - 1} is not an integer"
        )
    r = r_num // (design.k - 1)
    if (r * r) % design.lam != 0:
        raise ParameterError(
            f"r^2/lambda = {r}^2/{design.lam} is not an integer; no sample-space size n "
            f"with lambda*n = r^2 exists"
        )
    n = r * r // design.lam
    space = SampleSpace(n)  # raises CapacityError above 63 points
    if design.b > n:
        raise CertificateError("design identities guarantee at most n blocks")
    events = [space.event_from_mask(col) for col in _point_columns(design)]
    events.append(space.omega())
    family = Family(space, tuple(events))
    if any(ev.size != r for ev in family.events[:-1]):
        raise CertificateError(f"a dual event does not have size r={r}")
    if not is_valid_g_family(family):
        raise CertificateError("dual family failed the independence check")
    return family

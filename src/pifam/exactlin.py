"""Exact integer linear algebra certificates for event families.

For a family of events A_1..A_t on {1..n} with incidence matrix B (rows
are sample points, columns are events), pairwise independence holds
exactly when the scaled Gram identity

    n * (B^T B) == u u^T + n*D

holds entrywise, where u_i = |A_i| and n*D_ii = n|A_i| - |A_i|^2.  When
it holds and every event is nonempty, B^T B is positive definite, so B
has full column rank and t = rank(B) <= n.  Everything here is integer
arithmetic; a rank claim never rests on a floating-point tolerance.

B itself is never built: the sizes and the Gram entries are read off the
event bitmasks, and the rank is computed modulo the prime 2^13 - 1 on
packed event rows, with fraction-free (Bareiss) elimination over the
integers as the exact fallback when the modular rank is not full.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Sequence

from .setsys import CertificateError, Family, ParameterError


def rank(matrix: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of an integer matrix, by Bareiss elimination.

    Fraction-free: every intermediate value is an exact minor of the
    input, so divisions are exact and the result is bit-exact.
    """
    rows = [list(row) for row in matrix]
    if any(type(x) is not int for row in rows for x in row):  # not bool, not float
        raise ParameterError("rank needs integer entries")
    m = len(rows)
    if m == 0:
        return 0
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ParameterError("rank needs a rectangular matrix")
    rk = 0
    prev = 1
    for col in range(width):
        if rk == m:
            break
        pivot = next((i for i in range(rk, m) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        lead = rows[rk][col]
        top = rows[rk]
        for i in range(rk + 1, m):
            row = rows[i]
            head = row[col]
            for j in range(col + 1, width):
                quot, rem = divmod(lead * row[j] - head * top[j], prev)
                if rem:
                    raise CertificateError("Bareiss division left a remainder")
                row[j] = quot
            row[col] = 0
        prev = lead
        rk += 1
    return rk


# GF(p) for the Mersenne prime p = 2^13 - 1, one 32-bit field per point: a
# row operation puts at most p + (p - 1)p < 2^32 in a field, so no field
# carries into the next, and two Mersenne folds bring every field back to
# 0..p (a field equal to p stands for 0).
_BITS = 13
_P = (1 << _BITS) - 1
_FIELD = 32
_BYTES01 = bytes.maketrans(b"01", b"\0\1")


def _rank_mod_p(masks: Sequence[int], n: int) -> int:
    """Rank over GF(p) of the 0/1 event rows on n points.

    Each row is one int with the entry of point i in field i.  A row is
    reduced by every pivot row so far, one multiply-add and two folds per
    pivot; what is left nonzero becomes a pivot on its lowest nonzero field.
    """
    step = _FIELD // 8
    ones = ((1 << _FIELD * n) - 1) // ((1 << _FIELD) - 1)  # 1 in every field
    lo, hi = ones * _P, ones * ((1 << _FIELD - _BITS) - 1)
    field = (1 << _FIELD) - 1
    pivots: list[tuple[int, int, int]] = []  # (field shift, 1/lead mod p, row)
    for m in masks:
        buf = bytearray(step * n)
        buf[::step] = format(m, f"0{n}b")[::-1].encode().translate(_BYTES01)
        row = int.from_bytes(buf, "little")
        for shift, inv, top in pivots:
            h = (row >> shift & field) % _P
            if h:
                row += (_P - h) * inv % _P * top
                row = (row & lo) + (row >> _BITS & hi)
                row = (row & lo) + (row >> _BITS & hi)
        row -= ((row + ones) >> _BITS & ones) * _P  # fields equal to p become 0
        if row:
            shift = ((row & -row).bit_length() - 1) // _FIELD * _FIELD
            pivots.append((shift, pow(row >> shift & field, -1, _P), row))
            if len(pivots) == n:
                break
    return len(pivots)


@dataclass(frozen=True)
class GramReport:
    """Exact certificate n*B^T B == u u^T + n*D plus the rank of B."""

    n: int
    t: int
    sizes: tuple[int, ...]        # u_i = |A_i|, the column sums of B
    diag_scaled: tuple[int, ...]  # n*D_ii = n|A_i| - |A_i|^2
    gram_ok: bool
    rank: int
    full_column_rank: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "gram_ok": self.gram_ok,
            "rank": self.rank,
            "t": self.t,
            "n": self.n,
            "full_column_rank": self.full_column_rank,
        }


def gram_certify(family: Family) -> GramReport:
    """Check the scaled Gram identity and compute rank(B), all in integers.

    Requires every event nonempty (the full space is permitted).  A family
    that is not pairwise independent yields gram_ok=False, not an error.

    The rank is first taken over GF(p), p = 2^13 - 1.  A minor that is
    nonzero mod p is nonzero over the integers, so rank_p <= rank <= min(t, n);
    rank_p = min(t, n) is therefore the exact rank.  Otherwise Bareiss
    elimination over the integers decides it, so the rank is always exact.
    """
    if any(ev.is_empty for ev in family):
        raise ParameterError("gram certificates are defined for nonempty events only")
    n, t = family.space.n, len(family)
    masks = family.masks()
    u = [m.bit_count() for m in masks]
    diag = [n * ua - ua * ua for ua in u]
    # the diagonal n|A_a| == u_a^2 + diag_a holds by definition of diag, so
    # only the off-diagonal entries n|A_a & A_b| == u_a u_b carry information
    gram_ok = all(
        n * (masks[a] & masks[b]).bit_count() == u[a] * u[b]
        for a, b in itertools.combinations(range(t), 2)
    )
    rk = _rank_mod_p(masks, n)
    if rk < min(t, n):
        rk = rank([[m >> i & 1 for i in range(n)] for m in masks])
    full = rk == t
    if gram_ok and not full:
        # positive definiteness of B^T B forces full column rank
        raise CertificateError("Gram identity holds but B is column rank deficient")
    return GramReport(n, t, tuple(u), tuple(diag), gram_ok, rk, full)

"""Exact integer linear algebra certificates for event families.

For a family of events A_1..A_t on {1..n} with incidence matrix B (rows
are sample points, columns are events), pairwise independence holds
exactly when the scaled Gram identity

    n * (B^T B) == u u^T + n*D

holds entrywise, where u_i = |A_i| and n*D_ii = n|A_i| - |A_i|^2.  When
it holds and every event is nonempty, B^T B is positive definite, so B
has full column rank and t = rank(B) <= n.  Everything here is integer
arithmetic; a rank claim never rests on a floating-point tolerance.

B itself is never built: the sizes, the Gram entries and the rank are
all read off the event bitmasks.
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
    rows = [list(map(int, row)) for row in matrix]
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
    rk = rank([[m >> i & 1 for i in range(n)] for m in masks])
    full = rk == t
    if gram_ok and not full:
        # positive definiteness of B^T B forces full column rank
        raise CertificateError("Gram identity holds but B is column rank deficient")
    return GramReport(n, t, tuple(u), tuple(diag), gram_ok, rk, full)

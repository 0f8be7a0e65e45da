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
event bitmasks, and the rank is computed on packed event rows modulo the
Mersenne prime 2^13 - 1 and, only when that falls short of min(t, n),
modulo 2^127 - 1 as well, on the n point rows; rank(B) = rank(B^T), and
Hadamard's determinant bound makes the larger of the two the exact rank
(proof in `gram_certify`).  A packed field is wide enough for every
multiply-add a row can take, so each row is folded back to residues once,
after its last one (argument in `_rank_mod_p`).
"""

from __future__ import annotations

from typing import Any, NamedTuple, Sequence

from .setsys import CertificateError, Family, ParameterError, _point_columns, is_valid_g_family


_BYTES01 = bytes.maketrans(b"01", b"\0\1")


def _rank_mod_p(masks: Sequence[int], n: int, bits: int) -> int:
    """Rank over GF(p), p = 2^bits - 1 a Mersenne prime, of the 0/1 rows
    `masks` on n columns, where the rows or the columns number at most 64.

    Each row is one int with the entry of column i in field i.  A row is
    reduced by every pivot row so far, one multiply-add per pivot and no
    fold; what is left nonzero becomes a pivot on its lowest nonzero field.
    A field is 2*bits + 6 bits wide or more: it starts at 0 or 1 and takes
    at most min(rows, n) <= 64 multiply-adds, each adding at most (p - 1)p
    < 2^(2*bits), so it never carries into the next field.  After the last
    one the row is folded, f -> (f mod 2^bits) + (f >> bits) in every field
    at once, until no field is above p; a fold keeps each residue and
    strictly lowers every field of 2^bits or more, so this ends, though for
    small p it can take more than three folds.  Fields equal to p then
    become 0, so a pivot row holds residues 0..p-1.
    """
    p = (1 << bits) - 1
    step = -(-(2 * bits + 6) // 8)
    width = 8 * step
    ones = ((1 << width * n) - 1) // ((1 << width) - 1)  # 1 in every field
    lo, hi = ones * p, ones * ((1 << width - bits) - 1)
    field = (1 << width) - 1
    pivots: list[tuple[int, int, int]] = []  # (field shift, -1/lead mod p, row)
    for m in masks:
        buf = bytearray(step * n)
        buf[::step] = format(m, f"0{n}b")[::-1].encode().translate(_BYTES01)
        row = int.from_bytes(buf, "little")
        for shift, neg, top in pivots:
            h = (row >> shift & field) % p
            if h:
                row += h * neg % p * top
        while row >> bits & hi:
            row = (row & lo) + (row >> bits & hi)
        row -= ((row + ones) >> bits & ones) * p  # fields equal to p become 0
        if row:
            shift = ((row & -row).bit_length() - 1) // width * width
            pivots.append((shift, p - pow(row >> shift & field, -1, p), row))
            if len(pivots) == n:
                break
    return len(pivots)


class GramReport(NamedTuple):
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

    The rank is taken over GF(p) for p = 2^13 - 1 and, when that rank is
    below min(t, n), also for q = 2^127 - 1; the larger is exact:

    - A minor of B that is nonzero mod p is nonzero over the integers, so
      each modular rank is at most rank(B) <= min(t, n).  A modular rank
      equal to min(t, n) is therefore exact.
    - Let r = rank(B) and M a nonsingular r x r submatrix of B.  M is a 0/1
      matrix, so Hadamard's bound gives |det M| <= (r+1)^((r+1)/2) / 2^r,
      and r <= n <= MAX_POINTS = 63, which SampleSpace enforces, makes
      that at most 2^129 < p*q.  p and q are distinct primes, so a nonzero
      det M divisible by both would be a multiple of p*q, which it is
      smaller than.  Hence det M is nonzero mod p or mod q, and one of the
      two modular ranks reaches r.

    The second pass runs on the n point rows, the rows of B, for every t;
    rank(B) = rank(B^T), and the minors are the same up to transpose.
    """
    if any(ev.is_empty for ev in family):
        raise ParameterError("gram certificates are defined for nonempty events only")
    n, t = family.space.n, len(family)
    masks = family.masks()
    u = [m.bit_count() for m in masks]
    diag = [n * ua - ua * ua for ua in u]
    # the diagonal n|A_a| == u_a^2 + diag_a holds by definition of diag; the
    # off-diagonal n|A_a & A_b| == u_a u_b is pairwise independence, which
    # for nonempty events is exactly the g-family check
    gram_ok = is_valid_g_family(family)
    rk = _rank_mod_p(masks, n, 13)
    if rk < min(t, n):
        rk = max(rk, _rank_mod_p(_point_columns(masks, n), t, 127))
    full = rk == t
    if gram_ok and not full:
        # positive definiteness of B^T B forces full column rank
        raise CertificateError("Gram identity holds but B is column rank deficient")
    return GramReport(n, t, tuple(u), tuple(diag), gram_ok, rk, full)

"""Cover coefficients of a monomial list and the valuation bentness test.

For a function given as a list of monomial masks (the full ANF, repeats
allowed), the cover coefficient at a mask u is

    H(u) = sum over subsets T of the list with OR(T) = u of (-2)^|T|,

where OR is componentwise (zero only where every member is zero).  These
coefficients carry the spectrum: W(c) = (-1)^|c| * sum_{u >= c} 2^(n-|u|) H(u)
and conversely H(u) = (-1)^|u| * 2^(|u|-n) * sum_{c >= u} W(c), with >= the
bitmask-superset order.  Bentness is a statement about 2-adic valuations:
f is bent iff v2(H(all-ones)) = n/2 and v2(H(u)) > |u| - n/2 for every other
u, where v2(0) counts as +infinity (passes the strict inequality, fails the
equality).

Two independent routes are provided: `cover_coefficient` and
`all_cover_coefficients` work straight off the monomial list,
`cover_coefficient_from_spectrum` and `all_cover_from_spectrum` go through
the Walsh transform.  They must agree everywhere; tests enforce that.
`bent_by_valuation` uses the monomial route only, so its verdict is
independent of the Walsh test.

One H(u) is the Walsh value at all-ones of f restricted to the support of
u: H(u) = (-1)^|u| * (2^|u| - 2 wt(g)), where g adds x1 + ... + x|u| to the
monomials inside u compressed onto its |u| positions.  `cover_coefficient`
builds g's table with the ANF transform behind `truth_table_from_anf`, at
any list size while |u| <= 22 (the table cap), and past it takes a literal
subset walk capped at 24 monomials; it is the one route choice for a
single H(u).  `all_cover_coefficients` gives every H(u) at once: the
int32 integer Moebius transform of (-1)^f over f's 0/1 table, whose
entries `bent_by_valuation` tests for divisibility, since v2(H) >= k iff
H & (2^k - 1) == 0.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .boolfn import _bit_butterfly, _butterfly, _table_bits
from .errors import CapacityError, InternalInconsistencyError

CAPACITY = 24  # cap on the monomial-list size for `cover_coefficient`'s subset walk
_ARRAY_N_MAX = 20  # coefficient arrays and witness spectrum checks stop here


def two_adic_valuation(x):
    """v2(x): exponent of the largest power of 2 dividing x; inf for 0."""
    if x == 0:
        return math.inf
    x = abs(int(x))
    return (x & -x).bit_length() - 1


@dataclass(frozen=True)
class CoverValue:
    """A cover coefficient together with its 2-adic valuation."""

    value: int
    valuation: object  # int, or math.inf for value 0


@functools.lru_cache(maxsize=4)
def _popcounts(n):
    """|u| for every mask u < 2^n, as a shared read-only uint8 array."""
    pc = np.bitwise_count(np.arange(1 << n, dtype=np.uint32)).astype(np.uint8, copy=False)
    pc.flags.writeable = False
    return pc


def _mobius_sub(lo, hi):
    """One level of the inverse: a[u] <- sum_{v subset u} (-1)^(|u|-|v|) a[v]."""
    np.subtract(hi, lo, out=hi)


def _superset_sums(lo, hi):
    """One level of a[u] <- sum over supersets of u."""
    np.add(lo, hi, out=lo)


def all_cover_coefficients(monomials, n):
    """H(u) for every u as int32, from the monomial list in one transform.

    Uses the exact identity H(u) = sum_{v subset u} (-1)^(|u|-|v|) (-1)^f(v)
    for f the sum of the list, equal to the literal subset sum term by term.
    Repeats cancel in pairs; masks outside [0, 2^n) raise ValueError.  Cost
    is O(n 2^n) at any list size.  f's 0/1 table comes from the ANF transform
    behind `truth_table_from_anf`; the integer Moebius transform reads its
    four lowest levels as int8 from 16-bit pattern tables and runs the rest
    in int32, exact since every partial sum is bounded by 2^n <= 2^20 (`_ARRAY_N_MAX`).
    """
    if n > _ARRAY_N_MAX:
        raise CapacityError(f"full coefficient array needs n <= {_ARRAY_N_MAX}")
    return _bit_butterfly(_table_bits(monomials, n), _mobius_sub)


def _walk(sub, u):
    """Literal pruned subset walk used when u has too many bits for a table."""
    suffix = [0] * (len(sub) + 1)
    for i in range(len(sub) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | sub[i]

    def rec(i, cur):
        if cur | suffix[i] != u:
            return 0
        if i == len(sub):
            return 1  # cur == u guaranteed by the check above
        return rec(i + 1, cur) - 2 * rec(i + 1, cur | sub[i])

    return rec(0, 0)


def cover_coefficient(monomials, u):
    """H(u) for one u from the monomial list; the one single-mask route choice.

    The monomials inside u are compressed onto its w = |u| set positions, and
    H(u) = (-1)^w * (2^w - 2 wt) with wt the weight of the table of that list
    plus x1 ... xw, at any list size.  Past the table cap (w > 22, refused
    before the table is allocated) the literal subset walk takes over, and
    it refuses lists of more than `CAPACITY` (24) monomials.  A negative u or
    monomial mask raises ValueError.
    """
    monos = list(monomials)
    if (low := min([u, *monos])) < 0:  # else dropped from `inside`, or a KeyError
        raise ValueError(f"mask {low} out of range: masks are nonnegative")
    inside = [m for m in monos if m & ~u == 0]
    pos = [j for j in range(u.bit_length()) if (u >> j) & 1]
    place = {p: i for i, p in enumerate(pos)}
    w = len(pos)
    compressed = [
        sum(1 << place[j] for j in range(m.bit_length()) if (m >> j) & 1) for m in inside
    ]
    try:
        bits = _table_bits(compressed + [1 << i for i in range(w)], w)
    except CapacityError as table:
        if len(monos) > CAPACITY:
            raise CapacityError(
                f"H(u) at |u| = {w}: {table}; the subset walk takes at most "
                f"{CAPACITY} monomials, got {len(monos)}"
            ) from None
        val = _walk(inside, u)
    else:
        val = (1 << w) - 2 * int(np.count_nonzero(bits))
        val = -val if w % 2 else val
    return CoverValue(val, two_adic_valuation(val))


def cover_coefficient_from_spectrum(spectrum, u):
    """H(u) recovered from the Walsh spectrum; the 2-power must divide exactly."""
    n = spectrum.n
    if not 0 <= u < 1 << n:
        raise ValueError(f"mask {u} out of range for n={n}")
    idx = np.array([u], dtype=np.int64)
    for j in range(n):  # double the index set by every bit outside u
        if not (u >> j) & 1:
            idx = np.concatenate((idx, idx | (1 << j)))
    s = int(spectrum.values[idx].sum())  # the 2^(n-|u|) supersets of u
    w = u.bit_count()
    q, r = divmod(s, 1 << (n - w))
    if r:
        raise InternalInconsistencyError(
            f"superset sum {s} not divisible by 2^{n - w}; spectrum is not a "
            "valid transform"
        )
    val = -q if w % 2 else q
    return CoverValue(val, two_adic_valuation(val))


def all_cover_from_spectrum(spectrum):
    """H(u) for every u via the spectrum route, exact."""
    n = spectrum.n
    s = _butterfly(spectrum.values.astype(np.int64), _superset_sums)
    pc = _popcounts(n)
    shift = n - pc  # uint8, promoted to int64 by the shifts
    q = s >> shift
    if np.any(q << shift != s):
        raise InternalInconsistencyError("spectrum superset sums fail 2-power division")
    return np.where(pc & 1, -q, q)


def bent_by_valuation(anf):
    """Bentness via the valuation criterion on the cover coefficients.

    The coefficients come from the monomial list (the int32
    `all_cover_coefficients`, n <= 20), never from the Walsh spectrum.  The
    criterion v2(H(u)) > |u| - n/2 reads as divisibility by 2^k with
    k = |u| - n/2 + 1, clipped at 0: one int32 mask 2^k - 1 per weight,
    picked through the popcount array, and H & mask must vanish.  The
    all-ones entry needs v2 exactly n/2 and is checked on its own.
    """
    n = anf.n
    if n % 2:
        raise ValueError("the valuation criterion needs an even number of variables")
    harr = all_cover_coefficients(anf.monomials, n)
    full = (1 << n) - 1
    if two_adic_valuation(int(harr[full])) != n // 2:
        return False
    k = np.maximum(np.arange(n + 1) - n // 2 + 1, 0)
    bad = ((1 << k) - 1).astype(np.int32)[_popcounts(n)]
    bad &= harr
    bad[full] = 0
    return not bool(bad.any())

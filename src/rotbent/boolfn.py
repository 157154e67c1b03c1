"""Boolean functions as truth tables and algebraic normal forms.

Index convention, used everywhere in this package: the input vector
(x1, ..., xn) maps to the table index i = sum_j x_j * 2**(j-1), so x1 is the
least significant bit of the index.  A monomial prod_{j in S} x_j is encoded
as the int mask with bit j-1 set for each j in S; the same convention makes
"monomial m divides index i" simply (i & m) == m.

Truth tables are numpy uint8 arrays of 0/1 values.  All public objects are
immutable after construction and safe to share across threads.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError

N_MAX = 30  # construction cap; tables beyond this are not materializable anyway
_TABLE_N_MAX = 22  # full 2^n tables (truth tables, spectra, search orbit tables) stop here


def _as_table_bits(n, bits):
    a = np.asarray(bits, dtype=np.uint8)
    if a.ndim != 1 or a.size != 1 << n:
        raise ValueError(f"truth table for n={n} needs exactly {1 << n} entries")
    if a.max(initial=0) > 1:
        raise ValueError("truth table entries must be 0 or 1")
    a = a.copy()
    a.flags.writeable = False
    return a


def _check_n(n):
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= N_MAX:
        raise ValueError(f"n must be an int in [1, {N_MAX}], got {n!r}")


def _check_table_n(n):
    """Refuse a full 2^n table past the cap, before allocating it."""
    if n > _TABLE_N_MAX:
        raise CapacityError(f"full 2^n tables are limited to n <= {_TABLE_N_MAX}, got n={n}")


@dataclass(frozen=True, eq=False)
class TruthTable:
    """Value table of a Boolean function on n variables."""

    n: int
    bits: np.ndarray

    def __post_init__(self):
        _check_n(self.n)
        _check_table_n(self.n)  # before the caller's bits are read or copied
        object.__setattr__(self, "bits", _as_table_bits(self.n, self.bits))

    @property
    def weight(self):
        """Number of inputs mapped to 1."""
        return int(self.bits.sum())

    def __eq__(self, other):
        if not isinstance(other, TruthTable):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.bits, other.bits))

    def __repr__(self):
        return f"TruthTable(n={self.n}, weight={self.weight})"


@dataclass(frozen=True)
class AnfForm:
    """Algebraic normal form: the set of monomial masks with coefficient 1."""

    n: int
    monomials: frozenset

    def __post_init__(self):
        _check_n(self.n)
        monos = frozenset(map(int, self.monomials))
        if monos and not (0 <= min(monos) and max(monos) < 1 << self.n):
            bad = next(m for m in monos if not 0 <= m < 1 << self.n)
            raise ValueError(f"monomial mask {bad} out of range for n={self.n}")
        object.__setattr__(self, "monomials", monos)


# Levels with h <= this run one step call per offset j in the block.  A
# (blocks, h) view gives numpy inner loops only h long; one strided 1-D view
# per offset is a single long loop.  Transforms of 0/1 inputs read h = 1-8
# from `_pattern_table`, so only the int64 superset sums, the XOR levels on
# packed words, rows under 16 entries and the pattern tables' own build
# still reach this loop.  Per level (2-core host, best of 21), one call
# against the offset loop, in ms: int64 superset sums on one 1 MiB block,
# h = 2 0.47 / 0.05, h = 8 0.16 / 0.12, h = 16 0.11 / 0.15; uint16 XOR words
# at n = 20, h = 2 0.22 / 0.02, h = 8 0.06 / 0.03, h = 16 0.03 / 0.06.  Above 8
# the h passes over the array cost more than the short inner loops save.
# The loop also needs strided views of at least 64 h entries (blocks, the
# array's size over 2h): on shorter ones the h calls cost more than the
# short loops.  Per level, one call against the offset loop, in us: uint16
# words, h = 2, 16 blocks 3.3 / 3.6, 64 blocks 4.2 / 3.6; h = 8, 256 blocks
# 7.9 / 13.0, 1024 blocks 21.8 / 17.8.  A 64-word row (a 2^10-entry XOR
# transform) then takes 6 step calls instead of 17.
_OFFSET_LOOP_MAX = 8

# Rows larger than this run their low levels block by block (blocks of this
# size, about half of a 2 MiB L2).  Whole transforms at n = 20 (2-core host,
# best of 9, two runs), unblocked / 1 MiB / 512 KiB blocks, in ms: int32
# signed from a 0/1 table 13.6-16.4 / 10.1-10.7 / 11.3-12.5, int32 Moebius
# 6.1-7.1 / 4.5-4.8 / 5.5-6.3, int64 superset sums 18.2 / 11.0-11.8 /
# 13.3-14.9; n = 18 int64 superset sums 3.8 / 2.4-3.1 / 3.0-3.2.
_BLOCK_BYTES = 1 << 20


def _butterfly(a, step, start=1):
    """Run a fast transform in place along the 2^n-long last axis of an array.

    The array is contiguous.  At level h = start, 2 start, ... (start a power
    of 2; the levels below it are taken as done) it is seen as blocks of
    2h entries, and step(lo, hi) gets the (blocks, h) views of every block's
    halves and must update them in place.  At the low levels (h up to
    `_OFFSET_LOOP_MAX`, with at least 64 h blocks) it is called once per
    offset j < h on the strided (blocks,) views of entry j of each half
    instead.  Returns a.  Every
    transform in this package is one such step: XOR (Moebius over GF(2)),
    subtract (Moebius over the integers), add (superset sums) and the signed
    Walsh pair.

    When a row is larger than `_BLOCK_BYTES`, the levels below the block
    size run block by block, so each block stays in cache through all of
    them, and only the levels above it pass over the whole array.
    """
    size = a.shape[-1]
    span = min(size, 1 << (_BLOCK_BYTES // a.itemsize).bit_length() - 1)
    if start < span < size:
        passes = [(block, start, span) for block in a.reshape(-1, span)] + [(a, span, size)]
    else:
        passes = [(a, start, size)]
    for view, h, stop in passes:
        while h < stop:
            v = view.reshape(-1, 2, h)
            if h <= _OFFSET_LOOP_MAX and len(v) >= 64 * h:
                for j in range(h):
                    step(v[:, 0, j], v[:, 1, j])
            else:
                step(v[:, 0], v[:, 1])
            h *= 2
    return a


def _xor_step(lo, hi):
    np.bitwise_xor(hi, lo, out=hi)


@functools.lru_cache(maxsize=None)  # one per step: three in the package
def _pattern_table(step):
    """The four lowest levels of a transform on every 16-entry 0/1 block.

    Row p is the block whose entry j is bit j of p, transformed by
    `_butterfly`.  For `_xor_step` the row is packed back into one uint16
    (128 KiB in all); any other step transforms (-1)^bits, whose values lie
    in [-16, 16], so the table is int8 (1 MiB).  Read-only.
    """
    # flat bit order: packing row by row along axis 1 is 50x slower
    pats = np.arange(1 << 16, dtype="<u2").view(np.uint8)
    pats = np.unpackbits(pats, bitorder="little").reshape(1 << 16, 16)
    if step is _xor_step:
        table = np.packbits(_butterfly(pats, step), bitorder="little").view("<u2")
    else:  # (-1)^bits in place: no 1 MiB temporaries left to the allocator
        table = pats.view(np.int8)
        table *= -2
        table += 1
        _butterfly(table, step)
    table.flags.writeable = False
    return table


def _bit_butterfly(bits, step):
    """`_butterfly` of a 0/1 uint8 array, returned as a new array.

    `_xor_step` transforms the bits themselves and gives uint8 0/1; any
    other step transforms (-1)^bits and gives int32.  Each 16-entry block
    is packed into one uint16 pattern and its first four levels (h = 1, 2,
    4, 8) are read from `_pattern_table`.  The GF(2) transform then runs its
    upper levels on the packed words, since XOR on a word is XOR on each of
    its bits; the others widen to int32 and go on from h = 16.  Rows of
    fewer than 16 entries take `_butterfly` alone.
    """
    if bits.shape[-1] < 16:
        if step is _xor_step:
            return _butterfly(bits.copy(), step)
        return _butterfly(1 - 2 * bits.astype(np.int32), step)
    words = np.packbits(bits, axis=-1, bitorder="little").view("<u2")
    low = np.take(_pattern_table(step), words, axis=0)  # 1/6 the time of table[words]
    if step is _xor_step:
        low = _butterfly(low, step)
        return np.unpackbits(low.view(np.uint8), axis=-1, bitorder="little")
    out = low.reshape(bits.shape).astype(np.int32)
    del low  # freed before the upper levels run
    return _butterfly(out, step, 16)


def _table_bits(monomials, n):
    """0/1 table of a monomial list's sum: the one ANF -> table transform."""
    _check_table_n(n)
    try:
        masks = np.fromiter(monomials, dtype=np.intp)
    except OverflowError:
        raise ValueError(f"monomial mask out of range for n={n}") from None
    if masks.size and not (0 <= masks.min() and masks.max() < 1 << n):
        bad = masks[(masks < 0) | (masks >= 1 << n)]
        raise ValueError(f"monomial mask {bad[0]} out of range for n={n}")
    ind = np.zeros(1 << n, dtype=np.uint8)
    np.add.at(ind, masks, np.uint8(1))  # a Python 1 takes a 40x slower casting path
    ind &= 1  # repeats cancel in pairs: the uint8 count wraps with its parity kept
    return _bit_butterfly(ind, _xor_step)


def anf_from_truth_table(tt):
    """Moebius transform of the table: monomials with coefficient 1."""
    coeffs = _bit_butterfly(tt.bits, _xor_step)
    return AnfForm(tt.n, frozenset(np.flatnonzero(coeffs).tolist()))


def truth_table_from_anf(anf):
    """Evaluate an ANF on all inputs."""
    return TruthTable(anf.n, _table_bits(anf.monomials, anf.n))


def algebraic_degree(anf):
    """Largest monomial weight, or None for the zero function."""
    if not anf.monomials:
        return None
    return max(m.bit_count() for m in anf.monomials)

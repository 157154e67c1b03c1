"""Boolean functions as truth tables and algebraic normal forms.

Index convention, used everywhere in this package: the input vector
(x1, ..., xn) maps to the table index i = sum_j x_j * 2**(j-1), so x1 is the
least significant bit of the index.  A monomial prod_{j in S} x_j is encoded
as the int mask with bit j-1 set for each j in S; the same convention makes
"monomial m divides index i" simply (i & m) == m.

Truth tables are numpy uint8 arrays of 0/1 values.  All public objects are
immutable after construction and safe to share across threads.
"""

from dataclasses import dataclass

import numpy as np

N_MAX = 30  # construction cap; tables beyond this are not materializable anyway


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
    if not isinstance(n, int) or not 1 <= n <= N_MAX:
        raise ValueError(f"n must be an int in [1, {N_MAX}], got {n!r}")


@dataclass(frozen=True, eq=False)
class TruthTable:
    """Value table of a Boolean function on n variables."""

    n: int
    bits: np.ndarray

    def __post_init__(self):
        _check_n(self.n)
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
        monos = frozenset(int(m) for m in self.monomials)
        for m in monos:
            if not 0 <= m < 1 << self.n:
                raise ValueError(f"monomial mask {m} out of range for n={self.n}")
        object.__setattr__(self, "monomials", monos)


# Levels with h <= this run one step call per offset j in the block.  A
# (blocks, h) view gives numpy inner loops only h long; one strided 1-D view
# per offset is a single long loop.  Per level at n = 20 (2-core host), one
# call against the offset loop, in ms: h = 2 u8 XOR 7.3 / 0.5, int32 signed
# 13.7 / 1.9; h = 8 u8 XOR 1.7 / 0.6, int32 signed 3.8 / 5.0; h = 16 u8 XOR
# 0.9 / 0.6, int32 signed 2.3 / 9.6.  At n = 16-18 the loop still wins at
# h = 8 for every step.  Above 8 the h passes over the array cost more than
# the short inner loops save.
_OFFSET_LOOP_MAX = 8

# Rows larger than this run their low levels block by block (blocks of this
# size, about half of a 2 MiB L2).  Whole transforms at n = 20 (2-core host),
# unblocked against 1 MiB blocks, in ms: int32 signed 22 / 13.5-15, int32
# Moebius 8.2 / 5.4-5.6, int64 superset sums 15-17 / 10-11; n = 18 int64
# superset sums 2.7 / 2.2-2.4.  256 and 512 KiB blocks were no faster for the
# signed step and slower for the other two.  uint8 tables at n = 20 fill
# exactly 1 MiB and stay unblocked: 512 KiB blocks did not speed up XOR or zeta.
_BLOCK_BYTES = 1 << 20


def _butterfly(a, step):
    """Run a fast transform in place along the 2^n-long last axis of an array.

    The array is contiguous.  At level h = 1, 2, 4, ... it is seen as blocks of
    2h entries, and step(lo, hi) gets the (blocks, h) views of every block's
    halves and must update them in place.  At the low levels (h up to
    `_OFFSET_LOOP_MAX`) it is called once per offset j < h on the strided
    (blocks,) views of entry j of each half instead.  Returns a.  Every
    transform in this package is one such step: XOR (Moebius over GF(2)),
    add/subtract (zeta/Moebius over the integers), and the signed Walsh pair.

    When a row is larger than `_BLOCK_BYTES`, the levels below the block
    size run block by block, so each block stays in cache through all of
    them, and only the levels above it pass over the whole array.
    """
    size = a.shape[-1]
    span = min(size, 1 << (_BLOCK_BYTES // a.itemsize).bit_length() - 1)
    if span < size:
        passes = [(block, 1, span) for block in a.reshape(-1, span)] + [(a, span, size)]
    else:
        passes = [(a, 1, size)]
    for view, h, stop in passes:
        while h < stop:
            v = view.reshape(-1, 2, h)
            if h <= _OFFSET_LOOP_MAX:
                for j in range(h):
                    step(v[:, 0, j], v[:, 1, j])
            else:
                step(v[:, 0], v[:, 1])
            h *= 2
    return a


def _xor_step(lo, hi):
    np.bitwise_xor(hi, lo, out=hi)


def anf_from_truth_table(tt):
    """Moebius transform of the table: monomials with coefficient 1."""
    coeffs = _butterfly(tt.bits.copy(), _xor_step)
    return AnfForm(tt.n, frozenset(int(i) for i in np.flatnonzero(coeffs)))


def truth_table_from_anf(anf):
    """Evaluate an ANF on all inputs via the same butterfly (involution)."""
    ind = np.zeros(1 << anf.n, dtype=np.uint8)
    for m in anf.monomials:
        ind[m] = 1
    return TruthTable(anf.n, _butterfly(ind, _xor_step))


def algebraic_degree(anf):
    """Largest monomial weight, or None for the zero function."""
    if not anf.monomials:
        return None
    return max(m.bit_count() for m in anf.monomials)

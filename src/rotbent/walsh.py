"""Walsh spectra and bentness tests, in exact integer arithmetic.

The spectrum entry at c is W(c) = sum_x (-1)^(f(x) + <c,x>) with <c,x> the
inner product over GF(2).  A function on an even number n of variables is
bent exactly when |W(c)| = 2^(n/2) for every c.  The spectrum is the
standard fast transform of (-1)^f (the shared butterfly with a signed step),
run straight from the 0/1 table: no sign vector is built, the four lowest
levels of each 16-entry block are read as int8 from a table of all 2^16 bit
patterns, and the levels above run in int32.  No floating point is involved
anywhere: every partial sum is bounded by 2^n <= 2^30 (`N_MAX`), so int32 is
exact, and the spectrum is returned as int64.
"""

from dataclasses import dataclass

import numpy as np

from .boolfn import _bit_butterfly, _check_n


@dataclass(frozen=True, eq=False)
class WalshSpectrum:
    """All 2^n spectrum values of a Boolean function, exact int64."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        _check_n(self.n)
        # Always a private int64 copy.  Storing the int32 butterfly output
        # instead saves about 3 MiB peak RSS on CLI queries at n = 16-20, but
        # made later calls about 10% slower on a 2-core x86 host: freeing
        # this 8 MiB copy raises glibc's dynamic mmap threshold, so later
        # arrays up to that size reuse heap pages instead of fresh mmaps.
        # With MALLOC_MMAP_THRESHOLD_ fixed, both layouts run equally fast.
        v = np.array(self.values, dtype=np.int64)
        if v.ndim != 1 or v.size != 1 << self.n:
            raise ValueError(f"spectrum for n={self.n} needs {1 << self.n} values")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __eq__(self, other):
        if not isinstance(other, WalshSpectrum):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.values, other.values))


def _signed_step(lo, hi):
    """(lo, hi) <- (lo + hi, lo - hi)."""
    t = lo.copy()
    lo += hi
    np.subtract(t, hi, out=hi)


def walsh_spectrum(tt):
    """Fast transform of (-1)^f straight from the 0/1 table, in int32 (|W(c)| <= 2^n)."""
    return WalshSpectrum(tt.n, _bit_butterfly(tt.bits, _signed_step))


def is_bent(tt):
    """Full-spectrum bentness test; False outright for odd n."""
    if tt.n % 2:
        return False
    target = 1 << (tt.n // 2)
    values = walsh_spectrum(tt).values
    return bool(np.all((values == target) | (values == -target)))  # no int64 |W| copy

"""Rotation symmetry: variable rotation orbits and the short ANF (SANF).

The rotation rho sends the value at position p to position p+1 (mod n,
positions 1-based), which on monomial masks is a left rotate within n bits.
A rotation-symmetric function is invariant under rho, so its ANF is a union
of whole monomial orbits; the SANF keeps one canonical representative per
orbit.  The canonical representative is the rotation whose position string
u1 u2 ... un is lexicographically largest, i.e. ones pushed earliest; it
always has a 1 in position 1.

`canonical_rep` and `positions` are memoised in bounded LRU caches: SANF
validation, parsing and formatting meet the same few masks over and over.
A refusal is never cached, and `positions` keys its memo by type (3.0 must
not find the entry of 3), so bad input raises on every call.
`enumerate_orbit_reps` does not fill that memo: it takes a layer's masks with
position 1 as one numpy array and keeps each one's largest rotation.
"""

import functools
import math
import operator
import re
from dataclasses import dataclass
from itertools import combinations, repeat

import numpy as np

from .boolfn import AnfForm, _check_mask, _check_n, truth_table_from_anf
from .errors import InternalInconsistencyError


def rotate(u, l, n):
    """Rotate the monomial mask u by l positions (position p -> p+l mod n)."""
    u = _check_mask(u, n)
    l %= n
    return ((u << l) | (u >> (n - l))) & ((1 << n) - 1)


def _rev(u, n):
    """Mask read as the position string u1 u2 ... un, as an integer key."""
    return int(format(u, f"0{n}b")[::-1], 2)


def orbit_masks(u, n):
    """All distinct rotations of u, in rotation order starting from u."""
    return list(dict.fromkeys(_rotations(_check_mask(u, n), n)))


def _rotations(a, n):
    """Yield mask `a` (an int or an int array) rotated by l = 0, 1, ..., n - 1."""
    full = (1 << n) - 1
    for l in range(n):
        yield ((a << l) | (a >> (n - l))) & full


@functools.lru_cache(maxsize=1 << 14)
def _canonical_rep(u, n):  # position strings compare as reversed masks
    return _rev(max(_rotations(_rev(u, n), n)), n)


def canonical_rep(u, n):
    """Canonical orbit representative (lexicographically largest position string)."""
    return _canonical_rep(_check_mask(u, n, low=1), n)


def cyclic_run_count(u, n):
    """Number of maximal cyclic runs of ones in the mask."""
    if u == (1 << n) - 1:
        return 1
    starts = u & ~rotate(u, 1, n)
    return starts.bit_count()


def enumerate_orbit_reps(n, w):
    """Canonical representatives of all weight-w orbits, sorted by position tuple."""
    count = orbit_count(n, w)  # validates n and w
    # every orbit has a member with position 1, the top bit of its reversed mask
    rest = map(sum, combinations([1 << p for p in range(n - 1)], w - 1))
    rev = (1 << (n - 1)) | np.fromiter(rest, np.int64)
    keys = set(functools.reduce(np.maximum, _rotations(rev, n)).tolist())
    if len(keys) != count:
        raise InternalInconsistencyError(f"{len(keys)} weight-{w} orbits, Burnside says {count}")
    # at a fixed weight, a larger reversed mask is an earlier position tuple
    return [_rev(k, n) for k in sorted(keys, reverse=True)]


@functools.lru_cache(maxsize=1 << 14, typed=True)
def positions(u):
    """1-based variable indices of a monomial mask, ascending."""
    if (u := operator.index(u)) < 0:
        raise ValueError(f"mask {u} out of range: masks are nonnegative")
    return tuple(j + 1 for j in range(u.bit_length()) if (u >> j) & 1)


def mask_from_positions(pos, n):
    m = 0
    for p in pos:
        if not 1 <= p <= n:
            raise ValueError(f"variable index {p} out of range for n={n}")
        m |= 1 << (p - 1)
    return m


@dataclass(frozen=True)
class Sanf:
    """Short ANF: one canonical representative per monomial rotation orbit."""

    n: int
    reps: tuple

    def __post_init__(self):
        _check_n(self.n)
        reps = tuple(map(operator.index, self.reps))
        if not reps:
            raise ValueError("a SANF needs at least one representative")
        seen = set()
        for r in reps:
            if not 0 < r < 1 << self.n:
                raise ValueError(f"representative {r} out of range for n={self.n}")
            if r != _canonical_rep(r, self.n):  # n and r checked just above
                raise ValueError(f"representative {format_monomial(r)} is not canonical")
            if r in seen:
                raise ValueError(f"two monomials share the orbit of {format_monomial(r)}")
            seen.add(r)
        object.__setattr__(self, "reps", reps)

    @property
    def homogeneous_degree(self):
        """Common monomial weight, or None when the reps mix degrees."""
        degs = {r.bit_count() for r in self.reps}
        return degs.pop() if len(degs) == 1 else None

    def __str__(self):
        return format_sanf(self)


def sanf_from_masks(masks, n):
    """Build a Sanf from arbitrary monomial masks, canonicalizing each."""
    return Sanf(n, tuple(canonical_rep(m, n) for m in masks))


def orbit_expand(sanf):
    """Full ANF of the rotation-symmetric function the SANF describes."""
    n, full = sanf.n, (1 << sanf.n) - 1
    if not (0 <= min(sanf.reps) and max(sanf.reps) <= full):
        _check_mask(next(r for r in sanf.reps if not 0 <= r <= full), n)  # raises
    monos = []
    for r in sanf.reps:  # rotate by one until r comes back: each distinct rotation once
        m = r
        while True:
            monos.append(m)
            m = (m << 1 | m >> (n - 1)) & full
            if m == r:
                break
    anf = AnfForm(n, monos)
    assert len(anf.monomials) == len(monos)  # the orbits are disjoint
    return anf


def sanf_truth_table(sanf):
    """Truth table of the expanded SANF."""
    return truth_table_from_anf(orbit_expand(sanf))


def is_rotation_symmetric(tt):
    """True when the table is invariant under rotating the input variables."""
    # rotating by one sends x < 2^(n-1) to 2x and every other x to 2x + 1 - 2^n
    return bool(np.array_equal(tt.bits, np.concatenate((tt.bits[0::2], tt.bits[1::2]))))


_MONO_RE = re.compile(r"^(?:x(\d+))+$")
_TOKEN_RE = re.compile(r"x(\d+)")


def parse_sanf(text, n):
    """Parse SANF text: '+'-joined monomials 'x<i>x<j>...', whitespace ignored.

    Indices are 1-based and must be strictly increasing inside a monomial.
    Monomials are canonicalized to orbit representatives; two monomials from
    the same orbit are rejected (they would cancel over GF(2)).
    """
    compact = "".join(text.split())
    if not compact:
        raise ValueError("empty SANF")
    masks = []
    for part in compact.split("+"):
        if not part or not _MONO_RE.match(part):
            raise ValueError(f"bad monomial {part!r}; expected e.g. x1x3x5")
        idxs = [int(t) for t in _TOKEN_RE.findall(part)]
        if any(b <= a for a, b in zip(idxs, idxs[1:])):
            raise ValueError(f"indices must be strictly increasing in {part!r}")
        masks.append(mask_from_positions(idxs, n))
    return sanf_from_masks(masks, n)


def format_monomial(u):
    return "".join(f"x{p}" for p in positions(u))


def format_sanf(sanf):
    return "+".join(format_monomial(r) for r in sanf.reps)


def mask_to_bits(u, n):
    """Render a mask as the 0/1 position string u1 u2 ... un."""
    u = _check_mask(u, n)
    return "".join(str((u >> j) & 1) for j in range(n))


def bits_to_mask(text, n):
    """Parse a 0/1 position string (position 1 first) back to a mask."""
    if len(text) != n or set(text) - {"0", "1"}:
        raise ValueError(f"expected {n} characters of 0/1, got {text!r}")
    return sum(1 << j for j, ch in enumerate(text) if ch == "1")


def orbit_count(n, w):
    """Number of weight-w orbits (binary necklaces), by Burnside's lemma:
    rotation by l fixes C(g, w g / n) weight-w masks, g = gcd(l, n).  No mask
    is built, so a layer is sized before it is enumerated."""
    _check_n(n)
    if not 0 < w <= n:
        raise ValueError(f"weight must be in [1, {n}], got {w}")
    # n | w g holds exactly when q = n / gcd(n, w) divides g, that is, divides l
    q = n // math.gcd(n, w)
    return sum(math.comb(g, w * g // n) for g in map(math.gcd, range(0, n, q), repeat(n))) // n

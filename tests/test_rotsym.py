"""Rotation orbits, necklace counting, and the SANF grammar."""

import math
import random
import re
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest

from rotbent import (
    AnfForm,
    InternalInconsistencyError,
    Sanf,
    anf_from_truth_table,
    canonical_rep,
    enumerate_orbit_reps,
    format_monomial,
    format_sanf,
    mask_to_bits,
    orbit_count,
    orbit_expand,
    orbit_masks,
    parse_sanf,
    rotsym,
    sanf_truth_table,
    truth_table_from_anf,
)
from rotbent.boolfn import TruthTable
from rotbent.rotsym import (
    _rev,
    bits_to_mask,
    cyclic_run_count,
    is_rotation_symmetric,
    mask_from_positions,
    positions,
    rotate,
    sanf_from_masks,
)


def necklaces_burnside(n, w):
    # Burnside over the cyclic group: (1/n) sum over d | gcd(n, w) of
    # phi(d) * C(n/d, w/d).
    total = 0
    for d in range(1, n + 1):
        if n % d or w % d:
            continue
        phi = sum(1 for j in range(1, d + 1) if math.gcd(j, d) == 1)
        total += phi * math.comb(n // d, w // d)
    return total // n


def test_orbit_count_matches_burnside():
    for n in range(1, 15):
        for w in range(1, n + 1):
            assert orbit_count(n, w) == necklaces_burnside(n, w), (n, w)


def test_orbit_counts_frozen():
    assert orbit_count(6, 3) == 4
    assert orbit_count(8, 3) == 7
    assert orbit_count(10, 3) == 12
    assert orbit_count(10, 4) == 22
    assert orbit_count(10, 5) == 26


def test_enumeration_that_misses_the_burnside_count_is_an_inconsistency(monkeypatch):
    monkeypatch.setattr(rotsym, "orbit_count", lambda n, w: 23)
    with pytest.raises(InternalInconsistencyError, match="22 weight-4 orbits, Burnside says 23"):
        enumerate_orbit_reps(10, 4)


def test_each_enumeration_is_a_fresh_list():
    first = enumerate_orbit_reps(10, 4)
    want = list(first)
    first[0] = 0
    first.append(1)
    second = enumerate_orbit_reps(10, 4)
    assert second == want and second is not first
    second.clear()
    assert enumerate_orbit_reps(10, 4) == want


def test_enumeration_validates_on_every_call():
    assert enumerate_orbit_reps(10, 4) == enumerate_orbit_reps(10, 4)
    for n, w in ((10, 0), (10, 11), (10, -4), (0, 1), (31, 4), ("10", 4), (10.0, 4)):
        for _ in range(2):  # a refusal is never cached
            with pytest.raises(ValueError):
                enumerate_orbit_reps(n, w)


def test_enumerate_orbit_reps():
    for n in range(2, 13):
        for w in range(1, n + 1):
            reps = enumerate_orbit_reps(n, w)
            assert len(reps) == orbit_count(n, w)
            seen = set()
            for r in reps:
                assert r.bit_count() == w
                assert canonical_rep(r, n) == r
                assert r & 1  # canonical representatives use position 1
                orbit = set(orbit_masks(r, n))
                assert not orbit & seen
                seen |= orbit


def test_enumeration_matches_the_scalar_route():
    # the numpy enumeration against canonical_rep on every mask of the layer,
    # as an exact list: same representatives in the same order
    cases = [(n, w) for n in range(1, 15) for w in range(1, n + 1)]
    cases += [(n, w) for n in range(16, 21) for w in range(1, 5)]
    for n, w in cases:
        masks = (sum(1 << p for p in pos) for pos in combinations(range(n), w))
        want = sorted({canonical_rep(m, n) for m in masks}, key=positions)
        assert enumerate_orbit_reps(n, w) == want, (n, w)


def test_rotate():
    assert rotate(0b0011, 1, 4) == 0b0110
    assert rotate(0b1001, 1, 4) == 0b0011  # top bit wraps to position 1
    assert rotate(0b0011, 3, 4) == 0b1001
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 16)
        u = rng.randrange(1 << n)
        s = rng.randrange(2 * n)
        v = rotate(u, s, n)
        assert v.bit_count() == u.bit_count()
        assert rotate(v, n - s % n, n) == u


def test_canonical_rep():
    # The orbit of 0b0011 on four variables is {3, 6, 12, 9}.
    assert set(orbit_masks(3, 4)) == {3, 6, 12, 9}
    for u in (3, 6, 12, 9):
        assert canonical_rep(u, 4) == 3
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 14)
        u = rng.randrange(1, 1 << n)
        c = canonical_rep(u, n)
        assert c in set(orbit_masks(u, n))
        assert c & 1
        for s in range(n):
            assert canonical_rep(rotate(u, s, n), n) == c


def test_canonical_rep_matches_the_orbit_definition():
    # The definition: the rotation whose position string is largest.
    for n in range(1, 13):
        for u in range(1, 1 << n):
            want = max(orbit_masks(u, n), key=lambda v: _rev(v, n))
            assert canonical_rep(u, n) == want, (u, n)
    for bad in (0, 1 << 5, -1):
        with pytest.raises(ValueError):
            canonical_rep(bad, 5)


def test_memoised_functions_still_validate_on_a_warm_cache():
    n = 6
    for u in range(1, 1 << n):
        canonical_rep(u, n)
        format_monomial(u)
    for bad in (0, 1 << n, -1, 0):  # 0 twice: a refusal is never cached
        with pytest.raises(ValueError):
            canonical_rep(bad, n)
    for bad_n in (0, 31, "6", 6.0):
        with pytest.raises(ValueError):
            canonical_rep(3, bad_n)
    with pytest.raises(ValueError, match="not canonical"):
        Sanf(n, (0b110,))  # x2x3 belongs to the orbit of x1x2
    with pytest.raises(ValueError, match="share the orbit"):
        parse_sanf("x1x2+x2x3", n)
    assert canonical_rep(0b110, n) == 0b11
    assert format_monomial(0b110) == "x2x3"


def test_every_rotsym_cache_is_bounded():
    caches = {
        name: fn.cache_info()
        for name, fn in vars(rotsym).items()
        if callable(getattr(fn, "cache_info", None))
    }
    assert set(caches) == {"_canonical_rep", "positions"}  # a search layer is held in `search`
    assert all(info.maxsize is not None for info in caches.values())
    # a layer's enumeration would fill the memo with non-canonical masks
    rotsym._canonical_rep.cache_clear()
    enumerate_orbit_reps(10, 4)
    assert rotsym._canonical_rep.cache_info().currsize == 0


def test_cycle_length():
    # the orbit of u has as many masks as u's least period under rotation
    assert len(orbit_masks((1 << 6) - 1, 6)) == 1
    assert len(orbit_masks(0b0101, 4)) == 2
    assert len(orbit_masks(0b001001, 6)) == 3
    assert len(orbit_masks(1, 5)) == 5
    # every mask at n <= 10 against rotate: the orbit runs up to the first return
    for n in range(1, 11):
        for u in range(1 << n):
            length = next(l for l in range(1, n + 1) if rotate(u, l, n) == u)
            assert orbit_masks(u, n) == [rotate(u, l, n) for l in range(length)], (u, n)
    # and orbit_masks refuses what rotate refuses, with the same messages
    cases = [(-1, 5, "mask -1 out of range for n=5"), (1 << 5, 5, "mask 32 out of range for n=5")]
    cases += [(3, bad, f"n must be an int in [1, 30], got {bad!r}") for bad in (0, 31, "6", 6.0)]
    for u, n, message in cases:
        for fn in (lambda u, n: rotate(u, 1, n), orbit_masks):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                fn(u, n)


def test_cyclic_run_count():
    assert cyclic_run_count(0, 4) == 0
    assert cyclic_run_count(0b1111, 4) == 1
    assert cyclic_run_count(0b0011, 4) == 1
    assert cyclic_run_count(0b001011, 6) == 2
    assert cyclic_run_count(0b10000001, 8) == 1  # run wraps around the end
    assert cyclic_run_count(0b10101, 6) == 3


def test_sanf_validation():
    Sanf(4, (3,))
    with pytest.raises(ValueError):
        Sanf(4, (6,))  # not the canonical representative
    with pytest.raises(ValueError):
        Sanf(4, (3, 3))
    with pytest.raises(ValueError):
        Sanf(4, (0,))
    with pytest.raises(ValueError):
        Sanf(4, ())


def test_orbit_expand():
    anf = orbit_expand(Sanf(4, (3,)))
    assert anf == AnfForm(4, frozenset({3, 6, 12, 9}))


def test_orbit_expand_is_the_union_of_orbit_masks():
    # every single-orbit SANF at n <= 12, periodic orbits included, then unions
    for n in range(1, 13):
        for w in range(1, n + 1):
            for r in enumerate_orbit_reps(n, w):
                assert orbit_expand(Sanf(n, (r,))).monomials == frozenset(orbit_masks(r, n))
    periodic = [(10, "x1x6", 5), (12, "x1x4x7x10", 3), (12, "x1x2x7x8", 6), (12, "x1x2", 12)]
    for n, text, size in periodic:
        (r,) = parse_sanf(text, n).reps
        assert len(orbit_expand(Sanf(n, (r,))).monomials) == len(orbit_masks(r, n)) == size
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(1, 12)
        reps = [r for w in range(1, n + 1) for r in enumerate_orbit_reps(n, w)]
        chosen = rng.sample(reps, k=rng.randint(1, min(6, len(reps))))
        want = frozenset(m for r in chosen for m in orbit_masks(r, n))
        assert orbit_expand(Sanf(n, tuple(chosen))) == AnfForm(n, want)


@pytest.mark.parametrize("bad", [-1, 32, 99])
def test_orbit_expand_refuses_reps_out_of_range(bad):
    # a Sanf never holds one, but the expansion checks its reps' range itself
    # (rotating an out-of-range mask would never come back to it)
    stand_in = SimpleNamespace(n=5, reps=(1, 3, bad))
    with pytest.raises(ValueError, match=f"^mask {bad} out of range for n=5$"):
        orbit_expand(stand_in)


def _rotation_symmetric_by_rotate(tt):
    return all(tt.bits[rotate(x, 1, tt.n)] == tt.bits[x] for x in range(1 << tt.n))


def test_sanf_truth_table_is_rotation_symmetric():
    rng = random.Random(9)
    for i in range(60):
        n = i % 12 + 1 if i < 12 else rng.randint(1, 12)
        w = rng.randint(1, n)
        reps = enumerate_orbit_reps(n, w)
        chosen = rng.sample(reps, k=rng.randint(1, min(3, len(reps))))
        sanf = sanf_from_masks(chosen, n)
        tt = sanf_truth_table(sanf)
        assert is_rotation_symmetric(tt) and _rotation_symmetric_by_rotate(tt)
        assert anf_from_truth_table(tt) == orbit_expand(sanf)
        # one flipped entry breaks the symmetry unless its orbit is a single input
        x = rng.randrange(1 << n)
        bits = tt.bits.copy()
        bits[x] ^= 1
        flipped = TruthTable(n, bits)
        fixed = orbit_masks(x, n) == [x]
        assert is_rotation_symmetric(flipped) == fixed, (n, x)
        assert _rotation_symmetric_by_rotate(flipped) == fixed


def test_is_rotation_symmetric_negative():
    tt = sanf_truth_table(parse_sanf("x1", 4))
    assert is_rotation_symmetric(tt)
    lone = AnfForm(4, frozenset({1}))  # x1 alone, orbit not completed
    assert not is_rotation_symmetric(truth_table_from_anf(lone))
    # random tables at n = 1..12 against the scalar rotation; past n = 1, the
    # inputs 1 and 2 share an orbit and get different values
    rng = np.random.default_rng(11)
    for n in range(1, 13):
        for _ in range(5):
            bits = rng.integers(0, 2, 1 << n, dtype=np.uint8)
            if n > 1:
                bits[2] = 1 - bits[1]
            tt = TruthTable(n, bits)
            assert is_rotation_symmetric(tt) == _rotation_symmetric_by_rotate(tt), n
            assert is_rotation_symmetric(tt) == (n == 1), n


def test_parse_sanf():
    sanf = parse_sanf("x1x2x3 + x1x2x4", 6)
    assert sanf.n == 6
    assert sanf.reps == (0b111, 0b1011)
    assert parse_sanf("x2x3", 4).reps == (3,)  # canonicalized into its orbit
    assert parse_sanf("x1x2+x1x3", 4).reps == (3, 5)


def test_parse_sanf_rejects():
    with pytest.raises(ValueError):
        parse_sanf("", 4)
    with pytest.raises(ValueError):
        parse_sanf("x1x1", 4)
    with pytest.raises(ValueError):
        parse_sanf("x3x2", 4)  # indices must increase inside a monomial
    with pytest.raises(ValueError):
        parse_sanf("x1x5", 4)
    with pytest.raises(ValueError):
        parse_sanf("x1x2+x2x3", 4)  # same orbit listed twice
    with pytest.raises(ValueError):
        parse_sanf("y1y2", 4)


def test_format_round_trips():
    rng = random.Random(21)
    for _ in range(100):
        n = rng.randint(2, 12)
        w = rng.randint(1, n)
        reps = enumerate_orbit_reps(n, w)
        chosen = rng.sample(reps, k=rng.randint(1, min(4, len(reps))))
        sanf = sanf_from_masks(chosen, n)
        assert parse_sanf(format_sanf(sanf), n) == sanf


def test_format_monomial():
    assert format_monomial(0b111) == "x1x2x3"
    assert format_monomial(0b1011) == "x1x2x4"


def test_mask_bits_strings():
    assert mask_to_bits(3, 4) == "1100"
    assert bits_to_mask("1100", 4) == 3
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(1, 16)
        u = rng.randrange(1 << n)
        assert bits_to_mask(mask_to_bits(u, n), n) == u
    with pytest.raises(ValueError):
        bits_to_mask("110", 4)
    with pytest.raises(ValueError):
        bits_to_mask("1102", 4)


def test_mask_from_positions():
    assert mask_from_positions((1, 2, 3), 6) == 0b111
    assert mask_from_positions((1, 3, 5), 6) == 0b10101
    with pytest.raises(ValueError):
        mask_from_positions((0,), 6)
    with pytest.raises(ValueError):
        mask_from_positions((7,), 6)

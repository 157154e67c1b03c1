"""Cover coefficients, the spectrum inverse, and the valuation criterion."""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from rotbent import (
    AnfForm,
    CapacityError,
    InternalInconsistencyError,
    Sanf,
    all_cover_coefficients,
    all_cover_from_spectrum,
    bent_by_valuation,
    cover_coefficient,
    enumerate_orbit_reps,
    is_bent,
    orbit_expand,
    parse_sanf,
    sanf_truth_table,
    truth_table_from_anf,
    walsh_spectrum,
)
from rotbent import boolfn
from rotbent.covercoef import (
    CAPACITY,
    CoverValue,
    cover_coefficient_from_spectrum,
    two_adic_valuation,
)
from rotbent.walsh import WalshSpectrum


def cover_naive(monomials, n):
    # Literal definition: walk every subset T of the monomial list and add
    # (-2)^|T| into the slot for OR(T).  Exponential, oracle only.
    acc = [0] * (1 << n)
    for size in range(len(monomials) + 1):
        for sub in itertools.combinations(monomials, size):
            u = 0
            for m in sub:
                u |= m
            acc[u] += (-2) ** size
    return acc


def cover_folded(monomials, n):
    # The same literal sum, taken one list entry at a time: each subset T
    # either leaves m out or adds it, moving (-2)^|T| from OR(T) on to
    # OR(T) | m times -2.  Cheap for lists of any length, oracle only.
    acc = [1] + [0] * ((1 << n) - 1)
    for m in monomials:
        nxt = acc[:]
        for v, a in enumerate(acc):
            nxt[v | m] -= 2 * a
        acc = nxt
    return acc


def random_monomials(rng, n, maxm=10):
    return sorted(rng.sample(range(1 << n), k=rng.randint(1, min(maxm, 1 << n))))


def test_direct_route_matches_naive(monkeypatch):
    rng = random.Random(51)
    cases = []
    for _ in range(40):
        n = rng.randint(1, 8)
        monos = random_monomials(rng, n)
        want = cover_naive(monos, n)
        assert list(all_cover_coefficients(monos, n)) == want == cover_folded(monos, n)
        cases.append((monos, want))
    # lists past the walk's 24-monomial cap, repeats included: the table
    # takes any list size
    for _ in range(6):
        n = rng.randint(5, 8)
        monos = sorted(rng.choices(range(1 << n), k=rng.randint(CAPACITY + 1, 40)))
        want = cover_folded(monos, n)
        assert list(all_cover_coefficients(monos, n)) == want
        cases.append((monos, want))
    # the second pass drops the table cap to 0, so every nonzero u falls to
    # the pruned subset walk, which refuses the long lists
    for cap in (boolfn._TABLE_N_MAX, 0):
        monkeypatch.setattr(boolfn, "_TABLE_N_MAX", cap)
        for monos, want in cases:
            for u, h in enumerate(want):  # u = 0 and the all-ones mask included
                if u and not cap and len(monos) > CAPACITY:
                    with pytest.raises(CapacityError, match="the subset walk takes at most 24"):
                        cover_coefficient(monos, u)
                    continue
                cv = cover_coefficient(monos, u)
                assert cv.value == h
                assert cv.valuation == two_adic_valuation(h)


def test_weights_21_and_22_match_the_spectrum():
    # x1x2x3+x1x2x4 at n = 22 expands to 44 monomials, past the walk's cap;
    # one table of 2^|u| entries gives the values the spectrum gives
    sanf = parse_sanf("x1x2x3+x1x2x4", 22)
    monos = sorted(orbit_expand(sanf).monomials)
    spec = walsh_spectrum(sanf_truth_table(sanf))
    full = (1 << 22) - 1
    for u in (full >> 1, full & ~(1 << 4), full & ~(1 << 10), full):
        assert cover_coefficient(monos, u) == cover_coefficient_from_spectrum(spec, u)


def test_past_both_caps_refuses_before_allocating():
    monos = sorted(orbit_expand(parse_sanf("x1x2x3+x1x2x4", 24)).monomials)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError) as exc:
            cover_coefficient(monos, (1 << 23) - 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert str(exc.value) == (
        "H(u) at |u| = 23: full 2^n tables are limited to n <= 22, got n=23; "
        "the subset walk takes at most 24 monomials, got 48"
    )


def test_single_monomial():
    assert cover_coefficient([3], 3) == CoverValue(-2, 1)
    assert cover_coefficient([3], 0) == CoverValue(1, 0)
    assert cover_coefficient([3], 1) == CoverValue(0, math.inf)


@pytest.mark.parametrize("u", [3, (1 << 23) - 1])  # the table route, the subset walk
def test_a_negative_mask_is_refused_on_both_routes(u):
    # a negative monomial used to drop out of the inside list silently, and a
    # negative u to raise a bare KeyError; the array route refuses the same list
    for monos, mask, bad in (([-1, 3], u, -1), ([3, -5], u, -5), ([3], -u, -u)):
        with pytest.raises(ValueError, match=f"^mask {bad} out of range"):
            cover_coefficient(monos, mask)
    with pytest.raises(ValueError, match="mask -1 out of range"):
        all_cover_coefficients([-1, 3], 2)


def test_constant_term_flips_the_empty_slot():
    assert cover_coefficient([0], 0) == CoverValue(-1, 0)
    assert cover_coefficient([0, 3], 0) == CoverValue(-1, 0)


def test_spectrum_route_agrees_with_direct():
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randint(1, 8)
        monos = random_monomials(rng, n)
        ws = walsh_spectrum(truth_table_from_anf(AnfForm(n, frozenset(monos))))
        harr = all_cover_coefficients(monos, n)
        assert np.array_equal(all_cover_from_spectrum(ws), harr)
        for u in range(1 << n):
            assert cover_coefficient_from_spectrum(ws, u).value == harr[u]


def test_valuation_criterion_matches_walsh_bentness():
    rng = random.Random(61)
    for _ in range(120):
        n = rng.choice((2, 4, 6, 8))
        monos = random_monomials(rng, n)
        anf = AnfForm(n, frozenset(monos))
        want = is_bent(truth_table_from_anf(anf))
        assert bent_by_valuation(anf) == want


def test_valuation_route_matches_walsh_on_whole_layers():
    # bent_by_valuation reads the monomial list only; 122 of these 221 SANFs
    # expand past the 24-monomial cap of the single-mask route.
    past_cap = 0
    for n, d in ((8, 3), (10, 2), (12, 2)):
        reps = enumerate_orbit_reps(n, d)
        for size in range(1, len(reps) + 1):
            for chosen in itertools.combinations(reps, size):
                sanf = Sanf(n, chosen)
                anf = orbit_expand(sanf)
                past_cap += len(anf.monomials) > CAPACITY
                assert bent_by_valuation(anf) == is_bent(sanf_truth_table(sanf))
    assert past_cap == 64 + 16 + 42


def test_valuation_criterion_known_bent():
    assert bent_by_valuation(AnfForm(2, frozenset({3})))
    assert bent_by_valuation(AnfForm(4, frozenset({0b0011, 0b1100})))
    assert not bent_by_valuation(AnfForm(4, frozenset({0b0011})))


def test_valuation_criterion_rejects_odd_n():
    with pytest.raises(ValueError):
        bent_by_valuation(AnfForm(3, frozenset({3})))


def test_capacity_errors():
    # the monomial cap bounds only the subset walk, which takes |u| > 22
    monos = list(range(1, CAPACITY + 2))
    with pytest.raises(CapacityError):
        cover_coefficient(monos, (1 << 23) - 1)
    with pytest.raises(CapacityError):
        all_cover_coefficients([1], 21)
    with pytest.raises(CapacityError):
        bent_by_valuation(AnfForm(22, frozenset({3})))


def test_two_adic_valuation():
    assert two_adic_valuation(0) == math.inf
    assert two_adic_valuation(1) == 0
    assert two_adic_valuation(12) == 2
    assert two_adic_valuation(-8) == 3
    assert two_adic_valuation(1 << 40) == 40


def test_inconsistent_spectrum_is_rejected():
    # [2, 2, 2, -1] fails Parseval and the 2-power divisibility of the
    # inverse formula; both interfaces must refuse it loudly.
    ws = WalshSpectrum(2, np.array([2, 2, 2, -1], dtype=np.int64))
    with pytest.raises(InternalInconsistencyError):
        cover_coefficient_from_spectrum(ws, 1)
    with pytest.raises(InternalInconsistencyError):
        all_cover_from_spectrum(ws)


def test_repeated_monomials_count_modulo_two():
    # the table transform counts each mask in uint8: 256 copies wrap to 0, 257 to 1
    n, rest, m = 6, [3, 12, 33], 0b010110
    without = all_cover_coefficients(rest, n)
    once = all_cover_coefficients(rest + [m], n)
    assert not np.array_equal(without, once)
    assert np.array_equal(all_cover_coefficients(rest + [m] * 256, n), without)
    assert np.array_equal(all_cover_coefficients(rest + [m] * 257, n), once)
    assert np.array_equal(once, cover_naive(sorted(rest + [m]), n))
    for u in range(1 << n):
        assert cover_coefficient(rest + [m] * 256, u).value == without[u]
        assert cover_coefficient(rest + [m] * 257, u).value == once[u]


def test_transforms_return_int64():
    # the spectrum is widened to int64; the cover coefficients stay the int32
    # core that every monomial-route caller reads (exact: |H(u)| <= 2^20)
    anf = AnfForm(10, frozenset({7, 96, 513}))
    assert walsh_spectrum(truth_table_from_anf(anf)).values.dtype == np.int64
    assert all_cover_coefficients(sorted(anf.monomials), 10).dtype == np.int32


def test_spectrum_route_single_mask_matches_the_full_scan():
    # the route sums W over the 2^(n-|u|) supersets of u; the definition scans
    # all 2^n inputs c and keeps those with c & u == u
    rng = random.Random(67)
    for n in range(1, 9):
        monos = random_monomials(rng, n)
        ws = walsh_spectrum(truth_table_from_anf(AnfForm(n, frozenset(monos))))
        values = ws.values.tolist()
        for u in range(1 << n):  # u = 0 and the all-ones mask included
            s = sum(w for c, w in enumerate(values) if c & u == u)
            q, r = divmod(s, 1 << (n - u.bit_count()))
            assert r == 0
            want = -q if u.bit_count() % 2 else q
            assert cover_coefficient_from_spectrum(ws, u) == CoverValue(
                want, two_adic_valuation(want)
            )


def test_spectrum_route_refuses_masks_out_of_range():
    ws = walsh_spectrum(sanf_truth_table(Sanf(6, (0b111,))))
    for u in (-1, 1 << 6):
        with pytest.raises(ValueError, match=f"mask {u} out of range for n=6"):
            cover_coefficient_from_spectrum(ws, u)


def test_spectrum_route_single_mask_rejects_a_tampered_spectrum():
    # W(all-ones) + 1 makes every superset sum odd except the one of u = all-ones,
    # whose divisor is 2^0
    n = 6
    ws = walsh_spectrum(sanf_truth_table(Sanf(n, (0b11,))))
    values = ws.values.copy()
    values[-1] += 1
    tampered = WalshSpectrum(n, values)
    full = (1 << n) - 1
    for u in range(full):
        with pytest.raises(InternalInconsistencyError):
            cover_coefficient_from_spectrum(tampered, u)
    assert cover_coefficient_from_spectrum(tampered, full).value == int(values[-1])


def _v2(x):
    return math.inf if x == 0 else (abs(x) & -abs(x)).bit_length() - 1


def _criterion_per_u(harr, n):
    # v2(H(all-ones)) = n/2 and v2(H(u)) > |u| - n/2 elsewhere, one u at a time
    full = (1 << n) - 1
    for u, h in enumerate(harr):
        if u == full:
            if _v2(h) != n // 2:
                return False
        elif not _v2(h) > u.bit_count() - n // 2:
            return False
    return True


def test_valuation_masks_match_a_per_u_evaluation_of_the_criterion():
    # H from the spectrum route; every degree-2 and degree-3 SANF at n = 6, 8.
    # A bent one passes the rows with |u| < n/2, where the mask is 0, on
    # H(0) = 1 among them.
    seen = {"H(all-ones) = 0": 0, "v2(H(all-ones)) > n/2": 0, "bent": 0}
    for n in (6, 8):
        for d in (2, 3):
            reps = enumerate_orbit_reps(n, d)
            for size in range(1, len(reps) + 1):
                for chosen in itertools.combinations(reps, size):
                    sanf = Sanf(n, chosen)
                    tt = sanf_truth_table(sanf)
                    harr = all_cover_from_spectrum(walsh_spectrum(tt)).tolist()
                    want = _criterion_per_u(harr, n)
                    assert bent_by_valuation(orbit_expand(sanf)) == want == is_bent(tt)
                    seen["H(all-ones) = 0"] += harr[-1] == 0
                    seen["v2(H(all-ones)) > n/2"] += 0 < _v2(harr[-1]) - n // 2 < math.inf
                    seen["bent"] += want
    assert all(seen.values()), seen

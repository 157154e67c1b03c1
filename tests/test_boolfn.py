"""Truth tables, ANF, and the Mobius transform against a literal oracle."""

import functools
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotbent import (
    AnfForm,
    CapacityError,
    Sanf,
    algebraic_degree,
    all_cover_coefficients,
    anf_from_truth_table,
    boolfn,
    canonical_rep,
    cover_coefficient,
    format_monomial,
    is_bent,
    mask_to_bits,
    orbit_masks,
    truth_table_from_anf,
    walsh_spectrum,
)
from rotbent.boolfn import TruthTable, _bit_butterfly, _butterfly, _xor_step
from rotbent.covercoef import _mobius_sub, _superset_sums, cover_coefficient_from_spectrum
from rotbent.rotsym import rotate, sanf_from_masks
from rotbent.walsh import _signed_step


def eval_anf_naive(monomials, n, i):
    # f(i) = parity of the number of monomials m with m subset of i,
    # where x1 is the least significant bit of i.
    return sum(1 for m in monomials if i & m == m) & 1


def random_anf(rng, n):
    masks = rng.sample(range(1 << n), k=rng.randint(0, min(8, 1 << n)))
    return AnfForm(n, frozenset(masks))


def test_truth_table_matches_naive_evaluation():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 8)
        anf = random_anf(rng, n)
        tt = truth_table_from_anf(anf)
        for i in range(1 << n):
            assert tt.bits[i] == eval_anf_naive(anf.monomials, n, i)


def naive_cover_from_table(bits, n):
    # H(u) = sum over v subset of u of (-1)^(|u|-|v|) (-1)^f(v), 256 masks u
    # at a time (a whole 2^12 x 2^12 int64 matrix would be 128 MiB)
    idx = np.arange(1 << n)
    sign = 1 - 2 * (np.bitwise_count(idx).astype(np.int64) & 1)  # (-1)^|v|
    terms = sign * (1 - 2 * bits.astype(np.int64))
    sums = [
        np.where(idx & ~u[:, None] == 0, terms, 0).sum(axis=1)
        for u in np.split(idx, range(256, 1 << n, 256))
    ]
    return sign * np.concatenate(sums)


def test_anf_to_table_transform_matches_naive_evaluation_with_repeats():
    # the one ANF -> table transform, through both callers: a mask listed k
    # times counts k mod 2 (256 copies vanish, 257 count once); n = 1-3 run
    # the plain kernel, n >= 4 the pattern table, n >= 5 the packed words
    rng = random.Random(23)
    for n in range(1, 13):
        for _ in range(4):
            masks = rng.choices(range(1 << n), k=rng.randint(0, 40))
            masks += [rng.randrange(1 << n)] * 256 + [rng.randrange(1 << n)] * 257
            rng.shuffle(masks)
            want = np.array([eval_anf_naive(masks, n, i) for i in range(1 << n)])
            odd = frozenset(m for m in masks if masks.count(m) % 2)
            assert np.array_equal(truth_table_from_anf(AnfForm(n, odd)).bits, want)
            harr = all_cover_coefficients(masks, n)
            assert np.array_equal(harr, naive_cover_from_table(want, n))


@pytest.mark.parametrize("mask", [-1, 8, 1 << 70])
def test_out_of_range_masks_are_refused(mask):
    # masks outside [0, 2^n) are refused, not wrapped onto another monomial
    with pytest.raises(ValueError, match=r"^monomial mask .*out of range for n=3$") as exc:
        all_cover_coefficients([3, mask], 3)
    if abs(mask) < 1 << 63:
        assert str(exc.value) == f"monomial mask {mask} out of range for n=3"


def naive_anf_from_table(bits, n):
    # coefficient of m = XOR of f(v) over v subset of m, 256 masks m at a time
    idx = np.arange(1 << n)
    coeffs = [
        np.where(idx & ~m[:, None] == 0, bits, 0).sum(axis=1) & 1
        for m in np.split(idx, range(256, 1 << n, 256))
    ]
    return frozenset(np.flatnonzero(np.concatenate(coeffs)).tolist())


def test_anf_of_random_tables_matches_the_subset_sums():
    rng = np.random.default_rng(31)
    for n in range(1, 13):
        for _ in range(3):
            bits = rng.integers(0, 2, 1 << n, dtype=np.uint8)
            anf = anf_from_truth_table(TruthTable(n, bits))
            assert anf.monomials == naive_anf_from_table(bits, n), n
            assert all(type(m) is int for m in anf.monomials)


def test_round_trip_anf_table_anf():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 8)
        anf = random_anf(rng, n)
        assert anf_from_truth_table(truth_table_from_anf(anf)) == anf


def test_round_trip_table_anf_table():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(1, 6)
        bits = [rng.randint(0, 1) for _ in range(1 << n)]
        tt = TruthTable(n, np.array(bits, dtype=np.uint8))
        assert truth_table_from_anf(anf_from_truth_table(tt)) == tt


def test_x1_is_least_significant_bit():
    # x2 on three variables: set exactly when bit 1 of the index is set.
    tt = truth_table_from_anf(AnfForm(3, frozenset({2})))
    assert list(tt.bits) == [0, 0, 1, 1, 0, 0, 1, 1]


def test_x1x2_table():
    tt = truth_table_from_anf(AnfForm(2, frozenset({3})))
    assert list(tt.bits) == [0, 0, 0, 1]
    assert tt.weight == 1


def test_constant_one():
    tt = truth_table_from_anf(AnfForm(2, frozenset({0})))
    assert list(tt.bits) == [1, 1, 1, 1]
    assert tt.weight == 4


def test_degree():
    assert algebraic_degree(AnfForm(3, frozenset())) is None
    assert algebraic_degree(AnfForm(3, frozenset({0}))) == 0
    assert algebraic_degree(AnfForm(3, frozenset({3}))) == 2
    assert algebraic_degree(AnfForm(3, frozenset({0, 1, 7}))) == 3


def test_weight_counts_ones():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(1, 6)
        bits = [rng.randint(0, 1) for _ in range(1 << n)]
        tt = TruthTable(n, np.array(bits, dtype=np.uint8))
        assert tt.weight == sum(bits)


def test_equality_is_by_content():
    a = TruthTable(2, np.array([0, 1, 1, 0], dtype=np.uint8))
    b = TruthTable(2, np.array([0, 1, 1, 0], dtype=np.uint8))
    c = TruthTable(2, np.array([0, 1, 1, 1], dtype=np.uint8))
    assert a == b
    assert a != c


def test_validation_errors():
    with pytest.raises(ValueError):
        TruthTable(0, np.array([1], dtype=np.uint8))
    with pytest.raises(ValueError):
        TruthTable(31, np.zeros(4, dtype=np.uint8))
    with pytest.raises(ValueError):
        TruthTable(2, np.array([0, 1], dtype=np.uint8))
    with pytest.raises(ValueError):
        TruthTable(1, np.array([0, 2], dtype=np.uint8))
    with pytest.raises(ValueError):
        AnfForm(2, frozenset({4}))
    with pytest.raises(ValueError):
        AnfForm(2, frozenset({-1}))
    with pytest.raises(ValueError):
        AnfForm(0, frozenset())


def test_n_that_is_a_bool_is_refused():
    # bool is an int subclass: True would pass as n = 1 and fail later
    for n in (True, False):
        with pytest.raises(ValueError, match="n must be an int"):
            TruthTable(n, np.array([0, 1], dtype=np.uint8))
        with pytest.raises(ValueError, match="n must be an int"):
            AnfForm(n, frozenset())


@pytest.mark.parametrize("n", [24, 30])
@pytest.mark.parametrize("use", [is_bent, walsh_spectrum, anf_from_truth_table])
def test_caller_tables_past_the_cap_are_refused_before_reading(use, n):
    # the caller's own 2^n array exists already; the table refuses it before
    # the copy and before any transform (an int32 transform at n = 30 is 4 GiB)
    bits = np.zeros(1 << n, dtype=np.uint8)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError) as exc:
            use(TruthTable(n, bits))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(exc.value) == f"full 2^n tables are limited to n <= 22, got n={n}"
    assert peak < 1 << 20


# step -> (kernel step, dtype the package runs it in, input range, scalar pair map)
KERNEL_STEPS = {
    "xor": (_xor_step, np.uint8, (0, 1), lambda lo, hi: (lo, lo ^ hi)),
    "signed": (_signed_step, np.int32, (-1, 1), lambda lo, hi: (lo + hi, lo - hi)),
    "mobius": (_mobius_sub, np.int32, (-3, 3), lambda lo, hi: (lo, hi - lo)),
    "superset": (_superset_sums, np.int64, (-(1 << 30), 1 << 30), lambda lo, hi: (lo + hi, hi)),
}


def per_level_reference(row, pair):
    # level h pairs entry j with j + h inside every block of 2h entries
    a = list(row)
    h = 1
    while h < len(a):
        for start in range(0, len(a), 2 * h):
            for j in range(start, start + h):
                a[j], a[j + h] = pair(a[j], a[j + h])
        h *= 2
    return a


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(sorted(KERNEL_STEPS)),
    st.integers(1, 12),
    st.sampled_from([0, 1, 3]),  # 0: one 1-D table, else a (k, 2^n) batch
    st.integers(0, 2**32 - 1),
)
@example("signed", 4, 0, 1)  # h <= 8 at every level: all on the offset loop
@example("mobius", 4, 3, 2)
@example("xor", 12, 3, 3)  # both branches of the kernel
@example("superset", 12, 0, 4)
def test_butterfly_matches_a_per_level_reference(name, n, k, seed):
    step, dtype, (lo, hi), pair = KERNEL_STEPS[name]
    shape = (1 << n,) if k == 0 else (k, 1 << n)
    a = np.random.default_rng(seed).integers(lo, hi, size=shape, endpoint=True).astype(dtype)
    want = [per_level_reference(row, pair) for row in a.reshape(-1, 1 << n).tolist()]
    want = np.array(want, dtype=np.int64).astype(dtype).reshape(shape)  # uint8 wraps mod 256
    got = _butterfly(a, step)
    assert got is a and got.dtype == dtype
    assert np.array_equal(got, want)



@pytest.mark.parametrize("name", sorted(KERNEL_STEPS))
@pytest.mark.parametrize("span", [4, 32])  # block edge inside / above the offset-loop levels
@pytest.mark.parametrize("k", [0, 3])
def test_blocked_butterfly_matches_a_per_level_reference(monkeypatch, name, span, k):
    step, dtype, (lo, hi), pair = KERNEL_STEPS[name]
    monkeypatch.setattr(boolfn, "_BLOCK_BYTES", span * np.dtype(dtype).itemsize)
    sizes = []

    def watched(lo_view, hi_view):
        sizes.append(lo_view.size)
        step(lo_view, hi_view)

    for n in (3, 6, 9):
        shape = (1 << n,) if k == 0 else (k, 1 << n)
        a = np.random.default_rng(n).integers(lo, hi, size=shape, endpoint=True).astype(dtype)
        want = [per_level_reference(row, pair) for row in a.reshape(-1, 1 << n).tolist()]
        want = np.array(want, dtype=np.int64).astype(dtype).reshape(shape)
        sizes.clear()
        assert _butterfly(a, watched) is a
        assert np.array_equal(a, want)
        # blocked rows start with one block's worth of level h = 1 pairs
        rows = 1 if k == 0 else k
        assert sizes[0] == (span // 2 if 1 << n > span else rows << (n - 1))


BIT_STEPS = ("mobius", "signed", "xor")  # the steps that start from a 0/1 vector


def bit_inputs(name, n, k):
    # seeded 0/1 rows and the values the plain kernel starts from: the bits
    # for xor, (-1)^bits for the integer steps
    shape = (1 << n,) if k == 0 else (k, 1 << n)
    bits = np.random.default_rng([n, k]).integers(0, 2, size=shape, dtype=np.uint8)
    dtype = KERNEL_STEPS[name][1]
    return bits, (bits.astype(dtype) if name == "xor" else 1 - 2 * bits.astype(dtype))


@functools.cache
def bit_reference(name, n, k):
    _, start = bit_inputs(name, n, k)
    pair = KERNEL_STEPS[name][3]
    rows = [per_level_reference(row, pair) for row in start.reshape(-1, 1 << n).tolist()]
    return np.array(rows, dtype=np.int64).reshape(start.shape)


@pytest.mark.parametrize("name", BIT_STEPS)
@pytest.mark.parametrize("span", [None, 4, 32])  # None: the package's block size
@pytest.mark.parametrize("k", [0, 3])
def test_bit_butterfly_matches_a_per_level_reference(monkeypatch, name, span, k):
    step, dtype = KERNEL_STEPS[name][:2]
    if span is not None:
        monkeypatch.setattr(boolfn, "_BLOCK_BYTES", span * np.dtype(dtype).itemsize)
    for n in range(1, 13):  # n < 4: no full 16-entry block, the plain kernel alone
        bits, _ = bit_inputs(name, n, k)
        kept = bits.copy()
        got = _bit_butterfly(bits, step)
        assert got.dtype == (np.uint8 if name == "xor" else np.int32)
        assert np.array_equal(got, bit_reference(name, n, k))
        assert np.array_equal(bits, kept)  # the input is left as it was


@pytest.mark.parametrize("name", BIT_STEPS)
def test_bit_butterfly_matches_the_plain_kernel_at_large_n(name):
    step = KERNEL_STEPS[name][0]
    for n in (16, 18, 20):
        bits, start = bit_inputs(name, n, 0)
        assert np.array_equal(_bit_butterfly(bits, step), _butterfly(start, step))


def numpy_level_reference(a, pair):
    # every level out of place on int64 copies: (blocks, 2, h) halves in, new array out
    a = a.astype(np.int64)
    h = 1
    while h < a.shape[-1]:
        v = a.reshape(*a.shape[:-1], -1, 2, h)
        lo, hi = pair(v[..., 0, :].copy(), v[..., 1, :].copy())
        a = np.stack((lo, hi), axis=-2).reshape(a.shape)
        h *= 2
    return a


def offset_loop_calls(shape):
    # step calls `_butterfly` makes: h per level h <= 8 whose strided views hold
    # at least 64 h blocks (the array's size over 2h), else one per level
    size, calls, h = int(np.prod(shape)), 0, 1
    while h < shape[-1]:
        calls += h if h <= 8 and size // (2 * h) >= 64 * h else 1
        h *= 2
    return calls


@pytest.mark.parametrize("name", sorted(KERNEL_STEPS))
@pytest.mark.parametrize("k", [0, 3])  # one 1-D row, or a (3, 2^n) batch
def test_butterfly_matches_the_reference_on_rows_of_2_to_2_16_entries(name, k):
    step, dtype, (lo, hi), pair = KERNEL_STEPS[name]
    calls = []

    def counted(lo_view, hi_view):
        calls.append(1)
        step(lo_view, hi_view)

    rng = np.random.default_rng(k)
    for n in range(1, 17):
        shape = (1 << n,) if k == 0 else (k, 1 << n)
        a = rng.integers(lo, hi, size=shape, endpoint=True).astype(dtype)
        want = numpy_level_reference(a, pair)
        if n <= 6:  # the pure-Python pairing agrees with the numpy one
            rows = [per_level_reference(row, pair) for row in a.reshape(-1, 1 << n).tolist()]
            assert np.array_equal(np.array(rows).reshape(shape), want)
        calls.clear()
        assert _butterfly(a, counted) is a
        assert np.array_equal(a.astype(np.int64), want), (name, k, n)
        assert len(calls) == offset_loop_calls(shape), (name, k, n)


@pytest.mark.parametrize("shape, calls", [((64,), 6), ((3, 64), 6), ((1 << 16,), 1 + 2 + 4 + 8 + 12)])
def test_short_rows_take_one_step_call_per_level(shape, calls):
    # a 64-word row (the packed words of a 2^10-entry XOR transform) runs its 6
    # levels in 6 calls; a 2^16-entry row keeps the offset loop at h = 1-8
    seen = []

    def counted(lo_view, hi_view):
        seen.append(lo_view.shape)
        _xor_step(lo_view, hi_view)

    _butterfly(np.zeros(shape, dtype=np.uint16), counted)
    assert len(seen) == calls


@pytest.mark.parametrize("bad", [-1, -(1 << 40), 1 << 5, (1 << 5) + 7])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_a_bad_mask_is_named_wherever_it_sits(bad, where):
    # AnfForm and the ANF -> table transform check a range with one min and one
    # max; the error still names the offending mask, as the per-mask loop did
    good = [0, 3, 17, 31, 8]
    masks = {"first": [bad] + good, "middle": good[:2] + [bad] + good[2:], "last": good + [bad]}
    message = f"monomial mask {bad} out of range for n=5"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        AnfForm(5, masks[where])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        boolfn._table_bits(masks[where], 5)
    assert AnfForm(5, good).monomials == frozenset(good)  # the bounds 0 and 31 pass


_SPECTRUM = walsh_spectrum(truth_table_from_anf(AnfForm(4, {3})))

# every public function that reads a mask, a monomial list or a SANF, fed one
# mask at n = 4; format_monomial and cover_coefficient take no n, so 2^n is a
# mask like any other there
_MASK_READERS = {
    "rotate": (lambda u: rotate(u, 1, 4), True),
    "orbit_masks": (lambda u: orbit_masks(u, 4), True),
    "canonical_rep": (lambda u: canonical_rep(u, 4), True),
    "mask_to_bits": (lambda u: mask_to_bits(u, 4), True),
    "format_monomial": (format_monomial, False),
    "Sanf": (lambda u: Sanf(4, (u,)), True),
    "sanf_from_masks": (lambda u: sanf_from_masks([1, u], 4), True),
    "AnfForm": (lambda u: AnfForm(4, [1, u]), True),
    "all_cover_coefficients": (lambda u: all_cover_coefficients([1, u], 4).tolist(), True),
    "cover_coefficient(monomials)": (lambda u: cover_coefficient([1, u], 15), False),
    "cover_coefficient(u)": (lambda u: cover_coefficient([1], u), False),
    "cover_coefficient_from_spectrum": (
        lambda u: cover_coefficient_from_spectrum(_SPECTRUM, u),
        True,
    ),
}


@pytest.mark.parametrize("name", sorted(_MASK_READERS))
def test_every_mask_reader_refuses_the_same_bad_values(name):
    # a mask is read exactly: numpy integers pass, a float or a string is a
    # TypeError (never rounded onto a monomial), a negative mask and, where an
    # n applies, 2^n a ValueError.  The valid call first warms any memo, so a
    # bad value equal to a cached key (3.0 == 3) must still be refused
    reader, has_n = _MASK_READERS[name]
    want = reader(3)
    for good in (np.int64(3), np.uint8(3)):
        assert reader(good) == want
    for bad in (1.5, "3", np.float64(3)):
        with pytest.raises(TypeError):
            reader(bad)
    for bad in (-1, 1 << 4) if has_n else (-1,):
        with pytest.raises(ValueError, match=f"{bad} out of range"):
            reader(bad)


@pytest.mark.parametrize(
    "call, error",
    [  # each was read as the monomial named after it
        pytest.param(lambda: Sanf(10, "7"), TypeError, id="Sanf-str"),  # x1x2x3
        pytest.param(lambda: Sanf(10, np.array([7.9])), TypeError, id="Sanf-array"),  # x1x2x3
        pytest.param(lambda: Sanf(4, (1.5,)), TypeError, id="Sanf-float"),  # x1
        pytest.param(lambda: AnfForm(3, ["5"]), TypeError, id="AnfForm-str"),  # x1x3
        pytest.param(lambda: AnfForm(4, [1.7]), TypeError, id="AnfForm-float"),  # x1
        pytest.param(lambda: all_cover_coefficients(["3"], 2), TypeError, id="H-str"),  # x1x2
        pytest.param(lambda: all_cover_coefficients([1.7], 2), TypeError, id="H-float"),  # x1
        pytest.param(lambda: format_monomial(-3), ValueError, id="format-negative"),  # x1
    ],
)
def test_masks_are_not_coerced_onto_another_monomial(call, error):
    with pytest.raises(error):
        call()

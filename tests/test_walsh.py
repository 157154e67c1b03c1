"""Walsh spectra and bentness against a literal double-sum oracle."""

import random

import numpy as np

from rotbent import (
    AnfForm,
    TruthTable,
    is_bent,
    is_bent_early_abort,
    truth_table_from_anf,
    walsh_spectrum,
)


def walsh_naive(bits, n, c):
    return sum(
        (-1) ** ((int(bits[i]) + (i & c).bit_count()) & 1) for i in range(1 << n)
    )


def random_table(rng, n):
    bits = np.array([rng.randint(0, 1) for _ in range(1 << n)], dtype=np.uint8)
    return TruthTable(n, bits)


def test_spectrum_matches_naive():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 6)
        tt = random_table(rng, n)
        ws = walsh_spectrum(tt)
        for c in range(1 << n):
            assert ws.values[c] == walsh_naive(tt.bits, n, c), (n, c)


def test_x1x2_spectrum():
    ws = walsh_spectrum(truth_table_from_anf(AnfForm(2, frozenset({3}))))
    assert list(ws.values) == [2, 2, 2, -2]


def test_parseval():
    rng = random.Random(37)
    for _ in range(50):
        tt = random_table(rng, 8)
        ws = walsh_spectrum(tt)
        assert int(np.sum(ws.values.astype(np.int64) ** 2)) == 4**8


def test_spectrum_at_zero_counts_weight():
    rng = random.Random(41)
    for _ in range(50):
        n = rng.randint(1, 8)
        tt = random_table(rng, n)
        assert walsh_spectrum(tt).values[0] == (1 << n) - 2 * tt.weight


def test_bent_needs_even_n():
    rng = random.Random(43)
    for n in (1, 3, 5, 7):
        tt = random_table(rng, n)
        assert not is_bent(tt)
        assert not is_bent_early_abort(tt)


def test_quadratic_bent_on_four_variables():
    # x1x2 + x3x4 is the textbook bent function on four variables.
    tt = truth_table_from_anf(AnfForm(4, frozenset({0b0011, 0b1100})))
    assert is_bent(tt)
    assert is_bent_early_abort(tt)


def test_exhaustive_four_variable_agreement():
    # Every 16-bit truth table: the two bentness routes agree, and the
    # total number of bent functions is the known 896.
    count = 0
    for word in range(1 << 16):
        bits = np.array([(word >> i) & 1 for i in range(16)], dtype=np.uint8)
        tt = TruthTable(4, bits)
        full = is_bent(tt)
        assert full == is_bent_early_abort(tt), word
        count += full
    assert count == 896


def test_random_eight_variable_agreement():
    rng = random.Random(47)
    for _ in range(2000):
        tt = random_table(rng, 8)
        assert is_bent(tt) == is_bent_early_abort(tt)


def test_bent_weight_precheck():
    # Bent tables have weight (2^n - 2^(n/2))/2 or (2^n + 2^(n/2))/2;
    # any other weight is rejected without a transform.
    for word in range(1 << 16):
        if word.bit_count() not in (6, 10):
            bits = np.array([(word >> i) & 1 for i in range(16)], dtype=np.uint8)
            assert not is_bent(TruthTable(4, bits))
            break


def test_zero_function_on_twenty_variables():
    # the largest W(c) of the int32 butterfly: W(0) = 2^n, every other entry 0
    values = walsh_spectrum(TruthTable(20, np.zeros(1 << 20, dtype=np.uint8))).values
    assert values.dtype == np.int64
    assert values[0] == 1 << 20
    assert not values[1:].any()

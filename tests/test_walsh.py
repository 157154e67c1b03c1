"""Walsh spectra and bentness against a literal double-sum oracle."""

import random

import numpy as np
import pytest

from rotbent import AnfForm, is_bent, truth_table_from_anf, walsh_spectrum
from rotbent.boolfn import TruthTable
from rotbent.walsh import WalshSpectrum


def walsh_naive(bits, n, c):
    return sum(
        (-1) ** ((int(bits[i]) + (i & c).bit_count()) & 1) for i in range(1 << n)
    )


def literal_bent(tables, n):
    """Bentness of each row from W(c) = sum_x (-1)^(f(x) + <c,x>), as a matrix product."""
    idx = np.arange(1 << n)
    parity = np.array([[(c & x).bit_count() & 1 for x in idx] for c in idx])
    values = (1 - 2 * np.asarray(tables, dtype=np.int64)) @ (1 - 2 * parity).T
    return np.all(np.abs(values) == 1 << (n // 2), axis=1)


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


def test_quadratic_bent_on_four_variables():
    # x1x2 + x3x4 is the textbook bent function on four variables.
    tt = truth_table_from_anf(AnfForm(4, frozenset({0b0011, 0b1100})))
    assert is_bent(tt)


def test_exhaustive_four_variable_agreement():
    # Every 16-bit truth table: is_bent agrees with the literal definition,
    # and the known 896 are bent.
    words = np.arange(1 << 16)
    tables = (words[:, None] >> np.arange(16) & 1).astype(np.uint8)
    literal = literal_bent(tables, 4)
    for word in range(1 << 16):
        assert is_bent(TruthTable(4, tables[word])) == literal[word], word
    assert int(literal.sum()) == 896


def test_random_eight_variable_agreement():
    # random tables (almost never bent) and x1x5+x2x6+x3x7+x4x8 plus random
    # affine terms (always bent), against the literal definition
    rng = random.Random(47)
    tables = [random_table(rng, 8).bits for _ in range(2000)]
    inner = [((x & 15) & (x >> 4)).bit_count() & 1 for x in range(256)]
    for a in rng.sample(range(512), 64):
        affine = [(f + (a & x).bit_count() + (a >> 8)) & 1 for x, f in enumerate(inner)]
        tables.append(np.array(affine, dtype=np.uint8))
    literal = literal_bent(tables, 8)
    assert literal[2000:].all()
    for bits, want in zip(tables, literal):
        assert is_bent(TruthTable(8, bits)) == want


def test_bent_weight_precheck():
    # Bent tables have weight (2^n - 2^(n/2))/2 or (2^n + 2^(n/2))/2, since
    # W(0) = 2^n - 2*weight = +-2^(n/2): the fact the search's W(0) filter
    # rests on. On four variables every bent table has weight 6 or 10, and
    # is_bent rejects every table of any other weight.
    words = np.arange(1 << 16)
    tables = (words[:, None] >> np.arange(16) & 1).astype(np.uint8)
    weights = tables.sum(axis=1)
    literal = literal_bent(tables, 4)
    assert set(weights[literal].tolist()) == {6, 10}
    for word in np.flatnonzero((weights != 6) & (weights != 10)):
        assert not is_bent(TruthTable(4, tables[word])), word


def test_zero_function_on_twenty_variables():
    # the largest W(c) of the int32 butterfly: W(0) = 2^n, every other entry 0
    values = walsh_spectrum(TruthTable(20, np.zeros(1 << 20, dtype=np.uint8))).values
    assert values.dtype == np.int64
    assert values[0] == 1 << 20
    assert not values[1:].any()


def test_a_spectrum_needs_exactly_2n_values():
    for values in ([0] * 7, [0] * 9, np.zeros((2, 4), dtype=np.int64)):
        with pytest.raises(ValueError, match="spectrum for n=3 needs 8 values"):
            WalshSpectrum(3, values)


def test_spectra_compare_by_n_and_values():
    x1x2 = walsh_spectrum(truth_table_from_anf(AnfForm(4, frozenset({0b11}))))
    assert x1x2 == walsh_spectrum(truth_table_from_anf(AnfForm(4, frozenset({0b11}))))
    assert x1x2 != walsh_spectrum(truth_table_from_anf(AnfForm(4, frozenset({0b101}))))
    assert x1x2 != WalshSpectrum(2, x1x2.values[:4])
    assert x1x2.__eq__(x1x2.values) is NotImplemented and x1x2 != "x1x2"

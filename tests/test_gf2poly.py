"""GF(2)[x] arithmetic and the degree-2 bentness characterization."""

import itertools
import random
import signal

import pytest

from rotbent import (
    Sanf,
    circulant_nonsingular,
    classify_degree2,
    format_sanf,
    gf2_gcd,
    is_bent,
    is_bent_degree2_rots,
    is_bent_quadratic,
    orbit_expand,
    parse_sanf,
    poly_str,
    rots_quadratic_poly,
    sanf_truth_table,
)
from rotbent import gf2poly
from rotbent.gf2poly import gf2_mod, rank_gf2
from rotbent.rotsym import sanf_from_masks


def clmul(a, b):
    """Carry-less product: the reference the remainder and gcd tests build on."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def test_gcd_hand_cases():
    assert gf2_gcd(0b101, 0b11) == 0b11  # x^2+1 = (x+1)^2
    assert gf2_gcd(0b1001, 0b101) == 0b11  # x^3+1 and x^2+1 share x+1
    assert gf2_gcd(0b10011, 0b11001) == 1  # distinct irreducibles
    assert gf2_gcd(0, 0b101) == 0b101
    assert gf2_gcd(0b101, 0) == 0b101


def test_divmod_property():
    # a = q b + r with deg r < deg b (r below b's top bit), so r is a's remainder
    rng = random.Random(71)
    for _ in range(300):
        q = rng.randrange(1 << 16)
        b = rng.randrange(1, 1 << 12)
        r = rng.randrange(1 << (b.bit_length() - 1))
        assert gf2_mod(clmul(q, b) ^ r, b) == r, (q, b, r)


def test_gcd_divides_both():
    rng = random.Random(73)
    for _ in range(300):
        a = rng.randrange(1, 1 << 14)
        b = rng.randrange(1, 1 << 14)
        g = gf2_gcd(a, b)
        assert gf2_mod(a, g) == 0
        assert gf2_mod(b, g) == 0


def test_gcd_is_the_greatest_common_divisor():
    # gcd(g a, g b) = g gcd(a, b): a common divisor that misses a factor of g fails
    rng = random.Random(79)
    for _ in range(300):
        g, a, b = (rng.randrange(1, 1 << 10) for _ in range(3))
        assert gf2_gcd(clmul(g, a), clmul(g, b)) == clmul(g, gf2_gcd(a, b)), (g, a, b)


def test_poly_str():
    assert poly_str(0) == "0"
    assert poly_str(1) == "1"
    assert poly_str(2) == "x"
    assert poly_str(0b10011) == "x^4 + x + 1"


def test_rots_quadratic_poly():
    # x1x_e contributes x^(e-1) + x^(n-e+1); the middle orbit on even n
    # collapses to the single term x^(n/2).
    assert rots_quadratic_poly(parse_sanf("x1x2", 8)) == 0b10000010
    assert rots_quadratic_poly(parse_sanf("x1x5", 8)) == 0b10000
    assert rots_quadratic_poly(parse_sanf("x1x2+x1x5", 8)) == 0b10010010


def test_rank_gf2():
    assert rank_gf2([0b01, 0b10]) == 2
    assert rank_gf2([0b11, 0b11]) == 1
    assert rank_gf2([0b111, 0b011, 0b100]) == 2
    assert rank_gf2([]) == 0
    rng = random.Random(83)
    for _ in range(100):
        n = rng.randint(1, 8)
        rows = [rng.randrange(1 << n) for _ in range(rng.randint(0, 8))]
        assert rank_gf2(rows) == rank_oracle(rows)


def rank_oracle(rows):
    rows = [r for r in rows if r]
    rank = 0
    while rows:
        pivot = rows.pop()
        rank += 1
        low = pivot & -pivot
        rows = [r ^ pivot if r & low else r for r in rows]
        rows = [r for r in rows if r]
    return rank


def test_circulant_route_equals_gcd_with_binomial():
    rng = random.Random(89)
    for _ in range(200):
        n = rng.randint(2, 12)
        row = rng.randrange(1, 1 << n)
        assert circulant_nonsingular(row, n) == (gf2_gcd(row, (1 << n) | 1) == 1)


def test_four_routes_agree_on_all_degree2_candidates():
    for n in (2, 4, 6, 8, 10):
        reps = [1 | (1 << (e - 1)) for e in range(2, n // 2 + 2)]
        for size in range(1, len(reps) + 1):
            for chosen in itertools.combinations(reps, size):
                sanf = sanf_from_masks(chosen, n)
                by_gcd = is_bent_degree2_rots(sanf)
                by_circulant = circulant_nonsingular(rots_quadratic_poly(sanf), n)
                by_rank = is_bent_quadratic(orbit_expand(sanf))
                by_walsh = is_bent(sanf_truth_table(sanf))
                assert by_gcd == by_circulant == by_rank == by_walsh, sanf


def test_classify_frozen():
    assert [format_sanf(s) for s in classify_degree2(2)] == ["x1x2"]
    assert [format_sanf(s) for s in classify_degree2(4)] == ["x1x3", "x1x2+x1x3"]
    assert [format_sanf(s) for s in classify_degree2(6)] == [
        "x1x4",
        "x1x2+x1x3+x1x4",
    ]
    assert [format_sanf(s) for s in classify_degree2(8)] == [
        "x1x5",
        "x1x2+x1x5",
        "x1x3+x1x5",
        "x1x4+x1x5",
        "x1x2+x1x3+x1x5",
        "x1x2+x1x4+x1x5",
        "x1x3+x1x4+x1x5",
        "x1x2+x1x3+x1x4+x1x5",
    ]


def test_classify_matches_the_subset_definition():
    # the definition: every subset of e-values as a Sanf, kept when its gcd
    # route says bent
    for n in range(2, 17, 2):
        want = []
        evals = range(2, n // 2 + 2)
        for size in range(1, len(evals) + 1):
            for combo in itertools.combinations(evals, size):
                sanf = Sanf(n, tuple(1 | (1 << (e - 1)) for e in combo))
                if is_bent_degree2_rots(sanf):
                    want.append(sanf)
        assert classify_degree2(n) == want, n


def test_classify_members_are_bent():
    for n in (2, 4, 6, 8, 10):
        for sanf in classify_degree2(n):
            assert is_bent(sanf_truth_table(sanf))


def test_quadratic_route_rejects_higher_degree():
    with pytest.raises(ValueError):
        is_bent_quadratic(orbit_expand(parse_sanf("x1x2x3", 6)))


def test_classify_rejects_odd_n():
    with pytest.raises(ValueError):
        classify_degree2(7)


def test_mod_matches_divmod():
    # the edge cases of the division: a = 0, a < b as ints, a = b, and b = 0;
    # a = b ^ r has b's degree, so a < b as ints does not mean a is reduced
    rng = random.Random(97)
    cases = [(0, 1, 0), (0, 0b1011, 0), (0, 0b1011, 0b101), (1, 0b1011, 0), (1, 1, 0)]
    cases += [(1, 0b1011, 0b101), (1, 0b1011, 0b010)]  # a = 0b1110 > b, a = 0b1001 < b
    for _ in range(500):
        b = rng.randrange(1, 1 << rng.randint(1, 20))
        low = b.bit_length() - 1
        cases.append((0, b, rng.randrange(1 << low)))  # a = r < b
        cases.append((1, b, 0))  # a = b
        cases.append((1, b, rng.randrange(1 << low)))  # same degree, often a < b
        cases.append((rng.randrange(1 << rng.randint(1, 20)), b, rng.randrange(1 << low)))
    for q, b, r in cases:
        assert gf2_mod(clmul(q, b) ^ r, b) == r, (q, b, r)
    for a in (0, 1, 0b1011):
        with pytest.raises(ZeroDivisionError, match="^division by the zero polynomial$"):
            gf2_mod(a, 0)


@pytest.mark.parametrize(
    "call, args, negative",
    [
        (gf2_mod, (3, -1), -1),
        (gf2_mod, (-5, 3), -5),
        (gf2_gcd, (-1, 3), -1),
        (poly_str, (-6,), -6),
        (gf2_gcd, (-1, 0), -1),  # no remainder taken: gf2_mod never sees -1
    ],
)
def test_a_negative_polynomial_is_refused(call, args, negative):
    # XOR with a sign-extended int never lowers its bit length, so the
    # remainder loop would not end: the alarm turns a hang into a failure
    def hang(signum, frame):
        raise TimeoutError(f"{call.__name__}{args} did not return")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError, match=rf"^negative polynomial {negative}$"):
            call(*args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("n", [18, 20, 22, 24, 26, 28, 30])
def test_residue_route_matches_the_gcd_of_every_subset(n):
    evals = range(2, n // 2 + 2)
    want = []
    for size in range(1, len(evals) + 1):
        for combo in itertools.combinations(evals, size):
            p = 0
            for e in combo:
                p ^= gf2poly._e_term(e, n)
            if gf2_gcd(p, (1 << n) | 1) == 1:
                want.append(tuple(1 | (1 << (e - 1)) for e in combo))
    assert [s.reps for s in classify_degree2(n)] == want


def test_classify_counts_where_x_n_plus_1_is_a_power_of_x_plus_1():
    # p is coprime with (x + 1)^n iff p(1) = 1; each pair term
    # x^(e-1) + x^(n+1-e) is 0 at x = 1 and the middle term x^(n/2) is 1,
    # so exactly the subsets holding e = n/2 + 1 are bent
    for n in (2, 4, 8, 16):
        assert len(classify_degree2(n)) == 2 ** (n // 2 - 1), n


def test_classify_checks_n_before_any_residue_work(monkeypatch):
    def refuse(a, b):
        raise AssertionError("reduced a residue for an invalid n")

    monkeypatch.setattr(gf2poly, "gf2_mod", refuse)
    for n in (32, 0, 8.0, "8", None):
        with pytest.raises(ValueError):
            classify_degree2(n)


"""Independent reference computations used to check rotbent's outputs.

Nothing here imports rotbent.  Truth tables are built by evaluating every
monomial on every input, the Walsh transform is its own numpy formulation,
cover coefficients come from the reference spectrum, and counts come from
closed formulas.  `self_test` checks the fast routines against brute-force
sums for n <= 6; run it with `python3 bench/reference.py`.

Conventions match the package: x1 is the least significant index bit and a
monomial is the int mask of its variables.
"""

import math
import random
from itertools import combinations

import numpy as np


def rotations(m, n):
    """Every rotation of the mask m within n bits (with repeats)."""
    full = (1 << n) - 1
    return [((m << l) | (m >> (n - l))) & full for l in range(n)]


def orbit_key(m, n):
    """A label shared by exactly the masks of one rotation orbit."""
    return min(rotations(m, n))


def orbit_reps(n, w):
    """One mask per weight-w rotation orbit, by scanning all C(n, w) masks."""
    keys = set()
    for pos in combinations(range(n), w):
        keys.add(orbit_key(sum(1 << p for p in pos), n))
    return sorted(keys)


def expand(reps, n):
    """All monomials of the union of the orbits of `reps`; orbits must differ."""
    monos = set()
    for r in reps:
        orbit = set(rotations(r, n))
        if monos & orbit:
            raise ValueError("two representatives share an orbit")
        monos |= orbit
    return sorted(monos)


def truth_table(monomials, n):
    """0/1 table of the XOR of the monomials, evaluated input by input."""
    idx = np.arange(1 << n, dtype=np.int64)
    table = np.zeros(1 << n, dtype=np.uint8)
    for m in monomials:
        table ^= ((idx & m) == m).astype(np.uint8)
    return table


def walsh(table):
    """Walsh spectrum W(c) = sum_x (-1)^(f(x) + c.x), exact int64."""
    n = int(table.size).bit_length() - 1
    a = 1 - 2 * table.astype(np.int64)
    for i in range(n):
        a = a.reshape(-1, 2, 1 << i)  # axis 1 is index bit i
        a = np.concatenate((a[:, :1] + a[:, 1:], a[:, :1] - a[:, 1:]), axis=1)
    return a.reshape(-1)


def is_bent_spectrum(spectrum, n):
    return n % 2 == 0 and bool(np.all(np.abs(spectrum) == 1 << (n // 2)))


def parseval_holds(spectrum, n):
    """Sum of W(c)^2 over all c equals 4^n."""
    return int(np.sum(spectrum * spectrum)) == 1 << (2 * n)


def is_rotation_symmetric(table, n):
    idx = np.arange(1 << n, dtype=np.int64)
    rot = ((idx << 1) | (idx >> (n - 1))) & ((1 << n) - 1)
    return bool(np.array_equal(table, table[rot]))


def necklace_count(n, w):
    """Burnside: weight-w binary necklaces of length n."""
    g = math.gcd(n, w)
    total = 0
    for d in range(1, g + 1):
        if g % d == 0:
            total += _phi(d) * math.comb(n // d, w // d)
    return total // n


def _phi(d):
    return sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)


def v2(x):
    """2-adic valuation, math.inf for 0."""
    x = abs(int(x))
    return math.inf if x == 0 else (x & -x).bit_length() - 1


def cover_from_spectrum(spectrum, n, u):
    """H(u) = (-1)^|u| 2^(|u|-n) sum_{c superset of u} W(c)."""
    idx = np.arange(1 << n, dtype=np.int64)
    s = int(spectrum[(idx & u) == u].sum())
    w = u.bit_count()
    q, r = divmod(s, 1 << (n - w))
    if r:
        raise ArithmeticError(f"superset sum at u={u} is not divisible by 2^{n - w}")
    return -q if w % 2 else q


def all_cover_from_spectrum(spectrum, n):
    """H(u) for every u, by superset sums of the reference spectrum."""
    a = spectrum.astype(np.int64)
    for i in range(n):
        a = a.reshape(-1, 2, 1 << i)
        a = np.concatenate((a[:, :1] + a[:, 1:], a[:, 1:]), axis=1)
    s = a.reshape(-1)
    idx = np.arange(1 << n, dtype=np.int64)
    weight = np.zeros(1 << n, dtype=np.int64)
    for b in range(n):
        weight += (idx >> b) & 1
    q = s >> (n - weight)
    if np.any(q << (n - weight) != s):
        raise ArithmeticError("superset sums fail the power-of-two division")
    return np.where(weight & 1, -q, q)


def violates_valuation_bound(h, u, n):
    """True when H(u) breaks the bent condition v2(H(u)) > |u| - n/2."""
    return v2(h) <= u.bit_count() - n // 2


def degree2_bent_count_power_of_two(n):
    """Bent degree-2 rotation-symmetric functions when n is a power of two.

    x^n + 1 = (x + 1)^n over GF(2) then, so a row polynomial is coprime with
    it iff it has odd weight; that leaves 2^(n/2 - 1) of the 2^(n/2) subsets.
    """
    if n < 2 or n & (n - 1):
        raise ValueError("closed form needs n a power of two")
    return 1 << (n // 2 - 1)


def quadratic_is_bent(monomials, n):
    """Bentness of a quadratic form: its GF(2) adjacency matrix is nonsingular."""
    rows = [0] * n
    for m in monomials:
        bits = [j for j in range(n) if (m >> j) & 1]
        if len(bits) != 2:
            raise ValueError("quadratic_is_bent takes degree-2 monomials only")
        i, j = bits
        rows[i] ^= 1 << j
        rows[j] ^= 1 << i
    rank = 0
    for bit in range(n):
        pivot = next((k for k in range(rank, n) if (rows[k] >> bit) & 1), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for k in range(n):
            if k != rank and (rows[k] >> bit) & 1:
                rows[k] ^= rows[rank]
        rank += 1
    return rank == n


def degree2_bent_count(n):
    """Bent homogeneous degree-2 rotation-symmetric functions, by matrix rank."""
    reps = orbit_reps(n, 2)
    count = 0
    for size in range(1, len(reps) + 1):
        for chosen in combinations(reps, size):
            count += quadratic_is_bent(expand(chosen, n), n)
    return count


# -- brute force, for the self-test only ------------------------------------


def _table_brute(monomials, n):
    return [sum(1 for m in monomials if x & m == m) & 1 for x in range(1 << n)]


def _walsh_brute(bits, n):
    return [
        sum((-1) ** (bits[x] ^ ((c & x).bit_count() & 1)) for x in range(1 << n))
        for c in range(1 << n)
    ]


def _cover_brute(monomials, u):
    total = 0
    for size in range(len(monomials) + 1):
        for sub in combinations(monomials, size):
            acc = 0
            for m in sub:
                acc |= m
            if acc == u:
                total += (-2) ** size
    return total


def _orbit_count_brute(n, w):
    seen, count = set(), 0
    for m in range(1 << n):
        if m.bit_count() == w and m not in seen:
            seen.update(rotations(m, n))
            count += 1
    return count


def self_test():
    """Check every routine above against brute force for n <= 6; raise on a miss."""
    rng = random.Random(20130309)
    for n in range(1, 7):
        for w in range(1, n + 1):
            if necklace_count(n, w) != _orbit_count_brute(n, w):
                raise AssertionError(f"necklace count wrong at n={n} w={w}")
            if len(orbit_reps(n, w)) != necklace_count(n, w):
                raise AssertionError(f"orbit_reps wrong at n={n} w={w}")
        for _ in range(6):
            monos = rng.sample(range(1, 1 << n), min(rng.randint(1, 6), (1 << n) - 1))
            table = truth_table(monos, n)
            if table.tolist() != _table_brute(monos, n):
                raise AssertionError(f"truth table wrong at n={n}")
            spec = walsh(table)
            if spec.tolist() != _walsh_brute(table.tolist(), n):
                raise AssertionError(f"walsh wrong at n={n}")
            if not parseval_holds(spec, n):
                raise AssertionError(f"Parseval fails at n={n}")
            harr = all_cover_from_spectrum(spec, n)
            for u in range(1 << n):
                h = _cover_brute(monos, u)
                if h != cover_from_spectrum(spec, n, u) or h != int(harr[u]):
                    raise AssertionError(f"cover coefficient wrong at n={n} u={u}")
        if n % 2 == 0:
            reps = orbit_reps(n, 2)
            for size in range(1, len(reps) + 1):
                for chosen in combinations(reps, size):
                    monos = expand(chosen, n)
                    table = truth_table(monos, n)
                    if not is_rotation_symmetric(table, n):
                        raise AssertionError(f"orbit union not symmetric at n={n}")
                    bent = is_bent_spectrum(walsh(table), n)
                    if bent != quadratic_is_bent(monos, n):
                        raise AssertionError(f"rank route wrong at n={n} {chosen}")
            if n & (n - 1) == 0:
                brute = sum(
                    is_bent_spectrum(walsh(truth_table(expand(c, n), n)), n)
                    for size in range(1, len(reps) + 1)
                    for c in combinations(reps, size)
                )
                if brute != degree2_bent_count_power_of_two(n) or brute != degree2_bent_count(n):
                    raise AssertionError(f"degree-2 count wrong at n={n}")


if __name__ == "__main__":
    self_test()
    print("reference self-test passed (n <= 6)")

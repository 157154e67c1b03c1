"""GF(2)[x] arithmetic on int-encoded polynomials and degree-2 bentness.

A polynomial is a nonnegative int with bit j holding the coefficient of x^j,
so 0b10011 is x^4 + x + 1.

A homogeneous degree-2 rotation-symmetric function is determined by its set
of representatives x1 x_e with 2 <= e <= n/2 + 1 (larger e rewrites to the
equivalent n - e + 2, which orbit canonicalization already performs).  Its
bentness has three equivalent characterizations, all implemented here and
cross-checked in the tests:

  * gcd route: coprimality of a row polynomial with x^n + 1,
  * circulant route: nonsingularity of the circulant matrix of that row,
  * rank route: full rank of the symmetric adjacency matrix of the
    quadratic part (valid for any quadratic function, not just symmetric).

`classify_degree2` evaluates the gcd route for every subset at once by
residues: with n = 2^k m and m odd, x^n + 1 = (x^m + 1)^(2^k), so p is
coprime with x^n + 1 exactly when gcd(p mod (x^m + 1), x^m + 1) = 1.  The
2^(n/2) subsets share only 2^((m+1)/2) residues, one gcd each.  Each hit
is re-tested by the gcd with x^n + 1.
"""

import numpy as np

from .boolfn import _check_n, algebraic_degree
from .errors import InternalInconsistencyError
from .rotsym import Sanf, positions, rotate


def gf2_mod(a, b):
    """Remainder of a by b over GF(2); no quotient is built."""
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    db = b.bit_length()
    while (shift := a.bit_length() - db) >= 0:
        a ^= b << shift
    return a


def gf2_gcd(a, b):
    """Euclidean gcd; by GF(2) convention the result is its own normalization."""
    while b:
        a, b = b, gf2_mod(a, b)
    return a


def poly_str(p):
    """Readable form, highest degree first: 'x^4 + x + 1'."""
    if p == 0:
        return "0"
    terms = []
    for j in range(p.bit_length() - 1, -1, -1):
        if (p >> j) & 1:
            terms.append("1" if j == 0 else "x" if j == 1 else f"x^{j}")
    return " + ".join(terms)


def _deg2_e_values(sanf):
    n = sanf.n
    if n % 2:
        raise ValueError("degree-2 analysis needs an even number of variables")
    if sanf.homogeneous_degree != 2:
        raise ValueError("SANF is not homogeneous of degree 2")
    es = []
    for r in sanf.reps:
        p = positions(r)
        assert p[0] == 1 and 2 <= p[1] <= n // 2 + 1  # canonical reps guarantee this
        es.append(p[1])
    return es


def rots_quadratic_poly(sanf):
    """Row polynomial of the degree-2 SANF: sum of x^(e-1) + x^(n+1-e).

    The self-paired representative e = n/2 + 1 contributes the single term
    x^(n/2); distinct representatives touch disjoint exponent pairs, so the
    sum of the terms is their XOR.
    """
    return sum(_e_term(e, sanf.n) for e in _deg2_e_values(sanf))


def _e_term(e, n):
    """Row-polynomial term of the representative x1 x_e."""
    return 1 << (n // 2) if e == n // 2 + 1 else (1 << (e - 1)) | (1 << (n + 1 - e))


def is_bent_degree2_rots(sanf):
    """gcd route: bent iff the row polynomial is coprime with x^n + 1."""
    n = sanf.n
    return gf2_gcd(rots_quadratic_poly(sanf), (1 << n) | 1) == 1


def rank_gf2(rows):
    """Rank over GF(2) of a matrix given as int-encoded rows."""
    pivots = []
    for row in rows:
        for p in pivots:
            row = min(row, row ^ p)
        if row:
            pivots.append(row)
    return len(pivots)


def circulant_nonsingular(row, n):
    """Circulant route: rank of the n rotations of the first row."""
    rows = [rotate(row, j, n) for j in range(n)]
    return rank_gf2(rows) == n


def is_bent_quadratic(anf):
    """Rank route for any function of degree <= 2.

    Bent iff the symmetric matrix (a_ij) of the quadratic monomials x_i x_j
    is nonsingular over GF(2); linear and constant terms do not matter.
    """
    n = anf.n
    deg = algebraic_degree(anf)
    if deg is not None and deg > 2:
        raise ValueError(f"function has degree {deg}, not quadratic")
    rows = [0] * n
    for m in anf.monomials:
        if m.bit_count() == 2:
            i = (m & -m).bit_length() - 1
            j = m.bit_length() - 1
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return rank_gf2(rows) == n


def classify_degree2(n):
    """All bent homogeneous degree-2 rotation-symmetric functions on n variables.

    A subset S of e-values in [2, n/2+1] has the row polynomial p_S, the XOR
    of its terms, so p_S mod (x^m + 1), m the odd part of n, is the XOR of
    the terms' residues.  The residues of all 2^(n/2) subsets are built by
    doubling, r[S | bit_i] = r[S] ^ (term_i mod (x^m + 1)); the coprime
    subsets are those whose residue has gcd 1 with x^m + 1, one gcd per
    distinct residue.  Each becomes a `Sanf` re-tested by
    `is_bent_degree2_rots`, the gcd with x^n + 1.  Output is ordered by
    subset size, then lexicographically.
    """
    _check_n(n)
    if n % 2:
        raise ValueError("classification needs even n >= 2")
    m = n >> ((n & -n).bit_length() - 1)  # odd part of n
    g = (1 << m) | 1
    evals = range(2, n // 2 + 2)
    res = np.zeros(1, dtype=np.min_scalar_type(g))
    for e in evals:
        res = np.concatenate((res, res ^ gf2_mod(_e_term(e, n), g)))
    distinct, where = np.unique(res, return_inverse=True)
    coprime = np.array([gf2_gcd(r, g) == 1 for r in distinct.tolist()])[where]
    combos = sorted(
        (s.bit_count(), tuple(e for i, e in enumerate(evals) if s >> i & 1))
        for s in np.flatnonzero(coprime).tolist()
    )
    found = []
    for _, combo in combos:
        sanf = Sanf(n, tuple(1 | (1 << (e - 1)) for e in combo))
        if not is_bent_degree2_rots(sanf):
            raise InternalInconsistencyError(f"residue and gcd routes disagree on {sanf}")
        found.append(sanf)
    return found

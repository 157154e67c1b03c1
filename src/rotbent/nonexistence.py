"""Structural nonexistence rules for homogeneous rotation-symmetric functions.

`@_rule(name)` registers a rule body in `RULES` as a checker `check_*(sanf)`
with one contract.  The shared gate runs first: odd n and a degree above
n/2 are NOT_BENT at once (`odd-n`, `degree-bound`), and anything but
homogeneous degree >= 3 declines.  The body then returns NOT_BENT only
through `_try_witness` or a named bound (`gap-bounds(i)`-`(iii)`, the
block-pair spectral fallback), or else a decline reason, which becomes the
rule's INCONCLUSIVE report.

A witness is a mask u0 built by OR-combining rotations of a representative,
a chain length k and the claimed 2-adic valuation of the cover coefficient
H(u0); a valid one violates the valuation criterion.  `_try_witness`, the
one place a witness becomes a verdict, recomputes H(u0) by every feasible
cover-coefficient route (which must agree) and releases NOT_BENT only when
the claimed valuation is exact and the violation real; otherwise it
declines saying which.

Soundness contract: no checker may return NOT_BENT on a function the Walsh
test finds bent.  The test suite sweeps this over every homogeneous degree-3
SANF on 6, 8 and 10 variables.
"""

import functools
import weakref
from dataclasses import dataclass

from .boolfn import truth_table_from_anf
from .covercoef import _ARRAY_N_MAX, cover_coefficient, cover_coefficient_from_spectrum
from .errors import CapacityError, InternalInconsistencyError
from .rotsym import (
    cyclic_run_count,
    format_monomial,
    mask_to_bits,
    orbit_expand,
    positions,
    rotate,
    sanf_truth_table,
)
from .walsh import is_bent, walsh_spectrum

NOT_BENT = "NOT_BENT"
INCONCLUSIVE = "INCONCLUSIVE"
_SPECTRA = weakref.WeakKeyDictionary()  # Sanf -> its spectrum for witness checks


@dataclass(frozen=True)
class NonexistenceReport:
    """Outcome of one structural rule on one SANF."""

    n: int
    rule: str
    verdict: str
    witness_u0: object = None  # int mask, or None when the rule carries no witness
    witness_k: object = None
    claimed_valuation: object = None
    detail: str = ""

    def as_dict(self):
        return {
            "n": self.n,
            "rule": self.rule,
            "verdict": self.verdict,
            "witness_u0": None
            if self.witness_u0 is None
            else mask_to_bits(self.witness_u0, self.n),
            "witness_k": self.witness_k,
            "claimed_valuation": self.claimed_valuation,
            "detail": self.detail,
        }

    def text(self):
        parts = [f"{self.verdict} rule={self.rule}"]
        if self.witness_u0 is not None:
            parts.append(f"u0={mask_to_bits(self.witness_u0, self.n)}")
            parts.append(f"k={self.witness_k}")
            parts.append(f"v2={self.claimed_valuation}")
        if self.detail:
            parts.append(f"({self.detail})")
        return " ".join(parts)


def _valid_splits(u1, d1):
    """Split points l where both blocks of u1 start and end with a 1."""
    return [l for l in range(1, d1) if (u1 >> (l - 1)) & 1 and (u1 >> l) & 1]


def _max_index_gap(sanf):
    """Largest gap between consecutive set positions within any representative."""
    gaps = [b - a for pos in map(positions, sanf.reps) for a, b in zip(pos, pos[1:])]
    return max(gaps, default=0)


def _block_and_pair(d):
    """The masks of x1...xd and x1...x(d-1)x(d+1)."""
    return (1 << d) - 1, ((1 << (d - 1)) - 1) | (1 << d)


def _block_chain(u1, step, k, n):
    """OR of k rotations of u1 by 0, step, ..., (k-1)*step."""
    u0 = 0
    for j in range(k):
        u0 |= rotate(u1, j * step, n)
    return u0


def _gate(sanf):
    """Checks shared by the rules: odd n, the n/2 degree bound and
    homogeneous degree >= 3.  None when all pass, else the NOT_BENT report
    or the decline reason."""
    n = sanf.n
    if n % 2:
        return NonexistenceReport(
            n, "odd-n", NOT_BENT, detail="bent functions need an even number of variables"
        )
    deg = max(r.bit_count() for r in sanf.reps)
    if n >= 4 and deg > n // 2:
        return NonexistenceReport(
            n,
            "degree-bound",
            NOT_BENT,
            detail=f"degree {deg} exceeds the bent bound n/2 = {n // 2}",
        )
    d = sanf.homogeneous_degree
    if d is None or d < 3:
        return "rule needs homogeneous degree >= 3"
    return None


_REGISTERED = []  # (name, checker) pairs in definition order, frozen into RULES


def _rule(name):
    """Register `body(sanf, rule)` as rule `name`: its checker runs `_gate`
    first and the body only past it, and a decline string from either
    becomes the rule's INCONCLUSIVE report."""

    def register(body):
        @functools.wraps(body)
        def check(sanf):
            outcome = _gate(sanf) or body(sanf, name)
            if isinstance(outcome, str):
                return NonexistenceReport(sanf.n, name, INCONCLUSIVE, detail=outcome)
            return outcome

        _REGISTERED.append((name, check))
        return check

    return register


def verify_witness(sanf, report):
    """Recompute the witness valuation and confirm it breaks the criterion.

    True iff v2(H(u0)) equals the claimed valuation and that valuation
    violates the bent condition v2 > |u0| - n/2.  H(u0) comes from the
    monomial list, cross-checked against the spectrum when n <= 20.  Raises
    `CapacityError` when no route reaches H(u0) (more than 24 monomials and
    |u0| > 22).  Reports without witness fields, or with an all-ones u0,
    are rejected as a precondition error.
    """
    if report.witness_u0 is None:
        raise ValueError("report carries no witness")
    n = sanf.n
    u0 = report.witness_u0
    if u0 == (1 << n) - 1:
        raise ValueError("all-ones witnesses are excluded (separate criterion clause)")
    anf = orbit_expand(sanf)
    cv = cover_coefficient(sorted(anf.monomials), u0)
    if n % 2 == 0 and n <= _ARRAY_N_MAX:
        spec = _SPECTRA.get(sanf)
        if spec is None:
            spec = _SPECTRA[sanf] = walsh_spectrum(truth_table_from_anf(anf))
        other = cover_coefficient_from_spectrum(spec, u0)
        if other.value != cv.value:
            raise InternalInconsistencyError(
                f"cover routes disagree at u0: {cv.value} vs {other.value}"
            )
    violated = cv.valuation <= u0.bit_count() - n // 2
    return violated and cv.valuation == report.claimed_valuation


def _try_witness(sanf, rule, u0, k, claimed, detail):
    """The one place a witness becomes a verdict.

    The NOT_BENT report when `verify_witness` recomputes H(u0) and the
    violation holds; otherwise the decline reason, with the rule's own
    detail in parentheses.
    """
    report = NonexistenceReport(sanf.n, rule, NOT_BENT, u0, k, claimed, detail)
    try:
        if verify_witness(sanf, report):
            return report
        why = "witness did not verify"
    except CapacityError:
        why = "witness beyond numeric reach"
    return f"{why} ({detail})"


@_rule("shift-chain")
def check_shift_chain(sanf, rule):
    """Chains of d1-shifted copies of u1 whose cover valuation is too small.

    For each chain length k (k*d < n, k*d1 <= n) and each block split of u1,
    the rule requires that no monomial of the expanded SANF is a gap variant
    of the split blocks (other than u1 itself, the gap-0 variant).  When
    the patterns are excluded and k(d-1) >= n/2, the chain u0 has claimed
    valuation k, which breaks the bent criterion.
    """
    n, d = sanf.n, sanf.homogeneous_degree
    d1 = min(r.bit_length() for r in sanf.reps)  # least largest set position
    u1 = next(r for r in sanf.reps if r.bit_length() == d1)
    splits = _valid_splits(u1, d1)
    if not splits:
        return "u1 admits no two-block split"
    monomials = orbit_expand(sanf).monomials
    outcome = "no chain instantiation fires"
    # k runs while k*d < n and k*d1 <= n, from the least k with k(d-1) >= n/2
    for k in range((n // 2 + d - 2) // (d - 1), min((n - 1) // d, n // d1) + 1):
        for l in splits:
            a, b = u1 & ((1 << l) - 1), u1 >> l
            # gap variants keep a trailing empty position (g = 0 is u1 itself,
            # and at g = n - d1 a contiguous u1 would always self-match); the
            # fully wrapped arrangement is the second family
            variants = [a | (b << (l + g)) for g in range(1, n - d1)]
            variants.append(b | (a << (d1 - l + n - k * d1)))
            if any(v in monomials for v in variants):
                continue
            u0 = _block_chain(u1, d1, k, n)
            detail = f"k={k} l={l} d1={d1} chain of {format_monomial(u1)}"
            outcome = _try_witness(sanf, rule, u0, k, k, detail)
            if not isinstance(outcome, str):
                return outcome
    return outcome


@_rule("leading-block")
def check_leading_block(sanf, rule):
    """SANF containing x1...xd with every other orbit at least three-block.

    The chain witness depends on how d divides n; the n = 2d case uses the
    overlapping two-chain u1 OR rho^(d-1)(u1) covering all but one position.
    """
    n, d = sanf.n, sanf.homogeneous_degree
    block, _ = _block_and_pair(d)
    if block not in sanf.reps:
        return "no contiguous leading block"
    for r in sanf.reps:
        if r != block and cyclic_run_count(r, n) <= 2:
            return f"{format_monomial(r)} is two-block shaped"
    q, rem = divmod(n, d)
    if rem:
        k, u0 = q, _block_chain(block, d, q, n)
    elif q == 2:
        k, u0 = 2, _block_chain(block, d - 1, 2, n)
    else:
        k, u0 = q - 1, _block_chain(block, d, q - 1, n)
    detail = f"k={k} chain of {format_monomial(block)}"
    return _try_witness(sanf, rule, u0, k, k, detail)


@_rule("block-pair")
def check_block_pair(sanf, rule):
    """The exact pair x1...xd + x1...x(d-1)x(d+1), d >= 3: never bent.

    The chain witness fires for most n.  Where it does not verify (d = 3 with
    n = 6 or 10, and n = 2d for 5 <= d <= 11) the rule falls back to a direct
    spectral check, still returning NOT_BENT but without witness fields; past
    the full-table cap (n = 22) the table route refuses and the rule declines.
    """
    n, d = sanf.n, sanf.homogeneous_degree
    block, pair = _block_and_pair(d)
    if set(sanf.reps) != {block, pair}:
        return "SANF is not the block/pair shape"
    q, rem = divmod(n, d)
    if rem not in (0, 1):
        k, u0 = q, _block_chain(block, d, q, n)
    elif rem == 0 and q == 2:
        k, u0 = 2, _block_chain(block, d - 2, 2, n)
    else:  # rem == 0 with q >= 3, or rem == 1 (q >= 3: q = 2 would make n odd)
        k, u0 = q - 1, _block_chain(block, d, q - 1, n)
    detail = f"k={k} chain of {format_monomial(block)}"
    outcome = _try_witness(sanf, rule, u0, k, k, detail)
    if not isinstance(outcome, str):
        return outcome
    try:
        bent = is_bent(sanf_truth_table(sanf))
    except CapacityError:  # no table past the cap
        return outcome
    if not bent:
        return NonexistenceReport(
            n,
            rule,
            NOT_BENT,
            detail="direct spectral verification (chain witness does not violate "
            "the valuation bound at these parameters)",
        )
    return "function tested bent"  # unreachable for this shape; stay sound anyway


def _triple_params(sanf):
    """(n1, n2, n0, span, q, r) with n = q*(span+n0) + r + n1 + 1 for a single
    degree-3 orbit; None unless the SANF is one weight-3 rep with q >= 1."""
    if len(sanf.reps) != 1 or sanf.reps[0].bit_count() != 3:
        return None
    p1, p2, span = positions(sanf.reps[0])
    n1, n2 = p2 - p1 - 1, span - p2 - 1
    n0 = max(n1, n2)
    q, r = divmod(sanf.n - n1 - 1, span + n0)
    return (n1, n2, n0, span, q, r) if q >= 1 else None


@_rule("sparse-triple")
def check_sparse_triple(sanf, rule):
    """Single degree-3 orbit x1 x(2+n1) x(3+n1+n2) with a firing decomposition.

    Fires when q*(span - n0 - 1) >= r + n1 + 1; the witness chains q copies
    of the filled window u2 (the OR of n0+1 consecutive rotations of u1) and
    claims valuation q*(n0+1).
    """
    n = sanf.n
    params = _triple_params(sanf)
    if params is None:
        return "needs a single weight-3 representative with q >= 1"
    n1, n2, n0, span, q, r = params
    shape = f"n1={n1} n2={n2} n0={n0} span={span} q={q} r={r}"
    if q * (span - n0 - 1) < r + n1 + 1:
        return (
            f"bound not met: q(span-n0-1)={q * (span - n0 - 1)} < "
            f"r+n1+1={r + n1 + 1} with {shape}"
        )
    u2 = _block_chain(sanf.reps[0], 1, n0 + 1, n)
    u0 = _block_chain(u2, span + n0, q, n)
    detail = f"{shape} window u2={mask_to_bits(u2, n)}"
    return _try_witness(sanf, rule, u0, q, q * (n0 + 1), detail)


@_rule("gap-bounds")
def check_gap_bounds(sanf, rule):
    """Earlier nonexistence bounds driven by the largest index gap.

    Three conditions, tried in order on a homogeneous SANF of degree d >= 3
    (n >= 4): (i) the SANF is exactly x1...xd; (ii) it is exactly the
    block/pair shape with the side condition (n-2)/4 > floor(n/d); (iii) the
    max index gap satisfies gap < (n/2-1)/floor(n/d).  No witnesses: these
    bounds come from a different argument than the valuation rules.
    """
    n, d = sanf.n, sanf.homogeneous_degree  # the gate leaves n >= 2d >= 6
    floor_nd = n // d
    block, pair = _block_and_pair(d)
    notes = []

    if sanf.reps == (block,):
        return NonexistenceReport(
            n, f"{rule}(i)", NOT_BENT, detail="single contiguous block"
        )
    notes.append("(i) shape no")

    if set(sanf.reps) == {block, pair}:
        side = n - 2 > 4 * floor_nd
        text = (
            f"side condition (n-2)/4 > floor(n/d) evaluates "
            f"{(n - 2) / 4:g} > {floor_nd}, {'true' if side else 'false'}"
        )
        if side:
            return NonexistenceReport(
                n, f"{rule}(ii)", NOT_BENT, detail=f"block/pair shape, {text}"
            )
        notes.append(f"(ii) {text}")
    else:
        notes.append("(ii) shape no")

    gap = _max_index_gap(sanf)
    if 2 * gap * floor_nd < n - 2:
        return NonexistenceReport(
            n,
            f"{rule}(iii)",
            NOT_BENT,
            detail=f"max gap {gap} < (n/2-1)/floor(n/d) = {n // 2 - 1}/{floor_nd}",
        )
    notes.append(f"(iii) gap {gap} not below {n // 2 - 1}/{floor_nd}")
    return "; ".join(notes)


RULES = tuple(_REGISTERED)


def all_checks(sanf):
    """Run every rule; returns a list of (rule name, report) in fixed order."""
    return [(name, fn(sanf)) for name, fn in RULES]

"""Invariance under the multiplier group x_i -> x_{k*i mod n}, gcd(k, n) = 1.

The map sends rotation by one to rotation by k, so it carries orbits to
orbits and rotation-symmetric functions to rotation-symmetric functions; it
permutes variables, so it preserves bentness.  The structural rules are
sufficient conditions that depend on the shape of the representatives, so
a rule may fire on one image and not on another: only soundness is asserted
for them, not invariance.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from rotbent import (
    NOT_BENT,
    all_checks,
    bent_by_valuation,
    enumerate_orbit_reps,
    is_bent,
    orbit_expand,
    sanf_truth_table,
)
from rotbent.rotsym import sanf_from_masks


def multiply(mask, k, n):
    """Image of a monomial mask under 0-based position i -> k*i mod n."""
    return sum(1 << (k * i % n) for i in range(n) if (mask >> i) & 1)


@st.composite
def sanfs(draw):
    n = draw(st.sampled_from((4, 6, 8, 10, 12)))
    reps = enumerate_orbit_reps(n, draw(st.sampled_from((2, 3))))
    chosen = draw(st.lists(st.sampled_from(reps), min_size=1, unique=True))
    return sanf_from_masks(chosen, n)


@settings(max_examples=60, deadline=None)
@given(sanfs())
def test_verdicts_are_invariant_under_multipliers(sanf):
    n = sanf.n
    bent = is_bent(sanf_truth_table(sanf))
    assert bent_by_valuation(orbit_expand(sanf)) == bent
    for k in range(2, n):
        if math.gcd(k, n) != 1:
            continue
        image = sanf_from_masks([multiply(r, k, n) for r in sanf.reps], n)
        assert len(orbit_expand(image).monomials) == len(orbit_expand(sanf).monomials)
        assert is_bent(sanf_truth_table(image)) == bent, (sanf, k)
        assert bent_by_valuation(orbit_expand(image)) == bent, (sanf, k)
        if bent:
            for g in (sanf, image):
                for name, report in all_checks(g):
                    assert report.verdict != NOT_BENT, (name, g, k)

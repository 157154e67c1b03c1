"""Bentness analysis of rotation-symmetric Boolean functions.

Truth tables and ANF live in `boolfn`, orbit machinery and SANF handling in
`rotsym`, the spectral test in `walsh`, cover coefficients and the 2-adic
valuation criterion in `covercoef`, the degree-2 GCD characterization in
`gf2poly`, structural nonexistence rules in `nonexistence`, and exhaustive
search in `search`.  The names the demos, the benchmark and the README use
are re-exported here; everything else is imported from its submodule.
"""

from .boolfn import AnfForm, algebraic_degree, anf_from_truth_table, truth_table_from_anf
from .covercoef import (
    all_cover_coefficients,
    all_cover_from_spectrum,
    bent_by_valuation,
    cover_coefficient,
)
from .errors import CapacityError, InternalInconsistencyError
from .gf2poly import (
    circulant_nonsingular,
    classify_degree2,
    gf2_gcd,
    is_bent_degree2_rots,
    is_bent_quadratic,
    poly_str,
    rots_quadratic_poly,
)
from .nonexistence import INCONCLUSIVE, NOT_BENT, all_checks, verify_witness
from .rotsym import (
    Sanf,
    canonical_rep,
    enumerate_orbit_reps,
    format_monomial,
    format_sanf,
    mask_to_bits,
    orbit_count,
    orbit_expand,
    orbit_masks,
    parse_sanf,
    sanf_truth_table,
)
from .search import SearchResult, SearchTask, exhaustive_search, search_crosscheck
from .walsh import is_bent, walsh_spectrum

__version__ = "0.1.0"

__all__ = [
    "AnfForm",
    "CapacityError",
    "INCONCLUSIVE",
    "InternalInconsistencyError",
    "NOT_BENT",
    "Sanf",
    "SearchResult",
    "SearchTask",
    "algebraic_degree",
    "all_checks",
    "all_cover_coefficients",
    "all_cover_from_spectrum",
    "anf_from_truth_table",
    "bent_by_valuation",
    "canonical_rep",
    "circulant_nonsingular",
    "classify_degree2",
    "cover_coefficient",
    "enumerate_orbit_reps",
    "exhaustive_search",
    "format_monomial",
    "format_sanf",
    "gf2_gcd",
    "is_bent",
    "is_bent_degree2_rots",
    "is_bent_quadratic",
    "mask_to_bits",
    "orbit_count",
    "orbit_expand",
    "orbit_masks",
    "parse_sanf",
    "poly_str",
    "rots_quadratic_poly",
    "sanf_truth_table",
    "search_crosscheck",
    "truth_table_from_anf",
    "verify_witness",
    "walsh_spectrum",
]

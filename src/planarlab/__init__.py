"""planarlab: planar and Alltop-type polynomial functions over small
odd-characteristic finite fields, with exact MUB construction/verification,
Lucas binomial arithmetic, and exhaustive search campaigns."""

from .binom import base_p_digits, binom_mod_p, nonzero_support
from .classify import (
    DODecomposition,
    alltop_deltas_decompose,
    apply_equiv_transform,
    do_decompose,
    is_additive_function,
    is_alltop,
    is_do_monomial_planar,
    is_permutation,
    is_planar,
)
from .cyclo import CycVec, MagSqResult, char_sum, mag_sq, phase_inner_counts
from .errors import PlanarLabError
from .field import FieldElement, FieldSpec, make_field
from .mub import (
    MubSet,
    build_alltop_mubs,
    build_planar_mubs,
    export_mubs,
    import_mubs,
    verify_mub_set,
)
from .polyfun import (
    Poly,
    ZeroShiftWarning,
    delta,
    delta_table,
    double_delta,
    format_poly,
    parse_poly,
    predicted_delta_degree,
    preimage_degrees,
    shift_scale,
)
from .search import (
    FamilySpec,
    SearchReport,
    run_search,
    verify_alltop_hits_cubic,
    verify_char3_no_alltop,
    verify_monomial_delta_degrees,
)

__version__ = "0.1.0"

__all__ = [
    "CycVec",
    "DODecomposition",
    "FamilySpec",
    "FieldElement",
    "FieldSpec",
    "MagSqResult",
    "MubSet",
    "PlanarLabError",
    "Poly",
    "SearchReport",
    "ZeroShiftWarning",
    "alltop_deltas_decompose",
    "apply_equiv_transform",
    "base_p_digits",
    "binom_mod_p",
    "build_alltop_mubs",
    "build_planar_mubs",
    "char_sum",
    "delta",
    "delta_table",
    "do_decompose",
    "double_delta",
    "export_mubs",
    "format_poly",
    "import_mubs",
    "is_additive_function",
    "is_alltop",
    "is_do_monomial_planar",
    "is_permutation",
    "is_planar",
    "mag_sq",
    "make_field",
    "nonzero_support",
    "parse_poly",
    "phase_inner_counts",
    "predicted_delta_degree",
    "preimage_degrees",
    "run_search",
    "shift_scale",
    "verify_alltop_hits_cubic",
    "verify_char3_no_alltop",
    "verify_mub_set",
    "verify_monomial_delta_degrees",
]

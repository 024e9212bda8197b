"""Spindle numbers of compact symmetric spaces.

The catalog realizes twelve families of classical compact symmetric
spaces as matrix data (ambient algebra basis, involution, canonical
tangent element), computes the frequency decomposition of the canonical
element, and counts the knots of the closed geodesic it generates: the
spindle number. Exact integer arithmetic and numeric linear algebra are
kept as two independent routes that are required to agree.
"""

from . import errors
from .errors import SpindleError
from .linalg import (
    RationalAngle,
    default_eps,
    exp_generic,
    exp_structured,
)
from .spaces import (
    FAMILY_TAGS,
    SpaceFamily,
    SpaceInstance,
    build_space,
    canonical_element,
    catalog_entry,
    isotropy_contains,
    stated_membership,
    sweep_families,
)
from .spindle import (
    AdSpectrum,
    CartanSplit,
    SpindleReport,
    ad_matrix,
    ad_spectrum,
    cartan_split,
    center_divisibility_check,
    classify_time,
    closed_form_lambda,
    integer_frequencies,
    is_canonical,
    is_extrinsically_symmetric_type,
    jacobi_norm_sq,
    method_exact,
    method_numeric,
    normalize_canonical,
    product_spindle,
    slice_dimension,
    spindle_number,
)
from .verification import CheckResult, run_verification

__version__ = "0.1.0"

__all__ = [
    "AdSpectrum",
    "CartanSplit",
    "CheckResult",
    "FAMILY_TAGS",
    "RationalAngle",
    "SpaceFamily",
    "SpaceInstance",
    "SpindleError",
    "SpindleReport",
    "ad_matrix",
    "ad_spectrum",
    "build_space",
    "canonical_element",
    "cartan_split",
    "catalog_entry",
    "center_divisibility_check",
    "classify_time",
    "closed_form_lambda",
    "default_eps",
    "errors",
    "exp_generic",
    "exp_structured",
    "integer_frequencies",
    "is_canonical",
    "is_extrinsically_symmetric_type",
    "isotropy_contains",
    "jacobi_norm_sq",
    "method_exact",
    "method_numeric",
    "normalize_canonical",
    "product_spindle",
    "run_verification",
    "slice_dimension",
    "spindle_number",
    "stated_membership",
    "sweep_families",
    "__version__",
]

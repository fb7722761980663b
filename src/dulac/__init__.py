"""Truncated normal forms of polynomial vector fields in exact arithmetic.

The package computes Poincare-Dulac normal forms together with the
normalizing transformation, analyzes the fields commuting with a normal
form, evaluates the classical convergence criteria (Poincare domain,
Bruno's small-divisor condition paired with Condition A, Pliss
linearity, symmetry-based linearization) and checks the eigenvalue
nondegeneracy determinant used in bifurcation problems.  All arithmetic
runs over Gaussian rationals; nothing is ever rounded.
"""

from ._version import __version__
from .bifurcation import (
    ParamFamily,
    build_D,
    oscillator_pattern,
    suspend,
)
from .centralizer import (
    CentralizerBasis,
    centralizer_basis,
    kernel_intersection,
)
from .diagnostics import (
    ConditionAResult,
    CriterionCheck,
    DiagnosticsReport,
    GrowthClassification,
    condition_a,
    diagnose,
    growth_classify,
    pliss_linear,
)
from .errors import (
    BudgetExceededError,
    DegenerateEigenvaluesError,
    DimensionMismatchError,
    DulacError,
    InputFormatError,
    NonDiagonalLinearPartError,
    NotInNormalFormError,
    ParameterCountError,
    ScalarParseError,
    SingularLinearPartError,
    TruncationOrderError,
)
from .fieldfile import (
    family_from_dict,
    family_to_dict,
    field_from_dict,
    field_to_dict,
    load_document,
)
from .maps import NearIdentityMap, linear_conjugate
from .normalizer import (
    NormalFormResult,
    check_commute,
    normalize,
)
from .poly import (
    PolyScalar,
    PolyVectorField,
    Spectrum,
    apply_derivation,
    format_monomial,
    format_poly,
    lie_bracket,
    linear_field,
    restrict_to_axis,
)
from .resonance import (
    OmegaReport,
    ResonanceRelation,
    kernel_dimension_at_degree,
    omega_condition,
    poincare_domain,
    resonant_monomials,
)
from .scalars import GaussianRational, as_scalar

__all__ = [
    "__version__",
    "BudgetExceededError",
    "CentralizerBasis",
    "ConditionAResult",
    "CriterionCheck",
    "DegenerateEigenvaluesError",
    "DiagnosticsReport",
    "DimensionMismatchError",
    "DulacError",
    "GaussianRational",
    "GrowthClassification",
    "InputFormatError",
    "NearIdentityMap",
    "NonDiagonalLinearPartError",
    "NormalFormResult",
    "NotInNormalFormError",
    "OmegaReport",
    "ParamFamily",
    "ParameterCountError",
    "PolyScalar",
    "PolyVectorField",
    "ResonanceRelation",
    "ScalarParseError",
    "SingularLinearPartError",
    "Spectrum",
    "TruncationOrderError",
    "apply_derivation",
    "as_scalar",
    "build_D",
    "centralizer_basis",
    "check_commute",
    "condition_a",
    "diagnose",
    "family_from_dict",
    "family_to_dict",
    "field_from_dict",
    "field_to_dict",
    "format_monomial",
    "format_poly",
    "growth_classify",
    "kernel_dimension_at_degree",
    "kernel_intersection",
    "lie_bracket",
    "linear_conjugate",
    "linear_field",
    "load_document",
    "normalize",
    "omega_condition",
    "oscillator_pattern",
    "pliss_linear",
    "poincare_domain",
    "resonant_monomials",
    "restrict_to_axis",
    "suspend",
]

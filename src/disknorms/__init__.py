"""Norms, bounds, and counterexamples for integral operators on the unit disk.

The package is organized bottom-up:

- ``specfun``: series machinery (hypergeometric sums, Catalan's constant,
  the first Bessel zero) with explicit tail bounds.
- ``profiles``: the radial kernel-energy profiles behind every norm here.
- ``quadrature``: polar disk quadrature, including two independent routes
  for point singularities.
- ``operators``: the five integral transforms and their structural
  identities (adjointness, Wirtinger derivatives).
- ``norms``: the catalog of exact norms and proved bounds, extremal
  families, the L2 mode analysis, and the L2-to-sup counterexamples.
- ``verify`` / ``cli``: reproducible PASS/FAIL verification reports.
"""

from .errors import (
    ConfigurationError,
    DiskNormsError,
    DivergenceError,
    DomainError,
    EvaluationError,
    PrecisionError,
    UnsupportedQueryError,
)
from .norms import (
    COUNTEREXAMPLE_NAMES,
    NormKind,
    NormQuery,
    NormResult,
    Target,
    closed_form_norm,
    counterexample,
    counterexample_l2_mass,
    divergence_ladder,
    divergence_slope,
    extremal_function,
    fatou_limit_integrand,
    fatou_limit_integrand_adjoint,
    l2_norm_numeric,
    lower_bound_via_extremal,
    mode_best_constant,
    mode_rayleigh_maximum,
    mode_reduce,
    riesz_thorin_bound,
)
from .operators import (
    Operator,
    adjoint_pairing_residual,
    apply,
    dbar_identity_residual,
)
from .quadrature import (
    AnnulusExclude,
    DiskRule,
    Integral,
    Mobius,
    integrate_disk,
    integrate_disk_singular,
    truncated_singular_integral,
)

__version__ = "0.1.0"

__all__ = [
    "AnnulusExclude",
    "COUNTEREXAMPLE_NAMES",
    "ConfigurationError",
    "DiskNormsError",
    "DiskRule",
    "DivergenceError",
    "DomainError",
    "EvaluationError",
    "Integral",
    "Mobius",
    "NormKind",
    "NormQuery",
    "NormResult",
    "Operator",
    "PrecisionError",
    "Target",
    "UnsupportedQueryError",
    "adjoint_pairing_residual",
    "apply",
    "closed_form_norm",
    "counterexample",
    "counterexample_l2_mass",
    "dbar_identity_residual",
    "divergence_ladder",
    "divergence_slope",
    "extremal_function",
    "fatou_limit_integrand",
    "fatou_limit_integrand_adjoint",
    "integrate_disk",
    "integrate_disk_singular",
    "l2_norm_numeric",
    "lower_bound_via_extremal",
    "mode_best_constant",
    "mode_rayleigh_maximum",
    "mode_reduce",
    "riesz_thorin_bound",
    "truncated_singular_integral",
    "__version__",
]

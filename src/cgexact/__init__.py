"""cgexact: exact Clebsch-Gordan coefficients by three independent routes.

Coefficients are computed as exact sums of signed square roots of rationals,
one term per commensurability class (each term stored as its sign and the
reduced integer pair of its square), via a binomial-ratio closed form, Racah's factorial
formula, and explicit ladder-operator subspace reconstruction; the
verification module certifies their mutual agreement by exact equality.
"""

from .formulas import (
    CouplingSpec,
    MalformedCouplingError,
    ThreeJSpec,
    ValidationResult,
    Validity,
    cell_specs,
    cg_alternative,
    cg_racah,
    cg_to_wigner3j,
    validate,
    wigner3j,
)
from .ladder import (
    CoefficientRecord,
    TableRoute,
    build_full_table,
    cg_ladder,
)
from .numerics import (
    HalfInt,
    NegativeRadicandError,
    RadicalSum,
    binomial,
    sum_signed_sqrts,
    to_decimal,
)
from .verification import (
    CHECKS,
    Counterexample,
    VerificationReport,
    check_condon_shortley,
    check_formula_agreement,
    check_ladder_consistency,
    check_radical_collapse,
    check_threej_symmetries,
    check_unitarity,
    check_unitarity_sweep,
    run_checks,
)

__version__ = "0.1.0"

__all__ = [
    "CHECKS",
    "CoefficientRecord",
    "Counterexample",
    "CouplingSpec",
    "HalfInt",
    "MalformedCouplingError",
    "NegativeRadicandError",
    "RadicalSum",
    "TableRoute",
    "ThreeJSpec",
    "ValidationResult",
    "Validity",
    "VerificationReport",
    "binomial",
    "build_full_table",
    "cell_specs",
    "cg_alternative",
    "cg_ladder",
    "cg_racah",
    "cg_to_wigner3j",
    "check_condon_shortley",
    "check_formula_agreement",
    "check_ladder_consistency",
    "check_radical_collapse",
    "check_threej_symmetries",
    "check_unitarity",
    "check_unitarity_sweep",
    "run_checks",
    "sum_signed_sqrts",
    "to_decimal",
    "validate",
    "wigner3j",
    "__version__",
]

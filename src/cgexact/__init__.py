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
    cell_specs,
    cg_alternative,
    cg_racah,
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
    "VerificationReport",
    "build_full_table",
    "cell_specs",
    "cg_alternative",
    "cg_ladder",
    "cg_racah",
    "check_condon_shortley",
    "check_formula_agreement",
    "check_ladder_consistency",
    "check_radical_collapse",
    "check_threej_symmetries",
    "check_unitarity_sweep",
    "run_checks",
    "to_decimal",
    "wigner3j",
    "__version__",
]

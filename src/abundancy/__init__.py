"""Exact and certified arithmetic around the abundancy index sigma(n)/n,
with the constraint machinery for odd-perfect-number candidates.

Integers are exact and unbounded, index values are exact rationals, and every
irrational quantity (logarithms, real powers, square roots) is a rigorous
enclosure produced with directed rounding, so each strict inequality reported
by this package is certified rather than floated.
"""

from .arith import (
    Factorization,
    FactorizationBudgetError,
    factorize,
    gcd,
    is_perfect,
    is_prime,
    omega,
    primes_up_to,
    sigma,
    sigma_oracle,
    valuation,
)
from .index import (
    ExponentValue,
    SandwichResult,
    SandwichStatus,
    abundancy_exponent,
    abundancy_index,
    index_lower_bound,
    prime_power_exponent,
    prime_power_index,
    reciprocal_exponent,
    sandwich_check,
    square_index_relation,
)
from .interval import (
    Comparison,
    DEFAULT_PRECISION,
    IntervalReal,
    PrecisionConfig,
    escalate,
    exp_interval,
    exp_ratio,
    ln_ratio,
    pow_interval,
    sqrt_ratio,
)
from .mersenne import (
    EuclideanForm,
    even_perfect_from_exponent,
    lucas_lehmer,
    mersenne_scan,
)
from .opn import (
    CeilingScan,
    Check,
    CheckStatus,
    ConstraintReport,
    EulerianCandidate,
    OrderPredicates,
    PremiseError,
    ResidualCase,
    ResidualClassification,
    acquaah_konyagin_holds,
    ceiling_interval,
    ceiling_scan,
    euler_sum_bound,
    euler_sum_bound_limit,
    order_predicates,
    residual_case_classify,
    validate_eulerian,
)
from .report import ReportSizes, ReproductionReport, reference_constants, run_report

__version__ = "0.1.0"

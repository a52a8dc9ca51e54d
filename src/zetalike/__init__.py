"""zetalike: exact computation of two families of zeta-like multiple series.

The rho-family (nested sums over rising-factorial blocks) evaluates to exact
rationals; the eta-family (single sums over consecutive shifted powers)
reduces symbolically to Q-linear combinations of 1 and zeta(k).  The package
bundles the closed-form machinery (harmonic numbers, cycle-index polynomials,
truncated zeta-star sums), a verification suite for every identity it
implements, and a CLI for tables and reports.
"""

from .compositions import compositions, weak_compositions
from .errors import (
    FixtureError,
    InadmissibleIndexError,
    PoleError,
    QuadratureConvergenceError,
    ToleranceError,
    ZetalikeError,
)
from .eta import (
    EtaIndex,
    PartialFractionTable,
    ZetaExpr,
    eta_hook_closed_form,
    eta_numeric,
    eta_restricted_triple_sum,
    eta_symbolic,
    partial_fraction_shifted,
)
from .harmonic import (
    alternating_binomial_sum,
    bell_polynomial,
    harmonic,
    harmonic_vector,
    mzv_star_truncated,
)
from .numeric import (
    ApproxReal,
    Rational,
    bernoulli_number,
    rising_factorial,
    zeta_constant,
    zeta_pi_power_factor,
)
from .rho import (
    RhoIndex,
    rho_alternating,
    rho_exact,
    rho_head_ones,
    rho_increasing,
    rho_series_partial_at,
    rho_uniform,
    suffix_balance_sum,
)
from .verify import (
    SUITES,
    VerificationReport,
    rerun,
    run_check,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxReal",
    "EtaIndex",
    "FixtureError",
    "InadmissibleIndexError",
    "PartialFractionTable",
    "PoleError",
    "QuadratureConvergenceError",
    "Rational",
    "RhoIndex",
    "SUITES",
    "ToleranceError",
    "VerificationReport",
    "ZetaExpr",
    "ZetalikeError",
    "alternating_binomial_sum",
    "bell_polynomial",
    "bernoulli_number",
    "compositions",
    "eta_hook_closed_form",
    "eta_numeric",
    "eta_restricted_triple_sum",
    "eta_symbolic",
    "harmonic",
    "harmonic_vector",
    "mzv_star_truncated",
    "partial_fraction_shifted",
    "rerun",
    "rho_alternating",
    "rho_exact",
    "rho_head_ones",
    "rho_increasing",
    "rho_series_partial_at",
    "rho_uniform",
    "rising_factorial",
    "run_check",
    "run_suite",
    "suffix_balance_sum",
    "weak_compositions",
    "zeta_constant",
    "zeta_pi_power_factor",
]

"""zetalike: exact computation of two families of zeta-like multiple series.

The rho-family (nested sums over rising-factorial blocks) evaluates to exact
rationals; the eta-family (single sums over consecutive shifted powers)
reduces symbolically to Q-linear combinations of 1 and zeta(k).  The package
bundles the closed-form machinery (harmonic numbers, cycle-index polynomials,
truncated zeta-star sums), a verification suite for every identity it
implements, and a CLI for tables and reports.

Each name in ``__all__`` loads the submodule it lives in on first use (a PEP
562 ``__getattr__``), so ``import zetalike`` alone loads no submodule.
"""

import importlib

__version__ = "0.1.0"

# the exported names, by the submodule each lives in
_HOMES = {
    "compositions": ("weak_compositions",),
    "errors": ("FixtureError", "InadmissibleIndexError", "PoleError",
               "QuadratureConvergenceError", "ToleranceError", "ZetalikeError"),
    "eta": ("EtaIndex", "PartialFractionTable", "ZetaExpr", "eta_hook_closed_form",
            "eta_numeric", "eta_restricted_triple_sum", "eta_symbolic",
            "partial_fraction_shifted"),
    "harmonic": ("alternating_binomial_sum", "bell_polynomial", "harmonic_vector",
                 "mzv_star_truncated"),
    "numeric": ("ApproxReal", "Rational", "bernoulli_number", "zeta_constant",
                "zeta_pi_power_factor"),
    "rho": ("RhoIndex", "rho_alternating", "rho_exact", "rho_head_ones", "rho_increasing",
            "rho_series_partial_at", "rho_uniform", "suffix_balance_sum"),
    "verify": ("SUITES", "VerificationReport", "rerun", "run_check", "run_suite"),
}
_HOME_OF = {name: home for home, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name: str):
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

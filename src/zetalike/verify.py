"""End-to-end identity verification with structured, serializable reports.

Every cross-family identity the library implements is checked here in exact
arithmetic wherever both sides are exact; the only numeric acceptance path is
the 2-D quadrature check, which carries its own tolerance.  A failed check is
data, not an exception: the report records both sides and their exact
discrepancy so convention ambiguities surface as reviewable artifacts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Union

import mpmath
import numpy as np

from .errors import FixtureError, ZetalikeError
from .eta import (
    ZetaExpr,
    eta_hook_closed_form,
    eta_restricted_triple_sum,
    eta_symbolic,
)
from .harmonic import bell_polynomial, harmonic, harmonic_vector
from .numeric import ApproxReal, Rational, factorial
from .quadrature import integrate_unit_square
from .rho import (
    indices,
    rho_exact,
    rho_sum_fixed_weight,
    rho_sum_general,
    rho_weighted_sum,
    suffix_balance_sum,
)
from . import tables

Value = Union[Rational, ZetaExpr, ApproxReal]

__all__ = [
    "VerificationReport",
    "verify_rho_eta_connection",
    "verify_eta_hook_sum",
    "verify_weighted_eta_sum",
    "verify_weighted_corollaries",
    "verify_remark_chain",
    "verify_tables",
    "quadrature_check_integral",
    "verify_suffix_balance",
    "value_to_json",
    "value_from_json",
    "CHECKS",
    "SUITES",
    "run_suite",
    "rerun",
]


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------

def value_to_json(v: Value) -> dict:
    """Shared value encoding: exact values carry constant + zeta map, numeric
    values carry a decimal string and an error bound."""
    if isinstance(v, ApproxReal):
        return {
            "value": mpmath.nstr(v.value, min(v.dps, 20)),
            "error_bound": mpmath.nstr(v.error_bound, 3),
        }
    if isinstance(v, (int, Fraction)):
        v = ZetaExpr(v)
    if isinstance(v, ZetaExpr):
        return v.to_json_dict()
    raise TypeError(f"cannot serialize {type(v).__name__}")


def value_from_json(obj: dict) -> Value:
    if "error_bound" in obj:
        return ApproxReal(mpmath.mpf(obj["value"]), mpmath.mpf(obj["error_bound"]))
    expr = ZetaExpr.from_json_dict(obj)
    return expr.constant if expr.is_rational() else expr


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one identity check."""

    identity_id: str
    parameters: dict
    lhs: Value
    rhs: Value
    passed: bool
    discrepancy: Value
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {
            "identity": self.identity_id,
            "parameters": dict(self.parameters),
            "lhs": value_to_json(self.lhs),
            "rhs": value_to_json(self.rhs),
            "passed": self.passed,
            "discrepancy": value_to_json(self.discrepancy),
        }
        if self.details:
            out["details"] = {k: str(v) for k, v in self.details.items()}
        return out


def _exact_report(identity_id, parameters, lhs, rhs, details=None) -> VerificationReport:
    """Report for two exact values; ZetaExpr lhs must also be purely rational
    when rhs is rational (zeta-cancellation is part of the check)."""
    lhs_e = ZetaExpr.coerce(lhs)
    rhs_e = ZetaExpr.coerce(rhs)
    diff = lhs_e - rhs_e
    passed = diff.is_zero()
    return VerificationReport(
        identity_id, dict(parameters), lhs, rhs, passed, diff, details or {}
    )


# --------------------------------------------------------------------------
# Enumeration helpers
# --------------------------------------------------------------------------

def _eta_sum(idxs: Iterable[tuple[int, ...]]) -> ZetaExpr:
    return sum(map(eta_symbolic, idxs), ZetaExpr(0))


def _split_eta_sum(n: int, q: int, last: int, ones: int) -> ZetaExpr:
    # sum over r+s=n, |a|=q of eta(a_1+1, ..., a_r+1, a_{r+1}+last, {1}^(s+ones))
    return _eta_sum(
        idx + (1,) * (n - r + ones)
        for r in range(n + 1)
        for idx in indices(q + r + last, r + 1, last)
    )


# --------------------------------------------------------------------------
# Cross-family identities
# --------------------------------------------------------------------------

def verify_rho_eta_connection(q: int, r: int) -> VerificationReport:
    """Fixed-weight eta-sums over depth r+2 equal rho-sums over depth q+1:

        sum_{|s|=q} eta(s_1+1, ..., s_{r+2}+1)
            = sum_{|a|=r} rho(a_1+1, ..., a_q+1, a_{q+1}+2).

    Passing requires the eta side's zeta-coefficients to cancel exactly, not
    just the totals to agree numerically.
    """
    if q < 0 or r < 0:
        raise ValueError(f"need q, r >= 0, got ({q}, {r})")
    lhs = _eta_sum(indices(q + r + 2, r + 2))
    rhs = sum(map(rho_exact, indices(q + r + 2, q + 1, 2)), Fraction(0))
    return _exact_report("rho-eta-connection", {"q": q, "r": r}, lhs, rhs)


def verify_eta_hook_sum(n: int, q: int) -> VerificationReport:
    """Hook-shaped eta-sums against the cycle-index closed form:

        sum_{r+s=n, |a|=q} eta(a_1+1, ..., a_r+1, a_{r+1}+2, {1}^s)
            = P_{q+1}(H_n^(1), ..., H_n^(q+1)) / (n n!).
    """
    if n < 1 or q < 0:
        raise ValueError(f"need n >= 1 and q >= 0, got ({n}, {q})")
    lhs = _split_eta_sum(n, q, 2, 0)
    rhs = bell_polynomial(q + 1, harmonic_vector(n, q + 1)) / (n * factorial(n))
    return _exact_report("eta-hook-sum", {"n": n, "q": q}, lhs, rhs)


def verify_weighted_eta_sum(n: int, q: int) -> VerificationReport:
    """Trailing-ones variant:

        sum_{r+s=n, |a|=q} eta(a_1+1, ..., a_{r+1}+1, {1}^(s+1))
            = (-1)^(q+1)/(n (n+1)!)
              + (1/(n n!)) sum_{k=0}^q (-1)^(q-k) P_k(H_n^(1), ..., H_n^(k)).

    The left side counts each printed index once per (r, s, a) that generates
    it; that multiplicity is what turns into the (b+1)-style weights of the
    specialized corollaries, which pin this reading down.
    """
    if n < 1 or q < 0:
        raise ValueError(f"need n >= 1 and q >= 0, got ({n}, {q})")
    lhs = _split_eta_sum(n, q, 1, 1)
    rhs = Fraction((-1) ** (q + 1), n * factorial(n + 1))
    acc = Fraction(0)
    for k in range(q + 1):
        acc += (-1) ** (q - k) * bell_polynomial(k, harmonic_vector(n, k))
    rhs += acc / (n * factorial(n))
    return _exact_report(
        "weighted-eta-sum",
        {"n": n, "q": q},
        lhs,
        rhs,
        details={"index_layout": "(a_1+1..a_{r+1}+1, {1}^(s+1)) over r+s=n"},
    )


def verify_weighted_corollaries(kind: str, param: int) -> VerificationReport:
    """The printed specializations of the trailing-ones identity.

    kind="w121" (param=n): sum (b+1) eta({1}^a, 2, {1}^(b+1)) over a+b=n
        equals ((n+1) H_n - n) / (n (n+1)!).
    kind="w122" (param=n): the analogous order-3 combination equals
        (2n + (n+1)(H_n^2 - 2 H_n + H_n^(2))) / (2n (n+1)!).
    kind="e38" (param=q): sum_{a1+a2=q} eta(a1+1, a2+1, 1) + eta(q+1, 1, 1)
        equals 1/2.
    """
    if kind == "w121":
        n = param
        if n < 1:
            raise ValueError(f"w121 needs n >= 1, got {n}")
        lhs = ZetaExpr(0)
        for a in range(n + 1):
            b = n - a
            lhs = lhs + eta_symbolic((1,) * a + (2,) + (1,) * (b + 1)) * (b + 1)
        rhs = ((n + 1) * harmonic(n) - n) / (n * factorial(n + 1))
        return _exact_report("w121", {"n": n}, lhs, rhs)
    if kind == "w122":
        n = param
        if n < 1:
            raise ValueError(f"w122 needs n >= 1, got {n}")
        lhs = ZetaExpr(0)
        for a in range(n + 1):
            b = n - a
            lhs = lhs + eta_symbolic((1,) * a + (3,) + (1,) * (b + 1)) * (b + 1)
        for a in range(n):
            for b in range(n - a):
                c = n - 1 - a - b
                idx = (1,) * a + (2,) + (1,) * b + (2,) + (1,) * (c + 1)
                lhs = lhs + eta_symbolic(idx) * (c + 1)
        h1, h2 = harmonic(n), harmonic(n, 2)
        rhs = (2 * n + (n + 1) * (h1**2 - 2 * h1 + h2)) / (2 * n * factorial(n + 1))
        return _exact_report("w122", {"n": n}, lhs, rhs)
    if kind == "e38":
        q = param
        if q < 0:
            raise ValueError(f"e38 needs q >= 0, got {q}")
        lhs = _eta_sum(idx + (1,) for idx in indices(q + 2, 2))
        lhs = lhs + eta_symbolic((q + 1, 1, 1))
        return _exact_report("e38", {"q": q}, lhs, Fraction(1, 2))
    raise ValueError(f"unknown corollary kind {kind!r}")


def verify_remark_chain(n: int, q: int) -> VerificationReport:
    """Four independent computations of one quantity, checked pairwise equal:

    A: the hook-shaped eta-enumeration over r+s=n, |a|=q;
    B: P_{q+1}(H_n^(1..q+1)) / (n n!);
    C: sum_{|s|=n-1} rho(s_1+1, ..., s_{q+1}+1, s_{q+2}+2);
    D: sum_{|a|=q+1} eta(a_1+1, ..., a_{n+1}+1).
    """
    hook = verify_eta_hook_sum(n, q)
    a_val, b_val = hook.lhs, hook.rhs
    c_val = rho_sum_fixed_weight(n - 1, q + 2)[0]
    d_val = _eta_sum(indices(q + n + 2, n + 1))
    values = [a_val, ZetaExpr.coerce(b_val), ZetaExpr.coerce(c_val), d_val]
    passed = all(v == values[0] for v in values[1:])
    worst = ZetaExpr(0)
    for v in values[1:]:
        diff = v - values[0]
        if not diff.is_zero():
            worst = diff
    return VerificationReport(
        "remark-chain",
        {"n": n, "q": q},
        a_val,
        d_val,
        passed,
        worst,
        details={
            "eta_hook_enumeration": a_val.render(),
            "bell_closed_form": str(b_val),
            "rho_enumeration": str(c_val),
            "eta_flat_enumeration": d_val.render(),
        },
    )


# --------------------------------------------------------------------------
# Table reproduction and balance
# --------------------------------------------------------------------------

def verify_tables(weight_min: int = 2, weight_max: int = 6) -> list[VerificationReport]:
    """Compare computed values against the shipped printed-value fixtures for
    every admissible index in the weight range."""
    if not (2 <= weight_min <= weight_max <= 6):
        raise FixtureError(
            f"fixtures cover weights 2..6, requested {weight_min}..{weight_max}"
        )
    return [
        CHECKS[cid].fn(**p)
        for cid, p in _select("tables", weight_max)
        if p["weight"] >= weight_min
    ]


def verify_suffix_balance(q: int, n: int) -> VerificationReport:
    return _exact_report(
        "suffix-balance", {"q": q, "n": n}, suffix_balance_sum(q, n), Fraction(1)
    )


# --------------------------------------------------------------------------
# Quadrature check
# --------------------------------------------------------------------------

def quadrature_check_integral(n: int, q: int, tol: float = 1e-6) -> VerificationReport:
    """Check the double-integral representation

        sum_{|a|=q+1} eta(a_1+1, ..., a_{n+1}+1)
            = (1/(n! q!)) int_{0<t1<t2<1} (log(t2/t1))^q (1-t1)^n
                                          dt1 dt2 / ((1-t1) t2)

    numerically.  The substitution t1 = u t2 maps the triangle onto the unit
    square with integrand (log(1/u))^q (1 - u t2)^(n-1), which tanh-sinh
    handles at both singular corners.
    """
    if n < 0 or q < 0:
        raise ValueError(f"need n, q >= 0, got ({n}, {q})")
    if tol < 1e-9:
        raise ValueError(f"tolerance below the float64 quadrature floor: {tol}")
    lhs_expr = _eta_sum(indices(q + n + 2, n + 1))
    lhs = lhs_expr.numeric(14)

    def integrand(u, uc, v, vc):
        s = uc + vc - uc * vc  # = 1 - u*v without cancellation
        if n == 0:
            base = 1.0 / s
        elif n == 1:
            base = np.ones_like(s)
        else:
            base = s ** (n - 1)
        if q == 0:
            return base
        return (-np.log(u)) ** q * base

    value, est, level = integrate_unit_square(integrand, tol / 4)
    scale = 1.0 / (factorial(n) * factorial(q))
    rhs = ApproxReal(mpmath.mpf(value * scale), mpmath.mpf(est * scale * 2 + 1e-14), 17)
    gap = abs(lhs.value - rhs.value)
    passed = gap <= mpmath.mpf(tol) + lhs.error_bound + rhs.error_bound
    return VerificationReport(
        "quadrature-integral",
        {"n": n, "q": q},
        lhs,
        rhs,
        bool(passed),
        ApproxReal(gap, lhs.error_bound + rhs.error_bound, 17),
        details={"quadrature_level": level, "tolerance": tol},
    )


# --------------------------------------------------------------------------
# Check registry
# --------------------------------------------------------------------------

class Check(NamedTuple):
    """One identity: the suite it runs in, ``fn(**params)`` building its
    report, the parameter grid in report order, and ``weight_of(**params)``,
    the weight a ``max_weight`` cap compares against.

    Entries call the kernels through this module's globals at call time, so
    a wrapper patched over a kernel is seen by every check.
    """

    suite: str
    fn: Callable[..., VerificationReport]
    grid: tuple[dict, ...]
    weight_of: Callable[..., int]


def _grid(**axes: Iterable[int]) -> tuple[dict, ...]:
    """Every combination of the axes' values, the first axis outermost."""
    return tuple(dict(zip(axes, cell)) for cell in itertools.product(*axes.values()))


def _table_grid(min_last: int) -> tuple[dict, ...]:
    # the indices of every fixture weight whose last entry is at least min_last
    return tuple(
        {"index": ",".join(map(str, idx)), "weight": w}
        for w in tables.FIXTURE_WEIGHTS
        for idx in indices(w, last=min_last)
    )


def _table_report(identity_id, parameters, value, reference) -> VerificationReport:
    idx = tuple(int(x) for x in parameters["index"].split(","))
    return _exact_report(identity_id, parameters, value(idx), reference(idx))


# insertion order is report order: suites run in the order they first
# appear, and a suite's checks in the order listed (but see _select on tables)
CHECKS: dict[str, Check] = {
    "table-rho": Check(
        "tables",
        lambda **p: _table_report("table-rho", p, rho_exact, tables.rho_reference),
        _table_grid(2),
        lambda index, weight: weight,
    ),
    "table-eta": Check(
        "tables",
        lambda **p: _table_report("table-eta", p, eta_symbolic, tables.eta_reference),
        _table_grid(1),
        lambda index, weight: weight,
    ),
    "rho-sum-fixed-weight": Check(
        "rho-sum",
        lambda **p: _exact_report(
            "rho-sum-fixed-weight", p, *rho_sum_fixed_weight(**p)
        ),
        _grid(m=range(11), r=range(1, 7)),
        lambda m, r: m + r + 1,
    ),
    "rho-sum-general": Check(
        "rho-sum",
        lambda **p: _exact_report("rho-sum-general", p, *rho_sum_general(**p)),
        _grid(r=range(7), s=range(5), q=range(5)),
        lambda r, s, q: r + s + q + 2,
    ),
    "rho-weighted-sum": Check(
        "rho-sum",
        lambda **p: _exact_report("rho-weighted-sum", p, *rho_weighted_sum(**p)),
        _grid(n=range(11), q=range(6)),
        lambda n, q: n + q + 2,
    ),
    "rho-eta-connection": Check(
        "rho-eta",
        verify_rho_eta_connection,
        _grid(q=range(5), r=range(5)),
        lambda q, r: q + r + 2,
    ),
    "eta-hook-sum": Check(
        "hook",
        verify_eta_hook_sum,
        _grid(n=range(1, 6), q=range(4)),
        lambda n, q: n + q + 2,
    ),
    "remark-chain": Check(
        "hook",
        verify_remark_chain,
        _grid(n=range(1, 5), q=range(4)),
        lambda n, q: n + q + 2,
    ),
    "eta-hook-closed-form": Check(
        "hook",
        lambda p, a: _exact_report(
            "eta-hook-closed-form",
            {"p": p, "a": a},
            eta_symbolic((p,) + (1,) * a),
            eta_hook_closed_form(p, a),
        ),
        _grid(p=range(2, 7), a=range(6)),
        lambda p, a: p + a,
    ),
    "weighted-eta-sum": Check(
        "weighted",
        verify_weighted_eta_sum,
        _grid(n=range(1, 5), q=range(4)),
        lambda n, q: n + q + 2,
    ),
    "w121": Check(
        "weighted",
        lambda n: verify_weighted_corollaries("w121", n),
        _grid(n=range(1, 7)),
        lambda n: n + 3,
    ),
    "w122": Check(
        "weighted",
        lambda n: verify_weighted_corollaries("w122", n),
        _grid(n=range(1, 5)),
        lambda n: n + 4,
    ),
    "e38": Check(
        "weighted",
        lambda q: verify_weighted_corollaries("e38", q),
        _grid(q=range(7)),
        lambda q: q + 3,
    ),
    "eta-triple-sum": Check(
        "weighted",
        lambda q: _exact_report(
            "eta-triple-sum",
            {"q": q},
            _eta_sum(idx + (1,) for idx in indices(q + 2, 2)),
            eta_restricted_triple_sum(q),
        ),
        _grid(q=range(1, 7)),
        lambda q: q + 3,
    ),
    "suffix-balance": Check(
        "balance",
        verify_suffix_balance,
        _grid(q=range(7), n=range(11)),
        lambda q, n: n,
    ),
    "quadrature-integral": Check(
        "quadrature",
        quadrature_check_integral,
        _grid(n=range(4), q=range(3)),
        lambda n, q: n + q + 2,
    ),
}

# suite name -> its check ids
SUITES: dict[str, tuple[str, ...]] = {
    suite: tuple(cid for cid, c in CHECKS.items() if c.suite == suite)
    for suite in dict.fromkeys(c.suite for c in CHECKS.values())
}


def _select(name: str, max_weight: int | None) -> list[tuple[str, dict]]:
    """The (check id, parameters) cells suite ``name`` runs, in report order,
    keeping only those of weight at most ``max_weight``."""
    if name == "all":
        return [cell for suite in SUITES for cell in _select(suite, max_weight)]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected all|{'|'.join(SUITES)}")
    if name == "tables" and max_weight is not None and max_weight < 2:
        raise FixtureError(f"table fixtures start at weight 2, got cap {max_weight}")
    cells = [
        (cid, p)
        for cid in SUITES[name]
        for p in CHECKS[cid].grid
        if max_weight is None or CHECKS[cid].weight_of(**p) <= max_weight
    ]
    if name == "tables":
        # fixture rows interleave by weight: a weight's rho rows, then its eta rows
        cells.sort(key=lambda cell: cell[1]["weight"])
    return cells


def run_suite(name: str, max_weight: int | None = None) -> list[VerificationReport]:
    """Run one named suite, or all of them in a fixed order.  A cap that
    selects no check is an error, so no suite passes vacuously."""
    cells = _select(name, max_weight)
    if not cells:
        raise ZetalikeError(f"suite {name!r} has no checks of weight <= {max_weight}")
    return [CHECKS[cid].fn(**p) for cid, p in cells]


def rerun(report: VerificationReport) -> VerificationReport:
    """Recompute a report from its own parameters (reports are re-verifiable)."""
    try:
        check = CHECKS[report.identity_id]
    except KeyError:
        raise ValueError(f"no re-runner for identity {report.identity_id!r}") from None
    return check.fn(**report.parameters)

"""End-to-end identity verification with structured, serializable reports.

Every cross-family identity the library implements is checked here in exact
arithmetic wherever both sides are exact; the only numeric acceptance path is
the 2-D quadrature check, which carries its own tolerance.  A failed check is
data, not an exception: the report records both sides and their exact
discrepancy so convention ambiguities surface as reviewable artifacts.
"""

from __future__ import annotations

import itertools
import math
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
from .harmonic import bell_polynomial, harmonic, harmonic_vector, mzv_star_truncated
from .numeric import ApproxReal, Rational
from .quadrature import integrate_unit_square
from .rho import indices, rho_exact, suffix_balance_sum
from . import tables

Value = Union[Rational, ZetaExpr, ApproxReal]

__all__ = [
    "VerificationReport",
    "value_to_json",
    "value_from_json",
    "CHECKS",
    "SUITES",
    "run_check",
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


def _exact(lhs, rhs, details=None) -> tuple:
    """The outcome of comparing two exact values; a ZetaExpr lhs must also be
    purely rational when rhs is rational (zeta-cancellation is part of the
    check)."""
    diff = ZetaExpr.coerce(lhs) - ZetaExpr.coerce(rhs)
    return lhs, rhs, diff.is_zero(), diff, details or {}


# --------------------------------------------------------------------------
# Enumeration helpers
# --------------------------------------------------------------------------

def _eta_sum(idxs: Iterable[tuple[int, ...]]) -> ZetaExpr:
    return sum(map(eta_symbolic, idxs), ZetaExpr(0))


def _rho_sum(weight: int, depth: int, last: int = 2) -> Rational:
    return sum(map(rho_exact, indices(weight, depth, last)), Fraction(0))


def _split_eta_sum(n: int, q: int, last: int, ones: int) -> ZetaExpr:
    # sum over r+s=n, |a|=q of eta(a_1+1, ..., a_r+1, a_{r+1}+last, {1}^(s+ones))
    return _eta_sum(
        idx + (1,) * (n - r + ones)
        for r in range(n + 1)
        for idx in indices(q + r + last, r + 1, last)
    )


# --------------------------------------------------------------------------
# Outcomes: each returns a report's (lhs, rhs, passed, discrepancy, details)
# --------------------------------------------------------------------------

def _rho_sum_general(r: int, s: int, q: int) -> tuple:
    """The shifted fixed-weight sum formula

        sum_{|a|=r} rho(a_1+1, ..., a_q+1, a_{q+1}+s+2)
            = Z_{r+1}({1}^q; s) / ((r+s+1) (r+s+1)!).

    Its s = 0 case, with r -> m and q -> r-1, is the paper's fixed-weight
    formula sum_{|s|=m} rho(s_1+1, ..., s_{r-1}+1, s_r+2)
    = Z_{m+1}({1}^{r-1}) / ((m+1) (m+1)!).
    """
    if r < 0 or s < 0 or q < 0:
        raise ValueError(f"need r, s, q >= 0, got ({r}, {s}, {q})")
    lhs = _rho_sum(r + q + s + 2, q + 1, s + 2)
    rhs = mzv_star_truncated(r + 1, q, s) / ((r + s + 1) * math.factorial(r + s + 1))
    return _exact(lhs, rhs)


def _rho_weighted_sum(n: int, q: int) -> tuple:
    """The weighted sum formula

        sum_{|a|=n} (a_{q+1}+1) rho(a_1+1, ..., a_q+1, a_{q+1}+2) = 1/(n+1)!.
    """
    if n < 0 or q < 0:
        raise ValueError(f"need n, q >= 0, got ({n}, {q})")
    lhs = Fraction(0)
    for s in indices(n + q + 2, q + 1, 2):
        lhs += (s[-1] - 1) * rho_exact(s)
    return _exact(lhs, Fraction(1, math.factorial(n + 1)))


def _rho_eta_connection(q: int, r: int) -> tuple:
    """Fixed-weight eta-sums over depth r+2 equal rho-sums over depth q+1:

        sum_{|s|=q} eta(s_1+1, ..., s_{r+2}+1)
            = sum_{|a|=r} rho(a_1+1, ..., a_q+1, a_{q+1}+2).

    Passing requires the eta side's zeta-coefficients to cancel exactly, not
    just the totals to agree numerically.
    """
    if q < 0 or r < 0:
        raise ValueError(f"need q, r >= 0, got ({q}, {r})")
    lhs = _eta_sum(indices(q + r + 2, r + 2))
    rhs = _rho_sum(q + r + 2, q + 1)
    return _exact(lhs, rhs)


def _hook_sides(n: int, q: int) -> tuple[ZetaExpr, Rational]:
    """Hook-shaped eta-sums and the cycle-index closed form they equal:

        sum_{r+s=n, |a|=q} eta(a_1+1, ..., a_r+1, a_{r+1}+2, {1}^s)
            = P_{q+1}(H_n^(1), ..., H_n^(q+1)) / (n n!).
    """
    if n < 1 or q < 0:
        raise ValueError(f"need n >= 1 and q >= 0, got ({n}, {q})")
    lhs = _split_eta_sum(n, q, 2, 0)
    rhs = bell_polynomial(q + 1, harmonic_vector(n, q + 1)) / (n * math.factorial(n))
    return lhs, rhs


def _weighted_eta_sum(n: int, q: int) -> tuple:
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
    rhs = Fraction((-1) ** (q + 1), n * math.factorial(n + 1))
    acc = Fraction(0)
    for k in range(q + 1):
        acc += (-1) ** (q - k) * bell_polynomial(k, harmonic_vector(n, k))
    rhs += acc / (n * math.factorial(n))
    return _exact(
        lhs, rhs, {"index_layout": "(a_1+1..a_{r+1}+1, {1}^(s+1)) over r+s=n"}
    )


# The printed specializations of the trailing-ones identity.

def _w121(n: int) -> tuple:
    """sum (b+1) eta({1}^a, 2, {1}^(b+1)) over a+b=n equals
    ((n+1) H_n - n) / (n (n+1)!)."""
    if n < 1:
        raise ValueError(f"w121 needs n >= 1, got {n}")
    lhs = ZetaExpr(0)
    for a in range(n + 1):
        b = n - a
        lhs = lhs + eta_symbolic((1,) * a + (2,) + (1,) * (b + 1)) * (b + 1)
    return _exact(lhs, ((n + 1) * harmonic(n) - n) / (n * math.factorial(n + 1)))


def _w122(n: int) -> tuple:
    """The analogous order-3 combination equals
    (2n + (n+1)(H_n^2 - 2 H_n + H_n^(2))) / (2n (n+1)!)."""
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
    rhs = (2 * n + (n + 1) * (h1**2 - 2 * h1 + h2)) / (2 * n * math.factorial(n + 1))
    return _exact(lhs, rhs)


def _e38(q: int) -> tuple:
    """sum_{a1+a2=q} eta(a1+1, a2+1, 1) + eta(q+1, 1, 1) equals 1/2."""
    if q < 0:
        raise ValueError(f"e38 needs q >= 0, got {q}")
    lhs = _eta_sum(idx + (1,) for idx in indices(q + 2, 2))
    return _exact(lhs + eta_symbolic((q + 1, 1, 1)), Fraction(1, 2))


def _remark_chain(n: int, q: int) -> tuple:
    """Four independent computations of one quantity, checked pairwise equal:

    A: the hook-shaped eta-enumeration over r+s=n, |a|=q;
    B: P_{q+1}(H_n^(1..q+1)) / (n n!);
    C: sum_{|s|=n-1} rho(s_1+1, ..., s_{q+1}+1, s_{q+2}+2);
    D: sum_{|a|=q+1} eta(a_1+1, ..., a_{n+1}+1).
    """
    a_val, b_val = _hook_sides(n, q)
    c_val = _rho_sum(q + n + 2, q + 2)
    d_val = _eta_sum(indices(q + n + 2, n + 1))
    values = [a_val, ZetaExpr.coerce(b_val), ZetaExpr.coerce(c_val), d_val]
    passed = all(v == values[0] for v in values[1:])
    worst = ZetaExpr(0)
    for v in values[1:]:
        diff = v - values[0]
        if not diff.is_zero():
            worst = diff
    details = {
        "eta_hook_enumeration": a_val.render(),
        "bell_closed_form": str(b_val),
        "rho_enumeration": str(c_val),
        "eta_flat_enumeration": d_val.render(),
    }
    return a_val, d_val, passed, worst, details


def _table_outcome(index: str, value, reference) -> tuple:
    """Compare value(idx) with a printed-value fixture reference(idx)."""
    idx = tuple(int(x) for x in index.split(","))
    return _exact(value(idx), reference(idx))


# acceptance tolerance of the quadrature check, well above the ~1e-9 floor of
# float64 tanh-sinh
_QUADRATURE_TOL = 1e-6


def _quadrature_integral(n: int, q: int) -> tuple:
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
    lhs = _eta_sum(indices(q + n + 2, n + 1)).numeric(14)

    def integrand(u, uc, v, vc):
        # uc + vc - uc * vc = 1 - u*v without cancellation
        return (-np.log(u)) ** q * (uc + vc - uc * vc) ** (n - 1)

    value, est, level = integrate_unit_square(integrand, _QUADRATURE_TOL / 4)
    scale = 1.0 / (math.factorial(n) * math.factorial(q))
    rhs = ApproxReal(mpmath.mpf(value * scale), mpmath.mpf(est * scale * 2 + 1e-14), 17)
    gap = abs(lhs.value - rhs.value)
    passed = gap <= mpmath.mpf(_QUADRATURE_TOL) + lhs.error_bound + rhs.error_bound
    return (
        lhs,
        rhs,
        bool(passed),
        ApproxReal(gap, lhs.error_bound + rhs.error_bound, 17),
        {"quadrature_level": level, "tolerance": _QUADRATURE_TOL},
    )


# --------------------------------------------------------------------------
# Check registry
# --------------------------------------------------------------------------

class Check(NamedTuple):
    """One identity: the suite it runs in, ``outcome(**params)`` returning
    its report's ``(lhs, rhs, passed, discrepancy, details)``, the parameter
    grid in report order, and ``weight_of(**params)``, the weight a
    ``max_weight`` cap compares against.

    Entries call the kernels through this module's globals at call time, so
    a wrapper patched over a kernel is seen by every check.
    """

    suite: str
    outcome: Callable[..., tuple]
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


# insertion order is report order: suites run in the order they first
# appear, and a suite's checks in the order listed (but see _select on tables)
CHECKS: dict[str, Check] = {
    "table-rho": Check(
        "tables",
        lambda index, weight: _table_outcome(index, rho_exact, tables.rho_reference),
        _table_grid(2),
        lambda index, weight: weight,
    ),
    "table-eta": Check(
        "tables",
        lambda index, weight: _table_outcome(index, eta_symbolic, tables.eta_reference),
        _table_grid(1),
        lambda index, weight: weight,
    ),
    "rho-sum-fixed-weight": Check(
        "rho-sum",
        lambda m, r: _rho_sum_general(m, 0, r - 1),
        _grid(m=range(11), r=range(1, 7)),
        lambda m, r: m + r + 1,
    ),
    "rho-sum-general": Check(
        "rho-sum",
        _rho_sum_general,
        _grid(r=range(7), s=range(5), q=range(5)),
        lambda r, s, q: r + s + q + 2,
    ),
    "rho-weighted-sum": Check(
        "rho-sum",
        _rho_weighted_sum,
        _grid(n=range(11), q=range(6)),
        lambda n, q: n + q + 2,
    ),
    "rho-eta-connection": Check(
        "rho-eta",
        _rho_eta_connection,
        _grid(q=range(5), r=range(5)),
        lambda q, r: q + r + 2,
    ),
    "eta-hook-sum": Check(
        "hook",
        lambda n, q: _exact(*_hook_sides(n, q)),
        _grid(n=range(1, 6), q=range(4)),
        lambda n, q: n + q + 2,
    ),
    "remark-chain": Check(
        "hook",
        _remark_chain,
        _grid(n=range(1, 5), q=range(4)),
        lambda n, q: n + q + 2,
    ),
    "eta-hook-closed-form": Check(
        "hook",
        lambda p, a: _exact(eta_symbolic((p,) + (1,) * a), eta_hook_closed_form(p, a)),
        _grid(p=range(2, 7), a=range(6)),
        lambda p, a: p + a,
    ),
    "weighted-eta-sum": Check(
        "weighted",
        _weighted_eta_sum,
        _grid(n=range(1, 5), q=range(4)),
        lambda n, q: n + q + 2,
    ),
    "w121": Check("weighted", _w121, _grid(n=range(1, 7)), lambda n: n + 3),
    "w122": Check("weighted", _w122, _grid(n=range(1, 5)), lambda n: n + 4),
    "e38": Check("weighted", _e38, _grid(q=range(7)), lambda q: q + 3),
    "eta-triple-sum": Check(
        "weighted",
        lambda q: _exact(
            _eta_sum(idx + (1,) for idx in indices(q + 2, 2)),
            eta_restricted_triple_sum(q),
        ),
        _grid(q=range(1, 7)),
        lambda q: q + 3,
    ),
    "suffix-balance": Check(
        "balance",
        lambda q, n: _exact(suffix_balance_sum(q, n), Fraction(1)),
        _grid(q=range(7), n=range(11)),
        lambda q, n: n,
    ),
    "quadrature-integral": Check(
        "quadrature",
        _quadrature_integral,
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


def run_check(identity_id: str, **params) -> VerificationReport:
    """Check one identity of :data:`CHECKS` at the given parameters."""
    try:
        check = CHECKS[identity_id]
    except KeyError:
        raise ValueError(f"unknown identity {identity_id!r}") from None
    return VerificationReport(identity_id, params, *check.outcome(**params))


def run_suite(name: str, max_weight: int | None = None) -> list[VerificationReport]:
    """Run one named suite, or all of them in a fixed order.  A cap that
    selects no check is an error, so no suite passes vacuously."""
    cells = _select(name, max_weight)
    if not cells:
        raise ZetalikeError(f"suite {name!r} has no checks of weight <= {max_weight}")
    return [run_check(cid, **p) for cid, p in cells]


def rerun(report: VerificationReport) -> VerificationReport:
    """Recompute a report from its own parameters (reports are re-verifiable)."""
    return run_check(report.identity_id, **report.parameters)

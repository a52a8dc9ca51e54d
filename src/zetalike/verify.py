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
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator, NamedTuple, Union

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
from .rho import _rho_sum, indices, rho_exact, suffix_balance_sum
from . import tables

Value = Union[Rational, ZetaExpr, ApproxReal]

__all__ = [
    "VerificationReport",
    "value_to_json",
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
    if isinstance(v, (int, Fraction)):
        v = ZetaExpr(v)
    if isinstance(v, (ZetaExpr, ApproxReal)):
        return v.to_json_dict()
    raise TypeError(f"cannot serialize {type(v).__name__}")


class VerificationReport(NamedTuple):
    """Outcome of one identity check."""

    identity_id: str
    parameters: dict
    lhs: Value
    rhs: Value
    passed: bool
    discrepancy: Value
    details: dict

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


# --------------------------------------------------------------------------
# Check registry
# --------------------------------------------------------------------------

class Check(NamedTuple):
    """One identity: the suite it runs in, ``sides(**params)``, a generator
    that yields its report's lhs, then any further links of a chain, then its
    rhs, the parameter grid in report order, ``weight_of(**params)``, the
    weight a ``max_weight`` cap compares against, and ``compare(lhs, rhs,
    *links)``, which returns the report's ``(passed, discrepancy, details)``.

    Sides call the kernels through this module's globals at call time, so a
    wrapper patched over a kernel is seen by every check.
    """

    suite: str
    sides: Callable[..., Iterator[Value]]
    grid: tuple[dict, ...]
    weight_of: Callable[..., int]
    compare: Callable[..., tuple]


# insertion order is report order: suites run in the order they first
# appear, and a suite's checks in the order registered (but see _select on
# tables)
CHECKS: dict[str, Check] = {}


def _exact(lhs, rhs, **details) -> tuple:
    """The default comparison, of two exact values; a ZetaExpr lhs must also
    be purely rational when rhs is rational (zeta-cancellation is part of the
    check)."""
    diff = ZetaExpr.sum([(1, lhs), (-1, rhs)])
    return diff.is_zero(), diff, details


def _check(identity_id: str, suite: str, grid: tuple[dict, ...], weight_of, compare=_exact):
    """Register the decorated sides generator as :data:`CHECKS` entry
    ``identity_id``."""
    def register(sides):
        CHECKS[identity_id] = Check(suite, sides, grid, weight_of, compare)
        return sides
    return register


def _grid(**axes: Iterable[int]) -> tuple[dict, ...]:
    """Every combination of the axes' values, the first axis outermost.  Axes
    are given ascending, so the first cell holds each axis's least value."""
    return tuple(dict(zip(axes, cell)) for cell in itertools.product(*axes.values()))


def _table_grid(min_last: int) -> tuple[dict, ...]:
    # the indices of every fixture weight whose last entry is at least min_last
    return tuple(
        {"index": ",".join(map(str, idx)), "weight": w}
        for w in tables.FIXTURE_WEIGHTS
        for idx in indices(w, last=min_last)
    )


# --------------------------------------------------------------------------
# Enumeration helpers
# --------------------------------------------------------------------------

def _eta_sum(idxs: Iterable[tuple[int, ...]]) -> ZetaExpr:
    return ZetaExpr.sum((1, eta_symbolic(idx)) for idx in idxs)


def _split_eta_sum(n: int, q: int, last: int, ones: int) -> ZetaExpr:
    # sum over r+s=n, |a|=q of eta(a_1+1, ..., a_r+1, a_{r+1}+last, {1}^(s+ones))
    return _eta_sum(
        idx + (1,) * (n - r + ones)
        for r in range(n + 1)
        for idx in indices(q + r + last, r + 1, last)
    )


def _cell(index: str) -> tuple[int, ...]:
    # a table grid cell's index string as a tuple
    return tuple(int(x) for x in index.split(","))


# --------------------------------------------------------------------------
# Identities: each yields its report's lhs, any further links, then its rhs
# --------------------------------------------------------------------------

@_check("table-rho", "tables", _table_grid(2), lambda index, weight: weight)
def _table_rho(index: str, weight: int) -> Iterator[Value]:
    """rho at a fixture index equals its printed value."""
    idx = _cell(index)
    yield rho_exact(idx)
    yield tables.rho_reference(idx)


@_check("table-eta", "tables", _table_grid(1), lambda index, weight: weight)
def _table_eta(index: str, weight: int) -> Iterator[Value]:
    """eta at a fixture index equals its printed value."""
    idx = _cell(index)
    yield eta_symbolic(idx)
    yield tables.eta_reference(idx)


@_check("rho-sum-fixed-weight", "rho-sum", _grid(m=range(11), r=range(1, 7)),
        lambda m, r: m + r + 1)
def _rho_sum_fixed_weight(m: int, r: int) -> Iterator[Value]:
    """The paper's fixed-weight formula, rho-sum-general at s = 0."""
    yield from _rho_sum_general(m, 0, r - 1)


@_check("rho-sum-general", "rho-sum", _grid(r=range(7), s=range(5), q=range(5)),
        lambda r, s, q: r + s + q + 2)
def _rho_sum_general(r: int, s: int, q: int) -> Iterator[Value]:
    """The shifted fixed-weight sum formula

        sum_{|a|=r} rho(a_1+1, ..., a_q+1, a_{q+1}+s+2)
            = Z_{r+1}({1}^q; s) / ((r+s+1) (r+s+1)!).

    Its s = 0 case, with r -> m and q -> r-1, is the paper's fixed-weight
    formula sum_{|s|=m} rho(s_1+1, ..., s_{r-1}+1, s_r+2)
    = Z_{m+1}({1}^{r-1}) / ((m+1) (m+1)!).
    """
    yield _rho_sum(r + q + s + 2, q + 1, s + 2)
    yield mzv_star_truncated(r + 1, q, s) / ((r + s + 1) * math.factorial(r + s + 1))


@_check("rho-weighted-sum", "rho-sum", _grid(n=range(11), q=range(6)), lambda n, q: n + q + 2)
def _rho_weighted_sum(n: int, q: int) -> Iterator[Value]:
    """The weighted sum formula

        sum_{|a|=n} (a_{q+1}+1) rho(a_1+1, ..., a_q+1, a_{q+1}+2) = 1/(n+1)!.

    The balance identity is its weighted-sum transformation: with T_j = a_j +
    ... + a_{q+1} + 1, the lhs is suffix_balance_sum(q, n) / (n+1)!.
    """
    # (a_{q+1}+1) rho(a_1+1, ..., a_q+1, a_{q+1}+2) = 1/((n+1)! prod_{j<=q} T_j)
    yield suffix_balance_sum(q, n) / math.factorial(n + 1)
    yield Fraction(1, math.factorial(n + 1))


@_check("rho-eta-connection", "rho-eta", _grid(q=range(5), r=range(5)), lambda q, r: q + r + 2)
def _rho_eta_connection(q: int, r: int) -> Iterator[Value]:
    """Fixed-weight eta-sums over depth r+2 equal rho-sums over depth q+1:

        sum_{|s|=q} eta(s_1+1, ..., s_{r+2}+1)
            = sum_{|a|=r} rho(a_1+1, ..., a_q+1, a_{q+1}+2).

    Passing requires the eta side's zeta-coefficients to cancel exactly, not
    just the totals to agree numerically.
    """
    yield _eta_sum(indices(q + r + 2, r + 2))
    yield _rho_sum(q + r + 2, q + 1, 2)


@_check("eta-hook-sum", "hook", _grid(n=range(1, 6), q=range(4)), lambda n, q: n + q + 2)
def _eta_hook_sum(n: int, q: int) -> Iterator[Value]:
    """Hook-shaped eta-sums and the cycle-index closed form they equal:

        sum_{r+s=n, |a|=q} eta(a_1+1, ..., a_r+1, a_{r+1}+2, {1}^s)
            = P_{q+1}(H_n^(1), ..., H_n^(q+1)) / (n n!).
    """
    yield _split_eta_sum(n, q, 2, 0)
    yield bell_polynomial(q + 1, harmonic_vector(n, q + 1)) / (n * math.factorial(n))


def _chain(a, d, b, c) -> tuple:
    """remark-chain's comparison: B, C and D each equal A, and the
    discrepancy is the last nonzero difference from A."""
    worst = ZetaExpr(0)
    for v in (b, c, d):
        diff = ZetaExpr.sum([(1, v), (-1, a)])
        if not diff.is_zero():
            worst = diff
    details = {
        "eta_hook_enumeration": a.render(),
        "bell_closed_form": str(b),
        "rho_enumeration": str(c),
        "eta_flat_enumeration": d.render(),
    }
    return worst.is_zero(), worst, details


@_check("remark-chain", "hook", _grid(n=range(1, 5), q=range(4)), lambda n, q: n + q + 2, _chain)
def _remark_chain(n: int, q: int) -> Iterator[Value]:
    """Four independent computations of one quantity, checked pairwise equal:

    A: the hook-shaped eta-enumeration over r+s=n, |a|=q;
    B: P_{q+1}(H_n^(1..q+1)) / (n n!);
    C: sum_{|s|=n-1} rho(s_1+1, ..., s_{q+1}+1, s_{q+2}+2);
    D: sum_{|a|=q+1} eta(a_1+1, ..., a_{n+1}+1).
    """
    yield from _eta_hook_sum(n, q)
    yield _rho_sum(q + n + 2, q + 2, 2)
    yield _eta_sum(indices(q + n + 2, n + 1))


@_check("eta-hook-closed-form", "hook", _grid(p=range(2, 7), a=range(6)), lambda p, a: p + a)
def _hook_closed_form(p: int, a: int) -> Iterator[Value]:
    """eta(p, {1}^a) by partial fractions equals its harmonic closed form."""
    yield eta_symbolic((p,) + (1,) * a)
    yield eta_hook_closed_form(p, a)


@_check("weighted-eta-sum", "weighted", _grid(n=range(1, 5), q=range(4)),
        lambda n, q: n + q + 2,
        partial(_exact, index_layout="(a_1+1..a_{r+1}+1, {1}^(s+1)) over r+s=n"))
def _weighted_eta_sum(n: int, q: int) -> Iterator[Value]:
    """Trailing-ones variant:

        sum_{r+s=n, |a|=q} eta(a_1+1, ..., a_{r+1}+1, {1}^(s+1))
            = (-1)^(q+1)/(n (n+1)!)
              + (1/(n n!)) sum_{k=0}^q (-1)^(q-k) P_k(H_n^(1), ..., H_n^(k)).

    The left side counts each printed index once per (r, s, a) that generates
    it; that multiplicity is what turns into the (b+1)-style weights of the
    specialized corollaries, which pin this reading down.
    """
    yield _split_eta_sum(n, q, 1, 1)
    rhs = Fraction((-1) ** (q + 1), n * math.factorial(n + 1))
    acc = Fraction(0)
    for k in range(q + 1):
        acc += (-1) ** (q - k) * bell_polynomial(k, harmonic_vector(n, k))
    yield rhs + acc / (n * math.factorial(n))


# The printed specializations of the trailing-ones identity.

@_check("w121", "weighted", _grid(n=range(1, 7)), lambda n: n + 3)
def _w121(n: int) -> Iterator[Value]:
    """sum (b+1) eta({1}^a, 2, {1}^(b+1)) over a+b=n equals
    ((n+1) H_n - n) / (n (n+1)!)."""
    yield ZetaExpr.sum(
        (b + 1, eta_symbolic((1,) * (n - b) + (2,) + (1,) * (b + 1))) for b in range(n + 1)
    )
    yield ((n + 1) * harmonic(n) - n) / (n * math.factorial(n + 1))


@_check("w122", "weighted", _grid(n=range(1, 5)), lambda n: n + 4)
def _w122(n: int) -> Iterator[Value]:
    """The analogous order-3 combination equals
    (2n + (n+1)(H_n^2 - 2 H_n + H_n^(2))) / (2n (n+1)!)."""
    yield ZetaExpr.sum(itertools.chain(
        ((b + 1, eta_symbolic((1,) * (n - b) + (3,) + (1,) * (b + 1))) for b in range(n + 1)),
        ((c + 1, eta_symbolic((1,) * a + (2,) + (1,) * (n - 1 - a - c) + (2,) + (1,) * (c + 1)))
         for a in range(n) for c in range(n - a)),
    ))
    h1, h2 = harmonic(n), harmonic(n, 2)
    yield (2 * n + (n + 1) * (h1**2 - 2 * h1 + h2)) / (2 * n * math.factorial(n + 1))


@_check("e38", "weighted", _grid(q=range(7)), lambda q: q + 3)
def _e38(q: int) -> Iterator[Value]:
    """sum_{a1+a2=q} eta(a1+1, a2+1, 1) + eta(q+1, 1, 1) equals 1/2."""
    yield _eta_sum([*(idx + (1,) for idx in indices(q + 2, 2)), (q + 1, 1, 1)])
    yield Fraction(1, 2)


@_check("eta-triple-sum", "weighted", _grid(q=range(1, 7)), lambda q: q + 3)
def _eta_triple_sum(q: int) -> Iterator[Value]:
    """sum_{a1+a2=q} eta(a1+1, a2+1, 1) equals its closed form in zeta values."""
    yield _eta_sum(idx + (1,) for idx in indices(q + 2, 2))
    yield eta_restricted_triple_sum(q)


@_check("suffix-balance", "balance", _grid(q=range(7), n=range(11)), lambda q, n: n)
def _suffix_balance(q: int, n: int) -> Iterator[Value]:
    """The suffix-product sum over a_1+...+a_{q+1} = n equals 1."""
    yield suffix_balance_sum(q, n)
    yield Fraction(1)


# acceptance tolerance of the quadrature check, well above the ~1e-9 floor of
# float64 tanh-sinh
_QUADRATURE_TOL = 1e-6


class _Quadrature(ApproxReal):
    """A tanh-sinh value with the level it converged at, its provenance."""

    __slots__ = ("level",)

    def __init__(self, value, error_bound, dps: int, level: int):
        super().__init__(value, error_bound, dps)
        object.__setattr__(self, "level", level)

    def _args(self) -> tuple:
        return (*super()._args(), self.level)


def _within_tolerance(lhs: ApproxReal, rhs: _Quadrature) -> tuple:
    """The quadrature check's comparison: the gap may exceed both error
    bounds by at most the acceptance tolerance."""
    import mpmath

    gap = abs(lhs.value - rhs.value)
    passed = gap <= mpmath.mpf(_QUADRATURE_TOL) + lhs.error_bound + rhs.error_bound
    return (
        bool(passed),
        ApproxReal(gap, lhs.error_bound + rhs.error_bound, 17),
        {"quadrature_level": rhs.level, "tolerance": _QUADRATURE_TOL},
    )


@_check("quadrature-integral", "quadrature", _grid(n=range(4), q=range(3)),
        lambda n, q: n + q + 2, _within_tolerance)
def _quadrature_integral(n: int, q: int) -> Iterator[Value]:
    """Check the double-integral representation

        sum_{|a|=q+1} eta(a_1+1, ..., a_{n+1}+1)
            = (1/(n! q!)) int_{0<t1<t2<1} (log(t2/t1))^q (1-t1)^n
                                          dt1 dt2 / ((1-t1) t2)

    numerically.  The substitution t1 = u t2 maps the triangle onto the unit
    square with integrand (log(1/u))^q (1 - u t2)^(n-1), which tanh-sinh
    handles at both singular corners.  The rhs comes from
    :func:`_quadrature_value`, cached on ``(n, q)``, so a warm rerun
    integrates nothing; the lhs is yielded first, so a refused ``(n, q)``
    raises before the cache is reached.
    """
    yield _eta_sum(indices(q + n + 2, n + 1)).numeric(14)
    yield _quadrature_value(n, q)


@lru_cache(maxsize=None)
def _quadrature_value(n: int, q: int) -> _Quadrature:
    """The quadrature check's rhs, the tanh-sinh value of the unit-square
    integral scaled by 1/(n! q!).  A ``_Quadrature`` is immutable, so every
    caller may share the cached one."""
    import mpmath
    import numpy as np

    def integrand(u, uc, v, vc):
        # uc + vc - uc * vc = 1 - u*v without cancellation
        return (-np.log(u)) ** q * (uc + vc - uc * vc) ** (n - 1)

    value, est, level = integrate_unit_square(integrand, _QUADRATURE_TOL / 4)
    scale = 1.0 / (math.factorial(n) * math.factorial(q))
    return _Quadrature(mpmath.mpf(value * scale), mpmath.mpf(est * scale * 2 + 1e-14), 17, level)


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
    """Check one identity of :data:`CHECKS` at the given parameters.  An
    integer parameter below its value in the grid's first cell, the
    identity's least case, is refused with ``ValueError``."""
    try:
        check = CHECKS[identity_id]
    except KeyError:
        raise ValueError(f"unknown identity {identity_id!r}") from None
    for key, least in check.grid[0].items():
        if isinstance(least, int) and key in params and params[key] < least:
            raise ValueError(f"{identity_id} needs {key} >= {least}, got {params[key]}")
    lhs, *links, rhs = check.sides(**params)
    return VerificationReport(identity_id, params, lhs, rhs, *check.compare(lhs, rhs, *links))


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

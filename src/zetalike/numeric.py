"""Exact rational primitives and high-precision reals with error accounting.

Exact values are plain ``fractions.Fraction`` (aliased :data:`Rational`) or
Python ints; both normalize eagerly and compare structurally, which is what
every identity check in this library relies on.

Inexact values are :class:`ApproxReal`: an mpmath float paired with a proven
absolute error bound.  Arithmetic propagates bounds conservatively --
bounds add under addition, and multiplication uses

    |ab - a'b'| <= |a| eb + |b| ea + ea eb

plus a rounding slack far below any tolerance used by callers.

The only transcendental constants needed anywhere are zeta(k) for integer
k >= 2.  :func:`zeta_constant` evaluates the zeta tail by
Euler-Maclaurin summation *in exact rational arithmetic*:

    sum_{n>=N} n^(-k) = N^(1-k)/(k-1) + N^(-k)/2
                        + sum_{j=1..J} B_{2j}/(2j)! (k)_{2j-1} N^(1-k-2j) + R_J

with the classical certificate |R_J| <= first omitted term (the integrand
x^(-k) is completely monotone, so the remainder alternates).  The returned
error bound is that rational certificate plus the float-conversion slack.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import ToleranceError

Rational = Fraction

__all__ = [
    "Rational",
    "ApproxReal",
    "rising_factorial",
    "bernoulli_number",
    "zeta_constant",
    "zeta_pi_power_factor",
]


def rising_factorial(x: Rational | int, n: int) -> Rational | int:
    """Pochhammer product x(x+1)...(x+n-1), with empty product 1 for n=0; an
    int for int x, so integer series terms stay in integer arithmetic."""
    if n < 0:
        raise ValueError(f"rising_factorial requires n >= 0, got n={n}")
    return math.prod(x + i for i in range(n))


@functools.lru_cache(maxsize=None)
def bernoulli_number(m: int) -> Rational:
    """Bernoulli number B_m (convention B_1 = -1/2).

    Computed by the defining recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0,
    which is plenty for the m <= ~150 this library ever asks for.
    """
    if m < 0:
        raise ValueError(f"Bernoulli numbers need m >= 0, got {m}")
    if m == 0:
        return Fraction(1)
    if m == 1:
        return Fraction(-1, 2)
    if m % 2 == 1:
        return Fraction(0)
    acc = Fraction(0)
    for j in range(m):
        acc += math.comb(m + 1, j) * bernoulli_number(j)
    return -acc / (m + 1)


# --------------------------------------------------------------------------
# ApproxReal
# --------------------------------------------------------------------------

def _slack(dps: int, magnitude) -> mpmath.mpf:
    # one conservative rounding allowance for a value computed at dps+8
    return mpmath.mpf(10) ** (-(dps + 4)) * (1 + abs(magnitude))


@dataclass(frozen=True)
class ApproxReal:
    """A real number known to absolute accuracy ``error_bound``.

    ``dps`` records the decimal working precision the value was produced at;
    mixed-precision arithmetic widens to the larger operand.
    """

    value: mpmath.mpf
    error_bound: mpmath.mpf
    dps: int = 20

    def __post_init__(self):
        if self.error_bound < 0:
            raise ValueError("error_bound must be nonnegative")

    @classmethod
    def from_rational(cls, q: Rational | int, dps: int = 20) -> "ApproxReal":
        q = Fraction(q)
        with mpmath.mp.workdps(dps + 8):
            v = mpmath.mpf(q.numerator) / mpmath.mpf(q.denominator)
            return cls(v, _slack(dps, v), dps)

    @classmethod
    def _coerce(cls, x, dps: int) -> "ApproxReal":
        if isinstance(x, ApproxReal):
            return x
        if isinstance(x, (int, Fraction)):
            return cls.from_rational(x, dps)
        raise TypeError(f"cannot coerce {type(x).__name__} to ApproxReal")

    def __add__(self, other) -> "ApproxReal":
        other = ApproxReal._coerce(other, self.dps)
        dps = max(self.dps, other.dps)
        with mpmath.mp.workdps(dps + 8):
            v = self.value + other.value
            eb = self.error_bound + other.error_bound + _slack(dps, v)
        return ApproxReal(v, eb, dps)

    __radd__ = __add__

    def __neg__(self) -> "ApproxReal":
        return ApproxReal(-self.value, self.error_bound, self.dps)

    def __sub__(self, other) -> "ApproxReal":
        return self + (-ApproxReal._coerce(other, self.dps))

    def __rsub__(self, other) -> "ApproxReal":
        return ApproxReal._coerce(other, self.dps) + (-self)

    def __mul__(self, other) -> "ApproxReal":
        other = ApproxReal._coerce(other, self.dps)
        dps = max(self.dps, other.dps)
        with mpmath.mp.workdps(dps + 8):
            v = self.value * other.value
            eb = (
                abs(self.value) * other.error_bound
                + abs(other.value) * self.error_bound
                + self.error_bound * other.error_bound
                + _slack(dps, v)
            )
        return ApproxReal(v, eb, dps)

    __rmul__ = __mul__

    def agrees_with(self, other: "ApproxReal", tol) -> bool:
        """Equality at tolerance tol: |a-b| <= tol + a.bound + b.bound."""
        other = ApproxReal._coerce(other, self.dps)
        with mpmath.mp.workdps(max(self.dps, other.dps) + 8):
            return abs(self.value - other.value) <= (
                mpmath.mpf(tol) + self.error_bound + other.error_bound
            )

    def __float__(self) -> float:
        return float(self.value)

    def __repr__(self) -> str:
        return (
            f"ApproxReal({mpmath.nstr(self.value, min(self.dps, 20))}, "
            f"+/-{mpmath.nstr(self.error_bound, 3)})"
        )


# --------------------------------------------------------------------------
# zeta(k) with a certified bound
# --------------------------------------------------------------------------

def _zeta_tail_rational(k: int, eps: Fraction) -> tuple[Fraction, Fraction]:
    """Exact Euler-Maclaurin value of zeta(k) with remainder bound <= eps."""
    n0 = 8
    while n0 <= 1 << 24:
        tail = Fraction(1, (k - 1) * n0 ** (k - 1)) + Fraction(1, 2 * n0**k)
        prev = None
        for j in range(1, 81):
            term = (
                bernoulli_number(2 * j)
                * rising_factorial(k, 2 * j - 1)
                / (math.factorial(2 * j) * Fraction(n0) ** (k + 2 * j - 1))
            )
            # certificate: magnitude of the first omitted correction term
            cert = abs(term)
            if cert <= eps:
                head = sum(Fraction(1, n**k) for n in range(1, n0))
                return head + tail, cert
            if prev is not None and cert >= prev:
                break  # asymptotic divergence; need a larger n0
            prev = cert
            tail += term
        n0 *= 2
    raise ToleranceError(f"zeta({k}) to eps={eps} exceeded the summation budget")


@functools.lru_cache(maxsize=None)
def zeta_constant(k: int, digits: int) -> ApproxReal:
    """zeta(k) for k >= 2 with error_bound <= 10**(-digits)."""
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"zeta_constant needs integer k >= 2, got {k!r} (divergent)")
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    eps = Fraction(1, 10**digits) / 2
    val, cert = _zeta_tail_rational(k, eps)
    dps = digits + 10
    with mpmath.mp.workdps(dps + 8):
        v = mpmath.mpf(val.numerator) / mpmath.mpf(val.denominator)
        cert_f = (
            mpmath.mpf(cert.numerator) / mpmath.mpf(cert.denominator)
            if cert
            else mpmath.mpf(0)
        )
        bound = cert_f * (1 + mpmath.mpf(10) ** (-6)) + _slack(dps, v)
        if bound > mpmath.mpf(10) ** (-digits):
            raise ToleranceError(f"zeta({k}) bound {bound} exceeds 10**-{digits}")
    return ApproxReal(v, bound, dps)


@functools.lru_cache(maxsize=None)
def zeta_pi_power_factor(k: int) -> Rational:
    """The exact rational c with zeta(k) = c * pi**k, for even k >= 2.

    c = (-1)^(k/2+1) B_k 2^(k-1) / k!; e.g. zeta(2) = pi^2/6, zeta(4) = pi^4/90.
    """
    if k < 2 or k % 2 != 0:
        raise ValueError(f"pi-power form exists only for even k >= 2, got {k}")
    m = k // 2
    sign = Fraction((-1) ** (m + 1))
    return sign * bernoulli_number(k) * 2 ** (k - 1) / math.factorial(k)


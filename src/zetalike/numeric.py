"""Exact rational primitives and high-precision reals with error accounting.

Exact values are plain ``fractions.Fraction`` (aliased :data:`Rational`) or
Python ints; both normalize eagerly and compare structurally, which is what
every identity check in this library relies on.  A sum of many exact terms
goes through :func:`_lcm_sum`, which keeps one integer numerator over a
running lcm of the denominators, so the sum builds one ``Fraction`` (one gcd)
instead of one per term.

Inexact values are :class:`ApproxReal`: an mpmath float paired with a proven
absolute error bound.  It is a value, not an algebra: the one place bounds
are combined is ``eta.ZetaExpr.numeric``, whose docstring proves its bound.

The only transcendental constants needed anywhere are zeta(k) for integer
k >= 2.  :func:`zeta_constant` evaluates the zeta tail by
Euler-Maclaurin summation *in exact rational arithmetic*:

    sum_{n>=N} n^(-k) = N^(1-k)/(k-1) + N^(-k)/2
                        + sum_{j=1..J} B_{2j}/(2j)! (k)_{2j-1} N^(1-k-2j) + R_J

with the classical certificate |R_J| <= first omitted term (the integrand
x^(-k) is completely monotone, so the remainder alternates).  The returned
error bound is that rational certificate plus the float-conversion slack.

It runs in integers: B_2..B_160 come from one tangent-number table (Brent
and Harvey, 2013), the search for N tests each correction by integer
cross-products, and only the accepted N builds its value, the head over
lcm(1..N-1)^k.  Value and certificate equal those of a term-by-term
``Fraction`` evaluation, so every printed digit and bound is unchanged.

mpmath is imported inside the functions that build or print an
:class:`ApproxReal`, here and in ``eta``, ``cli`` and ``verify``, on their
first call, so importing this module (and with it zetalike and its CLI) does
not load mpmath; only numeric ``eta`` and the ``quadrature`` check pay for it.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

from .errors import ToleranceError

if TYPE_CHECKING:
    import mpmath

Rational = Fraction

__all__ = [
    "Rational",
    "ApproxReal",
    "bernoulli_number",
    "zeta_constant",
    "zeta_pi_power_factor",
]


def _lcm_sum(pairs: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """(numerator, denominator) of sum n/d over the integer pairs (n, d), d
    nonzero: one numerator over the running lcm of the d, not reduced.  The
    empty sum is (0, 1)."""
    num, den = 0, 1
    for n, d in pairs:
        if den % d:
            common = math.lcm(den, d)
            num *= common // den
            den = common
        num += n * (den // d)
    return num, den


# the most Euler-Maclaurin corrections tried at one cutoff
_EM_TERMS = 80


@functools.lru_cache(maxsize=None)
def _bernoulli_table(n: int) -> tuple[Fraction, ...]:
    """(B_2, ..., B_{2n}) as B_{2j} = (-1)^(j-1) 2j T_j / (4^j (4^j - 1)), with
    the tangent numbers T_j from Brent and Harvey's in-place recurrence."""
    t = [0, 1] + [0] * (n - 1)
    for j in range(2, n + 1):
        t[j] = (j - 1) * t[j - 1]
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    return tuple(Fraction((-1) ** (j - 1) * 2 * j * t[j], 4**j * (4**j - 1))
                 for j in range(1, n + 1))


@functools.lru_cache(maxsize=None)
def bernoulli_number(m: int) -> Rational:
    """Bernoulli number B_m (convention B_1 = -1/2); even m >= 2 are read from
    the tangent-number table, never shorter than :func:`zeta_constant` needs."""
    if m < 0:
        raise ValueError(f"Bernoulli numbers need m >= 0, got {m}")
    if m == 0:
        return Fraction(1)
    if m == 1:
        return Fraction(-1, 2)
    if m % 2 == 1:
        return Fraction(0)
    return _bernoulli_table(max(m // 2, _EM_TERMS))[m // 2 - 1]


# --------------------------------------------------------------------------
# ApproxReal
# --------------------------------------------------------------------------

def _slack(dps: int, magnitude) -> mpmath.mpf:
    # one conservative rounding allowance for a value computed at dps+8
    import mpmath

    return mpmath.mpf(10) ** (-(dps + 4)) * (1 + abs(magnitude))


class _Frozen:
    """An immutable value.  A subclass sets its ``__slots__`` in ``__init__``
    through ``object.__setattr__`` and returns its constructor's arguments,
    hashable, from ``_args()``: equality (same type only), hashing, copy and
    pickle read them, so a copy is rebuilt through ``__init__``."""

    __slots__ = ()

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._args() == other._args()

    def __hash__(self) -> int:
        return hash(self._args())

    def __reduce__(self):
        return type(self), self._args()


class ApproxReal(_Frozen):
    """A real number known to absolute accuracy ``error_bound``.

    ``dps`` records the decimal working precision the value was produced at.
    The bound must be finite and nonnegative and the value must not be NaN.
    Equal values agree in all three, the ``_args()`` a subclass extends.
    """

    __slots__ = ("value", "error_bound", "dps")

    def __init__(self, value: mpmath.mpf, error_bound: mpmath.mpf, dps: int = 20):
        # a NaN fails every comparison, so the bound test refuses it, and
        # only a NaN differs from itself
        if not 0 <= error_bound < math.inf:
            raise ValueError(f"error_bound must be finite and nonnegative, got {error_bound}")
        if value != value:
            raise ValueError("value must not be NaN")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "error_bound", error_bound)
        object.__setattr__(self, "dps", dps)

    def _args(self) -> tuple:
        return self.value, self.error_bound, self.dps

    def __repr__(self) -> str:
        d = self.to_json_dict()
        return f"ApproxReal({d['value']}, +/-{d['error_bound']})"

    def to_json_dict(self) -> dict:
        """The value to min(dps, 20) significant digits and the bound to 3."""
        import mpmath

        return {
            "value": mpmath.nstr(self.value, min(self.dps, 20)),
            "error_bound": mpmath.nstr(self.error_bound, 3),
        }


# --------------------------------------------------------------------------
# zeta(k) with a certified bound
# --------------------------------------------------------------------------

def _zeta_tail_rational(k: int, digits: int) -> tuple[Fraction, Fraction]:
    """Exact Euler-Maclaurin value of zeta(k) with remainder bound
    <= eps = 10^-digits / 2.

    With c_j = B_{2j} (k)_{2j-1} / (2j)! = p_j / q_j, the cutoff n0 doubles
    from 8 until, within 80 corrections, |p_j| den(eps) <= num(eps) q_j
    n0^(k+2j-1); it is given up once |c_j| >= |c_{j-1}| n0^2.
    """
    eps = Fraction(1, 2 * 10**digits)
    coeffs = []
    rising, fact = k, 2  # (k)_{2j-1} and (2j)!
    for j in range(1, _EM_TERMS + 1):
        b = bernoulli_number(2 * j)
        coeffs.append((b.numerator * rising, b.denominator * fact))
        rising *= (k + 2 * j - 1) * (k + 2 * j)
        fact *= (2 * j + 1) * (2 * j + 2)
    fits = [(abs(p) * eps.denominator, eps.numerator * q) for p, q in coeffs]
    grows = [(abs(p) * q0, abs(p0) * q) for (p0, q0), (p, q) in zip(coeffs, coeffs[1:])]
    n0 = 8
    while n0 <= 1 << 24:
        power = n0 ** (k + 1)  # n0^(k+2j-1)
        for j, (lhs, rhs) in enumerate(fits):
            # certificate: magnitude of the first omitted correction term
            if lhs <= rhs * power:
                p, q = coeffs[j]
                return _em_value(k, n0, coeffs[:j]), Fraction(abs(p), q * power)
            if j and grows[j - 1][0] >= grows[j - 1][1] * n0 * n0:
                break  # asymptotic divergence; need a larger n0
            power *= n0 * n0
        n0 *= 2
    raise ToleranceError(f"zeta({k}) to {digits} digits exceeded the summation budget")


def _em_value(k: int, n0: int, coeffs) -> Fraction:
    """sum_{n<n0} n^-k + n0^(1-k)/(k-1) + n0^-k/2 + sum_{j<=J} c_j n0^(1-k-2j):
    the head over lcm(1..n0-1)^k, the rest over 2(k-1) lcm(q_j) n0^(k+2J+1)."""
    den = math.lcm(*range(1, n0)) ** k
    head = sum(den // n**k for n in range(1, n0))
    common = math.lcm(1, *(q for _, q in coeffs))
    corr = 0
    for p, q in coeffs:  # Horner in n0^2
        corr = (corr + p * (common // q)) * n0 * n0
    span = n0 ** (2 * len(coeffs) + 1)
    tail = common * span * (2 * n0 + k - 1) + 2 * (k - 1) * corr
    return Fraction(head, den) + Fraction(tail, 2 * (k - 1) * common * span * n0**k)


@functools.lru_cache(maxsize=None)
def zeta_constant(k: int, digits: int) -> ApproxReal:
    """zeta(k) for k >= 2 with error_bound <= 10**(-digits)."""
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"zeta_constant needs integer k >= 2, got {k!r} (divergent)")
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    import mpmath

    val, cert = _zeta_tail_rational(k, digits)
    dps = digits + 10
    with mpmath.mp.workdps(dps + 8):
        v = mpmath.mpf(val.numerator) / mpmath.mpf(val.denominator)
        cert_f = mpmath.mpf(cert.numerator) / mpmath.mpf(cert.denominator)
        bound = cert_f * (1 + mpmath.mpf(10) ** (-6)) + _slack(dps, v)
        if bound > mpmath.mpf(10) ** (-digits):
            raise ToleranceError(f"zeta({k}) bound {bound} exceeds 10**-{digits}")
    return ApproxReal(v, bound, dps)


@functools.lru_cache(maxsize=None)
def _pi_power_factors(top: int) -> tuple[tuple[int, int], ...]:
    """zeta(2j)/pi^(2j) = |B_2j| 2^(2j-1) / (2j)! for j = 1..top // 2, all
    read from one tangent-number table, as (numerator, denominator) pairs
    left unreduced: a caller reduces only the products it uses."""
    out, fact = [], 1
    for j, b in enumerate(_bernoulli_table(max(top // 2, _EM_TERMS))[: top // 2], start=1):
        fact *= (2 * j - 1) * 2 * j
        out.append((abs(b.numerator) << (2 * j - 1), b.denominator * fact))
    return tuple(out)


def zeta_pi_power_factor(k: int) -> Rational:
    """The exact rational c with zeta(k) = c * pi**k, for even k >= 2.

    c = (-1)^(k/2+1) B_k 2^(k-1) / k!; e.g. zeta(2) = pi^2/6, zeta(4) = pi^4/90.
    """
    if k < 2 or k % 2 != 0:
        raise ValueError(f"pi-power form exists only for even k >= 2, got {k}")
    return Fraction(*_pi_power_factors(k)[-1])

"""Shared independent oracles for the test suite.

These deliberately avoid the library's own evaluation paths: partial sums by
raw nested enumeration, star-sums by raw tuple enumeration, cycle-index
polynomials through the exponential generating function, so each identity is
checked by two genuinely different computations.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import ceil, comb, factorial, log10

import mpmath
import pytest

from zetalike import ToleranceError, zeta_constant


def rising_int(x: int, m: int) -> int:
    out = 1
    for i in range(m):
        out *= x + i
    return out


def brute_rho_partial(parts: tuple[int, ...], n_max: int) -> Fraction:
    """Nested-series partial sum by explicit tuple enumeration."""
    alpha = [p - 1 for p in parts]
    offsets = []
    acc = 0
    for a in alpha:
        offsets.append(acc)
        acc += a
    total = Fraction(0)
    r = len(parts)
    for combo in itertools.combinations(range(1, n_max + 1), r):
        denom = 1
        for j in range(r):
            denom *= rising_int(combo[j] + offsets[j], alpha[j] + 1)
        total += Fraction(1, denom)
    return total


def fraction_rho_partial(parts: tuple[int, ...], checkpoints) -> dict[int, Fraction]:
    """Nested-series partial sums by the step-by-step ``Fraction`` recurrence
    P_j(t) = P_j(t-1) + P_{j-1}(t-1) / (t + a_1 + ... + a_{j-1})_{a_j+1}."""
    alpha = [p - 1 for p in parts]
    offsets = [sum(alpha[:j]) for j in range(len(alpha))]
    state = [Fraction(0)] * len(parts)
    out = {}
    for t in range(1, max(checkpoints) + 1):
        for j in reversed(range(len(parts))):
            factor = Fraction(1, rising_int(t + offsets[j], alpha[j] + 1))
            state[j] += factor * (state[j - 1] if j else 1)
        if t in checkpoints:
            out[t] = state[-1]
    return out


def recursive_weak_compositions(n: int, k: int):
    """Weak k-compositions of n by recursion on the first part, which yields
    them in lexicographic order."""
    if k == 0:
        if n == 0:
            yield ()
        return
    if k == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in recursive_weak_compositions(n - head, k - 1):
            yield (head,) + rest


@functools.lru_cache(maxsize=None)
def recurrence_bernoulli(m: int) -> Fraction:
    """B_m (B_1 = -1/2) by the defining recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0."""
    if m == 0:
        return Fraction(1)
    if m == 1:
        return Fraction(-1, 2)
    if m % 2 == 1:
        return Fraction(0)
    return -sum(comb(m + 1, j) * recurrence_bernoulli(j) for j in range(m)) / (m + 1)


def fraction_zeta_tail(k: int, eps: Fraction) -> tuple[Fraction, Fraction]:
    """Euler-Maclaurin value of zeta(k) and its certificate, term by term in
    ``Fraction``s: the cutoff n0 doubles from 8 until, within 80 corrections,
    the first omitted one is <= eps, giving up on n0 once they stop shrinking."""
    n0 = 8
    while n0 <= 1 << 24:
        tail = Fraction(1, (k - 1) * n0 ** (k - 1)) + Fraction(1, 2 * n0**k)
        prev = None
        for j in range(1, 81):
            term = (
                recurrence_bernoulli(2 * j)
                * rising_int(k, 2 * j - 1)
                / (factorial(2 * j) * Fraction(n0) ** (k + 2 * j - 1))
            )
            cert = abs(term)
            if cert <= eps:
                head = sum(Fraction(1, n**k) for n in range(1, n0))
                return head + tail, cert
            if prev is not None and cert >= prev:
                break
            prev = cert
            tail += term
        n0 *= 2
    raise ToleranceError(f"zeta({k}) to eps={eps} exceeded the summation budget")


def _algebra_slack(dps: int, magnitude) -> mpmath.mpf:
    return mpmath.mpf(10) ** (-(dps + 4)) * (1 + abs(magnitude))


def _algebra_rational(q: Fraction, dps: int) -> tuple:
    with mpmath.mp.workdps(dps + 8):
        v = mpmath.mpf(q.numerator) / mpmath.mpf(q.denominator)
        return v, _algebra_slack(dps, v), dps


def _algebra_add(a: tuple, b: tuple) -> tuple:
    dps = max(a[2], b[2])
    with mpmath.mp.workdps(dps + 8):
        v = a[0] + b[0]
        return v, a[1] + b[1] + _algebra_slack(dps, v), dps


def _algebra_mul(a: tuple, b: tuple) -> tuple:
    dps = max(a[2], b[2])
    with mpmath.mp.workdps(dps + 8):
        v = a[0] * b[0]
        eb = abs(a[0]) * b[1] + abs(b[0]) * a[1] + a[1] * b[1] + _algebra_slack(dps, v)
        return v, eb, dps


def algebra_zeta_numeric(expr, digits: int) -> tuple:
    """(value, error_bound, dps) of ``expr.numeric(digits)`` by the operator
    algebra on certified reals: the constant converted at ``digits``, then
    out + zeta(k) * c per term, each operation at the wider dps + 8 and
    adding its own rounding slack, the product by the rule
    |ab - a'b'| <= |a'| e_b + |b'| e_a + e_a e_b."""
    out = _algebra_rational(expr.constant, digits)
    for k, c in sorted(expr.coeffs.items()):
        try:
            mag = abs(float(c))
        except OverflowError:
            mag = abs(c.numerator) // c.denominator + 1
        z = zeta_constant(k, digits + max(0, ceil(log10(1 + mag))) + 2)
        product = _algebra_mul((z.value, z.error_bound, z.dps), _algebra_rational(c, z.dps))
        out = _algebra_add(out, product)
    return out


def brute_mzv_star(n: int, m: int, shift=Fraction(0)) -> Fraction:
    """Star-sum by explicit enumeration of weakly increasing tuples."""
    shift = Fraction(shift)
    total = Fraction(0)
    for combo in itertools.combinations_with_replacement(range(1, n + 1), m):
        term = Fraction(1)
        for k in combo:
            term /= k + shift
        total += term
    return total


def bell_via_exp_series(m: int, values) -> Fraction:
    """P_m as the z^m coefficient of exp(sum_k values[k-1] z^k / k),
    via truncated power-series exponentiation."""
    # series of the exponent, degree <= m
    expo = [Fraction(0)] * (m + 1)
    for k in range(1, m + 1):
        expo[k] = Fraction(values[k - 1], k)
    # exp via term-by-term products of expo^j / j!
    result = [Fraction(0)] * (m + 1)
    result[0] = Fraction(1)
    power = [Fraction(1)] + [Fraction(0)] * m
    for j in range(1, m + 1):
        nxt = [Fraction(0)] * (m + 1)
        for i, pi in enumerate(power):
            if not pi:
                continue
            for k in range(1, m + 1 - i):
                nxt[i + k] += pi * expo[k]
        power = nxt
        fj = factorial(j)
        for i in range(m + 1):
            result[i] += power[i] / fj
    return result[m]


@pytest.fixture
def frozen_pi_digits():
    # 50 digits, for independent closed-form zeta checks
    return "3.14159265358979323846264338327950288419716939937510"

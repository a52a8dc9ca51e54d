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
from math import comb, factorial, fsum, lcm, prod

import mpmath
import pytest

from zetalike import (
    PoleError,
    ToleranceError,
    ZetaExpr,
    eta_symbolic,
    partial_fraction_shifted,
    weak_compositions,
    zeta_constant,
)
from zetalike.harmonic import harmonic
from zetalike.rho import indices


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


def fraction_rho(parts: tuple[int, ...]) -> Fraction:
    """rho(parts) = 1/(|a|! prod of the suffix sums of a), a_j = s_j - 1."""
    a = [p - 1 for p in parts]
    prod = 1
    for suffix in itertools.accumulate(reversed(a)):
        prod *= suffix
    return Fraction(1, factorial(sum(a)) * prod)


def fraction_rho_sum(weight: int, depth: int, last: int) -> Fraction:
    """Sum of rho over the indices of the weight and depth with last entry
    >= ``last``, one ``Fraction`` per index."""
    return sum(map(fraction_rho, indices(weight, depth, last)), Fraction(0))


def fraction_rho_weighted_lhs(n: int, q: int) -> Fraction:
    """sum_{|a|=n} (a_{q+1}+1) rho(a_1+1, ..., a_q+1, a_{q+1}+2), one
    ``Fraction`` per index."""
    total = Fraction(0)
    for s in indices(n + q + 2, q + 1, 2):
        total += (s[-1] - 1) * fraction_rho(s)
    return total


def fraction_suffix_balance(q: int, n: int) -> Fraction:
    """sum over a_1+...+a_{q+1} = n of 1/prod_{j=1..q}(a_j+...+a_{q+1}+1),
    one ``Fraction`` per composition."""
    total = Fraction(0)
    for comp in recursive_weak_compositions(n, q + 1):
        denom = 1
        suffix = comp[-1]
        for j in range(q - 1, -1, -1):
            suffix += comp[j]
            denom *= suffix + 1
        total += Fraction(1, denom)
    return total


def reference_partial_fractions(parts: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The integer pairs of c[j][k] for prod_j (n+j-1)^(-s_j), laid out as
    ``PartialFractionTable.pairs``, by the kernel's loop as it stood before
    order-1 poles skipped the series: each pole lists its distances
    d = i - j, takes their lcm as the scale, and runs all s divisions by
    every factor 1 + (scale/d) u, even when they are empty."""
    rows = []
    for j, order in enumerate(parts):
        others = [(i - j, s) for i, s in enumerate(parts) if i != j]
        scale = lcm(*(d for d, _ in others))
        series = [1] + [0] * (order - 1)
        den = 1
        for d, s in others:
            den *= d**s
            ratio = scale // d
            for _ in range(s):
                for m in range(1, order):
                    series[m] -= ratio * series[m - 1]
        rows.append(tuple((series[m], den * scale**m) for m in reversed(range(order))))
    return tuple(rows)


def fraction_rows(table) -> tuple[tuple[Fraction, ...], ...]:
    """A ``PartialFractionTable``'s integer pairs as ``Fraction``s:
    ``fraction_rows(table)[j-1][k-1]`` is c[j][k]."""
    return tuple(tuple(Fraction(n, d) for n, d in row) for row in table.pairs)


def first_order_sum(table) -> Fraction:
    """sum_j c[j][1], one ``Fraction`` step per row; zero for every
    admissible index (the convergence constraint)."""
    return sum((row[0] for row in fraction_rows(table)), Fraction(0))


def reconstruct_at(table, n) -> Fraction:
    """sum_{j,k} c[j][k]/(n+j-1)^k at a point n that is not a pole."""
    n = Fraction(n)
    total = Fraction(0)
    for j, row in enumerate(fraction_rows(table), start=1):
        base = n + j - 1
        if base == 0:
            raise ZeroDivisionError(f"{n} is a pole of index {table.parts}")
        for k, c in enumerate(row, start=1):
            total += c / base**k
    return total


def fraction_eta_assembly(parts: tuple[int, ...]) -> ZetaExpr:
    """eta(parts) from the kernel's ``Fraction`` rows, cell by cell: c[j][k]
    adds to the zeta(k) coefficient (k >= 2) and -c[j][k] H_{j-1}^(k) to the
    constant."""
    constant = Fraction(0)
    coeffs: dict[int, Fraction] = {}
    for j, row in enumerate(fraction_rows(partial_fraction_shifted(parts)), start=1):
        constant -= row[0] * harmonic(j - 1, 1)
        for k in range(2, len(row) + 1):
            c = row[k - 1]
            if c:
                coeffs[k] = coeffs.get(k, Fraction(0)) + c
                constant -= c * harmonic(j - 1, k)
    return ZetaExpr(constant, coeffs)


def componentwise_sum(terms) -> ZetaExpr:
    """sum weight * value over (weight, value) pairs, a value being a
    ``ZetaExpr``, ``Fraction`` or int, by componentwise addition: each term
    adds to the constant and to each zeta(k) coefficient, one ``Fraction``
    per step."""
    constant = Fraction(0)
    coeffs: dict[int, Fraction] = {}
    for weight, value in terms:
        if not isinstance(value, ZetaExpr):
            value = ZetaExpr(value)
        constant += weight * value.constant
        for k, c in value.coeffs.items():
            coeffs[k] = coeffs.get(k, Fraction(0)) + weight * c
    return ZetaExpr(constant, coeffs)


def fraction_eta_sum(idxs) -> ZetaExpr:
    """Sum of eta_symbolic over ``idxs`` by :func:`componentwise_sum`."""
    return componentwise_sum((1, eta_symbolic(idx)) for idx in idxs)


def float_eta_oracle(parts: tuple[int, ...], n_terms: int) -> tuple[float, float]:
    """The eta series to ``n_terms`` terms plus the midpoint of its tail
    bracket, and the bracket's half-width.  A per-term generator gives each
    term as 1 / (the integer prod (n+j-1)^(s_j)), and ``fsum`` adds the
    terms and the midpoint.  The tail lies between (N+r)^(1-w)/(w-1) and
    N^(1-w)/(w-1); midpoint and half-width are ``Fraction``s, rounded once."""
    w, r = sum(parts), len(parts)
    upper = Fraction(1, (w - 1) * n_terms ** (w - 1))
    lower = Fraction(1, (w - 1) * (n_terms + r) ** (w - 1))
    terms = (1 / prod((n + off) ** s for off, s in enumerate(parts))
             for n in range(1, n_terms + 1))
    return fsum([*terms, float((upper + lower) / 2)]), float((upper - lower) / 2)


@functools.lru_cache(maxsize=None)
def _pairwise_fractions(factors: tuple[tuple[int, int], ...]) -> tuple:
    """Partial fractions of prod 1/(n+o)^p over ``factors``, (offset o,
    power p >= 1) pairs with distinct offsets in ascending order, as
    ((o, k), c) for the terms c/(n+o)^k.

    The first two factors (a, p), (b, q) are reduced by
    1/((n+a)(n+b)) = (1/(b-a)) (1/(n+a) - 1/(n+b)), which leaves two
    products, each of one lower total power.
    """
    if len(factors) == 1:
        return ((factors[0], Fraction(1)),)
    (a, p), (b, q), rest = factors[0], factors[1], factors[2:]
    out: dict[tuple[int, int], Fraction] = {}
    for sign, pair in ((1, ((a, p), (b, q - 1))), (-1, ((a, p - 1), (b, q)))):
        for key, c in _pairwise_fractions(tuple(f for f in pair if f[1]) + rest):
            out[key] = out.get(key, Fraction(0)) + Fraction(sign, b - a) * c
    return tuple(sorted((key, c) for key, c in out.items() if c))


def pairwise_eta(parts: tuple[int, ...]) -> ZetaExpr:
    """eta(parts) by pairwise reduction of prod_j (n+j-1)^(-s_j): over
    n >= 1, c/(n+o)^k sums to c (zeta(k) - H_o^(k)) for k >= 2, and the k = 1
    terms, whose coefficients add up to 0, to -sum c H_o."""
    constant = Fraction(0)
    coeffs: dict[int, Fraction] = {}
    first_order = Fraction(0)
    for (o, k), c in _pairwise_fractions(tuple(enumerate(parts))):
        if k == 1:
            first_order += c
        else:
            coeffs[k] = coeffs.get(k, Fraction(0)) + c
        constant -= c * sum((Fraction(1, m**k) for m in range(1, o + 1)), Fraction(0))
    assert first_order == 0, parts
    return ZetaExpr(constant, coeffs)


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


def reference_compositions(n: int):
    """Compositions of n into positive parts by recursion on the first part,
    one nested generator per part, in lexicographic order."""
    if n < 0:
        raise ValueError(f"compositions needs n >= 0, got {n}")
    if n == 0:
        return
    for head in range(1, n + 1):
        if head == n:
            yield (head,)
        else:
            for rest in reference_compositions(n - head):
                yield (head,) + rest


def reference_indices(weight: int, depth: int | None = None, last: int = 1):
    """Indices of the weight (and depth) with last entry >= ``last``: all of
    :func:`reference_compositions` filtered, or at a fixed depth each weak
    composition of weight - depth - last + 1 shifted up entry by entry."""
    if depth is None:
        yield from (idx for idx in reference_compositions(weight) if idx[-1] >= last)
        return
    free = weight - depth - last + 1
    if free >= 0:
        for comp in weak_compositions(free, depth):
            yield tuple(c + 1 for c in comp[:-1]) + (comp[-1] + last,)


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
        extra = 0  # the least extra >= 0 with 1 + |c| <= 10^extra
        while 10**extra < 1 + abs(c):
            extra += 1
        z = zeta_constant(k, digits + extra + 2)
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


def fraction_mzv_star(n: int, m: int, shift=0) -> Fraction:
    """Z_n({1}^m; shift) by the two-way recurrence
    Z_n({1}^m; s) = Z_{n-1}({1}^m; s) + Z_n({1}^{m-1}; s) / (n+s), one
    ``Fraction`` per step; raises ``PoleError`` at a negative integer shift
    in {-1, ..., -n}."""
    shift = Fraction(shift)
    if shift.denominator == 1 and -n <= shift.numerator <= -1:
        raise PoleError(f"shift {shift} hits a pole of the length-{n} sum")
    row = [Fraction(1)] + [Fraction(0)] * m
    for i in range(1, n + 1):
        inv = Fraction(1) / (i + shift)
        for j in range(1, m + 1):
            row[j] += row[j - 1] * inv
    return row[m]


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

"""Harmonic numbers, cycle-index (Bell-type) polynomials, and truncated
zeta-star sums: the closed-form side of every sum identity in the library.

The three central objects:

* generalized harmonic numbers  H_n^(s) = sum_{k=1..n} 1/k^s,
* cycle-index polynomials  P_m(t_1,...,t_m), the coefficients of
  exp(sum_k t_k z^k / k),
* truncated zeta-star sums  Z_n({1}^m; s)
  = sum_{1 <= k_1 <= ... <= k_m <= n} prod_i 1/(k_i + s),

tied together by Z_n({1}^m; 0) = P_m(H_n^(1), ..., H_n^(m)) and by the
alternating binomial identity

    sum_{k=0..n} C(n,k) (-1)^k / (k+1)^m
        = P_{m-1}(H_{n+1}^(1), ..., H_{n+1}^(m-1)) / (n+1).

All values are exact rationals.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import PoleError
from .numeric import Rational

__all__ = [
    "harmonic",
    "harmonic_vector",
    "bell_polynomial",
    "mzv_star_truncated",
    "alternating_binomial_sum",
]


def harmonic(n: int, power: int = 1) -> Rational:
    """H_n^(power) = sum_{k=1..n} 1/k^power, exactly; the empty sum (n=0) is 0."""
    if n < 0:
        raise ValueError(f"harmonic needs n >= 0, got {n}")
    if power < 1:
        raise ValueError(f"harmonic needs power >= 1, got {power}")
    return sum((Fraction(1, k**power) for k in range(1, n + 1)), Fraction(0))


def harmonic_vector(n: int, depth: int) -> tuple[Rational, ...]:
    """(H_n^(1), H_n^(2), ..., H_n^(depth)); the usual argument vector for
    :func:`bell_polynomial`."""
    return tuple(harmonic(n, power) for power in range(1, depth + 1))


def _partition_multiplicities(m: int, max_part: int) -> Iterator[dict[int, int]]:
    # multiplicity vectors {part: count} with sum(part*count) == m
    if m == 0:
        yield {}
        return
    if max_part == 0:
        return
    for count in range(m // max_part, -1, -1):
        for rest in _partition_multiplicities(m - count * max_part, max_part - 1):
            if count:
                rest = {**rest, max_part: count}
            yield rest


def bell_polynomial(m: int, values: Sequence[Rational | int]) -> Rational:
    """P_m evaluated at (values[0], ..., values[m-1]).

    Uses the defining sum over partitions k_1 + 2 k_2 + ... + m k_m = m of
    prod_i (t_i/i)^{k_i} / k_i!; partition counts stay tiny for the m this
    library needs.
    """
    if m < 0:
        raise ValueError(f"bell_polynomial needs m >= 0, got {m}")
    if len(values) < m:
        raise ValueError(f"need at least {m} values, got {len(values)}")
    total = Fraction(0)
    for mult in _partition_multiplicities(m, m):
        term = Fraction(1)
        for part, count in mult.items():
            term *= (Fraction(values[part - 1], part)) ** count / math.factorial(count)
        total += term
    return total


def mzv_star_truncated(n: int, m: int, shift: Rational | int = 0) -> Rational:
    """Z_n({1}^m; shift): sum over weakly increasing m-tuples bounded by n of
    prod 1/(k_i + shift); 1 when m = 0.

    Computed by the two-way recurrence

        Z_n({1}^m; s) = Z_{n-1}({1}^m; s) + Z_n({1}^{m-1}; s) / (n+s),

    splitting on whether the largest entry equals n.  Raises
    :class:`PoleError` when shift is a negative integer in {-1, ..., -n}.
    """
    if n < 0 or m < 0:
        raise ValueError(f"mzv_star_truncated needs n, m >= 0, got ({n}, {m})")
    shift = Fraction(shift)
    if shift.denominator == 1 and -n <= shift.numerator <= -1:
        raise PoleError(f"shift {shift} hits a pole of the length-{n} sum")
    row = [Fraction(1)] + [Fraction(0)] * m  # Z_0({1}^j; s) for j = 0..m
    for i in range(1, n + 1):
        inv = Fraction(1) / (i + shift)
        for j in range(1, m + 1):
            row[j] += row[j - 1] * inv
    return row[m]


def alternating_binomial_sum(n: int, m: int) -> Rational:
    """sum_{k=0..n} C(n,k) (-1)^k / (k+1)^m, exactly."""
    if n < 0 or m < 1:
        raise ValueError(f"alternating_binomial_sum needs n >= 0, m >= 1, got ({n}, {m})")
    return sum(
        (Fraction((-1) ** k * math.comb(n, k), (k + 1) ** m) for k in range(n + 1)),
        Fraction(0),
    )

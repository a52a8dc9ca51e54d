"""Multiple rho-values: exact evaluation, the defining-series oracle, and the
closed families.

A rho-index is written the way it prints, rho(s_1, ..., s_r); internally the
shifted exponents a_j = s_j - 1 drive everything.  The defining series is the
nested sum over 1 <= n_1 < ... < n_r of

    1 / [ (n_1)_{a_1+1} (n_2 + a_1)_{a_2+1} ... (n_r + a_1+...+a_{r-1})_{a_r+1} ]

with (x)_m the rising factorial.  Telescoping each layer collapses the whole
series to the exact rational

    rho(s) = 1 / ( |a|! * prod_{k=1..r} (a_k + a_{k+1} + ... + a_r) ),

which is what :func:`rho_exact` evaluates.  Convergence needs s_r >= 2 (so
every suffix sum is >= 1); admissibility is checked once, on the key, when
:func:`rho_exact` misses its cache, and nowhere else.

Fixed-weight sums of rho-values never build a value per index.  With |a|
fixed, rho = 1/(|a|! P), P the product of the suffix sums: top, then top -
c_i for the stars-and-bars cut points c_i.  So a sum ranges over
``combinations_with_replacement`` of suffix sums, adds the integers L/P in C,
L a power of lcm(lo..top), and builds one ``Fraction``.

The fixed-weight rho sum and :func:`suffix_balance_sum` are module-level
caches (``functools.lru_cache``) keyed on exact ints, so a replayed suite
enumerates nothing it has summed before.  :func:`suffix_balance_sum` converts
its arguments with ``operator.index`` before the lookup, so ``(2.0, 3)`` is
refused even when the equal ``(2, 3)`` is warm, and checks ``q, n >= 0``
inside the cached function, so a refused call raises and is never cached.

:func:`rho_series_partial_at` sums the series itself, a cross-check that
shares no code with :func:`rho_exact`.  It keeps integer numerators over one
running common denominator and cuts the sweep into segments that end at each
requested truncation point and every 64 steps.  A segment's rising
factorials, step lcms and quotients are built by ``map`` in C, the Python
loop does only the big-integer recurrence, and the gcd reduction and the
``Fraction`` wait for the segment's end.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .compositions import Index, compositions
from .errors import InadmissibleIndexError
from .numeric import Rational

__all__ = [
    "RhoIndex",
    "indices",
    "rho_exact",
    "rho_series_partial_at",
    "suffix_balance_sum",
    "rho_head_ones",
    "rho_uniform",
    "rho_alternating",
    "rho_increasing",
]

# rho_series_partial_at ends a segment at every multiple of this, so its
# numerators and common denominator are divided by their gcd at least this
# often, and a segment's per-step columns hold at most this many entries
_REDUCE_PERIOD = 64


class RhoIndex(Index):
    """An admissible rho-index in printed form (s_1, ..., s_r)."""

    __slots__ = ()

    @staticmethod
    def _check(parts: tuple[int, ...]) -> None:
        if not parts:
            raise InadmissibleIndexError("rho-index needs depth >= 1")
        if min(parts) < 1:
            raise InadmissibleIndexError(f"rho-index entries must be >= 1: {parts}")
        if parts[-1] < 2:
            raise InadmissibleIndexError(
                f"rho-index {parts} diverges: last entry must be >= 2"
            )

    @property
    def alpha(self) -> tuple[int, ...]:
        """Shifted exponents a_j = s_j - 1."""
        return tuple(p - 1 for p in self.parts)


def indices(
    weight: int, depth: int | None = None, last: int = 1
) -> Iterator[tuple[int, ...]]:
    """Every index of the given weight (and depth, if given) with entries
    >= 1 and last entry >= ``last``, in lexicographic order.  A depth < 1
    yields nothing, and a ``last`` < 1 acts as 1.

    At a fixed depth an index is the gaps between its cut points 0 < c_1 <
    ... < c_{depth-1} <= weight - last, and ``combinations`` emits the cut
    points in the order that makes those gaps lexicographic."""
    last = max(last, 1)
    if depth is None:
        yield from (idx for idx in compositions(weight) if idx[-1] >= last)
    elif depth >= 1 and weight >= last:
        lo, hi = (0,), (weight,)
        for cuts in itertools.combinations(range(1, weight - last + 1), depth - 1):
            yield tuple(map(operator.sub, cuts + hi, lo + cuts))


def rho_exact(idx: RhoIndex | Iterable[int]) -> Rational:
    """Exact value 1/(|a|! * prod of suffix sums of a).

    Values are cached on ``RhoIndex.key(idx)``, the tuple of exact-int
    entries, so a repeated call builds no index; only a miss checks the
    key's admissibility, with ``RhoIndex._check``."""
    return _rho_exact_cached(RhoIndex.key(idx))


@lru_cache(maxsize=None)
def _rho_exact_cached(parts: tuple[int, ...]) -> Rational:
    RhoIndex._check(parts)  # a refused key raises and is not cached
    # the suffix sums of a = s - 1 are those of s less 1, 2, ..., r
    suffix = map(operator.sub, itertools.accumulate(reversed(parts)), itertools.count(1))
    return Fraction(1, math.factorial(sum(parts) - len(parts)) * math.prod(suffix))


def rho_series_partial_at(
    idx: RhoIndex | Iterable[int], checkpoints: Sequence[int]
) -> dict[int, Rational]:
    """Exact partial sums of the defining series, truncated at n_r <= N, for
    each N in ``checkpoints`` (one forward sweep covers them all).

    The sweep maintains P_j(t) = sum over n_1 < ... < n_j <= t of the first j
    layer factors, via P_j(t) = P_j(t-1) + f_j(t) P_{j-1}(t-1).  It keeps
    every P_j as an integer numerator over one shared denominator: step t
    multiplies the denominator by the lcm of the step's rising factorials, so
    the update is integer arithmetic.  The steps 1..max(checkpoints) are cut
    into segments that end at each checkpoint and at each multiple of
    ``_REDUCE_PERIOD``.  For a segment, each layer's rising factorials, the
    step lcms and the quotients lcm / factorial are built in C, and the
    Python loop runs only the recurrence over them.  At a segment's end the
    numerators and the denominator are divided by their gcd, and a
    ``Fraction`` is built if the end is a checkpoint.  So the sweep holds
    O(``_REDUCE_PERIOD``) per-step values, never O(max(checkpoints)).

    Checkpoints must be integers >= 1 (``operator.index``: a float or a
    string raises ``TypeError``); they may come unsorted or repeated.
    """
    idx = RhoIndex.coerce(idx)
    checkpoints = sorted(set(operator.index(n) for n in checkpoints))
    if not checkpoints or checkpoints[0] < 1:
        raise ValueError(f"checkpoints must be positive integers: {checkpoints}")
    # layer j's factor at n_j = t is 1/(t + a_1 + ... + a_{j-1})_{a_j+1}, and
    # (x)_m = perm(x + m - 1, m), so it is 1/perm(t + tops[j], a_j + 1)
    a = idx.alpha
    tops = list(itertools.accumulate(a))
    r = idx.depth
    layers = range(r, 0, -1)
    # [den, num_1, ..., num_r]
    state = [1] + [0] * r
    out: dict[int, Rational] = {}
    t = 0
    for n in checkpoints:
        while t < n:
            # sweep the segment t+1..stop, which ends at n or at the next
            # multiple of _REDUCE_PERIOD, whichever comes first
            stop = min(n, t - t % _REDUCE_PERIOD + _REDUCE_PERIOD)
            columns = [
                list(map(math.perm, range(t + 1 + top, stop + 1 + top), itertools.repeat(ak + 1)))
                for top, ak in zip(tops, a)
            ]
            steps = list(map(math.lcm, *columns))
            # row = (step, step // rf_1, ..., step // rf_r); descending j so
            # the update reads the step-(t-1) value of P_{j-1}
            for row in zip(steps, *(map(operator.floordiv, steps, column) for column in columns)):
                step = row[0]
                for j in layers:
                    state[j] = state[j] * step + state[j - 1] * row[j]
                state[0] *= step
            g = math.gcd(*state)
            state = [v // g for v in state]
            t = stop
        out[n] = Fraction(state[r], state[0])
    return out


@lru_cache(maxsize=None)
def _rho_sum(weight: int, depth: int, last: int) -> Rational:
    # rho summed over indices(weight, depth, last): a = c + (0, ..., 0, last - 1)
    # for c a weak composition of free, so |a| = weight - depth and the suffix
    # sums are top = free + last - 1 and depth - 1 more in [last - 1, top]
    free = weight - depth - last + 1
    if free < 0:
        return Fraction(0)
    lo, top = last - 1, last - 1 + free
    common = math.lcm(*range(lo, top + 1)) ** (depth - 1)
    sums = itertools.combinations_with_replacement(range(lo, top + 1), depth - 1)
    num = sum(map(common.__floordiv__, map(math.prod, sums)))
    return Fraction(num, common * top * math.factorial(weight - depth))


def suffix_balance_sum(q: int, n: int) -> Rational:
    """sum over a_1+...+a_{q+1} = n of 1/prod_{j=1..q}(a_j+...+a_{q+1}+1).

    The identity under test says this equals 1 for every q, n >= 0 (the q=0
    empty product makes the single term 1).  The exact sum is returned, not
    asserted.  Sums are cached on ``(operator.index(q), operator.index(n))``,
    so a float or a string raises ``TypeError`` even when the equal int pair
    is cached.
    """
    return _suffix_balance_cached(operator.index(q), operator.index(n))


@lru_cache(maxsize=None)
def _suffix_balance_cached(q: int, n: int) -> Rational:
    if q < 0 or n < 0:  # inside the cache, so a refused pair raises and is not cached
        raise ValueError(f"need q, n >= 0, got ({q}, {n})")
    # the factors are T_1 = n + 1 >= T_2 >= ... >= T_q, T_j = a_j + ... + a_{q+1} + 1
    top = n + 1
    common = math.lcm(*range(1, top + 1)) ** q
    sums = itertools.combinations_with_replacement(range(top, 0, -1), q)
    factors = map(operator.itemgetter(slice(q)), map((top,).__add__, sums))
    return Fraction(sum(map(common.__floordiv__, map(math.prod, factors))), common)


# --------------------------------------------------------------------------
# Closed families
# --------------------------------------------------------------------------

def rho_head_ones(p: int, inner: Iterable[int]) -> Rational:
    """Prefixing p ones: rho({1}^p, s) = |a|^(-p) rho(s), with |a| the shifted
    weight of the inner index (>= 1 whenever the inner index is admissible)."""
    if p < 0:
        raise ValueError(f"need p >= 0, got {p}")
    inner_idx = RhoIndex.coerce(inner)
    return rho_exact(inner_idx) / Fraction(sum(inner_idx.alpha)) ** p


def rho_uniform(a: int, n: int) -> Rational:
    """Constant index: rho({a+1}^n) = 1/(a^n n! (na)!)."""
    if a < 1 or n < 1:
        raise InadmissibleIndexError(f"uniform family needs a, n >= 1, got ({a}, {n})")
    return Fraction(1, a**n * math.factorial(n) * math.factorial(n * a))


def rho_alternating(a: int, n: int) -> Rational:
    """Alternating index: rho({1, a+1}^n) = 1/(a^(2n) (na)! n!^2)."""
    if a < 1 or n < 1:
        raise InadmissibleIndexError(
            f"alternating family needs a, n >= 1, got ({a}, {n})"
        )
    return Fraction(1, a ** (2 * n) * math.factorial(n * a) * math.factorial(n) ** 2)


def rho_increasing(n: int) -> Rational:
    """Staircase index: rho(1, 2, ..., n) = 2^(n+1)(2n-1) / ((n-1) (2n)! (n(n-1)/2)!).

    Needs n >= 2; at n = 1 the (n-1) factor vanishes, matching the divergence
    of the depth-1 all-ones index.
    """
    if n < 2:
        raise InadmissibleIndexError(f"increasing family needs n >= 2, got {n}")
    return Fraction(
        2 ** (n + 1) * (2 * n - 1),
        (n - 1) * math.factorial(2 * n) * math.factorial(n * (n - 1) // 2),
    )

"""Multiple eta-values: the series sum_{n>=1} prod_j (n+j-1)^(-s_j), its exact
symbolic reduction, and the numeric oracle.

The key fact this module implements: expanding the summand in shifted partial
fractions

    prod_j (n+j-1)^(-s_j) = sum_{j,k} c[j][k] / (n+j-1)^k,

the k >= 2 pieces sum to c[j][k] (zeta(k) - H_{j-1}^(k)) and the k = 1 pieces,
individually divergent, collapse to the finite - sum_j c[j][1] H_{j-1} because
the first-order coefficients satisfy sum_j c[j][1] = 0.  Every eta-value is
therefore an exact element of Q + Q zeta(2) + Q zeta(3) + ..., represented
here by :class:`ZetaExpr`.

The coefficients c[j][k] are computed by exact truncated power series (never
numerically): around the pole n = 1-j, write n = (1-j) + t and expand
prod_{i != j} (i-j+t)^(-s_i) to order s_j - 1; the t^m coefficient is
c[j][s_j - m].  The expansion runs in integers: with d = i-j and
M = lcm(1..max(j-1, r-j)) (r the depth), which is the lcm of the |d|,
substituting t = M u turns each factor into d^(-s) (1 + (M/d) u)^(-s), whose
u-series C(s+m-1, m) (-M/d)^m is integral.  Their product, truncated at
u^(s_j - 1), is built by s exact divisions by each linear factor 1 + (M/d) u,
so every step is an integer multiply-subtract; the t^m coefficient is
I_m / (prod_i d^(s_i) M^m).  A pole of order s_j = 1 needs no series: its row
is c[j][1] = 1 / prod_{i != j} (i-j)^(s_i).

The table keeps those integer pairs.  An eta-value is assembled from them
without a ``Fraction`` per cell: the constant and each zeta(k) coefficient
are each one sum of integer pairs over a running lcm (the constant's terms
take the numerator and denominator of the cached H_{j-1}^(k)), so the value
costs one ``Fraction`` per coefficient.  The first-order cancellation is
checked on the integer numerator of sum_j c[j][1].

Reversal.  Let s' = (s_r, ..., s_1), of weight w, and f_s(x) = prod_j
(x+j-1)^(-s_j).  Then f_{s'}(x) = (-1)^w f_s(-x-r+1), since the factor
(x+r-j)^(-s_j) of f_{s'} is (-1)^(s_j) ((-x-r+1)+j-1)^(-s_j).  Its pole
c[j][k] / (y+j-1)^k at y = -x-r+1 is (-1)^k c[j][k] / (x+r-j)^k, so
c'[r+1-j][k] = (-1)^(w+k) c[j][k]: the table of s' is that of s read from
the other end with signs, and every zeta(k) coefficient of eta(s') is
(-1)^(w+k) times that of eta(s).  Only the constants differ, as they read
the harmonic prefixes at the other positions.  So ``_eta_weight_values``,
the eta-values of one weight, calls the kernel once per reversal class and
sums only the constant of the second member.

:class:`ZetaExpr` is a value, not an algebra.  Values are added only by
``ZetaExpr.sum`` over (integer weight, value) pairs, which shares that
per-key step with the eta assembly; every eta-sum and every discrepancy the
verification suites report is one such sum.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache, partial, reduce
from typing import Iterable, Mapping, NamedTuple, Sequence

from .compositions import Index, compositions
from .errors import InadmissibleIndexError, ToleranceError
from .harmonic import bell_polynomial, harmonic, harmonic_vector
from .numeric import (ApproxReal, Rational, _Frozen, _lcm_sum, _pi_power_factors, _slack,
                      zeta_constant)

__all__ = [
    "EtaIndex",
    "ZetaExpr",
    "PartialFractionTable",
    "partial_fraction_shifted",
    "eta_symbolic",
    "eta_numeric",
    "eta_hook_closed_form",
    "eta_restricted_triple_sum",
    "MAX_DIGITS",
]

# the most digits the CLI's --digits takes and fast mode evaluates at (or start
# + 12, if more): zeta_constant slows sharply past a few hundred digits, and
# 10.0**-digits underflows to 0.0 from 324 on
MAX_DIGITS = 300


class EtaIndex(Index):
    """An admissible eta-index (s_1, ..., s_r): entries >= 1, weight >= 2."""

    __slots__ = ()

    @staticmethod
    def _check(parts: tuple[int, ...]) -> None:
        if not parts:
            raise InadmissibleIndexError("eta-index needs depth >= 1")
        if min(parts) < 1:
            raise InadmissibleIndexError(f"eta-index entries must be >= 1: {parts}")
        if sum(parts) < 2:
            raise InadmissibleIndexError(
                f"eta-index {parts} diverges: total weight must be >= 2"
            )


# --------------------------------------------------------------------------
# ZetaExpr
# --------------------------------------------------------------------------

class ZetaExpr(_Frozen):
    """A formal Q-linear combination  constant + sum_{k>=2} coeffs[k] zeta(k),
    ``coeffs`` a mapping or (k, coefficient) pairs.

    Zero coefficients are never stored, so equality and hashing are
    structural, and a ZetaExpr equals only another ZetaExpr, never a bare
    number.  It is a value, not an algebra: :meth:`sum` is the one way
    values are added.
    """

    __slots__ = ("constant", "_items")

    def __init__(self, constant: Rational | int = 0,
                 coeffs: Mapping[int, Rational] | Iterable[tuple[int, Rational]] | None = None):
        # Fraction(x) of an exact Fraction would only copy it
        if type(constant) is not Fraction:
            constant = Fraction(constant)
        object.__setattr__(self, "constant", constant)
        items = []
        for k, c in sorted(dict(coeffs or ()).items()):
            if not isinstance(k, int) or k < 2:
                raise ValueError(f"zeta argument must be an integer >= 2, got {k!r}")
            if type(c) is not Fraction:
                c = Fraction(c)
            if c:
                items.append((k, c))
        object.__setattr__(self, "_items", tuple(items))

    def _args(self) -> tuple:
        return self.constant, self._items

    # ---- accessors ----

    @property
    def coeffs(self) -> dict[int, Rational]:
        return dict(self._items)

    def is_rational(self) -> bool:
        return not self._items

    def is_zero(self) -> bool:
        return not self._items and self.constant == 0

    @classmethod
    def sum(cls, terms: Iterable[tuple[int, "ZetaExpr | Rational | int"]]) -> "ZetaExpr":
        """sum weight * value over (integer weight, value) pairs, a value being
        a ZetaExpr, Fraction or int.  The constant and each zeta(k)
        coefficient are each one running-lcm sum, so the result costs one
        ``Fraction`` per key; the empty sum is ZetaExpr(0)."""
        pairs: dict[int, list[tuple[int, int]]] = {}
        for weight, value in terms:
            items = ((0, value.constant), *value._items) if isinstance(value, cls) else ((0, value),)
            for k, c in items:
                pairs.setdefault(k, []).append((weight * c.numerator, c.denominator))
        return _from_pairs(pairs)

    # ---- evaluation / rendering ----

    def numeric(self, digits: int = 20) -> ApproxReal:
        """Evaluate with certified zeta constants: |value - self| <= error_bound
        <= C 10^-digits, C read off the exact coefficients alone.

        A step at precision d runs at d + 8 digits, where a rounding moves x
        by at most u |x|, u = 2^-prec < 1.5 * 10^-(d+9).  ``_slack(d, x)`` =
        10^-(d+4) (1 + |x|) exceeds 10^4 u (1 + |x|), which covers the
        roundings of x and of the bound terms, all below 1 + |x|.  Up to those
        roundings, each step adds the share of C 10^-digits after its colon.

        1. The constant q' = num / den, three roundings, is within
           _slack(digits, q') of q: 10^-4 (1 + |q|).
        2. For a term c zeta(k), z = zeta_constant(k, digits + extra + 2)
           (``_extra(c)``, the least with 1 + |c| <= 10^extra) has |z' -
           zeta(k)| <= e_z, |z'| < 1.65 and z.dps = digits + extra + 12, and
           c' converts as in 1 with e_c = _slack(z.dps, c').  Since zeta(k) c
           - z'c' = z' dc + c' dz + dz dc, the bound is |z'| e_c + |c'| e_z +
           e_z e_c, plus _slack(z.dps, z'c') for rounding z'c': 10^-2 |c| /
           10^extra from |c'| e_z and under 3.4 * 10^-16 from the rest.
        3. The running sum moves to d = max(d, z.dps), and its bound gains
           the term's bound and _slack(d, sum) for rounding the sum: after j
           terms d >= digits + 12 + extra_i (i <= j) and |sum| <= |q| + 1.65
           sum_{i<=j} |c_i|, so ((1 + |q|) + 1.65 j) 10^-16.

        Over n terms, as 0.825 (n + 1) + 3.4 <= n + 5, C = 10^-4 (1 + |q|) +
        10^-2 sum |c| / 10^extra + 10^-16 n ((1 + |q|) + n + 5).
        """
        import mpmath

        dps, q = digits, self.constant
        with mpmath.mp.workdps(dps + 8):
            value = mpmath.mpf(q.numerator) / mpmath.mpf(q.denominator)
            bound = _slack(dps, value)
        for k, c in self._items:
            z = zeta_constant(k, digits + _extra(c) + 2)
            with mpmath.mp.workdps(z.dps + 8):
                cv = mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
                ce = _slack(z.dps, cv)
                term = z.value * cv
                term_bound = (abs(z.value) * ce + abs(cv) * z.error_bound
                              + z.error_bound * ce + _slack(z.dps, term))
            dps = max(dps, z.dps)
            with mpmath.mp.workdps(dps + 8):
                value = value + term
                bound = bound + term_bound + _slack(dps, value)
        return ApproxReal(value, bound, dps)

    def bound_scale(self) -> Rational:
        """:meth:`numeric`'s C, exactly, times 1 + 10^-9 (n + 5): the pad covers
        the fewer than 2n + 10 roundings of u < 1.5 * 10^-10 behind each piece
        of the computed bound, a factor under 1 + 4 * 10^-10 (n + 5)."""
        n, q = len(self._items), self.constant
        one_q = q.denominator + abs(q.numerator)  # (1 + |q|) q.denominator
        num, den = _lcm_sum([(one_q, q.denominator * 10**4),
                             (n * (one_q + (n + 5) * q.denominator), q.denominator * 10**16),
                             *((abs(c.numerator), c.denominator * 10**(_extra(c) + 2))
                               for _, c in self._items)])
        return Fraction(num * (10**9 + n + 5), den * 10**9)

    def render(self, style: str = "zeta") -> str:
        """Deterministic human-readable form: the constant, then each nonzero
        term in ascending k, as num*symbol/den with the sign in front.

        style="zeta" writes every term as zeta(k); style="pi" rewrites even
        arguments through zeta(2m) = c * pi^(2m) (so -zeta(2) prints as
        -pi^2/6), leaving odd arguments as zeta(k).  A number past
        ``sys.get_int_max_str_digits()`` raises ``str(int)``'s ValueError.
        """
        if style not in ("zeta", "pi"):
            raise ValueError(f"unknown render style {style!r}")
        out = [str(self.constant)] if self.constant else []
        # one table serves every even k; a zeta-style render builds none
        factors = _pi_power_factors(self._items[-1][0]) if style == "pi" and self._items else ()
        for k, c in self._items:
            if factors and k % 2 == 0:
                num, den = factors[k // 2 - 1]
                c, symbol = Fraction(c.numerator * num, c.denominator * den), f"pi^{k}"
            else:
                symbol = f"zeta({k})"
            num, den = c.numerator, c.denominator
            term = symbol if num == 1 or num == -1 else f"{abs(num)}*{symbol}"
            if den != 1:
                term = f"{term}/{den}"
            if out:
                out.append(f"- {term}" if num < 0 else f"+ {term}")
            else:
                out.append(f"-{term}" if num < 0 else term)
        return " ".join(out) or "0"

    def __repr__(self) -> str:
        return f"ZetaExpr({self.render()})"

    # ---- serialization ----

    def to_json_dict(self) -> dict:
        return {
            "constant": str(self.constant),
            "zeta": {str(k): str(c) for k, c in self._items},
        }


def _extra(c: Rational) -> int:
    # the least e >= 0 with 1 + |c| <= 10^e, ZetaExpr.numeric's extra digits
    # for a term c zeta(k).  1 + |c| = top / den > 2^(b - 1), b the bit-length
    # difference, and 1233 / 4096 < log10 2: the first guess is not too high
    top, den = c.denominator + abs(c.numerator), c.denominator
    guess = max(0, (top.bit_length() - den.bit_length() - 1) * 1233 >> 12)
    return next(e for e in itertools.count(guess) if top <= 10**e * den)


def _from_pairs(pairs: Mapping[int, list[tuple[int, int]]]) -> ZetaExpr:
    # key 0 holds the constant's integer pairs, key k >= 2 those of zeta(k)
    sums = {k: Fraction(*_lcm_sum(terms)) for k, terms in pairs.items()}
    return ZetaExpr(sums.pop(0, 0), sums)


# --------------------------------------------------------------------------
# Shifted partial fractions
# --------------------------------------------------------------------------

class PartialFractionTable(NamedTuple):
    """Coefficients c[j][k] with prod_j (n+j-1)^(-s_j) = sum c[j][k]/(n+j-1)^k.

    ``pairs[j-1][k-1]`` holds c[j][k] for 1 <= j <= len(parts), 1 <= k <= s_j
    as the integers (numerator, denominator) the kernel computes, not
    reduced (the denominator may be negative): with D = prod_{i != j}
    (i-j)^(s_i) and M = lcm(1..max(j-1, r-j)), c[j][s_j - m] is (I_m, D M^m),
    and a row of order s_j = 1 is just (1, D).
    """

    parts: tuple[int, ...]
    pairs: tuple[tuple[tuple[int, int], ...], ...]


def partial_fraction_shifted(idx: EtaIndex | Iterable[int]) -> PartialFractionTable:
    """Exact shifted partial-fraction table for an admissible eta-index."""
    parts = EtaIndex.coerce(idx).parts
    rows = []
    for j, order in enumerate(parts):
        den = 1
        for i, s in enumerate(parts):
            if i != j:
                den *= (i - j)**s
        if order == 1:
            rows.append(((1, den),))
            continue
        # the lcm of the distances |i - j|: they are 1..max(j, len(parts) - 1 - j)
        scale = math.lcm(*range(1, max(j, len(parts) - 1 - j) + 1))
        series = [1] + [0] * (order - 1)  # in u = t/scale, over den
        for i, s in enumerate(parts):
            if i == j:
                continue
            # (d + t)^-s = d^-s (1 + (scale/d) u)^-s: s exact divisions, each
            # an in-place pass series[m] -= ratio * series[m - 1]
            ratio = scale // (i - j)
            for _ in range(s):
                prev = 1  # series[0]
                for m in range(1, order):
                    prev = series[m] = series[m] - ratio * prev
        # c[j][k] is the t^(s_j - k) term
        rows.append(tuple((series[m], den * scale**m) for m in reversed(range(order))))
    num, den = _lcm_sum(row[0] for row in rows)
    if num:
        # cannot happen for weight >= 2; a failure here means a bug upstream
        raise ArithmeticError(
            f"first-order coefficients of {parts} do not cancel: {Fraction(num, den)}"
        )
    return PartialFractionTable(parts, tuple(rows))


# --------------------------------------------------------------------------
# Symbolic and numeric evaluation
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _harmonic_prefixes(n: int, power: int) -> tuple[Rational, ...]:
    # (H_0^(power), ..., H_n^(power)) in one pass, shared by every index of
    # depth n + 1, which reads H_j for j <= n
    return tuple(itertools.accumulate(
        (Fraction(1, k**power) for k in range(1, n + 1)), initial=Fraction(0)))


def _assemble(rows: Sequence[tuple[tuple[int, int], ...]],
              mirror: ZetaExpr | None = None) -> ZetaExpr:
    # the eta-value whose kernel table has these rows.  Given ``mirror``, the
    # eta-value of the reversed index, the rows are mirror's read from the
    # other end, so each cell c[j][k] with w + k odd is negated, the zeta(k)
    # coefficients are mirror's with the same signs, and only the constant
    # is summed (the zeta(k) pairs are collected and dropped)
    flip = -1 if mirror is None else (sum(map(len, rows)) + 1) & 1  # k parity to negate
    # (H_0^(k), ..., H_{r-1}^(k)) for each power k a row after the first
    # reaches; the first row reads only H_0 = 0
    prefixes = [_harmonic_prefixes(len(rows) - 1, k)
                for k in range(1, max(map(len, rows[1:]), default=0) + 1)]
    # the constant -sum c[j][k] H_{j-1}^(k) (key 0) and each zeta(k)
    # coefficient sum_j c[j][k] (key k) as integer pairs
    constant: list[tuple[int, int]] = []
    pairs = {0: constant}
    for j, row in enumerate(rows):
        for k, (num, den) in enumerate(row, start=1):
            if not num:
                continue
            if k & 1 == flip:
                num = -num
            if k > 1:
                pairs.setdefault(k, []).append((num, den))
            if j:
                h = prefixes[k - 1][j]
                constant.append((-num * h.numerator, den * h.denominator))
    if mirror is None:
        return _from_pairs(pairs)
    return ZetaExpr(Fraction(*_lcm_sum(constant)),
                    [(k, -c if k & 1 == flip else c) for k, c in mirror._items])


@lru_cache(maxsize=None)
def _eta_symbolic_cached(parts: tuple[int, ...]) -> ZetaExpr:
    # a miss is the one place a key is validated, and a refused key is not cached
    return _assemble(partial_fraction_shifted(EtaIndex._of_key(parts)).pairs)


@lru_cache(maxsize=None)
def _eta_weight_values(weight: int) -> tuple[tuple[tuple[int, ...], ZetaExpr], ...]:
    """(index, eta-value) for every index of the weight, in ``compositions``
    order, with one kernel call per reversal class {s, s reversed}.

    The table of s reversed is that of s read from the other end, each
    c[j][k] times (-1)^(w+k), and so are its zeta(k) coefficients (see the
    module docstring).  A weight is converted with ``operator.index`` on a
    miss: 2.0 misses the entry of 2, as its cache key is the tuple (2.0,),
    and is refused, like a weight below 2, without being cached.
    """
    weight = operator.index(weight)
    if weight < 2:
        raise InadmissibleIndexError(f"eta-values need weight >= 2, got {weight}")
    values = []
    # the value of each reversed member not yet reached, filled when the
    # lexicographically first member of its class is
    ahead: dict[tuple[int, ...], ZetaExpr] = {}
    for parts in compositions(weight):
        value = ahead.pop(parts, None)
        if value is None:
            rows = partial_fraction_shifted(EtaIndex._of_key(parts)).pairs
            value = _assemble(rows)
            if parts[::-1] != parts:
                ahead[parts[::-1]] = _assemble(rows[::-1], value)
        values.append((parts, value))
    return tuple(values)


def eta_symbolic(idx: EtaIndex | Iterable[int]) -> ZetaExpr:
    """Exact eta-value as a :class:`ZetaExpr`.

    Summing the partial fractions over n >= 1: each (j, k >= 2) cell
    contributes c[j][k] (zeta(k) - H_{j-1}^(k)); the k = 1 cells jointly
    contribute - sum_j c[j][1] H_{j-1}.

    Values are cached on ``EtaIndex.key(idx)``, the tuple of exact-int
    entries, so a repeated call builds no index; the ``EtaIndex`` is built
    from the key by ``EtaIndex._of_key``, and its admissibility checked,
    only on a miss.
    """
    return _eta_symbolic_cached(EtaIndex.key(idx))


def eta_numeric(
    idx: EtaIndex | Iterable[int],
    mode: str = "oracle",
    tolerance: float = 1e-6,
) -> ApproxReal:
    """Numeric eta-value with error_bound <= tolerance.

    mode="oracle" sums the defining series to the least N with r N^(-w) <=
    tolerance (w = weight, r = depth, compared in integers) and brackets the
    rest; this is deliberately independent of the symbolic reduction.
    mode="fast" evaluates :func:`eta_symbolic` with certified zeta constants
    once, at the least digits >= start with C 10^-digits <= tolerance, compared
    in integers: start is 1 digit past the tolerance, and error_bound <= C
    10^-digits for C = ``ZetaExpr.bound_scale()``.  Past both MAX_DIGITS and
    start + 12 it is refused before anything is evaluated.

    The oracle refuses tolerances below 1e-12, so N <= 1,414,214 (weight 2,
    depth 2).  It streams one column of integer powers (n+j-1)^(s_j) per j,
    multiplies each row to P_n left to right and ``math.fsum``s the 1/P_n.

    f(x) = prod_j (x+j-1)^(-s_j) decreases, with (x+r-1)^(-w) <= f(x) <=
    x^(-w), so the tail sum_{n>N} f(n) lies between L = (N+r)^(1-w)/(w-1),
    below the integral of f from N+1, and U = N^(1-w)/(w-1), above the
    integral from N.  The value is the partial sum plus M = (L+U)/2 and
    error_bound is H + slack, where H = (U-L)/2, half the integral of x^(-w)
    over [N, N+r], is at most r N^(-w)/2 <= tolerance/2.  M and H are
    (hi+lo) and (hi-lo) over 2 (w-1) lo hi, lo = N^(w-1), hi = (N+r)^(w-1).

    The slack 5e-16 (total+1) needs only correctly rounded int/int division
    and ``math.fsum``.  With u = 2^-53, each 1/P_n and M is one division,
    off by at most u of itself or 2^-1075 if it underflows, and fsum rounds
    once more; all are positive, so total is off by under 2.01 u (total+1)
    + 1e-317 at any depth.  Rounding H <= U <= 1 and H + slack adds under
    2.01 u (total+1).  The slack, rounded thrice, exceeds 4.02 u (total+1) by
    (5e-16 - 4.02 u - 2e-31)(total+1) > 5.3e-17, room for the 1e-317.  As
    total < zeta(2) + 1, slack < 2e-15 and error_bound <= tolerance.
    """
    import mpmath

    idx = EtaIndex.coerce(idx)
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    if mode == "fast":
        start = max(2, int(math.ceil(-math.log10(tolerance))) + 1)
        expr = eta_symbolic(idx)
        # the least digits >= start with C 10^-digits <= tolerance = a / b
        scale, (a, b) = expr.bound_scale(), tolerance.as_integer_ratio()
        digits = next(d for d in itertools.count(start)
                      if scale.numerator * b <= a * scale.denominator * 10**d)
        if digits > max(MAX_DIGITS, start + 12):
            raise ToleranceError(
                f"could not certify {idx} to {tolerance}: needs {digits} digits "
                f"(cap {MAX_DIGITS})"
            )
        value = expr.numeric(digits)
        if value.error_bound <= mpmath.mpf(tolerance):
            return value
        raise ToleranceError(f"could not certify {idx} to {tolerance}")
    if mode != "oracle":
        raise ValueError(f"unknown mode {mode!r}; expected 'oracle' or 'fast'")

    if tolerance < 1e-12:
        raise ToleranceError("oracle mode supports tolerances >= 1e-12")
    w, r = idx.weight, idx.depth
    # the least N >= 1 with r N^-w <= tolerance = a / b, from just below the float root
    (a, b), guess = tolerance.as_integer_ratio(), int((r / tolerance) ** (1 / w))
    n_terms = next(n for n in itertools.count(max(1, guess - 1)) if r * b <= a * n**w)
    columns = [map(pow, range(1 + off, n_terms + 1 + off), itertools.repeat(s))
               for off, s in enumerate(idx.parts)]
    terms = map((1).__truediv__, reduce(partial(map, operator.mul), columns))
    lo, hi = n_terms ** (w - 1), (n_terms + r) ** (w - 1)
    den = 2 * (w - 1) * lo * hi
    total = math.fsum(itertools.chain(terms, ((hi + lo) / den,)))
    slack = 5e-16 * (total + 1)
    return ApproxReal(mpmath.mpf(total), mpmath.mpf((hi - lo) / den + slack), 17)


# --------------------------------------------------------------------------
# Closed forms
# --------------------------------------------------------------------------

def eta_hook_closed_form(p: int, a: int) -> ZetaExpr:
    """Closed form of the hook-shaped value eta(p, {1}^a):

        a! eta(p, {1}^a)
            = sum_{k=0}^{p-2} (-1)^k zeta(p-k) P_k(H_a^(1), ..., H_a^(k))
              + sum_{k=0}^{a-1} C(a, k+1) (-1)^(p+k-1) H_{k+1} / (k+1)^(p-1).

    Reduces to zeta(p) at a = 0.
    """
    if p < 2:
        raise InadmissibleIndexError(f"hook form needs p >= 2, got {p}")
    if a < 0:
        raise ValueError(f"need a >= 0, got {a}")
    coeffs = {p - k: (-1) ** k * bell_polynomial(k, harmonic_vector(a, k)) for k in range(p - 1)}
    constant = Fraction(0)
    for k in range(0, a):
        constant += (
            math.comb(a, k + 1)
            * Fraction((-1) ** (p + k - 1), (k + 1) ** (p - 1))
            * harmonic(k + 1)
        )
    scale = Fraction(1, math.factorial(a))
    return ZetaExpr(constant * scale, {k: c * scale for k, c in coeffs.items()})


def eta_restricted_triple_sum(q: int) -> ZetaExpr:
    """Closed form of the restricted depth-3 sum

        sum_{a1+a2=q} eta(a1+1, a2+1, 1)
            = (-1)^(q+1) + 1/2 + (-1)^q 3/2^(q+2)
              + sum_{k=0}^{q-1} (-1)^(k+1) (1 - 2^-(k+1)) zeta(q+1-k).

    The verification suite compares this against direct enumeration rather
    than trusting the sign/boundary conventions.
    """
    if q < 1:
        raise ValueError(f"need q >= 1, got {q}")
    constant = Fraction((-1) ** (q + 1)) + Fraction(1, 2) + Fraction((-1) ** q * 3, 2 ** (q + 2))
    coeffs = {q + 1 - k: (-1) ** (k + 1) * (1 - Fraction(1, 2 ** (k + 1))) for k in range(q)}
    return ZetaExpr(constant, coeffs)

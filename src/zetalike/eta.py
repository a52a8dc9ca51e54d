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
c[j][s_j - m].  The expansion runs in integers: with d = i-j and M the lcm of
the |d|, substituting t = M u turns each factor into
d^(-s) (1 + (M/d) u)^(-s), whose u-series C(s+m-1, m) (-M/d)^m is integral.
Their product, truncated at u^(s_j - 1), is built by s exact divisions by
each linear factor 1 + (M/d) u, so every step is an integer
multiply-subtract; the t^m coefficient is then the single
Fraction(I_m, prod_i d^(s_i) M^m), normalised once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

import mpmath

from .errors import InadmissibleIndexError, ToleranceError
from .harmonic import bell_polynomial, harmonic, harmonic_vector
from .numeric import ApproxReal, Rational, zeta_constant, zeta_pi_power_factor

__all__ = [
    "EtaIndex",
    "ZetaExpr",
    "PartialFractionTable",
    "partial_fraction_shifted",
    "eta_symbolic",
    "eta_numeric",
    "eta_hook_closed_form",
    "eta_restricted_triple_sum",
]

# the most terms the series oracle sums
_ORACLE_CAP = 10**7


@dataclass(frozen=True)
class EtaIndex:
    """An admissible eta-index (s_1, ..., s_r): entries >= 1, weight >= 2."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise InadmissibleIndexError("eta-index needs depth >= 1")
        if any(p < 1 for p in parts):
            raise InadmissibleIndexError(f"eta-index entries must be >= 1: {parts}")
        if sum(parts) < 2:
            raise InadmissibleIndexError(
                f"eta-index {parts} diverges: total weight must be >= 2"
            )

    @classmethod
    def coerce(cls, idx: "EtaIndex" | Iterable[int]) -> "EtaIndex":
        return idx if isinstance(idx, EtaIndex) else cls(tuple(idx))

    @property
    def depth(self) -> int:
        return len(self.parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        return "(" + ", ".join(map(str, self.parts)) + ")"


# --------------------------------------------------------------------------
# ZetaExpr
# --------------------------------------------------------------------------

class ZetaExpr:
    """A formal Q-linear combination  constant + sum_{k>=2} coeffs[k] zeta(k).

    Zero coefficients are never stored, so equality and hashing are
    structural.  Addition, subtraction and scaling by exact rationals are
    componentwise.
    """

    __slots__ = ("constant", "_items")

    def __init__(self, constant: Rational | int = 0, coeffs: Mapping[int, Rational] | None = None):
        object.__setattr__(self, "constant", Fraction(constant))
        items = []
        for k, c in sorted((coeffs or {}).items()):
            if not isinstance(k, int) or k < 2:
                raise ValueError(f"zeta argument must be an integer >= 2, got {k!r}")
            c = Fraction(c)
            if c:
                items.append((k, c))
        object.__setattr__(self, "_items", tuple(items))

    def __setattr__(self, *_):
        raise AttributeError("ZetaExpr is immutable")

    # ---- accessors ----

    @property
    def coeffs(self) -> dict[int, Rational]:
        return dict(self._items)

    def is_rational(self) -> bool:
        return not self._items

    def is_zero(self) -> bool:
        return not self._items and self.constant == 0

    # ---- algebra ----

    def __add__(self, other) -> "ZetaExpr":
        other = ZetaExpr.coerce(other)
        co = dict(self._items)
        for k, c in other._items:
            co[k] = co.get(k, Fraction(0)) + c
        return ZetaExpr(self.constant + other.constant, co)

    __radd__ = __add__

    def __neg__(self) -> "ZetaExpr":
        return ZetaExpr(-self.constant, {k: -c for k, c in self._items})

    def __sub__(self, other) -> "ZetaExpr":
        return self + (-ZetaExpr.coerce(other))

    def __rsub__(self, other) -> "ZetaExpr":
        return ZetaExpr.coerce(other) + (-self)

    def __mul__(self, scalar) -> "ZetaExpr":
        scalar = Fraction(scalar)
        return ZetaExpr(self.constant * scalar, {k: c * scalar for k, c in self._items})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ZetaExpr(other)
        if not isinstance(other, ZetaExpr):
            return NotImplemented
        return self.constant == other.constant and self._items == other._items

    def __hash__(self) -> int:
        return hash((self.constant, self._items))

    @classmethod
    def coerce(cls, x) -> "ZetaExpr":
        if isinstance(x, ZetaExpr):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to ZetaExpr")

    # ---- evaluation / rendering ----

    def numeric(self, digits: int = 20) -> ApproxReal:
        """Evaluate with certified zeta constants; bound <= the summed
        per-constant bounds plus rounding slack."""
        out = ApproxReal.from_rational(self.constant, digits)
        for k, c in self._items:
            extra = max(0, int(math.ceil(math.log10(1 + abs(float(c))))))
            out = out + zeta_constant(k, digits + extra + 2) * c
        return out

    @staticmethod
    def _fmt_term(mag: Fraction, symbol: str) -> str:
        num, den = mag.numerator, mag.denominator
        head = symbol if num == 1 else f"{num}*{symbol}"
        return head if den == 1 else f"{head}/{den}"

    def render(self, style: str = "zeta") -> str:
        """Deterministic human-readable form.

        style="zeta" writes every term as zeta(k); style="pi" rewrites even
        arguments through zeta(2m) = c * pi^(2m) (so -zeta(2) prints as
        -pi^2/6), leaving odd arguments as zeta(k).
        """
        if style not in ("zeta", "pi"):
            raise ValueError(f"unknown render style {style!r}")
        pieces: list[tuple[Fraction, str]] = []
        if self.constant:
            pieces.append((self.constant, ""))
        for k, c in self._items:
            if style == "pi" and k % 2 == 0:
                pieces.append((c * zeta_pi_power_factor(k), f"pi^{k}"))
            else:
                pieces.append((c, f"zeta({k})"))
        if not pieces:
            return "0"
        out = []
        for i, (coeff, symbol) in enumerate(pieces):
            neg = coeff < 0
            mag = -coeff if neg else coeff
            body = str(mag) if not symbol else self._fmt_term(mag, symbol)
            if i == 0:
                out.append(f"-{body}" if neg else body)
            else:
                out.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(out)

    def __repr__(self) -> str:
        return f"ZetaExpr({self.render()})"

    # ---- serialization ----

    def to_json_dict(self) -> dict:
        return {
            "constant": str(self.constant),
            "zeta": {str(k): str(c) for k, c in self._items},
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ZetaExpr":
        return cls(
            Fraction(obj["constant"]),
            {int(k): Fraction(c) for k, c in obj.get("zeta", {}).items()},
        )


# --------------------------------------------------------------------------
# Shifted partial fractions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PartialFractionTable:
    """Coefficients c[j][k] with prod_j (n+j-1)^(-s_j) = sum c[j][k]/(n+j-1)^k.

    ``rows[j-1][k-1]`` holds c[j][k] for 1 <= j <= depth, 1 <= k <= s_j.
    """

    parts: tuple[int, ...]
    rows: tuple[tuple[Rational, ...], ...] = field(repr=False)

    @property
    def depth(self) -> int:
        return len(self.parts)

    def coefficient(self, j: int, k: int) -> Rational:
        if not (1 <= j <= self.depth) or not (1 <= k <= self.parts[j - 1]):
            raise IndexError(f"no coefficient c[{j}][{k}] for index {self.parts}")
        return self.rows[j - 1][k - 1]

    def first_order_sum(self) -> Rational:
        """sum_j c[j][1]; zero for every admissible index (the convergence
        constraint)."""
        return sum((row[0] for row in self.rows), Fraction(0))

    def reconstruct_at(self, n: Rational | int) -> Rational:
        """Evaluate sum_{j,k} c[j][k]/(n+j-1)^k at a non-pole point."""
        n = Fraction(n)
        total = Fraction(0)
        for j, row in enumerate(self.rows, start=1):
            base = n + j - 1
            if base == 0:
                raise ZeroDivisionError(f"{n} is a pole of index {self.parts}")
            for k, c in enumerate(row, start=1):
                if c:
                    total += c / base**k
        return total


def partial_fraction_shifted(idx: EtaIndex | Iterable[int]) -> PartialFractionTable:
    """Exact shifted partial-fraction table for an admissible eta-index."""
    parts = EtaIndex.coerce(idx).parts
    rows = []
    for j, order in enumerate(parts):
        others = [(i - j, s) for i, s in enumerate(parts) if i != j]
        scale = math.lcm(*(d for d, _ in others))
        series = [1] + [0] * (order - 1)  # in u = t/scale, over den
        den = 1
        for d, s in others:
            # (d + t)^-s = d^-s (1 + (scale/d) u)^-s: s exact divisions
            den *= d**s
            ratio = scale // d
            for _ in range(s):
                for m in range(1, order):
                    series[m] -= ratio * series[m - 1]
        # c[j][k] is the t^(s_j - k) term
        rows.append(tuple(
            Fraction(series[m], den * scale**m) for m in reversed(range(order))
        ))
    table = PartialFractionTable(parts, tuple(rows))
    if table.first_order_sum() != 0:
        # cannot happen for weight >= 2; a failure here means a bug upstream
        raise ArithmeticError(
            f"first-order coefficients of {parts} do not cancel: {table.first_order_sum()}"
        )
    return table


# --------------------------------------------------------------------------
# Symbolic and numeric evaluation
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _harmonic_prefix(n: int, power: int) -> Rational:
    # H_n^(power), shared by every index: an eta-value of depth r reads n < r
    return harmonic(n, power)


@lru_cache(maxsize=None)
def _eta_symbolic_cached(parts: tuple[int, ...]) -> ZetaExpr:
    table = partial_fraction_shifted(EtaIndex(parts))
    constant = Fraction(0)
    coeffs: dict[int, Fraction] = {}
    for j, row in enumerate(table.rows, start=1):
        constant -= row[0] * _harmonic_prefix(j - 1, 1)
        for k in range(2, len(row) + 1):
            c = row[k - 1]
            if c:
                coeffs[k] = coeffs.get(k, Fraction(0)) + c
                constant -= c * _harmonic_prefix(j - 1, k)
    return ZetaExpr(constant, coeffs)


def eta_symbolic(idx: EtaIndex | Iterable[int]) -> ZetaExpr:
    """Exact eta-value as a :class:`ZetaExpr`.

    Summing the partial fractions over n >= 1: each (j, k >= 2) cell
    contributes c[j][k] (zeta(k) - H_{j-1}^(k)); the k = 1 cells jointly
    contribute - sum_j c[j][1] H_{j-1}.
    """
    return _eta_symbolic_cached(EtaIndex.coerce(idx).parts)


def eta_numeric(
    idx: EtaIndex | Iterable[int],
    mode: str = "oracle",
    tolerance: float = 1e-6,
) -> ApproxReal:
    """Numeric eta-value with error_bound <= tolerance.

    mode="oracle" sums the defining series directly to N terms, N chosen so
    the integral tail estimate N^(1-w)/(w-1) (w = weight) is below
    tolerance/2; this is deliberately independent of the symbolic reduction.
    mode="fast" evaluates :func:`eta_symbolic` with certified zeta constants.

    The oracle refuses tolerances below 1e-12 and term counts above 10**7.
    """
    idx = EtaIndex.coerce(idx)
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    if mode == "fast":
        digits = max(2, int(math.ceil(-math.log10(tolerance))) + 1)
        for _ in range(4):
            value = eta_symbolic(idx).numeric(digits)
            if value.error_bound <= mpmath.mpf(tolerance):
                return value
            digits += 4
        raise ToleranceError(f"could not certify {idx} to {tolerance}")
    if mode != "oracle":
        raise ValueError(f"unknown mode {mode!r}; expected 'oracle' or 'fast'")

    if tolerance < 1e-12:
        raise ToleranceError("oracle mode supports tolerances >= 1e-12")
    w = idx.weight
    n_terms = int(math.ceil((2.0 / ((w - 1) * tolerance)) ** (1.0 / (w - 1))))
    if n_terms > _ORACLE_CAP:
        raise ToleranceError(
            f"oracle for {idx} at {tolerance} needs {n_terms} terms (cap {_ORACLE_CAP})"
        )
    exponents = list(enumerate(idx.parts))  # (offset, power)
    total = math.fsum(
        math.prod((n + off) ** -s for off, s in exponents)
        for n in range(1, n_terms + 1)
    )
    tail = n_terms ** (1 - w) / (w - 1)
    # float rounding: each term is a product of <= depth powers, all <= 1
    slack = (2 * idx.depth + 4) * 2.3e-16 * (total + 1) + 1e-300
    return ApproxReal(mpmath.mpf(total), mpmath.mpf(tail + slack), 17)


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
    coeffs: dict[int, Fraction] = {}
    for k in range(0, p - 1):
        c = Fraction((-1) ** k) * bell_polynomial(k, harmonic_vector(a, k))
        if c:
            coeffs[p - k] = coeffs.get(p - k, Fraction(0)) + c
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
    coeffs: dict[int, Fraction] = {}
    for k in range(q):
        arg = q + 1 - k
        if arg < 2:  # unreachable for q >= 1; guards the formula's domain
            raise ArithmeticError(f"triple-sum formula produced zeta({arg}) at q={q}")
        c = Fraction((-1) ** (k + 1)) * (1 - Fraction(1, 2 ** (k + 1)))
        coeffs[arg] = coeffs.get(arg, Fraction(0)) + c
    return ZetaExpr(constant, coeffs)

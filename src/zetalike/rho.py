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
every suffix sum is >= 1); admissibility is checked once, at index
construction, and nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .compositions import compositions, weak_compositions
from .errors import InadmissibleIndexError
from .numeric import Rational, rising_factorial

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

@dataclass(frozen=True)
class RhoIndex:
    """An admissible rho-index in printed form (s_1, ..., s_r)."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise InadmissibleIndexError("rho-index needs depth >= 1")
        if any(p < 1 for p in parts):
            raise InadmissibleIndexError(f"rho-index entries must be >= 1: {parts}")
        if parts[-1] < 2:
            raise InadmissibleIndexError(
                f"rho-index {parts} diverges: last entry must be >= 2"
            )

    @classmethod
    def coerce(cls, idx: "RhoIndex" | Iterable[int]) -> "RhoIndex":
        return idx if isinstance(idx, RhoIndex) else cls(tuple(idx))

    @property
    def depth(self) -> int:
        return len(self.parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def alpha(self) -> tuple[int, ...]:
        """Shifted exponents a_j = s_j - 1."""
        return tuple(p - 1 for p in self.parts)

    def __str__(self) -> str:
        return "(" + ", ".join(map(str, self.parts)) + ")"


def indices(
    weight: int, depth: int | None = None, last: int = 1
) -> Iterator[tuple[int, ...]]:
    """Every index of the given weight (and depth, if given) with entries
    >= 1 and last entry >= ``last``, in lexicographic order."""
    if depth is None:
        yield from (idx for idx in compositions(weight) if idx[-1] >= last)
        return
    free = weight - depth - last + 1
    if free >= 0:
        for comp in weak_compositions(free, depth):
            yield tuple(c + 1 for c in comp[:-1]) + (comp[-1] + last,)


def rho_exact(idx: RhoIndex | Iterable[int]) -> Rational:
    """Exact value 1/(|a|! * prod of suffix sums of a)."""
    idx = RhoIndex.coerce(idx)
    a = idx.alpha
    prod = 1
    suffix = 0
    for ak in reversed(a):
        suffix += ak
        prod *= suffix
    return Fraction(1, math.factorial(sum(a)) * prod)


def _series_factors(idx: RhoIndex) -> list[tuple[int, int]]:
    # per-layer (offset, length): layer j contributes 1/(n_j + offset)_length
    a = idx.alpha
    out = []
    acc = 0
    for ak in a:
        out.append((acc, ak + 1))
        acc += ak
    return out


def rho_series_partial_at(
    idx: RhoIndex | Iterable[int], checkpoints: Sequence[int]
) -> dict[int, Rational]:
    """Exact partial sums of the defining series, truncated at n_r <= N, for
    each N in ``checkpoints`` (one forward sweep covers them all).

    The sweep maintains P_j(t) = sum over n_1 < ... < n_j <= t of the first j
    layer factors, via P_j(t) = P_j(t-1) + f_j(t) P_{j-1}(t-1).
    """
    idx = RhoIndex.coerce(idx)
    checkpoints = sorted(set(int(n) for n in checkpoints))
    if not checkpoints or checkpoints[0] < 1:
        raise ValueError(f"checkpoints must be positive integers: {checkpoints}")
    factors = _series_factors(idx)
    r = idx.depth
    state = [Fraction(0)] * r
    out: dict[int, Rational] = {}
    want = list(checkpoints)
    for t in range(1, checkpoints[-1] + 1):
        # descending j so the update reads the step-(t-1) value of P_{j-1}
        for j in range(r - 1, -1, -1):
            off, length = factors[j]
            f = Fraction(1, rising_factorial(t + off, length))
            state[j] += f * (state[j - 1] if j else Fraction(1))
        if t == want[0]:
            out[t] = state[r - 1]
            want.pop(0)
    return out


def suffix_balance_sum(q: int, n: int) -> Rational:
    """sum over a_1+...+a_{q+1} = n of 1/prod_{j=1..q}(a_j+...+a_{q+1}+1).

    The identity under test says this equals 1 for every q, n >= 0 (the q=0
    empty product makes the single term 1).  The exact sum is returned, not
    asserted.
    """
    if q < 0 or n < 0:
        raise ValueError(f"need q, n >= 0, got ({q}, {n})")
    total = Fraction(0)
    for comp in weak_compositions(n, q + 1):
        denom = 1
        suffix = comp[-1]
        # running suffix sums a_j + ... + a_{q+1} for j = q down to 1
        for j in range(q - 1, -1, -1):
            suffix += comp[j]
            denom *= suffix + 1
        total += Fraction(1, denom)
    return total


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

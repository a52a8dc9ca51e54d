"""Composition enumeration, and the index type both families build on.

Every fixed-weight summation in this library ranges over compositions: a
weak composition of n into k parts is the gaps between k-1 weakly increasing
cut points in [0, n], and an index of weight w and depth d (entries >= 1) is
the gaps between d-1 strictly increasing cut points 0 < c_1 < ... < c_{d-1}
< w.  Tuples are yielded in lexicographic order, which table emission and
report ordering rely on, and the enumerators are streaming (no materialized
lists).

:class:`Index` is the tuple of entries that ``rho.RhoIndex`` and
``eta.EtaIndex`` share; each subclass adds only its admissibility check.  It
is a ``numeric._Frozen`` value: immutable, hashable and picklable.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterable, Iterator, Self

from .numeric import _Frozen

__all__ = ["Index", "weak_compositions", "compositions"]


class Index(_Frozen):
    """An immutable, hashable index (s_1, ..., s_r) of integer entries; it
    equals only an index of its own class with the same entries.  A
    subclass overrides :meth:`_check`, its admissibility check, which both
    ``__init__`` and :meth:`_of_key` run.

    A cached value function is keyed by :meth:`key`, the exact-int tuple of
    entries, and builds the index with :meth:`_of_key` (so validates it)
    only on a miss."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int]):
        parts = tuple(map(operator.index, parts))
        self._check(parts)
        object.__setattr__(self, "parts", parts)

    @classmethod
    def _of_key(cls, key: tuple[int, ...]) -> Self:
        """The index of ``key``, a tuple of exact ints such as :meth:`key`
        returns: checked for admissibility, its entries not converted again."""
        cls._check(key)
        idx = object.__new__(cls)
        object.__setattr__(idx, "parts", key)
        return idx

    @staticmethod
    def _check(parts: tuple[int, ...]) -> None:
        """Raise unless ``parts`` is admissible; any tuple of ints is."""

    def _args(self) -> tuple:
        return (self.parts,)

    @classmethod
    def coerce(cls, idx: Self | Iterable[int]) -> Self:
        return idx if isinstance(idx, cls) else cls(idx)

    @classmethod
    def key(cls, idx: Self | Iterable[int]) -> tuple[int, ...]:
        """The entries of ``idx`` as a tuple of exact ints, without the
        admissibility check: ``parts`` of an instance of this class, else
        ``operator.index`` of each entry, which refuses a float with
        ``TypeError`` and turns ``True`` into 1, as ``__init__`` does.  So a
        key never lets ``(2.0, 1.0)`` share the cache entry of ``(2, 1)``."""
        return idx.parts if isinstance(idx, cls) else tuple(map(operator.index, idx))

    @property
    def depth(self) -> int:
        return len(self.parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(parts={self.parts!r})"

    def __str__(self) -> str:
        return "(" + ", ".join(map(str, self.parts)) + ")"


def weak_compositions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Yield every k-tuple of nonnegative integers summing to n, in
    lexicographic order.  k=0 yields the empty tuple iff n=0.

    Stars and bars: k-1 bars cut [0, n] at points 0 <= c_1 <= ... <= c_{k-1}
    <= n, and the tuple is the gaps between cuts, (c_1, c_2 - c_1, ...,
    n - c_{k-1}).  ``combinations_with_replacement`` emits the cut points in
    the order that makes those tuples lexicographic.
    """
    if n < 0 or k < 0:
        raise ValueError(f"weak_compositions needs n, k >= 0, got ({n}, {k})")
    if k == 0:
        if n == 0:
            yield ()
        return
    lo, hi = (0,), (n,)
    for cuts in itertools.combinations_with_replacement(range(n + 1), k - 1):
        yield tuple(map(operator.sub, cuts + hi, lo + cuts))


def compositions(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every composition of n into positive parts (any length), in
    lexicographic tuple order; used to enumerate all indices of one weight.

    The first is (1, ..., 1) and the last (n,).  Each next one drops the
    last part x, raises the part before it by one and appends x - 1 ones.
    """
    if n < 0:
        raise ValueError(f"compositions needs n >= 0, got {n}")
    parts = [1] * n
    while len(parts) > 1:
        yield tuple(parts)
        x = parts.pop()
        parts[-1] += 1
        parts += [1] * (x - 1)
    if n:
        yield (n,)

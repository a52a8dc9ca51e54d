"""Weak-composition enumeration.

Every fixed-weight summation in this library ranges over weak compositions:
ordered k-tuples of nonnegative integers with a prescribed sum.  Tuples are
yielded in lexicographic order, which table emission and report ordering
rely on, and the enumerators are streaming (no materialized lists).
"""

from __future__ import annotations

from typing import Iterator

__all__ = ["weak_compositions", "compositions"]


def weak_compositions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Yield every k-tuple of nonnegative integers summing to n, in
    lexicographic order.  k=0 yields the empty tuple iff n=0."""
    if n < 0 or k < 0:
        raise ValueError(f"weak_compositions needs n, k >= 0, got ({n}, {k})")
    if k == 0:
        if n == 0:
            yield ()
        return
    if k == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in weak_compositions(n - head, k - 1):
            yield (head,) + rest


def compositions(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every composition of n into positive parts (any length), in
    lexicographic tuple order; used to enumerate all indices of one weight."""
    if n < 0:
        raise ValueError(f"compositions needs n >= 0, got {n}")
    if n == 0:
        return
    for head in range(1, n + 1):
        if head == n:
            yield (head,)
        else:
            for rest in compositions(n - head):
                yield (head,) + rest

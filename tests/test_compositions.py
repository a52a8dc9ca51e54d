import math

import pytest
from hypothesis import given, strategies as st

from zetalike import compositions, weak_compositions


def _count(n, k):
    # C(n+k-1, k-1) weak k-compositions of n; one (the empty tuple) when n = k = 0
    return math.comb(n + k - 1, k - 1) if k else int(n == 0)


def test_listed_example():
    assert list(weak_compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]


def test_zero_weight():
    assert list(weak_compositions(0, 3)) == [(0, 0, 0)]


def test_empty_cases():
    assert list(weak_compositions(0, 0)) == [()]
    assert list(weak_compositions(3, 0)) == []


def test_count_matches_enumeration_grid():
    for n in range(13):
        for k in range(8):
            seen = list(weak_compositions(n, k))
            assert len(seen) == _count(n, k)
            assert len(set(seen)) == len(seen)
            for tup in seen:
                assert len(tup) == k
                assert all(p >= 0 for p in tup)
                assert sum(tup) == n


def test_lexicographic_order():
    for n, k in [(5, 3), (4, 4), (7, 2)]:
        seen = list(weak_compositions(n, k))
        assert seen == sorted(seen)


@given(st.integers(0, 9), st.integers(0, 5))
def test_enumeration_properties(n, k):
    seen = list(weak_compositions(n, k))
    assert len(seen) == _count(n, k)
    assert seen == sorted(set(seen))
    assert all(sum(t) == n and len(t) == k and min(t, default=0) >= 0 for t in seen)


def test_rejects_negative():
    with pytest.raises(ValueError):
        list(weak_compositions(-1, 2))
    with pytest.raises(ValueError):
        list(weak_compositions(2, -1))


class TestPositiveCompositions:
    def test_weight_four(self):
        assert list(compositions(4)) == [
            (1, 1, 1, 1),
            (1, 1, 2),
            (1, 2, 1),
            (1, 3),
            (2, 1, 1),
            (2, 2),
            (3, 1),
            (4,),
        ]

    def test_counts_are_powers_of_two(self):
        for n in range(1, 11):
            assert sum(1 for _ in compositions(n)) == 2 ** (n - 1)

    def test_order_is_lexicographic(self):
        for n in range(1, 9):
            seen = list(compositions(n))
            assert seen == sorted(seen)

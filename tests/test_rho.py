from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zetalike import (
    InadmissibleIndexError,
    RhoIndex,
    compositions,
    rho_alternating,
    rho_exact,
    rho_head_ones,
    rho_increasing,
    rho_series_partial_at,
    rho_uniform,
    run_check,
    suffix_balance_sum,
    weak_compositions,
)
from zetalike.rho import indices
from conftest import brute_rho_partial


class TestIndices:
    def test_matches_filtered_compositions(self):
        for weight in range(1, 11):
            for depth in (None, *range(1, weight + 1)):
                for last in (1, 2, 3):
                    want = [
                        idx
                        for idx in compositions(weight)
                        if (depth is None or len(idx) == depth) and idx[-1] >= last
                    ]
                    assert list(indices(weight, depth, last)) == want

    def test_empty_sets_raise_nothing(self):
        assert list(indices(1, last=2)) == []
        assert list(indices(3, 3, 2)) == []
        assert list(indices(2, 3)) == []


class TestRhoIndex:
    def test_properties(self):
        idx = RhoIndex((2, 1, 3))
        assert idx.weight == 6
        assert idx.depth == 3
        assert idx.alpha == (1, 0, 2)

    @pytest.mark.parametrize("bad", [(), (1,), (2, 1), (0, 2), (3, -1, 2)])
    def test_inadmissible(self, bad):
        with pytest.raises(InadmissibleIndexError):
            RhoIndex(bad)

    def test_coerce_accepts_lists(self):
        assert rho_exact([2]) == 1


class TestRhoExact:
    def test_printed_samples(self):
        assert rho_exact((2,)) == 1
        assert rho_exact((2, 1, 3)) == Fraction(1, 72)
        assert rho_exact((1, 2, 3)) == Fraction(1, 108)

    def test_depth_one_closed_form(self):
        # rho(s+1) = 1/(s * s!)
        from math import factorial

        for s in range(1, 9):
            assert rho_exact((s + 1,)) == Fraction(1, s * factorial(s))


class TestSeriesPartial:
    def test_single_term(self):
        assert rho_series_partial_at((2,), [1])[1] == Fraction(1, 2)

    def test_telescoping_partial(self):
        assert rho_series_partial_at((2,), [10])[10] == Fraction(10, 11)

    def test_matches_brute_enumeration(self):
        cases = [
            ((2,), 40),
            ((3,), 25),
            ((1, 2), 30),
            ((2, 2), 30),
            ((1, 1, 2), 20),
            ((2, 1, 3), 18),
            ((1, 1, 1, 2), 12),
        ]
        for parts, n_max in cases:
            got = rho_series_partial_at(parts, [n_max])[n_max]
            assert got == brute_rho_partial(parts, n_max)

    def test_monotone_and_bounded(self):
        for parts in [(2,), (1, 3), (2, 2), (1, 1, 2)]:
            exact = rho_exact(parts)
            values = rho_series_partial_at(parts, [5, 10, 20, 40])
            prev = Fraction(0)
            for n in (5, 10, 20, 40):
                assert prev <= values[n] <= exact
                prev = values[n]

    def test_checkpoint_sweep_matches_single_calls(self):
        got = rho_series_partial_at((1, 2), [3, 7, 11])
        for n, v in got.items():
            assert v == rho_series_partial_at((1, 2), [n])[n]

    def test_doubling_tail_envelope(self):
        # tail after N is controlled by 10x the N/2 -> N increment
        for parts in [(2,), (1, 2), (1, 1, 2), (2, 1, 3)]:
            exact = rho_exact(parts)
            vals = rho_series_partial_at(parts, [200, 400])
            gap = exact - vals[400]
            assert gap >= 0
            assert gap <= 10 * (vals[400] - vals[200])


def _sides(identity_id, **params):
    rep = run_check(identity_id, **params)
    return rep.lhs, rep.rhs


class TestSumFormulas:
    def test_fixed_weight_examples(self):
        assert _sides("rho-sum-fixed-weight", m=0, r=1) == (Fraction(1), Fraction(1))
        lhs, rhs = _sides("rho-sum-fixed-weight", m=1, r=1)
        assert lhs == rhs == Fraction(1, 4)
        lhs, rhs = _sides("rho-sum-fixed-weight", m=2, r=2)
        assert lhs == rhs == Fraction(11, 108)

    def test_fixed_weight_grid(self):
        for m in range(8):
            for r in range(1, 5):
                lhs, rhs = _sides("rho-sum-fixed-weight", m=m, r=r)
                assert lhs == rhs

    def test_general_examples(self):
        assert _sides("rho-sum-general", r=0, s=0, q=0) == (Fraction(1), Fraction(1))
        lhs, rhs = _sides("rho-sum-general", r=1, s=0, q=1)
        assert lhs == rhs == Fraction(3, 8)
        lhs, rhs = _sides("rho-sum-general", r=1, s=1, q=0)
        assert lhs == rhs == Fraction(1, 18)

    @given(st.integers(0, 5), st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_general_property(self, r, s, q):
        lhs, rhs = _sides("rho-sum-general", r=r, s=s, q=q)
        assert lhs == rhs

    def test_general_full_grid(self):
        for r in range(7):
            for s in range(5):
                for q in range(5):
                    lhs, rhs = _sides("rho-sum-general", r=r, s=s, q=q)
                    assert lhs == rhs, (r, s, q)

    def test_weighted_full_grid(self):
        for n in range(11):
            for q in range(6):
                lhs, rhs = _sides("rho-weighted-sum", n=n, q=q)
                assert lhs == rhs, (n, q)

    def test_weighted_examples(self):
        assert _sides("rho-weighted-sum", n=0, q=0) == (Fraction(1), Fraction(1))
        lhs, rhs = _sides("rho-weighted-sum", n=1, q=0)
        assert lhs == rhs == Fraction(1, 2)
        # independent re-enumeration for (2, 1)
        want = Fraction(0)
        for comp in weak_compositions(2, 2):
            want += (comp[-1] + 1) * rho_exact((comp[0] + 1, comp[-1] + 2))
        lhs, rhs = _sides("rho-weighted-sum", n=2, q=1)
        assert lhs == want == rhs == Fraction(1, 6)

    def test_suffix_balance(self):
        assert suffix_balance_sum(0, 7) == 1
        assert suffix_balance_sum(1, 2) == 1
        assert suffix_balance_sum(2, 1) == 1
        for q in range(5):
            for n in range(7):
                assert suffix_balance_sum(q, n) == 1


class TestClosedFamilies:
    def test_head_ones_example(self):
        assert rho_head_ones(1, (3,)) == rho_exact((1, 3)) == Fraction(1, 8)

    def test_head_ones_power_formula(self):
        # rho({1}^p, m+1) = 1/(m^(p+1) m!)
        from math import factorial

        for p in range(5):
            for m in range(1, 5):
                closed = rho_head_ones(p, (m + 1,))
                direct = rho_exact((1,) * p + (m + 1,))
                assert closed == direct == Fraction(1, m ** (p + 1) * factorial(m))

    def test_head_ones_grid(self):
        inners = [(2,), (3,), (1, 2), (2, 2), (1, 3), (1, 1, 2), (2, 3)]
        for p in range(5):
            for inner in inners:
                if sum(inner) - len(inner) + p > 9:
                    continue
                assert rho_head_ones(p, inner) == rho_exact((1,) * p + inner)

    def test_uniform(self):
        assert rho_uniform(1, 3) == rho_exact((2, 2, 2)) == Fraction(1, 36)
        for a in range(1, 5):
            for n in range(1, 5):
                assert rho_uniform(a, n) == rho_exact((a + 1,) * n)

    def test_alternating(self):
        assert rho_alternating(2, 1) == rho_exact((1, 3)) == Fraction(1, 8)
        for a in range(1, 5):
            for n in range(1, 4):
                assert rho_alternating(a, n) == rho_exact((1, a + 1) * n)

    def test_increasing(self):
        for n in range(2, 7):
            assert rho_increasing(n) == rho_exact(tuple(range(1, n + 1)))

    def test_increasing_rejects_divergent_case(self):
        with pytest.raises(InadmissibleIndexError):
            rho_increasing(1)

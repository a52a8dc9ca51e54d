import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from zetalike import (
    InadmissibleIndexError,
    RhoIndex,
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
import zetalike.rho
from zetalike.compositions import compositions
from zetalike.rho import indices
from conftest import (brute_rho_partial, fraction_rho_partial, fraction_suffix_balance,
                      reference_indices)
from zetalike.verify import CHECKS


class TestIndices:
    def test_matches_filtered_compositions(self):
        for weight in range(1, 11):
            for depth in (None, *range(1, weight + 1)):
                assert list(indices(weight, depth)) == list(indices(weight, depth, 1))
                for last in (1, 2, 3):
                    want = [
                        idx
                        for idx in compositions(weight)
                        if (depth is None or len(idx) == depth) and idx[-1] >= last
                    ]
                    assert list(indices(weight, depth, last)) == want

    def test_matches_reference(self):
        for weight in range(17):
            for depth in (None, *range(1, weight + 2)):
                for last in range(1, 5):
                    want = list(reference_indices(weight, depth, last))
                    assert list(indices(weight, depth, last)) == want, (weight, depth, last)

    def test_last_below_one_acts_as_one(self):
        # every fixed-depth output is the depth-None output of that length
        for weight in range(11):
            for last in range(-2, 5):
                every = list(indices(weight, None, last))
                assert every == list(indices(weight, None, max(last, 1)))
                for depth in range(1, weight + 2):
                    want = [idx for idx in every if len(idx) == depth]
                    assert list(indices(weight, depth, last)) == want, (weight, depth, last)
        assert list(indices(3, 2, 0)) == [(1, 2), (2, 1)]
        assert list(indices(0, 1, -1)) == []

    def test_empty_sets_raise_nothing(self):
        assert list(indices(1, last=2)) == []
        assert list(indices(3, 3, 2)) == []
        assert list(indices(2, 3)) == []
        assert list(indices(1, 0, 2)) == []
        assert list(indices(0, 0, 1)) == []
        assert list(indices(5, -1)) == []
        # the rho sum over an empty set is 0
        for weight, depth, last in ((1, 1, 2), (3, 3, 2), (4, 2, 4)):
            assert list(indices(weight, depth, last)) == []
            assert zetalike.rho._rho_sum(weight, depth, last) == 0


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

    def test_immutable_value(self):
        idx = RhoIndex([1, 2])
        assert idx == RhoIndex((1, 2))
        assert idx != RhoIndex((2, 2)) and idx != (1, 2)
        assert RhoIndex.coerce(idx) is idx
        assert (str(idx), repr(idx)) == ("(1, 2)", "RhoIndex(parts=(1, 2))")

    @pytest.mark.parametrize("bad", [(2.7,), ("3",), (2.5,), (1, 2.0)])
    def test_non_integral_entry_raises(self, bad):
        with pytest.raises(TypeError):
            RhoIndex(bad)
        with pytest.raises(TypeError):
            rho_exact(bad)


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

    def test_validates_once_at_the_boundary(self, monkeypatch):
        calls = []
        check = RhoIndex._check

        def counting(parts):
            calls.append(parts)
            check(parts)

        monkeypatch.setattr(RhoIndex, "_check", staticmethod(counting))
        zetalike.rho._rho_exact_cached.cache_clear()
        assert rho_exact((2, 1, 3)) == Fraction(1, 72)
        assert calls == [(2, 1, 3)]
        assert rho_exact((2, 1, 3)) == Fraction(1, 72)
        assert calls == [(2, 1, 3)]

    def test_float_entries_refused_when_the_int_index_is_warm(self):
        rho_exact((2, 2))
        with pytest.raises(TypeError):
            rho_exact((2.0, 2.0))
        assert rho_exact((True, 2)) == rho_exact((1, 2))

    def test_refused_index_is_not_cached(self):
        cache = zetalike.rho._rho_exact_cached
        size = cache.cache_info().currsize
        for _ in range(2):
            with pytest.raises(InadmissibleIndexError):
                rho_exact((2, 1))
        assert cache.cache_info().currsize == size

    def test_every_form_of_an_index_shares_one_entry(self):
        cache = zetalike.rho._rho_exact_cached
        cache.cache_clear()
        first = rho_exact((1, 3))
        for same in ([1, 3], (p for p in (1, 3)), RhoIndex((1, 3))):
            assert rho_exact(same) is first
        assert cache.cache_info().currsize == 1
        assert cache.cache_info().hits == 3


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

    def test_past_the_reduction_period(self):
        # the sweep divides by a common gcd every 64 steps
        for parts, ns in [
            ((2,), [63, 64, 65, 128, 129, 200]),
            ((4,), [63, 64, 65, 128, 129, 200]),
            ((1, 2), [64, 65, 129]),
            ((2, 3), [64, 65, 129]),
        ]:
            got = rho_series_partial_at(parts, ns)
            assert got == {n: brute_rho_partial(parts, n) for n in ns}

    def test_dense_checkpoints(self):
        # every step a checkpoint: segments of length 1, checkpoints on
        # reduction steps; then a reduction step with no checkpoint (4 P)
        period = zetalike.rho._REDUCE_PERIOD
        ns = [*range(1, 2 * period + 3), 3 * period, 4 * period + 1]
        for parts in [(2,), (1, 2), (2, 1, 3), (1, 1, 1, 2)]:
            got = rho_series_partial_at(parts, ns)
            assert list(got) == ns
            assert got == fraction_rho_partial(parts, ns)

    def test_segments_end_at_checkpoints_and_reduction_steps(self, monkeypatch):
        # one gcd reduction per segment, so no segment outgrows the period
        # (the values alone cannot tell: any schedule gives the same sums)
        period = zetalike.rho._REDUCE_PERIOD
        ns = [period + 36, 4 * period + 44]
        reductions = []

        def gcd(*args):
            reductions.append(len(args))
            return math.gcd(*args)

        monkeypatch.setattr(zetalike.rho, "math",
                            SimpleNamespace(perm=math.perm, lcm=math.lcm, gcd=gcd))
        got = rho_series_partial_at((1, 2), ns)
        assert got == fraction_rho_partial((1, 2), ns)
        assert reductions == [3] * len({*ns, *range(period, ns[-1], period)})

    def test_sweep_streams_its_steps(self):
        # 2 * 10^4 steps of (2,): a column of one rising factorial per step
        # would take over 600 KB
        tracemalloc.start()
        try:
            got = rho_series_partial_at((2,), [20_000])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == {20_000: Fraction(20_000, 20_001)}
        assert peak < 64 * 1024

    def test_matches_fraction_recurrence(self):
        for parts in [(3,), (1, 2), (2, 1, 3), (1, 2, 1, 2), (1, 1, 2, 1, 2)]:
            got = rho_series_partial_at(parts, [1000, 2000])
            assert got == fraction_rho_partial(parts, [1000, 2000])
            assert all(type(v) is Fraction for v in got.values())

    def test_unsorted_and_repeated_checkpoints(self):
        got = rho_series_partial_at((1, 2), [129, 7, 64, 7, 129])
        assert list(got) == [7, 64, 129]
        assert got == fraction_rho_partial((1, 2), [7, 64, 129])

    def test_checkpoints_below_depth_are_zero(self):
        got = rho_series_partial_at((1, 1, 2), [1, 2, 3, 70])
        assert got[1] == got[2] == 0
        assert got[3] == brute_rho_partial((1, 1, 2), 3) > 0
        assert got[70] == brute_rho_partial((1, 1, 2), 70)
        assert all(type(v) is Fraction for v in got.values())

    @pytest.mark.parametrize("bad", [2.7, "3"])
    def test_non_integral_checkpoint_raises(self, bad):
        with pytest.raises(TypeError):
            rho_series_partial_at((2,), [bad])

    @pytest.mark.parametrize("bad", [[], [0], [3, -1]])
    def test_checkpoint_below_one_raises(self, bad):
        with pytest.raises(ValueError):
            rho_series_partial_at((2,), bad)

    def test_shares_no_code_with_the_factorial_formula(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the series oracle called a closed formula")

        for name in ("rho_exact", "rho_head_ones", "rho_uniform",
                     "rho_alternating", "rho_increasing"):
            monkeypatch.setattr(zetalike.rho, name, refuse)
        got = rho_series_partial_at((2, 1, 3), [100])
        assert got == fraction_rho_partial((2, 1, 3), [100])

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

    def test_suffix_balance_matches_fraction_reference(self):
        grid = CHECKS["suffix-balance"].grid
        for q in range(max(p["q"] for p in grid) + 2):
            for n in range(max(p["n"] for p in grid) + 2):
                got = suffix_balance_sum(q, n)
                assert type(got) is Fraction
                assert got == fraction_suffix_balance(q, n), (q, n)

    def test_suffix_balance_refuses_floats_when_the_int_pair_is_warm(self):
        # (2.0, 3) == (2, 3) and the two hash alike, so the cache key must be
        # built from exact ints
        suffix_balance_sum(2, 3)
        for bad in ((2.0, 3), (2, 3.0)):
            with pytest.raises(TypeError):
                suffix_balance_sum(*bad)

    def test_suffix_balance_bool_is_an_int(self):
        assert suffix_balance_sum(True, 3) == suffix_balance_sum(1, 3) == 1
        assert suffix_balance_sum(2, False) == suffix_balance_sum(2, 0) == 1

    @pytest.mark.parametrize("bad", [(-1, 2), (2, -1)])
    def test_suffix_balance_refusal_is_not_cached(self, bad):
        cache = zetalike.rho._suffix_balance_cached
        size = cache.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError, match="need q, n >= 0"):
                suffix_balance_sum(*bad)
        assert cache.cache_info().currsize == size

    def test_suffix_balance_is_summed_once(self):
        cache = zetalike.rho._suffix_balance_cached
        cache.cache_clear()
        first = suffix_balance_sum(3, 4)
        assert suffix_balance_sum(3, 4) is first
        assert cache.cache_info()[:2] == (1, 1)

    def test_rho_sum_is_summed_once(self):
        zetalike.rho._rho_sum.cache_clear()
        first = zetalike.rho._rho_sum(7, 3, 2)
        assert zetalike.rho._rho_sum(7, 3, 2) is first
        assert zetalike.rho._rho_sum.cache_info()[:2] == (1, 1)


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

    @pytest.mark.parametrize("family", [rho_uniform, rho_alternating])
    def test_uniform_and_alternating_need_both_parameters_positive(self, family):
        for a, n in ((0, 1), (1, 0), (0, 0), (-1, 2), (2, -1)):
            with pytest.raises(InadmissibleIndexError):
                family(a, n)

    def test_increasing(self):
        for n in range(2, 7):
            assert rho_increasing(n) == rho_exact(tuple(range(1, n + 1)))

    def test_increasing_rejects_divergent_case(self):
        with pytest.raises(InadmissibleIndexError):
            rho_increasing(1)

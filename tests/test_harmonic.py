from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zetalike import (
    PoleError,
    alternating_binomial_sum,
    bell_polynomial,
    harmonic_vector,
    mzv_star_truncated,
)
from zetalike.harmonic import harmonic
from conftest import bell_via_exp_series, brute_mzv_star, fraction_mzv_star

rationals = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=12
)


class TestHarmonic:
    def test_plain_values(self):
        assert harmonic(3) == Fraction(11, 6)
        assert harmonic(0, 2) == 0
        assert harmonic(1) == 1

    def test_vector(self):
        assert harmonic_vector(2, 3) == (
            Fraction(3, 2),
            Fraction(5, 4),
            Fraction(9, 8),
        )


class TestBellPolynomial:
    def test_degenerate_cases(self):
        assert bell_polynomial(0, ()) == 1
        assert bell_polynomial(1, (Fraction(7, 3),)) == Fraction(7, 3)

    def test_degree_two_closed_form(self):
        a, b = Fraction(2, 5), Fraction(-1, 3)
        assert bell_polynomial(2, (a, b)) == a**2 / 2 + b / 2

    def test_all_ones_collapses_to_one(self):
        # exp(-log(1-z)) = 1/(1-z): every coefficient is 1
        for m in range(8):
            assert bell_polynomial(m, (1,) * m) == 1

    @given(st.lists(rationals, min_size=6, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_matches_exponential_series(self, values):
        for m in range(7):
            assert bell_polynomial(m, values) == bell_via_exp_series(m, values)


class TestMzvStar:
    def test_depth_one_is_harmonic(self):
        assert mzv_star_truncated(3, 1) == harmonic(3) == Fraction(11, 6)

    def test_pairs(self):
        assert mzv_star_truncated(2, 2) == Fraction(7, 4)

    def test_empty_index(self):
        for n in (0, 1, 5):
            assert mzv_star_truncated(n, 0) == 1

    def test_against_brute_enumeration(self):
        for n in range(6):
            for m in range(5):
                for shift in (Fraction(0), Fraction(1, 2), Fraction(2)):
                    assert mzv_star_truncated(n, m, shift) == brute_mzv_star(
                        n, m, shift
                    )

    def test_recurrence(self):
        s = Fraction(1, 3)
        for n in range(1, 7):
            for m in range(1, 6):
                assert mzv_star_truncated(n, m, s) == mzv_star_truncated(
                    n - 1, m, s
                ) + mzv_star_truncated(n, m - 1, s) / (n + s)

    def test_pole(self):
        with pytest.raises(PoleError):
            mzv_star_truncated(4, 2, -3)

    @pytest.mark.parametrize("n, m", [(-1, 2), (2, -1)])
    def test_negative_length_or_depth_raises(self, n, m):
        # either one negative is refused on its own
        with pytest.raises(ValueError):
            mzv_star_truncated(n, m)

    def test_matches_fraction_recurrence(self):
        shifts = [*range(7), Fraction(1, 2), Fraction(1, 3), Fraction(-1, 2), Fraction(-7, 3)]
        for n in range(21):
            for m in range(9):
                for shift in shifts:
                    got = mzv_star_truncated(n, m, shift)
                    assert type(got) is Fraction
                    assert got == fraction_mzv_star(n, m, shift), (n, m, shift)

    def test_poles_match_fraction_recurrence(self):
        for n in range(8):
            for shift in range(-n - 2, 1):
                outcomes = []
                for fn in (mzv_star_truncated, fraction_mzv_star):
                    try:
                        outcomes.append(fn(n, 2, shift))
                    except PoleError:
                        outcomes.append(PoleError)
                assert outcomes[0] == outcomes[1], (n, shift)
                assert (outcomes[0] is PoleError) == (-n <= shift <= -1), (n, shift)

    def test_star_equals_bell_of_harmonics(self):
        for n in range(9):
            for m in range(6):
                assert mzv_star_truncated(n, m) == bell_polynomial(
                    m, harmonic_vector(n, m)
                )


class TestAlternatingBinomialSum:
    def test_small_values(self):
        assert alternating_binomial_sum(0, 1) == 1
        assert alternating_binomial_sum(1, 1) == Fraction(1, 2)
        assert alternating_binomial_sum(2, 2) == Fraction(11, 18)

    @pytest.mark.parametrize("n, m", [(-1, 2), (2, 0)])
    def test_out_of_range_arguments_raise(self, n, m):
        # either n < 0 or m < 1 is refused on its own
        with pytest.raises(ValueError):
            alternating_binomial_sum(n, m)

    def test_bell_identity_grid(self):
        for n in range(11):
            for m in range(1, 7):
                want = bell_polynomial(m - 1, harmonic_vector(n + 1, m - 1)) / (n + 1)
                assert alternating_binomial_sum(n, m) == want

    @given(st.integers(0, 12), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_bell_identity_property(self, n, m):
        want = bell_polynomial(m - 1, harmonic_vector(n + 1, m - 1)) / (n + 1)
        assert alternating_binomial_sum(n, m) == want

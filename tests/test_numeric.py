from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fraction_zeta_tail, recurrence_bernoulli
from zetalike import (
    ApproxReal,
    ToleranceError,
    bernoulli_number,
    zeta_constant,
    zeta_pi_power_factor,
)
from zetalike import numeric


class TestBernoulli:
    def test_small_values(self):
        expected = {
            0: Fraction(1),
            1: Fraction(-1, 2),
            2: Fraction(1, 6),
            3: Fraction(0),
            4: Fraction(-1, 30),
            6: Fraction(1, 42),
            8: Fraction(-1, 30),
            10: Fraction(5, 66),
            12: Fraction(-691, 2730),
        }
        for m, want in expected.items():
            assert bernoulli_number(m) == want

    def test_matches_recurrence(self):
        for m in range(201):
            assert bernoulli_number(m) == recurrence_bernoulli(m), m

    def test_odd_beyond_one_is_zero(self):
        for m in range(3, 202, 2):
            assert bernoulli_number(m) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bernoulli_number(-1)

    def test_pi_power_factors(self):
        assert zeta_pi_power_factor(2) == Fraction(1, 6)
        assert zeta_pi_power_factor(4) == Fraction(1, 90)
        assert zeta_pi_power_factor(6) == Fraction(1, 945)
        assert zeta_pi_power_factor(8) == Fraction(1, 9450)

    def test_pi_power_factor_rejects_odd(self):
        with pytest.raises(ValueError):
            zeta_pi_power_factor(3)


class TestZetaConstant:
    @pytest.mark.parametrize("k,denominator", [(2, 6), (4, 90), (6, 945)])
    def test_even_closed_forms(self, k, denominator, frozen_pi_digits):
        # independent oracle: pi to 50 digits, squared down to the closed form
        with mpmath.mp.workdps(60):
            want = mpmath.mpf(frozen_pi_digits) ** k / denominator
            got = zeta_constant(k, 10)
            assert abs(got.value - want) <= got.error_bound
            assert got.error_bound <= mpmath.mpf(10) ** -10

    def test_matches_independent_pi_constant(self, frozen_pi_digits):
        z2 = zeta_constant(2, 15)
        with mpmath.mp.workdps(60):
            pi = ApproxReal(mpmath.mpf(frozen_pi_digits), mpmath.mpf(10) ** -15, 25)
        assert z2.agrees_with(pi * pi * Fraction(1, 6), 0)

    def test_direct_series_with_integral_tail_oracle(self):
        # oracle: partial sum of n^-3 with tail bounded by the integral estimate
        n_cut = 4000
        partial = sum(Fraction(1, n**3) for n in range(1, n_cut + 1))
        tail_bound = Fraction(1, 2 * n_cut**2)
        got = zeta_constant(3, 6)
        with mpmath.mp.workdps(40):
            lo = mpmath.mpf(partial.numerator) / partial.denominator
            assert got.value + got.error_bound >= lo
            assert got.value - got.error_bound <= lo + mpmath.mpf(
                tail_bound.numerator
            ) / tail_bound.denominator
        assert got.error_bound <= 1e-6

    def test_high_digit_request(self):
        got = zeta_constant(2, 30)
        with mpmath.mp.workdps(50):
            want = mpmath.pi**2 / 6
            assert abs(got.value - want) <= got.error_bound <= mpmath.mpf(10) ** -30

    def test_rejects_divergent_argument(self):
        with pytest.raises(ValueError):
            zeta_constant(1, 10)
        with pytest.raises(ValueError):
            zeta_constant(2, 0)

    def test_certificate_above_request_raises(self, monkeypatch):
        # an explicit check, so it also holds under python -O
        monkeypatch.setattr(
            numeric, "_zeta_tail_rational", lambda k, eps: (Fraction(1), 4 * eps)
        )
        with pytest.raises(ToleranceError):
            zeta_constant.__wrapped__(2, 10)

    @pytest.mark.parametrize("digits", [1, 2, 10, 20, 57, 100, 150, 211, 299, 300])
    @pytest.mark.parametrize("k", range(2, 13))
    def test_tail_matches_fraction_reference(self, k, digits):
        # same value and same certificate, so every printed digit and bound
        eps = Fraction(1, 2 * 10**digits)
        got = numeric._zeta_tail_rational(k, eps)
        want = fraction_zeta_tail(k, eps)
        assert got == want
        assert all(type(x) is Fraction for x in got)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(k=st.integers(2, 20), digits=st.integers(1, 300))
    def test_bound_holds_against_mpmath(self, k, digits):
        got = zeta_constant(k, digits)
        with mpmath.mp.workdps(2 * digits + 20):
            err = abs(got.value - mpmath.zeta(k))
            assert err <= got.error_bound <= mpmath.mpf(10) ** -digits

    def test_deterministic_across_calls(self):
        a = zeta_constant(5, 12)
        b = zeta_constant(5, 12)
        assert a.value == b.value and a.error_bound == b.error_bound


class TestApproxReal:
    def test_addition_adds_bounds(self):
        # binary-exact bounds so the comparison itself cannot round
        ea, eb = mpmath.mpf(2) ** -20, mpmath.mpf(2) ** -23
        c = ApproxReal(mpmath.mpf(1.0), ea) + ApproxReal(mpmath.mpf(2.0), eb)
        assert c.error_bound >= ea + eb
        assert c.error_bound < 2 * (ea + eb)

    def test_product_rule(self):
        ea, eb = mpmath.mpf(2) ** -12, mpmath.mpf(2) ** -16
        a = ApproxReal(mpmath.mpf(3.0), ea)
        b = ApproxReal(mpmath.mpf(-2.0), eb)
        c = a * b
        assert c.error_bound >= 3 * eb + 2 * ea + ea * eb
        assert abs(float(c.value) + 6.0) < 1e-15

    def test_agreement_rule_uses_both_bounds(self):
        a = ApproxReal(mpmath.mpf(1.0), mpmath.mpf(4e-4))
        b = ApproxReal(mpmath.mpf("1.001"), mpmath.mpf(4e-4))
        assert a.agrees_with(b, 3e-4)
        assert not a.agrees_with(b, 1e-5)

    def test_exact_scalar_mixing(self):
        a = ApproxReal.from_rational(Fraction(1, 3), 25)
        b = a * 3 - 1
        assert abs(b.value) <= b.error_bound
        assert b.error_bound < 1e-20

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            ApproxReal(mpmath.mpf(1), mpmath.mpf(-1))

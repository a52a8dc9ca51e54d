import math
import re
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fraction_zeta_tail, recurrence_bernoulli
from zetalike import (
    ApproxReal,
    ToleranceError,
    ZetaExpr,
    bernoulli_number,
    eta_symbolic,
    zeta_constant,
    zeta_pi_power_factor,
)
from zetalike import numeric


class TestLcmSum:
    def test_one_numerator_over_the_running_lcm(self):
        assert numeric._lcm_sum([]) == (0, 1)
        assert numeric._lcm_sum([(1, 3)]) == (1, 3)
        assert numeric._lcm_sum([(1, 4), (1, 6), (-2, 3)]) == (-3, 12)


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

    def test_pi_render_builds_one_table(self):
        value = eta_symbolic((400, 2))
        for cache in (numeric._bernoulli_table, numeric.bernoulli_number,
                      numeric._pi_power_factors):
            cache.cache_clear()
        value.render("pi")
        assert numeric._bernoulli_table.cache_info().currsize == 1
        value.render("zeta")
        assert numeric._pi_power_factors.cache_info().currsize == 1

    def test_table_is_sized_to_the_request(self):
        # B_400 and the pi factors up to pi^400 both read the 200-entry table
        for cache in (numeric._bernoulli_table, numeric.bernoulli_number,
                      numeric._pi_power_factors):
            cache.cache_clear()
        numeric.bernoulli_number(400)
        numeric._pi_power_factors(400)
        numeric._bernoulli_table(200)
        assert numeric._bernoulli_table.cache_info().misses == 1

    def test_pi_render_matches_recurrence(self):
        # zeta(k) = (-1)^(k/2+1) B_k 2^(k-1) / k! pi^k, with B_k from the
        # defining recurrence instead of the tangent-number table
        value = eta_symbolic((200, 2))
        assert max(k for k in value.coeffs if k % 2 == 0) > 2 * numeric._EM_TERMS
        scaled = {k: c * (-1) ** (k // 2 + 1) * recurrence_bernoulli(k) * 2 ** (k - 1)
                  / math.factorial(k) if k % 2 == 0 else c
                  for k, c in value.coeffs.items()}
        want = re.sub(r"zeta\((\d+)\)",
                      lambda m: f"pi^{m[1]}" if int(m[1]) % 2 == 0 else m[0],
                      ZetaExpr(value.constant, scaled).render())
        assert value.render("pi") == want


class TestZetaConstant:
    @pytest.mark.parametrize("k,denominator", [(2, 6), (4, 90), (6, 945)])
    def test_even_closed_forms(self, k, denominator, frozen_pi_digits):
        # independent oracle: pi to 50 digits, squared down to the closed form
        with mpmath.mp.workdps(60):
            want = mpmath.mpf(frozen_pi_digits) ** k / denominator
            got = zeta_constant(k, 10)
            assert abs(got.value - want) <= got.error_bound
            assert got.error_bound <= mpmath.mpf(10) ** -10

    def test_matches_independent_pi_constant(self):
        z2 = zeta_constant(2, 15)
        with mpmath.mp.workdps(60):
            assert abs(z2.value - mpmath.pi**2 / 6) <= z2.error_bound

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
            numeric, "_zeta_tail_rational",
            lambda k, digits: (Fraction(1), Fraction(2, 10**digits)),
        )
        with pytest.raises(ToleranceError):
            zeta_constant.__wrapped__(2, 10)

    # at large k n0 stays small and the powers of n0 are long shifts; at
    # (2, 134) the 80-correction limit decides n0 (128, where 81 would give 64)
    @pytest.mark.parametrize("k, digits", [
        *((k, d) for d in (1, 2, 10, 20, 57, 100, 150, 211, 299, 300) for k in range(2, 13)),
        *((k, d) for d in (1, 57, 300) for k in (20, 60, 200)),
        (2, 134),
    ])
    def test_tail_matches_fraction_reference(self, k, digits):
        # same value and same certificate, so every printed digit and bound
        got = numeric._zeta_tail_rational(k, digits)
        want = fraction_zeta_tail(k, Fraction(1, 2 * 10**digits))
        assert got == want
        assert all(type(x) is Fraction for x in got)

    def test_cutoff_budget_ends_at_two_to_the_24(self, monkeypatch):
        # zeta(2) to 1000 digits first fits at n0 = 2^24, with 79 corrections,
        # and to 1030 digits only at 2^25, past the budget: the search is
        # read without building the 2^24-term head
        monkeypatch.setattr(numeric, "_em_value", lambda k, n0, coeffs: (n0, len(coeffs)))
        assert numeric._zeta_tail_rational(2, 1000)[0] == (1 << 24, 79)
        with pytest.raises(ToleranceError, match="summation budget"):
            numeric._zeta_tail_rational(2, 1030)

    @pytest.mark.parametrize("n0", [*(1 << e for e in range(1, 12)), 3, 7, 100, 1001])
    @pytest.mark.parametrize("k", [2, 3, 9, 40])
    def test_split_head_matches_direct_sum(self, k, n0):
        # the same integers, not only the same value: Fraction(head, den)
        # then reduces exactly as the term-by-term head did
        den = math.lcm(*range(1, n0))
        direct = sum(den**k // n**k for n in range(1, n0))
        assert numeric._head(k, 1, n0) == (direct, den)

    @pytest.mark.parametrize("k, digits", [(2, 1), (3, 57), (7, 57), (10, 300), (200, 20)])
    def test_value_and_bound_are_the_documented_roundings(self, k, digits):
        # _slack is one rounding allowance for a value computed at dps + 8,
        # dps = digits + 10, and the certificate is widened by one part in
        # 10^6 for its own rounding, so the bound never drops below it: both,
        # bit for bit
        val, cert = numeric._zeta_tail_rational(k, digits)
        got = zeta_constant(k, digits)
        assert got.dps == digits + 10
        with mpmath.mp.workdps(digits + 18):
            v = mpmath.mpf(val.numerator) / mpmath.mpf(val.denominator)
            c = mpmath.mpf(cert.numerator) / mpmath.mpf(cert.denominator)
            assert got.value == v
            assert got.error_bound == c * (1 + mpmath.mpf(10) ** -6) + numeric._slack(digits + 10, v)
            assert got.error_bound > c

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(k=st.integers(2, 20), digits=st.integers(1, 300))
    def test_bound_holds_against_mpmath(self, k, digits):
        got = zeta_constant(k, digits)
        with mpmath.mp.workdps(2 * digits + 20):
            err = abs(got.value - mpmath.zeta(k))
            assert err <= got.error_bound <= mpmath.mpf(10) ** -digits

    @pytest.mark.parametrize("evaluate", [
        lambda: zeta_constant(2, 1500),
        lambda: zeta_constant(2, 5000),
        lambda: ZetaExpr(2, {2: Fraction(-7 * 10**5000, 3)}).numeric(5),
    ], ids=["zeta2-1500-digits", "zeta2-5000-digits", "coefficient-10^5000"])
    def test_summation_budget_message_stays_short(self, evaluate):
        # the message names the digits, never the 10^-digits tolerance itself
        with pytest.raises(ToleranceError, match="digits exceeded the summation budget") as err:
            evaluate()
        assert len(str(err.value)) < 200

    def test_deterministic_across_calls(self):
        a = zeta_constant(5, 12)
        b = zeta_constant(5, 12)
        assert a.value == b.value and a.error_bound == b.error_bound


class TestApproxReal:
    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            ApproxReal(mpmath.mpf(1), mpmath.mpf(-1))

    def test_nan_bound_rejected(self):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            ApproxReal(mpmath.mpf(1), mpmath.mpf("nan"))

    @pytest.mark.parametrize("bound", [mpmath.inf, float("inf")])
    def test_infinite_bound_rejected(self, bound):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            ApproxReal(mpmath.mpf(1), bound)

    @pytest.mark.parametrize("value", [mpmath.mpf("nan"), float("nan")])
    def test_nan_value_rejected(self, value):
        with pytest.raises(ValueError, match="NaN"):
            ApproxReal(value, mpmath.mpf(0))

    def test_immutable_value(self):
        a = ApproxReal(mpmath.mpf(1), mpmath.mpf("1e-20"), 25)
        assert (a.value, a.error_bound, a.dps) == (1, mpmath.mpf("1e-20"), 25)
        assert ApproxReal(mpmath.mpf(2), mpmath.mpf(0)).dps == 20
        assert a == ApproxReal(mpmath.mpf(1), mpmath.mpf("1e-20"), 25)
        assert a != ApproxReal(mpmath.mpf(1), mpmath.mpf("1e-20"), 24)

import random
from fractions import Fraction

import mpmath
import pytest

from zetalike import (
    EtaIndex,
    InadmissibleIndexError,
    ToleranceError,
    ZetaExpr,
    compositions,
    eta_hook_closed_form,
    eta_numeric,
    eta_restricted_triple_sum,
    eta_symbolic,
    partial_fraction_shifted,
    weak_compositions,
)


class TestEtaIndex:
    def test_validation(self):
        assert EtaIndex((1, 1)).weight == 2
        with pytest.raises(InadmissibleIndexError):
            EtaIndex((1,))
        with pytest.raises(InadmissibleIndexError):
            EtaIndex((0, 2))
        with pytest.raises(InadmissibleIndexError):
            EtaIndex(())


class TestZetaExpr:
    def test_structural_equality(self):
        a = ZetaExpr(Fraction(1, 2), {3: Fraction(2), 2: Fraction(0)})
        b = ZetaExpr(Fraction(1, 2), {3: Fraction(2)})
        assert a == b and hash(a) == hash(b)
        assert a.coeffs == {3: Fraction(2)}

    def test_algebra(self):
        a = ZetaExpr(1, {2: Fraction(1, 2)})
        b = ZetaExpr(Fraction(-1, 3), {2: Fraction(-1, 2), 5: 1})
        s = a + b
        assert s == ZetaExpr(Fraction(2, 3), {5: 1})
        assert (a - a).is_zero()
        assert a * 2 == ZetaExpr(2, {2: 1})
        assert a * 0 == ZetaExpr(0)

    def test_rejects_bad_keys(self):
        with pytest.raises(ValueError):
            ZetaExpr(0, {1: Fraction(1)})

    def test_render_zeta(self):
        e = ZetaExpr(2, {2: -1})
        assert e.render() == "2 - zeta(2)"
        assert e.render("pi") == "2 - pi^2/6"

    def test_render_shapes(self):
        assert ZetaExpr(0).render() == "0"
        assert ZetaExpr(0, {3: 1}).render() == "zeta(3)"
        assert ZetaExpr(0, {3: Fraction(-3, 4)}).render() == "-3*zeta(3)/4"
        e = ZetaExpr(Fraction(-29, 32), {3: Fraction(-3, 4), 2: Fraction(7, 8), 4: Fraction(1, 2)})
        assert e.render("pi") == "-29/32 + 7*pi^2/48 - 3*zeta(3)/4 + pi^4/180"

    def test_json_round_trip(self):
        e = ZetaExpr(Fraction(-5, 8), {2: Fraction(1, 12), 7: Fraction(3)})
        assert ZetaExpr.from_json_dict(e.to_json_dict()) == e

    def test_numeric_bound(self):
        e = ZetaExpr(1, {2: 1, 3: -2})
        val = e.numeric(15)
        with mpmath.mp.workdps(30):
            want = 1 + mpmath.zeta(2) - 2 * mpmath.zeta(3)
            assert abs(val.value - want) <= val.error_bound


class TestPartialFractions:
    def test_telescoping_pair(self):
        table = partial_fraction_shifted((1, 1))
        assert table.rows == ((Fraction(1),), (Fraction(-1),))

    def test_depth_two_with_double_pole(self):
        table = partial_fraction_shifted((1, 2))
        assert table.coefficient(1, 1) == 1
        assert table.coefficient(2, 1) == -1
        assert table.coefficient(2, 2) == -1

    def test_leading_double_pole(self):
        table = partial_fraction_shifted((2, 1))
        assert table.coefficient(1, 2) == 1
        assert table.coefficient(1, 1) == -1
        assert table.coefficient(2, 1) == 1

    def test_reconstruction_on_random_indices(self):
        rng = random.Random(271828)
        probes = (Fraction(1), Fraction(2), Fraction(7, 2), Fraction(11, 3))
        for _ in range(50):
            weight = rng.randint(2, 7)
            depth = rng.randint(1, weight)
            # random composition of `weight` into `depth` positive parts
            cuts = sorted(rng.sample(range(1, weight), depth - 1))
            parts = tuple(
                b - a for a, b in zip((0, *cuts), (*cuts, weight))
            )
            table = partial_fraction_shifted(parts)
            assert table.first_order_sum() == 0
            for n in probes:
                want = Fraction(1)
                for j, s in enumerate(parts, start=1):
                    want /= (n + j - 1) ** s
                assert table.reconstruct_at(n) == want

    def test_table_is_exact_at_weight_many_points(self):
        """The table is proved exact by agreement at n = 1..weight.

        Over the common denominator prod_j (n+j-1)^(s_j), of degree w (the
        weight), the table minus the product prod_j (n+j-1)^(-s_j) has a
        polynomial numerator of degree below w: each c[j][k] term gives
        degree w - k <= w - 1 and the product gives the constant 1.  None of
        n = 1..w is a pole (the poles are n = 1-j <= 0), so agreement at
        these w points makes that numerator vanish identically.
        """
        shapes = [c for w in range(2, 10) for c in compositions(w)]
        assert len(shapes) == 510
        shapes += [(1,) * 20 + (2,), (60, 60, 60), (3,) * 25, (1, 7, 1, 7, 1)]
        for parts in shapes:
            table = partial_fraction_shifted(parts)
            assert all(type(c) is Fraction for row in table.rows for c in row)
            for n in range(1, sum(parts) + 1):
                want = Fraction(1)
                for j, s in enumerate(parts, start=1):
                    want /= (n + j - 1) ** s
                assert table.reconstruct_at(n) == want, (parts, n)


class TestEtaSymbolic:
    def test_weight_two(self):
        assert eta_symbolic((1, 1)) == ZetaExpr(1)
        assert eta_symbolic((2,)) == ZetaExpr(0, {2: 1})

    def test_printed_samples(self):
        assert eta_symbolic((1, 2)) == ZetaExpr(2, {2: -1})
        assert eta_symbolic((2, 1, 2)) == ZetaExpr(Fraction(1, 16))

    def test_depth_one_is_zeta(self):
        for k in range(2, 9):
            assert eta_symbolic((k,)) == ZetaExpr(0, {k: 1})

    def test_weight_three_telescoping_pair(self):
        assert eta_symbolic((1, 2)) + eta_symbolic((2, 1)) == ZetaExpr(1)

    def test_max_zeta_argument_bounded_by_weight(self):
        for parts in [(2, 3), (1, 1, 4), (3, 1, 2), (1, 1, 1, 1, 2)]:
            expr = eta_symbolic(parts)
            assert all(k <= sum(parts) for k in expr.coeffs)


class TestEtaNumeric:
    def test_oracle_telescoping(self):
        val = eta_numeric((1, 1), "oracle", 1e-6)
        assert abs(float(val.value) - 1.0) <= float(val.error_bound) <= 1e-6

    def test_oracle_depth_three(self):
        val = eta_numeric((1, 1, 1), "oracle", 1e-6)
        assert abs(float(val.value) - 0.25) <= float(val.error_bound)

    def test_fast_mode(self, frozen_pi_digits):
        val = eta_numeric((2,), "fast", 1e-10)
        with mpmath.mp.workdps(60):
            want = mpmath.mpf(frozen_pi_digits) ** 2 / 6
            assert abs(val.value - want) <= 1e-10 + val.error_bound
        assert val.error_bound <= 1e-10

    def test_oracle_agrees_with_symbolic(self):
        for parts in [(1, 1), (2, 1), (1, 2), (1, 1, 1), (2, 1, 2), (3, 1)]:
            oracle = eta_numeric(parts, "oracle", 1e-5)
            fast = eta_symbolic(parts).numeric(12)
            assert oracle.agrees_with(fast, 1e-5)

    def test_oracle_tolerance_cap(self):
        # weight 2 at 1e-8 needs 2*10**8 terms, past the 10**7 cap
        with pytest.raises(ToleranceError):
            eta_numeric((1, 1), "oracle", 1e-8)

    @pytest.mark.parametrize("mode", ["oracle", "fast"])
    @pytest.mark.parametrize("tolerance", [0, -1, float("inf"), float("nan")])
    def test_rejects_nonpositive_or_nonfinite_tolerance(self, mode, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            eta_numeric((1, 1), mode, tolerance)

    def test_oracle_rejects_sub_picotolerance(self):
        with pytest.raises(ToleranceError):
            eta_numeric((1, 1, 1, 1), "oracle", 1e-13)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            eta_numeric((1, 1), "wat", 1e-6)


class TestHookClosedForm:
    def test_pure_zeta_at_no_ones(self):
        assert eta_hook_closed_form(2, 0) == ZetaExpr(0, {2: 1})
        assert eta_hook_closed_form(5, 0) == ZetaExpr(0, {5: 1})

    def test_printed_samples(self):
        assert eta_hook_closed_form(3, 1) == ZetaExpr(1, {3: 1, 2: -1})
        assert eta_hook_closed_form(2, 2) == ZetaExpr(Fraction(-5, 8), {2: Fraction(1, 2)})

    def test_matches_symbolic_grid(self):
        for p in range(2, 7):
            for a in range(6):
                assert eta_hook_closed_form(p, a) == eta_symbolic((p,) + (1,) * a)

    def test_rejects_small_head(self):
        with pytest.raises(InadmissibleIndexError):
            eta_hook_closed_form(1, 3)


class TestRestrictedTripleSum:
    def test_q1_printed_value(self):
        assert eta_restricted_triple_sum(1) == ZetaExpr(
            Fraction(9, 8), {2: Fraction(-1, 2)}
        )

    def test_matches_enumeration(self):
        for q in range(1, 7):
            direct = ZetaExpr(0)
            for a1, a2 in weak_compositions(q, 2):
                direct = direct + eta_symbolic((a1 + 1, a2 + 1, 1))
            assert eta_restricted_triple_sum(q) == direct

    def test_consistency_with_half_identity(self):
        for q in range(1, 7):
            total = eta_restricted_triple_sum(q) + eta_symbolic((q + 1, 1, 1))
            assert total == ZetaExpr(Fraction(1, 2))

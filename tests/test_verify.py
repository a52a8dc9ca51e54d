from fractions import Fraction

import pytest

from zetalike import (
    ZetaExpr,
    bell_polynomial,
    harmonic_vector,
    quadrature_check_integral,
    rerun,
    run_suite,
    verify_eta_hook_sum,
    verify_remark_chain,
    verify_rho_eta_connection,
    verify_suffix_balance,
    verify_tables,
    verify_weighted_corollaries,
    verify_weighted_eta_sum,
    zeta_constant,
)
from zetalike.errors import FixtureError
from zetalike.verify import CHECKS, value_from_json, value_to_json


class TestRhoEtaConnection:
    def test_base_cases(self):
        rep = verify_rho_eta_connection(0, 1)
        assert rep.passed
        assert rep.lhs == ZetaExpr(Fraction(1, 4))
        assert rep.rhs == Fraction(1, 4)

        rep = verify_rho_eta_connection(1, 0)
        assert rep.passed and rep.rhs == 1

    def test_zeta_cancellation_is_checked(self):
        rep = verify_rho_eta_connection(2, 1)
        assert rep.passed
        assert isinstance(rep.lhs, ZetaExpr) and rep.lhs.is_rational()

    def test_grid(self):
        for q in range(4):
            for r in range(4):
                assert verify_rho_eta_connection(q, r).passed


class TestHookSum:
    def test_base_cases(self):
        rep = verify_eta_hook_sum(1, 0)
        assert rep.passed and rep.rhs == 1
        rep = verify_eta_hook_sum(2, 0)
        assert rep.passed and rep.rhs == Fraction(3, 8)

    def test_bell_rhs(self):
        rep = verify_eta_hook_sum(2, 1)
        h = harmonic_vector(2, 2)
        assert rep.rhs == bell_polynomial(2, h) / 4 == Fraction(7, 16)
        assert rep.passed

    def test_grid(self):
        for n in range(1, 5):
            for q in range(3):
                assert verify_eta_hook_sum(n, q).passed


class TestWeightedEtaSum:
    def test_smallest_case(self):
        # both (r,s) splits at n=1, q=0 produce the same depth-3 index, so
        # the left side is 2 * eta(1,1,1) = 1/2 = right side
        rep = verify_weighted_eta_sum(1, 0)
        assert rep.passed
        assert rep.lhs == ZetaExpr(Fraction(1, 2))
        assert rep.rhs == Fraction(1, 2)

    def test_grid(self):
        for n in range(1, 5):
            for q in range(4):
                assert verify_weighted_eta_sum(n, q).passed


class TestWeightedCorollaries:
    def test_w121(self):
        rep = verify_weighted_corollaries("w121", 1)
        assert rep.passed and rep.rhs == Fraction(1, 2)
        rep = verify_weighted_corollaries("w121", 2)
        assert rep.passed and rep.rhs == Fraction(5, 24)

    def test_w122(self):
        rep = verify_weighted_corollaries("w122", 1)
        assert rep.passed and rep.rhs == Fraction(1, 2)
        for n in range(1, 5):
            assert verify_weighted_corollaries("w122", n).passed

    def test_e38(self):
        for q in range(7):
            rep = verify_weighted_corollaries("e38", q)
            assert rep.passed and rep.rhs == Fraction(1, 2)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            verify_weighted_corollaries("w999", 1)


class TestRemarkChain:
    def test_all_four_routes_agree(self):
        rep = verify_remark_chain(1, 0)
        assert rep.passed and rep.lhs == ZetaExpr(1)
        rep = verify_remark_chain(2, 0)
        assert rep.passed and rep.lhs == ZetaExpr(Fraction(3, 8))
        rep = verify_remark_chain(2, 1)
        assert rep.passed and rep.lhs == ZetaExpr(Fraction(7, 16))
        assert set(rep.details) == {
            "eta_hook_enumeration",
            "bell_closed_form",
            "rho_enumeration",
            "eta_flat_enumeration",
        }

    def test_full_grid(self):
        for n in range(1, 5):
            for q in range(4):
                assert verify_remark_chain(n, q).passed, (n, q)


class TestTables:
    def test_row_counts(self):
        reports = verify_tables(2, 6)
        rho_rows = [r for r in reports if r.identity_id == "table-rho"]
        eta_rows = [r for r in reports if r.identity_id == "table-eta"]
        assert len(rho_rows) == 31
        assert len(eta_rows) == 62
        assert all(r.passed for r in reports)

    def test_single_weight(self):
        reports = verify_tables(6, 6)
        assert sum(1 for r in reports if r.identity_id == "table-rho") == 16
        assert sum(1 for r in reports if r.identity_id == "table-eta") == 32

    def test_out_of_range(self):
        with pytest.raises(FixtureError):
            verify_tables(2, 7)


class TestQuadrature:
    def test_forced_unit_case(self):
        rep = quadrature_check_integral(1, 0, 1e-6)
        assert rep.passed
        assert abs(float(rep.rhs.value) - 1.0) < 1e-9

    def test_zeta3_case(self):
        rep = quadrature_check_integral(0, 1, 1e-6)
        z3 = zeta_constant(3, 12)
        assert rep.passed
        assert abs(float(rep.rhs.value) - float(z3.value)) < 1e-8

    def test_mixed_case(self):
        assert quadrature_check_integral(2, 1, 1e-6).passed


class TestReportsInfrastructure:
    def test_value_json_round_trip(self):
        vals = [
            Fraction(3, 7),
            ZetaExpr(Fraction(-1, 2), {2: Fraction(5, 3)}),
        ]
        for v in vals:
            again = value_from_json(value_to_json(v))
            assert ZetaExpr.coerce(again) == ZetaExpr.coerce(v)

    def test_rerun_reproduces_reports(self):
        reports = [
            verify_rho_eta_connection(1, 2),
            verify_eta_hook_sum(3, 1),
            verify_suffix_balance(2, 4),
            verify_tables(2, 2)[0],
        ]
        for rep in reports:
            again = rerun(rep)
            assert again.passed == rep.passed
            assert ZetaExpr.coerce(again.lhs) == ZetaExpr.coerce(rep.lhs)
            assert ZetaExpr.coerce(again.rhs) == ZetaExpr.coerce(rep.rhs)

    def test_report_serialization_shape(self):
        rep = verify_rho_eta_connection(1, 1)
        d = rep.to_json_dict()
        assert d["identity"] == "rho-eta-connection"
        assert d["passed"] is True
        assert set(d["parameters"]) == {"q", "r"}
        assert "constant" in d["lhs"]


class TestSuites:
    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("bogus")

    def test_balance_suite_with_cap(self):
        reports = run_suite("balance", max_weight=4)
        assert reports and all(r.passed for r in reports)
        assert all(r.parameters["n"] <= 4 for r in reports)

    def test_tables_suite_cap(self):
        reports = run_suite("tables", max_weight=3)
        assert all(r.parameters["weight"] <= 3 for r in reports)
        assert all(r.passed for r in reports)


@pytest.fixture(scope="module")
def all_reports():
    return run_suite("all")


class TestRegistry:
    def test_every_report_reruns_identically(self, all_reports):
        assert len(all_reports) == 619
        for rep in all_reports:
            assert rerun(rep).to_json_dict() == rep.to_json_dict(), rep.identity_id

    def test_registry_is_exactly_the_emitted_identities(self, all_reports):
        assert set(CHECKS) == {r.identity_id for r in all_reports}

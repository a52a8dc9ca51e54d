import inspect
from fractions import Fraction

import pytest

from zetalike import (
    ZetaExpr,
    bell_polynomial,
    harmonic_vector,
    rerun,
    run_check,
    run_suite,
    zeta_constant,
)
from zetalike.errors import FixtureError
from zetalike.verify import CHECKS, value_from_json, value_to_json


class TestRhoEtaConnection:
    def test_base_cases(self):
        rep = run_check("rho-eta-connection", q=0, r=1)
        assert rep.passed
        assert rep.lhs == ZetaExpr(Fraction(1, 4))
        assert rep.rhs == Fraction(1, 4)

        rep = run_check("rho-eta-connection", q=1, r=0)
        assert rep.passed and rep.rhs == 1

    def test_zeta_cancellation_is_checked(self):
        rep = run_check("rho-eta-connection", q=2, r=1)
        assert rep.passed
        assert isinstance(rep.lhs, ZetaExpr) and rep.lhs.is_rational()

    def test_grid(self):
        for q in range(4):
            for r in range(4):
                assert run_check("rho-eta-connection", q=q, r=r).passed


class TestHookSum:
    def test_base_cases(self):
        rep = run_check("eta-hook-sum", n=1, q=0)
        assert rep.passed and rep.rhs == 1
        rep = run_check("eta-hook-sum", n=2, q=0)
        assert rep.passed and rep.rhs == Fraction(3, 8)

    def test_bell_rhs(self):
        rep = run_check("eta-hook-sum", n=2, q=1)
        h = harmonic_vector(2, 2)
        assert rep.rhs == bell_polynomial(2, h) / 4 == Fraction(7, 16)
        assert rep.passed

    def test_grid(self):
        for n in range(1, 5):
            for q in range(3):
                assert run_check("eta-hook-sum", n=n, q=q).passed


class TestWeightedEtaSum:
    def test_smallest_case(self):
        # both (r,s) splits at n=1, q=0 produce the same depth-3 index, so
        # the left side is 2 * eta(1,1,1) = 1/2 = right side
        rep = run_check("weighted-eta-sum", n=1, q=0)
        assert rep.passed
        assert rep.lhs == ZetaExpr(Fraction(1, 2))
        assert rep.rhs == Fraction(1, 2)

    def test_grid(self):
        for n in range(1, 5):
            for q in range(4):
                assert run_check("weighted-eta-sum", n=n, q=q).passed


class TestWeightedCorollaries:
    def test_w121(self):
        rep = run_check("w121", n=1)
        assert rep.passed and rep.rhs == Fraction(1, 2)
        rep = run_check("w121", n=2)
        assert rep.passed and rep.rhs == Fraction(5, 24)

    def test_w122(self):
        rep = run_check("w122", n=1)
        assert rep.passed and rep.rhs == Fraction(1, 2)
        for n in range(1, 5):
            assert run_check("w122", n=n).passed

    def test_e38(self):
        for q in range(7):
            rep = run_check("e38", q=q)
            assert rep.passed and rep.rhs == Fraction(1, 2)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            run_check("w999", n=1)


class TestRemarkChain:
    def test_all_four_routes_agree(self):
        rep = run_check("remark-chain", n=1, q=0)
        assert rep.passed and rep.lhs == ZetaExpr(1)
        rep = run_check("remark-chain", n=2, q=0)
        assert rep.passed and rep.lhs == ZetaExpr(Fraction(3, 8))
        rep = run_check("remark-chain", n=2, q=1)
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
                assert run_check("remark-chain", n=n, q=q).passed, (n, q)


class TestTables:
    def test_row_counts(self):
        reports = run_suite("tables")
        rho_rows = [r for r in reports if r.identity_id == "table-rho"]
        eta_rows = [r for r in reports if r.identity_id == "table-eta"]
        assert len(rho_rows) == 31
        assert len(eta_rows) == 62
        assert all(r.passed for r in reports)

    def test_single_weight(self):
        reports = [r for r in run_suite("tables") if r.parameters["weight"] == 6]
        assert sum(1 for r in reports if r.identity_id == "table-rho") == 16
        assert sum(1 for r in reports if r.identity_id == "table-eta") == 32

    def test_out_of_range(self):
        with pytest.raises(FixtureError):
            run_suite("tables", 1)


class TestQuadrature:
    def test_forced_unit_case(self):
        rep = run_check("quadrature-integral", n=1, q=0)
        assert rep.passed
        assert abs(float(rep.rhs.value) - 1.0) < 1e-9

    def test_zeta3_case(self):
        rep = run_check("quadrature-integral", n=0, q=1)
        z3 = zeta_constant(3, 12)
        assert rep.passed
        assert abs(float(rep.rhs.value) - float(z3.value)) < 1e-8

    def test_mixed_case(self):
        assert run_check("quadrature-integral", n=2, q=1).passed


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
            run_check("rho-eta-connection", q=1, r=2),
            run_check("eta-hook-sum", n=3, q=1),
            run_check("suffix-balance", q=2, n=4),
            run_suite("tables", 2)[0],
        ]
        for rep in reports:
            again = rerun(rep)
            assert again.passed == rep.passed
            assert ZetaExpr.coerce(again.lhs) == ZetaExpr.coerce(rep.lhs)
            assert ZetaExpr.coerce(again.rhs) == ZetaExpr.coerce(rep.rhs)

    def test_report_serialization_shape(self):
        rep = run_check("rho-eta-connection", q=1, r=1)
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

    def test_outcome_parameters_are_the_grid_keys(self):
        for cid, check in CHECKS.items():
            names = list(inspect.signature(check.outcome).parameters)
            assert all(list(p) == names for p in check.grid), cid

    @pytest.mark.parametrize(
        "identity_id, params",
        [
            ("rho-sum-fixed-weight", {"m": -1, "r": 1}),
            ("rho-sum-fixed-weight", {"m": 0, "r": 0}),
            ("rho-sum-general", {"r": 0, "s": 0, "q": -1}),
            ("rho-weighted-sum", {"n": -1, "q": 0}),
            ("rho-eta-connection", {"q": -1, "r": 0}),
            ("eta-hook-sum", {"n": 0, "q": 0}),
            ("remark-chain", {"n": 1, "q": -1}),
            ("weighted-eta-sum", {"n": 0, "q": 0}),
            ("w121", {"n": 0}),
            ("w122", {"n": 0}),
            ("e38", {"q": -1}),
            ("quadrature-integral", {"n": -1, "q": 0}),
        ],
    )
    def test_out_of_range_parameters_raise(self, identity_id, params):
        with pytest.raises(ValueError):
            run_check(identity_id, **params)

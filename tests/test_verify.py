import copy
import inspect
import itertools
import pickle
import sys
from fractions import Fraction
from math import factorial

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
from conftest import fraction_eta_sum, fraction_rho_sum, fraction_rho_weighted_lhs
import zetalike.rho
from zetalike import verify
from zetalike.errors import FixtureError
from zetalike.rho import indices
from zetalike.verify import CHECKS, SUITES


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


# the (weight, depth, last) that each check passes to verify._rho_sum
RHO_SUM_CELLS = {
    "rho-sum-fixed-weight": lambda m, r: (m + r + 1, r, 2),
    "rho-sum-general": lambda r, s, q: (r + q + s + 2, q + 1, s + 2),
    "rho-eta-connection": lambda q, r: (q + r + 2, q + 1, 2),
    "remark-chain": lambda n, q: (q + n + 2, q + 2, 2),
}


def _one_step_past(grid: tuple[dict, ...]) -> tuple[dict, ...]:
    """The grid with each axis run one value past its largest."""
    return verify._grid(**{
        axis: range(min(p[axis] for p in grid), max(p[axis] for p in grid) + 2)
        for axis in grid[0]
    })


def _rho_sum_cells(grid_of) -> set[tuple[int, int, int]]:
    return {
        cells(**p) for cid, cells in RHO_SUM_CELLS.items() for p in grid_of(CHECKS[cid].grid)
    }


class TestFractionReferences:
    """The integer sums equal the per-term ``Fraction`` loops they replace."""

    def test_rho_sum_cells_are_those_the_checks_reach(self, monkeypatch):
        seen = set()
        real = verify._rho_sum

        def recording(weight, depth, last=2):
            seen.add((weight, depth, last))
            return real(weight, depth, last)

        monkeypatch.setattr(verify, "_rho_sum", recording)
        # only the rho side is recorded; a zero eta keeps every suite cheap
        monkeypatch.setattr(verify, "eta_symbolic", lambda idx: ZetaExpr(0))
        run_suite("all")
        assert seen == _rho_sum_cells(lambda grid: grid)

    def test_rho_sums_one_step_past_every_grid(self):
        for weight, depth, last in sorted(_rho_sum_cells(_one_step_past)):
            got = verify._rho_sum(weight, depth, last)
            assert type(got) is Fraction
            assert got == fraction_rho_sum(weight, depth, last), (weight, depth, last)

    def test_rho_sum_lhs_shares_no_code_with_the_rhs(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the lhs called mzv_star_truncated")

        monkeypatch.setattr(verify, "mzv_star_truncated", refuse)
        monkeypatch.setattr(sys.modules["zetalike.harmonic"], "mzv_star_truncated", refuse)
        with pytest.raises(AssertionError):
            run_check("rho-sum-general", r=1, s=1, q=1)
        for cid in SUITES["rho-sum"]:
            for p in CHECKS[cid].grid:
                if cid == "rho-weighted-sum":
                    assert run_check(cid, **p).passed
                else:
                    assert verify._rho_sum(*RHO_SUM_CELLS[cid](**p)) > 0

    def test_rho_sums(self):
        for weight in range(2, 14):
            for depth in range(1, weight + 1):
                for last in range(2, 7):
                    got = verify._rho_sum(weight, depth, last)
                    assert type(got) is Fraction
                    assert got == fraction_rho_sum(weight, depth, last), (weight, depth, last)

    def test_weighted_lhs_one_step_past_the_grid(self):
        grid = CHECKS["rho-weighted-sum"].grid
        for n in range(max(p["n"] for p in grid) + 2):
            for q in range(max(p["q"] for p in grid) + 2):
                lhs = next(verify._rho_weighted_sum(n, q))
                assert type(lhs) is Fraction
                assert lhs == fraction_rho_weighted_lhs(n, q), (n, q)

    def test_eta_sums(self):
        for weight in range(2, 11):
            for depth in range(1, weight + 1):
                got = verify._eta_sum(indices(weight, depth))
                assert got == fraction_eta_sum(indices(weight, depth)), (weight, depth)
                assert type(got.constant) is Fraction
                assert all(type(c) is Fraction for c in got.coeffs.values())
        assert verify._eta_sum([]) == ZetaExpr(0)


# every zetalike lru_cache, cleared before each link so that a link runs
# the code behind a cached value itself
CACHES = [
    obj
    for name, mod in list(sys.modules.items())
    if name.startswith("zetalike.")
    for obj in vars(mod).values()
    if hasattr(obj, "cache_clear") and obj.__module__ == name
]
# functions two links of one check may both call, keyed by (check, link, link)
SHARED_ALLOWED = {
    # both sides build their exact value as a ZetaExpr
    ("eta-hook-closed-form", 0, 1): {"zetalike.eta.ZetaExpr.__init__"},
    ("eta-triple-sum", 0, 1): {"zetalike.eta.ZetaExpr.__init__"},
    # the fixture side normalizes its printed row into a ZetaExpr, on first
    # use (the fixture table is a cache, cleared before each link)
    ("table-eta", 0, 1): {"zetalike.eta.ZetaExpr.__init__"},
    # both sides are certified numeric values, whose bounds are validated
    ("quadrature-integral", 0, 1): {"zetalike.numeric.ApproxReal.__init__"},
}
# remark-chain's A and D are two eta enumerations, of the hook-shaped and of
# the flat indices, by design; B and C must share nothing with either
SHARED_BY_DESIGN = {("remark-chain", 0, 3)}


def _link_calls(identity_id: str, params: dict) -> list[set[str]]:
    """The zetalike functions each link of one cell calls, in yield order.
    The sides generators themselves are left out, since a sides generator
    that delegates with ``yield from`` is resumed for every link."""
    sides = {check.sides.__code__ for check in CHECKS.values()}
    calls = []

    def profile(frame, event, arg):
        module = frame.f_globals.get("__name__", "")
        if event == "call" and module.startswith("zetalike.") and frame.f_code not in sides:
            calls[-1].add(f"{module}.{frame.f_code.co_qualname}")

    links = CHECKS[identity_id].sides(**params)
    while True:
        for cache in CACHES:
            cache.cache_clear()
        calls.append(set())
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            next(links)
        except StopIteration:
            return calls[:-1]
        finally:
            sys.setprofile(previous)


def _shared_calls(identity_id: str, params: dict) -> dict[tuple[int, int], set[str]]:
    """The functions, outside the allowlists, that two links of one cell both call."""
    shared = {}
    for (i, a), (j, b) in itertools.combinations(enumerate(_link_calls(identity_id, params)), 2):
        if (identity_id, i, j) not in SHARED_BY_DESIGN:
            common = (a & b) - SHARED_ALLOWED.get((identity_id, i, j), set())
            if common:
                shared[i, j] = common
    return shared


class TestIndependentSides:
    """Each link of a check is computed by code no other link of it calls."""

    @pytest.mark.parametrize("identity_id", list(CHECKS))
    def test_links_share_no_code(self, identity_id):
        for p in CHECKS[identity_id].grid:
            assert _shared_calls(identity_id, p) == {}, p

    def test_a_planted_shared_call_is_reported(self, monkeypatch):
        star = verify.mzv_star_truncated

        def leaky(*args):
            verify._rho_sum(2, 1, 2)
            return star(*args)

        monkeypatch.setattr(verify, "mzv_star_truncated", leaky)
        assert _shared_calls("rho-sum-general", {"r": 1, "s": 1, "q": 1}) == {
            (0, 1): {"zetalike.rho._rho_sum"}
        }

    def test_links_are_recorded_with_cold_caches(self):
        calls = _link_calls("remark-chain", {"n": 2, "q": 1})
        assert len(calls) == 4
        assert "zetalike.eta.partial_fraction_shifted" in calls[0] & calls[3]
        assert "zetalike.harmonic.bell_polynomial" in calls[1]
        assert calls[2] == {"zetalike.rho._rho_sum"}
        # a warm eta cache would hide the kernel from the second recording
        assert _link_calls("remark-chain", {"n": 2, "q": 1}) == calls


class _NoRhoSums:
    """``rho.itertools`` with the stars-and-bars enumeration behind
    ``_rho_sum`` and ``suffix_balance_sum`` refused, and all else kept."""

    def __getattr__(self, name):
        return getattr(itertools, name)

    @staticmethod
    def combinations_with_replacement(*args):
        raise AssertionError("a rho or balance sum was enumerated")


def _no_quadrature(*args):
    raise AssertionError("a quadrature value was integrated")


class TestWarmCaches:
    """A warm session recomputes no rho sum, balance sum or quadrature value."""

    def test_a_warm_suite_enumerates_and_integrates_nothing(self, monkeypatch):
        first = run_suite("all")
        monkeypatch.setattr(zetalike.rho, "itertools", _NoRhoSums())
        monkeypatch.setattr(verify, "integrate_unit_square", _no_quadrature)
        again = run_suite("all")
        assert [r.to_json_dict() for r in again] == [r.to_json_dict() for r in first]
        assert rerun(first[-1]).to_json_dict() == first[-1].to_json_dict()
        # the patches bite once the caches are cold, so the run above was warm
        for cache in CACHES:
            cache.cache_clear()
        for identity_id, params in (("rho-sum-general", {"r": 1, "s": 0, "q": 1}),
                                    ("suffix-balance", {"q": 2, "n": 3}),
                                    ("quadrature-integral", {"n": 1, "q": 0})):
            with pytest.raises(AssertionError, match="was (enumerated|integrated)"):
                run_check(identity_id, **params)

    def test_a_float_cell_is_refused_when_the_int_cell_is_warm(self):
        # 2.0 == 2 and the two hash alike, so a cache keyed on a parameter as
        # given would answer the float cell from the warm int one; the table
        # checks are left out, since their weight is only a label
        run_suite("all")
        for cid in (cid for cid in CHECKS if CHECKS[cid].suite != "tables"):
            for key in CHECKS[cid].grid[-1]:
                params = dict(CHECKS[cid].grid[-1], **{key: float(CHECKS[cid].grid[-1][key])})
                with pytest.raises(TypeError):
                    run_check(cid, **params)

    def test_one_rho_sum_entry_per_cell(self):
        # every caller spells (weight, depth, last) in full, so the checks
        # that reach one sum share one cache entry
        zetalike.rho._rho_sum.cache_clear()
        run_suite("all")
        info = zetalike.rho._rho_sum.cache_info()
        assert info.currsize == info.misses == len(_rho_sum_cells(lambda grid: grid))

    def test_a_cold_quadrature_cell_integrates_once(self, monkeypatch):
        calls = []
        integrate = verify.integrate_unit_square

        def counting(*args):
            calls.append(args)
            return integrate(*args)

        monkeypatch.setattr(verify, "integrate_unit_square", counting)
        for cache in CACHES:
            cache.cache_clear()
        rep = run_check("quadrature-integral", n=2, q=1)
        assert rep.passed and len(calls) == 1
        assert rerun(rep) == rep and len(calls) == 1
        assert verify._quadrature_value.cache_info().currsize == 1


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


class TestFailingReports:
    """A wrong closed form fails its reports with the exact discrepancy."""

    def test_hook_closed_form_off_by_zeta3(self, monkeypatch):
        closed_form = verify.eta_hook_closed_form
        zeta3 = ZetaExpr(0, {3: 1})
        monkeypatch.setattr(
            verify, "eta_hook_closed_form",
            lambda p, a: ZetaExpr.sum([(1, closed_form(p, a)), (1, zeta3)]),
        )
        reports = run_suite("hook")
        broken = [r for r in reports if r.identity_id == "eta-hook-closed-form"]
        assert len(broken) == 30
        for rep in broken:
            assert not rep.passed
            assert rep.discrepancy == ZetaExpr(0, {3: -1}), rep.parameters
            assert rep.to_json_dict()["discrepancy"] == {"constant": "0", "zeta": {"3": "-1"}}
        assert all(r.passed for r in reports if r.identity_id != "eta-hook-closed-form")

    def test_remark_chain_reports_the_last_nonzero_difference(self, monkeypatch):
        bell, rho_sum = verify.bell_polynomial, verify._rho_sum
        monkeypatch.setattr(verify, "bell_polynomial", lambda m, values: bell(m, values) + 1)
        for n in range(1, 5):
            for q in range(4):
                # B moves by 1/(n n!); A, C and D still agree
                rep = run_check("remark-chain", n=n, q=q)
                assert not rep.passed
                assert rep.discrepancy == ZetaExpr(Fraction(1, n * factorial(n))), (n, q)
        # with C off by 2 as well, C - A is the later nonzero difference
        monkeypatch.setattr(verify, "_rho_sum", lambda *args: rho_sum(*args) + 2)
        rep = run_check("remark-chain", n=2, q=1)
        assert not rep.passed and rep.discrepancy == ZetaExpr(2)


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
            assert again.lhs == rep.lhs
            assert again.rhs == rep.rhs

    def test_reports_are_immutable_values(self):
        rep = run_check("rho-eta-connection", q=1, r=2)
        assert rerun(rep) == rep
        with pytest.raises(AttributeError):
            rep.passed = False
        quad = run_check("quadrature-integral", n=1, q=0)
        rhs = quad.rhs
        assert quad.details["quadrature_level"] == rhs.level
        # the level is part of the value: other levels compare unequal
        assert type(rhs)(rhs.value, rhs.error_bound, rhs.dps, rhs.level + 1) != rhs

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

    def test_every_report_passes(self, all_reports):
        assert [(r.identity_id, r.parameters) for r in all_reports if not r.passed] == []

    def test_every_report_survives_pickle_and_deepcopy(self, all_reports):
        assert pickle.loads(pickle.dumps(all_reports)) == all_reports
        assert copy.deepcopy(all_reports) == all_reports

    def test_registry_is_exactly_the_emitted_identities(self, all_reports):
        assert set(CHECKS) == {r.identity_id for r in all_reports}

    def test_sides_parameters_are_the_grid_keys(self):
        for cid, check in CHECKS.items():
            names = list(inspect.signature(check.sides).parameters)
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

    @pytest.mark.parametrize("identity_id, key", [
        (cid, key)
        for cid, check in CHECKS.items()
        for key, least in check.grid[0].items()
        if isinstance(least, int)
    ])
    def test_below_the_first_grid_cell_raises(self, identity_id, key):
        # the first cell is the least case of every axis, and run_check
        # refuses a value below it
        grid = CHECKS[identity_id].grid
        assert grid[0][key] == min(p[key] for p in grid)
        with pytest.raises(ValueError, match=f"needs {key} >= {grid[0][key]}"):
            run_check(identity_id, **{**grid[0], key: grid[0][key] - 1})

"""Acceptance suite: one test per shipped criterion, each at its stated
tolerance and runtime budget, each printing a single pass line (visible with
pytest -s; with -v the test name itself is the per-criterion line).
"""

import csv
import io
import random
import time
from fractions import Fraction
from math import factorial

from conftest import first_order_sum, reconstruct_at
from zetalike import (
    alternating_binomial_sum,
    bell_polynomial,
    eta_numeric,
    eta_restricted_triple_sum,
    eta_symbolic,
    harmonic_vector,
    mzv_star_truncated,
    partial_fraction_shifted,
    rho_exact,
    rho_series_partial_at,
    run_check,
    suffix_balance_sum,
    weak_compositions,
)
from zetalike import cli
from zetalike.eta import ZetaExpr
from zetalike.harmonic import harmonic
from zetalike.tables import ETA_TABLE, RHO_TABLE


def _report(number: int, elapsed: float, budget: float, detail: str) -> None:
    print(
        f"[acceptance] criterion {number:02d} PASS ({elapsed:.2f}s / budget {budget:.0f}s): {detail}"
    )
    assert elapsed < budget, f"criterion {number} exceeded its runtime budget"


def test_criterion_01_rho_table_reproduction(capsys):
    t0 = time.time()
    rows_checked = 0
    for weight in range(2, 7):
        code = cli.run(["table", "rho", "--weight", str(weight), "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out
        for row in csv.DictReader(io.StringIO(out)):
            idx = tuple(int(x) for x in row["index"].split(","))
            assert Fraction(row["value"]) == RHO_TABLE[idx], idx
            rows_checked += 1
    assert rows_checked == len(RHO_TABLE) == 31
    with capsys.disabled():
        _report(1, time.time() - t0, 1.0, f"{rows_checked} printed rho rows exact")


def test_criterion_02_eta_table_reproduction(capsys):
    t0 = time.time()
    for idx, want in ETA_TABLE.items():
        assert eta_symbolic(idx) == want, idx
    # the worked example: zeta/pi normalization of a mixed-basis row
    assert eta_symbolic((4, 1, 1)) == ZetaExpr(
        Fraction(-29, 32),
        {3: Fraction(-3, 4), 2: Fraction(7, 8), 4: Fraction(1, 2)},
    )
    assert len(ETA_TABLE) == 62
    with capsys.disabled():
        _report(2, time.time() - t0, 5.0, "62 printed eta rows exact")


def test_criterion_03_fixed_weight_sum_grid(capsys):
    t0 = time.time()
    cells = 0
    for m in range(11):
        for r in range(1, 7):
            rep = run_check("rho-sum-fixed-weight", m=m, r=r)
            assert rep.lhs == rep.rhs, (m, r)
            cells += 1
    with capsys.disabled():
        _report(3, time.time() - t0, 30.0, f"{cells} cells, m<=10 r<=6, exact")


def test_criterion_04_suffix_balance_grid(capsys):
    t0 = time.time()
    for q in range(7):
        for n in range(11):
            assert suffix_balance_sum(q, n) == 1, (q, n)
    with capsys.disabled():
        _report(4, time.time() - t0, 60.0, "77 cells, q<=6 n<=10, all equal 1")


def test_criterion_05_rho_eta_connection_grid(capsys):
    t0 = time.time()
    for q in range(5):
        for r in range(5):
            rep = run_check("rho-eta-connection", q=q, r=r)
            assert rep.passed, (q, r)
            assert rep.lhs.is_rational(), f"zeta terms failed to cancel at {(q, r)}"
    with capsys.disabled():
        _report(5, time.time() - t0, 60.0, "25 cells, q<=4 r<=4, zeta-cancellation witnessed")


def test_criterion_06_hook_sum_grid(capsys):
    t0 = time.time()
    for n in range(1, 6):
        for q in range(4):
            assert run_check("eta-hook-sum", n=n, q=q).passed, (n, q)
    # printed q=0 specialization: sum over splits of eta({1}^r, 2, {1}^s)
    for n in range(1, 6):
        total = ZetaExpr.sum((1, eta_symbolic((1,) * r + (2,) + (1,) * (n - r))) for r in range(n + 1))
        assert total == ZetaExpr(harmonic(n) / (n * factorial(n))), n
    with capsys.disabled():
        _report(6, time.time() - t0, 60.0, "20 cells n<=5 q<=3 plus the harmonic specialization")


def test_criterion_07_weighted_corollaries(capsys):
    t0 = time.time()
    for n in range(1, 7):
        assert run_check("w121", n=n).passed, n
    for n in range(1, 5):
        assert run_check("w122", n=n).passed, n
    for q in range(7):
        assert run_check("e38", q=q).passed, q
    for q in range(1, 7):
        direct = ZetaExpr.sum((1, eta_symbolic((a1 + 1, a2 + 1, 1))) for a1, a2 in weak_compositions(q, 2))
        assert eta_restricted_triple_sum(q) == direct, q
    with capsys.disabled():
        _report(7, time.time() - t0, 30.0, "w121 n<=6, w122 n<=4, e38 q<=6, triple sum q<=6")


def test_criterion_08_series_oracle_agreement(capsys):
    t0 = time.time()
    # rho side: exact partial sums at N=2000 against the closed value, inside
    # the 10x halving-increment tail envelope plus the stated tolerance
    for idx in RHO_TABLE:
        tol = Fraction(1, 1000) if len(idx) >= 5 else Fraction(1, 100000)
        vals = rho_series_partial_at(idx, [1000, 2000])
        gap = rho_exact(idx) - vals[2000]
        assert gap >= 0, idx
        assert gap <= 10 * (vals[2000] - vals[1000]) + tol, idx
    # eta side: direct-series oracle against the symbolic value at 1e-5
    for idx in ETA_TABLE:
        oracle = eta_numeric(idx, "oracle", 1e-5)
        symbolic = eta_symbolic(idx).numeric(12)
        # equal at tolerance tol: |a - b| <= tol + e_a + e_b
        gap = abs(oracle.value - symbolic.value)
        assert gap <= 1e-5 + oracle.error_bound + symbolic.error_bound, idx
    with capsys.disabled():
        _report(8, time.time() - t0, 120.0, "31 rho partials at N=2000, 62 eta oracles at 1e-5")


def test_criterion_09_integral_representation(capsys):
    t0 = time.time()
    for n in range(4):
        for q in range(3):
            rep = run_check("quadrature-integral", n=n, q=q)
            assert rep.passed, (n, q)
            if (n, q) == (1, 0):
                assert abs(float(rep.rhs.value) - 1.0) < 1e-6
    with capsys.disabled():
        _report(9, time.time() - t0, 120.0, "12 quadrature cells at 1e-6, unit case included")


def test_criterion_10_property_suites(capsys):
    t0 = time.time()
    # star-sum / cycle-index identity
    for n in range(9):
        for m in range(6):
            assert mzv_star_truncated(n, m) == bell_polynomial(
                m, harmonic_vector(n, m)
            ), (n, m)
    # alternating binomial identity
    for n in range(11):
        for m in range(1, 7):
            want = bell_polynomial(m - 1, harmonic_vector(n + 1, m - 1)) / (n + 1)
            assert alternating_binomial_sum(n, m) == want, (n, m)
    # partial-fraction reconstruction on 50 seeded random indices
    rng = random.Random(14142135)
    probes = (Fraction(1), Fraction(2), Fraction(7, 2), Fraction(11, 3))
    for _ in range(50):
        weight = rng.randint(2, 7)
        depth = rng.randint(1, weight)
        cuts = sorted(rng.sample(range(1, weight), depth - 1))
        parts = tuple(b - a for a, b in zip((0, *cuts), (*cuts, weight)))
        table = partial_fraction_shifted(parts)
        assert first_order_sum(table) == 0, parts
        for point in probes:
            want = Fraction(1)
            for j, s in enumerate(parts, start=1):
                want /= (point + j - 1) ** s
            assert reconstruct_at(table, point) == want, (parts, point)
    with capsys.disabled():
        _report(10, time.time() - t0, 30.0, "star/cycle-index grid, binomial grid, 50 reconstructions")

"""Reference fixtures: the closed values for every admissible index of
weight 2 through 6, for both families.

Each eta entry keeps its pi-powers literal, the way these constants are
conventionally typeset, and is normalized to the zeta basis via the exact
factors zeta(2)=pi^2/6, zeta(4)=pi^4/90, zeta(6)=pi^6/945, so the fixtures
stay human-checkable while comparisons run on one normal form.  ``ETA_TABLE``
is normalized on first use, not at import: the factors come from the
Bernoulli table, which importing the CLI should not build.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import FixtureError
from .eta import ZetaExpr
from .numeric import zeta_pi_power_factor

__all__ = ["RHO_TABLE", "ETA_TABLE", "rho_reference", "eta_reference", "FIXTURE_WEIGHTS"]

FIXTURE_WEIGHTS = range(2, 7)

# weight 2..6 rho-values: index -> exact value
RHO_TABLE: dict[tuple[int, ...], Fraction] = {
    (2,): Fraction(1),
    (3,): Fraction(1, 4),
    (1, 2): Fraction(1),
    (4,): Fraction(1, 18),
    (1, 3): Fraction(1, 8),
    (2, 2): Fraction(1, 4),
    (1, 1, 2): Fraction(1),
    (5,): Fraction(1, 96),
    (1, 4): Fraction(1, 54),
    (2, 3): Fraction(1, 36),
    (3, 2): Fraction(1, 18),
    (1, 1, 3): Fraction(1, 16),
    (1, 2, 2): Fraction(1, 8),
    (2, 1, 2): Fraction(1, 4),
    (1, 1, 1, 2): Fraction(1),
    (6,): Fraction(1, 600),
    (1, 5): Fraction(1, 384),
    (2, 4): Fraction(1, 288),
    (3, 3): Fraction(1, 192),
    (4, 2): Fraction(1, 96),
    (1, 1, 4): Fraction(1, 162),
    (1, 2, 3): Fraction(1, 108),
    (1, 3, 2): Fraction(1, 54),
    (2, 1, 3): Fraction(1, 72),
    (2, 2, 2): Fraction(1, 36),
    (3, 1, 2): Fraction(1, 18),
    (1, 1, 1, 3): Fraction(1, 32),
    (1, 1, 2, 2): Fraction(1, 16),
    (1, 2, 1, 2): Fraction(1, 8),
    (2, 1, 1, 2): Fraction(1, 4),
    (1, 1, 1, 1, 2): Fraction(1),
}

# weight 2..6 eta-values: index -> (constant, {zeta k: coeff}, {pi power: coeff})
_ETA_ROWS: dict[tuple[int, ...], tuple[str, dict[int, str], dict[int, str]]] = {
    (2,): ("0", {}, {2: "1/6"}),
    (1, 1): ("1", {}, {}),
    (3,): ("0", {3: "1"}, {}),
    (1, 2): ("2", {}, {2: "-1/6"}),
    (2, 1): ("-1", {}, {2: "1/6"}),
    (1, 1, 1): ("1/4", {}, {}),
    (4,): ("0", {}, {4: "1/90"}),
    (1, 3): ("3", {3: "-1"}, {2: "-1/6"}),
    (2, 2): ("-3", {}, {2: "1/3"}),
    (3, 1): ("1", {3: "1"}, {2: "-1/6"}),
    (1, 1, 2): ("-3/4", {}, {2: "1/12"}),
    (1, 2, 1): ("7/4", {}, {2: "-1/6"}),
    (2, 1, 1): ("-5/8", {}, {2: "1/12"}),
    (1, 1, 1, 1): ("1/18", {}, {}),
    (5,): ("0", {5: "1"}, {}),
    (1, 4): ("4", {3: "-1"}, {2: "-1/6", 4: "-1/90"}),
    (2, 3): ("-6", {3: "1"}, {2: "1/2"}),
    (3, 2): ("4", {3: "1"}, {2: "-1/2"}),
    (4, 1): ("-1", {3: "-1"}, {2: "1/6", 4: "1/90"}),
    (1, 1, 3): ("-29/16", {3: "1/2"}, {2: "1/8"}),
    (1, 2, 2): ("5/2", {}, {2: "-1/4"}),
    (1, 3, 1): ("5/4", {3: "-1"}, {}),
    (2, 1, 2): ("1/16", {}, {}),
    (2, 2, 1): ("-19/8", {}, {2: "1/4"}),
    (3, 1, 1): ("13/16", {3: "1/2"}, {2: "-1/8"}),
    (1, 1, 1, 2): ("31/108", {}, {2: "-1/36"}),
    (1, 1, 2, 1): ("-29/36", {}, {2: "1/12"}),
    (1, 2, 1, 1): ("61/72", {}, {2: "-1/12"}),
    (2, 1, 1, 1): ("-49/216", {}, {2: "1/36"}),
    (1, 1, 1, 1, 1): ("1/96", {}, {}),
    (6,): ("0", {}, {6: "1/945"}),
    (1, 5): ("5", {3: "-1", 5: "-1"}, {2: "-1/6", 4: "-1/90"}),
    (2, 4): ("-10", {3: "2"}, {2: "2/3", 4: "1/90"}),
    (3, 3): ("10", {}, {2: "-1"}),
    (4, 2): ("-5", {3: "-2"}, {2: "2/3", 4: "1/90"}),
    (5, 1): ("1", {3: "1", 5: "1"}, {2: "-1/6", 4: "-1/90"}),
    (1, 1, 4): ("-23/8", {3: "3/4"}, {2: "7/48", 4: "1/180"}),
    (1, 2, 3): ("69/16", {3: "-1/2"}, {2: "-3/8"}),
    (1, 3, 2): ("-5/4", {3: "-1"}, {2: "1/4"}),
    (1, 4, 1): ("11/4", {}, {2: "-1/6", 4: "-1/90"}),
    (2, 1, 3): ("15/16", {3: "-1/4"}, {2: "-1/16"}),
    (2, 2, 2): ("-39/16", {}, {2: "1/4"}),
    (2, 3, 1): ("-29/8", {3: "1"}, {2: "1/4"}),
    (3, 1, 2): ("3/8", {3: "1/4"}, {2: "-1/16"}),
    (3, 2, 1): ("51/16", {3: "1/2"}, {2: "-3/8"}),
    (4, 1, 1): ("-29/32", {3: "-3/4"}, {2: "7/48", 4: "1/180"}),
    (1, 1, 1, 3): ("305/432", {3: "-1/6"}, {2: "-11/216"}),
    (1, 1, 2, 2): ("-59/54", {}, {2: "1/9"}),
    (1, 1, 3, 1): ("-145/144", {3: "1/2"}, {2: "1/24"}),
    (1, 2, 1, 2): ("121/432", {}, {2: "-1/36"}),
    (1, 2, 2, 1): ("119/72", {}, {2: "-1/6"}),
    (1, 3, 1, 1): ("29/144", {3: "-1/2"}, {2: "1/24"}),
    (2, 1, 1, 2): ("-37/216", {}, {2: "1/54"}),
    (2, 1, 2, 1): ("125/432", {}, {2: "-1/36"}),
    (2, 2, 1, 1): ("-29/27", {}, {2: "1/9"}),
    (3, 1, 1, 1): ("449/1296", {3: "1/6"}, {2: "-11/216"}),
    (1, 1, 1, 1, 2): ("-115/1728", {}, {2: "1/144"}),
    (1, 1, 1, 2, 1): ("239/864", {}, {2: "-1/36"}),
    (1, 1, 2, 1, 1): ("-235/576", {}, {2: "1/24"}),
    (1, 2, 1, 1, 1): ("241/864", {}, {2: "-1/36"}),
    (2, 1, 1, 1, 1): ("-205/3456", {}, {2: "1/144"}),
    (1, 1, 1, 1, 1, 1): ("1/600", {}, {}),
}


def _normalize(entry: tuple[str, dict[int, str], dict[int, str]]) -> ZetaExpr:
    const, zeta_coeffs, pi_coeffs = entry
    coeffs = {k: Fraction(c) for k, c in zeta_coeffs.items()}
    for power, c in pi_coeffs.items():
        # coeff * pi^power == (coeff / factor) * zeta(power)
        coeffs[power] = coeffs.get(power, Fraction(0)) + Fraction(c) / zeta_pi_power_factor(power)
    return ZetaExpr(Fraction(const), coeffs)


@lru_cache(maxsize=None)
def _eta_table() -> dict[tuple[int, ...], ZetaExpr]:
    return {idx: _normalize(entry) for idx, entry in _ETA_ROWS.items()}


def __getattr__(name: str):
    # PEP 562: the module attribute ETA_TABLE is _eta_table(), built on first use
    if name == "ETA_TABLE":
        return _eta_table()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def rho_reference(index: tuple[int, ...]) -> Fraction:
    try:
        return RHO_TABLE[tuple(index)]
    except KeyError:
        raise FixtureError(f"no rho fixture for index {tuple(index)}") from None


def eta_reference(index: tuple[int, ...]) -> ZetaExpr:
    try:
        return _eta_table()[tuple(index)]
    except KeyError:
        raise FixtureError(f"no eta fixture for index {tuple(index)}") from None

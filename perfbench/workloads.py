"""The four workloads: seeded request lists and their output checks.

A request is what one user step hands the program: a CLI argv for ``table``,
``verify`` and ``numeric``, a library call for ``oracle``.  Only the choices
that change the output, not the amount of work, are left to the seed (order,
formats, index shapes, digits within a stratum), so that runs with different
seeds measure the same work.

A workload is a list of rounds, one request list per output format: pass p
of a run replays round p modulo their number, so each request advances to the
next format every pass, and a run, which replays every round at least once,
sees each format of each request.

Each request carries ``expected`` data and a ``check(output, expected)`` that
returns ``None`` on success or a one-line reason.  Expected values are built
before any timing starts, so checks never run inside a timed or traced call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import mpmath

from zetalike import cli, eta, rho
from zetalike.compositions import compositions

DIGESTS_PATH = Path(__file__).with_name("digests.json")

FORMATS = ("markdown", "csv", "json")
RENDERS = ("zeta", "pi")
TABLE_WEIGHTS = range(2, 13)
# per suite: smallest --max-weight with a non-empty selection, and smallest
# one that selects the whole grid (--max-weight 17 selects every suite fully)
VERIFY_SUITES = {
    "tables": (2, 6),
    "rho-sum": (2, 17),
    "rho-eta": (2, 10),
    "hook": (2, 11),
    "weighted": (3, 9),
    "balance": (2, 10),
    "quadrature": (2, 7),
    "all": (2, 17),
}
VERIFY_MAX_WEIGHT = 17
NUMERIC_WEIGHTS = range(2, 10)
NUMERIC_PER_WEIGHT = 5
# digits >= 308 underflow 10.0**-digits inside the CLI; stay below
NUMERIC_DIGITS = (20, 300)


@dataclass
class Request:
    label: str
    call: Callable[[], object]
    check: Callable[[object, object], str | None]
    expected: object


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One CLI step in-process: exit code and captured stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)  # looked up per call, so a traced run sees its wrapper
    return code, buf.getvalue()


def digest(code: int, stdout: str) -> dict:
    return {"exit": code, "sha256": hashlib.sha256(stdout.encode()).hexdigest()}


def load_digests() -> dict[str, dict]:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def _check_digest(output, expected) -> str | None:
    got = digest(*output)
    if got == expected:
        return None
    return f"stdout/exit digest {got} != {expected}"


def _cli_request(argv: list[str], digests: dict[str, dict]) -> Request:
    label = " ".join(argv)
    if label not in digests:
        raise KeyError(f"no reference digest for {label!r}")
    return Request(label, lambda: run_cli(argv), _check_digest, digests[label])


# --------------------------------------------------------------------------
# Request spaces (also what capture_digests.py records)
# --------------------------------------------------------------------------

def table_argv(family: str, weight: int, fmt: str, render: str) -> list[str]:
    return ["table", family, "--weight", str(weight), "--format", fmt, "--render", render]


def verify_argv(suite: str, max_weight: int | None, fmt: str) -> list[str]:
    argv = ["verify", "--suite", suite]
    if max_weight is not None:
        argv += ["--max-weight", str(max_weight)]
    return argv + ["--format", fmt]


def table_space():
    for family in ("rho", "eta"):
        for w in TABLE_WEIGHTS:
            for fmt in FORMATS:
                for render in RENDERS:
                    yield table_argv(family, w, fmt, render)


def verify_space():
    for suite, (lo, _full) in VERIFY_SUITES.items():
        for w in (None, *range(lo, VERIFY_MAX_WEIGHT + 1)):
            for fmt in FORMATS:
                yield verify_argv(suite, w, fmt)


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

def _rotate(k: int, r: int, choices: tuple[str, ...]) -> str:
    return choices[(k + r) % len(choices)]


def table_rounds(rng: random.Random, digests: dict[str, dict]) -> list[list[Request]]:
    """Every (family, weight) once per pass; the seed picks order, starting
    format and render style."""
    cells = [(f, w, rng.randrange(len(FORMATS)), rng.choice(RENDERS))
             for f in ("rho", "eta") for w in TABLE_WEIGHTS]
    rng.shuffle(cells)
    return [
        [_cli_request(table_argv(f, w, _rotate(k, r, FORMATS), render), digests)
         for f, w, k, render in cells]
        for r in range(len(FORMATS))
    ]


def verify_rounds(rng: random.Random, digests: dict[str, dict]) -> list[list[Request]]:
    """Each suite twice: once whole (no cap, or a cap at or above its full
    grid) and once capped one below its full grid, plus ``--suite all``.
    The seed picks the whole-grid caps, the starting formats and the order,
    so every seed runs the same checks."""
    cells = []
    for suite, (_lo, full) in VERIFY_SUITES.items():
        cells.append((suite, rng.choice((None, *range(full, VERIFY_MAX_WEIGHT + 1)))))
        if suite != "all":
            cells.append((suite, full - 1))
    cells = [(suite, cap, rng.randrange(len(FORMATS))) for suite, cap in cells]
    rng.shuffle(cells)
    return [
        [_cli_request(verify_argv(suite, cap, _rotate(k, r, FORMATS)), digests)
         for suite, cap, k in cells]
        for r in range(len(FORMATS))
    ]


def _random_composition(rng: random.Random, weight: int, largest: int) -> tuple[int, ...]:
    """A uniformly drawn composition of ``weight`` whose largest part is
    ``largest``."""
    while True:
        parts, run = [], 1
        for _ in range(weight - 1):
            if rng.random() < 0.5:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        if max(parts) == largest:
            return tuple(parts)


def _parse_numeric(output, fmt: str):
    code, stdout = output
    if code != 0:
        raise ValueError(f"exit code {code}")
    if fmt == "json":
        value = json.loads(stdout)["value"]
        return mpmath.mpf(value["value"]), mpmath.mpf(value["error_bound"])
    text, _, bound = stdout.strip().partition(" (error <= ")
    return mpmath.mpf(text), mpmath.mpf(bound.rstrip(")"))


def _numeric_reference(idx: tuple[int, ...], digits: int) -> mpmath.mpf:
    """The exact Q-combination from the symbolic path, evaluated with
    mpmath's own zeta: no code shared with zetalike's zeta_constant."""
    expr = eta.eta_symbolic(idx)
    with mpmath.mp.workdps(digits + 30):
        ref = mpmath.mpf(expr.constant.numerator) / expr.constant.denominator
        for k, c in expr.coeffs.items():
            ref += mpmath.mpf(c.numerator) / c.denominator * mpmath.zeta(k)
    return ref


def _numeric_request(idx: tuple[int, ...], digits: int, fmt: str, ref: mpmath.mpf) -> Request:
    argv = ["eta", ",".join(map(str, idx)), "--mode", "numeric",
            "--digits", str(digits), "--format", fmt]
    shown = digits if fmt == "text" else min(digits, 20)  # JSON prints 20 digits

    def check(output, expected):
        with mpmath.mp.workdps(digits + 30):
            try:
                value, bound = _parse_numeric(output, fmt)
            except (ValueError, KeyError) as exc:
                return f"unparseable output: {exc}"
            if bound > mpmath.mpf(10) ** -digits * mpmath.mpf("1.01"):
                return f"bound {bound} exceeds 1e-{digits}"
            # printed digits round the value; the bound prints to 3 digits
            slack = bound * mpmath.mpf("1.01") + abs(expected) * mpmath.mpf(10) ** (1 - shown)
            if abs(value - expected) > slack:
                return f"|value - mpmath reference| = {abs(value - expected)} > {slack}"
        return None

    return Request(" ".join(argv), lambda: run_cli(argv), check, ref)


NUMERIC_FORMATS = ("text", "json")


def numeric_rounds(rng: random.Random) -> list[list[Request]]:
    """Five indices of each weight 2..9 against digit counts from 40 equal
    slices of 20..299.

    An eta-value has at most one zeta(k) term for each k from 2 to its
    largest entry, and each term costs one ``zeta_constant``.  So a fixed
    plan pairs (weight, largest entry, digit slice), and the seed draws the
    index within its (weight, largest entry) class, the digits within the
    slice, the starting format and the order."""
    plan = [(w, 2 + i * (w - 1) // NUMERIC_PER_WEIGHT)
            for w in NUMERIC_WEIGHTS for i in range(NUMERIC_PER_WEIGHT)]
    random.Random("numeric plan").shuffle(plan)  # fixed pairing with the slices
    lo, hi = NUMERIC_DIGITS
    width = (hi - lo) / len(plan)
    cells = [(_random_composition(rng, w, largest), lo + int((i + rng.random()) * width),
              rng.randrange(len(NUMERIC_FORMATS)))
             for i, (w, largest) in enumerate(plan)]
    rng.shuffle(cells)
    refs = [_numeric_reference(idx, d) for idx, d, _k in cells]
    return [
        [_numeric_request(idx, d, _rotate(k, r, NUMERIC_FORMATS), ref)
         for (idx, d, k), ref in zip(cells, refs)]
        for r in range(len(NUMERIC_FORMATS))
    ]


# criterion-08 rho checkpoints and envelope
RHO_ORACLE_WEIGHTS = range(2, 6)
RHO_ORACLE_N = (1900, 1950, 2000, 2050, 2100)
# eta oracle indices of weight 2 and 3 sum this many terms (float loop)
ETA_ORACLE_TERMS = (120_000, 160_000)


def _rho_oracle_request(idx: tuple[int, ...], n: int) -> Request:
    exact = rho.rho_exact(idx)
    slack = Fraction(1, 1000) if len(idx) >= 5 else Fraction(1, 100000)

    def check(output, expected):
        if set(output) != {n // 2, n}:
            return f"checkpoints {sorted(output)} != {[n // 2, n]}"
        gap = expected - output[n]
        if gap < 0:
            return f"partial sum exceeds rho_exact by {-gap}"
        if gap > 10 * (output[n] - output[n // 2]) + slack:
            return f"gap {float(gap)} outside the tail envelope"
        return None

    return Request(f"rho_series_partial_at({idx}, [{n // 2}, {n}])",
                   lambda: rho.rho_series_partial_at(idx, [n // 2, n]), check, exact)


def _eta_oracle_request(idx: tuple[int, ...], tol: float) -> Request:
    sym = eta.eta_symbolic(idx).numeric(12)

    def check(output, expected):
        if output.error_bound > tol:
            return f"error bound {output.error_bound} above tolerance {tol}"
        gap = abs(output.value - expected.value)
        if gap > mpmath.mpf(tol) + output.error_bound + expected.error_bound:
            return f"oracle and symbolic value differ by {gap}"
        return None

    return Request(f"eta_numeric({idx}, 'oracle', {tol!r})",
                   lambda: eta.eta_numeric(idx, "oracle", tol), check, sym)


def oracle_rounds(rng: random.Random) -> list[list[Request]]:
    """Every admissible rho index of weight 2..5 against a seeded N near the
    criterion-08 N=2000, and every eta index of weight 2 and 3 with a
    tolerance that makes the series oracle sum a seeded number of terms."""
    reqs = [
        _rho_oracle_request(idx, rng.choice(RHO_ORACLE_N))
        for w in RHO_ORACLE_WEIGHTS for idx in compositions(w) if idx[-1] >= 2
    ]
    for w in (2, 3):
        for idx in compositions(w):
            terms = rng.randint(*ETA_ORACLE_TERMS)
            # the oracle sums ceil((2/((w-1) tol))^(1/(w-1))) terms
            reqs.append(_eta_oracle_request(idx, 2.0 / ((w - 1) * terms ** (w - 1))))
    rng.shuffle(reqs)
    return [reqs]


def build(workload: str, seed: int) -> list[list[Request]]:
    """The seeded rounds of one workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "table":
        return table_rounds(rng, load_digests())
    if workload == "verify":
        return verify_rounds(rng, load_digests())
    if workload == "numeric":
        return numeric_rounds(rng)
    if workload == "oracle":
        return oracle_rounds(rng)
    raise ValueError(f"unknown workload {workload!r}")

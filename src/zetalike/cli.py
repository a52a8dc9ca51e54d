"""Command-line front end.

Subcommands: ``rho`` and ``eta`` print single values, ``table`` emits every
admissible index of one weight, ``verify`` runs the identity suites.  Output
is deterministic: identical argv yields byte-identical stdout (compositions
enumerate in lexicographic order, JSON keys are sorted).

Commands return their exit code and stdout text; :func:`run` writes it, or
one ``error: ...`` line to stderr for a :class:`ZetalikeError`.

Exit codes: 0 all requested checks pass, 1 a verified identity failed,
2 usage or parse error.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
from typing import Sequence

from .errors import ZetalikeError
from .eta import MAX_DIGITS, _eta_weight_values, eta_numeric, eta_symbolic
from .rho import RhoIndex, indices, rho_exact
from .verify import SUITES, run_suite, value_to_json

MAX_TABLE_WEIGHT = 12
# the times below are one tools/worst_case.py run on a 2-vCPU VM, fresh
# interpreter included.  eta 9999,1 takes 0.16 s symbolic and eta 10000
# 0.17 s numeric; far larger weights run for minutes or end in OverflowError
# or MemoryError.  With --render pi, eta 10000 runs 72 s, eta 4000 4.0 s and
# eta 3000,2 2.1 s before the value is refused as too long to print: the
# render first builds one k/2-entry tangent-number table for the largest k,
# O(k^2) big-integer steps
MAX_ETA_WEIGHT = 10_000
# partial_fraction_shifted gives a pole of order s_j (s_j - 1)(w - s_j) series
# steps and r - 1 powers for its denominator (r the depth).  Summed over the
# poles, each count is at most 2 sum_{i<j} s_i s_j, the sum this caps and the
# weight cap does not bound.  The integers grow with the index, so a step has
# no fixed cost: eta 2000,2000 (4e6) takes 1.4 s, and eta 1,...,1 at depth
# 2828 (4.0e6) runs 4.8 s, most of it on the denominators, before it is
# refused as too long to print
MAX_ETA_WORK = 4_000_000
# a numeric eta-value evaluates zeta(k) for each k = 2..max(s), or k = s
# alone at depth 1, and zeta_constant(k, ...) takes about k^2 steps, as its
# head sits over lcm(1..7)^k: at --digits 300, eta 2000,1 (2.7e9) takes
# 4.0 s and eta 500,1 1.9 s, and the cap refuses eta 9999,1 (3.3e11)
MAX_ZETA_WORK = 2_700_000_000


def _parse_index(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"index must be comma-separated integers, got {text!r}"
        ) from None
    return parts


def _format(fmt: str, obj, rows: list[dict]) -> str:
    """obj as JSON, or rows as csv or a markdown table, columns in key order."""
    if fmt == "json":
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
    fields = list(rows[0])
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue()
    lines = [fields, ["---"] * len(fields), *(r.values() for r in rows)]
    return "".join("| " + " | ".join(map(str, line)) + " |\n" for line in lines)


# --------------------------------------------------------------------------
# Subcommand implementations: each returns (exit code, stdout text)
# --------------------------------------------------------------------------

def _envelope(idx: tuple[int, ...], value) -> dict:
    """The JSON object for one value: its index, weight, depth and value."""
    return {
        "index": list(idx),
        "weight": sum(idx),
        "depth": len(idx),
        "value": value_to_json(value),
    }


def _cmd_rho(args) -> tuple[int, str]:
    idx = RhoIndex.coerce(args.index)
    a = idx.alpha
    # rho(s) = 1/(|a|! prod of suffix sums of a): refuse a denominator too long
    # to print.  Capping |a| at the limit keeps lgamma's argument a float and
    # still refuses, as n! > 10**n for n >= 25
    limit = sys.get_int_max_str_digits()
    digits = math.lgamma(min(sum(a), limit) + 1) / math.log(10)
    digits += sum(map(math.log10, itertools.accumulate(reversed(a))))
    if limit and digits >= limit:
        raise ZetalikeError(
            f"rho{idx} has a denominator of more than {limit} digits, too long to print"
        )
    value = rho_exact(idx)
    if args.format == "json":
        return 0, _format("json", _envelope(args.index, value), [])
    return 0, f"{value}\n"


def _cmd_eta(args) -> tuple[int, str]:
    if not 1 <= args.digits <= MAX_DIGITS:
        raise ZetalikeError(f"--digits must be in 1..{MAX_DIGITS}, got {args.digits}")
    weight = sum(args.index)
    if weight > MAX_ETA_WEIGHT:
        raise ZetalikeError(f"eta weight must be at most {MAX_ETA_WEIGHT}, got {weight}")
    work = (weight**2 - sum(s * s for s in args.index)) // 2
    if work > MAX_ETA_WORK:
        raise ZetalikeError(
            f"eta index needs sum of s_i*s_j over i < j at most {MAX_ETA_WORK}, got {work}"
        )
    if args.mode == "symbolic":
        value = eta_symbolic(args.index)
        # str(int) raises ValueError past the interpreter's digit limit, so a
        # value is refused exactly when what this format prints is too long
        try:
            if args.format == "json":
                return 0, _format("json", _envelope(args.index, value), [])
            return 0, f"{value.render(args.render)}\n"
        except ValueError:
            raise ZetalikeError(
                f"eta-value of weight {weight} and depth {len(args.index)} has a number "
                f"of more than {sys.get_int_max_str_digits()} digits, too long to print"
            ) from None
    top = max(args.index)
    zeta_work = sum(k * k for k in (range(2, top + 1) if len(args.index) > 1 else (top,)))
    if zeta_work > MAX_ZETA_WORK:
        raise ZetalikeError(
            f"numeric eta index needs sum of k^2 over its zeta(k) terms at most "
            f"{MAX_ZETA_WORK}, got {zeta_work}"
        )
    value = eta_numeric(args.index, mode="fast", tolerance=10.0 ** (-args.digits))
    if args.format == "json":
        return 0, _format("json", _envelope(args.index, value), [])
    import mpmath

    return 0, (
        f"{mpmath.nstr(value.value, args.digits)} "
        f"(error <= {mpmath.nstr(value.error_bound, 3)})\n"
    )


def _table_values(family: str, weight: int) -> Sequence[tuple[tuple[int, ...], object]]:
    """(index, exact value) for every admissible index of the weight, in
    lexicographic order.  A rho table is built one ``rho_exact`` at a time,
    an eta table is the cached batch ``eta._eta_weight_values(weight)``,
    which runs the kernel once per pair of reversed indices."""
    if family == "rho":
        return [(idx, rho_exact(idx)) for idx in indices(weight, last=2)]
    return _eta_weight_values(weight)


def _cmd_table(args) -> tuple[int, str]:
    if not 2 <= args.weight <= MAX_TABLE_WEIGHT:
        raise ZetalikeError(f"table weight must be in 2..{MAX_TABLE_WEIGHT}, got {args.weight}")
    values = _table_values(args.family, args.weight)
    if args.format == "json":
        return 0, _format("json", [_envelope(idx, value) for idx, value in values], [])
    rows = [
        {
            "weight": args.weight,
            "depth": len(idx),
            "index": ",".join(map(str, idx)),
            "value": str(value) if args.family == "rho" else value.render(args.render),
        }
        for idx, value in values
    ]
    return 0, _format(args.format, None, rows)


def _report_row(d: dict) -> dict:
    """The csv/markdown row of one report's JSON object."""
    return {
        "identity": d["identity"],
        "parameters": ";".join(f"{k}={v}" for k, v in d["parameters"].items()),
        "passed": "pass" if d["passed"] else "FAIL",
        "lhs": _value_brief(d["lhs"]),
        "rhs": _value_brief(d["rhs"]),
        "discrepancy": _value_brief(d["discrepancy"]),
    }


def _value_brief(vjson: dict) -> str:
    if "error_bound" in vjson:
        return f"{vjson['value']}±{vjson['error_bound']}"
    zeta = vjson.get("zeta") or {}
    if not zeta:
        return vjson["constant"]
    terms = [vjson["constant"]] + [f"{c}*zeta({k})" for k, c in zeta.items()]
    return " + ".join(terms)


def _cmd_verify(args) -> tuple[int, str]:
    reports = run_suite(args.suite, args.max_weight)
    dicts = [r.to_json_dict() for r in reports]
    rows = [] if args.format == "json" else list(map(_report_row, dicts))
    text = _format(args.format, dicts, rows)
    n_fail = sum(not r.passed for r in reports)
    if args.format == "markdown":
        verdict = f"{n_fail} of {len(reports)} checks FAILED" if n_fail else f"all {len(reports)} checks passed"
        text += f"\n{verdict}\n"
    return (1 if n_fail else 0), text


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetalike",
        description="Exact rho/eta multiple-value computation and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rho = sub.add_parser("rho", help="exact rho-value of an index")
    p_rho.add_argument("index", type=_parse_index, help="comma-separated entries, e.g. 2,1,3")
    p_rho.add_argument("--format", choices=["text", "json"], default="text")
    p_rho.set_defaults(func=_cmd_rho)

    p_eta = sub.add_parser("eta", help="eta-value of an index")
    p_eta.add_argument("index", type=_parse_index)
    p_eta.add_argument("--mode", choices=["symbolic", "numeric"], default="symbolic")
    p_eta.add_argument("--digits", type=int, default=12)
    p_eta.add_argument("--render", choices=["pi", "zeta"], default="zeta")
    p_eta.add_argument("--format", choices=["text", "json"], default="text")
    p_eta.set_defaults(func=_cmd_eta)

    p_table = sub.add_parser("table", help="all admissible indices of one weight")
    p_table.add_argument("family", choices=["rho", "eta"])
    p_table.add_argument("--weight", type=int, required=True)
    p_table.add_argument("--format", choices=["markdown", "csv", "json"], default="markdown")
    p_table.add_argument("--render", choices=["pi", "zeta"], default="zeta")
    p_table.set_defaults(func=_cmd_table)

    p_verify = sub.add_parser("verify", help="run identity suites")
    p_verify.add_argument(
        "--suite", choices=["all", *SUITES], default="all"
    )
    p_verify.add_argument("--max-weight", type=int, default=None)
    p_verify.add_argument("--format", choices=["markdown", "csv", "json"], default="markdown")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


_PARSER = _build_parser()


def run(argv: list[str]) -> int:
    """Parse argv, run the command and write its output; returns the exit code."""
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        code, text = args.func(args)
    except ZetalikeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    sys.stdout.write(text)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Shows that the benchmark's output checks are not vacuous: feed one
corrupted expectation to each kind of check (a stdout digest, an mpmath
reference, an oracle reference) and require the run to report the failure.

    python3 perfbench/selftest.py

Exits 0 when every corruption is caught, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import mpmath  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402


def _corrupt_digest(req):
    req.expected = {**req.expected, "sha256": "0" * 64}


def _corrupt_value(req):
    if isinstance(req.expected, Fraction):  # rho_exact of a rho oracle request
        req.expected += Fraction(1, 10)
    elif isinstance(req.expected, mpmath.mpf):  # mpmath reference of a numeric request
        req.expected += mpmath.mpf("1e-6")
    else:  # symbolic value of an eta oracle request
        req.expected = dataclasses.replace(req.expected, value=req.expected.value + mpmath.mpf("1e-3"))


CASES = [("verify", _corrupt_digest), ("numeric", _corrupt_value), ("oracle", _corrupt_value)]


def main() -> int:
    ok = True
    for workload, corrupt in CASES:
        rounds = workloads.build(workload, seed=0)
        target = rounds[0][0]  # a run of 0 seconds makes exactly one pass, over round 0
        corrupt(target)
        out = run.run(workload, seed=0, seconds=0, trace=False, rounds=rounds)
        result, meta = out["result"], out["meta"]
        caught = (
            not result["correct"]
            and result["failed"] > 0
            and meta["fail_ratio"] > 0
            and any(line.startswith(target.label) for line in meta["failures"])
        )
        print(f"{workload:8} corrupted {target.label!r}: fail_ratio "
              f"{meta['fail_ratio']:.3g} ({result['failed']} of {result['attempted']}) "
              f"-> {'caught' if caught else 'MISSED'}")
        ok &= caught
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

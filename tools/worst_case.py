"""Time the slowest accepted argv of the CLI, each in a fresh interpreter.

    python3 tools/worst_case.py [TIMEOUT]

Runs each argv of CASES once, one at a time, as ``python -m zetalike.cli``
against ``src/`` with ``PYTHONDONTWRITEBYTECODE=1``, its stdout and stderr
discarded.  A run still going after TIMEOUT seconds (default 60) is killed
and reported as ``> TIMEOUT s``.  Prints one markdown row per argv: the
wall seconds, interpreter start-up included, and the exit code.  Exits 2
unless the only argument, if any, is a positive finite number of seconds.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 60.0
ONES = ",".join(["1"] * 2828)
# each sits just inside a cap (MAX_ETA_WEIGHT, MAX_ETA_WORK, MAX_ZETA_WORK,
# MAX_TABLE_WEIGHT) or prints pi^k through the Bernoulli numbers up to B_k
CASES = [
    "table eta --weight 12 --render pi",
    "eta 10000 --render pi",
    f"eta {ONES}",
    "eta 4000 --render pi",
    "eta 3000,2 --render pi",
    "eta 1000,2 --render pi",
    "eta 2000,1 --mode numeric --digits 300",
    "eta 500,1 --mode numeric --digits 300",
    "eta 2000,2000",
    "eta 9999,1",
    "eta 10000 --mode numeric",
    "verify",
]


def main() -> int:
    try:
        (timeout,) = map(float, sys.argv[1:] or [TIMEOUT])
        if not 0 < timeout < math.inf:
            raise ValueError
    except ValueError:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "src"))
    print("| argv | seconds | exit |")
    print("| --- | --- | --- |")
    for case in CASES:
        start = time.perf_counter()
        try:
            code = subprocess.run([sys.executable, "-m", "zetalike.cli", *case.split()], env=env,
                                  cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                  timeout=timeout).returncode
            seconds = f"{time.perf_counter() - start:.2f}"
        except subprocess.TimeoutExpired:
            code, seconds = "killed", f"> {timeout:g}"
        label = case.replace(ONES, "1,...,1 (2,828 ones)")
        print(f"| `{label}` | {seconds} | {code} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

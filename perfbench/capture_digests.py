"""Record the reference stdout digests the ``table`` and ``verify`` workloads
check against: sha256 of stdout plus the exit code, for every argv of both
request spaces (132 table argv, and the verify suite x --max-weight x
--format grid).

    python3 perfbench/capture_digests.py

Run it only on a commit whose output is the reference; a later change that
alters stdout on purpose re-captures and says so.  The committed
``digests.json`` was captured at commit d3233f45ae23.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> int:
    digests = {}
    for argv in (*workloads.table_space(), *workloads.verify_space()):
        code, stdout = workloads.run_cli(argv)
        if code != 0:
            print(f"error: {' '.join(argv)} exited {code}", file=sys.stderr)
            return 1
        digests[" ".join(argv)] = workloads.digest(code, stdout)
    with open(workloads.DIGESTS_PATH, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(digests)} digests written to {workloads.DIGESTS_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Replay every argv of the committed stdout digests against ``src/``.

    python3 tools/replay_digests.py

Runs each argv of ``perfbench/digests.json`` and ``tests/numeric_digests.json``
in this one process, prints every argv whose exit code or stdout sha256
differs from its digest and a count per file, and exits 1 if any differs,
else 0.  It takes no arguments and exits 2 if given any.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = [ROOT / "perfbench" / "digests.json", ROOT / "tests" / "numeric_digests.json"]


def main() -> int:
    if sys.argv[1:]:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from zetalike import cli

    differing = 0
    for path in FILES:
        digests = json.loads(path.read_text())
        bad = 0
        for argv, want in digests.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.run(argv.split())
            got = {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}
            if got != want:
                bad += 1
                print(f"differs: {argv}")
        print(f"{path.relative_to(ROOT)}: {bad} of {len(digests)} differ")
        differing += bad
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

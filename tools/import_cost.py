"""Time what ``import zetalike.cli`` loads, module by module.

    python3 tools/import_cost.py [N]

Starts N fresh interpreters (default 20), each running
``python -X importtime -c "import zetalike.cli"`` against ``src/`` with
``PYTHONDONTWRITEBYTECODE=1``, so every zetalike module is compiled from
source, as in the benchmark's ``setup_s``.  Prints, in import order, the
median self and cumulative time of each zetalike module, and under each the
five costliest standard-library imports it made itself (one made inside
another zetalike module counts there), by median cumulative time.  The last
line is the median cumulative time of the whole import.  Times are in
milliseconds.
"""

import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SHOWN = 5


def _tree(stderr: str) -> list[tuple[int, str, float, float]]:
    """The ``-X importtime`` lines as (depth, module, self ms, cumulative ms),
    in the order printed: an import's own imports come just before it, one
    level deeper."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, name.strip(), int(own) / 1000, int(cumulative) / 1000))
    return rows


def _attribute(rows) -> tuple[dict[str, tuple[float, float]], dict[str, dict[str, float]], float]:
    """Each zetalike module's (self, cumulative) time; for each, the
    cumulative time of the other modules it imported itself; and the
    cumulative time of the top-level zetalike imports, the whole cost."""
    times, stdlib, total = {}, {}, 0.0
    pending: list[tuple[int, str, float]] = []  # imports whose parent is not printed yet
    for depth, name, own, cumulative in rows:
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop())
        if name.startswith("zetalike"):
            times[name] = (own, cumulative)
            stdlib[name] = {child: t for _, child, t in children if not child.startswith("zetalike")}
            if depth == 0:
                total += cumulative
        pending.append((depth, name, cumulative))
    return times, stdlib, total


def main() -> int:
    try:
        (runs,) = map(int, sys.argv[1:] or ["20"])
        if runs < 1:
            raise ValueError
    except ValueError:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "src"))
    samples: dict[str, list[tuple[float, float]]] = {}
    imports: dict[str, dict[str, list[float]]] = {}
    totals: list[float] = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import zetalike.cli"],
                              env=env, cwd=ROOT, capture_output=True, text=True, check=True)
        times, stdlib, total = _attribute(_tree(proc.stderr))
        totals.append(total)
        for name, pair in times.items():  # samples keeps the import order
            samples.setdefault(name, []).append(pair)
            for child, cumulative in stdlib[name].items():
                imports.setdefault(name, {}).setdefault(child, []).append(cumulative)

    median = statistics.median
    print(f"import zetalike.cli, median of {runs} fresh interpreters (ms)")
    print(f"{'module':34}{'self':>8}{'cumulative':>12}")
    for name, pairs in samples.items():
        print(f"{name:34}{median([p[0] for p in pairs]):8.2f}{median([p[1] for p in pairs]):12.2f}")
        costs = {child: median(v) for child, v in imports.get(name, {}).items()}
        for child in sorted(costs, key=costs.get, reverse=True)[:SHOWN]:
            print(f"  {child:32}{'':8}{costs[child]:12.2f}")
    print(f"{'total':34}{'':8}{median(totals):12.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Alternating benchmark pairs: a parent commit against the staged tree.

    python3 tools/bench_pairs.py PARENT WORKLOAD PAIRS SEED

Exports PARENT and the staged tree (``git write-tree``) with ``git archive``
into a temporary directory outside the repository, and runs
``perfbench/run.py --workload WORKLOAD --seed S --seconds 28 --trace 0`` in
each export, with PYTHONDONTWRITEBYTECODE=1, for the PAIRS seeds S = SEED,
SEED + 1, ...; the parent runs first in even pairs, the change in odd ones.
Prints one JSON object in the shape of the ``BENCH_*.json`` files: for each
end-to-end metric the medians, the quartiles and in how many pairs the
change was lower, and for each side the lines and code lines of
``src/zetalike``; a code line is one that is not blank, not comment-only and
not in a module, class or function docstring.  Progress goes to stderr.
Exits 1 if any run reports a failed request, or at once if a run exits
nonzero, after printing its side, its seed and the tail of its stderr; 2 on
any other argument list (PAIRS must be at least 2).
"""

import ast
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("table", "verify", "numeric", "oracle")
SECONDS = 28
# lines of a crashed run's stderr to print
STDERR_TAIL = 20
# tokens that alone do not make a line code
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def _git(*args: str, data: bool = False):
    out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True)
    return out.stdout if data else out.stdout.decode().strip()


def _parse(argv: list[str]):
    """(parent sha, workload, pairs, seed), or None if the arguments are not
    a commit, a workload, an integer >= 2 and an integer."""
    if len(argv) != 4 or argv[1] not in WORKLOADS:
        return None
    try:
        parent = _git("rev-parse", "--verify", "--quiet", argv[0] + "^{commit}")
        pairs, seed = int(argv[2]), int(argv[3])
    except (subprocess.CalledProcessError, ValueError):
        return None
    return (parent, argv[1], pairs, seed) if pairs >= 2 else None


def _export(treeish: str, dest: Path) -> Path:
    with tarfile.open(fileobj=io.BytesIO(_git("archive", treeish, data=True))) as tar:
        tar.extractall(dest, filter="data")
    return dest


def _line_counts(tree: Path) -> tuple[int, int]:
    """(lines, code lines) of the exported tree's ``src/zetalike``."""
    lines = code = 0
    for path in sorted(tree.glob("src/zetalike/*.py")):
        source = path.read_text()
        lines += len(source.splitlines())
        docstrings = set()
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                    and ast.get_docstring(node, clean=False) is not None):
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        rows = set()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type not in NOT_CODE:
                rows.update(range(tok.start[0], tok.end[0] + 1))
        code += len(rows - docstrings)
    return lines, code


def _run(tree: Path, workload: str, seed: int) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def main(argv: list[str]) -> int:
    parsed = _parse(argv)
    if parsed is None:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent, workload, pairs, seed = parsed
    tree = _git("write-tree")
    results = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {"parent": _export(parent, Path(tmp, "parent")),
                 "change": _export(tree, Path(tmp, "change"))}
        counts = {side: _line_counts(path) for side, path in sides.items()}
        for i in range(pairs):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                try:
                    result = _run(sides[side], workload, seed + i)
                except subprocess.CalledProcessError as err:
                    tail = err.stderr.splitlines()[-STDERR_TAIL:]
                    print(f"pair {i + 1}/{pairs} seed {seed + i} {side}: exited "
                          f"{err.returncode}; its stderr ends:", *tail, sep="\n",
                          file=sys.stderr)
                    return 1
                results[side].append(result)
                print(f"pair {i + 1}/{pairs} seed {seed + i} {side}: failed "
                      f"{result['failed']} of {result['attempted']}", file=sys.stderr)

    medians, quartiles = {}, {}
    for metric in results["parent"][0]["metrics"]:
        runs = {side: [r["metrics"][metric]["value"] for r in rs] for side, rs in results.items()}
        medians[metric] = {side: round(statistics.median(v), 4) for side, v in runs.items()}
        quartiles[metric] = {side: [round(q, 4) for q in statistics.quantiles(v, n=4)[::2]]
                             for side, v in runs.items()}
        lower = sum(c < p for p, c in zip(runs["parent"], runs["change"]))
        quartiles[metric]["change_lower_pairs"] = f"{lower} of {pairs}"
    failed = sum(r["failed"] for side in results.values() for r in side)
    print(json.dumps({
        "parent_sha": parent,
        "change": f"staged tree {tree}",
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "runs": f"perfbench/run.py --seconds {SECONDS} --trace 0, probe-scaled, "
                f"PYTHONDONTWRITEBYTECODE=1, each side from git archive in its own "
                f"directory, alternating which side runs first; {workload}: {pairs} "
                f"pairs (seeds {seed}-{seed + pairs - 1}); failed {failed} in all "
                f"{2 * pairs} runs",
        "src_lines": {side: lines for side, (lines, _) in counts.items()},
        "code_lines": {side: code for side, (_, code) in counts.items()},
        "medians": {workload: medians},
        "quartiles": {workload: quartiles},
    }, indent=2))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

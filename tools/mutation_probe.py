"""Sample ast mutants of zetalike modules and report which the tests kill.

    python3 tools/mutation_probe.py [--all] src/zetalike/verify.py [...]

Sites are arithmetic, boolean and comparison operators (``+`` <-> ``-``,
``<`` <-> ``<=``, ...) and integer literals (``n`` -> ``n + 1``); a fixed seed
samples MUTANTS per module, or ``--all`` mutates every site once.  Each mutant
goes into a copy of the repository in a temporary directory, never into the
tree, and the module's own test files (``tests/test_<module>*.py``) run
against it in one pytest process at a time.  A failing or timed-out run kills
it.  Prints the kill rate and the survivors.
"""

import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SEED = 16
MUTANTS = 20
ROOT = Path(__file__).resolve().parents[1]
SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.Div: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In, ast.And: ast.Or, ast.Or: ast.And,
}


def sites(tree: ast.AST) -> list[tuple[int, int]]:
    # (node number in ast.walk order, comparison slot)
    out = []
    for i, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            out += [(i, j) for j, op in enumerate(node.ops) if type(op) in SWAPS]
        elif (isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in SWAPS
              or isinstance(node, ast.Constant) and type(node.value) is int):
            out.append((i, 0))
    return out


def mutate(source: str, i: int, j: int) -> tuple[str, str]:
    """The mutated source and a one-line description of the change."""
    tree = ast.parse(source)
    node = list(ast.walk(tree))[i]
    before = ast.unparse(node)
    if isinstance(node, ast.Compare):
        node.ops[j] = SWAPS[type(node.ops[j])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = SWAPS[type(node.op)]()
    return ast.unparse(tree), f"{node.lineno}: {before} -> {ast.unparse(node)}"


def run_tests(copy: Path, tests: list[str], timeout: float | None) -> bool:
    # a timeout counts as a failure
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           f"--hypothesis-seed={SEED}", *tests]
    try:
        done = subprocess.run(cmd, cwd=copy, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                              capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def probe(module: Path, copy: Path, every: bool) -> tuple[int, int]:
    rel = module.resolve().relative_to(ROOT)
    tests = sorted(str(p.relative_to(ROOT)) for p in ROOT.glob(f"tests/test_{module.stem}*.py"))
    source = module.read_text()
    start = time.perf_counter()
    if not tests or not run_tests(copy, tests, None):
        sys.exit(f"{rel}: no test files, or they fail unmutated: {tests}")
    timeout = 5 * (time.perf_counter() - start) + 10
    found = sites(ast.parse(source))
    sample = found if every else sorted(random.Random(SEED).sample(found, min(MUTANTS, len(found))))
    survivors = []
    for site in sample:
        text, what = mutate(source, *site)
        (copy / rel).write_text(text)
        if run_tests(copy, tests, timeout):
            survivors.append(what)
    (copy / rel).write_text(source)  # the copy is shared by the next module
    killed = len(sample) - len(survivors)
    print(f"{rel}: {killed} of {len(sample)} killed ({len(found)} sites; tests: {' '.join(tests)})")
    for what in survivors:
        print(f"  survivor {rel.name}:{what}")
    return killed, len(sample)


def main() -> None:
    every = sys.argv[1:2] == ["--all"]
    modules = sys.argv[2:] if every else sys.argv[1:]
    if not modules:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", "*.egg-info"))
        results = [probe(Path(m), copy, every) for m in modules]
    killed, total = map(sum, zip(*results))
    how = "every site" if every else f"seed {SEED}"
    print(f"kill rate: {killed} of {total} ({100 * killed / max(total, 1):.0f}%), {how}")


if __name__ == "__main__":
    main()

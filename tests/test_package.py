import ast
import contextlib
import importlib
import inspect
import io
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import zetalike

MODULES = ["zetalike"] + [
    f"zetalike.{info.name}" for info in pkgutil.iter_modules(zetalike.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale __all__ entry breaks `from <module> import *`
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES[1:])
def test_submodule_is_not_shadowed(name):
    # a root re-export named like its submodule, such as the function
    # harmonic, would make `import zetalike.harmonic as h` bind the function
    importlib.import_module(name)
    assert getattr(zetalike, name.removeprefix("zetalike.")) is sys.modules[name]


@pytest.mark.parametrize("name", MODULES)
def test_no_stdlib_reexports(name):
    # every exported function is zetalike's own code, not a builtin or another
    # library's function under a new name; type aliases such as Rational are
    # classes and stay allowed
    module = importlib.import_module(name)
    foreign = [
        n
        for n in getattr(module, "__all__", ())
        if inspect.isroutine(getattr(module, n))
        and not getattr(getattr(module, n), "__module__", "").startswith("zetalike")
    ]
    assert foreign == []


def _names_in(expr: ast.AST) -> set[str]:
    """The names an expression reads, including those inside a string
    annotation such as ``"RhoIndex" | Iterable[int]``."""
    names = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= _names_in(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in import order.  A name
    counts as read in code, in an annotation (also a string one) or in
    ``__all__``."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _names_in(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _names_in(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _names_in(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    source = Path(importlib.import_module(name).__file__).read_text()
    assert unused_imports(source) == []


def test_unused_import_check_sees_annotations_and_all():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from typing import Iterable, Iterator, Sequence\n"
        "from .rho import RhoIndex, rho_exact\n"
        "__all__ = ['rho_exact']\n"
        "def f(x: Iterable[int], y: 'RhoIndex | None' = None) -> Sequence[int]:\n"
        "    return system.argv\n"
    )
    assert unused_imports(source) == ["os", "Iterator"]


def cached_functions(source: str) -> dict[str, list[str]]:
    """The functions of ``source`` that ``lru_cache`` or ``functools.cache``
    decorates, as ``"line: name"``, split into those at module top level and
    those nested in a class or another function."""
    tree = ast.parse(source)
    out = {"top": [], "nested": []}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
            if name in ("lru_cache", "cache"):
                out["top" if node in tree.body else "nested"].append(f"{node.lineno}: {node.name}")
    return out


def test_every_cache_is_at_module_top_level():
    # the benchmark's cold runs and the tests clear the caches they find as
    # module attributes; a cache nested in a class or a function escapes both,
    # so a "cold" run would silently measure a warm one
    found = {
        path.name: cached_functions(path.read_text())
        for path in sorted(Path(zetalike.__file__).parent.glob("*.py"))
    }
    assert {name: f["nested"] for name, f in found.items() if f["nested"]} == {}
    assert "_suffix_balance_cached" in str(found["rho.py"]["top"])
    assert "_quadrature_value" in str(found["verify.py"]["top"])


def test_cache_scan_sees_nested_and_attribute_forms():
    source = (
        "import functools\n"
        "from functools import lru_cache, cache\n"
        "@lru_cache(maxsize=None)\n"
        "def a(): pass\n"
        "@functools.cache\n"
        "def b(): pass\n"
        "def c():\n"
        "    @lru_cache\n"
        "    def d(): pass\n"
        "class E:\n"
        "    @functools.lru_cache(maxsize=8)\n"
        "    def f(self): pass\n"
        "    @staticmethod\n"
        "    def g(): pass\n"
    )
    assert cached_functions(source) == {"top": ["4: a", "6: b"], "nested": ["9: d", "12: f"]}


def _fresh(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports zetalike
    from the same sources as this process."""
    env = dict(os.environ, PYTHONPATH=str(Path(zetalike.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    return proc.stdout


def test_import_loads_no_third_party_module():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import zetalike.cli\n"
        "print(sorted({m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "             - set(sys.stdlib_module_names)))\n"
    )
    assert _fresh(code).strip() == "['zetalike']"


def test_import_defines_no_dataclass_and_builds_no_table():
    # dataclasses loads inspect and each decoration execs generated code, and
    # the eta fixtures would build the Bernoulli table: start-up work that no
    # command needs before it runs
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import zetalike.cli\n"
        "from zetalike import numeric, tables\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)),\n"
        "      numeric._bernoulli_table.cache_info().currsize,\n"
        "      tables._eta_table.cache_info().currsize,\n"
        "      numeric._pi_power_factors.cache_info().currsize)\n"
    )
    assert _fresh(code).strip() == "[] 0 0 0"


def test_root_exports_load_their_home_on_first_use():
    code = textwrap.dedent("""\
        import importlib, pkgutil, sys
        import zetalike
        print(sorted(m for m in sys.modules if m.startswith("zetalike.")))
        zetalike.rho_exact
        print("zetalike.rho" in sys.modules, "zetalike.verify" in sys.modules)
        exports = {name: getattr(zetalike, name) for name in zetalike.__all__}
        # the functions harmonic and compositions do not shadow their modules
        print(type(zetalike.harmonic).__name__, type(zetalike.compositions).__name__)
        from zetalike import cli, eta, rho
        print(cli.__name__, eta.__name__, rho.__name__)
        # every export is the object each submodule binds to its name
        modules = [importlib.import_module(f"zetalike.{info.name}")
                   for info in pkgutil.iter_modules(zetalike.__path__)]
        print(sorted(name for name, obj in exports.items()
                     if not any(name in vars(m) for m in modules)
                     or any(vars(m).get(name, obj) is not obj for m in modules)))
    """)
    assert _fresh(code).splitlines() == [
        "[]",
        "True False",
        "module module",
        "zetalike.cli zetalike.eta zetalike.rho",
        "[]",
    ]


def test_mpmath_and_numpy_load_only_on_the_numeric_paths():
    # one process, in this order, as a loaded module stays loaded: the exact
    # commands load neither, eta --mode numeric loads mpmath, and only the
    # quadrature suite loads numpy
    exact = [["rho", "2,3"], ["eta", "2,1"], ["table", "eta", "--weight", "4"],
             *(["verify", "--suite", s] for s in
               ("tables", "rho-sum", "rho-eta", "hook", "weighted", "balance"))]
    numeric = [["eta", "2,1", "--mode", "numeric"], ["verify", "--suite", "quadrature"]]
    code = (
        "import contextlib, io, sys\n"
        "import zetalike.cli as cli\n"
        "loaded = []\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    for argv in {exact + numeric!r}:\n"
        "        assert cli.run(argv) == 0, argv\n"
        "        loaded.append(('mpmath' in sys.modules, 'numpy' in sys.modules))\n"
        "print(loaded)\n"
    )
    want = [(False, False)] * len(exact) + [(True, False), (True, True)]
    assert _fresh(code).strip() == str(want)


def test_import_loads_every_module_the_tracer_patches():
    # perfbench/tracing.py patches sys.modules["zetalike.<module>"].<attribute>
    # for each target once the benchmark has imported zetalike.cli, so a
    # module loaded lazily would end a traced run in a KeyError, and a renamed
    # or deleted attribute in an AttributeError
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py").read_text())
    targets = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    )
    targets = [(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts]
    modules = sorted({module for module, _ in targets})
    assert "quadrature" in modules
    assert ("compositions", "weak_compositions") in targets
    code = (
        "import sys, zetalike.cli\n"
        f"print([m for m in {modules!r} if 'zetalike.' + m not in sys.modules])\n"
        f"print([t for t in {targets!r}\n"
        "       if not hasattr(sys.modules.get('zetalike.' + t[0]), t[1])])\n"
    )
    assert _fresh(code).splitlines() == ["[]", "[]"]


# the root exports that no command or check calls, each with why it stays
UNREACHED = {
    # perfbench/tracing.py's TARGETS patches it by name, so deleting it would
    # end every traced benchmark run; it waits for ROADMAP's Benchmark v2
    "weak_compositions",
    # link B of ROADMAP's Theorem chain, which will reach it
    "alternating_binomial_sum",
    # the rho oracle that tests and the benchmark's oracle workload compare
    # rho_exact against
    "rho_series_partial_at",
    # README documents it
    "rerun",
}
# every table weight, format and render, and each rho, eta and numeric eta form
REACH_ARGV = [
    ["verify", "--suite", "all"],
    *(["table", family, "--weight", str(weight), "--format", fmt, "--render", render]
      for family in ("rho", "eta") for weight in range(2, 13)
      for fmt in ("markdown", "csv", "json") for render in ("zeta", "pi")),
    *(["rho", "2,1,3", "--format", fmt] for fmt in ("text", "json")),
    *(["eta", "1,2", "--render", render, "--format", fmt]
      for render in ("zeta", "pi") for fmt in ("text", "json")),
    *(["eta", "2,1", "--mode", "numeric", "--format", fmt] for fmt in ("text", "json")),
]


def test_every_root_function_is_reached_by_a_command():
    # a function is reached when its code runs under some argv, with every
    # cache cleared so that a cached layer runs too; lru_cache wrappers are
    # unwrapped to the function whose code runs on a miss.  Classes and
    # SUITES are types and values, not calls
    import zetalike.cli

    exports = {name: getattr(zetalike, name) for name in zetalike.__all__}
    functions = {name: inspect.unwrap(obj) for name, obj in exports.items()
                 if callable(obj) and not inspect.isclass(obj)}
    assert all(map(inspect.isfunction, functions.values()))
    for name in MODULES:
        for obj in vars(importlib.import_module(name)).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [zetalike.cli.run(argv) for argv in REACH_ARGV]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(REACH_ARGV)
    assert {name for name, f in functions.items() if f.__code__ not in called} == UNREACHED


def _subclasses(cls: type):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_frozen_value_keeps_the_protocol():
    # every value type takes its immutability, equality, hashing, copy and
    # pickle from numeric._Frozen; a sample of each must show all of them
    import copy
    import pickle
    from fractions import Fraction

    import mpmath

    from zetalike.compositions import Index
    from zetalike.eta import EtaIndex, ZetaExpr
    from zetalike.numeric import ApproxReal, _Frozen
    from zetalike.rho import RhoIndex
    from zetalike.verify import _Quadrature

    for name in MODULES:
        importlib.import_module(name)
    # alike arguments, so that only the type tells the samples apart
    one, tiny = mpmath.mpf(1), mpmath.mpf("1e-20")
    samples = [Index((1, 2)), EtaIndex((1, 2)), RhoIndex((1, 2)), ApproxReal(one, tiny, 17),
               _Quadrature(one, tiny, 17, 3), ZetaExpr(Fraction(1, 2), {3: 2})]
    found = {c for c in _subclasses(_Frozen) if c.__module__.startswith("zetalike.")}
    assert found == set(map(type, samples))
    # the protocol is written once: no subclass overrides a member of it
    protocol = {"__setattr__", "__delattr__", "__eq__", "__hash__", "__reduce__"}
    assert all(protocol.isdisjoint(vars(c)) for c in found)
    for value in samples:
        for name in {s for c in type(value).__mro__ for s in getattr(c, "__slots__", ())}:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = None
        for again in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value)),
                      type(value)(*value._args())):
            assert type(again) is type(value) and again == value
            assert hash(again) == hash(value)
        others = [v for v in samples if v is not value] + [value._args(), *value._args()]
        assert all(value != other and not value == other for other in others)

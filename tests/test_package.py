import importlib
import inspect
import pkgutil

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

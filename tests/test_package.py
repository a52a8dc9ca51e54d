import importlib
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

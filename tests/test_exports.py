"""Every name a module exports resolves, so a deletion cannot leave a
stale entry in an ``__all__``."""

import importlib
import pkgutil

import pytest

import convexcert

MODULES = ["convexcert"] + [
    f"convexcert.{info.name}" for info in pkgutil.iter_modules(convexcert.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), name
    assert [n for n in exported if not hasattr(module, n)] == []

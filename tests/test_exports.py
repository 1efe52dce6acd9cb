import importlib
import pkgutil

import pytest

import lorapro

MODULES = ["lorapro",
           *sorted(f"lorapro.{info.name}" for info in pkgutil.iter_modules(lorapro.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # each name a module's __all__ lists (modules without one export none)
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "a name is listed twice"
    assert [export for export in exported if not hasattr(module, export)] == []

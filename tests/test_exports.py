import importlib
import pkgutil

import pytest

import zaklab

PUBLIC_MODULES = ["zaklab"] + [f"zaklab.{m.name}" for m in pkgutil.iter_modules(zaklab.__path__)
                               if not m.name.startswith("_")]


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what the module lacks: {missing}"

"""Every name a coft module exports in ``__all__`` is an attribute of it.

``perfbench/tracer.py`` installs its wrappers by ``getattr`` over each traced
module's ``__all__``, so a name left behind there when its function is
deleted would crash every traced benchmark run while every other test passes.
"""

import importlib
import pkgutil

import pytest

import coft

MODULES = ["coft"] + [f"coft.{m.name}" for m in pkgutil.iter_modules(coft.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []

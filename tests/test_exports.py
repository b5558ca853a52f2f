"""Every name a module lists in __all__ must resolve."""

import importlib
import pkgutil

import pytest

import cursor

MODULES = ["cursor"] + [f"cursor.{m.name}" for m in pkgutil.iter_modules(cursor.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []

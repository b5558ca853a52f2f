"""Every name a module lists in __all__ must resolve, and README's export
table lists exactly the package's names."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import cursor

MODULES = ["cursor"] + [f"cursor.{m.name}" for m in pkgutil.iter_modules(cursor.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_readme_library_table_is_the_package_exports():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| ")][2:]
    # only the names column: the purpose column may quote code too
    listed = [name for row in rows for name in re.findall(r"`(\w+)`", row.split("|")[2])]
    assert len(listed) == len(set(listed)) == len(cursor.__all__)
    assert set(listed) == set(cursor.__all__)
    private = [(m, attr) for m in MODULES
               for attr in importlib.import_module(m).__all__ if attr.startswith("_")]
    assert private == []

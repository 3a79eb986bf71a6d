"""Package layout: public names resolve, and the package stands alone.

Reference implementations live under ``tests/oracles``; the package must
not reach into them.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import cylform

MODULES = sorted(m.name for m in pkgutil.iter_modules(cylform.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"cylform.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_exports_resolve():
    assert [n for n in cylform.__all__ if not hasattr(cylform, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_oracles(name):
    path = Path(cylform.__path__[0]) / f"{name}.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert "oracles" not in imported

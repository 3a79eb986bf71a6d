"""Package layout: public names resolve, the package stands alone, and the
benchmark's tracer still finds what it wraps.

Reference implementations live under ``tests/oracles``; the package must
not reach into them.
"""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import cylform

MODULES = sorted(m.name for m in pkgutil.iter_modules(cylform.__path__))

#: tracer targets naming symbols the package has already dropped; the
#: tracer reports them as missing until the benchmark is next revised
STALE_TRACER_TARGETS = {
    "cylform.kernels:exp_conv",
    "cylform.controller:exp_conv",
    "cylform.controller:exp_conv_paired",
    "cylform.estimator:exp_conv",
    "cylform.geometry:CylinderGrid.analyze_profile",
    "cylform.plant:DelayLine.lookup",
}


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


@pytest.fixture(scope="module")
def tracing():
    bench = str(Path(__file__).resolve().parents[1] / "benchmarks")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    return importlib.import_module("cylbench.tracing")


def test_bench_tracer_finds_every_layer(tracing):
    assert tracing.absent_layers() == []


def test_bench_tracer_misses_only_stale_targets(tracing):
    missing = {t for gone in tracing.missing_targets().values() for t in gone}
    assert missing <= STALE_TRACER_TARGETS

"""Package layout: public names resolve, the package stands alone, every
definition and dataclass field has a use, and the benchmark's tracer still
finds what it wraps.

Reference implementations live under ``tests/oracles``; the package must
not reach into them.
"""

import ast
import importlib
import pkgutil
import sys
from collections import Counter
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
    "cylform.kernels:exp_lattice_weights",
    "cylform.kernels:KernelSet.command_lattice",
    "cylform.controller:control_modes_recorded",
    "cylform.controller:to_target_history",
    "cylform.runner:adaptation_drift",
    "cylform.estimator:exp_conv_paired",
    "cylform.plant:DelayLine.lookup_many",
}

#: definitions that no package line calls by name: a library calls them,
#: or they are public names kept for callers outside the package;
#: qualified name -> who calls it
CALLED_FROM_OUTSIDE = {
    "_Parser.error": "argparse, on every usage error",
    "CylinderGrid.analyze": "public: tests, oracles and the bench tracer; the "
                            "loop works on mode tables from the start",
    "CylinderGrid.analyze_rows": "public: tests, oracles and the bench tracer; "
                                 "the loop works on mode tables from the start",
}

#: dataclass fields that no package line reads: the package fills them for
#: readers outside it; qualified name -> who reads it
READ_FROM_OUTSIDE = {
    **{f"TargetResiduals.{name}": "the bench's record_digest and check_operation"
       for name in ("interior", "boundary_flow", "rim_defect", "anchor_defect",
                    "seam_defect")},
    "RunRecord.residuals": "the bench's record_digest and check_operation",
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


def _reads(node):
    """``(identifier, as attribute)`` of every name ``node`` reads: a bare
    name, or the attribute of an ``x.attr`` expression."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id, False
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            yield n.attr, True


def _definitions(body, prefix="", in_class=False):
    """``(qualified name, node, is a method)`` of every function and class,
    nested too."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node, in_class
            yield from _definitions(node.body, f"{prefix}{node.name}.",
                                    isinstance(node, ast.ClassDef))


def _unused_definitions():
    """``(module, qualified name)`` of every package definition that no
    package line reads outside its own body.

    A definition counts as used when its name is read somewhere in the
    package outside its own body; uses in tests do not count, so code only
    tests reach belongs under tests/oracles.  A method counts only when it
    is read as an attribute (``x.name``): a bare name of the same spelling
    is some other variable.  Strings (``__all__``, docstrings), imports and
    assignments do not count either.  Dunder methods are called by the
    language itself.
    """
    src = Path(cylform.__path__[0])
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    uses = Counter(read for tree in trees.values() for read in _reads(tree))
    unused = []
    for name in MODULES:
        for qual, node, method in _definitions(trees[src / f"{name}.py"].body):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            kinds = (True,) if method else (False, True)
            own = Counter(read for read in _reads(node) if read[0] == node.name)
            if all(uses[node.name, k] == own[node.name, k] for k in kinds):
                unused.append((name, qual))
    return unused


def test_every_definition_is_used():
    unused = [f"{module}:{qual}" for module, qual in _unused_definitions()
              if qual not in CALLED_FROM_OUTSIDE]
    assert unused == []


def test_outside_callers_name_unread_definitions():
    # an exemption must name a package definition that no package line
    # reads: one whose definition is gone, or that the package now calls
    # itself, is stale
    unread = {qual for _, qual in _unused_definitions()}
    assert sorted(set(CALLED_FROM_OUTSIDE) - unread) == []


def _is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def _unread_fields():
    """``(module, qualified name)`` of every dataclass field that no package
    line reads as an attribute (``x.field``).

    Like :func:`_unused_definitions` this goes by name: a field counts as
    read when any attribute of that spelling is read anywhere in the
    package.  Keyword arguments, ``dataclasses.astuple`` and the like do not
    count, so a field only they reach is unread.
    """
    src = Path(cylform.__path__[0])
    trees = {name: ast.parse((src / f"{name}.py").read_text(encoding="utf-8"))
             for name in MODULES}
    uses = Counter(read for tree in trees.values() for read in _reads(tree))
    return [(name, f"{cls.name}.{item.target.id}")
            for name, tree in trees.items()
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
            for item in cls.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            and uses[item.target.id, True] == 0]


def test_every_dataclass_field_is_read():
    unread = [f"{module}:{qual}" for module, qual in _unread_fields()
              if qual not in READ_FROM_OUTSIDE]
    assert unread == []


def test_outside_readers_name_unread_fields():
    # an exemption must name a field that no package line reads: one whose
    # field is gone, or that the package now reads itself, is stale
    unread = {qual for _, qual in _unread_fields()}
    assert sorted(set(READ_FROM_OUTSIDE) - unread) == []


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

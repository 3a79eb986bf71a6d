"""Spans and call counts recorded around the calls into each layer.

The program is not changed: a traced run replaces, for its duration, the
attributes that callers look up (a module global such as
``cylform.runner.mismatch_drift``, or a method on a class) with wrappers
that record a span or bump a counter, and puts the originals back after.
``runner``, ``controller`` and ``estimator`` bind imported names at import
time, so each wrapper goes on the module the *caller* reads the name from.

A target that a later version of the package removes or renames is skipped
and reported; a layer whose targets are all missing is reported absent.
"""

from __future__ import annotations

import importlib
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          #: index of the enclosing span, -1 at the top


@dataclass
class Tracer:
    """In-memory span list plus plain call counters."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    _open: list = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx].end = time.perf_counter()

    def count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()


def self_times(spans: list) -> list:
    """Per span: its duration minus the durations of its direct children.

    Spans of one thread nest properly, so the direct children tile disjoint
    parts of the parent's interval and their sum is the covered time.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


#: layer -> ((module, attribute path, record name, kind), ...).  ``span``
#: times each call, ``count`` only counts it (for calls too small and too
#: frequent to time without distorting the run).
WRAP_TARGETS = {
    "config": (
        ("cylform.config", "load_config", "config.load", "span"),
    ),
    "steady": (
        ("cylform.runner", "formation_fields", "steady.formation", "span"),
    ),
    "geometry": (
        ("cylform.geometry", "CylinderGrid.analyze", "geometry.transform", "span"),
        ("cylform.geometry", "CylinderGrid.synthesize", "geometry.transform", "span"),
        ("cylform.geometry", "CylinderGrid.analyze_rows", "geometry.transform", "span"),
        ("cylform.geometry", "CylinderGrid.analyze_profile", "geometry.transform", "span"),
        ("cylform.geometry", "CylinderGrid.synthesize_profile", "geometry.transform", "span"),
    ),
    "quadrature": (
        ("cylform.controller", "exp_conv", "quadrature.conv", "span"),
        ("cylform.controller", "exp_conv_paired", "quadrature.conv", "span"),
        ("cylform.estimator", "exp_conv", "quadrature.conv", "span"),
        ("cylform.estimator", "exp_conv_paired", "quadrature.conv", "span"),
        ("cylform.kernels", "exp_conv", "quadrature.conv", "span"),
        ("cylform.quadrature", "exp_pair_weights", "quadrature.weights", "span"),
        ("cylform.quadrature", "exp_half_weights", "quadrature.weights", "span"),
        ("cylform.kernels", "exp_pair_weights", "quadrature.weights", "span"),
        ("cylform.kernels", "exp_lattice_weights", "quadrature.weights", "span"),
    ),
    "kernels": (
        ("cylform.kernels", "KernelBasis.__init__", "kernels.basis", "span"),
        ("cylform.kernels", "KernelSet.__init__", "kernels.set_build", "span"),
        ("cylform.kernels", "KernelSet.command_lattice", "kernels.lattice", "span"),
    ),
    "plant": (
        ("cylform.plant", "Channel.step", "plant.step", "span"),
        ("cylform.plant", "DelayLine.lookup", "plant.lookup", "count"),
        ("cylform.plant", "DelayLine.lookup_many", "plant.lookup", "count"),
    ),
    "controller": (
        ("cylform.controller", "ChannelController.update", "controller.update", "span"),
        ("cylform.controller", "reconstruct_transport", "controller.transport", "span"),
        ("cylform.controller", "control_modes", "controller.law", "span"),
        ("cylform.controller", "control_modes_recorded", "controller.law", "span"),
        ("cylform.controller", "to_target_history", "controller.history", "span"),
    ),
    "estimator": (
        ("cylform.runner", "mismatch_drift", "estimator.drift", "span"),
        ("cylform.runner", "update_signal", "estimator.signal", "span"),
        ("cylform.runner", "step_estimate", "estimator.step", "span"),
        ("cylform.runner", "adaptation_drift", "estimator.adapt_drift", "span"),
    ),
    "runner": (
        ("cylform.runner", "target_residual", "runner.residual", "span"),
        ("cylform.runner", "write_series", "runner.write_series", "span"),
        ("cylform.runner", "write_all_snapshots", "runner.write_snapshots", "span"),
    ),
}


def _resolve(module: str, path: str):
    """``(owner, attribute, current value)`` for a dotted path, or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # Read the class dict so a method is wrapped where it is defined and a
    # restore puts back exactly the object that was there.
    raw = vars(owner).get(attr)
    return None if raw is None else (owner, attr, raw)


def _wrap(fn, tracer: Tracer, name: str, kind: str):
    if kind == "count":
        def counted(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)
        return counted

    def timed(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return timed


@contextmanager
def patched(owner, attr: str, replacement):
    """Set ``owner.attr`` for the duration of the block, then restore it."""
    original = vars(owner)[attr]
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def missing_targets(targets: dict = WRAP_TARGETS) -> dict:
    """Layer -> ``module:path`` of each of its targets that cannot be found."""
    out = {}
    for layer, entries in targets.items():
        gone = [f"{m}:{p}" for m, p, _, _ in entries if _resolve(m, p) is None]
        if gone:
            out[layer] = gone
    return out


def absent_layers(targets: dict = WRAP_TARGETS) -> list:
    """Layers none of whose targets can be found."""
    return [layer for layer, gone in missing_targets(targets).items()
            if len(gone) == len(targets[layer])]


@contextmanager
def installed(tracer: Tracer, targets: dict = WRAP_TARGETS):
    """Wrap every target that can be found, for the duration of the block."""
    with ExitStack() as stack:
        for entries in targets.values():
            for module, path, name, kind in entries:
                found = _resolve(module, path)
                if found is not None:
                    owner, attr, raw = found
                    stack.enter_context(
                        patched(owner, attr, _wrap(raw, tracer, name, kind)))
        yield

"""Timed and traced workload runs along the path ``cylform run`` takes.

One *operation* is one complete job: ``config.load_config`` on the
generated scenario file, ``runner.run``, then ``runner.write_series`` and
``runner.write_all_snapshots``.  Every operation is checked (see
:func:`check_operation`); one that raises, is stopped by the guard or fails
a check counts as failed.

Two probes are present in every operation.  The first call of
``ChannelController.update`` marks the end of set-up (grid, formation
fields, kernel bases and sets); ``runner.target_residual`` is timed so that
residual diagnostics can be taken out of the loop time.  A *set-up rep*
runs ``runner.run`` until that first call and stops it there.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import resource
import statistics
import time
import traceback
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cylform import config, controller, runner

from . import tracing
from .scenarios import Workload

#: timed set-up reps before each job of an untraced run; spreading them
#: over the run keeps a slow spell of the machine from owning the median
SETUP_REPS = 3


class _SetupReached(Exception):
    """Raised by the set-up probe to stop a set-up rep."""


@dataclass
class _Marks:
    first_update: float | None = None
    residual_s: float = 0.0
    stop_at_setup: bool = False


@contextmanager
def _probes(marks: _Marks):
    """Install the set-up and residual probes for the duration of a block."""
    cls = controller.ChannelController
    update = vars(cls)["update"]

    def probed_update(self, *args, **kwargs):
        if marks.first_update is None:
            marks.first_update = time.perf_counter()
            if marks.stop_at_setup:
                raise _SetupReached
        return update(self, *args, **kwargs)

    residual = runner.target_residual

    def probed_residual(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return residual(*args, **kwargs)
        finally:
            marks.residual_s += time.perf_counter() - t0

    with tracing.patched(cls, "update", probed_update), \
            tracing.patched(runner, "target_residual", probed_residual):
        yield


def setup_seconds(scenario: Path) -> float:
    """One set-up rep: parsed config to the first control step."""
    cfg = config.load_config(scenario)
    marks = _Marks(stop_at_setup=True)
    with _probes(marks):
        t0 = time.perf_counter()
        try:
            runner.run(cfg)
        except _SetupReached:
            return marks.first_update - t0
    raise RuntimeError("runner.run returned without a control step")


# ---------------------------------------------------------------------------
# one operation


@dataclass
class Operation:
    """Timings, checks and, when traced, the spans of one job."""

    traced: bool
    problems: list = field(default_factory=list)
    setup_s: float = math.nan
    loop_s: float = math.nan
    job_s: float = math.nan
    sim_s: float = math.nan
    ctrl_steps: int = 0
    err_final_rel: float = math.nan
    at_bound_share: float = math.nan
    residual_captures: int = 0
    bytes_written: int = 0
    digest: str = ""
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def timed(self) -> bool:
        return not math.isnan(self.job_s)


def _logged(record) -> list:
    """``(name, array)`` of every logged series, in ``series.csv`` order."""
    return [("times", record.times), ("estimates", record.estimates),
            ("signals", record.signals), ("err_planar", record.err_planar),
            ("err_axial", record.err_axial), ("ring_errors", record.ring_errors),
            ("control_sup", record.control_sup),
            ("rim_residual", record.rim_residual)]


def record_digest(record) -> str:
    """SHA-256 over every logged array, snapshot and residual entry."""
    h = hashlib.sha256()
    for _, arr in _logged(record):
        h.update(np.ascontiguousarray(arr).tobytes())
    for snap in record.snapshots:
        h.update(np.ascontiguousarray(snap.planar).tobytes())
        h.update(np.ascontiguousarray(snap.axial).tobytes())
    for t, res_p, res_z in record.residuals:
        h.update(np.array([t, *dataclasses.astuple(res_p),
                           *dataclasses.astuple(res_z)]).tobytes())
    return h.hexdigest()


def check_operation(record, cfg, workload: Workload, series_path: Path,
                    written: list) -> list:
    """Problems found in one job's outputs; empty when all checks pass."""
    problems = []
    if record.terminated:
        problems.append(f"guard stopped the run: {record.reason}")
    n = record.times.size
    if n < 2:
        problems.append(f"only {n} logged rows")
    else:
        step = record.times[1] - record.times[0]
        want = round(cfg.duration / step) + 1
        if n != want or abs(record.times[-1] - cfg.duration) > 1e-9 * cfg.duration:
            problems.append(f"{n} rows ending at t={record.times[-1]!r}; "
                            f"the horizon {cfg.duration!r} needs {want}")
    logged = _logged(record)
    for name, arr in logged:
        if not np.all(np.isfinite(arr)):
            problems.append(f"non-finite values in {name}")
    est = record.estimates
    if est.size and not (np.all(est >= cfg.delay_lo) and np.all(est <= cfg.delay_hi)):
        problems.append(f"delay estimate left [{cfg.delay_lo}, {cfg.delay_hi}]")

    back = np.loadtxt(series_path, delimiter=",", skiprows=1, ndmin=2)
    cols = [c for _, arr in logged for c in (arr.T if arr.ndim == 2 else [arr])]
    if back.shape != (n, len(cols)):
        problems.append(f"series.csv holds {back.shape}, record {(n, len(cols))}")
    elif not all(np.array_equal(back[:, j], c, equal_nan=True)
                 for j, c in enumerate(cols)):
        problems.append("series.csv does not read back bit for bit")

    if len(record.residuals) != len(workload.residual_times):
        problems.append(f"{len(record.residuals)} residual captures, "
                        f"{len(workload.residual_times)} requested")
    for t, *chans in record.residuals:
        if not all(math.isfinite(v) for r in chans for v in dataclasses.astuple(r)):
            problems.append(f"non-finite target residual at t={t!r}")
    if len(record.snapshots) != len(cfg.snapshot_times):
        problems.append(f"{len(record.snapshots)} snapshots, "
                        f"{len(cfg.snapshot_times)} requested")
    for snap in record.snapshots:
        if not (np.all(np.isfinite(snap.planar)) and np.all(np.isfinite(snap.axial))):
            problems.append(f"non-finite snapshot at t={snap.requested_t!r}")
    missing = [str(p) for p in written if not Path(p).is_file()]
    if missing:
        problems.append(f"writer returned paths that do not exist: {missing[:3]}")
    return problems


def run_operation(workload: Workload, scenario: Path, out_dir: Path,
                  tracer: tracing.Tracer | None = None) -> Operation:
    """One job, timed; traced as well when a tracer is given.

    Any exception is caught here, reported with its traceback and counted
    as a failure, so that one bad job cannot hide the others.
    """
    op = Operation(traced=tracer is not None)
    marks = _Marks()
    try:
        with ExitStack() as scope:
            if tracer is not None:
                scope.enter_context(tracing.installed(tracer))
                scope.enter_context(tracer.span("bench.job"))
            cfg = config.load_config(scenario)
            with _probes(marks):
                t0 = time.perf_counter()
                with tracer.span("runner.run") if tracer else nullcontext():
                    record = runner.run(
                        cfg, capture_residuals=list(workload.residual_times))
                t_run = time.perf_counter()
                series = runner.write_series(record, out_dir)
                written = runner.write_all_snapshots(record, out_dir)
                t_end = time.perf_counter()
        if tracer is not None:
            op.spans = list(tracer.spans)
            op.counts = dict(tracer.counts)
        if marks.first_update is None:
            raise RuntimeError("the run made no control step")
        op.setup_s = marks.first_update - t0
        op.loop_s = t_run - marks.first_update - marks.residual_s
        op.job_s = t_end - t0
        op.sim_s = float(record.times[-1])
        op.ctrl_steps = int(record.times.size)
        planar, axial = record.err_planar, record.err_axial
        op.err_final_rel = float(math.hypot(planar[-1], axial[-1])
                                 / math.hypot(planar[0], axial[0]))
        est = record.estimates
        op.at_bound_share = float(np.mean((est == cfg.delay_lo)
                                          | (est == cfg.delay_hi)))
        op.residual_captures = len(record.residuals)
        op.bytes_written = sum(Path(p).stat().st_size for p in [series, *written])
        op.digest = record_digest(record)
        op.problems += check_operation(record, cfg, workload, series, written)
    except Exception:  # noqa: BLE001 -- the failure is reported and counted
        op.problems.append("raised:\n" + traceback.format_exc())
    return op


# ---------------------------------------------------------------------------
# runs: many operations, one metric set


def _median(values) -> float:
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else math.nan


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_digests(ops: list) -> None:
    """Every job of one scenario must log the same trajectory, traced or not."""
    ref = next((op.digest for op in ops if op.digest and not op.traced), None)
    for op in ops:
        if ref and op.digest and op.digest != ref:
            kind = "traced" if op.traced else "untraced"
            op.problems.append(f"{kind} trajectory digest {op.digest[:12]} differs "
                               f"from the first untraced job's {ref[:12]}")


def end_to_end(ops: list, setup_samples: list) -> dict:
    """End-to-end metrics of an untraced run, as ``name -> (value, unit)``."""
    timed = [op for op in ops if op.timed]
    return {
        "setup_s": (_median(setup_samples + [op.setup_s for op in timed]), "s"),
        "wall_per_sim_s": (_median([op.loop_s / op.sim_s for op in timed]), "s/s"),
        "ctrl_steps_per_s": (_median([op.ctrl_steps / op.loop_s for op in timed]), "1/s"),
        "job_s": (_median([op.job_s for op in timed]), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "err_final_rel": (_median([op.err_final_rel for op in timed]), "1"),
    }


def _rounds(seconds: float, least: int = 1):
    """Yield once per round of a run, for at least ``least`` rounds.

    A further round starts only if it would end within ``seconds`` of the
    first one's start, judging its length by the longest round so far.  A
    run thus measures for about ``seconds`` whatever a job costs, instead of
    overrunning by up to a whole job.
    """
    start = time.perf_counter()
    longest = 0.0
    for n in itertools.count():
        now = time.perf_counter()
        if n >= least and now - start + longest > seconds:
            return
        yield
        longest = max(longest, time.perf_counter() - now)


def measure(workload: Workload, scenario: Path, out_dir: Path,
            seconds: float) -> tuple[list, dict]:
    """Untraced run: rounds of set-up reps and a job for ``seconds``."""
    setup_seconds(scenario)                   # warm-up: imports, BLAS, caches
    setups, ops = [], []
    for _ in _rounds(seconds):
        setups += [setup_seconds(scenario) for _ in range(SETUP_REPS)]
        ops.append(run_operation(workload, scenario, out_dir))
    _check_digests(ops)
    return ops, end_to_end(ops, setups)


def trace(workload: Workload, scenario: Path, out_dir: Path,
          seconds: float) -> tuple[list, dict]:
    """Traced run: one untraced reference job, then traced jobs, for
    ``seconds``.  Returns the jobs and the per-layer metrics, each the
    median over the traced jobs."""
    setup_seconds(scenario)
    ops = []
    tracer = tracing.Tracer()
    for _ in _rounds(seconds, least=2):
        tracer.reset()
        ops.append(run_operation(workload, scenario, out_dir, tracer if ops else None))
    _check_digests(ops)
    traced = [op for op in ops if op.traced and op.timed]
    per_op = [layer_metrics(op) for op in traced]
    metrics = {name: (_median([m[name][0] for m in per_op]), unit)
               for name, (_, unit) in per_op[0].items()} if per_op else {}
    if metrics:
        untraced_job = _median([op.job_s for op in ops if not op.traced and op.timed])
        traced_job = _median([op.job_s for op in traced])
        metrics["runner.tracing_overhead"] = (traced_job / untraced_job - 1.0, "1")
    return ops, metrics


# ---------------------------------------------------------------------------
# per-layer metrics of one traced job


def _inside_layer(spans: list, span, layer: str) -> bool:
    """Whether a non-root ancestor of ``span`` belongs to ``layer``."""
    p = span.parent
    while p >= 0:
        up = spans[p]
        if up.name not in _ROOT_SPANS and tracing.layer_of(up.name) == layer:
            return True
        p = up.parent
    return False


LAYERS = tuple(tracing.WRAP_TARGETS)


#: spans that enclose every layer; a layer is charged only their own code
_ROOT_SPANS = ("bench.job", "runner.run")


def layer_metrics(op: Operation) -> dict:
    """Per-layer metrics of one traced job, as ``name -> (value, unit)``.

    ``<layer>.self_s`` sums the self time of the layer's spans.
    ``<layer>.share`` is the wall time spent inside the layer, calls it
    makes into other layers included, over the whole job: the summed
    duration of its outermost spans (``runner.run``, which encloses the
    whole loop, adds only its self time).  Shares overlap where one layer
    calls another, so they do not add up to one.
    """
    spans = op.spans
    own = tracing.self_times(spans)
    durations: dict = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_wall = dict.fromkeys(LAYERS, 0.0)
    total = 0.0
    for span, self_s in zip(spans, own):
        durations.setdefault(span.name, []).append(span.end - span.start)
        layer = tracing.layer_of(span.name)
        if span.name == "bench.job":
            total = span.end - span.start
        if layer not in layer_self:
            continue
        layer_self[layer] += self_s
        if span.name in _ROOT_SPANS:
            layer_wall[layer] += self_s
        elif not _inside_layer(spans, span, layer):
            layer_wall[layer] += span.end - span.start

    def calls(name):
        return len(durations.get(name, ()))

    def total_s(name):
        return float(sum(durations.get(name, ())))

    def ms(name, q=50):
        d = durations.get(name)
        return float(np.percentile(d, q) * 1e3) if d else 0.0

    out = {
        "plant.step_calls": (calls("plant.step"), "count"),
        "plant.step_ms.p50": (ms("plant.step"), "ms"),
        "plant.step_ms.p95": (ms("plant.step", 95), "ms"),
        "plant.lookup_calls": (op.counts.get("plant.lookup", 0), "count"),
        "controller.update_calls": (calls("controller.update"), "count"),
        "controller.update_ms.p50": (ms("controller.update"), "ms"),
        "controller.update_ms.p95": (ms("controller.update", 95), "ms"),
        "controller.transport_ms": (ms("controller.transport"), "ms"),
        "controller.law_ms": (ms("controller.law"), "ms"),
        "controller.history_ms": (ms("controller.history"), "ms"),
        "quadrature.conv_calls": (calls("quadrature.conv"), "count"),
        "quadrature.conv_s": (total_s("quadrature.conv"), "s"),
        "quadrature.weight_builds": (calls("quadrature.weights"), "count"),
        "quadrature.weight_s": (total_s("quadrature.weights"), "s"),
        "kernels.basis_s": (total_s("kernels.basis"), "s"),
        "kernels.set_builds": (calls("kernels.set_build"), "count"),
        "kernels.set_build_ms": (ms("kernels.set_build"), "ms"),
        "kernels.lattice_calls": (calls("kernels.lattice"), "count"),
        "kernels.lattice_s": (total_s("kernels.lattice"), "s"),
        "estimator.drift_ms": (ms("estimator.drift"), "ms"),
        "estimator.signal_ms": (ms("estimator.signal"), "ms"),
        "estimator.at_bound_share": (op.at_bound_share, "1"),
        "estimator.adapt_drift_ms": (ms("estimator.adapt_drift"), "ms"),
        "geometry.transform_calls": (calls("geometry.transform"), "count"),
        "geometry.transform_s": (total_s("geometry.transform"), "s"),
        "steady.formation_ms": (ms("steady.formation"), "ms"),
        "config.load_ms": (ms("config.load"), "ms"),
        "runner.loop_self_s": (
            own[next(i for i, s in enumerate(op.spans) if s.name == "runner.run")], "s"),
        "runner.residual_captures": (op.residual_captures, "count"),
        "runner.residual_s": (total_s("runner.residual"), "s"),
        "runner.write_series_ms": (total_s("runner.write_series") * 1e3, "ms"),
        "runner.write_snapshots_ms": (total_s("runner.write_snapshots") * 1e3, "ms"),
        "runner.bytes_written": (op.bytes_written, "B"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layer_self[layer], "s")
        out[f"{layer}.share"] = (layer_wall[layer] / total if total else 0.0, "1")
    return out

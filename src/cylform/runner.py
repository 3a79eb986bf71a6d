"""Closed-loop experiment driver and CSV serialization.

One run advances both channels from the initial formation toward the
desired one.  The swarm's state is one stack of both channels, planar then
axial, on a leading axis: one :class:`~cylform.plant.Channel` advances the
stack in one step, one delay line records both channels' commands side by
side in each row, and the loop's reductions (the mismatch drift and the
update signal each step; the formation and ring errors, the physical
commands for ``control_sup`` and the rim residual once per chunk of steps)
run once over the stack, summing or maximizing over the channels in that
order.  So does the control law: one
:class:`~cylform.controller.ChannelController` steps both channels in one
call per control step, on the stacked tables, taking each channel's
product in that channel's update; the channels' laws differ only in their
kernel tables and advection scalings, which it holds per channel.  The
plant integrates the desired formation's coefficients from the start (the
dynamics switch the instant the new formation is commanded), with anchor
and leader rims held at the desired profiles; rim actuation reaches the
leader row only after the true dead time.  Both formations are their own
stencils' equilibria (:func:`~cylform.steady.formation_fields`), so the plant
can reach the goal; the desired stencils serve the goal and the plant.  The
run's one time step is the control block: the fewest equal blocks spanning
the horizon, none longer than ``run.block``.  At each block start the
controller measures the fields and issues new rim commands, and the delay
estimate takes one clipped gradient step driven by both channels; then
the stack advances over the whole block in one exact step, and the guard is
checked at the block end, planar channel first.  The controller's step is
one product per channel with that channel's kernel set's ``step_map``,
which yields the target history and the state part of the mismatch drift;
the estimator completes each channel's drift from the history's root value
and forms the update signal from the two.  The loop works in mode space and
keeps only the wavenumbers ``|n| <= band``, where ``band`` is the largest
``|n|`` listed in the rim data of either formation: no other wavenumber is
ever excited, so the rest would carry roundoff only.  The formations, the
plant state and the errors are mode tables: the controller measures the
channels' tables against the goal's, the delay line records the commands'
band coefficients, and the plant's eigencoordinates, the kernel tables, the
control law and the drift hold the band's rows.  The formation errors and
ring errors come from the deviation table by Parseval.  No later step reads
the logged observations (the formation and ring errors, ``control_sup``,
the rim residual), so they leave the control step: each step writes their
inputs into a row of fixed buffers, and every ``_OBS_ROWS`` steps, and once
after the loop, one reduction over the rows gives each step's values, bit
for bit what the step alone would give.  A physical field is synthesized
only where it leaves the loop: the snapshots, and per chunk the physical
commands of both channels at all its steps in one inverse FFT, for
``control_sup``.  Kernel tables are rebuilt only when the estimate has
drifted a fixed fraction of the admissible interval away from the tables in
use.  Both channels' tables are one :class:`~cylform.kernels.KernelStack`,
whose per-row tables are stacked when it is built.  The stack a rebuild
replaces is kept as a spare, and an estimate that returns within that
fraction of it (a projected estimate flipping between its bounds) swaps it
back, step maps and stacked tables included, instead of rebuilding.  Either
way the loop repoints the controller's ``kernels``, the only reference it
keeps to the tables.  An adaptive run checks at set-up that the tables'
series resolves ``delay.lo``, where it converges slowest.  A
:func:`target_residual` capture is taken at the tables in use, so one
across an estimate move includes that move; it reads each channel's views
of this step's stacks and of the last step's, which the loop keeps in two
alternating buffers.

Results are collected in a :class:`RunRecord` (one logged row per control
step) and serialized as CSV: a single time series plus, per requested
snapshot instant, one grid-shaped file per field and an agent-position
table.  A snapshot is the state at its requested instant; one inside a
block is a copy of the stack propagated to that instant.  All floats are
written with 17 significant digits, so a read-back reproduces the run bit
for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from .config import ScenarioConfig, snapshot_label
from .controller import (ChannelController, reconstruct_transport,
                         rim_residual, to_target_state, window_table)
from .errors import ConfigError, InstabilityError
from .estimator import (EstimatorState, mismatch_drift, step_estimate,
                        update_signal)
from .geometry import TWO_PI, CylinderGrid
from .kernels import KernelBasis, KernelSet, KernelStack
from .plant import Channel, DelayLine, Stencil
from .steady import formation_fields

#: the kinds of the stacked channels: the planar field, then the axial
_KINDS = ("complex", "real")

#: relative slack when matching snapshot instants to the block starts
_SNAP_TOL = 1e-9

#: the automatic block cap, in classical RK4 steps of the stiffer stencil
_AUTO_BLOCK_STEPS = 10

#: fraction of the admissible delay interval the estimate may drift from the
#: cached kernel tables before they are rebuilt, or swapped for the tables
#: they replaced if the estimate has returned to those
_RETABLE_FRACTION = 1e-4

#: the most rows an array can hold
_MAX_ROWS = np.iinfo(np.intp).max

#: control steps whose logged reductions run together, once per chunk; it
#: bounds the buffers of their inputs whatever the horizon
_OBS_ROWS = 32


@dataclass(frozen=True)
class Snapshot:
    """Field state at a requested instant."""

    requested_t: float
    planar: np.ndarray      #: (M, N) complex in-plane positions
    axial: np.ndarray       #: (M, N) real heights


@dataclass(frozen=True)
class TargetResiduals:
    """Discrete defects of the decoupled system one channel should satisfy.

    ``interior`` is the surface norm of the transformed-state equation on
    interior nodes, with the rim coupling removed by subtracting the linear
    interpolant of the moving-rim value.  ``boundary_flow`` is the norm of
    the history transport defect at the tables in use, ``delay * (h1 - h0)/dt
    - d_s h_mid`` on interior nodes: it vanishes only at an exact estimate,
    and a capture across an estimate move carries the change of tables.  The
    remaining entries are pointwise rim checks: the history image at the
    moving rim, and the tied ends of the interpolant-corrected state.
    """

    interior: float
    boundary_flow: float
    rim_defect: float
    anchor_defect: float
    seam_defect: float


@dataclass
class RunRecord:
    """Everything one run logs: per-control-step series plus snapshots."""

    config: ScenarioConfig
    ring_rows: tuple
    modes: np.ndarray            #: the wavenumbers the run kept, ascending
    times: np.ndarray
    estimates: np.ndarray
    signals: np.ndarray
    err_planar: np.ndarray
    err_axial: np.ndarray
    ring_errors: np.ndarray      #: (rows, len(ring_rows))
    control_sup: np.ndarray
    rim_residual: np.ndarray
    snapshots: list = field(default_factory=list)
    terminated: bool = False
    reason: str | None = None
    #: (t, planar TargetResiduals, axial TargetResiduals) when captured
    residuals: list = field(default_factory=list)


def _reached(queue, t: float) -> bool:
    """Whether the first pending request of ``queue`` is due at ``t``."""
    return bool(queue) and queue[0] <= t + _SNAP_TOL * max(1.0, t)


def _resolve_blocks(cfg: ScenarioConfig, stencils: list) -> tuple[int, float]:
    """Block count and length: the fewest whole blocks spanning the horizon
    exactly, none longer than ``cfg.block`` or the automatic cap.

    The run records one delay-line row per block and reads back up to the
    larger delay: a cap that makes more blocks of the horizon or of that
    delay than an array dimension can hold is a :class:`ConfigError`.
    """
    cap = cfg.block
    if cap is None:
        cap = _AUTO_BLOCK_STEPS * min(st.rk4_step for st in stencils)
    count = max(cfg.duration, cfg.true_delay, cfg.delay_hi) / cap
    if not count < _MAX_ROWS:
        raise ConfigError(
            f"run.block = {cap:g} makes {count:.6g} blocks of the horizon or the delay, "
            f"more than the {_MAX_ROWS} rows an array can hold")
    blocks = max(1, math.ceil(cfg.duration / cap))
    return blocks, cfg.duration / blocks


def run(cfg: ScenarioConfig, capture_residuals=()) -> RunRecord:
    """Simulate one scenario; deterministic for a fixed config.

    ``capture_residuals`` is a collection of instants.  Each triggers one
    :func:`target_residual` capture for both channels at the first control
    step at or after it, but not before the second step (a capture spans two
    consecutive updates).  The logged observations of each chunk of
    ``_OBS_ROWS`` control steps are reduced together (:func:`_observe`), at
    its last step or, for the last chunk, after the loop ends.  A capture
    hands each channel's views of the two steps' tables to
    :func:`target_residual`; they hold until the loop next writes those
    buffers.
    """
    grid = CylinderGrid(cfg.grid_m, cfg.grid_n,
                        band=max(cfg.initial.band, cfg.desired.band))
    coeffs = (cfg.desired.planar_coeffs, cfg.desired.axial_coeffs)
    stencils = [Stencil(grid, c) for c in coeffs]
    inits = formation_fields(cfg.initial, grid)
    goals = formation_fields(cfg.desired, grid, stencils)
    goal = np.stack(goals)
    modes, m = grid.modes.size, grid.M

    blocks, dt_ctrl = _resolve_blocks(cfg, stencils)

    # no read reaches back further than the run has recorded
    horizon = min(max(cfg.true_delay, cfg.delay_hi) + 4.0 * dt_ctrl, cfg.duration)
    est = EstimatorState(cfg.initial_estimate, cfg.delay_lo, cfg.delay_hi,
                         cfg.gain, dt_ctrl)
    bases = [KernelBasis(c, grid) for c in coeffs]
    if not cfg.fixed_estimate:
        # fail here, not at the first rebuild at delay.lo, where the kernel
        # series converges slowest
        for basis in bases:
            basis.check_truncation(cfg.delay_lo, "delay.lo")
    plant = Channel(stencils, goal[:, :, 0], goal[:, :, -1], np.stack(inits),
                    dt_ctrl, cfg.true_delay, _KINDS)
    line = DelayLine(len(_KINDS) * modes, dt_ctrl, horizon)
    ctrl = ChannelController([KernelSet(basis, est.estimate) for basis in bases])
    # each entry of the line's row scaled by its channel's gain, the lift at
    # the rim
    gains = np.repeat(ctrl.gain, modes)[:, None]
    windows = lru_cache(maxsize=2)(partial(window_table, line, grid=grid))
    spare = None                # the kernel stack last replaced
    retable_tol = _RETABLE_FRACTION * (cfg.delay_hi - cfg.delay_lo)

    ring_idx = np.array(cfg.ring_rows, dtype=int) - 1
    snap_queue = list(cfg.snapshot_times)
    res_queue = sorted(capture_residuals)
    # the inputs of the logged reductions, one row per step of the chunk:
    # the deviation, the scaled deviation, the in-flight table after the
    # controller's step, the history's rim column and the commands
    devs, scaled, flights = np.empty((3, _OBS_ROWS) + goal.shape, dtype=complex)
    rims = np.empty((_OBS_ROWS, len(_KINDS), modes, 1), dtype=complex)
    sent = np.empty((_OBS_ROWS, len(_KINDS), modes), dtype=complex)
    chunk = devs, scaled, flights, rims, sent
    # the step products of both channels, target history then state drift,
    # of this step and the last (a residual capture reads both)
    products = np.empty((2, len(_KINDS), modes, 2 * m), dtype=complex)
    rows, observed, snaps, residuals = [], [], [], []
    terminated, reason = False, None

    for b in range(blocks + 1):
        t = b * dt_ctrl
        while _reached(snap_queue, t):
            snaps.append(Snapshot(snap_queue.pop(0), *plant.values))
        k = b % _OBS_ROWS
        dev = np.subtract(plant.table, goal, out=devs[k])
        measured = np.multiply(dev, ctrl.lift, out=scaled[k])
        kernels = ctrl.kernels
        # the step leaves the new commands at the rim nodes, in place
        transport = flights[k]
        reconstruct_transport(line, t, kernels.delay, grid, gains, windows(kernels.delay),
                              transport.reshape(-1, m))
        images = products[b % 2]
        sent[k] = ctrl.step(measured, transport, images)
        line.record(t, sent[k].reshape(-1))
        rims[k] = images[:, :, m - 1:m]
        history = images[:, :, :m]
        signal = update_signal(
            history, mismatch_drift(images[:, :, m:], history, kernels.edge_flow), grid)
        rows.append((t, est.estimate, signal))
        if k == _OBS_ROWS - 1:
            observed.append(_observe(grid, ring_idx, *chunk))

        if b > 0 and _reached(res_queue, t):
            while _reached(res_queue, t):
                res_queue.pop(0)
            # each channel's views of the last step's tables and of this one's
            last = zip(scaled[(b - 1) % _OBS_ROWS], products[(b - 1) % 2, :, :, :m])
            residuals.append((t, *(target_residual(before, after, dt_ctrl, ks)
                                   for before, after, ks
                                   in zip(last, zip(measured, history), kernels.sets))))

        if not cfg.fixed_estimate:
            est = step_estimate(est, signal)
            if not kernels.matches(est.estimate, retable_tol):
                if spare is not None and spare.matches(est.estimate, retable_tol):
                    ctrl.kernels, spare = spare, kernels
                else:
                    spare = kernels
                    ctrl.kernels = KernelStack(
                        [KernelSet(ks.basis, est.estimate) for ks in kernels.sets])
        if b == blocks:
            break
        # requests inside the block, each at its own instant
        end = t + dt_ctrl
        while snap_queue and snap_queue[0] < end - _SNAP_TOL * max(1.0, end):
            r = snap_queue.pop(0)
            snaps.append(Snapshot(r, *plant.peek(t, r - t, line)))
        try:
            plant.step(t, line)
        except InstabilityError as exc:
            terminated, reason = True, str(exc)
            break
    if k < _OBS_ROWS - 1:
        observed.append(_observe(grid, ring_idx, *(a[:k + 1] for a in chunk)))

    errs, ring, sup, rim = (np.concatenate(col) for col in zip(*observed))
    times, estimates, signals = (np.array(col, dtype=float) for col in zip(*rows))
    return RunRecord(cfg, tuple(cfg.ring_rows), grid.modes, times, estimates,
                     signals, *errs.T.copy(), ring, sup, rim,
                     snapshots=snaps, terminated=terminated, reason=reason,
                     residuals=residuals)


def _observe(grid: CylinderGrid, ring_idx: np.ndarray, dev: np.ndarray,
             measured: np.ndarray, transport: np.ndarray, rims: np.ndarray,
             commands: np.ndarray) -> tuple:
    """The logged reductions of a chunk of control steps, one row per step:
    the (planar, axial) formation errors, the ring errors, ``control_sup``
    and the rim residual.

    The tables are the steps' stacks of both channels on a second axis:
    the deviation, the scaled deviation, the in-flight table after the
    controller's step, the history's rim column ``(rows, channels, modes, 1)`` and the
    commands.  Each reduction adds in the order of a single step's, so a
    row is bit for bit what that step alone would give.
    """
    # Parseval: 2pi times a column sum is a ring's integral of |f|^2
    sq = abs(dev) ** 2
    # one Simpson dot per step and channel: a batched product adds in
    # another order
    cols = (TWO_PI * np.add.reduce(sq, axis=2)).reshape(-1, grid.M)
    errs = np.sqrt(abs(np.fromiter(map(grid.simpson_s.dot, cols), float, len(cols))))
    ring = np.sqrt(TWO_PI * np.add.reduce(np.add.reduce(sq[..., ring_idx], axis=1), axis=1))
    # the physical commands, the real channel's as the real part
    profiles = grid.synthesize_profile(commands)
    profiles.imag[:, _KINDS.index("real")] = 0.0
    return (errs.reshape(-1, len(_KINDS)), ring, abs(profiles).max(axis=(1, 2)),
            rim_residual(measured, transport, rims).max(axis=1))


# ---------------------------------------------------------------------------
# diagnostics


def _surface_norm(stack: np.ndarray, h_s: float) -> float:
    """Plain product-rule surface norm of an interior mode-space table."""
    return float(np.sqrt(2.0 * np.pi * h_s * np.sum(np.abs(stack) ** 2)))


def target_residual(prev: tuple, curr: tuple, dt: float,
                    ks: KernelSet) -> TargetResiduals:
    """Defects of the decoupled equations between two consecutive updates.

    Works per angular wavenumber on one channel's mode tables of the two
    updates, each update's ``(scaled deviation, target history)`` pair; the
    target states are mapped from their scaled deviations through the
    delay-independent Volterra table of ``ks.basis``, so both sides of a
    capture that spans a kernel swap see one map.  The moving-rim coupling is
    removed from the state by subtracting ``s`` times the history value at
    the near rim; what remains must satisfy a pure heat equation with pinned
    ends, driven by the rim motion.  The history must satisfy a transport
    equation whose speed is the reciprocal of the delay estimate of ``ks``,
    the tables in use: the defect models no motion of the estimate, so a
    capture across an estimate move includes the change of the history
    image between the two updates' tables.  Time derivatives
    are centered on the interval, so the discretization itself contributes
    at second order in ``dt`` on top of the grid's second-order spatial
    error; the axial derivatives are central differences.
    """
    grid = ks.grid
    (measured0, h0), (measured1, h1) = prev, curr
    s, h = grid.s, grid.h_s
    n2 = (grid.modes.astype(float) ** 2)[:, None]          # (modes, 1)

    w0 = to_target_state(measured0, ks)
    w1 = to_target_state(measured1, ks)
    near0, near1 = h0[:, 0], h1[:, 0]                      # rim coupling value
    m0 = w0 - s[None, :] * near0[:, None]
    m1 = w1 - s[None, :] * near1[:, None]

    m_mid = 0.5 * (m0 + m1)
    near_mid = 0.5 * (near0 + near1)
    s_in = s[None, 1:-1]
    state_res = ((m1 - m0)[:, 1:-1] / dt
                 - (m_mid[:, 2:] - 2.0 * m_mid[:, 1:-1] + m_mid[:, :-2]) / h**2
                 + n2 * m_mid[:, 1:-1]
                 + n2 * s_in * near_mid[:, None]
                 + s_in * ((near1 - near0) / dt)[:, None])

    h_mid = 0.5 * (h0 + h1)
    flow_res = (ks.delay * (h1 - h0)[:, 1:-1] / dt
                - (h_mid[:, 2:] - h_mid[:, :-2]) / (2.0 * h))

    return TargetResiduals(
        interior=_surface_norm(state_res, h),
        boundary_flow=_surface_norm(flow_res, h),
        rim_defect=float(np.max(np.abs(h1[:, -1]))),
        anchor_defect=float(np.max(np.abs(m1[:, 0]))),
        seam_defect=float(np.max(np.abs(m1[:, -1]))),
    )


# ---------------------------------------------------------------------------
# serialization


def _write_table(path: Path, data: np.ndarray, fmts: list,
                 header: str | None = None) -> Path:
    """Write a 2-D table as comma-separated rows, one format per column,
    below ``header`` when given; returns the path.

    The bytes are those of ``np.savetxt(path, data, fmts, delimiter=",",
    header=header or "", comments="")``, formatted in one ``%`` operation
    over the whole table instead of one per row.
    """
    row = ",".join(fmts) + "\n"
    text = (row * len(data)) % tuple(np.ravel(data).tolist())
    path.write_text(text if header is None else header + "\n" + text,
                    encoding="utf-8")
    return path


def write_series(record: RunRecord, directory) -> Path:
    """Write the per-control-step series as ``series.csv``; returns the path.

    Header and column order are fixed; an empty record still produces the
    header line.  Values carry 17 significant digits (lossless for doubles).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = ["t", "Dhat", "tau", "err_u_L2", "err_z_L2"]
    names += [f"err_ring_{i}" for i in record.ring_rows]
    names += ["control_sup", "h_bnd_residual"]
    cols = [record.times, record.estimates, record.signals,
            record.err_planar, record.err_axial]
    cols += [record.ring_errors[:, j] for j in range(len(record.ring_rows))]
    cols += [record.control_sup, record.rim_residual]
    data = np.column_stack(cols) if record.times.size else np.zeros((0, len(names)))
    return _write_table(directory / "series.csv", data, ["%.17g"] * len(names),
                        ",".join(names))


def write_snapshot(fields: dict, t: float, directory) -> list:
    """One grid-shaped CSV per named real field at one instant.

    Filenames are ``snapshot_t<label>_<name>.csv`` with the label of ``t``
    from :func:`~cylform.config.snapshot_label`.  Complex fields must be
    split by the caller.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    label = snapshot_label(t)
    paths = []
    for name, values in fields.items():
        values = np.asarray(values)
        if np.iscomplexobj(values):
            raise ValueError(f"field {name!r} is complex; write the parts "
                             f"separately")
        paths.append(_write_table(directory / f"snapshot_t{label}_{name}.csv",
                                  values, ["%.17g"] * values.shape[1]))
    return paths


def write_positions(planar: np.ndarray, axial: np.ndarray, t: float,
                    directory) -> Path:
    """Agent coordinate table for one instant: row and column indices are
    1-based, in-plane coordinates come from the complex field's parts."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    planar = np.asarray(planar)
    axial = np.asarray(axial)
    m, n = planar.shape
    si, tj = np.meshgrid(np.arange(1, m + 1), np.arange(1, n + 1), indexing="ij")
    data = np.column_stack([si.ravel(), tj.ravel(), planar.real.ravel(),
                            planar.imag.ravel(), axial.real.ravel()])
    return _write_table(directory / f"snapshot_t{snapshot_label(t)}_positions.csv",
                        data, ["%d", "%d", "%.17g", "%.17g", "%.17g"],
                        "s_index,theta_index,x,y,z")


def write_all_snapshots(record: RunRecord, directory) -> list:
    """Serialize every captured snapshot: three field files plus positions."""
    paths = []
    for snap in record.snapshots:
        t = snap.requested_t
        paths += write_snapshot({"u_re": snap.planar.real,
                                 "u_im": snap.planar.imag,
                                 "z": snap.axial}, t, directory)
        paths.append(write_positions(snap.planar, snap.axial, t, directory))
    return paths

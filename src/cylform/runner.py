"""Closed-loop experiment driver and CSV serialization.

One run advances both channels from the initial formation toward the
desired one.  The plant integrates the desired formation's coefficients
from the start (the dynamics switch the instant the new formation is
commanded), with anchor and leader rims held at the desired profiles; rim
actuation reaches the leader row only after the true dead time.  The run
is a sequence of control blocks of ``control_period`` steps.  At each block
start the controllers measure the fields and issue new rim commands, and
the delay estimate takes one projected gradient step driven by both
channels; then each channel advances over the whole block in one exact
step, and the guard is checked at the block end.  A controller's step is
one product with its kernel set's ``step_map``, which yields the target
history and the state part of the mismatch drift; the estimator completes
each channel's drift from the history's root value and forms the update
signal from the two.  The loop works in mode space and keeps only the
wavenumbers ``|n| <= band``, where ``band`` is the largest ``|n|`` listed
in the rim data of either formation: no other wavenumber is ever excited,
so the rest would carry roundoff only.  The formations, the
plant state and the errors are mode tables: the controllers measure the
channels' tables against the goal's, the delay lines record the commands'
band coefficients, and the plant's eigencoordinates, the kernel tables, the
control law and the drift hold the band's rows.  The formation errors and
ring errors come from the deviation table by Parseval.  A physical field is
synthesized only where it leaves the loop: the snapshots, and each control
step the physical commands, for ``control_sup``.  Kernel tables are
rebuilt only when the estimate has drifted a fixed fraction of the
admissible interval away from the tables in use.  The tables a rebuild
replaces are kept as a spare, and an estimate that returns within that
fraction of them (a projected estimate flipping between its bounds) swaps
them back, step maps included, instead of rebuilding.

Results are collected in a :class:`RunRecord` (one logged row per control
step) and serialized as CSV: a single time series plus, per requested
snapshot instant, one grid-shaped file per field and an agent-position
table.  A snapshot is taken at the first step instant reaching its request;
one that falls inside a block is a copy of the channels propagated to that
instant.  All floats are written with 17 significant digits, so a read-back
reproduces the run bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import ScenarioConfig, snapshot_label
from .controller import ChannelController, ChannelUpdate
from .errors import InstabilityError
from .estimator import (EstimatorState, adaptation_drift, mismatch_drift,
                        step_estimate, update_signal)
from .geometry import TWO_PI, CylinderGrid
from .kernels import KernelBasis, KernelSet
from .plant import Channel, DelayLine, stable_dt
from .steady import formation_fields

#: relative slack when matching snapshot instants to the step grid
_SNAP_TOL = 1e-9

#: fraction of the admissible delay interval the estimate may drift from the
#: cached kernel tables before they are rebuilt, or swapped for the tables
#: they replaced if the estimate has returned to those
_RETABLE_FRACTION = 1e-4


@dataclass(frozen=True)
class Snapshot:
    """Field state captured at the first step instant reaching a request."""

    requested_t: float
    actual_t: float
    planar: np.ndarray      #: (M, N) complex in-plane positions
    axial: np.ndarray       #: (M, N) real heights


@dataclass(frozen=True)
class TargetResiduals:
    """Discrete defects of the decoupled system one channel should satisfy.

    ``interior`` is the surface norm of the transformed-state equation on
    interior nodes, with the rim coupling removed by subtracting the linear
    interpolant of the moving-rim value.  ``boundary_flow`` is the norm of
    the history transport equation under the current estimate (its drift
    correction included), which picks up the unknown delay mismatch and so
    vanishes only when the estimate is exact.  The remaining entries are
    pointwise rim checks: the history image at the moving rim, and the tied
    ends of the interpolant-corrected state.
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


def _resolve_steps(cfg: ScenarioConfig, grid: CylinderGrid) -> tuple[int, float]:
    """Step count and size: a whole number of control blocks spanning the
    horizon exactly, with the step never above the requested/stable bound."""
    cap = cfg.dt
    if cap is None:
        cap = stable_dt(grid, cfg.desired.planar_coeffs, cfg.desired.axial_coeffs)
    blocks = max(1, math.ceil(cfg.duration / (cfg.control_period * cap)))
    n_steps = cfg.control_period * blocks
    return n_steps, cfg.duration / n_steps


def run(cfg: ScenarioConfig, capture_residuals=()) -> RunRecord:
    """Simulate one scenario; deterministic for a fixed config.

    ``capture_residuals`` is a collection of instants.  Each triggers one
    :func:`target_residual` capture for both channels at the first control
    step at or after it, but not before the second step (a capture spans two
    consecutive updates).  The evaluation is far more expensive than a
    control step itself.
    """
    grid = CylinderGrid(cfg.grid_m, cfg.grid_n,
                        band=max(cfg.initial.band, cfg.desired.band))
    init_planar, init_axial = formation_fields(cfg.initial, grid)
    goal_planar, goal_axial = formation_fields(cfg.desired, grid)
    coeffs_p = cfg.desired.planar_coeffs
    coeffs_z = cfg.desired.axial_coeffs

    n_steps, dt = _resolve_steps(cfg, grid)
    per = cfg.control_period
    dt_ctrl = per * dt

    horizon = max(cfg.true_delay, cfg.delay_hi) + 4.0 * dt_ctrl
    line_p = DelayLine(grid.modes.size, dt_ctrl, horizon)
    line_z = DelayLine(grid.modes.size, dt_ctrl, horizon)
    chan_p = Channel(grid, coeffs_p, goal_planar[:, 0], goal_planar[:, -1],
                     init_planar, dt_ctrl, cfg.true_delay)
    chan_z = Channel(grid, coeffs_z, goal_axial[:, 0], goal_axial[:, -1],
                     init_axial, dt_ctrl, cfg.true_delay, kind="real")

    basis_p = KernelBasis(coeffs_p, grid)
    basis_z = KernelBasis(coeffs_z, grid)
    est = EstimatorState(cfg.initial_estimate, cfg.delay_lo, cfg.delay_hi,
                         cfg.gain, dt_ctrl)
    ks_p = KernelSet(basis_p, est.estimate)
    ks_z = KernelSet(basis_z, est.estimate)
    spare = None                # the (planar, axial) sets last replaced
    ctrl_p = ChannelController(ks_p, goal_planar, "complex")
    ctrl_z = ChannelController(ks_z, goal_axial, "real")
    retable_tol = _RETABLE_FRACTION * (cfg.delay_hi - cfg.delay_lo)

    ring_idx = [i - 1 for i in cfg.ring_rows]
    snap_queue = list(cfg.snapshot_times)
    res_queue = sorted(capture_residuals)
    rows, snaps, residuals = [], [], []
    prev = None                 # (planar update, axial update, estimate used)
    terminated, reason = False, None

    for k in range(0, n_steps + 1, per):
        t = k * dt
        while _reached(snap_queue, t):
            snaps.append(Snapshot(snap_queue.pop(0), t, chan_p.values,
                                  chan_z.values))
        upd_p = ctrl_p.update(chan_p.table, line_p, t)
        upd_z = ctrl_z.update(chan_z.table, line_z, t)
        line_p.record(t, upd_p.command_modes)
        line_z.record(t, upd_z.command_modes)

        drift_p = mismatch_drift(upd_p.state_drift, upd_p.target_history, ks_p)
        drift_z = mismatch_drift(upd_z.state_drift, upd_z.target_history, ks_z)
        signal = (update_signal(upd_p.target_history, drift_p, grid)
                  + update_signal(upd_z.target_history, drift_z, grid))

        dev_p = chan_p.table - goal_planar
        dev_z = chan_z.table - goal_axial
        ring = np.sqrt(TWO_PI * np.sum(np.abs(dev_p[:, ring_idx]) ** 2
                                       + np.abs(dev_z[:, ring_idx]) ** 2, axis=0))
        rows.append((t, est.estimate, signal,
                     grid.l2_norm(dev_p),
                     grid.l2_norm(dev_z),
                     ring,
                     max(float(np.max(np.abs(upd_p.command))),
                         float(np.max(np.abs(upd_z.command)))),
                     max(upd_p.h_residual, upd_z.h_residual)))

        if prev is not None and _reached(res_queue, t):
            while _reached(res_queue, t):
                res_queue.pop(0)
            rate = (est.estimate - prev[2]) / dt_ctrl
            residuals.append((t,
                              target_residual(prev[0], upd_p, dt_ctrl, ks_p, rate),
                              target_residual(prev[1], upd_z, dt_ctrl, ks_z, rate)))
        prev = (upd_p, upd_z, est.estimate)

        if not cfg.fixed_estimate:
            est = step_estimate(est, signal)
            if not ks_p.matches(est.estimate, retable_tol):
                if spare is not None and spare[0].matches(est.estimate, retable_tol):
                    (ks_p, ks_z), spare = spare, (ks_p, ks_z)
                else:
                    spare = (ks_p, ks_z)
                    ks_p = KernelSet(basis_p, est.estimate)
                    ks_z = KernelSet(basis_z, est.estimate)
                ctrl_p.ks = ks_p
                ctrl_z.ks = ks_z
        if k == n_steps:
            break
        # snapshots on the block's inner step instants
        for j in range(1, per):
            tj = (k + j) * dt
            while _reached(snap_queue, tj):
                snaps.append(Snapshot(snap_queue.pop(0), tj,
                                      chan_p.peek(t, j * dt, line_p),
                                      chan_z.peek(t, j * dt, line_z)))
        try:
            chan_p.step(t, line_p)
            chan_z.step(t, line_z)
        except InstabilityError as exc:
            terminated, reason = True, str(exc)
            break

    if rows:
        t_arr, e_arr, s_arr, eu, ez, rg, cs, hr = zip(*rows)
        ring_errors = np.array(rg)
    else:
        t_arr = e_arr = s_arr = eu = ez = cs = hr = ()
        ring_errors = np.zeros((0, len(cfg.ring_rows)))
    return RunRecord(
        config=cfg,
        ring_rows=tuple(cfg.ring_rows),
        modes=grid.modes,
        times=np.array(t_arr, dtype=float),
        estimates=np.array(e_arr, dtype=float),
        signals=np.array(s_arr, dtype=float),
        err_planar=np.array(eu, dtype=float),
        err_axial=np.array(ez, dtype=float),
        ring_errors=ring_errors,
        control_sup=np.array(cs, dtype=float),
        rim_residual=np.array(hr, dtype=float),
        snapshots=snaps,
        terminated=terminated,
        reason=reason,
        residuals=residuals,
    )


# ---------------------------------------------------------------------------
# diagnostics


def _surface_norm(stack: np.ndarray, h_s: float) -> float:
    """Plain product-rule surface norm of an interior mode-space table."""
    return float(np.sqrt(2.0 * np.pi * h_s * np.sum(np.abs(stack) ** 2)))


def target_residual(prev: ChannelUpdate, curr: ChannelUpdate, dt: float,
                    ks: KernelSet, estimate_rate: float = 0.0) -> TargetResiduals:
    """Defects of the decoupled equations between two consecutive updates.

    Works per angular wavenumber on the mode tables the controller
    already produced.  The moving-rim coupling is removed from the state by
    subtracting ``s`` times the history value at the near rim; what remains
    must satisfy a pure heat equation with pinned ends, driven by the rim
    motion.  The history must satisfy a transport equation whose speed is
    the reciprocal of the delay estimate, corrected by the adaptation drift
    when the estimate is moving.  Time derivatives are centered on the
    interval, so the discretization itself contributes at second order in
    ``dt`` on top of the grid's second-order spatial error.
    """
    grid = ks.grid
    s = grid.s
    n2 = (grid.modes.astype(float) ** 2)[:, None]          # (modes, 1)

    w0, w1 = prev.target_state, curr.target_state
    h0, h1 = prev.target_history, curr.target_history
    near0, near1 = h0[:, 0], h1[:, 0]                      # rim coupling value
    m0 = w0 - s[None, :] * near0[:, None]
    m1 = w1 - s[None, :] * near1[:, None]

    m_mid = 0.5 * (m0 + m1)
    near_mid = 0.5 * (near0 + near1)
    state_res = ((m1 - m0) / dt
                 - grid.d2_s(m_mid.T).T
                 + n2 * m_mid
                 + n2 * s[None, :] * near_mid[:, None]
                 + s[None, :] * ((near1 - near0) / dt)[:, None])

    h_mid = 0.5 * (h0 + h1)
    drift = adaptation_drift(0.5 * (w0 + w1), h_mid, ks)
    flow_res = (ks.delay * (h1 - h0) / dt
                - grid.d_s(h_mid.T).T
                + ks.delay * estimate_rate * drift)

    return TargetResiduals(
        interior=_surface_norm(state_res[:, 1:-1], grid.h_s),
        boundary_flow=_surface_norm(flow_res[:, 1:-1], grid.h_s),
        rim_defect=float(np.max(np.abs(h1[:, -1]))),
        anchor_defect=float(np.max(np.abs(m1[:, 0]))),
        seam_defect=float(np.max(np.abs(m1[:, -1]))),
    )


# ---------------------------------------------------------------------------
# serialization


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
    path = directory / "series.csv"
    np.savetxt(path, data, fmt="%.17g", delimiter=",",
               header=",".join(names), comments="", encoding="utf-8")
    return path


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
        path = directory / f"snapshot_t{label}_{name}.csv"
        np.savetxt(path, values, fmt="%.17g", delimiter=",", encoding="utf-8")
        paths.append(path)
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
    path = Path(directory) / f"snapshot_t{snapshot_label(t)}_positions.csv"
    np.savetxt(path, data, fmt=["%d", "%d", "%.17g", "%.17g", "%.17g"],
               delimiter=",", header="s_index,theta_index,x,y,z", comments="",
               encoding="utf-8")
    return path


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

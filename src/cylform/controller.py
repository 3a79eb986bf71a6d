"""Rim-command synthesis from field measurements and recorded actuation.

A controller works on one scalar channel, and per angular wavenumber.  It
reads two tables, each a view of the run's stack of all channels: the
scaled deviation (the channel's mode table less the goal's, each row scaled
by the advection lift :attr:`ChannelController.lift`) and the commands in
flight.  The run reads the latter for all channels at once:
:func:`reconstruct_transport` makes one read of the shared delay line, whose
row holds every channel's band coefficients, through a read table built
once per delay estimate, and scales each row by its channel's advection
gain.  The command applied at the moving rim is produced by a predictor:
the current scaled deviation is propagated through the kernel tables, past
commands are folded in through running exponential convolutions, and the
value of the command *being computed* is recovered from a small implicit
solve (the newest history node carries a nonzero quadrature weight, so the
rim value appears on both sides).

For a fixed delay estimate all of this is linear per ``|n|`` in the two
tables a step reads, the command-in-flight table (``transport``) and the
scaled deviation, and the :class:`~cylform.kernels.KernelSet` folds it into
one ``step_map``.  A control step is one product (:func:`step_images`) of
the row ``[transport | deviation]``, with the transport's rim node zeroed,
giving the target history and the state part of the estimator's mismatch
drift, written into the run's stack.  The control law sets the rim row of
the target history to zero: the command is that row over the rim node's own
weight, and the command's column of the history map then completes the
image; :func:`rim_residual` measures how far the rim row is from zero.  The
drift is completed by the estimator from the history's root value
(:func:`~cylform.estimator.mismatch_drift`).  The target state, which only
the residual diagnostics read, is one matrix product of the deviation
(:func:`to_target_state`); an update carries the deviation, and the
diagnostics map it when they capture.  A step makes no transform: the run
synthesizes all channels' commands of a chunk of steps at once, for its
log.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CylinderGrid
from .kernels import KernelSet
from .plant import DelayLine, ReadTable, read_table

__all__ = [
    "reconstruct_transport",
    "to_target_state",
    "step_images",
    "control_modes",
    "symmetrize_command",
    "rim_residual",
    "ChannelUpdate",
    "ChannelController",
]


# ---------------------------------------------------------------------------
# transport reconstruction and forward transforms


def window_table(line: DelayLine, delay_estimate: float, grid: CylinderGrid) -> ReadTable:
    """Read table of the in-flight window: node ``r`` is ``delay_estimate*(1 - s_r)`` back."""
    return read_table(delay_estimate * (grid.s - 1.0) / line.dt)


def reconstruct_transport(line: DelayLine, t: float, delay_estimate: float,
                          grid: CylinderGrid, gain=1.0,
                          table: ReadTable | None = None) -> np.ndarray:
    """Command-in-flight table implied by the recorded history, one row
    per entry of the line's row.

    Node ``r`` holds the (scaled) command that was issued
    ``delay_estimate*(1 - s_r)`` ago, so the rim node is the newest record
    (held forward when queried at the current instant, i.e. the previous
    command until a fresh one is stored).  ``line`` holds the commands'
    band coefficients, of one channel or of several side by side, so the
    table is its rows scaled by the advection gain ``exp(advection / 2)``:
    a scalar, or a ``(width, 1)`` column of each row's channel gain.
    ``table`` is the window's :func:`window_table`, built here when not
    given.
    """
    table = window_table(line, delay_estimate, grid) if table is None else table
    return line.read(table, t).T * gain


def to_target_state(measured: np.ndarray, ks: KernelSet) -> np.ndarray:
    """Map the scaled deviation onto the decoupled target variable."""
    v = ks.basis.volterra_fwd_refined
    return measured - measured @ v.T


def step_images(transport: np.ndarray, measured: np.ndarray, ks: KernelSet,
                out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Target history and state drift of one step, from one product.

    The row ``[transport | measured]`` times ``ks.step_map``: the history
    image of the command-in-flight table minus the predicted command flow,
    and the part of the mismatch drift the deviation drives.  Both are
    views of the product's halves, which go to ``out`` when given.  The
    history vanishes at the rim exactly when the newest command satisfies
    the control law, which makes its rim row a free consistency diagnostic.
    """
    images = ks.apply(np.concatenate([transport, measured], axis=1), ks.step_map, out)
    m = ks.grid.M
    return images[:, :m], images[:, m:]


# ---------------------------------------------------------------------------
# command synthesis


def control_modes(history: np.ndarray, ks: KernelSet) -> np.ndarray:
    """New command for every mode, with the rim node solved implicitly.

    ``history`` is the target image of a transport whose rim node is zero.
    The law sets the rim row of the target history to zero, and the rim
    node -- the command being computed -- enters that row with the weight
    ``ks.rim_weight``, that is ``history_map[|n|, -1, -1] = 1 +
    2*delay*sum_i(edge_i * w0_i)``, order one but far from 1 whenever the
    kernel gain is large.  So the command is the rim row of ``history``
    over that weight, negated; taking the previous command as the rim node
    instead leaves a visible rim defect.
    """
    return -history[:, -1] / ks.rim_weight


def symmetrize_command(grid: CylinderGrid, cmd: np.ndarray) -> np.ndarray:
    """Project a command mode vector onto the real-synthesis subspace.

    Each row ``n`` becomes the mean of itself and the conjugate of its
    mate ``-n`` (``grid.mates``), so each pair of rows ``-a``, ``+a`` is the
    conjugate pair of their mean; an unpaired row (``0``, ``N/2``) keeps its
    real part.
    """
    return 0.5 * (cmd + cmd[grid.mates].conj())


def rim_residual(measured: np.ndarray, transport: np.ndarray,
                 history: np.ndarray) -> np.ndarray:
    """Rim defect of each channel's history image, relative.

    The tables are one channel's or the channels' stacked on a leading
    axis, as an update leaves them: the transport's rim node is the new
    command.  The defect is measured against the largest scaled deviation
    plus the largest command in flight; each ring is measured by the sum of
    its coefficients' magnitudes, which bounds its sup over theta.
    """
    scale = (np.add.reduce(abs(measured), axis=-2).max(axis=-1)
             + np.add.reduce(abs(transport), axis=-2).max(axis=-1) + 1e-30)
    return np.add.reduce(abs(history[..., -1]), axis=-1) / scale


# ---------------------------------------------------------------------------
# per-channel driver


@dataclass
class ChannelUpdate:
    """What one control step gives a single channel's caller besides the
    tables it wrote (see :meth:`ChannelController.update`); the tables are
    views of the run's stacks."""

    command_modes: np.ndarray    #: band coefficients of the rim command (deviation part)
    measured: np.ndarray         #: scaled deviation table the step read
    target_history: np.ndarray   #: history image table (rim row ~ 0 by construction)


class ChannelController:
    """Produces rim commands for one channel from state and history.

    ``kernel_set`` may be swapped out between updates when the delay
    estimate drifts far enough that the cached tables are rebuilt.
    """

    def __init__(self, kernel_set: KernelSet, kind: str = "complex"):
        if kind not in ("complex", "real"):
            raise ValueError(f"unknown channel kind {kind!r}")
        self.ks = kernel_set
        grid = self.grid = kernel_set.grid
        self.kind = kind
        self.advection = kernel_set.basis.coeffs.advection
        #: ``exp(advection * s / 2)``: scaling the deviation by it turns the
        #: advection term into a pure shift of the reaction rate, which is
        #: the form every kernel table assumes
        self.lift = np.exp(0.5 * self.advection * grid.s)
        #: ``exp(advection / 2)``, the lift at the rim, and its reciprocal
        self.gain = np.exp(0.5 * self.advection)
        self.inv_gain = np.exp(-0.5 * self.advection)

    def update(self, measured: np.ndarray, transport: np.ndarray,
               images: np.ndarray) -> ChannelUpdate:
        """One control step from the channel's scaled deviation ``measured``
        and its command-in-flight table ``transport``, the channel's rows of
        :func:`reconstruct_transport` at the estimate of :attr:`ks`.

        ``transport`` is the step's own: its rim node ends as the new
        command.  The step's product, the target history then the state
        drift (the mismatch drift less its history-root term), is written
        to ``images``, ``(len(modes), 2M)``.
        """
        ks = self.ks
        transport[:, -1] = 0.0
        history, _ = step_images(transport, measured, ks, images)
        cmd = control_modes(history, ks)
        if self.kind == "real":
            cmd = symmetrize_command(self.grid, cmd)
        transport[:, -1] = cmd
        history += cmd[:, None] * ks.command_column
        return ChannelUpdate(cmd * self.inv_gain, measured, history)

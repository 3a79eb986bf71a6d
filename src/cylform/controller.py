"""Rim-command synthesis from field measurements and recorded actuation.

One :class:`ChannelController` runs the control law of a stack of scalar
channels (a run's planar and axial channel), per angular wavenumber, in
one step per control step.  It owns the channels' kernel tables at the
delay estimate, one :class:`~cylform.kernels.KernelStack`, which it keeps
within a tolerance of the estimate (:meth:`~ChannelController.follow`).  A
step reads two stacks of tables, one table per channel: the scaled
deviations (each channel's mode table less the goal's, each row scaled by
the channel's advection lift :attr:`ChannelController.lift`) and the
commands in flight, which :meth:`~ChannelController.read` takes from the
shared delay line in one :func:`reconstruct_transport`.  The command
applied at the moving rim is produced by a predictor: the current scaled
deviation is propagated through the kernel tables, past commands are
folded in through running exponential convolutions, and the value of the
command *being computed* is recovered from a small implicit solve (the
newest history node carries a nonzero quadrature weight, so the rim value
appears on both sides).

For a fixed delay estimate all of this is linear per ``|n|`` in the two
tables a step reads, the command-in-flight table (``transport``) and the
scaled deviation, and each channel's
:class:`~cylform.kernels.KernelSet` folds it into one ``step_map``.  A
control step gathers the rows ``[transport | deviation]`` of the whole
stack, with the transport's rim nodes zeroed, and takes one product per
channel, the channel's :meth:`~ChannelController.update`, giving the
target histories and the state part of the estimator's mismatch drift,
written into the run's stack.  The control law sets the rim row of each
target history to zero: the command is that row over the rim node's own
weight, and the command's column of the history map then completes the
image; :func:`rim_residual` measures how far the rim row is from zero.
The laws of the channels differ only in their tables, which the stack
holds stacked, and in their advection scalings.  A real channel's tables
are real and its rim data exact conjugate pairs, so its commands are exact
conjugate pairs too.  The drift is completed by the estimator from the
history's root value (:func:`~cylform.estimator.mismatch_drift`).  The
target state, which only the residual diagnostics read, is one matrix
product of the deviation (:func:`to_target_state`); the diagnostics map it
when they capture.  A step makes no transform: the run synthesizes all
channels' commands of a chunk of steps at once, for its log.
"""

from __future__ import annotations

import numpy as np

from .geometry import CylinderGrid
from .kernels import KernelSet, KernelStack
from .plant import DelayLine, ReadTable, read_table

__all__ = [
    "reconstruct_transport",
    "to_target_state",
    "control_modes",
    "rim_residual",
    "ChannelController",
]


# ---------------------------------------------------------------------------
# transport reconstruction and forward transforms


def window_table(line: DelayLine, delay_estimate: float, grid: CylinderGrid) -> ReadTable:
    """Read table of the in-flight window: node ``r`` is ``delay_estimate*(1 - s_r)`` back."""
    return read_table(delay_estimate * (grid.s - 1.0) / line.dt)


def reconstruct_transport(line: DelayLine, t: float, delay_estimate: float,
                          grid: CylinderGrid, gain=1.0,
                          table: ReadTable | None = None,
                          out: np.ndarray | None = None) -> np.ndarray:
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
    given; the table is written to ``out`` when given.
    """
    table = window_table(line, delay_estimate, grid) if table is None else table
    return np.multiply(line.read(table, t).T, gain, out=out)


def to_target_state(measured: np.ndarray, ks: KernelSet) -> np.ndarray:
    """Map the scaled deviation onto the decoupled target variable."""
    v = ks.basis.volterra_fwd_refined
    return measured - measured @ v.T


# ---------------------------------------------------------------------------
# command synthesis


def control_modes(history: np.ndarray, rim_weight: np.ndarray) -> np.ndarray:
    """New command for every mode, with the rim node solved implicitly.

    ``history`` is the target image of a transport whose rim node is zero
    (one channel's, or stacked).  The law sets its rim row to zero, and the
    rim node -- the command being computed -- enters that row with the
    weight ``rim_weight`` (:attr:`~cylform.kernels.KernelSet.rim_weight`),
    ``history_map[|n|, -1, -1] = 1 + 2*delay*sum_i(edge_i * w0_i)``, order
    one but far from 1 whenever the kernel gain is large.  So the command
    is the rim row of ``history`` over that weight, negated; taking the
    previous command as the rim node instead leaves a visible rim defect.
    """
    return -history[..., -1] / rim_weight


def rim_residual(measured: np.ndarray, transport: np.ndarray,
                 history: np.ndarray) -> np.ndarray:
    """Rim defect of each channel's history image, relative.

    The tables are one channel's or the channels' stacked on a leading
    axis, as a step leaves them: the transport's rim node is the new
    command.  The defect is measured against the largest scaled deviation
    plus the largest command in flight; each ring is measured by the sum of
    its coefficients' magnitudes, which bounds its sup over theta.
    """
    scale = (np.add.reduce(abs(measured), axis=-2).max(axis=-1)
             + np.add.reduce(abs(transport), axis=-2).max(axis=-1) + 1e-30)
    return np.add.reduce(abs(history[..., -1]), axis=-1) / scale


# ---------------------------------------------------------------------------
# the controller of the channel stack


class ChannelController:
    """Produces the rim commands of a stack of channels, all in one step.

    It holds the channels' advection scalings and their kernel sets at the
    delay estimate, :attr:`kernels`, which :meth:`follow` keeps within a
    tolerance of the estimate, and the stack those replaced,
    :attr:`spare`.  A single channel is a stack of one.
    """

    def __init__(self, kernel_sets):
        self.kernels = KernelStack(kernel_sets)
        #: the stack :attr:`kernels` last replaced, if any
        self.spare = None
        grid = self.grid = self.kernels.sets[0].grid
        advection = [ks.basis.coeffs.advection for ks in self.kernels.sets]
        #: ``exp(advection * s / 2)`` per channel, ``(C, 1, M)``: scaling the
        #: deviation by it turns the advection term into a pure shift of the
        #: reaction rate, which is the form every kernel table assumes
        self.lift = np.stack([np.exp(0.5 * a * grid.s) for a in advection])[:, None]
        #: ``exp(advection / 2)`` per channel, the lift at the rim, and its
        #: reciprocal as a column
        self.gain = np.array([np.exp(0.5 * a) for a in advection])
        self.inv_gain = np.array([np.exp(-0.5 * a) for a in advection])[:, None]
        # the gain of each entry of a line's row, the channels side by side
        self._gains = np.repeat(self.gain, grid.modes.size)[:, None]
        # where the real, then imaginary, parts of each |n|'s row pairs
        # (grid.mode_pairs) lie in one channel's [transport | measured] table
        # seen as floats; buffers of the split pairs and of their products
        width = 2 * grid.M
        parts = np.arange(2)[:, None, None]                 # real, imaginary
        self._at = (2 * width * grid.mode_pairs[:, None, :, None] + parts
                    + 2 * np.arange(width)).reshape(len(grid.mode_pairs), 4, width)
        self._split, self._products = np.empty((2, len(advection)) + self._at.shape)

    def follow(self, estimate: float, tol: float) -> None:
        """Keep :attr:`kernels` within ``tol`` of ``estimate``: swap the
        :attr:`spare` back if it is within ``tol`` (a projected estimate
        flipping between its bounds), else build one set per channel at
        ``estimate`` and keep the stack it replaces as the spare."""
        kernels = self.kernels
        if kernels.matches(estimate, tol):
            return
        if self.spare is not None and self.spare.matches(estimate, tol):
            self.kernels, self.spare = self.spare, kernels
        else:
            self.kernels = KernelStack([KernelSet(ks.basis, estimate)
                                        for ks in kernels.sets])
            self.spare = kernels

    def read(self, line: DelayLine, t: float, out: np.ndarray) -> np.ndarray:
        """The stacked command-in-flight tables at the estimate of
        :attr:`kernels`, written to ``out``, ``(C, len(modes), M)``.

        ``line`` holds every channel's band coefficients side by side in
        each row; one read takes them all, through the stack's window
        (built at its first read, so a swap carries it along).
        """
        kernels, grid = self.kernels, self.grid
        if kernels.window is None:
            kernels.window = window_table(line, kernels.delay, grid)
        reconstruct_transport(line, t, kernels.delay, grid, self._gains, kernels.window,
                              out.reshape(-1, grid.M))
        return out

    def step(self, measured: np.ndarray, transport: np.ndarray,
             images: np.ndarray) -> np.ndarray:
        """One control step of every channel; returns the ``(C, len(modes))``
        band coefficients of the rim commands (deviation part).

        ``measured`` and ``transport`` are the stacked scaled deviations and
        command-in-flight tables, ``(C, len(modes), M)``, the latter at the
        estimate of :attr:`kernels` (:meth:`read`); its rim nodes end as the
        new commands.  The rows ``+n`` and ``-n`` share one map, so the row
        pairs ``[transport | measured]`` of each ``|n|`` are gathered and
        split into real and imaginary parts once for the stack; each
        channel's :meth:`update` takes its product, and the products are
        scattered into ``images``, ``(C, len(modes), 2M)``: the target
        histories, then the state drifts (the mismatch drift less its
        history-root term).
        """
        kernels, grid = self.kernels, self.grid
        transport[..., -1] = 0.0
        table = np.concatenate([transport, measured], axis=-1, dtype=complex)
        table.view(float).reshape(len(table), -1).take(self._at, axis=1, out=self._split,
                                                       mode="clip")
        for c, tables in enumerate(zip(table, self._split, self._products)):
            self.update(c, *tables)
        pairs = grid.mode_pairs
        images.real[:, pairs] = self._products[:, :, :2]
        images.imag[:, pairs] = self._products[:, :, 2:]
        history = images[..., :grid.M]
        cmd = control_modes(history, kernels.rim_weight)
        transport[..., -1] = cmd
        history += cmd[..., None] * kernels.command_column
        return cmd * self.inv_gain

    def update(self, c: int, table: np.ndarray, split: np.ndarray,
               out: np.ndarray) -> None:
        """Channel ``c``'s part of a :meth:`step`, the one part its own
        tables make per channel: the product of its ``[transport | measured]``
        row pairs with the ``step_map`` of its set in :attr:`kernels`
        (:meth:`~cylform.kernels.KernelSet.apply`), written to ``out``."""
        self.kernels.sets[c].apply(table, split, out)

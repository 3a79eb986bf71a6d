"""Rim-command synthesis from field measurements and recorded actuation.

Everything here works on one scalar channel, and per angular wavenumber: the
controller measures the plant's mode table (:attr:`~cylform.plant.Channel.table`),
subtracts the steady profile's table and scales each row by the advection
lift, and it reads the delay line's band coefficient rows as they are.  The
command applied at the moving rim is produced by a predictor: the current
scaled deviation is propagated through the kernel tables, past commands are
folded in through running exponential convolutions, and the value of the
command *being computed* is recovered from a small implicit solve (the
newest history node carries a nonzero quadrature weight, so the rim value
appears on both sides).

For a fixed delay estimate both parts are fixed linear maps per ``|n|``,
which the :class:`~cylform.kernels.KernelSet` builds once: ``history_map``
takes a command-in-flight profile to its convolution image, and the state
part is the deviation contracted with the basis's ``state_weights`` and then
with ``exp_s``.  A control step is therefore a few batched matrix-vector
products: the target history is ``history_map @ transport`` minus the
predicted flow, evaluated once with the transport's rim node zeroed.  The
control law sets the rim row of the target history to zero: the command is
that row over the rim node's own weight ``history_map[|n|, -1, -1]``, and
the command's column of ``history_map`` then completes the image.  The only
transform of a step is the synthesis of the physical command, which the
run logs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CylinderGrid
from .kernels import KernelSet
from .plant import DelayLine

__all__ = [
    "reconstruct_transport",
    "to_target_state",
    "state_prediction",
    "to_target_history",
    "control_modes",
    "symmetrize_command",
    "ChannelUpdate",
    "ChannelController",
]


# ---------------------------------------------------------------------------
# transport reconstruction and forward transforms


def reconstruct_transport(line: DelayLine, t: float, delay_estimate: float,
                          grid: CylinderGrid, advection: complex = 0.0
                          ) -> np.ndarray:
    """Command-in-flight mode table implied by the recorded history.

    Node ``r`` holds the (scaled) command that was issued
    ``delay_estimate*(1 - s_r)`` ago, so the rim node is the newest record
    (held forward when queried at the current instant, i.e. the previous
    command until a fresh one is stored).  ``line`` holds the commands'
    band coefficients, so the table is its rows scaled by the advection
    gain.
    """
    rows = line.lookup_many(t + delay_estimate * (grid.s - 1.0))
    return rows.T * np.exp(0.5 * advection)


def to_target_state(measured: np.ndarray, ks: KernelSet) -> np.ndarray:
    """Map the scaled deviation onto the decoupled target variable."""
    v = ks.basis.volterra_fwd_refined
    return measured - measured @ v.T


def state_prediction(measured: np.ndarray, ks: KernelSet) -> np.ndarray:
    """State-driven part of the predicted command flow, per mode and node.

    Returns the mode table of the predictor kernel integrated against the
    scaled deviation, evaluated along the axial grid.
    """
    return ks.apply(measured @ ks.basis.state_weights, ks.exp_s)


def to_target_history(transport: np.ndarray, measured: np.ndarray,
                      ks: KernelSet) -> np.ndarray:
    """Target image of the command-in-flight profile.

    Vanishes at the rim exactly when the newest command satisfies the
    control law, which makes the rim row a free consistency diagnostic.
    """
    hist = ks.apply(transport, ks.history_map.transpose(0, 2, 1))
    return hist - state_prediction(measured, ks)


# ---------------------------------------------------------------------------
# command synthesis


def control_modes(history: np.ndarray, ks: KernelSet) -> np.ndarray:
    """New command for every mode, with the rim node solved implicitly.

    ``history`` is the target image of a transport whose rim node is zero.
    The law sets the rim row of the target history to zero, and the rim
    node -- the command being computed -- enters that row with the weight
    ``history_map[|n|, -1, -1] = 1 + 2*delay*sum_i(edge_i * w0_i)``, order
    one but far from 1 whenever the kernel gain is large.  So the command
    is the rim row of ``history`` over that weight, negated; taking the
    previous command as the rim node instead leaves a visible rim defect.
    """
    rows = np.abs(ks.grid.modes)
    return -history[:, -1] / ks.history_map[rows, -1, -1]


def symmetrize_command(grid: CylinderGrid, cmd: np.ndarray) -> np.ndarray:
    """Project a command mode vector onto the real-synthesis subspace.

    Each pair of rows ``-a``, ``+a`` (``grid.mode_pairs``) becomes the
    conjugate pair of their mean; an unpaired row (``0``, ``N/2``) keeps
    its real part.
    """
    out = np.array(cmd, dtype=complex)
    neg, pos = grid.mode_pairs.T
    avg = 0.5 * (out[pos] + np.conj(out[neg]))
    out[neg] = np.conj(avg)
    out[pos] = avg
    return out


# ---------------------------------------------------------------------------
# per-channel driver


@dataclass
class ChannelUpdate:
    """Everything one control step produces for a single channel."""

    command: np.ndarray          #: (N,) physical rim command profile (deviation part)
    command_modes: np.ndarray    #: band coefficients of ``command``, the row the line records
    target_state: np.ndarray     #: mode table of the decoupled state image
    transport: np.ndarray        #: command-in-flight table, rim node = new command
    target_history: np.ndarray   #: history image table (rim row ~ 0 by construction)
    h_residual: float            #: rim defect of the history image, relative


class ChannelController:
    """Produces rim commands for one channel from state and history.

    ``kernel_set`` may be swapped out between updates when the delay
    estimate drifts far enough that the cached tables are rebuilt.
    """

    def __init__(self, kernel_set: KernelSet, steady_table: np.ndarray,
                 kind: str = "complex"):
        if kind not in ("complex", "real"):
            raise ValueError(f"unknown channel kind {kind!r}")
        self.ks = kernel_set
        grid = self.grid = kernel_set.grid
        #: mode table of the steady profile the deviation is measured from
        self.steady_table = np.asarray(steady_table)
        if self.steady_table.shape != (grid.modes.size, grid.M):
            raise ValueError("steady table shape does not match the grid")
        self.kind = kind
        self.advection = kernel_set.basis.coeffs.advection
        #: ``exp(advection * s / 2)``: scaling the deviation by it turns the
        #: advection term into a pure shift of the reaction rate, which is
        #: the form every kernel table assumes
        self.lift = np.exp(0.5 * self.advection * grid.s)

    def update(self, table: np.ndarray, line: DelayLine, t: float) -> ChannelUpdate:
        """One control step from the plant's mode table ``table`` and the
        band rows of ``line``."""
        grid, ks = self.grid, self.ks
        measured = (table - self.steady_table) * self.lift[None, :]
        transport = reconstruct_transport(line, t, ks.delay, grid, self.advection)
        transport[:, -1] = 0.0
        history = to_target_history(transport, measured, ks)
        cmd = control_modes(history, ks)
        if self.kind == "real":
            cmd = symmetrize_command(grid, cmd)
        command_modes = cmd * np.exp(-0.5 * self.advection)
        transport[:, -1] = cmd
        history += cmd[:, None] * ks.history_map[np.abs(grid.modes), :, -1]

        # rim defect against the largest scaled deviation plus the largest
        # command in flight, the rim node being the new command; each ring
        # is measured by the sum of its coefficients' magnitudes, which
        # bounds its sup over theta
        scale = (np.max(np.sum(np.abs(measured), axis=0))
                 + np.max(np.sum(np.abs(transport), axis=0)) + 1e-30)
        return ChannelUpdate(
            command=grid.synthesize_profile(command_modes, self.kind),
            command_modes=command_modes,
            target_state=to_target_state(measured, ks),
            transport=transport,
            target_history=history,
            h_residual=float(np.sum(np.abs(history[:, -1])) / scale),
        )

"""Rim-command synthesis from field measurements and recorded actuation.

Everything here works on one scalar channel.  The measured field is first
shifted by the steady profile and scaled by the advection lift; all further
work happens per angular wavenumber.  The command applied at the moving rim
is produced by a predictor: the current scaled deviation is propagated
through the kernel tables, past commands are folded in through running
exponential convolutions, and the value of the command *being computed*
is recovered from a small implicit solve (the newest history node carries a
nonzero quadrature weight, so the rim value appears on both sides).

For a fixed delay estimate both parts are fixed linear maps per ``|n|``,
which the :class:`~cylform.kernels.KernelSet` builds once: ``history_map``
takes a command-in-flight profile to its convolution image, and the state
part is the deviation contracted with the basis's ``state_weights`` and then
with ``exp_s``.  A control step is therefore a few batched matrix-vector
products: the target history is ``history_map @ transport`` minus the
predicted flow, evaluated once with the transport's rim node zeroed.  The
control law sets the rim row of the target history to zero: the command is
that row over the rim node's own weight ``history_map[|n|, -1, -1]``, and
the command's column of ``history_map`` then completes the image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CylinderGrid
from .kernels import KernelSet
from .plant import DelayLine

__all__ = [
    "remove_advection",
    "reconstruct_transport",
    "to_target_state",
    "state_prediction",
    "to_target_history",
    "control_modes",
    "synthesize_command",
    "symmetrize_command",
    "ChannelUpdate",
    "ChannelController",
]


# ---------------------------------------------------------------------------
# advection lift


def remove_advection(values: np.ndarray, steady_values: np.ndarray,
                     advection: complex, grid: CylinderGrid) -> np.ndarray:
    """Scaled deviation of a field from its steady profile.

    Multiplying the deviation by ``exp(advection * s / 2)`` turns the
    advection term of the channel into a pure shift of the reaction rate,
    which is the form every kernel table assumes.
    """
    lift = np.exp(0.5 * advection * grid.s)
    return (np.asarray(values) - np.asarray(steady_values)) * lift[:, None]


# ---------------------------------------------------------------------------
# transport reconstruction and forward transforms


def reconstruct_transport(line: DelayLine, t: float, delay_estimate: float,
                          grid: CylinderGrid, advection: complex = 0.0
                          ) -> tuple[np.ndarray, float]:
    """Command-in-flight profile implied by the recorded history.

    Node ``r`` holds the (scaled) command that was issued
    ``delay_estimate*(1 - s_r)`` ago, so the rim node is the newest record
    (held forward when queried at the current instant, i.e. the previous
    command until a fresh one is stored).  Also returns the largest scaled
    magnitude in flight below the rim node, which the rim diagnostic
    measures against.
    """
    profiles = line.lookup_many(t + delay_estimate * (grid.s - 1.0))
    gain = np.exp(0.5 * advection)
    peak = float(np.max(np.abs(profiles[:-1]))) * abs(gain)
    return grid.analyze(profiles) * gain, peak


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


def synthesize_command(cmd: np.ndarray, advection: complex,
                       grid: CylinderGrid, kind: str = "complex") -> np.ndarray:
    """Physical rim command profile from its scaled mode vector."""
    gain = np.exp(-0.5 * advection)
    return grid.synthesize_profile(np.asarray(cmd) * gain, kind=kind)


# ---------------------------------------------------------------------------
# per-channel driver


@dataclass
class ChannelUpdate:
    """Everything one control step produces for a single channel."""

    command: np.ndarray          #: (N,) physical rim command profile (deviation part)
    target_state: np.ndarray     #: mode table of the decoupled state image
    transport: np.ndarray        #: command-in-flight table, rim node = new command
    target_history: np.ndarray   #: history image table (rim row ~ 0 by construction)
    h_residual: float            #: rim defect of the history image, relative


class ChannelController:
    """Produces rim commands for one channel from state and history.

    ``kernel_set`` may be swapped out between updates when the delay
    estimate drifts far enough that the cached tables are rebuilt.
    """

    def __init__(self, kernel_set: KernelSet, steady_values: np.ndarray,
                 kind: str = "complex"):
        if kind not in ("complex", "real"):
            raise ValueError(f"unknown channel kind {kind!r}")
        self.ks = kernel_set
        self.grid = kernel_set.grid
        self.steady_values = np.array(steady_values, dtype=complex)
        if self.steady_values.shape != (self.grid.M, self.grid.N):
            raise ValueError("steady profile shape does not match the grid")
        self.kind = kind
        self.advection = kernel_set.basis.coeffs.advection

    def update(self, values: np.ndarray, line: DelayLine, t: float) -> ChannelUpdate:
        grid, ks = self.grid, self.ks
        scaled = remove_advection(values, self.steady_values, self.advection, grid)
        measured = grid.analyze(scaled)
        transport, in_flight = reconstruct_transport(line, t, ks.delay, grid,
                                                     self.advection)
        transport[:, -1] = 0.0
        history = to_target_history(transport, measured, ks)
        cmd = control_modes(history, ks)
        if self.kind == "real":
            cmd = symmetrize_command(grid, cmd)
        command = synthesize_command(cmd, self.advection, grid, self.kind)
        transport[:, -1] = cmd
        history += cmd[:, None] * ks.history_map[np.abs(grid.modes), :, -1]

        # scale: largest scaled deviation plus largest command in flight,
        # the rim node being the new command (unscaled by the advection gain)
        rim = grid.synthesize_profile(history[:, -1])
        gain = abs(np.exp(-0.5 * self.advection))
        in_flight = max(in_flight, float(np.max(np.abs(command))) / gain)
        scale = np.max(np.abs(scaled)) + in_flight + 1e-30
        return ChannelUpdate(
            command=command,
            target_state=to_target_state(measured, ks),
            transport=transport,
            target_history=history,
            h_residual=float(np.max(np.abs(rim)) / scale),
        )

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
predicted flow, and the control law is its rim row (``history_map[-1]`` and
``state_rim``) set to zero and solved for the rim node.

Two realizations of the same control law live here.  The spectral one
(:class:`ChannelController`) is the production path.  ``simpson_control``
rebuilds the command from dense physical-space quadrature against the 2-D
kernel and serves as a cross-check of the whole spectral pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CylinderGrid, ModeStack
from .kernels import KernelSet, predictor_kernel_2d
from .plant import DelayLine
from .quadrature import exp_conv, exp_conv_paired, exp_weights, simpson_weights

__all__ = [
    "remove_advection",
    "restore_advection",
    "reconstruct_transport",
    "to_target_state",
    "from_target_state",
    "from_target_state_kernel",
    "state_prediction",
    "to_target_history",
    "from_target_history",
    "from_target_history_series",
    "control_mode",
    "control_modes",
    "control_modes_recorded",
    "synthesize_command",
    "symmetrize_command",
    "periodic_simpson_weights",
    "simpson_control",
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


def restore_advection(scaled: np.ndarray, steady_values: np.ndarray,
                      advection: complex, grid: CylinderGrid) -> np.ndarray:
    """Undo :func:`remove_advection`."""
    lift = np.exp(-0.5 * advection * grid.s)
    return np.asarray(scaled) * lift[:, None] + np.asarray(steady_values)


# ---------------------------------------------------------------------------
# transport reconstruction and transform pairs


def reconstruct_transport(line: DelayLine, t: float, delay_estimate: float,
                          grid: CylinderGrid, advection: complex = 0.0) -> ModeStack:
    """Command-in-flight profile implied by the recorded history.

    Node ``r`` holds the (scaled) command that was issued
    ``delay_estimate*(1 - s_r)`` ago, so the rim node is the newest record
    (held forward when queried at the current instant, i.e. the previous
    command until a fresh one is stored).
    """
    profiles = line.lookup_many(t + delay_estimate * (grid.s - 1.0))
    gain = np.exp(0.5 * advection)
    return ModeStack(grid, grid.analyze(profiles).coeffs * gain)


def to_target_state(measured: ModeStack, ks: KernelSet) -> ModeStack:
    """Map the scaled deviation onto the decoupled target variable."""
    v = ks.basis.volterra_fwd_refined
    return ModeStack(measured.grid, measured.coeffs - measured.coeffs @ v.T)


def from_target_state(target: ModeStack, ks: KernelSet) -> ModeStack:
    """Undo :func:`to_target_state` exactly (triangular dense solve).

    The closed-form inverse kernel gives an independent route to the same
    map (:func:`from_target_state_kernel`); it is quadrature-limited, so the
    production inverse solves against the forward matrix instead.
    """
    grid = target.grid
    mat = np.eye(grid.M) - ks.basis.volterra_fwd_refined
    return ModeStack(grid, np.linalg.solve(mat, target.coeffs.T).T)


def from_target_state_kernel(target: ModeStack, ks: KernelSet) -> ModeStack:
    """Recover the scaled deviation through the closed-form inverse kernel.

    Independent of :func:`from_target_state`: composing this with
    :func:`to_target_state` checks the reciprocity of the kernel pair, with
    a defect set by the node-sample interpolation (cubic in the spacing),
    not by the identity itself.
    """
    v = ks.basis.volterra_inv_refined
    return ModeStack(target.grid, target.coeffs + target.coeffs @ v.T)


def state_prediction(measured: ModeStack, ks: KernelSet) -> np.ndarray:
    """State-driven part of the predicted command flow, per mode and node.

    Returns the (N, M) table of the predictor kernel integrated against the
    scaled deviation, evaluated along the axial grid.
    """
    return ks.apply(measured.coeffs @ ks.basis.state_weights, ks.exp_s)


def to_target_history(transport: ModeStack, measured: ModeStack,
                      ks: KernelSet) -> ModeStack:
    """Target image of the command-in-flight profile.

    Vanishes at the rim exactly when the newest command satisfies the
    control law, which makes the rim row a free consistency diagnostic.
    """
    hist = ks.apply(transport.coeffs, ks.history_map.transpose(0, 2, 1))
    return ModeStack(transport.grid, hist - state_prediction(measured, ks))


def from_target_history(history: ModeStack, target: ModeStack,
                        ks: KernelSet) -> ModeStack:
    """Undo :func:`to_target_history` exactly given the target state.

    The deviation is recovered first (exact solve), its prediction moves to
    the right-hand side, and the remaining convolution relation is solved
    per wavenumber magnitude against the cached dense map.
    """
    grid = history.grid
    measured = from_target_state(target, ks)
    rhs = history.coeffs + state_prediction(measured, ks)
    out = np.empty_like(rhs)
    absn = np.abs(grid.modes)
    for a in np.unique(absn):
        rows = np.flatnonzero(absn == a)
        out[rows] = np.linalg.solve(ks.history_solve_matrix(a), rhs[rows].T).T
    return ModeStack(grid, out)


def from_target_history_series(history: ModeStack, target: ModeStack,
                               ks: KernelSet) -> ModeStack:
    """Inverse-kernel-series route to the command-in-flight profile.

    Independent of :func:`from_target_history`; its round-trip defect decays
    only like the reciprocal of the truncation order (the lag-kernel edge
    coefficients do not decay), so it serves as a structural oracle rather
    than a production inverse.
    """
    grid = history.grid
    rows = np.abs(grid.modes)
    sw = target.coeffs @ ks.basis.mode_sine.T                    # (N, i_max)
    eta_part = 2.0 * np.einsum("ni,nim->nm",
                               sw * ks.basis.inv_sine[None, :],
                               ks.inv_exp_s[rows])
    conv = exp_conv_paired(ks.inv_rates[rows], history.coeffs, grid.h_s)
    q_part = -2.0 * ks.delay * np.einsum("i,nim->nm", ks.basis.inv_edge, conv)
    return ModeStack(grid, history.coeffs + eta_part + q_part)


# ---------------------------------------------------------------------------
# command synthesis (spectral route)


def control_mode(n: int, measured_row: np.ndarray, transport_row: np.ndarray,
                 ks: KernelSet) -> complex:
    """Direct single-mode command: both rim integrals evaluated as given.

    Takes the transport rim node at face value, so this is the open form of
    the law (useful for oracle comparisons); the production path solves for
    the rim node implicitly instead.
    """
    a = ks.index(n)
    sw = ks.basis.mode_sine @ np.asarray(measured_row)
    pred_rim = 2.0 * np.dot(ks.basis.fwd_sine * sw, ks.exp_s[a, :, -1])
    conv = exp_conv(ks.rates[a], np.asarray(transport_row), ks.grid.h_s)[:, -1]
    return complex(pred_rim - 2.0 * ks.delay * np.dot(ks.basis.fwd_edge, conv))


def control_modes(measured: ModeStack, transport: ModeStack,
                  ks: KernelSet) -> np.ndarray:
    """New command for every mode, with the rim node solved implicitly.

    The law sets the rim row of the target history to zero.  That row is
    ``history_map[-1] @ transport - state_rim @ measured``, and its
    last entry weighs the rim node -- the command being computed -- with
    ``1 + 2*delay*sum_i(edge_i * w0_i)``, order one but far from 1 whenever
    the kernel gain is large.  So the rim node is left out of the history
    sum and solved for; skipping this leaves a visible rim defect in the
    target history.  The transport's own rim node is ignored.
    """
    rows = np.abs(measured.grid.modes)
    rim = ks.history_map[:, -1, :][rows]                           # (N, M)
    pred = np.einsum("nm,nm->n", measured.coeffs, ks.state_rim[rows])
    past = np.einsum("nm,nm->n", transport.coeffs[:, :-1], rim[:, :-1])
    return (pred - past) / rim[:, -1]


def control_modes_recorded(measured: ModeStack, line: DelayLine, t: float,
                           ks: KernelSet) -> tuple[np.ndarray, np.ndarray,
                                                   np.ndarray]:
    """New command per mode from the raw record lattice, rim node implicit.

    Same law as :func:`control_modes`, different quadrature for the history
    term: the recorded commands are integrated on their own lattice (exact
    exponential moments of the linear record interpolant) instead of being
    resampled onto the much sparser axial grid first.  For a one-shot
    evaluation both routes agree to quadrature accuracy, but inside the
    closed loop the command is a *recursion* on its own records, and the
    sparse resampling aliases record-rate components into the band the edge
    kernel amplifies -- the loop then grows regardless of how fine the axial
    grid or the record cadence is made individually.  Integrating where the
    records live removes the aliasing and the recursion inherits the decay
    of its continuous counterpart.

    Returns ``(cmd, denom, rhs)`` with ``cmd = rhs / denom``, so a caller
    that post-processes ``cmd`` (symmetrization) can report the honest rim
    defect of the implicit solve as ``cmd * denom - rhs``.
    """
    grid = measured.grid
    rows = np.abs(grid.modes)
    w = ks.command_lattice(line.dt)[rows]                       # (N, nodes)
    win = line.lookup_many(t - line.dt * np.arange(1, w.shape[1]))
    gain = np.exp(0.5 * ks.basis.coeffs.advection)
    lattice = grid.analyze_rows(win) * gain                     # (nodes-1, N)
    sw = measured.coeffs @ ks.basis.mode_sine.T
    pred_rim = 2.0 * np.einsum("ni,ni->n",
                               sw * ks.basis.fwd_sine[None, :],
                               ks.exp_s[rows][:, :, -1])
    rhs = pred_rim - np.einsum("nj,jn->n", w[:, 1:], lattice)
    denom = 1.0 + w[:, 0]
    return rhs / denom, denom, rhs


def symmetrize_command(grid: CylinderGrid, cmd: np.ndarray) -> np.ndarray:
    """Project a command mode vector onto the real-synthesis subspace."""
    out = np.array(cmd, dtype=complex)
    half = grid.N // 2
    out[half] = out[half].real
    out[0] = out[0].real
    avg = 0.5 * (out[half + 1:] + np.conj(out[1:half][::-1]))
    out[half + 1:] = avg
    out[1:half] = np.conj(avg)[::-1]
    return out


def synthesize_command(cmd: np.ndarray, advection: complex,
                       grid: CylinderGrid, kind: str = "complex") -> np.ndarray:
    """Physical rim command profile from its scaled mode vector."""
    gain = np.exp(-0.5 * advection)
    return grid.synthesize_profile(np.asarray(cmd) * gain, kind=kind)


# ---------------------------------------------------------------------------
# command synthesis (dense physical-space route)


def periodic_simpson_weights(n: int, h: float) -> np.ndarray:
    """Alternating Simpson weights on a periodic grid with even ``n``.

    Integrates every grid harmonic exactly except the unpaired extreme one.
    """
    if n < 4 or n % 2:
        raise ValueError(f"periodic Simpson rule needs even n >= 4, got {n}")
    w = np.full(n, 2.0 * h / 3.0)
    w[1::2] = 4.0 * h / 3.0
    return w


def simpson_control(values: np.ndarray, steady_values: np.ndarray,
                    line: DelayLine, t: float, ks: KernelSet,
                    m_prime: int = 51, kind: str = "complex") -> np.ndarray:
    """Rim profile (steady rim plus command) from dense physical quadrature.

    The state term integrates the 2-D kernel against the scaled deviation
    with a Simpson product rule (plain axially, alternating-periodic in the
    angle).  The history term re-samples recorded commands on ``m_prime``
    uniform nodes across the in-flight window and integrates each kernel
    harmonic with exponential product weights -- node sampling would face an
    inverse-square-root blow-up of the lag kernel at zero lag.  The newest
    node is the command being computed, so its circulant weight block moves
    to the left-hand side of a small dense solve.
    """
    grid = ks.grid
    if m_prime < 3 or m_prime % 2 == 0:
        raise ValueError(f"history node count must be odd and >= 3, got {m_prime}")
    adv = ks.basis.coeffs.advection
    scaled = remove_advection(values, steady_values, adv, grid)

    n, m = grid.N, grid.M
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n

    ws = simpson_weights(m, grid.h_s)
    wt = periodic_simpson_weights(n, grid.h_theta)
    k2d = predictor_kernel_2d(ks, 1.0, grid.s, grid.h_theta * np.arange(n))
    state_term = np.einsum("m,mjl,ml->j", ws, k2d[:, idx], wt[None, :] * scaled)

    # past commands, scaled, on the uniform in-flight window [t - delay, t]
    xs = np.linspace(0.0, 1.0, m_prime)
    gain = np.exp(0.5 * adv)
    past = np.stack([line.lookup(t + ks.delay * (x - 1.0)) for x in xs[:-1]])
    past = past * gain

    # exp_weights integrates against exp(a*x); the predictor weighs sample x
    # by exp(a*(1-x)), so flip the node axis (pairs map onto pairs: m' odd)
    w_hist = exp_weights(ks.rates_for_modes(grid.modes), m_prime,
                         1.0 / (m_prime - 1))[..., ::-1]          # (N, i_max, m')
    t_nk = np.einsum("i,nik->nk", ks.basis.fwd_edge, w_hist)
    e_nd = np.exp(1j * np.multiply.outer(grid.modes,
                                         grid.h_theta * np.arange(n)))
    g_kd = (-2.0 * ks.delay / n) * np.einsum("nk,nd->kd", t_nk, e_nd)
    hist_past = np.einsum("kjl,kl->j", g_kd[:-1][:, idx], past)

    rim_block = np.eye(n) - g_kd[-1][idx]
    cmd_scaled = np.linalg.solve(rim_block, state_term + hist_past)
    command = cmd_scaled * np.exp(-0.5 * adv)
    if kind == "real":
        command = command.real
    return np.asarray(steady_values)[-1] + command


# ---------------------------------------------------------------------------
# per-channel driver


@dataclass
class ChannelUpdate:
    """Everything one control step produces for a single channel."""

    command: np.ndarray          #: physical rim command profile (deviation part)
    measured: ModeStack          #: scaled deviation, mode space
    target_state: ModeStack      #: decoupled state image
    transport: ModeStack         #: command-in-flight, rim node = new command
    target_history: ModeStack    #: history image (rim row ~ 0 by construction)
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
        transport = reconstruct_transport(line, t, ks.delay, grid, self.advection)
        target = to_target_state(measured, ks)
        cmd = control_modes(measured, transport, ks)
        if self.kind == "real":
            cmd = symmetrize_command(grid, cmd)
        command = synthesize_command(cmd, self.advection, grid, self.kind)
        transport.coeffs[:, -1] = cmd
        history = to_target_history(transport, measured, ks)

        rim = grid.synthesize_profile(history.coeffs[:, -1])
        scale = (np.max(np.abs(scaled))
                 + np.max(np.abs(grid.synthesize(transport).values)) + 1e-30)
        return ChannelUpdate(
            command=command,
            measured=measured,
            target_state=target,
            transport=transport,
            target_history=history,
            h_residual=float(np.max(np.abs(rim)) / scale),
        )

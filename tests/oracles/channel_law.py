"""The control law one channel at a time, as the package ran it before one
step advanced the whole channel stack.

A run made one :meth:`ChannelController.update` call per channel and
control step, each with its own product (:func:`apply`, then
:func:`step_images`) and rim solve (:func:`control_modes`).  The bodies
are the package's as they were, with ``KernelSet.apply`` as a function of
the set, less the projection of a real channel's command onto real
profiles, which its exact conjugate pairs made an identity.  The stacked
step must give the same commands, in-flight tables and step products bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cylform.kernels import KernelSet


def apply(ks: KernelSet, coeffs: np.ndarray, mats: np.ndarray,
          out: np.ndarray | None = None) -> np.ndarray:
    """Row ``k`` of a mode table times ``mats[|n_k|]``, for all rows,
    written to ``out`` when given.

    Rows ``+n`` and ``-n`` share one matrix, so they are paired (by
    ``grid.mode_pairs``) into one batched product instead of gathering
    a per-mode copy of ``mats``.
    Real ``mats`` (real rates) act on the real and imaginary parts in
    one real product, about twice as fast as the complex product, whose
    halves are written to the real and imaginary parts of ``out``.
    """
    pairs = ks.grid.mode_pairs
    rows = coeffs[pairs]                                            # (A, 2, K)
    if out is None:
        out = np.empty(coeffs.shape[:-1] + mats.shape[-1:], dtype=complex)
    if np.isrealobj(mats):
        parts = np.concatenate([rows.real, rows.imag], axis=1) @ mats
        out.real[pairs] = parts[:, :2]
        out.imag[pairs] = parts[:, 2:]
    else:
        out[pairs] = rows @ mats
    return out


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
    images = apply(ks, np.concatenate([transport, measured], axis=1), ks.step_map, out)
    m = ks.grid.M
    return images[:, :m], images[:, m:]


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

    def __init__(self, kernel_set: KernelSet):
        self.ks = kernel_set
        grid = self.grid = kernel_set.grid
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
        transport[:, -1] = cmd
        history += cmd[:, None] * ks.command_column
        return ChannelUpdate(cmd * self.inv_gain, measured, history)


def stacked_update(sets, measured, transport, images):
    """The per-channel updates of one control step on a run's stacks, with
    each channel's own controller: the commands ``(C, len(modes))``;
    ``transport`` and ``images`` are written as the stacked step writes
    them."""
    return np.stack([ChannelController(ks).update(*views).command_modes
                     for ks, *views in zip(sets, measured, transport, images)])

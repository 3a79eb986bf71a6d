"""One channel's control step on a delay line of its own.

A run stacks its channels: it measures their scaled deviations and reads
their commands in flight from one shared line in one go, then hands the
stacks to one :class:`~cylform.controller.ChannelController`.  Tests of a
single channel drive a controller of a stack of one the same way, through
:func:`control_step`.
"""

from typing import NamedTuple

import numpy as np

from cylform.controller import ChannelController, reconstruct_transport


class Step(NamedTuple):
    """One channel's control step: its command and the tables the step
    read and wrote."""

    command_modes: np.ndarray    #: band coefficients of the rim command (deviation part)
    measured: np.ndarray
    transport: np.ndarray        #: command-in-flight table, the new command at the rim
    target_history: np.ndarray
    state_drift: np.ndarray      #: mismatch drift less its history-root term


def channel(ks):
    """The controller of a single channel: a stack of one."""
    return ChannelController([ks])


def control_step(ctrl, table, steady, line, t):
    """The control step of ``ctrl``'s one channel from the mode table ``table``
    measured against ``steady`` and the line's window at ``t``, under the
    estimate of ``ctrl.kernels``; the line is left as it was, so the caller
    records ``command_modes`` when the step should reach the plant."""
    grid = ctrl.grid
    measured = (table - steady) * ctrl.lift
    transport = reconstruct_transport(line, t, ctrl.kernels.delay, grid, ctrl.gain[0])[None]
    images = np.empty((1, grid.modes.size, 2 * grid.M), dtype=complex)
    commands = ctrl.step(measured, transport, images)
    return Step(commands[0], measured[0], transport[0], images[0, :, :grid.M],
                images[0, :, grid.M:])

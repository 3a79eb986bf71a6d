"""One channel's control step on a delay line of its own.

A run stacks its channels: it measures their scaled deviations and reads
their commands in flight from one shared line in one go, then hands each
:class:`~cylform.controller.ChannelController` its views.  Tests of a single
controller drive it the same way with a stack of one, through
:func:`control_step`.
"""

from typing import NamedTuple

import numpy as np

from cylform.controller import reconstruct_transport


class Step(NamedTuple):
    """A :class:`~cylform.controller.ChannelUpdate` with the tables the
    update wrote into its caller's arrays."""

    command_modes: np.ndarray
    measured: np.ndarray
    transport: np.ndarray        #: command-in-flight table, the new command at the rim
    target_history: np.ndarray
    state_drift: np.ndarray      #: mismatch drift less its history-root term


def control_step(ctrl, table, steady, line, t):
    """``ctrl``'s update from the mode table ``table`` measured against
    ``steady`` and the line's window at ``t``, under the estimate of
    ``ctrl.ks``; the line is left as it was, so the caller records
    ``command_modes`` when the step should reach the plant."""
    grid = ctrl.grid
    measured = (table - steady) * ctrl.lift
    transport = reconstruct_transport(line, t, ctrl.ks.delay, grid, ctrl.gain)
    images = np.empty((grid.modes.size, 2 * grid.M), dtype=complex)
    upd = ctrl.update(measured, transport, images)
    return Step(upd.command_modes, upd.measured, transport, upd.target_history,
                images[:, grid.M:])

"""The logged observations of one control step, computed at that step.

The runner reduces the formation errors, the ring errors, ``control_sup``
and the rim residual once per chunk of steps; these are the same formulas
applied to one step's stacks of both channels (planar, then axial), as a
loop that observed each step on its own computed them.
"""

import numpy as np

from .field_norms import l2_norm


def step_observation(grid, ring_rows, dev, measured, transport, history, commands):
    """``(err_planar, err_axial, ring_errors, control_sup, rim_residual)``
    of one step.

    ``dev`` and ``measured`` are the ``(2, modes, M)`` deviation and scaled
    deviation, ``transport`` the in-flight tables after the updates (the new
    command at the rim), ``history`` the target histories and ``commands``
    the ``(2, modes)`` command coefficients.
    """
    err_planar, err_axial = (l2_norm(grid, table) for table in dev)
    # Parseval: 2pi times a column sum is a ring's integral of |f|^2
    sq = abs(dev) ** 2
    ring_idx = np.array(ring_rows, dtype=int) - 1
    ring = np.sqrt(2.0 * np.pi * np.add.reduce(np.add.reduce(sq[:, :, ring_idx]), axis=0))
    # the physical commands, the axial one as the real part
    profiles = grid.synthesize_profile(commands)
    profiles.imag[1] = 0.0
    # each ring measured by the sum of its coefficients' magnitudes
    scale = (np.add.reduce(abs(measured), axis=-2).max(axis=-1)
             + np.add.reduce(abs(transport), axis=-2).max(axis=-1) + 1e-30)
    rim = np.add.reduce(abs(history[..., -1]), axis=-1) / scale
    return err_planar, err_axial, ring, abs(profiles).max(), rim.max()

"""Closed-loop spectrum of the planar channel, one wavenumber at a time.

A run's control step is linear in what it carries from one block to the
next: the plant's interior eigencoordinates and the recent records of the
delay line.  With the delay estimate fixed, the rims and the goal at zero
and every read past the zero pre-history, one block is a fixed linear map
of that state, and for the complex planar channel it leaves each row of the
mode table to itself.  This builds that map per row from the package's own
step -- :meth:`ChannelController.step` (through
:func:`oracles.channel_step.control_step`), :meth:`DelayLine.record` and
:meth:`Channel.step`, each on a stack of one -- one column per unit vector, and reads its spectral
radius ``rho``.  The closed loop decays at ``-ln(rho) / block`` per second,
or grows at its negative, which is what a run shows once the pre-history is
behind it (finite-spectrum assignment: Manitius & Olbrot, IEEE TAC 24,
1979).  Only the planar channel is built.
"""

import math

import numpy as np

from cylform.geometry import CylinderGrid
from cylform.kernels import KernelBasis, KernelSet
from cylform.plant import Channel, DelayLine, Stencil
from oracles.channel_step import channel, control_step


def planar_spectrum(cfg, block, wavenumbers):
    """``(rho, -ln(rho) / block)`` of the planar one-block map of ``cfg``,
    one entry per wavenumber, with the estimate at ``cfg.initial_estimate``.

    The state of a row is its ``M - 2`` interior eigencoordinates followed
    by ``ceil(max(D, estimate) / block) + 3`` records, newest first: enough
    that no read of the step reaches before the oldest.
    """
    grid = CylinderGrid(cfg.grid_m, cfg.grid_n,
                        band=max(cfg.initial.band, cfg.desired.band))
    coeffs = cfg.desired.planar_coeffs
    stencil = Stencil(grid, coeffs)
    zero_table = np.zeros((grid.modes.size, grid.M), dtype=complex)
    zero_rim = np.zeros(grid.modes.size, dtype=complex)
    ctrl = channel(KernelSet(KernelBasis(coeffs, grid), cfg.initial_estimate))
    m = grid.M - 2
    records = math.ceil(max(cfg.true_delay, cfg.initial_estimate) / block) + 3
    t = records * block                    # the block starts after the records

    rhos = []
    for n in wavenumbers:
        row = int(np.flatnonzero(grid.modes == n)[0])
        columns = []
        for unit in np.eye(m + records, dtype=complex):
            table = zero_table.copy()
            table[row, 1:-1] = stencil.to_field @ unit[:m]
            chan = Channel([stencil], zero_rim[None], zero_rim[None], table[None],
                           block, cfg.true_delay)
            line = DelayLine(grid.modes.size, block, (records + 1) * block)
            for k, value in enumerate(unit[:m - 1:-1]):      # oldest first
                rim = zero_rim.copy()
                rim[row] = value
                line.record(k * block, rim)
            upd = control_step(ctrl, chan.table[0], zero_table, line, t)
            line.record(t, upd.command_modes)
            chan.step(t, line)
            columns.append(np.concatenate([
                stencil.to_eigen @ chan.table[0, row, 1:-1],
                upd.command_modes[row:row + 1],
                unit[m:-1]]))
        rho = np.max(np.abs(np.linalg.eigvals(np.stack(columns, axis=1))))
        rhos.append(rho)
    rhos = np.array(rhos)
    return rhos, -np.log(rhos) / block

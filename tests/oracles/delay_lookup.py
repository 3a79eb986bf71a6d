"""Scalar delay-line read: one instant, one Python branch per case.

This is the per-instant read the plant once made at every RK4 stage.  The
package reads its :class:`~cylform.plant.DelayLine` only through the
vectorised ``lookup_many``; this function is what that path is checked
against, and what the reference pipelines use to gather records one node
at a time.
"""

import math

import numpy as np

from cylform.errors import HistoryUnderrunError


def _row(line, idx):
    if idx < line._count - line.capacity:
        raise HistoryUnderrunError(
            f"sample {idx} already evicted (horizon too short)")
    return line._buf[idx % line.capacity]


def lookup(line, t):
    """Profile of ``line`` at time ``t``, linearly interpolated between
    records; zero before the first record, the newest record held after."""
    if line._count == 0:
        return np.zeros(line.width, dtype=complex)
    x = (t - line._t0) / line.dt
    if x <= 0.0:
        if x < -1e-9:
            return np.zeros(line.width, dtype=complex)
        return _row(line, 0).copy()
    if x >= line._count - 1:
        return _row(line, line._count - 1).copy()
    i = int(math.floor(x))
    frac = x - i
    return (1.0 - frac) * _row(line, i) + frac * _row(line, i + 1)

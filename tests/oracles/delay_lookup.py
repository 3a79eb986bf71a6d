"""Delay-line reads at arbitrary instants.

:func:`lookup` is the per-instant read the plant once made at every RK4
stage, one Python branch per case; the reference pipelines gather records
with it one node at a time.  :func:`lookup_many` reads many instants at once
through :meth:`~cylform.plant.DelayLine.read`, the package's one read path,
with a table built on the spot; it is checked against :func:`lookup`.  The
package itself reads only through tables built once per run.
"""

import math

import numpy as np

from cylform.errors import HistoryUnderrunError
from cylform.plant import _BREAK_TOL, read_table


def _row(line, idx):
    if idx < line._count - line.capacity:
        raise HistoryUnderrunError(
            f"sample {idx} already evicted (horizon too short)")
    return line._buf[idx % line.capacity + 1]


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


def lookup_many(line, times):
    """Rows of ``line`` at the instants ``times``, shape ``times.shape +
    (width,)``: :meth:`~cylform.plant.DelayLine.read` through a table built
    on the spot, zero before the first record."""
    times = np.asarray(times, dtype=float)
    x = (times.ravel() - line._t0) / line.dt
    pre, last = x < -_BREAK_TOL, line._count - 1
    table = read_table(np.where(pre, last, np.minimum(np.maximum(x, 0.0), last)))
    table.weights[:, pre] = 0.0
    return line.read(table, line._t0).reshape(times.shape + (line.width,))

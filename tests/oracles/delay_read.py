"""The read of a :class:`~cylform.plant.ReadTable` over a plain list of records.

:func:`read` knows nothing of how a delay line stores its records: it takes
every record made, oldest first, and forms each entry of a table read one
at a time, with the arithmetic :meth:`~cylform.plant.DelayLine.read` must
reproduce bit for bit.  Before the first record it reads zero, except that
an entry within ``_BREAK_TOL`` before the first record reads that record
(second weight exactly 1); past the newest record it holds the newest; and
the two terms are added as ``w0 * r0 + w1 * r1``, in that order.
"""

import numpy as np

from cylform.errors import HistoryUnderrunError
from cylform.plant import _BREAK_TOL


def read(records, table, base, width, capacity):
    """The ``(n, width)`` rows of ``table`` from record ``base`` over
    ``records``, of which a ring of ``capacity`` slots keeps the newest:
    an entry reaching an older one raises :class:`HistoryUnderrunError`."""
    count = len(records)
    zero = np.zeros(width, dtype=complex)
    out = []
    for j in range(table.index.shape[1]):
        first = base + int(table.index[0, j])
        if count > capacity and first < count - capacity:
            raise HistoryUnderrunError("requested sample already evicted (horizon too short)")
        w0, w1 = table.weights[0, j, 0], table.weights[1, j, 0]
        ks = [min(first, count - 1), min(first + 1, count - 1)]
        if ks[0] == -1:
            w1 = np.float64(w1 >= 1.0 - _BREAK_TOL)
        r0, r1 = (zero if k < 0 else np.asarray(records[k], dtype=complex) for k in ks)
        out.append(w0 * r0 + w1 * r1)
    return np.array(out).reshape(-1, width)

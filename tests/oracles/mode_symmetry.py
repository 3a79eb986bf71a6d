"""Conjugate symmetry of a mode table.

The mode table of a real field pairs mode ``-n`` with the conjugate of mode
``n`` and keeps the unpaired modes real: ``0``, and ``-N/2`` in a table of
all ``N`` rows (``-N/2 .. N/2 - 1``; mode ``n`` in row ``N/2 + n``).  A band
table of ``2K + 1`` rows (``-K .. K``) has no unpaired extreme.  The
package keeps the axial channel's tables in that subspace by construction,
with no projection; the defect below is how tests check that.
"""

import numpy as np


def conjugate_symmetry_defect(table):
    """Max mismatch between mode ``-n`` and ``conj(mode n)`` plus any
    imaginary part of an unpaired mode."""
    rows = table.shape[0]
    half = rows // 2                                            # mode 0
    worst = float(np.max(np.abs(table[half].imag)))
    if rows % 2 == 0:                                           # unpaired -N/2
        worst = max(worst, float(np.max(np.abs(table[0].imag), initial=0.0)))
    for n in range(1, (rows + 1) // 2):
        worst = max(worst, float(np.max(np.abs(table[half - n] - np.conj(table[half + n])))))
    return worst

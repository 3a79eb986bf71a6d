"""Conjugate symmetry of an ``(N, M)`` mode table.

The mode table of a real field pairs mode ``-n`` (row ``N/2 - n``) with the
conjugate of mode ``n`` (row ``N/2 + n``) and keeps the unpaired modes ``0``
and ``-N/2`` real.  The package projects onto that subspace where it needs
it (``symmetrize_command``); the defect below is how tests check the result.
"""

import numpy as np


def conjugate_symmetry_defect(table):
    """Max mismatch between mode ``-n`` and ``conj(mode n)`` plus any
    imaginary part of the unpaired extreme mode."""
    half = table.shape[0] // 2
    worst = float(np.max(np.abs(table[0].imag), initial=0.0))  # unpaired -N/2
    worst = max(worst, float(np.max(np.abs(table[half].imag))))
    for n in range(1, half):
        worst = max(worst, float(np.max(np.abs(table[half - n] - np.conj(table[half + n])))))
    return worst

"""Conjugate symmetry of a :class:`~cylform.geometry.ModeStack`.

The mode stack of a real field pairs mode ``-n`` with the conjugate of mode
``n`` and keeps the unpaired modes ``0`` and ``-N/2`` real.  The package
projects onto that subspace where it needs it (``symmetrize_command``); the
defect below is how tests check the result.
"""

import numpy as np


def conjugate_symmetry_defect(stack):
    """Max mismatch between mode ``-n`` and ``conj(mode n)`` plus any
    imaginary part of the unpaired extreme mode."""
    g = stack.grid
    worst = float(np.max(np.abs(stack.coeffs[0].imag), initial=0.0))  # unpaired -N/2
    worst = max(worst, float(np.max(np.abs(stack.coeffs[g.N // 2].imag))))
    for n in range(1, g.N // 2):
        worst = max(worst, float(np.max(np.abs(stack.mode(-n) - np.conj(stack.mode(n))))))
    return worst

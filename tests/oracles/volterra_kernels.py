"""Pointwise Volterra kernels of the state-flattening transform and its inverse.

The package evaluates the pair only through ``cylform.kernels._kernel_values``
on grids it builds itself, so it needs no domain check.  The tests evaluate
the pair pointwise through these checked forms.
"""

import numpy as np

from cylform.kernels import PlantCoeffs, _kernel_values


def _check_domain(s, tau):
    s = np.asarray(s, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if np.any(s < -1e-12) or np.any(s > 1.0 + 1e-12):
        raise ValueError("first argument must lie in [0, 1]")
    if np.any(tau < -1e-12) or np.any(tau - s > 1e-12):
        raise ValueError("second argument must lie in [0, s]")


def forward_kernel(s, tau, coeffs: PlantCoeffs):
    """Volterra kernel of the state-flattening transform.

    Defined on the triangle ``0 <= tau <= s <= 1``; vanishes on ``tau = 0``
    and equals ``-(shifted_reaction/2) * s`` on the diagonal.
    """
    _check_domain(s, tau)
    return _kernel_values(s, tau, coeffs, 1.0)


def inverse_kernel(s, tau, coeffs: PlantCoeffs):
    """Volterra kernel of the inverse transform (oscillatory branch)."""
    _check_domain(s, tau)
    return _kernel_values(s, tau, coeffs, -1.0)

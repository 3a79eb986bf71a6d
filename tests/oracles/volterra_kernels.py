"""Pointwise Volterra kernels of the state-flattening transform and its inverse.

The package evaluates the pair only through ``cylform.kernels._kernel_values``
on grids it builds itself, so it needs no domain check.  The tests evaluate
the pair pointwise through these checked forms.

The reference forms of what :class:`cylform.kernels.KernelBasis` builds
faster live here too: the series in complex arithmetic with a division per
term and the all-entries stopping test, and the Volterra row weights
assembled one row at a time.
"""

import numpy as np

from cylform.kernels import PlantCoeffs, _kernel_values
from cylform.quadrature import simpson_weights


def bessel_ratio_loop(y):
    """``I1(sqrt(y)) / sqrt(y)`` by the power series in complex arithmetic,
    stopped once every term is below 1e-16 of its running sum."""
    y = np.asarray(y, dtype=complex)
    term = np.full(y.shape, 0.5, dtype=complex)
    acc = term.copy()
    for m in range(300):
        term = term * y / (4.0 * (m + 1) * (m + 2))
        acc += term
        if np.all(np.abs(term) <= 1e-16 * (np.abs(acc) + 1e-300)):
            break
    return acc if acc.shape else complex(acc)


def kernel_values_loop(s, tau, coeffs: PlantCoeffs, sign: float):
    """``cylform.kernels._kernel_values`` through :func:`bessel_ratio_loop`."""
    lam = coeffs.shifted_reaction
    return -lam * tau * bessel_ratio_loop(sign * lam * (np.asarray(s) ** 2 - np.asarray(tau) ** 2))


def simpson_trap_row_weights(j: int, h: float) -> np.ndarray:
    """Weights for ``int_0^{s_j}`` over nodes ``0..j`` of a uniform grid.

    Even panel counts use composite Simpson; an odd count is closed with a
    single trapezoid panel at the far end.  ``j == 0`` yields an empty rule.
    """
    if j == 0:
        return np.zeros(1)
    if j == 1:
        return np.array([0.5 * h, 0.5 * h])
    if j % 2 == 0:
        return simpson_weights(j + 1, h)
    w = np.zeros(j + 1)
    w[:j] = simpson_weights(j, h)
    w[j - 1] += 0.5 * h
    w[j] += 0.5 * h
    return w


def row_weight_matrix_loop(m: int, h: float) -> np.ndarray:
    """Row ``r`` holds :func:`simpson_trap_row_weights` ``(r, h)``, zero
    past the diagonal."""
    rows = np.zeros((m, m))
    for r in range(1, m):
        rows[r, : r + 1] = simpson_trap_row_weights(r, h)
    return rows


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

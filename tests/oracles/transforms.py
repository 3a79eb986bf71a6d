"""Inverse transforms, the open-form command law and kernel tables.

The control step only runs the forward maps of :mod:`cylform.controller`
(folded into one product with the kernel set's ``step_map``).
The functions here undo them (exactly, or through the independent
closed-form inverse kernels), evaluate the law for one mode with the rim
node taken at face value, and tabulate the predictor kernel, so that tests
can check the forward maps against something they do not share.
"""

import numpy as np

from cylform.quadrature import exp_conv_paired, interp_quadratic
from oracles.dense_law import sine_basis
from oracles.seed_pipeline import state_prediction
from oracles.volterra_kernels import inverse_kernel, row_weight_matrix_loop


def restore_advection(scaled, steady_values, advection, grid):
    """Undo :func:`oracles.dense_law.remove_advection`."""
    lift = np.exp(-0.5 * advection * grid.s)
    return np.asarray(scaled) * lift[:, None] + np.asarray(steady_values)


def from_target_state(target, ks):
    """Undo :func:`cylform.controller.to_target_state` exactly (triangular
    dense solve against the forward matrix)."""
    mat = np.eye(ks.grid.M) - ks.basis.volterra_fwd_refined
    return np.linalg.solve(mat, target.T).T


def from_target_state_kernel(target, ks):
    """Recover the scaled deviation through the closed-form inverse kernel.

    Independent of :func:`from_target_state`: composing this with
    ``to_target_state`` checks the reciprocity of the kernel pair, with a
    defect set by the node-sample interpolation (cubic in the spacing), not
    by the identity itself.
    """
    v = inverse_volterra_rows(ks.basis)
    return target + target @ v.T


def inverse_volterra_rows(basis):
    """Inverse-kernel Volterra matrix on the production nodes: the row rule
    of each node applied on the basis's refined grid to the cardinal
    interpolants, as ``basis.volterra_fwd_refined`` is for the forward
    kernel."""
    refine, m = basis.refine, basis.grid.M
    xi = np.linspace(0.0, 1.0, refine * (m - 1) + 1)
    table = np.zeros((m, xi.size), dtype=complex)
    for r in range(1, m):
        end = refine * r + 1
        table[r, :end] = inverse_kernel(xi[end - 1], xi[:end], basis.coeffs)
    weights = row_weight_matrix_loop(xi.size, basis.grid.h_s / refine)[::refine]
    return (weights * table) @ interp_quadratic(np.eye(m), refine).T


def from_target_history(history, target, ks):
    """Undo the target history of :func:`cylform.controller.step_images`
    exactly given the target state.

    The deviation is recovered first (exact solve), its prediction moves to
    the right-hand side, and the remaining convolution relation is solved
    per wavenumber magnitude against ``ks.history_map``.
    """
    measured = from_target_state(target, ks)
    rhs = history + state_prediction(measured, ks)
    out = np.empty_like(rhs)
    absn = np.abs(ks.grid.modes)
    for a in np.unique(absn):
        rows = np.flatnonzero(absn == a)
        out[rows] = np.linalg.solve(ks.history_map[a], rhs[rows].T).T
    return out


def inv_exp_s(ks):
    """``exp(inv_rates * s)`` on the axial grid, shape (|n| count, i_max, M)."""
    return np.exp(ks.inv_rates[:, :, None] * ks.grid.s[None, None, :])


def from_target_history_series(history, target, ks):
    """Inverse-kernel-series route to the command-in-flight profile.

    Independent of :func:`from_target_history`; its round-trip defect decays
    only like the reciprocal of the truncation order (the lag-kernel edge
    coefficients do not decay), so it is a structural check rather than an
    inverse to rely on.
    """
    grid = ks.grid
    rows = np.abs(grid.modes)
    sw = target @ ks.basis.mode_sine.T                           # (N, i_max)
    eta_part = 2.0 * np.einsum("ni,nim->nm",
                               sw * ks.basis.inv_sine[None, :],
                               inv_exp_s(ks)[rows])
    conv = exp_conv_paired(ks.inv_rates[rows], history, grid.h_s)
    q_part = -2.0 * ks.delay * np.einsum("i,nim->nm", ks.basis.inv_edge, conv)
    return history + eta_part + q_part


def mode_index(ks, n):
    """Table row of wavenumber ``n``; ``KeyError`` beyond the grid band."""
    a = abs(int(n))
    if a > ks.grid.N // 2:
        raise KeyError(f"wavenumber {n} beyond grid band +-{ks.grid.N // 2}")
    return a


def control_mode(n, measured_row, transport_row, ks):
    """Direct single-mode command: both rim integrals evaluated as given.

    Takes the transport rim node at face value, so this is the open form of
    the law; ``control_modes`` solves for the rim node implicitly instead.
    """
    a = mode_index(ks, n)
    sw = ks.basis.mode_sine @ np.asarray(measured_row)
    pred_rim = 2.0 * np.dot(ks.basis.fwd_sine * sw, ks.exp_s[a, :, -1])
    conv = exp_conv_paired(ks.rates[a], np.asarray(transport_row), ks.grid.h_s)[:, -1]
    return complex(pred_rim - 2.0 * ks.delay * np.dot(ks.basis.fwd_edge, conv))


def predictor_table(ks, n):
    """Values of the predictor kernel on the (s, tau) grid for mode n."""
    a = mode_index(ks, n)
    sin_tab = sine_basis(ks.basis.i_max, ks.grid.s)
    return 2.0 * np.einsum("ir,ij->rj", ks.exp_s[a],
                           sin_tab * ks.basis.fwd_sine[:, None])


def edge_derivative(ks, n):
    """tau-derivative of the predictor kernel at the far edge tau = 1,
    tabulated along s (truncated series value)."""
    a = mode_index(ks, n)
    return 2.0 * np.einsum("ir,i->r", ks.exp_s[a], ks.basis.fwd_edge)

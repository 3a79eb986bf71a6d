"""Surface norms and the surface Laplacian of an ``(M, N)`` field.

Built from the finite-difference partials below, axial and periodic
angular, and the field's surface L2 norm below; the package itself
measures errors in L2 only, from mode tables (:func:`l2_norm` is the
runner's formula as a function of one table).
"""

import numpy as np


def d_s(grid, vals):
    """First axial derivative along the first axis: central inside,
    one-sided second order at the rims."""
    out = np.empty_like(vals)
    h = grid.h_s
    out[1:-1] = (vals[2:] - vals[:-2]) / (2.0 * h)
    out[0] = (-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * h)
    out[-1] = (3.0 * vals[-1] - 4.0 * vals[-2] + vals[-3]) / (2.0 * h)
    return out


def d2_s(grid, vals):
    """Second axial derivative along the first axis; one-sided second-order
    stencils at the rims."""
    out = np.empty_like(vals)
    h2 = grid.h_s**2
    out[1:-1] = (vals[2:] - 2.0 * vals[1:-1] + vals[:-2]) / h2
    out[0] = (2.0 * vals[0] - 5.0 * vals[1] + 4.0 * vals[2] - vals[3]) / h2
    out[-1] = (2.0 * vals[-1] - 5.0 * vals[-2] + 4.0 * vals[-3] - vals[-4]) / h2
    return out


def d_theta(grid, vals):
    """First angular derivative (central differences, periodic wrap)."""
    return (np.roll(vals, -1, axis=1) - np.roll(vals, 1, axis=1)) / (2.0 * grid.h_theta)


def d2_theta(grid, vals):
    """Second angular derivative (periodic three-point stencil)."""
    return (np.roll(vals, -1, axis=1) - 2.0 * vals + np.roll(vals, 1, axis=1)) / grid.h_theta**2


def field_l2(g, vals):
    """Surface L2 norm of a field: Simpson along s, rectangle rule around
    theta (what :func:`l2_norm` computes from the mode table)."""
    ring = np.sum(np.abs(vals) ** 2, axis=1) * g.h_theta
    return float(np.sqrt(np.abs(g.simpson_s @ ring)))


def l2_norm(g, table):
    """Surface L2 norm of the field of a ``(len(modes), M)`` mode table.

    By Parseval each ring's rectangle-rule integral of ``|f|^2`` around
    theta is ``2pi sum_n |c_n|^2``, and Simpson integrates that along s.
    """
    ring = 2.0 * np.pi * np.sum(np.abs(table) ** 2, axis=0)
    return float(np.sqrt(np.abs(g.simpson_s @ ring)))


def h1_norm(g, vals):
    """Sobolev H1 norm from finite-difference first partials."""
    total = (
        field_l2(g, vals) ** 2
        + field_l2(g, d_s(g, vals)) ** 2
        + field_l2(g, d_theta(g, vals)) ** 2
    )
    return float(np.sqrt(total))


def h2_norm(g, vals):
    """H2 norm: adds both pure second partials and twice the mixed one."""
    mixed = d_theta(g, d_s(g, vals))
    total = (
        h1_norm(g, vals) ** 2
        + field_l2(g, d2_s(g, vals)) ** 2
        + 2.0 * field_l2(g, mixed) ** 2
        + field_l2(g, d2_theta(g, vals)) ** 2
    )
    return float(np.sqrt(total))


def laplacian(g, vals):
    """Discrete surface Laplacian (axial + angular second differences).

    Rim rows use one-sided second-order stencils so the array is fully
    populated.
    """
    return d2_s(g, vals) + d2_theta(g, vals)

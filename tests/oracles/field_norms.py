"""Surface norms and the surface Laplacian of an ``(M, N)`` field.

Built from the grid's axial finite-difference partials, the periodic
angular ones below and the field's surface L2 norm below; the package
itself measures errors in L2 only, from mode tables (:func:`l2_norm` is
the runner's formula as a function of one table).
"""

import numpy as np


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
        + field_l2(g, g.d_s(vals)) ** 2
        + field_l2(g, d_theta(g, vals)) ** 2
    )
    return float(np.sqrt(total))


def h2_norm(g, vals):
    """H2 norm: adds both pure second partials and twice the mixed one."""
    mixed = d_theta(g, g.d_s(vals))
    total = (
        h1_norm(g, vals) ** 2
        + field_l2(g, g.d2_s(vals)) ** 2
        + 2.0 * field_l2(g, mixed) ** 2
        + field_l2(g, d2_theta(g, vals)) ** 2
    )
    return float(np.sqrt(total))


def laplacian(g, vals):
    """Discrete surface Laplacian (axial + angular second differences).

    Rim rows use one-sided second-order stencils so the array is fully
    populated.
    """
    return g.d2_s(vals) + d2_theta(g, vals)

"""Sobolev norms and the surface Laplacian of an ``(M, N)`` field.

Built from the grid's axial finite-difference partials, the periodic
angular ones below and the grid's surface L2 norm; the package itself
measures errors in L2 only.
"""

import numpy as np


def d_theta(grid, vals):
    """First angular derivative (central differences, periodic wrap)."""
    return (np.roll(vals, -1, axis=1) - np.roll(vals, 1, axis=1)) / (2.0 * grid.h_theta)


def d2_theta(grid, vals):
    """Second angular derivative (periodic three-point stencil)."""
    return (np.roll(vals, -1, axis=1) - 2.0 * vals + np.roll(vals, 1, axis=1)) / grid.h_theta**2


def h1_norm(g, vals):
    """Sobolev H1 norm from finite-difference first partials."""
    total = (
        g.l2_norm(vals) ** 2
        + g.l2_norm(g.d_s(vals)) ** 2
        + g.l2_norm(d_theta(g, vals)) ** 2
    )
    return float(np.sqrt(total))


def h2_norm(g, vals):
    """H2 norm: adds both pure second partials and twice the mixed one."""
    mixed = d_theta(g, g.d_s(vals))
    total = (
        h1_norm(g, vals) ** 2
        + g.l2_norm(g.d2_s(vals)) ** 2
        + 2.0 * g.l2_norm(mixed) ** 2
        + g.l2_norm(d2_theta(g, vals)) ** 2
    )
    return float(np.sqrt(total))


def laplacian(g, vals):
    """Discrete surface Laplacian (axial + angular second differences).

    Rim rows use one-sided second-order stencils so the array is fully
    populated.
    """
    return g.d2_s(vals) + d2_theta(g, vals)

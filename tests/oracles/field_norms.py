"""Sobolev norms and the surface Laplacian of a :class:`~cylform.geometry.Field`.

Built from the grid's axial finite-difference partials, the periodic
angular ones below and the surface L2 norm; the package itself measures
errors in L2 only.
"""

import numpy as np

from cylform.geometry import Field


def d_theta(grid, vals):
    """First angular derivative (central differences, periodic wrap)."""
    return (np.roll(vals, -1, axis=1) - np.roll(vals, 1, axis=1)) / (2.0 * grid.h_theta)


def d2_theta(grid, vals):
    """Second angular derivative (periodic three-point stencil)."""
    return (np.roll(vals, -1, axis=1) - 2.0 * vals + np.roll(vals, 1, axis=1)) / grid.h_theta**2


def h1_norm(f):
    """Sobolev H1 norm from finite-difference first partials."""
    g = f.grid
    total = (
        f.l2_norm() ** 2
        + Field(g, g.d_s(f.values)).l2_norm() ** 2
        + Field(g, d_theta(g, f.values)).l2_norm() ** 2
    )
    return float(np.sqrt(total))


def h2_norm(f):
    """H2 norm: adds both pure second partials and twice the mixed one."""
    g = f.grid
    mixed = d_theta(g, g.d_s(f.values))
    total = (
        h1_norm(f) ** 2
        + Field(g, g.d2_s(f.values)).l2_norm() ** 2
        + 2.0 * Field(g, mixed).l2_norm() ** 2
        + Field(g, d2_theta(g, f.values)).l2_norm() ** 2
    )
    return float(np.sqrt(total))


def laplacian(f):
    """Discrete surface Laplacian (axial + angular second differences).

    Rim rows use one-sided second-order stencils so the array is fully
    populated.
    """
    g = f.grid
    return Field(g, g.d2_s(f.values) + d2_theta(g, f.values))

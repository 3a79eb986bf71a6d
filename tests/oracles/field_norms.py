"""Sobolev norms and the surface Laplacian of a :class:`~cylform.geometry.Field`.

Built from the grid's finite-difference partials and its surface L2 norm;
the package itself measures errors in L2 only.
"""

import numpy as np

from cylform.geometry import Field


def h1_norm(f):
    """Sobolev H1 norm from finite-difference first partials."""
    g = f.grid
    total = (
        f.l2_norm() ** 2
        + Field(g, g.d_s(f.values)).l2_norm() ** 2
        + Field(g, g.d_theta(f.values)).l2_norm() ** 2
    )
    return float(np.sqrt(total))


def h2_norm(f):
    """H2 norm: adds both pure second partials and twice the mixed one."""
    g = f.grid
    mixed = g.d_theta(g.d_s(f.values))
    total = (
        h1_norm(f) ** 2
        + Field(g, g.d2_s(f.values)).l2_norm() ** 2
        + 2.0 * Field(g, mixed).l2_norm() ** 2
        + Field(g, g.d2_theta(f.values)).l2_norm() ** 2
    )
    return float(np.sqrt(total))


def laplacian(f):
    """Discrete surface Laplacian (axial + angular second differences).

    Rim rows use one-sided second-order stencils so the array is fully
    populated.
    """
    g = f.grid
    return Field(g, g.d2_s(f.values) + g.d2_theta(f.values))

"""Equilibrium of the continuum model, in closed form.

The package's goal is the equilibrium of the agents' own semi-discrete
stencil (:meth:`cylform.plant.Stencil.equilibrium`).  The PDE the stencil
discretises has its own equilibrium, solved here per wavenumber: a
constant-coefficient two-point boundary value problem in s whose general
solution is a combination of two exponentials.  The two goals differ at
second order in the axial spacing; this is the reference that gap is
measured against.  :func:`formation_fields` has the signature of
:func:`cylform.steady.formation_fields`, so a test can patch it into the
runner and run a scenario toward the continuum goal.
"""

import numpy as np

from cylform.errors import ResonantModeError

#: relative root separation below which the double-root branch is used
_DOUBLE_ROOT_TOL = 1e-6
#: relative determinant size below which the mode is reported as resonant
_RESONANCE_TOL = 1e-12


def steady_mode(n, coeffs, anchor, leader, s):
    """Closed-form equilibrium profile of one wavenumber.

    Solves ``y'' + advection*y' + (reaction - n^2)*y = 0`` with ``y(0)`` and
    ``y(1)`` imposed.  Raises :class:`ResonantModeError` when the two-point
    problem is singular (oscillatory roots completing a half period across
    the span), which is a property of the formation, not of the solver.
    """
    lam = complex(coeffs.reaction) - n * n
    beta = complex(coeffs.advection)
    disc = np.sqrt(beta * beta / 4.0 - lam)
    r1 = -beta / 2.0 + disc
    r2 = -beta / 2.0 - disc

    if abs(r1 - r2) <= _DOUBLE_ROOT_TOL * max(1.0, abs(r1), abs(r2)):
        r = (r1 + r2) / 2.0
        slope = leader * np.exp(-r) - anchor
        return (anchor + slope * s) * np.exp(r * s)

    e1, e2 = np.exp(r1), np.exp(r2)
    det = e2 - e1
    if abs(det) <= _RESONANCE_TOL * max(1.0, abs(e1), abs(e2)):
        raise ResonantModeError(n)
    b = (leader - anchor * e1) / det
    a = anchor - b
    return a * np.exp(r1 * s) + b * np.exp(r2 * s)


def steady_table(coeffs, anchor, leader, grid):
    """Mode table ``(len(grid.modes), M)`` of :func:`steady_mode` per row,
    with the rim coefficients as its rim columns; rows without rim data
    are zero."""
    table = np.zeros((grid.modes.size, grid.M), dtype=complex)
    for j, n in enumerate(grid.modes):
        a = anchor.get(int(n), 0.0)
        b = leader.get(int(n), 0.0)
        if a == 0.0 and b == 0.0:
            continue
        table[j] = steady_mode(int(n), coeffs, a, b, grid.s)
        table[j, 0], table[j, -1] = a, b
    return table


def formation_fields(spec, grid, stencils=None):
    """Both continuum equilibria of a formation, as (planar, axial) mode
    tables; ``stencils`` is accepted and unused."""
    return (steady_table(spec.planar_coeffs, spec.planar_anchor,
                         spec.planar_leader, grid),
            steady_table(spec.axial_coeffs, spec.axial_anchor,
                         spec.axial_leader, grid))

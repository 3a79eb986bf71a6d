"""Explicit RK4 march of the plant stencil, the reference for the exact
block propagator :class:`cylform.plant.Channel`.

Both integrate the same semi-discrete system: the three-point stencil in
``s`` and ``theta`` on interior rows, the anchor row held and the leader row
set to its base plus the delayed command.  The march pins the rims at its
stage instants (each step's start, midpoint and end) and reads the command
with one scalar delay-line lookup per stage, synthesized from the line's
band coefficients into a ring profile, so it converges to the exact
solution at fourth order in ``dt`` while the rims are constant, and only at
first order once a jump of the command (the end of the zero pre-history)
falls inside a step.
"""

import numpy as np

from cylform.errors import InstabilityError
from cylform.plant import GUARD_LIMIT
from oracles.delay_lookup import lookup


def plant_rhs(vals, coeffs, grid):
    """Interior semi-discrete derivative; rim rows are held, so zero there."""
    out = np.zeros_like(vals)
    h2 = grid.h_s * grid.h_s
    inner = vals[1:-1]
    # angular neighbours with the periodic wrap, on interior rows only
    up = np.concatenate((inner[:, 1:], inner[:, :1]), axis=1)
    dn = np.concatenate((inner[:, -1:], inner[:, :-1]), axis=1)
    out[1:-1] = (
        (vals[2:] - 2.0 * inner + vals[:-2]) / h2
        + (up - 2.0 * inner + dn) / grid.h_theta**2
        + coeffs.advection * (vals[2:] - vals[:-2]) / (2.0 * grid.h_s)
        + coeffs.reaction * inner
    )
    return out


class RK4Channel:
    """One field marched by classical RK4 under held rims and commands
    arriving through ``line`` after ``delay``."""

    def __init__(self, grid, coeffs, anchor, leader_base, initial, delay):
        self.grid = grid
        self.coeffs = coeffs
        self.anchor = np.asarray(anchor, dtype=complex)
        self.leader_base = np.asarray(leader_base, dtype=complex)
        self.values = np.array(initial, dtype=complex)
        self.delay = float(delay)

    def _rhs(self, vals, rim):
        vals[0] = self.anchor
        vals[-1] = rim
        return plant_rhs(vals, self.coeffs, self.grid)

    def step(self, t, dt, line):
        """One RK4 step from ``t``, the rims read at its stage instants."""
        rims = [self.leader_base
                + self.grid.synthesize_profile(lookup(line, tt - self.delay))
                for tt in (t, t + 0.5 * dt, t + dt)]
        k1 = self._rhs(self.values.copy(), rims[0])
        k2 = self._rhs(self.values + 0.5 * dt * k1, rims[1])
        k3 = self._rhs(self.values + 0.5 * dt * k2, rims[1])
        k4 = self._rhs(self.values + dt * k3, rims[2])
        self.values += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        self.values[0] = self.anchor
        self.values[-1] = rims[2]
        peak = np.max(np.abs(self.values))
        if not np.isfinite(peak) or peak > GUARD_LIMIT:
            raise InstabilityError(
                f"field magnitude {peak:.3e} exceeded the guard at t={t + dt:.6f}")

"""Time integration of the coupled surface fields with delayed rim actuation.

Both channels evolve by the same reaction-advection-diffusion stencil on the
cylinder surface; only the rim rows differ.  The anchor rim (s = 0) holds the
formation's anchor profile, the leader rim (s = 1) holds the formation's
leader profile plus the actuation signal delayed by the true (unknown to the
controller) dead time.  Commands travel through a :class:`DelayLine`, a
uniformly sampled ring buffer with linear interpolation that reads zero
before its first record.  The plant reads it once per control block: the
delayed instants of every RK4 stage of the block (:func:`stage_instants`)
go through one :meth:`DelayLine.lookup_many`, and :meth:`Channel.step` takes
the three arrived rows of its own step.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import HistoryUnderrunError, InstabilityError
from .geometry import CylinderGrid
from .kernels import PlantCoeffs

#: hard bound on any field magnitude before the run is declared unstable
GUARD_LIMIT = 1e30

#: extent of the negative real axis covered by the classical fourth-order
#: Runge-Kutta stability region
_RK4_REAL_AXIS = 2.785

#: instants at which one classical RK4 step reads its rims, as fractions of
#: the step: its start, its midpoint (both middle stages) and its end
_RK4_STAGES = np.array([0.0, 0.5, 1.0])


class DelayLine:
    """Uniformly sampled actuation history with linear interpolation.

    Samples are theta-profiles recorded at strictly regular instants.
    Queries before the first record return zeros (actuation had not
    started); queries beyond the newest record hold its value, which serves
    the zero-delay and inner-stage reads.
    """

    def __init__(self, width: int, dt_record: float, horizon: float):
        if dt_record <= 0 or horizon <= 0:
            raise ValueError("delay line spacing and horizon must be positive")
        self.width = int(width)
        self.dt = float(dt_record)
        self.capacity = int(math.ceil(horizon / dt_record)) + 4
        self._buf = np.zeros((self.capacity, self.width), dtype=complex)
        self._count = 0
        self._t0 = 0.0

    @property
    def count(self) -> int:
        return self._count

    @property
    def newest_time(self) -> float:
        return self._t0 + (self._count - 1) * self.dt

    def record(self, t: float, profile: np.ndarray) -> None:
        profile = np.asarray(profile)
        if profile.shape != (self.width,):
            raise ValueError(f"profile shape {profile.shape} != ({self.width},)")
        if self._count == 0:
            self._t0 = float(t)
        else:
            expected = self._t0 + self._count * self.dt
            if abs(t - expected) > 1e-9 * max(1.0, abs(expected)):
                raise ValueError(
                    f"record at t={t} breaks the uniform spacing "
                    f"(expected {expected})"
                )
        self._buf[self._count % self.capacity] = profile
        self._count += 1

    def lookup_many(self, times: np.ndarray) -> np.ndarray:
        """Profiles at the instants ``times``, shape ``times.shape + (width,)``.

        The one read path of the line: the controller gathers a delay window
        of records through it, and the plant the delayed RK4 stage instants
        of a control block.  Every instant is clamped onto the recorded span
        and interpolated linearly between its two neighbours (a hold beyond
        the newest record is that record interpolated with itself); rows of
        instants before the first record are zero.  An instant whose record
        has already left the ring raises :class:`HistoryUnderrunError`.
        """
        times = np.asarray(times, dtype=float)
        if self._count == 0:
            return np.zeros(times.shape + (self.width,), dtype=complex)
        x = (times - self._t0) / self.dt
        pre = x < -1e-9
        last = self._count - 1
        xc = np.clip(x, 0.0, last)
        i0 = xc.astype(int)
        evicted = self._count - self.capacity
        if evicted > 0 and np.any((i0 < evicted) & ~pre):
            raise HistoryUnderrunError(
                "requested sample already evicted (horizon too short)"
            )
        frac = (xc - i0)[..., None]
        r0 = self._buf[i0 % self.capacity]
        r1 = self._buf[np.minimum(i0 + 1, last) % self.capacity]
        out = (1.0 - frac) * r0 + frac * r1
        out[pre] = 0.0
        return out


def stable_dt(grid: CylinderGrid, *coeffs: PlantCoeffs, safety: float = 0.9) -> float:
    """Largest safe step for the explicit stencil under classical RK4.

    Bounds the spectral radius of the semi-discrete operator by the row-sum
    of its stiffest contributions and keeps ``dt * radius`` inside the
    stability interval with the given safety factor.
    """
    worst = 0.0
    for c in coeffs:
        radius = (4.0 / grid.h_s**2 + 4.0 / grid.h_theta**2
                  + abs(c.reaction) + abs(c.advection) / grid.h_s)
        worst = max(worst, radius)
    return safety * _RK4_REAL_AXIS / worst


def plant_rhs(vals: np.ndarray, coeffs: PlantCoeffs, grid: CylinderGrid) -> np.ndarray:
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


def stage_instants(k0: int, steps: int, dt: float, delay: float) -> np.ndarray:
    """Delayed rim-read instants of ``steps`` RK4 steps from step ``k0``.

    Row ``j`` holds ``k*dt``, ``k*dt + dt/2`` and ``k*dt + dt``, each minus
    ``delay``, for ``k = k0 + j``: the stage instants :meth:`Channel.step`
    reads, formed with the same floating-point operations as a step at
    ``t = k*dt`` forms them.
    """
    t = np.arange(k0, k0 + steps) * dt
    return (t[:, None] + _RK4_STAGES * dt) - delay


class Channel:
    """One scalar field marching under held rims and delayed commands."""

    def __init__(self, grid: CylinderGrid, coeffs: PlantCoeffs,
                 anchor: np.ndarray, leader_base: np.ndarray,
                 initial: np.ndarray):
        self.grid = grid
        self.coeffs = coeffs
        self.anchor = np.asarray(anchor, dtype=complex)
        self.leader_base = np.asarray(leader_base, dtype=complex)
        self.values = np.array(initial, dtype=complex)
        if self.values.shape != (grid.M, grid.N):
            raise ValueError("initial state shape does not match the grid")

    def _rhs(self, vals: np.ndarray, rim: np.ndarray) -> np.ndarray:
        """Pin the rims of the stage array ``vals`` in place; its derivative."""
        vals[0] = self.anchor
        vals[-1] = rim
        return plant_rhs(vals, self.coeffs, self.grid)

    def step(self, t: float, dt: float, arrived: np.ndarray) -> None:
        """One RK4 step from ``t``.  ``arrived`` holds the delayed commands
        at the step's start, midpoint and end (one row of
        :func:`stage_instants` read through the delay line)."""
        rims = self.leader_base + arrived
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
                f"field magnitude {peak:.3e} exceeded the guard at t={t + dt:.6f}"
            )

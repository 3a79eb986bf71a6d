"""Time integration of the coupled surface fields with delayed rim actuation.

Both channels evolve by the same reaction-advection-diffusion stencil on the
cylinder surface; only the rim rows differ.  The anchor rim (s = 0) holds the
formation's anchor profile, the leader rim (s = 1) holds the formation's
leader profile plus the actuation signal delayed by the true (unknown to the
controller) dead time.  Commands travel through a :class:`DelayLine`, a
uniformly sampled ring buffer with linear interpolation.
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


class DelayLine:
    """Uniformly sampled actuation history with linear interpolation.

    Samples are theta-profiles recorded at strictly regular instants.
    Queries before the first record return zeros under the default ``zero``
    policy (actuation had not started) or raise under ``strict``; queries
    beyond the newest record hold its value, which serves the zero-delay and
    inner-stage lookups.
    """

    def __init__(self, width: int, dt_record: float, horizon: float,
                 policy: str = "zero"):
        if dt_record <= 0 or horizon <= 0:
            raise ValueError("delay line spacing and horizon must be positive")
        if policy not in ("zero", "strict"):
            raise ValueError(f"unknown pre-history policy {policy!r}")
        self.width = int(width)
        self.dt = float(dt_record)
        self.capacity = int(math.ceil(horizon / dt_record)) + 4
        self.policy = policy
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

    def _row(self, idx: int) -> np.ndarray:
        if idx < self._count - self.capacity:
            raise HistoryUnderrunError(
                f"sample {idx} already evicted (horizon too short)"
            )
        return self._buf[idx % self.capacity]

    def lookup(self, t: float) -> np.ndarray:
        """Profile at time ``t``, linearly interpolated between records."""
        if self._count == 0:
            if self.policy == "strict":
                raise HistoryUnderrunError("lookup before any record")
            return np.zeros(self.width, dtype=complex)
        x = (t - self._t0) / self.dt
        if x <= 0.0:
            if x < -1e-9:
                if self.policy == "strict":
                    raise HistoryUnderrunError(
                        f"lookup at t={t} precedes recorded history"
                    )
                return np.zeros(self.width, dtype=complex)
            return self._row(0).copy()
        if x >= self._count - 1:
            return self._row(self._count - 1).copy()
        i = int(math.floor(x))
        frac = x - i
        return (1.0 - frac) * self._row(i) + frac * self._row(i + 1)

    def lookup_many(self, times: np.ndarray) -> np.ndarray:
        """Profiles at many instants in one vectorized pass.

        Row ``k`` equals ``lookup(times[k])`` for finite records -- same
        interpolation, same pre-history policy, same hold beyond the newest
        record -- without the per-instant Python overhead, which matters when
        a control update has to gather an entire delay window of records.
        Every instant is clamped onto the recorded span and interpolated
        between its two neighbours (a hold is the newest record interpolated
        with itself); pre-history rows are zeroed afterwards.
        """
        times = np.asarray(times, dtype=float)
        if self._count == 0:
            if self.policy == "strict":
                raise HistoryUnderrunError("lookup before any record")
            return np.zeros(times.shape + (self.width,), dtype=complex)
        x = (times - self._t0) / self.dt
        pre = x < -1e-9
        if self.policy == "strict" and np.any(pre):
            raise HistoryUnderrunError(
                f"lookup at t={times[pre].min()} precedes recorded history"
            )
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


def apply_boundary(vals: np.ndarray, t: float, anchor: np.ndarray,
                   leader_base: np.ndarray, line: DelayLine,
                   true_delay: float) -> None:
    """Impose rim rows in place: anchor profile and delayed actuation."""
    vals[0, :] = anchor
    vals[-1, :] = leader_base + line.lookup(t - true_delay)


class Channel:
    """One scalar field marching under held rims and delayed commands."""

    def __init__(self, grid: CylinderGrid, coeffs: PlantCoeffs,
                 anchor: np.ndarray, leader_base: np.ndarray, line: DelayLine,
                 true_delay: float, initial: np.ndarray):
        self.grid = grid
        self.coeffs = coeffs
        self.anchor = np.asarray(anchor, dtype=complex)
        self.leader_base = np.asarray(leader_base, dtype=complex)
        self.line = line
        self.true_delay = float(true_delay)
        self.values = np.array(initial, dtype=complex)
        if self.values.shape != (grid.M, grid.N):
            raise ValueError("initial state shape does not match the grid")

    def _staged(self, base: np.ndarray, t: float) -> np.ndarray:
        v = base.copy()
        apply_boundary(v, t, self.anchor, self.leader_base, self.line,
                       self.true_delay)
        return v

    def step(self, t: float, dt: float) -> None:
        g, c = self.grid, self.coeffs
        v0 = self._staged(self.values, t)
        k1 = plant_rhs(v0, c, g)
        k2 = plant_rhs(self._staged(self.values + 0.5 * dt * k1, t + 0.5 * dt), c, g)
        k3 = plant_rhs(self._staged(self.values + 0.5 * dt * k2, t + 0.5 * dt), c, g)
        k4 = plant_rhs(self._staged(self.values + dt * k3, t + dt), c, g)
        self.values += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        apply_boundary(self.values, t + dt, self.anchor, self.leader_base,
                       self.line, self.true_delay)
        peak = np.max(np.abs(self.values))
        if not np.isfinite(peak) or peak > GUARD_LIMIT:
            raise InstabilityError(
                f"field magnitude {peak:.3e} exceeded the guard at t={t + dt:.6f}"
            )

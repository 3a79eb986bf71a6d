"""Equilibrium formations, as mode tables.

A formation is specified per angular wavenumber by its two rim profiles
(anchor rim at s = 0, leader rim at s = 1) and by the plant coefficients of
each channel.  Each wavenumber solves a constant-coefficient two-point
boundary value problem in s whose general solution is a combination of two
exponentials, so the equilibrium is assembled mode by mode in closed form,
one row of a mode table per wavenumber of the grid's band.  The run works
on these tables throughout; nothing here builds a physical field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ResonantModeError
from .geometry import CylinderGrid
from .kernels import PlantCoeffs

#: relative root separation below which the double-root branch is used
_DOUBLE_ROOT_TOL = 1e-6
#: relative determinant size below which the mode is reported as resonant
_RESONANCE_TOL = 1e-12


@dataclass(frozen=True)
class FormationSpec:
    """Rim data and channel coefficients defining one formation.

    Rim profiles are sparse Fourier coefficient maps ``wavenumber -> value``.
    The axial channel describes a real height field, so its maps must be
    conjugate-symmetric; the planar channel is genuinely complex.
    """

    planar_coeffs: PlantCoeffs
    axial_coeffs: PlantCoeffs
    planar_anchor: dict = field(default_factory=dict)
    planar_leader: dict = field(default_factory=dict)
    axial_anchor: dict = field(default_factory=dict)
    axial_leader: dict = field(default_factory=dict)

    @property
    def band(self) -> int:
        """Largest ``|n|`` listed in any of the four rim maps (0 if none);
        a listed zero coefficient counts."""
        maps = (self.planar_anchor, self.planar_leader,
                self.axial_anchor, self.axial_leader)
        return max((abs(int(n)) for m in maps for n in m), default=0)

    def __post_init__(self):
        if abs(complex(self.axial_coeffs.reaction).imag) > 0 or \
                abs(complex(self.axial_coeffs.advection).imag) > 0:
            raise ConfigError("axial channel coefficients must be real "
                              "(the height field is real-valued)")
        for name in ("axial_anchor", "axial_leader"):
            coeffs = getattr(self, name)
            for n, v in coeffs.items():
                mate = coeffs.get(-n, 0.0)
                scale = max(1.0, abs(v))
                if abs(np.conj(v) - mate) > 1e-12 * scale:
                    raise ConfigError(
                        f"axial rim data must be conjugate-symmetric: "
                        f"{name}[{n}] = {v} but {name}[{-n}] = {mate}"
                    )


def steady_mode(n: int, coeffs: PlantCoeffs, anchor: complex, leader: complex,
                s: np.ndarray) -> np.ndarray:
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


def _check_band(coeff_map: dict, grid: CylinderGrid) -> None:
    half = grid.N // 2
    for n in coeff_map:
        if not (-half <= n <= half - 1):
            raise ConfigError(
                f"rim coefficient at wavenumber {n} is outside the grid band "
                f"[{-half}, {half - 1}]"
            )


def steady_table(coeffs: PlantCoeffs, anchor: dict, leader: dict,
                 grid: CylinderGrid) -> np.ndarray:
    """Mode table ``(len(grid.modes), M)`` of one channel's equilibrium.

    Row ``n`` is :func:`steady_mode` of the rim coefficients at ``n``, and
    its rim columns are those coefficients exactly (they are imposed, and
    the profile meets them to roundoff anyway).  The grid's band must hold
    every wavenumber of the rim data.
    """
    _check_band(anchor, grid)
    _check_band(leader, grid)
    wide = sorted(n for n in {*anchor, *leader} if abs(n) > grid.band)
    if wide:
        raise ValueError(f"rim data at wavenumbers {wide} lie outside the "
                         f"grid's band |n| <= {grid.band}")
    table = np.zeros((grid.modes.size, grid.M), dtype=complex)
    for j, n in enumerate(grid.modes):
        a = anchor.get(int(n), 0.0)
        b = leader.get(int(n), 0.0)
        if a == 0.0 and b == 0.0:
            continue
        table[j] = steady_mode(int(n), coeffs, a, b, grid.s)
        table[j, 0], table[j, -1] = a, b
    return table


def formation_fields(spec: FormationSpec,
                     grid: CylinderGrid) -> tuple[np.ndarray, np.ndarray]:
    """Both channel equilibria of a formation, as (planar, axial) mode
    tables."""
    return (steady_table(spec.planar_coeffs, spec.planar_anchor,
                         spec.planar_leader, grid),
            steady_table(spec.axial_coeffs, spec.axial_anchor,
                         spec.axial_leader, grid))

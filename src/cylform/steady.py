"""Equilibrium formations, as mode tables.

A formation is specified per angular wavenumber by its two rim profiles
(anchor rim at s = 0, leader rim at s = 1) and by the plant coefficients of
each channel.  Its equilibrium is the one the agents themselves settle to:
the fixed point of the channel's :class:`~cylform.plant.Stencil` with both
rims held, from :meth:`~cylform.plant.Stencil.equilibrium`, one row of a
mode table per wavenumber of the grid's band.  The run works on these
tables throughout; nothing here builds a physical field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .geometry import CylinderGrid
from .kernels import PlantCoeffs
from .plant import Stencil


@dataclass(frozen=True)
class FormationSpec:
    """Rim data and channel coefficients defining one formation.

    Rim profiles are sparse Fourier coefficient maps ``wavenumber -> value``.
    The axial channel describes a real height field, so its maps must be
    exactly conjugate-symmetric, bit for bit, which alone keeps the run's
    axial commands real; the planar channel is genuinely complex.
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
                if np.conj(v) != mate:
                    raise ConfigError(
                        f"axial rim data must be conjugate-symmetric: "
                        f"{name}[{n}] = {v} but {name}[{-n}] = {mate}"
                    )


def _row(coeff_map: dict, grid: CylinderGrid) -> np.ndarray:
    """A rim map as a band coefficient row.  On an ``N``-node ring ``+N/2``
    and ``-N/2`` are one mode, so both add into the row of ``-N/2``."""
    half = grid.N // 2
    for n in coeff_map:
        if not -half <= n <= half:
            raise ConfigError(f"rim coefficient at wavenumber {n} is outside "
                              f"the grid band [{-half}, {half}]")
    row = np.array([coeff_map.get(int(n), 0.0) for n in grid.modes], dtype=complex)
    row[grid.modes == -half] += coeff_map.get(half, 0.0)
    return row


def steady_table(stencil: Stencil, anchor: dict, leader: dict) -> np.ndarray:
    """Mode table ``(len(grid.modes), M)`` of one channel's equilibrium on
    ``stencil.grid``: :meth:`Stencil.equilibrium` of the rim coefficient
    maps, whose values are its rim columns exactly.  The grid's band must
    hold every wavenumber of the rim data.
    """
    grid = stencil.grid
    rows = [_row(m, grid) for m in (anchor, leader)]
    wide = sorted(n for n in {*anchor, *leader} if abs(n) > grid.band)
    if wide:
        raise ValueError(f"rim data at wavenumbers {wide} lie outside the "
                         f"grid's band |n| <= {grid.band}")
    return stencil.equilibrium(*rows)


def formation_fields(spec: FormationSpec, grid: CylinderGrid,
                     stencils=None) -> tuple[np.ndarray, np.ndarray]:
    """Both channel equilibria of a formation, as (planar, axial) mode
    tables.  ``stencils``, the (planar, axial) stencils of the spec's
    coefficients on ``grid``, are built here when not given."""
    if stencils is None:
        stencils = [Stencil(grid, c) for c in (spec.planar_coeffs, spec.axial_coeffs)]
    return (steady_table(stencils[0], spec.planar_anchor, spec.planar_leader),
            steady_table(stencils[1], spec.axial_anchor, spec.axial_leader))

"""Delay-adaptive boundary control of reaction-advection-diffusion
dynamics on a cylinder surface.

The package simulates a formation-keeping problem: a dense swarm whose
deviation from a target shape obeys a pair of diffusion-advection-reaction
equations on the lateral surface of a cylinder, actuated only through the
top rim, with the actuation travelling through an unknown constant delay.
It provides the spatial discretisation, the closed-form and series gain
kernels, the predictor-based rim controller, the delay estimator, and a
scenario runner with a small CLI.

Fields and per-wavenumber mode tables are plain NumPy arrays: a field is
``(M, N)`` (axial node by angle), its mode table ``(len(modes), M)``
(wavenumber by axial node), one row per wavenumber of the grid's band.
:class:`CylinderGrid` converts between them and checks the shape; ``M`` is
odd and ``N`` even, so a transposed array never passes.  A run works on
mode tables throughout and synthesizes fields only for its output.
"""

from .errors import (
    ConfigError,
    CylformError,
    HistoryUnderrunError,
    InstabilityError,
    KernelTruncationError,
    ResonantModeError,
)
from .geometry import CylinderGrid

__all__ = [
    "CylinderGrid",
    "CylformError",
    "ConfigError",
    "ResonantModeError",
    "KernelTruncationError",
    "InstabilityError",
    "HistoryUnderrunError",
]

__version__ = "0.1.0"

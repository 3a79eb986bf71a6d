"""Delay-estimate adaptation: mismatch drift, update signal, clipped stepping.

The delay estimate follows a scalar gradient-like law.  Each control period
every channel yields a *mismatch drift* profile (the sensitivity of the
target history to the estimate error); the inner product of the history
against that drift, taken with an increasing axial weight, is the update
signal.  One forward-Euler step moves the estimate, clipped to its bounds,
so a step outward from a bound ends exactly on it.

The drift is linear in the target state and in the history's root value.
Its state part comes out of the controller's one product per step, through
the kernel set's ``step_map`` (see :class:`~cylform.kernels.KernelSet`);
:func:`mismatch_drift` adds the root-value part, a rank-one table.  Both
functions take one channel's mode tables or the channels' stacked on a
leading axis, and the signal sums over the channels.  The law reads no term
for the estimate's own motion: the target history is always the image
under the tables in use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import CylinderGrid

__all__ = [
    "EstimatorState",
    "mismatch_drift",
    "update_signal",
    "step_estimate",
]


@dataclass(frozen=True)
class EstimatorState:
    """Scalar adaptation state: the current estimate and the law's constants.

    ``gain`` is the adaptation rate (open unit interval), ``dt`` the update
    period.
    """

    estimate: float
    lo: float
    hi: float
    gain: float
    dt: float

    def __post_init__(self):
        if not 0.0 < self.lo <= self.hi:
            raise ValueError(f"need 0 < lo <= hi, got [{self.lo}, {self.hi}]")
        if not self.lo <= self.estimate <= self.hi:
            raise ValueError(
                f"estimate {self.estimate} outside [{self.lo}, {self.hi}]"
            )
        if not 0.0 < self.gain < 1.0:
            raise ValueError(f"adaptation gain must lie in (0, 1), got {self.gain}")
        if self.dt <= 0.0:
            raise ValueError(f"update period must be positive, got {self.dt}")


# ---------------------------------------------------------------------------
# drift profiles


def mismatch_drift(state_drift: np.ndarray, history: np.ndarray,
                   edge_flow: np.ndarray) -> np.ndarray:
    """Sensitivity of the target history to the delay-estimate error.

    Per wavenumber the profile is a finite exponential series along the
    axial coordinate; each series coefficient couples the sine transform of
    the target state, the sine transform of its running inverse-Volterra
    integral, the full-span edge integral, and the root value of the target
    history.  ``state_drift`` is the sum of the state terms, which the
    control step's product already holds (the second half of the products
    :meth:`~cylform.controller.ChannelController.step` writes); the root value
    enters along ``edge_flow``, the kernel set's
    :attr:`~cylform.kernels.KernelSet.edge_flow`, or the channels' stacked
    like the tables.  Vanishes identically at the transformed equilibrium,
    making it a fixed point of the adaptation.
    """
    return state_drift - history[..., :1] * edge_flow


# ---------------------------------------------------------------------------
# update law


def update_signal(history: np.ndarray, drift: np.ndarray,
                  grid: CylinderGrid) -> float:
    """The signal driving the delay adaptation.

    Per channel, an inner product of the target history against its
    mismatch drift with the increasing axial weight ``1 + s`` (Simpson in
    the axial direction, exact angular pairing across modes).  The
    real-part pairing keeps the result real for complex-valued channels and
    reduces to the plain product on real ones.  Stacked channels add their
    shares, in order, since they observe one and the same physical delay.
    """
    paired = np.add.reduce((history * drift.conj()).real, axis=-2)
    shares = -4.0 * np.pi * np.add.reduce(paired * (1.0 + grid.s) * grid.simpson_s, axis=-1)
    return float(shares.sum())


def step_estimate(state: EstimatorState, signal: float) -> EstimatorState:
    """One forward-Euler update of the delay estimate, clipped to its bounds.

    A NaN signal leaves the estimate untouched (the run logs the signal and
    carries on); infinities park the estimate at the corresponding bound.
    The clip is the projection onto the admissible interval: a step outward
    from a bound, or past one, ends exactly on that bound.
    """
    signal = float(signal)
    if math.isnan(signal):
        return state
    moved = state.estimate + state.dt * state.gain * signal
    return replace(state, estimate=float(min(max(moved, state.lo), state.hi)))

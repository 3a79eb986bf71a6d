"""Delay-estimate adaptation: drift terms, update signal, projected stepping.

The delay estimate follows a scalar gradient-like law.  Each control period
every channel yields a *mismatch drift* profile (the sensitivity of the
target history to the estimate error); the inner product of the history
against that drift, taken with an increasing axial weight, is the update
signal.  A projection freezes the estimate at either bound when the signal
points outward, and one forward-Euler step moves it otherwise.

The drift is linear in the target state and in the history's root value.
Its state part comes out of the controller's one product per step, through
the kernel set's ``step_map`` (see :class:`~cylform.kernels.KernelSet`);
:func:`mismatch_drift` adds the root-value part, a rank-one table.

The companion *adaptation drift* (the sensitivity to the estimate's own
motion) never feeds back into the law; it is computed only for residual
diagnostics.  Its two cross terms are double sums over pairs of harmonics
of the predictor and inverse series.  Each pair sum is folded first onto
single-rate kernels (divided differences for well-separated rates, one
Taylor rule below the gap ``_TAYLOR_CUT``), so a call is a few contractions
over the whole mode table, with no loop over modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import CylinderGrid
from .kernels import KernelSet
from .quadrature import exp_conv_paired

__all__ = [
    "EstimatorState",
    "mismatch_drift",
    "adaptation_drift",
    "update_signal",
    "project",
    "step_estimate",
]

#: rate-gap magnitude below which both cross terms of the adaptation drift
#: (state and history) switch from divided differences to their Taylor
#: expansion in the gap.  On the history term the divided difference
#: amplifies the fixed interpolation error of the chained moment
#: convolutions by 1/gap while the Taylor branch holds it flat, so the
#: worst case over all gaps is minimized near 0.03 (measured ~7e-8 on a
#: constant profile).  The state term's kernels are exact exponentials;
#: there the Taylor branch truncates at gap^4, but the edge coefficients of
#: two coinciding harmonics vanish with their gap, so near pairs carry
#: little weight (the drift moved by <= 3e-13 relative against exact
#: phi-functions on the cases in ``tests/test_estimator.py``).
_TAYLOR_CUT = 3e-2


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
                   ks: KernelSet) -> np.ndarray:
    """Sensitivity of the target history to the delay-estimate error.

    Per wavenumber the profile is a finite exponential series along the
    axial coordinate; each series coefficient couples the sine transform of
    the target state, the sine transform of its running inverse-Volterra
    integral, the full-span edge integral, and the root value of the target
    history.  ``state_drift`` is the sum of the state terms, which the
    control step's product already holds
    (:attr:`~cylform.controller.ChannelUpdate.state_drift`); the root value
    enters along ``ks.edge_flow``.  Vanishes identically at the transformed
    equilibrium, making it a fixed point of the adaptation.
    """
    return state_drift - history[:, :1] * ks.edge_flow


def _pair_coefficients(w: np.ndarray, a: np.ndarray,
                       delta: np.ndarray) -> tuple[np.ndarray, ...]:
    """Fold a harmonic pair sum onto the single-rate kernels of each side.

    A cross term is ``sum_ij w_ij (X0_ij + a_i X1_ij)`` over pairs with the
    rate gap ``delta_ij = c_j - a_i``.  Far pairs take the divided
    differences ``X0 = (E^c_j - E^a_i)/delta`` and ``X1 = (X0 - M1_i)/delta``,
    near pairs (``|delta| < _TAYLOR_CUT``) the Taylor expansion
    ``X0 = M1 + delta (M2/2 + delta (M3/6 + delta M4/24))``,
    ``X1 = M2/2 + delta (M3/6 + delta M4/24)``, with ``M_k`` the kernel of
    ``E^a`` times ``s^k``.  ``w`` is ``(..., i, j)``, ``a`` ``(..., i)`` and
    ``delta`` ``(i, j)``; returns the coefficients on ``E^a_i`` and
    ``M1_i .. M4_i`` (each ``(..., i)``) and on ``E^c_j`` (``(..., j)``).
    """
    near = np.abs(delta) < _TAYLOR_CUT
    inv = np.where(near, 0.0, 1.0 / np.where(near, 1.0, delta))  # far 1/delta
    tables = np.stack([inv, inv**2] + [near * delta**k for k in range(4)])
    f1, f2, n0, n1, n2, n3 = np.einsum("...ij,kij->k...i", w, tables)
    on_c = np.einsum("...ij,ij->...j", w, inv) \
        + np.einsum("...ij,...i,ij->...j", w, a, inv**2)
    return (-(f1 + a * f2), n0 - a * f1, (n1 + a * n0) / 2.0,
            (n2 + a * n1) / 6.0, (n3 + a * n2) / 24.0, on_c)


def adaptation_drift(target: np.ndarray, history: np.ndarray,
                     ks: KernelSet) -> np.ndarray:
    """Sensitivity of the target history to the estimate's rate of change.

    Four contributions per wavenumber: the explicit estimate-derivative of
    the predictor series against the state (plus its inverse-Volterra
    composition), the cross product of the lag kernel's estimate derivative
    with the inverse predictor series against the state, and the plain and
    cross-convolved lag-kernel derivatives against the history itself.
    Each cross term is folded by :func:`_pair_coefficients` onto single-rate
    kernels -- closed-form exponentials against the state, running
    convolutions of the history -- and contracted over the whole table.
    Diagnostics only -- the update signal never reads this.
    """
    grid = ks.grid
    basis = ks.basis
    s = grid.s
    absn = np.abs(grid.modes)
    a = ks.rates[absn]                                      # (modes, i)
    c = ks.inv_rates[absn]                                  # (modes, j)
    # the gap c_j - a_i is the same for every wavenumber
    delta = ks.inv_rates[0][None, :] - ks.rates[0][:, None]  # (i, j)
    sw = target @ basis.mode_sine.T                         # (modes, i)
    cw = target @ basis.composition.T                       # (modes, i)

    # state term: E^a = e^{as}, E^c = e^{cs}, M_k = s^k e^{as}
    *on_a, on_c = _pair_coefficients(
        -4.0 * basis.fwd_edge[:, None] * (basis.inv_sine * sw)[:, None, :],
        a, delta)
    on_a[1] = on_a[1] + (2.0 / ks.delay) * a * basis.fwd_sine * (sw + cw)
    per_power = np.stack(on_a, axis=1) @ ks.exp_s[absn]     # (modes, 5, M)
    state = (per_power * s ** np.arange(5)[:, None]).sum(axis=1) \
        + np.einsum("nj,njm->nm", on_c, np.exp(c[:, :, None] * s))

    # history term: the same kernels as running convolutions of the history
    *on_a, on_c = _pair_coefficients(
        4.0 * ks.delay * np.multiply.outer(basis.fwd_edge, basis.inv_edge),
        a, delta)
    on_a[0] = on_a[0] - 2.0 * basis.fwd_edge
    on_a[1] = on_a[1] - 2.0 * basis.fwd_edge * a
    h, ak = grid.h_s, a[..., None]
    e_a = exp_conv_paired(a, history, h)                    # (modes, i, M)
    m1 = exp_conv_paired(ak, e_a, h)[..., 0, :]
    m2 = 2.0 * exp_conv_paired(ak, m1, h)[..., 0, :]
    m3 = 3.0 * exp_conv_paired(ak, m2, h)[..., 0, :]
    m4 = 4.0 * exp_conv_paired(ak, m3, h)[..., 0, :]
    hist = np.einsum("nki,nkim->nm", np.stack(on_a, axis=1),
                     np.stack([e_a, m1, m2, m3, m4], axis=1)) \
        + np.einsum("nj,njm->nm", on_c, exp_conv_paired(c, history, h))
    return state + hist


# ---------------------------------------------------------------------------
# update law


def update_signal(history: np.ndarray, drift: np.ndarray,
                  grid: CylinderGrid) -> float:
    """One channel's share of the signal driving the delay adaptation.

    An inner product of the target history against its mismatch drift with
    the increasing axial weight ``1 + s`` (Simpson in the axial direction,
    exact angular pairing across modes).  The real-part pairing keeps the
    result real for complex-valued channels and reduces to the plain product
    on real ones; both channels add their share, since they observe one and
    the same physical delay.
    """
    paired = np.real(history * np.conj(drift)).sum(axis=0)
    return float(-4.0 * np.pi * np.sum(paired * (1.0 + grid.s) * grid.simpson_s))


def project(estimate: float, signal: float, lo: float, hi: float) -> float:
    """Gate the update signal at an active bound.

    Exact float comparison on purpose: the Euler step parks the estimate
    exactly on a bound when it clips, and only a parked estimate may gate.
    """
    if estimate == lo and signal < 0.0:
        return 0.0
    if estimate == hi and signal > 0.0:
        return 0.0
    return float(signal)


def step_estimate(state: EstimatorState, signal: float) -> EstimatorState:
    """One forward-Euler update of the delay estimate.

    A NaN signal leaves the estimate untouched (the run logs the signal and
    carries on); infinities park the estimate at the corresponding bound.
    The clip guards single-step Euler overshoot past a bound -- the
    projection alone only freezes an estimate already sitting there.
    """
    signal = float(signal)
    if math.isnan(signal):
        return state
    moved = state.estimate + state.dt * state.gain * project(
        state.estimate, signal, state.lo, state.hi
    )
    return replace(state, estimate=float(min(max(moved, state.lo), state.hi)))

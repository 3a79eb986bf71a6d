"""Delay-estimate adaptation: drift terms, update signal, projected stepping.

The delay estimate follows a scalar gradient-like law.  Each control period
the target-state pair of every channel is folded into a *mismatch drift*
profile (the sensitivity of the target history to the estimate error); the
inner product of the history against that drift, taken with an increasing
axial weight, is the update signal.  A projection freezes the estimate at
either bound when the signal points outward, and one forward-Euler step
moves it otherwise.

The companion *adaptation drift* (the sensitivity to the estimate's own
motion) never feeds back into the law -- it is computed only for residual
diagnostics -- so its implementation favors clarity over speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import CylinderGrid, ModeStack
from .kernels import KernelSet
from .quadrature import exp_conv_paired, phi_funcs, simpson_weights

__all__ = [
    "EstimatorState",
    "mismatch_drift",
    "adaptation_drift",
    "update_signal",
    "project",
    "step_estimate",
    "cross_exp_table",
    "cross_exp_conv",
]

#: rate-gap magnitude below which the cross convolutions switch from
#: divided differences to their Taylor expansion.  The divided difference
#: amplifies the fixed interpolation error of the chained moments by
#: 1/gap while the Taylor branch holds it flat, so the worst case over
#: all gaps is minimized near 0.03 (measured ~7e-8 on a constant profile).
_TAYLOR_CUT = 3e-2


@dataclass(frozen=True)
class EstimatorState:
    """Scalar adaptation state: the current estimate and the law's constants.

    ``gain`` is the adaptation rate (open unit interval), ``dt`` the update
    period, ``last_signal`` the most recent update signal (kept for logging).
    """

    estimate: float
    lo: float
    hi: float
    gain: float
    dt: float
    last_signal: float = 0.0

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


def mismatch_drift(target: ModeStack, history: ModeStack,
                   ks: KernelSet) -> ModeStack:
    """Sensitivity of the target history to the delay-estimate error.

    Per wavenumber the profile is a finite exponential series along the
    axial coordinate; each series coefficient couples the sine transform of
    the target state, the sine transform of its running inverse-Volterra
    integral, the full-span edge integral, and the root value of the target
    history.  Vanishes identically at the transformed equilibrium, making it
    a fixed point of the adaptation.
    """
    grid = target.grid
    basis = ks.basis
    rows = np.abs(grid.modes)
    rates = ks.rates[rows]                                  # (N, i)
    sw = target.coeffs @ basis.mode_sine.T                  # (N, i)
    cw = target.coeffs @ basis.composition.T                # (N, i)
    edge = target.coeffs @ basis.edge_weights               # (N,)
    rho = (2.0 / ks.delay) * rates * basis.fwd_sine[None, :] * (sw + cw) \
        - 2.0 * basis.fwd_edge[None, :] \
        * (edge + history.coeffs[:, 0])[:, None]
    return ModeStack(grid, ks.apply(rho, ks.exp_s))


def cross_exp_table(a_rates: np.ndarray, c_rates: np.ndarray,
                    s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sliding cross products of two exponential kernels on ``[0, s]``.

    Entry ``[i, j, r]`` of the first array is
    ``int_0^{s_r} exp(a_i (s_r - x)) exp(c_j x) dx``; the second carries an
    extra ``(s_r - x)`` factor.  Divided differences of the two exponentials
    for well-separated rates, phi-functions near coincidence -- the gap
    times s can reach tens of thousands, where the direct phi form would
    overflow into 0 * inf.
    """
    a = np.asarray(a_rates, dtype=complex)
    c = np.asarray(c_rates, dtype=complex)
    s = np.asarray(s, dtype=float)
    delta = c[None, :, None] - a[:, None, None]             # (i, j, 1)
    ea = np.exp(a[:, None, None] * s)                       # (i, 1, M)
    x = delta * s                                           # (i, j, M)
    near = np.abs(x) < 0.5
    p1 = np.zeros_like(x)
    p2 = np.zeros_like(x)
    p1[near], p2[near] = phi_funcs(x[near])
    g0_near = s * ea * p1
    g1_near = s**2 * ea * p2
    dsafe = np.where(near, 1.0, np.broadcast_to(delta, x.shape))
    ec = np.exp(c[None, :, None] * s)                       # (1, j, M)
    g0_far = (ec - ea) / dsafe
    g1_far = (g0_far - s * ea) / dsafe
    g0 = np.where(near, g0_near, g0_far)
    g1 = np.where(near, g1_near, g1_far)
    return g0, g1


def cross_exp_conv(a_rates: np.ndarray, c_rates: np.ndarray,
                   values: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Running convolutions of a profile with the sliding cross products.

    Returns ``(conv0, conv1)`` of shape ``(i, j, M)``: the convolution of
    ``values`` with each entry produced by :func:`cross_exp_table`, at every
    node.  Well-separated rates use divided differences of single-rate
    convolutions; below the rate gap ``_TAYLOR_CUT`` a short Taylor expansion in
    the gap takes over (chained first-through-fourth moment convolutions),
    which keeps the result finite and accurate through an exactly vanishing
    gap.
    """
    a = np.asarray(a_rates, dtype=complex)
    c = np.asarray(c_rates, dtype=complex)
    i0a = exp_conv_paired(a, values, h)                     # (i, M)
    i0c = exp_conv_paired(c, values, h)                     # (j, M)
    moments = [i0a]
    for k in (1, 2, 3, 4):
        moments.append(k * exp_conv_paired(a[:, None], moments[-1], h)[:, 0])
    i1, i2, i3, i4 = moments[1:]

    delta = c[None, :] - a[:, None]                         # (i, j)
    small = np.abs(delta) < _TAYLOR_CUT
    dsafe = np.where(small, 1.0, delta)[..., None]
    d = delta[..., None]
    conv0_dd = (i0c[None, :, :] - i0a[:, None, :]) / dsafe
    conv0_ty = i1[:, None, :] + d * (
        i2[:, None, :] / 2.0 + d * (i3[:, None, :] / 6.0 + d * i4[:, None, :] / 24.0)
    )
    conv0 = np.where(small[..., None], conv0_ty, conv0_dd)
    conv1_dd = (conv0 - i1[:, None, :]) / dsafe
    conv1_ty = i2[:, None, :] / 2.0 + d * (
        i3[:, None, :] / 6.0 + d * i4[:, None, :] / 24.0
    )
    conv1 = np.where(small[..., None], conv1_ty, conv1_dd)
    return conv0, conv1


def adaptation_drift(target: ModeStack, history: ModeStack,
                     ks: KernelSet) -> ModeStack:
    """Sensitivity of the target history to the estimate's rate of change.

    Four contributions per wavenumber: the explicit estimate-derivative of
    the predictor series against the state (plus its inverse-Volterra
    composition), the cross product of the lag kernel's estimate derivative
    with the inverse predictor series against the state, and the plain and
    cross-convolved lag-kernel derivatives against the history itself.
    Diagnostics only -- the update signal never reads this.
    """
    grid = target.grid
    basis = ks.basis
    s = grid.s
    absn = np.abs(grid.modes)
    sw = target.coeffs @ basis.mode_sine.T                  # (N, i)
    cw = target.coeffs @ basis.composition.T                # (N, i)
    out = np.empty_like(target.coeffs)
    for a_idx in np.unique(absn):
        rows = np.flatnonzero(absn == a_idx)
        ra = ks.rates[a_idx]
        rc = ks.inv_rates[a_idx]
        exp_a = ks.exp_s[a_idx]                             # (i, M)
        g0, g1 = cross_exp_table(ra, rc, s)
        state_cross = g0 + ra[:, None, None] * g1           # (i, j, M)
        for r in rows:
            h_row = history.coeffs[r]
            part_a = (2.0 / ks.delay) * np.einsum(
                "i,im->m",
                ra * basis.fwd_sine * (sw[r] + cw[r]),
                s[None, :] * exp_a,
            )
            part_b = -4.0 * np.einsum(
                "i,j,ijm->m", basis.fwd_edge, basis.inv_sine * sw[r], state_cross
            )
            i0 = exp_conv_paired(ra, h_row, grid.h_s)
            i1 = exp_conv_paired(ra[:, None], i0, grid.h_s)[:, 0]
            part_c = -2.0 * np.einsum(
                "i,im->m", basis.fwd_edge, i0 + ra[:, None] * i1
            )
            conv0, conv1 = cross_exp_conv(ra, rc, h_row, grid.h_s)
            part_d = 4.0 * ks.delay * np.einsum(
                "i,j,ijm->m",
                basis.fwd_edge,
                basis.inv_edge,
                conv0 + ra[:, None, None] * conv1,
            )
            out[r] = part_a + part_b + part_c + part_d
    return ModeStack(grid, out)


# ---------------------------------------------------------------------------
# update law


def update_signal(history: ModeStack, drift: ModeStack,
                  grid: CylinderGrid) -> float:
    """One channel's share of the signal driving the delay adaptation.

    An inner product of the target history against its mismatch drift with
    the increasing axial weight ``1 + s`` (Simpson in the axial direction,
    exact angular pairing across modes).  The real-part pairing keeps the
    result real for complex-valued channels and reduces to the plain product
    on real ones; both channels add their share, since they observe one and
    the same physical delay.
    """
    w = simpson_weights(grid.M, grid.h_s)
    paired = np.real(history.coeffs * np.conj(drift.coeffs)).sum(axis=0)
    return float(-4.0 * np.pi * np.sum(paired * (1.0 + grid.s) * w))


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
        return replace(state, last_signal=signal)
    moved = state.estimate + state.dt * state.gain * project(
        state.estimate, signal, state.lo, state.hi
    )
    return replace(
        state,
        estimate=float(min(max(moved, state.lo), state.hi)),
        last_signal=signal,
    )

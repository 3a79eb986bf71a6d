"""Row-by-row adaptation drift, the way the package first assembled it.

For each wavenumber row the two cross terms are built as full
``(i, j, M)`` tables: the state term from sliding cross products of the two
exponential kernels (phi-functions near a rate coincidence, divided
differences elsewhere), the history term from running convolutions of the
row's history with those cross products.  The package contracts the same
pair sums over the whole mode table at once; this module is what it is
checked against.
"""

from __future__ import annotations

import numpy as np

from cylform.estimator import _TAYLOR_CUT
from cylform.kernels import KernelSet
from cylform.quadrature import exp_conv_paired


def phi_funcs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First two phi-functions of exponential integrators.

    ``phi1(x) = (e^x - 1)/x`` and ``phi2(x) = (e^x - 1 - x)/x^2``, continued
    through ``x = 0`` by their power series (used below ``|x| = 0.5`` where
    the closed forms cancel).  Cross products of two exponentials over a
    sliding interval reduce to these, which is how the adaptation-drift
    tables stay finite when two rates coincide.
    """
    x = np.asarray(x, dtype=complex)
    p1 = np.empty_like(x)
    p2 = np.empty_like(x)
    small = np.abs(x) < 0.5
    if np.any(small):
        xs = x[small]
        t1 = np.zeros_like(xs)
        t2 = np.zeros_like(xs)
        term = np.ones_like(xs)
        fact = 1.0
        for q in range(16):
            if q > 0:
                fact *= q
                term = term * xs
            t1 += term / (fact * (q + 1))
            t2 += term / (fact * (q + 1) * (q + 2))
        p1[small], p2[small] = t1, t2
    big = ~small
    if np.any(big):
        xb = x[big]
        e = np.exp(xb)
        p1[big] = (e - 1.0) / xb
        p2[big] = (e - 1.0 - xb) / xb**2
    return p1, p2


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


def adaptation_drift(target: np.ndarray, history: np.ndarray,
                     ks: KernelSet) -> np.ndarray:
    """Sensitivity of the target history to the estimate's rate of change.

    Four contributions per wavenumber: the explicit estimate-derivative of
    the predictor series against the state (plus its inverse-Volterra
    composition), the cross product of the lag kernel's estimate derivative
    with the inverse predictor series against the state, and the plain and
    cross-convolved lag-kernel derivatives against the history itself.
    Diagnostics only -- the update signal never reads this.
    """
    grid = ks.grid
    basis = ks.basis
    s = grid.s
    absn = np.abs(grid.modes)
    sw = target @ basis.mode_sine.T                         # (N, i)
    cw = target @ basis.composition.T                       # (N, i)
    out = np.empty(target.shape, dtype=complex)
    for a_idx in np.unique(absn):
        rows = np.flatnonzero(absn == a_idx)
        ra = ks.rates[a_idx]
        rc = ks.inv_rates[a_idx]
        exp_a = ks.exp_s[a_idx]                             # (i, M)
        g0, g1 = cross_exp_table(ra, rc, s)
        state_cross = g0 + ra[:, None, None] * g1           # (i, j, M)
        for r in rows:
            h_row = history[r]
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
    return out

"""Reference control step built the way the package first computed it.

Every map here is rebuilt from the running exponential convolution
:func:`cylform.quadrature.exp_conv_paired` on each call -- the history map
from the convolution of the identity, the command law and the target
history from the convolution of the whole mode table, the rim node's weight
in the command law from a fresh pair-weight build, the transport from one
scalar delay-line read per node, and the mismatch drift from a per-mode copy
of the exponential tables.  The production path precomputes the same maps
per kernel set in closed form; these functions are what it is checked
against.  :func:`install` swaps them into the package so that a whole run
can be replayed on the reference step.
"""

import numpy as np

from cylform import controller, runner
from cylform.quadrature import exp_conv_paired, exp_pair_weights
from oracles.delay_lookup import lookup


def history_map(ks, n):
    """Dense history map of mode ``n`` from the convolution of the identity."""
    m = ks.grid.M
    conv = exp_conv_paired(ks.rates[abs(n)], np.eye(m), ks.grid.h_s)
    return np.eye(m, dtype=complex) + 2.0 * ks.delay * np.einsum(
        "i,jir->rj", ks.basis.fwd_edge, conv)


def reconstruct_transport(line, t, delay_estimate, grid, advection=0.0):
    times = t + delay_estimate * (grid.s - 1.0)
    rows = np.stack([lookup(line, tt) for tt in times])
    return rows.T * np.exp(0.5 * advection)


def state_prediction(measured, ks):
    sw = measured @ ks.basis.mode_sine.T
    rows = np.abs(ks.grid.modes)
    return 2.0 * np.einsum("ni,nim->nm",
                           sw * ks.basis.fwd_sine[None, :], ks.exp_s[rows])


def to_target_history(transport, measured, ks):
    grid = ks.grid
    rates = ks.rates[np.abs(grid.modes)]
    conv = exp_conv_paired(rates, transport, grid.h_s)
    hist = np.einsum("i,nim->nm", ks.basis.fwd_edge, conv)
    return transport - state_prediction(measured, ks) + 2.0 * ks.delay * hist


def control_modes(measured, transport, ks):
    grid = ks.grid
    rows = np.abs(grid.modes)
    rates = ks.rates[rows]
    pred_rim = state_prediction(measured, ks)[:, -1]
    vals = transport.copy()
    vals[:, -1] = 0.0
    tail = exp_conv_paired(rates, vals, grid.h_s)[:, :, -1]
    numer = pred_rim - 2.0 * ks.delay * (tail @ ks.basis.fwd_edge)
    endpoint_w = exp_pair_weights(rates, grid.h_s)[0]
    denom = 1.0 + 2.0 * ks.delay * (endpoint_w @ ks.basis.fwd_edge)
    return numer / denom


def rim_solve(history, ks):
    """Command law on a history image whose transport rim node is zero.

    The rim node's weight in the rim row is the pair weight of the newest
    node, rebuilt here from :func:`exp_pair_weights`.
    """
    grid = ks.grid
    rates = ks.rates[np.abs(grid.modes)]
    endpoint_w = exp_pair_weights(rates, grid.h_s)[0]
    denom = 1.0 + 2.0 * ks.delay * (endpoint_w @ ks.basis.fwd_edge)
    return -history[:, -1] / denom


def mismatch_drift(target, history, ks):
    basis = ks.basis
    rows = np.abs(ks.grid.modes)
    rates = ks.rates[rows]
    sw = target @ basis.mode_sine.T
    cw = target @ basis.composition.T
    edge = target @ basis.edge_weights
    rho = (2.0 / ks.delay) * rates * basis.fwd_sine[None, :] * (sw + cw) \
        - 2.0 * basis.fwd_edge[None, :] \
        * (edge + history[:, 0])[:, None]
    return np.einsum("ni,nim->nm", rho, ks.exp_s[rows])


def install(monkeypatch):
    """Route the controller and the runner through the reference step."""
    for name in ("reconstruct_transport", "to_target_history"):
        monkeypatch.setattr(controller, name, globals()[name])
    monkeypatch.setattr(controller, "control_modes", rim_solve)
    monkeypatch.setattr(runner, "mismatch_drift", mismatch_drift)

"""Reference control step built the way the package first computed it.

Every map here is rebuilt from the running exponential convolution
:func:`cylform.quadrature.exp_conv_paired` on each call -- the history map
from the convolution of the identity, the command law and the target
history from the convolution of the whole mode table, the rim node's weight
in the command law from a fresh pair-weight build, the transport from one
scalar delay-line read per node, and the mismatch drift from a per-mode copy
of the exponential tables.  The production path precomputes the same maps
per kernel set in closed form and folds them into one product with
``KernelSet.step_map``; these functions are what it is checked against.
:func:`install` swaps them into the package so that a whole run can be
replayed on the reference step.
"""

import sys
from collections import Counter

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


def reconstruct_transport(line, t, delay_estimate, grid, gain=1.0):
    times = t + delay_estimate * (grid.s - 1.0)
    rows = np.stack([lookup(line, tt) for tt in times])
    return rows.T * gain


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


def step_images(transport, measured, ks):
    """Target history and the drift's state part, as
    :func:`cylform.controller.step_images` returns them: the history of
    :func:`to_target_history`, and the :func:`mismatch_drift` of the target
    state with a zero history."""
    history = to_target_history(transport, measured, ks)
    target = controller.to_target_state(measured, ks)
    return history, mismatch_drift(target, np.zeros_like(history), ks)


def finish_drift(state_drift, history, ks):
    """The history's share of the drift, :func:`mismatch_drift` of a zero
    target state, added to the state part."""
    return state_drift + mismatch_drift(np.zeros_like(history), history, ks)


def install(monkeypatch):
    """Route the controller and the runner through the reference step.

    Returns a :class:`~collections.Counter` of the calls made to the
    reference functions by name, so a replay can show that it ran them.
    """
    calls = Counter()

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    here = sys.modules[__name__]
    for name in ("to_target_history", "mismatch_drift"):
        monkeypatch.setattr(here, name, counted(getattr(here, name)))
    monkeypatch.setattr(controller, "reconstruct_transport",
                        counted(reconstruct_transport))
    monkeypatch.setattr(controller, "step_images", counted(step_images))
    monkeypatch.setattr(controller, "control_modes", counted(rim_solve))
    monkeypatch.setattr(runner, "mismatch_drift", counted(finish_drift))
    return calls

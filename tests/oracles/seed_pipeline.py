"""Reference control step built the way the package first computed it.

Every map here is rebuilt from the running exponential convolution
:func:`oracles.running_conv.exp_conv_paired` on each call -- the history map
from the convolution of the identity, the command law and the target
history from the convolution of the whole mode table, the rim node's weight
in the command law from a fresh pair-weight build, the transport from one
scalar delay-line read per node (no read table), and the mismatch drift from a per-mode copy
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
from cylform.quadrature import exp_pair_weights
from oracles.delay_lookup import lookup
from oracles.running_conv import exp_conv_paired


def history_map(ks, n):
    """Dense history map of mode ``n`` from the convolution of the identity."""
    m = ks.grid.M
    conv = exp_conv_paired(ks.rates[abs(n)], np.eye(m), ks.grid.h_s)
    return np.eye(m, dtype=complex) + 2.0 * ks.delay * np.einsum(
        "i,jir->rj", ks.basis.fwd_edge, conv)


def reconstruct_transport(line, t, delay_estimate, grid, gain=1.0, table=None, out=None):
    """The in-flight table read one node at a time, all of the line's row
    at once (every channel of a run's line), and written to ``out`` when
    given; ``table``, the production read table, is not used."""
    times = t + delay_estimate * (grid.s - 1.0)
    rows = np.stack([lookup(line, tt) for tt in times])
    return np.multiply(rows.T, gain, out=out)


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


def step_images(transport, measured, ks, out=None):
    """Target history and the drift's state part, the halves of the
    products :meth:`cylform.controller.ChannelController.step` writes: the
    history of :func:`to_target_history`, and the :func:`mismatch_drift` of
    the target state with a zero history, written to the halves of ``out``
    when given."""
    history = to_target_history(transport, measured, ks)
    target = controller.to_target_state(measured, ks)
    drift = mismatch_drift(target, np.zeros_like(history), ks)
    if out is None:
        return history, drift
    m = ks.grid.M
    out[:, :m], out[:, m:] = history, drift
    return out[:, :m], out[:, m:]


def finish_drift(state_drift, history, sets):
    """The history's share of the drift, :func:`mismatch_drift` of a zero
    target state, added to the state part; the tables stack the channels,
    and ``sets`` holds each channel's kernel set."""
    return state_drift + np.stack([mismatch_drift(np.zeros_like(h), h, ks)
                                   for h, ks in zip(history, sets)])


def install(monkeypatch):
    """Route the controller and the runner through the reference step.

    The controller's window read receives the channels' gains and the
    run's drift call their stacked edge flows; the reference forms each
    channel's gain from its kernel set's advection.  The controller's one
    step per control step hands the reference each channel's tables: each
    channel's update runs :func:`step_images` on its ``[transport |
    measured]`` table and hands the step its row pairs' parts to scatter,
    the rim solve :func:`rim_solve` per channel on the kernel sets of the
    step, and so does the drift.  Returns a :class:`~collections.Counter` of the calls made to
    the reference functions by name, so a replay can show that it ran them.
    """
    calls, sets = Counter(), []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    def step(self, *args):
        sets[:] = self.kernels.sets
        return controller_step(self, *args)

    def transport(line, t, delay_estimate, grid, gain=1.0, table=None, out=None):
        gains = np.repeat([np.exp(0.5 * ks.basis.coeffs.advection) for ks in sets],
                          grid.modes.size)
        return read(line, t, delay_estimate, grid, gains[:, None], out=out)

    def update(self, c, table, split, out):
        ks, m = self.kernels.sets[c], self.grid.M
        images = np.empty(table.shape, dtype=complex)
        reference_images(table[:, :m], table[:, m:], ks, images)
        rows = images[self.grid.mode_pairs]
        out[:, :2], out[:, 2:] = rows.real, rows.imag

    def modes(history, rim_weight):
        return np.stack([solve(h, ks) for h, ks in zip(history, sets)])

    def drift(state_drift, history, edge_flow):
        return finish(state_drift, history, sets)

    read, finish = counted(reconstruct_transport), counted(finish_drift)
    reference_images, solve = counted(step_images), counted(rim_solve)
    here = sys.modules[__name__]
    for name in ("to_target_history", "mismatch_drift"):
        monkeypatch.setattr(here, name, counted(getattr(here, name)))
    # the gains depend only on the channels' bases: the window read before
    # the first step takes them from the sets the controller is built with
    controller_step = controller.ChannelController.step
    controller_init = controller.ChannelController.__init__

    def construct(self, *args, **kwargs):
        controller_init(self, *args, **kwargs)
        sets[:] = self.kernels.sets

    monkeypatch.setattr(controller.ChannelController, "__init__", construct)
    monkeypatch.setattr(controller.ChannelController, "step", step)
    monkeypatch.setattr(controller, "reconstruct_transport", transport)
    monkeypatch.setattr(controller.ChannelController, "update", update)
    monkeypatch.setattr(controller, "control_modes", modes)
    monkeypatch.setattr(runner, "mismatch_drift", drift)
    return calls

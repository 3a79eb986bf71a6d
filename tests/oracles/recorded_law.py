"""The command law with its history integral taken on the raw record lattice.

The package takes the rim command from the target history on the axial
grid: the recorded commands are first resampled onto the axial nodes
(:func:`cylform.controller.reconstruct_transport`) and the history integral
is the pair-quadratic quadrature of :attr:`cylform.kernels.KernelSet.history_map`.
This is the same law with the history integral taken where the records
live, as exact exponential moments of their linear interpolant.  It is the
reference the closed-form lattice weights of a record-lattice law are
checked against.
"""

import weakref

import numpy as np

from cylform.quadrature import _exp_moments, exp_lin_weights
from oracles.delay_lookup import lookup_many

#: lattice weights per kernel set, ``(record spacing, weights)``; an entry
#: depends only on its set and spacing, so callers cannot disturb each other
_LATTICE_CACHE = weakref.WeakKeyDictionary()


def exp_lattice_weights(z: np.ndarray, h: float, span: float) -> np.ndarray:
    """Weights ``W`` with ``W @ v = int_0^span exp(z*x) v(x) dx``.

    ``v`` is piecewise *linear* on the lattice ``x_j = j*h`` -- the natural
    model for a signal recorded at a fixed cadence -- and the kernel is
    integrated against that interpolant exactly, interval by interval.  The
    span need not be a lattice multiple: a trailing partial interval keeps
    the chord of its covering pair and clips the kernel at ``span``.  Shape:
    ``z.shape + (n,)`` with ``n`` the smallest node count covering the span.
    """
    if h <= 0 or span <= 0:
        raise ValueError("lattice spacing and span must be positive")
    z = np.asarray(z, dtype=complex)
    n_full = int(np.floor(span / h + 1e-9))
    rem = span - n_full * h
    if rem < 1e-9 * h:
        rem = 0.0
    n = n_full + (2 if rem > 0.0 else 1)
    out = np.zeros(z.shape + (n,), dtype=complex)
    if n_full > 0:
        a, b = exp_lin_weights(z, h)
        # Flip the orientation: against e^{zx} the left node pairs with b.
        starts = np.exp(np.multiply.outer(z, h * np.arange(n_full)))
        out[..., :n_full] += starts * b[..., None]
        out[..., 1:n_full + 1] += starts * a[..., None]
    if rem > 0.0:
        m0, m1, _ = _exp_moments(z * rem)
        base = np.exp(z * (n_full * h))
        out[..., n_full] += base * (rem * m0 - (rem * rem / h) * m1)
        out[..., n_full + 1] += base * (rem * rem / h) * m1
    return out


def command_lattice(ks, dt_record: float) -> np.ndarray:
    """History weights on the raw command-record lattice, per ``|n|`` row.

    ``w[a, j]`` multiplies the scaled command recorded ``j`` steps ago so
    that ``sum_j w[a, j] * cmd(t - j*dt)`` is the edge-kernel history
    integral of the command law for wavenumber row ``a``; ``j = 0`` is
    the slot of the command being solved for.  Integrating the records
    where they live -- instead of resampling them onto the sparser axial
    grid -- keeps the command recursion from amplifying record-rate
    components that a coarse resampling would alias into the band the
    kernel weights heavily.  Cached per kernel set and spacing.
    """
    if dt_record <= 0.0:
        raise ValueError(f"record spacing must be positive, got {dt_record}")
    cached = _LATTICE_CACHE.get(ks)
    if cached is None or cached[0] != float(dt_record):
        edge = ks.basis.fwd_edge
        rows = [
            2.0 * (edge @ exp_lattice_weights(row / ks.delay,
                                              dt_record, ks.delay))
            for row in ks.rates
        ]
        cached = _LATTICE_CACHE[ks] = (float(dt_record), np.stack(rows))
    return cached[1]


def control_modes_recorded(measured, line, t, ks):
    """New command per mode from the raw record lattice, rim node implicit.

    Same law as :func:`cylform.controller.control_modes`, different
    quadrature for the history term: the recorded commands are integrated on
    their own lattice (exact exponential moments of the linear record
    interpolant) instead of being resampled onto the much sparser axial grid
    first.  The two routes do not agree to quadrature accuracy even in a
    one-shot evaluation: on a constant unit record history with zero state
    (reaction 12, advection 0.5, delay 1, mode 0) this route gives -78.7
    against -57.0 at 21 axial nodes and record spacing 0.01, and -96.6
    against -73.2 at 51 nodes and 0.0025.  Each route still moves by 5-15 %
    per halving of its own spacing (the lag kernel has an
    inverse-square-root singularity at zero lag), so neither is converged at
    these resolutions.  Inside the closed loop the command is a *recursion*
    on its own records, and the sparse resampling aliases record-rate
    components into the band the edge kernel amplifies -- the loop then
    grows regardless of how fine the axial grid or the record cadence is
    made individually.  Integrating where the records live removes the
    aliasing and the recursion inherits the decay of its continuous
    counterpart.

    Returns ``(cmd, denom, rhs)`` with ``cmd = rhs / denom``, so a caller
    that post-processes ``cmd`` can report the honest rim defect of the
    implicit solve as ``cmd * denom - rhs``.
    """
    grid = ks.grid
    rows = np.abs(grid.modes)
    w = command_lattice(ks, line.dt)[rows]                      # (modes, nodes)
    win = lookup_many(line, t - line.dt * np.arange(1, w.shape[1]))
    gain = np.exp(0.5 * ks.basis.coeffs.advection)
    lattice = win * gain                                        # (nodes-1, modes)
    sw = measured @ ks.basis.mode_sine.T
    pred_rim = 2.0 * np.einsum("ni,ni->n",
                               sw * ks.basis.fwd_sine[None, :],
                               ks.exp_s[rows][:, :, -1])
    rhs = pred_rim - np.einsum("nj,jn->n", w[:, 1:], lattice)
    denom = 1.0 + w[:, 0]
    return rhs / denom, denom, rhs

"""Dense physical-space realization of the rim control law.

The package computes the command per angular wavenumber.  This module
rebuilds the same command from the 2-D predictor kernel by quadrature over
the whole surface and over a uniform re-sampling of the in-flight window,
so it shares none of the spectral pipeline's per-mode operators and serves
as a dense cross-check of it.  The delay line holds band coefficient rows;
the law synthesizes the ones it reads back into ring profiles.
"""

import numpy as np

from cylform.quadrature import exp_weights, simpson_weights
from oracles.delay_lookup import lookup


def remove_advection(values, steady_values, advection, grid):
    """Scaled deviation of a field from its steady profile.

    Multiplying the deviation by ``exp(advection * s / 2)`` turns the
    advection term of the channel into a pure shift of the reaction rate,
    which is the form every kernel table assumes.  The controller applies
    the same lift to the rows of a mode table.
    """
    lift = np.exp(0.5 * advection * grid.s)
    return (np.asarray(values) - np.asarray(steady_values)) * lift[:, None]


def sine_basis(i_max, x):
    """Matrix ``sin(i*pi*x)`` with harmonic index down the rows."""
    freqs = np.pi * np.arange(1, i_max + 1)
    return np.sin(np.outer(freqs, x))


def rates_for_modes(ks, modes):
    """Growth-rate rows of ``ks`` aligned with an explicit wavenumber vector."""
    return ks.rates[np.abs(np.asarray(modes, dtype=int))]


def heat_ring_kernel(s, dtheta, delay, n_max):
    """Periodic heat kernel on the unit circle, truncated at ``|n| <= n_max``.

    Normalised so its angular integral is exactly 1 for every ``s``.
    """
    dtheta = np.asarray(dtheta, dtype=float)
    n = np.arange(1, n_max + 1)
    damping = np.exp(-delay * n**2 * s)
    return (1.0 + 2.0 * np.cos(np.multiply.outer(dtheta, n)) @ damping) / (2.0 * np.pi)


def predictor_kernel_2d(ks, s, tau, dtheta, n_max=None):
    """Physical-space predictor kernel: angular heat kernel times the
    wavenumber-zero axial series."""
    if n_max is None:
        n_max = ks.grid.N // 2
    tau = np.asarray(tau, dtype=float)
    ring = heat_ring_kernel(s, dtheta, ks.delay, n_max)
    axial = 2.0 * np.exp(ks.rates[0] * s) * ks.basis.fwd_sine @ sine_basis(
        ks.basis.i_max, tau
    )
    return np.multiply.outer(axial, ring)


def periodic_simpson_weights(n, h):
    """Alternating Simpson weights on a periodic grid with even ``n``.

    Integrates every grid harmonic exactly except the unpaired extreme one.
    """
    if n < 4 or n % 2:
        raise ValueError(f"periodic Simpson rule needs even n >= 4, got {n}")
    w = np.full(n, 2.0 * h / 3.0)
    w[1::2] = 4.0 * h / 3.0
    return w


def simpson_control(values, steady_values, line, t, ks, m_prime=51,
                    kind="complex"):
    """Rim profile (steady rim plus command) from dense physical quadrature.

    The state term integrates the 2-D kernel against the scaled deviation
    with a Simpson product rule (plain axially, alternating-periodic in the
    angle).  The history term re-samples recorded commands on ``m_prime``
    uniform nodes across the in-flight window and integrates each kernel
    harmonic with exponential product weights -- node sampling would face an
    inverse-square-root blow-up of the lag kernel at zero lag.  The newest
    node is the command being computed, so its circulant weight block moves
    to the left-hand side of a small dense solve.
    """
    grid = ks.grid
    if m_prime < 3 or m_prime % 2 == 0:
        raise ValueError(f"history node count must be odd and >= 3, got {m_prime}")
    adv = ks.basis.coeffs.advection
    scaled = remove_advection(values, steady_values, adv, grid)

    n, m = grid.N, grid.M
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n

    ws = simpson_weights(m, grid.h_s)
    wt = periodic_simpson_weights(n, grid.h_theta)
    k2d = predictor_kernel_2d(ks, 1.0, grid.s, grid.h_theta * np.arange(n))
    state_term = np.einsum("m,mjl,ml->j", ws, k2d[:, idx], wt[None, :] * scaled)

    # past commands, scaled, on the uniform in-flight window [t - delay, t]
    xs = np.linspace(0.0, 1.0, m_prime)
    gain = np.exp(0.5 * adv)
    past = np.stack([grid.synthesize_profile(lookup(line, t + ks.delay * (x - 1.0)))
                     for x in xs[:-1]])
    past = past * gain

    # exp_weights integrates against exp(a*x); the predictor weighs sample x
    # by exp(a*(1-x)), so flip the node axis (pairs map onto pairs: m' odd)
    w_hist = exp_weights(rates_for_modes(ks, grid.modes), m_prime,
                         1.0 / (m_prime - 1))[..., ::-1]          # (N, i_max, m')
    t_nk = np.einsum("i,nik->nk", ks.basis.fwd_edge, w_hist)
    e_nd = np.exp(1j * np.multiply.outer(grid.modes,
                                         grid.h_theta * np.arange(n)))
    g_kd = (-2.0 * ks.delay / n) * np.einsum("nk,nd->kd", t_nk, e_nd)
    hist_past = np.einsum("kjl,kl->j", g_kd[:-1][:, idx], past)

    rim_block = np.eye(n) - g_kd[-1][idx]
    cmd_scaled = np.linalg.solve(rim_block, state_term + hist_past)
    command = cmd_scaled * np.exp(-0.5 * adv)
    if kind == "real":
        command = command.real
    return np.asarray(steady_values)[-1] + command

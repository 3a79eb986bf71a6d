"""Quadrature helpers for kernel-weighted integrals on uniform grids.

Most integrals in this package have the shape ``int K(tau) v(tau) dtau`` where
``K`` is a closed-form kernel (often an exponential ``exp(z*tau)`` or a sine
``sin(i*pi*tau)`` with large rate/frequency) and ``v`` is a state profile known
only at the grid nodes.  Sampling oscillatory or boundary-layer kernels at the
nodes and applying a generic rule aliases badly once the kernel varies faster
than the grid, so instead we fix the state model -- piecewise quadratic on
node pairs, matching the resolution assumptions of composite Simpson -- and
integrate the kernel against that interpolant *exactly*.  The weights returned
here do precisely that; for ``z -> 0`` they reduce to the classic Simpson
weights, which is a handy sanity check.

All node counts are expected to be odd (even number of panels) unless noted.
"""

from __future__ import annotations

import numpy as np

# Terms kept in the small-argument series for the exponential moments; with
# |z*h| <= 1 the truncation error is below 1e-19.
_SERIES_TERMS = 24

# 1 / (q! (q + 1 + p)), the divisor of term q in the moment of x^p, with q!
# multiplied up term by term; shape (terms, 3, 1)
_SERIES_SCALE = 1.0 / (
    np.cumprod(np.maximum(np.arange(_SERIES_TERMS), 1.0))[:, None, None]
    * (np.arange(_SERIES_TERMS)[:, None, None] + np.arange(1.0, 4.0)[:, None]))


def simpson_weights(m: int, h: float) -> np.ndarray:
    """Composite Simpson weights for ``m`` nodes (odd) with spacing ``h``."""
    if m < 3 or m % 2 == 0:
        raise ValueError(f"Simpson rule needs an odd node count >= 3, got {m}")
    w = np.full(m, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def _exp_moments(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scaled moments ``int_0^1 x^p exp(u*x) dx`` for ``p = 0, 1, 2``.

    Evaluated in the unit variable; callers rescale by the panel width.  A
    Taylor series takes over below ``|u| = 1`` where the closed forms lose
    digits to cancellation.
    """
    u = np.asarray(u, dtype=complex)
    out = np.empty((3,) + u.shape, dtype=complex)

    small = np.abs(u) <= 1.0
    if np.any(small):
        # The three series share u^q and differ in one real divisor per
        # term.  numpy divides a complex by a real as the product with the
        # real's reciprocal, so scaling the float parts by the stacked
        # reciprocals is the same arithmetic in one product per term.
        us = u[small]
        acc = np.zeros((3, 2 * us.size))           # (re, im) interleaved
        upow = np.ones_like(us)
        for q in range(_SERIES_TERMS):
            if q > 0:
                upow = upow * us
            acc += upow.view(float) * _SERIES_SCALE[q]
        out[:, small] = acc.view(complex)
    big = ~small
    if np.any(big):
        ub = u[big]
        e = np.exp(ub)
        out[0, big] = (e - 1.0) / ub
        out[1, big] = (ub * e - e + 1.0) / ub**2
        out[2, big] = (ub**2 * e - 2.0 * ub * e + 2.0 * e - 2.0) / ub**3
    return out[0], out[1], out[2]


def exp_pair_weights(z: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node weights of ``int_0^{2h} exp(z*x) q(x) dx`` for quadratic ``q``.

    Returns the coefficients of the three nodes ``x = 0, h, 2h``.  ``z`` may be
    any complex array; the result broadcasts over it.
    """
    z = np.asarray(z, dtype=complex)
    width = 2.0 * h
    m0, m1, m2 = _exp_moments(z * width)
    # Un-scale: int x^p e^{zx} over [0, 2h] = (2h)^{p+1} * m_p(u).
    m0 = m0 * width
    m1 = m1 * width**2
    m2 = m2 * width**3
    w0 = (m2 - 3.0 * h * m1 + 2.0 * h**2 * m0) / (2.0 * h**2)
    w1 = (2.0 * h * m1 - m2) / h**2
    w2 = (m2 - h * m1) / (2.0 * h**2)
    return w0, w1, w2


def exp_lin_weights(z: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Node weights of ``int_0^h exp(z*(h - x)) q(x) dx`` for linear ``q``.

    ``h`` may be an array of widths that broadcasts against ``z``.
    """
    z = np.asarray(z, dtype=complex)
    m0, m1, _ = _exp_moments(z * h)
    # int e^{z(h-x)} (1 - x/h) dx = h * m1(u); int e^{z(h-x)} x/h dx = h*(m0 - m1).
    a = h * m1
    b = h * (m0 - m1)
    return a, b


def exp_half_weights(z: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node weights of ``int_0^h exp(z*(h - x)) q(x) dx`` for quadratic ``q``.

    ``q`` is the parabola through the nodes ``x = 0, h, 2h`` even though only
    the first half of that span is integrated; the kernel's exponent is
    measured from the half's upper end.  At ``z = 0`` this reduces to the
    classic half-interval rule ``(5h/12, 2h/3, -h/12)``.
    """
    z = np.asarray(z, dtype=complex)
    m0, m1, m2 = _exp_moments(z * h)
    e0 = m0 * h
    e1 = m1 * h**2
    e2 = m2 * h**3
    # Moments of x^p against e^{z(h-x)} on [0, h], via the flip y = h - x.
    mu0 = e0
    mu1 = h * e0 - e1
    mu2 = h**2 * e0 - 2.0 * h * e1 + e2
    g0 = (mu2 - 3.0 * h * mu1 + 2.0 * h**2 * mu0) / (2.0 * h**2)
    g1 = (2.0 * h * mu1 - mu2) / h**2
    g2 = (mu2 - h * mu1) / (2.0 * h**2)
    return g0, g1, g2


def exp_weights(z: np.ndarray, m: int, h: float) -> np.ndarray:
    """Weights ``W`` with ``W @ v = int_0^{(m-1)h} exp(z*tau) v(tau) dtau``.

    ``v`` is modelled as piecewise quadratic over consecutive node pairs, so
    ``m`` must be odd.  Shape: ``z.shape + (m,)``.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError(f"need an odd node count >= 3, got {m}")
    z = np.asarray(z, dtype=complex)
    w0, w1, w2 = exp_pair_weights(z, h)
    npairs = (m - 1) // 2
    starts = 2.0 * h * np.arange(npairs)
    # exp(z * tau_{2k}) prefactor for each pair.
    pref = np.exp(np.multiply.outer(z, starts))
    out = np.zeros(z.shape + (m,), dtype=complex)
    out[..., 0:m - 2:2] += pref * w0[..., None]
    out[..., 1:m - 1:2] += pref * w1[..., None]
    out[..., 2:m:2] += pref * w2[..., None]
    return out


def sine_weights(freqs: np.ndarray, m: int, h: float) -> np.ndarray:
    """Weights for ``int_0^{(m-1)h} sin(f*tau) v(tau) dtau`` (quadratic ``v``)."""
    return exp_weights(1j * np.asarray(freqs, dtype=float), m, h).imag


def interp_quadratic(values: np.ndarray, refine: int) -> np.ndarray:
    """Sample the piecewise-quadratic interpolant on a ``refine``-times grid.

    ``values`` has nodes on its last axis (odd count).  The output has
    ``refine * (m - 1) + 1`` nodes and reproduces the input at the originals.
    :class:`~cylform.kernels.KernelBasis` samples the nodal cardinal
    functions with it, so its refined-grid quadratures assume the same state
    model as the production weights.
    """
    values = np.asarray(values)
    m = values.shape[-1]
    if m % 2 == 0:
        raise ValueError("interp_quadratic expects an odd node count")
    npairs = (m - 1) // 2
    # Local coordinate 0..2 across each pair, sampled at refine*2 + 1 points.
    x = np.linspace(0.0, 2.0, 2 * refine + 1)
    l0 = 0.5 * (x - 1.0) * (x - 2.0)
    l1 = x * (2.0 - x)
    l2 = 0.5 * x * (x - 1.0)
    fine = np.empty(values.shape[:-1] + (refine * (m - 1) + 1,), dtype=values.dtype)
    for k in range(npairs):
        seg = (
            values[..., 2 * k, None] * l0
            + values[..., 2 * k + 1, None] * l1
            + values[..., 2 * k + 2, None] * l2
        )
        lo = 2 * refine * k
        fine[..., lo:lo + 2 * refine + 1] = seg
    return fine

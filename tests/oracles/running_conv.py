"""Running exponential convolution by its node-pair recurrence.

The package assembles the history map of a kernel set in closed form
(:class:`cylform.kernels.KernelSet`); this recurrence is the reference that
assembly, and the reference pipelines built on it, are checked against.
"""

from __future__ import annotations

import numpy as np

from cylform.quadrature import exp_half_weights, exp_pair_weights


def exp_conv_paired(z: np.ndarray, values: np.ndarray, h: float) -> np.ndarray:
    """Running convolution ``I(s_r) = int_0^{s_r} exp(z*(s_r - tau)) v(tau) dtau``.

    ``values`` holds ``v`` at the grid nodes along its last axis; ``z`` has
    shape ``(..., K)`` and ``values`` shape ``(..., M)``, and their leading
    axes broadcast against each other.  The result has shape
    ``(..., K, M)``: entry ``[..., k, r]`` convolves profile ``values[...]``
    with rate ``z[..., k]`` up to node ``r``.  One call therefore serves a
    single profile against a family of rates, or a whole stack of angular
    modes each carrying its own family.

    Every node value is the exact convolution of the piecewise-quadratic
    interpolant of ``v`` (breakpoints at even nodes): even rows advance by a
    full pair, odd rows by the first half of the covering pair.  The
    recurrence form keeps the update stable for arbitrarily stiff ``z``.
    """
    values = np.asarray(values)
    m = values.shape[-1]
    if m % 2 == 0:
        raise ValueError("exp_conv_paired expects an odd node count")
    z = np.asarray(z, dtype=complex)
    step = np.exp(z * h)
    step2 = np.exp(z * 2.0 * h)
    # Quadratic weights for int_0^{2h} e^{z(2h-x)} q(x) dx: reversing the
    # integration variable swaps the outer Lagrange basis functions.
    w0, w1, w2 = exp_pair_weights(z, h)
    c0, c1, c2 = w2, w1, w0
    g0, g1, g2 = exp_half_weights(z, h)

    lead = np.broadcast_shapes(z.shape[:-1], values.shape[:-1])
    k = z.shape[-1]
    out = np.zeros(lead + (k, m), dtype=complex)
    acc = np.zeros(lead + (k,), dtype=complex)
    v = values[..., None, :]  # broadcast profile across the rate axis
    for r in range(2, m, 2):
        out[..., r - 1] = acc * step + (
            g0 * v[..., r - 2] + g1 * v[..., r - 1] + g2 * v[..., r]
        )
        acc = acc * step2 + (
            c0 * v[..., r - 2] + c1 * v[..., r - 1] + c2 * v[..., r]
        )
        out[..., r] = acc
    return out


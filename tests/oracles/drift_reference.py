"""Independent reference evaluation of the estimator's mismatch drift.

Everything here is built from scratch on top of scipy: the Volterra kernel
edges come from scipy.special Bessel functions (not the package's own power
series), and harmonic coefficients come from QUADPACK's oscillatory sine
weighting instead of the production quadrature tables.  The only
structural assumption shared with the production code is the truncation
order of the harmonic series, which both sides must match term by term.

The manufactured interior profile is fixed at sin(pi*s), so its sine
expansion collapses to the first harmonic.
"""

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.special import i1, j1


def _edge_ratio(arg):
    """I1(sqrt(y))/sqrt(y), continued through y <= 0 via J1."""
    r = np.sqrt(abs(arg))
    if r < 1e-8:
        return 0.5
    if arg > 0.0:
        return i1(r) / r
    return j1(r) / r


def forward_edge(lam):
    """Forward Volterra kernel along its far edge, as a scalar callable."""

    def f(x):
        return -lam * x * _edge_ratio(lam * (1.0 - x * x))

    return f


def inverse_edge(lam):
    """Inverse Volterra kernel along its far edge."""

    def f(x):
        return -lam * x * _edge_ratio(-lam * (1.0 - x * x))

    return f


def sine_coefficients(f, i_max):
    """int_0^1 f(x) sin(i*pi*x) dx for i = 1..i_max via QUADPACK (QAWO)."""
    out = np.empty(i_max)
    for i in range(1, i_max + 1):
        out[i - 1] = quad(f, 0.0, 1.0, weight="sin", wvar=i * np.pi,
                          limit=400)[0]
    return out


def composed_profile(lam, nodes):
    """Running inverse-kernel integral of sin(pi*tau), sampled on nodes."""

    def lkern(xi, t):
        return -lam * t * _edge_ratio(-lam * (xi * xi - t * t))

    vals = np.empty(len(nodes))
    for m, xi in enumerate(nodes):
        if xi == 0.0:
            vals[m] = 0.0
            continue
        vals[m] = quad(lambda t: lkern(xi, t) * np.sin(np.pi * t),
                       0.0, xi, limit=200)[0]
    return vals


def composed_sine_coefficients(lam, i_max, n_nodes=801):
    """Sine coefficients of the running inverse-kernel integral of sin(pi*t).

    The profile is tabulated by adaptive quadrature on a fine grid, splined,
    and then projected onto each harmonic with the oscillatory-weight
    quadrature so the error stays interpolation-limited at high i.
    """
    xi = np.linspace(0.0, 1.0, n_nodes)
    spline = CubicSpline(xi, composed_profile(lam, xi))
    out = np.empty(i_max)
    for i in range(1, i_max + 1):
        out[i - 1] = quad(spline, 0.0, 1.0, weight="sin", wvar=i * np.pi,
                          limit=400)[0]
    return out


def edge_integral(lam):
    """int_0^1 l(1,t) sin(pi*t) dt with l the inverse kernel edge."""
    f = inverse_edge(lam)
    return quad(lambda t: f(t) * np.sin(np.pi * t), 0.0, 1.0, limit=400)[0]


def mismatch_reference(lam, dhat, n, s, k_sine, t_sine, edge_int, h0):
    """Boundary-mismatch drift profile for interior profile sin(pi*s).

    s may be an array; returns the drift sampled there.  h0 is the oldest
    boundary-history sample entering the edge correction.
    """
    i_max = len(k_sine)
    i = np.arange(1, i_max + 1)
    a = dhat * (lam - n * n - (i * np.pi) ** 2)        # predictor rate ladder
    b = i * np.pi * (-1.0) ** i * k_sine
    s_sine = np.zeros(i_max)
    s_sine[0] = 0.5
    rho = (2.0 * a * k_sine / dhat) * (s_sine + t_sine) \
        - 2.0 * b * (edge_int + h0)
    return rho @ np.exp(np.outer(a, np.atleast_1d(s)))

"""The first two phi-functions of exponential integrators, by their closed
forms and, near zero, by their power series.

The row-by-row reference of the package's former adaptation drift built its
cross-exponential tables from them; ``tests/test_quadrature.py`` keeps their
series branch checked against the closed forms.
"""

from __future__ import annotations

import numpy as np


def phi_funcs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First two phi-functions of exponential integrators.

    ``phi1(x) = (e^x - 1)/x`` and ``phi2(x) = (e^x - 1 - x)/x^2``, continued
    through ``x = 0`` by their power series (used below ``|x| = 0.5`` where
    the closed forms cancel).
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

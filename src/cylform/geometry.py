"""Cylinder-surface grid and its angular Fourier transforms.

The computational domain is the lateral surface of a unit-height cylinder:
axial coordinate ``s`` in ``[0, 1]`` sampled at ``M`` nodes including both
rims, and angle ``theta`` in ``[-pi, pi)`` sampled at ``N`` periodic nodes.
Data are plain arrays in two orientations.  A *field* is an ``(M, N)``
array, one scalar per surface node (row ``i`` is the ring at ``s_i``).  A
*mode table* is an ``(N, M)`` complex array: row ``k`` is the axial
coefficient profile of wavenumber ``n = modes[k]``, so mode ``n`` sits in
row ``n + N // 2``.  :meth:`CylinderGrid.analyze` maps a field to its mode
table and :meth:`CylinderGrid.synthesize` back; they are exact inverses on
the grid.  Both check the shape, and since ``M`` is odd and ``N`` even, an
array passed in the other orientation never has the shape they expect.
"""

from __future__ import annotations

import numpy as np

from .quadrature import simpson_weights

TWO_PI = 2.0 * np.pi


class CylinderGrid:
    """Uniform tensor grid on the cylinder surface.

    ``M`` must be odd (so axial integrals can use composite Simpson) and at
    least 3; ``N`` must be even and at least 4 so the angular wavenumbers form
    the usual symmetric band ``-N/2 .. N/2 - 1``.
    """

    def __init__(self, M: int, N: int):
        M, N = int(M), int(N)
        if M < 3 or M % 2 == 0:
            raise ValueError(f"axial node count M must be odd and >= 3, got {M}")
        if N < 4 or N % 2 == 1:
            raise ValueError(f"angular node count N must be even and >= 4, got {N}")
        self.M = M
        self.N = N
        self.h_s = 1.0 / (M - 1)
        self.h_theta = TWO_PI / N
        self.s = np.linspace(0.0, 1.0, M)
        self.theta = -np.pi + self.h_theta * np.arange(N)
        #: wavenumbers in ascending order, -N/2 .. N/2 - 1
        self.modes = np.arange(-(N // 2), N // 2)
        # Phase factors mapping FFT bins (frequency n mod N) onto our
        # theta origin at -pi:  exp(-i n theta_0) = (-1)^n.
        self._parity = np.where(self.modes % 2 == 0, 1.0, -1.0)
        # FFT bin order -> ascending wavenumbers.  For even N this one
        # gather is both fftshift and ifftshift (a roll by N/2).
        self._shift = np.fft.fftshift(np.arange(N))
        #: composite Simpson weights along s
        self.simpson_s = simpson_weights(M, self.h_s)
        #: mode-table rows grouped by ``|n|``: ``mode_pairs[a]`` holds the
        #: rows of ``-a`` and ``+a``; the unpaired 0 and ``N/2`` repeat their
        #: one row
        half = N // 2
        a = np.arange(half + 1)
        self.mode_pairs = np.stack([half - a, (half + a) % N], axis=1)

    def __eq__(self, other):
        return isinstance(other, CylinderGrid) and (self.M, self.N) == (other.M, other.N)

    def __hash__(self):
        return hash((self.M, self.N))

    def __repr__(self):
        return f"CylinderGrid(M={self.M}, N={self.N})"

    # -- spectral transforms -------------------------------------------------

    def analyze(self, values: np.ndarray) -> np.ndarray:
        """Mode table ``(N, M)`` of an ``(M, N)`` field, one profile per mode.

        The coefficient of mode ``n`` at axial node ``i`` is the rectangle-rule
        angular average ``(1/2pi) sum_j f(s_i, theta_j) exp(-i n theta_j) h_theta``,
        which on a periodic grid is exact for band-limited data.
        """
        values = np.asarray(values)
        if values.shape != (self.M, self.N):
            raise ValueError(f"field shape {values.shape} does not match grid {(self.M, self.N)}")
        return np.ascontiguousarray(self._to_modes(values).T)

    def synthesize(self, coeffs: np.ndarray, kind: str = "complex") -> np.ndarray:
        """Reassemble the ``(M, N)`` field of an ``(N, M)`` mode table; exact
        inverse of analyze.

        ``kind='real'`` asserts the coefficients carry conjugate symmetry and
        returns a real-valued field (the tiny imaginary residue is dropped).
        """
        coeffs = np.asarray(coeffs)
        if coeffs.shape != (self.N, self.M):
            raise ValueError(f"mode table shape {coeffs.shape} does not match grid {(self.N, self.M)}")
        return self._to_ring(coeffs.T, kind)

    def analyze_rows(self, values: np.ndarray) -> np.ndarray:
        """Fourier coefficients of a ring profile, or of a stack of them.

        Accepts any ``(..., N)`` array (one profile, a delay window, a
        snapshot sequence) and transforms the last axis.
        """
        values = np.asarray(values)
        if values.shape[-1] != self.N:
            raise ValueError(f"last axis {values.shape[-1]} does not match N={self.N}")
        return self._to_modes(values)

    def synthesize_profile(self, coeffs: np.ndarray, kind: str = "complex") -> np.ndarray:
        """Ring profile from mode coefficients; inverse of analyze_rows."""
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (self.N,):
            raise ValueError(f"coefficient count {coeffs.shape} does not match N={self.N}")
        return self._to_ring(coeffs, kind)

    def _to_modes(self, values: np.ndarray) -> np.ndarray:
        """Wavenumber coefficients, ascending, of rings along the last axis."""
        return np.fft.fft(values, axis=-1)[..., self._shift] / self.N * self._parity

    def _to_ring(self, coeffs: np.ndarray, kind: str) -> np.ndarray:
        """Ring values along the last axis; inverse of :meth:`_to_modes`."""
        vals = np.fft.ifft((coeffs * self._parity * self.N)[..., self._shift], axis=-1)
        return vals.real.copy() if kind == "real" else vals

    # -- calculus on the grid ------------------------------------------------

    def d_s(self, vals: np.ndarray) -> np.ndarray:
        """First axial derivative: central inside, one-sided 2nd order at rims."""
        out = np.empty_like(vals)
        h = self.h_s
        out[1:-1] = (vals[2:] - vals[:-2]) / (2.0 * h)
        out[0] = (-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * h)
        out[-1] = (3.0 * vals[-1] - 4.0 * vals[-2] + vals[-3]) / (2.0 * h)
        return out

    def d2_s(self, vals: np.ndarray) -> np.ndarray:
        """Second axial derivative; one-sided 2nd-order stencils at the rims."""
        out = np.empty_like(vals)
        h2 = self.h_s**2
        out[1:-1] = (vals[2:] - 2.0 * vals[1:-1] + vals[:-2]) / h2
        out[0] = (2.0 * vals[0] - 5.0 * vals[1] + 4.0 * vals[2] - vals[3]) / h2
        out[-1] = (2.0 * vals[-1] - 5.0 * vals[-2] + 4.0 * vals[-3] - vals[-4]) / h2
        return out

    def l2_norm(self, values: np.ndarray) -> float:
        """Surface L2 norm of an ``(M, N)`` field: Simpson along s, rectangle
        rule around theta."""
        ring = np.sum(np.abs(values) ** 2, axis=1) * self.h_theta
        return float(np.sqrt(np.abs(self.simpson_s @ ring)))

"""Cylinder-surface grid and its angular Fourier transforms.

The computational domain is the lateral surface of a unit-height cylinder:
axial coordinate ``s`` in ``[0, 1]`` sampled at ``M`` nodes including both
rims, and angle ``theta`` in ``[-pi, pi)`` sampled at ``N`` periodic nodes.
Data are plain arrays in two orientations.  A *field* is an ``(M, N)``
array, one scalar per surface node (row ``i`` is the ring at ``s_i``).  A
*mode table* is a ``(len(modes), M)`` complex array: row ``k`` is the axial
coefficient profile of wavenumber ``n = modes[k]``, so mode ``n`` sits in
row ``n - modes[0]``.  A grid keeps the wavenumber band ``|n| <= band``:
``2*band + 1`` rows, or all ``N`` (``-N/2 .. N/2 - 1``, mode ``n`` in row
``n + N // 2``) when the band covers the grid, which is the default.
:meth:`CylinderGrid.analyze` maps a field to its mode table and
:meth:`CylinderGrid.synthesize` back; on fields whose angular content lies
in the band they are exact inverses.  Both check the shape, and since ``M``
is odd and ``N`` even, an array passed in the other orientation never has
the shape they expect.
"""

from __future__ import annotations

import numpy as np

from .quadrature import simpson_weights

TWO_PI = 2.0 * np.pi


class CylinderGrid:
    """Uniform tensor grid on the cylinder surface.

    ``M`` must be odd (so axial integrals can use composite Simpson) and at
    least 3; ``N`` must be even and at least 4 so the angular wavenumbers form
    the usual symmetric band ``-N/2 .. N/2 - 1``.  Mode tables hold the
    wavenumbers ``|n| <= band`` of that band; ``band=None`` keeps all ``N``.
    """

    def __init__(self, M: int, N: int, band: int | None = None):
        M, N = int(M), int(N)
        if M < 3 or M % 2 == 0:
            raise ValueError(f"axial node count M must be odd and >= 3, got {M}")
        if N < 4 or N % 2 == 1:
            raise ValueError(f"angular node count N must be even and >= 4, got {N}")
        half = N // 2
        band = half if band is None else min(int(band), half)
        if band < 0:
            raise ValueError(f"wavenumber band must be >= 0, got {band}")
        self.M = M
        self.N = N
        self.h_s = 1.0 / (M - 1)
        self.h_theta = TWO_PI / N
        self.s = np.linspace(0.0, 1.0, M)
        self.theta = -np.pi + self.h_theta * np.arange(N)
        #: largest ``|n|`` a mode table holds
        self.band = band
        #: wavenumbers of the mode-table rows in ascending order:
        #: ``-band .. band``, or ``-N/2 .. N/2 - 1`` when the band covers the grid
        self.modes = np.arange(-band, min(band, half - 1) + 1)
        # Phase factors mapping FFT bins (frequency n mod N) onto our
        # theta origin at -pi:  exp(-i n theta_0) = (-1)^n.
        self._parity = np.where(self.modes % 2 == 0, 1.0, -1.0)
        # FFT bin of each row.  On the whole band of an even N this one
        # gather is both fftshift and ifftshift (a roll by N/2).
        self._shift = self.modes % N
        #: composite Simpson weights along s
        self.simpson_s = simpson_weights(M, self.h_s)
        #: mode-table rows grouped by ``|n|``: ``mode_pairs[a]`` holds the
        #: rows of ``-a`` and ``+a``; the unpaired 0 and ``N/2`` repeat their
        #: one row
        a = np.arange(band + 1)
        self.mode_pairs = np.stack([-a, np.where(a <= self.modes[-1], a, -a)],
                                   axis=1) + band

    def __eq__(self, other):
        return isinstance(other, CylinderGrid) and \
            (self.M, self.N, self.band) == (other.M, other.N, other.band)

    def __hash__(self):
        return hash((self.M, self.N, self.band))

    def __repr__(self):
        return f"CylinderGrid(M={self.M}, N={self.N}, band={self.band})"

    # -- spectral transforms -------------------------------------------------

    def analyze(self, values: np.ndarray) -> np.ndarray:
        """Mode table ``(len(modes), M)`` of an ``(M, N)`` field, one profile
        per retained mode.

        The coefficient of mode ``n`` at axial node ``i`` is the rectangle-rule
        angular average ``(1/2pi) sum_j f(s_i, theta_j) exp(-i n theta_j) h_theta``,
        which on a periodic grid is exact for band-limited data.
        """
        values = np.asarray(values)
        if values.shape != (self.M, self.N):
            raise ValueError(f"field shape {values.shape} does not match grid {(self.M, self.N)}")
        return np.ascontiguousarray(self._to_modes(values).T)

    def synthesize(self, coeffs: np.ndarray, kind: str = "complex") -> np.ndarray:
        """Reassemble the ``(M, N)`` field of a ``(len(modes), M)`` mode
        table; exact inverse of analyze.

        ``kind='real'`` asserts the coefficients carry conjugate symmetry and
        returns a real-valued field (the tiny imaginary residue is dropped).
        """
        coeffs = np.asarray(coeffs)
        if coeffs.shape != (self.modes.size, self.M):
            raise ValueError(f"mode table shape {coeffs.shape} does not match grid "
                             f"{(self.modes.size, self.M)}")
        return self._to_ring(coeffs.T, kind)

    def analyze_rows(self, values: np.ndarray) -> np.ndarray:
        """Fourier coefficients of a ring profile, or of a stack of them.

        Accepts any ``(..., N)`` array (one profile, a delay window, a
        snapshot sequence) and transforms the last axis into the
        ``len(modes)`` retained coefficients.
        """
        values = np.asarray(values)
        if values.shape[-1] != self.N:
            raise ValueError(f"last axis {values.shape[-1]} does not match N={self.N}")
        return self._to_modes(values)

    def synthesize_profile(self, coeffs: np.ndarray, kind: str = "complex") -> np.ndarray:
        """Ring profile from mode coefficients, or a stack of them along the
        leading axes; inverse of analyze_rows."""
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape[-1:] != self.modes.shape:
            raise ValueError(f"coefficient count {coeffs.shape} does not match "
                             f"the {self.modes.size} retained modes")
        return self._to_ring(coeffs, kind)

    def _to_modes(self, values: np.ndarray) -> np.ndarray:
        """Coefficients of the retained wavenumbers, ascending, of rings
        along the last axis."""
        return np.fft.fft(values, axis=-1)[..., self._shift] / self.N * self._parity

    def _to_ring(self, coeffs: np.ndarray, kind: str) -> np.ndarray:
        """Ring values along the last axis; inverse of :meth:`_to_modes`.
        The bins of the wavenumbers outside the band are zero."""
        bins = np.zeros(coeffs.shape[:-1] + (self.N,), dtype=complex)
        bins[..., self._shift] = coeffs * self._parity * self.N
        vals = np.fft.ifft(bins, axis=-1)
        return vals.real.copy() if kind == "real" else vals


"""Gain kernels for the delay-compensated rim controller.

Two families of kernels appear.  The axial Volterra pair maps the
advection-free error state to a plain heat state and back; both have closed
forms through one entire Bessel-type power series (``_kernel_values``).
A real shifted reaction sums that series in float64, a complex one in
complex128.  Each term is scaled by the reciprocal of its real divisor,
which is the arithmetic of numpy's complex-by-real division, so the real
path gives the complex path's values bit for bit at about half the cost.
The stopping test runs on the entry of largest argument first and on all
entries only once that one has passed.

The per-wavenumber predictor kernels couple the reconstructed actuation
history to the state over the delay horizon; they are sine series in the
integration variable with exponential growth factors in the other, and their
sine coefficients are fixed one-dimensional integrals of the edge profile of
the forward Volterra kernel.

:class:`KernelBasis` holds everything that depends only on the plant
coefficients and the grid (sine coefficients, quadrature contraction tables,
the refined Volterra weight matrices).  :class:`KernelSet` adds the
delay-estimate dependent exponential tables and the per-wavenumber
operators of the control step built from them; the runner replaces it
whenever the estimate moves by more than the rebuild tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KernelTruncationError
from .geometry import CylinderGrid
from .quadrature import (
    exp_half_weights,
    exp_pair_weights,
    interp_quadratic,
    sine_weights,
)


@dataclass(frozen=True)
class PlantCoeffs:
    """Reaction and advection coefficients of one state channel."""

    reaction: complex
    advection: complex

    @property
    def shifted_reaction(self) -> complex:
        """Effective growth rate after the exponential change of variables
        that removes the advection term."""
        return self.reaction - self.advection**2 / 4.0


def bessel_ratio(y):
    """Entire continuation of ``I1(sqrt(y)) / sqrt(y)``.

    Power series ``sum_m y^m / (2^(2m+1) m! (m+1)!)``; for negative real
    arguments this equals ``J1(sqrt(-y)) / sqrt(-y)``, which is what makes a
    single routine serve both Volterra kernels.  Terms are added until they
    fall below 1e-16 of the running sum.

    Real input runs in float64 and complex input in complex128, both in
    place.  Each term is scaled by the reciprocal of its real divisor,
    which is how numpy divides a complex by a real, so a real ``y`` gives
    bit for bit the real part of the complex evaluation.  The stopping
    test looks first at the entry of largest ``|y|``, whose terms are the
    largest, and only once that entry has converged at all entries; the
    sum stops at the same term as with the full test alone.

    Raises :class:`KernelTruncationError` when the largest term exceeds
    ``1e8`` times the largest value: for large negative ``y`` the
    alternating terms cancel, and float64 keeps too few digits of the sum.
    """
    y = np.asarray(y, dtype=complex if np.iscomplexobj(y) else float)
    term = np.full(y.shape, 0.5, dtype=y.dtype)
    acc = term.copy()
    peak = np.argmax(np.abs(y))
    largest = 0.5
    for m in range(300):
        term *= y
        term *= 1.0 / (4.0 * (m + 1) * (m + 2))
        acc += term
        lead = abs(term.flat[peak])
        largest = max(largest, lead)
        if lead <= 1e-16 * (abs(acc.flat[peak]) + 1e-300) \
                and np.all(np.abs(term) <= 1e-16 * (np.abs(acc) + 1e-300)):
            break
    if largest > 1e8 * np.max(np.abs(acc)):
        raise KernelTruncationError(
            f"the series of I1(sqrt(y))/sqrt(y) cancels at y = {y.flat[peak]:.6g}: "
            f"its largest term, {largest:.3e}, is over 1e8 times its largest "
            f"value, so float64 keeps too few digits of the sum")
    return acc if acc.shape else acc.item()


def _kernel_values(s, tau, coeffs: PlantCoeffs, sign: float):
    """Volterra kernel values at ``(s, tau)``: the forward kernel for
    ``sign = 1``, the inverse for ``sign = -1``.

    A real shifted reaction takes the float64 series; the values are
    complex either way, so the products that read them use one routine.
    """
    lam = complex(coeffs.shifted_reaction)
    if lam.imag == 0.0:
        lam = lam.real
    s, tau = np.asarray(s), np.asarray(tau)
    try:
        ratio = bessel_ratio(sign * lam * (s**2 - tau**2))
    except KernelTruncationError as err:
        raise KernelTruncationError(
            f"shifted reaction {coeffs.shifted_reaction}: {err}") from None
    return np.asarray(-lam * tau * ratio, dtype=complex)


def _lower_table(xi: np.ndarray, coeffs: PlantCoeffs, sign: float,
                 weights: np.ndarray, step: int = 1) -> np.ndarray:
    """``weights`` times the kernel values on the triangle ``tau <= s`` of
    ``xi x xi``, for every ``step``-th ``s`` (rows ``0, step, 2*step, ...``
    of ``weights``).

    The row weights vanish above the diagonal, so only their nonzero
    entries are evaluated, and the product is taken in the same scatter.
    """
    lower = weights != 0.0
    s, tau = np.broadcast_arrays(xi[::step, None], xi)
    table = np.zeros(weights.shape, dtype=complex)
    table[lower] = weights[lower] * _kernel_values(s[lower], tau[lower], coeffs, sign)
    return table


def _flush_subnormal(table: np.ndarray) -> np.ndarray:
    """Zero, in place, every real or imaginary part below the smallest normal
    double.  Such parts lie far below the roundoff of any sum they enter,
    but subnormal operands slow the batched products of the control step
    several-fold.  ``table`` must be C-contiguous; it is returned."""
    parts = table.view(float) if np.iscomplexobj(table) else table
    parts[np.abs(parts) < np.finfo(float).tiny] = 0.0
    return table


class KernelBasis:
    """Delay-independent kernel data for one channel on one grid.

    Construction fills, in order: the edge profile of the forward Volterra
    kernel on a refinement of the axial grid; its sine coefficients (exact
    sine-weighted quadrature of the piecewise-quadratic edge interpolant);
    the triangular composition table coupling the inverse Volterra kernel
    into the sine basis; the Volterra quadrature matrices on the
    production nodes, integrated on the refined grid; and the kernel
    exponents per unit delay.
    """

    #: the fine grid has ``refine`` intervals per production interval
    refine = 12

    def __init__(self, coeffs: PlantCoeffs, grid: CylinderGrid, i_max: int = 64):
        if i_max < 8:
            raise ValueError(f"series truncation order must be >= 8, got {i_max}")
        self.coeffs = coeffs
        self.grid = grid
        self.i_max = i_max

        M, h, refine = grid.M, grid.h_s, self.refine
        m_ref = refine * (M - 1) + 1
        h_ref = h / refine
        xi = np.linspace(0.0, 1.0, m_ref)
        freqs = np.pi * np.arange(1, i_max + 1)

        k_edge = _kernel_values(1.0, xi, coeffs, 1.0)
        w_sine_ref = sine_weights(freqs, m_ref, h_ref)
        #: sine coefficients of the forward kernel's edge profile
        self.fwd_sine = w_sine_ref @ k_edge
        signs = np.where(np.arange(1, i_max + 1) % 2 == 0, 1.0, -1.0)
        #: sine-series coefficients of the edge tau-derivative at tau = 1
        self.fwd_edge = freqs * signs * self.fwd_sine

        #: per-harmonic contraction weights on the production grid
        self.mode_sine = sine_weights(freqs, M, h)
        #: node weights of the predictor's state part: ``profile @
        #: state_weights`` times ``exp_s`` is the predicted command flow
        self.state_weights = 2.0 * self.mode_sine.T * self.fwd_sine[None, :]

        # Triangular composition: running inverse-Volterra integrals of each
        # nodal cardinal function, evaluated on the refined grid, then pushed
        # into the sine basis.  Row r of `lam_rows` integrates the inverse
        # kernel against samples over [0, xi_r].
        tri_ref = self._row_weight_matrix(m_ref, h_ref)
        lam_rows = _lower_table(xi, coeffs, -1.0, tri_ref)
        cardinals = interp_quadratic(np.eye(M), refine)  # (M, m_ref)
        lam_of_cardinal = lam_rows @ cardinals.T  # (m_ref, M)
        #: weights turning node samples into the sine coefficients of their
        #: running inverse-Volterra integral
        self.composition = w_sine_ref @ lam_of_cardinal
        #: weights for the inverse-kernel edge integral over the full span
        self.edge_weights = lam_of_cardinal[-1].copy()

        # Volterra matrices restricted back to the production nodes.  They
        # route node samples through the cardinal interpolants and integrate
        # on the fine grid, which removes the closure-panel error a row rule
        # on the production nodes would carry (the interpolation error of the
        # samples themselves, cubic in the coarse spacing, remains).
        k_rows = _lower_table(xi, coeffs, 1.0, tri_ref[::refine], refine)
        self.volterra_fwd_refined = k_rows @ cardinals.T

        # Kernel exponents per unit delay, indexed by ``|n|`` (0 .. the
        # grid's band) and harmonic; a KernelSet scales them by its estimate.
        n2 = np.arange(grid.band + 1)[:, None] ** 2
        #: ``lam - n**2 - (i*pi)**2``, predictor growth per unit delay
        self.base_rates = coeffs.shifted_reaction - n2 - freqs[None, :] ** 2

    def check_truncation(self, delay: float, name: str = "delay estimate") -> None:
        """Raise :class:`KernelTruncationError` when the series does not
        resolve the delay estimate ``delay`` (called ``name`` in the message):
        one node off the launch edge at wavenumber 0, where it converges
        slowest, its last harmonic carries over 1e-10 of it.  That share
        falls as the delay rises, since the rates fall with the harmonic, so
        the message names the smallest delay that passes (by bisection)."""
        def share(d):
            mags = np.abs(self.fwd_sine * np.exp(d * self.base_rates[0] * self.grid.h_s))
            return mags[-1] / max(mags.sum(), 1e-300)
        if share(delay) <= 1e-10:
            return
        lo, hi = delay, 2.0 * delay
        while share(hi) > 1e-10:
            lo, hi = hi, 2.0 * hi
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if share(mid) > 1e-10 else (lo, mid)
        # 1.005 * hi keeps the three digits shown at or above hi
        raise KernelTruncationError(
            f"{name} = {delay:g} is below {1.005 * hi:.3g}, the smallest delay "
            f"estimate the kernel series of {self.i_max} harmonics resolves: its "
            f"last harmonic still carries {share(delay):.3e} of the series one "
            f"node off the edge")

    @staticmethod
    def _row_weight_matrix(m: int, h: float) -> np.ndarray:
        """Row ``r`` integrates over nodes ``0..r``: composite Simpson, and
        for odd ``r`` one trapezoid panel closing the last interval; row 0
        is empty."""
        third = h / 3.0
        pattern = np.full(m, 2.0 * third)
        pattern[1::2] = 4.0 * third
        rows = np.tril(np.broadcast_to(pattern, (m, m)))
        rows[1:, 0] = third
        even = np.arange(2, m, 2)
        rows[even, even] = third
        odd = np.arange(1, m, 2)
        rows[odd, odd - 1] = third + 0.5 * h
        rows[odd, odd] = 0.5 * h
        rows[0, 0] = 0.0
        rows[1, 0] = 0.5 * h
        return rows


class KernelSet:
    """Delay-estimate snapshot of the predictor kernels and the control step.

    Wavenumber enters only through ``n**2``, so tables are indexed by ``|n|``.
    ``rates[a, i]`` is the growth exponent of harmonic ``i`` for ``|n| = a``
    in the predictor kernel.

    For a fixed estimate everything a control step computes from its two
    inputs -- the command-in-flight table (``transport``) and the scaled
    deviation table (``measured``) -- is linear per ``|n|``, so a set builds
    it once as ``step_map[a]``, ``(band + 1, 2M, 2M)``, real when the rates
    are.  It takes the row ``[transport | measured]`` to ``[target history |
    state drift]``:

    * ``history_map[a]``, the top-left block (transposed, as the product
      runs on rows), maps a transport profile to its history convolution
      image: identity plus ``2*delay*sum_i fwd_edge_i W_i``, with ``W_i``
      the running convolution of a profile's piecewise-quadratic interpolant
      with ``exp(rates[a, i] * s)``, assembled in closed form;
    * the deviation enters the history through the predicted command flow,
      ``-state_weights @ exp_s[a]``;
    * the state drift is the part of the estimator's mismatch drift that
      the deviation drives: the target-state map, the sine and composition
      contractions and the edge integral, each against ``exp_s[a]``, folded
      into one ``(M, M)`` block.  The transport does not enter it.

    The control law sets the rim row of the target history to zero and
    solves for the newest (rim) node.  The step therefore applies the map
    with that node zeroed and completes both images with rank-one tables
    read per mode-table row: ``rim_weight`` (the node's weight in the rim
    row), ``command_column`` (its column of the history map) and
    ``edge_flow`` (which carries the history's root value into the drift,
    see :func:`~cylform.estimator.mismatch_drift`).
    """

    def __init__(self, basis: KernelBasis, delay_estimate: float):
        grid = basis.grid
        if delay_estimate <= 0.0:
            raise ValueError(f"delay estimate must be positive, got {delay_estimate}")
        self.basis = basis
        self.grid = grid
        self.delay = float(delay_estimate)

        basis.check_truncation(self.delay)
        self.rates = self.delay * basis.base_rates
        #: exp(rates * s) on the axial grid, shape (|n| count, i_max, M)
        self.exp_s = _flush_subnormal(
            np.exp(self.rates[:, :, None] * grid.s[None, None, :]))

        edge_flow = 2.0 * self._real_if_rates(basis.fwd_edge) @ self.exp_s
        self.step_map = _flush_subnormal(
            self._build_step_map(self._build_history_map(), edge_flow))
        #: transport profile to history image, per ``|n|``: a view of the
        #: step map's top-left block
        self.history_map = self.step_map[:, :grid.M, :grid.M].transpose(0, 2, 1)
        rows = np.abs(grid.modes)
        #: per mode-table row: the rim node's weight in the rim row of the
        #: history map, the rim node's column, and the drift per unit
        #: history root value
        self.rim_weight = self.history_map[rows, -1, -1]
        self.command_column = self.history_map[rows, :, -1]
        self.edge_flow = edge_flow[rows]

    def _real_if_rates(self, table: np.ndarray) -> np.ndarray:
        """``table``, or its real part when the rates are real.  The basis
        tables are complex either way, but a real shifted reaction leaves
        exact zeros in their imaginary parts and in those of the weights
        built from them."""
        return table.real if np.isrealobj(self.rates) else table

    def _build_step_map(self, history_map: np.ndarray,
                        edge_flow: np.ndarray) -> np.ndarray:
        """Assemble ``step_map`` (see the class docstring) from the history
        map and ``edge_flow = 2*fwd_edge @ exp_s``."""
        basis, m, part = self.basis, self.grid.M, self._real_if_rates
        # mismatch-drift coefficients of a target profile: (2/delay) *
        # rates * fwd_sine on its sine and composition contractions, and
        # -edge_flow on its edge integral
        gain = (2.0 / self.delay) * self.rates * part(basis.fwd_sine)    # (A, i)
        contract = part(basis.mode_sine + basis.composition).T           # (M, i)
        drift = (contract * gain[:, None, :]) @ self.exp_s \
            - part(basis.edge_weights)[:, None] * edge_flow[:, None, :]
        # the target state is measured @ (I - V^T)
        to_target = np.eye(m) - part(basis.volterra_fwd_refined).T
        out = np.zeros(history_map.shape[:1] + (2 * m, 2 * m), dtype=history_map.dtype)
        out[:, :m, :m] = history_map.transpose(0, 2, 1)
        out[:, m:, :m] = -(part(basis.state_weights) @ self.exp_s)
        out[:, m:, m:] = to_target @ drift
        return out

    def _build_history_map(self) -> np.ndarray:
        """Closed-form assembly of ``history_map`` (see the class docstring).

        ``W_i`` is Toeplitz in node pairs: even row ``2p`` gets
        ``step2**(p-1-k) * c_l`` in column ``2k+l`` (``k < p``), and odd row
        ``2p+1`` is ``step`` times even row ``2p`` plus the half-pair weights
        ``g_l`` on its own pair.  Contracting the harmonic axis first leaves
        per-lag tables (``even``/``odd`` rows) and the summed ``half``
        weights, which are gathered into place.  ``step2**d`` and
        ``step * step2**d`` are the even and odd columns of ``exp_s``.
        """
        grid = self.grid
        m, pairs = grid.M, (grid.M - 1) // 2
        edge = 2.0 * self.delay * self.basis.fwd_edge
        w0, w1, w2 = exp_pair_weights(self.rates, grid.h_s)
        # the convolution's kernel runs back from a pair's end: c_l weighs node l
        c = np.stack([w2, w1, w0], axis=1) * edge                       # (A, 3, i)
        half = np.stack(exp_half_weights(self.rates, grid.h_s), axis=1) @ edge
        # one zero column past the last lag stands for the empty upper part
        zero = np.zeros(c.shape[:2] + (1,))
        even = np.concatenate([c @ self.exp_s[:, :, 0:2 * pairs:2], zero], axis=2)
        odd = np.concatenate([c @ self.exp_s[:, :, 1:2 * pairs:2], zero], axis=2)

        lag = np.arange(pairs + 1)[:, None] - 1 - np.arange(pairs)[None, :]
        lag = np.where(lag >= 0, lag, pairs)                            # (P+1, P)
        out = np.zeros((self.rates.shape[0], m, m), dtype=complex)
        diag = np.arange(pairs)
        for l in range(3):
            cols = slice(l, l + 2 * pairs, 2)
            out[:, 0::2, cols] += even[:, l][:, lag]
            out[:, 1::2, cols] += odd[:, l][:, lag[:-1]]
            out[:, 2 * diag + 1, 2 * diag + l] += half[:, l, None]
        out[:, np.arange(m), np.arange(m)] += 1.0
        return self._real_if_rates(out)

    def apply(self, table: np.ndarray, split: np.ndarray, out: np.ndarray) -> None:
        """One channel's ``step_map`` product, written to ``out``,
        ``(A, 4, 2M)``: the products of the row pairs' real parts, then of
        their imaginary parts.

        ``table`` is the channel's ``[transport | measured]`` table and
        ``split`` the real parts then the imaginary parts of its row pairs
        of each ``|n|`` (``grid.mode_pairs``), which share one map.  A real
        map (real rates) acts on ``split`` in one real product, about twice
        as fast as the complex product a complex map takes of the row pairs.
        """
        if np.isrealobj(self.step_map):
            np.matmul(split, self.step_map, out=out)
        else:
            product = table[self.grid.mode_pairs] @ self.step_map
            out[:, :2], out[:, 2:] = product.real, product.imag


class KernelStack:
    """The kernel sets of a stack of channels at one delay estimate, one set
    per channel, with the per-row tables of the control step
    (``rim_weight``, ``command_column`` and ``edge_flow``) stacked on a
    leading channel axis.

    The tables are stacked once, when the stack is built, so a controller
    that swaps its stack for a spare moves them, and :attr:`window`, along.
    """

    def __init__(self, sets):
        self.sets = tuple(sets)
        self.delay = self.sets[0].delay
        self.rim_weight = np.stack([ks.rim_weight for ks in self.sets])
        self.command_column = np.stack([ks.command_column for ks in self.sets])
        self.edge_flow = np.stack([ks.edge_flow for ks in self.sets])
        #: the in-flight window's read table, built by the stack's first read
        self.window = None

    def matches(self, delay_estimate: float, tol: float) -> bool:
        return abs(self.delay - delay_estimate) <= tol

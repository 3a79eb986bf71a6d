"""Exact time integration of the coupled surface fields with delayed rim actuation.

Both channels evolve by the same semi-discrete reaction-advection-diffusion
stencil on the cylinder surface; only the rim rows differ.  The anchor rim
(s = 0) holds the formation's anchor profile, the leader rim (s = 1) holds
the formation's leader profile plus the actuation signal delayed by the true
(unknown to the controller) dead time.  Commands travel through a
:class:`DelayLine`, a uniformly sampled ring buffer with linear interpolation
that reads zero before its first record, through a :class:`ReadTable` of
record offsets and weights that a reader builds once: one gather and one
weighted sum, the pre-history, hold and wrap being fix-ups of the index.
Each record holds the commands' Fourier coefficients on the grid's
wavenumber band, in ``grid.modes`` order, of every channel side by side:
``C * K`` entries for ``C`` channels and ``K`` wavenumbers, channel ``c`` in
``c*K .. (c+1)*K - 1``.
Interpolation, hold and the zero pre-history act on each coefficient alone,
so a line of band rows reads the coefficients of what a line of physical
command profiles would read, and one read serves every channel.

The stencil is linear, has constant coefficients and is circulant in theta,
so :class:`Channel` integrates it in closed form in the eigencoordinates of
its :class:`Stencil`, and keeps only the wavenumbers of the grid's band:
the rims, the commands and the initial state carry no others, so the rest
stay zero.  A :class:`Channel` holds the channels of one swarm stacked on a
leading axis, each with its own stencil, and advances them all in one
step: its eigencoordinates are ``(C, M-2, K)``, its mode tables
``(C, K, M)``.  The delayed command is piecewise linear in time, with breaks at
the record instants plus the delay (the jump from the zero pre-history at
``t = D`` among them), and between breaks every eigencoordinate is
integrated exactly with :func:`~cylform.quadrature.exp_lin_weights`.  One
:meth:`Channel.step` advances a whole control block.  The line records once
per block, so a break falls at the same offset ``D mod block`` of every
block and the block's weights and read table are built once.  Each step
reads its rims with one :meth:`DelayLine.read`: two instants per linear
piece, at a third and two thirds of its length, extrapolated linearly to
its ends.  The weights act on the coefficient rows as read, and a step
writes the mode tables :attr:`Channel.table`, which the controllers
measure, with no transform at all.
"""

from __future__ import annotations

import copy
import math
from typing import NamedTuple

import numpy as np

from .errors import HistoryUnderrunError, InstabilityError, ResonantModeError
from .geometry import CylinderGrid
from .kernels import PlantCoeffs
from .quadrature import exp_lin_weights

#: hard bound on the field before the run is declared unstable, applied to
#: the largest sum over wavenumbers of the coefficient magnitudes at one
#: axial node (the l1 bound of that ring's sup over theta)
GUARD_LIMIT = 1e30

#: extent of the negative real axis covered by the classical fourth-order
#: Runge-Kutta stability region
_RK4_REAL_AXIS = 2.785

#: largest ratio of an equilibrium's coefficients to its rim data's; the
#: bundled presets reach 12.2, a rate 1e-6 off resonance 6e6 (21x16)
_GOAL_RATIO = 1e6

#: a command break this close to a block's edge, as a fraction of the block,
#: lies on it; so does a read this close before the first record
_BREAK_TOL = 1e-9


class ReadTable(NamedTuple):
    """Entry ``j`` of a :meth:`DelayLine.read` from record ``base``: ``weights[0, j]``
    times record ``base + index[0, j]`` plus ``weights[1, j]`` times the next;
    when the next is the line's first, ``snap[j]`` replaces ``weights[1, j]``."""

    index: np.ndarray       #: (2, n) record offsets
    weights: np.ndarray     #: (2, n, 1): ``1 - frac`` and ``frac``
    snap: np.ndarray        #: (n, 1): 1 within ``_BREAK_TOL`` of the next record, else 0
    low: int                #: the smallest offset read
    high: int               #: the largest offset read


def read_table(positions: np.ndarray) -> ReadTable:
    """The read at ``positions`` record spacings past a base record."""
    lower = np.floor(positions)
    frac = positions - lower
    index = lower.astype(int) + np.arange(2)[:, None]
    return ReadTable(index, np.stack([1.0 - frac, frac])[..., None],
                     (frac >= 1.0 - _BREAK_TOL).astype(float)[:, None],
                     int(index[0].min()), int(index[1].max()))


class DelayLine:
    """Uniformly sampled actuation history with linear interpolation.

    Samples are rows of ``width`` entries (in a run, the band coefficients
    of every channel's rim command, side by side) recorded at strictly
    regular instants.
    Queries before the first record return zeros (actuation had not
    started); queries beyond the newest record hold its value, which serves
    a block whose delayed instants run past the newest record (a delay
    shorter than the block).  Buffer row 0 stays zero, and row ``k %
    capacity + 1`` holds record ``k``; :meth:`read` clamps a record index
    to the newest record and to -1, the zero row, before it gathers.
    """

    def __init__(self, width: int, dt_record: float, horizon: float):
        if dt_record <= 0 or horizon <= 0:
            raise ValueError("delay line spacing and horizon must be positive")
        self.width = int(width)
        self.dt = float(dt_record)
        self.capacity = int(math.ceil(horizon / dt_record)) + 4
        self._buf = np.zeros((self.capacity + 1, self.width), dtype=complex)
        self._count = 0
        self._t0 = 0.0

    def record(self, t: float, row: np.ndarray) -> None:
        """Store ``row`` as the next record, at ``t`` on the lattice the
        first record fixes (buffer row ``k % capacity + 1`` for record ``k``)."""
        row = np.asarray(row)
        if row.shape != (self.width,):
            raise ValueError(f"row shape {row.shape} != ({self.width},)")
        if self._count == 0:
            self._t0 = float(t)
        else:
            expected = self._t0 + self._count * self.dt
            if abs(t - expected) > 1e-9 * max(1.0, abs(expected)):
                raise ValueError(
                    f"record at t={t} breaks the uniform spacing "
                    f"(expected {expected})"
                )
        self._buf[self._count % self.capacity + 1] = row
        self._count += 1

    def read(self, table: ReadTable, t: float) -> np.ndarray:
        """The ``(n, width)`` rows of ``table`` from the record instant ``t``:
        one gather, one weighted sum.  A read past the newest record holds
        it; one before the first is zero (the zero row), or that record
        within ``_BREAK_TOL`` of it (the table's ``snap``).  Each fix-up of
        the index runs only when the read needs it.  A table reaching below
        a wrapped ring's oldest record raises :class:`HistoryUnderrunError`.
        """
        at = (t - self._t0) / self.dt
        base = round(at)
        if abs(at - base) > _BREAK_TOL:
            raise ValueError(f"read instant t={t} is not a record instant")
        count = self._count
        if base + table.low < count - self.capacity > 0:
            raise HistoryUnderrunError("requested sample already evicted (horizon too short)")
        index = table.index + base
        weights = table.weights
        if base + table.high >= count:
            np.minimum(index, count - 1, out=index)
        if base + table.low < 0:
            weights = weights.copy()
            np.copyto(weights[1], table.snap, where=index[0, :, None] == -1)
            np.maximum(index, -1, out=index)
        if count > self.capacity:
            index %= self.capacity
        index += 1
        rows = self._buf.take(index, axis=0)
        rows *= weights
        return rows[0] + rows[1]


class Stencil:
    """The semi-discrete operator of one channel, diagonalised in closed form.

    A Fourier series in theta leaves one tridiagonal Toeplitz system per
    wavenumber of ``grid.modes``, weighting row ``i + 1`` by ``p`` and row
    ``i - 1`` by ``q``.  The lift ``y_j = rho^j z_j`` with ``rho =
    sqrt(q/p)`` makes it symmetric, and the DST-I diagonalises it with the
    eigenvalues :attr:`rates` per (DST index, wavenumber).  :attr:`to_eigen`
    maps the interior of a mode table's row to eigencoordinates and
    :attr:`to_field` back.  Held rims drive the eigencoordinates by
    :meth:`held`, so the field the stencil keeps still is ``-held / rates``
    per eigencoordinate: :meth:`equilibrium`, the formation goal of a run,
    which the plant itself can reach.  The lift spans a factor of about
    ``e^{|advection|/2}`` along the axis, and the transform's roundoff grows
    by up to that factor: harmless unless the advection is in the tens.
    """

    def __init__(self, grid: CylinderGrid, coeffs: PlantCoeffs):
        self.grid = grid
        m, h = grid.M - 2, grid.h_s
        p = 1.0 / h**2 + coeffs.advection / (2.0 * h)    # weight of row i + 1
        q = 1.0 / h**2 - coeffs.advection / (2.0 * h)    # weight of row i - 1
        rho = np.sqrt(complex(q / p))
        j = np.arange(1, m + 1)
        sine = np.sqrt(2.0 / (m + 1)) * np.sin(np.outer(j, j) * np.pi / (m + 1))
        lift = rho ** j
        self.to_field = lift[:, None] * sine
        self.to_eigen = sine / lift[None, :]
        #: eigenvalues per (DST index, wavenumber): axial, then angular part
        self.rates = (
            (coeffs.reaction - 2.0 / h**2
             + 2.0 * p * rho * np.cos(j * np.pi / (m + 1)))[:, None]
            - (4.0 / grid.h_theta**2)
            * np.sin(np.pi * grid.modes / grid.N)[None, :] ** 2
        )
        #: (M-2, 1) drive of each eigencoordinate per unit of the leader rim
        self.rim_gain = p * self.to_eigen[:, -1:]
        self._anchor_gain = q * self.to_eigen[:, 0]
        #: the classical RK4 limit of the explicit stencil (row-sum bound of
        #: its spectral radius, safety 0.9): ten of them cap the automatic
        #: control block; the exact :class:`Channel` needs no such limit
        self.rk4_step = 0.9 * _RK4_REAL_AXIS / (
            4.0 / grid.h_s**2 + 4.0 / grid.h_theta**2
            + abs(coeffs.reaction) + abs(coeffs.advection) / grid.h_s)

    def held(self, anchor: np.ndarray, leader: np.ndarray) -> np.ndarray:
        """``(M-2, modes)`` drive of the eigencoordinates by rims held at
        the band coefficient rows ``anchor`` and ``leader``."""
        return np.outer(self._anchor_gain, anchor) + self.rim_gain * leader

    def equilibrium(self, anchor: np.ndarray, leader: np.ndarray) -> np.ndarray:
        """``(modes, M)`` mode table of the field this stencil holds still
        under rims held at the band coefficient rows ``anchor`` and
        ``leader``, which are its rim columns.  A wavenumber without rim
        data is zero; one with rim data and no finite equilibrium (a zero
        rate) raises :class:`ResonantModeError`, and so does one whose
        largest coefficient exceeds ``_GOAL_RATIO`` times the largest rim
        coefficient (a rate next to zero)."""
        driven = (anchor != 0.0) | (leader != 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            eig = -self.held(anchor, leader)[:, driven] / self.rates[:, driven]
        finite = np.isfinite(eig).all(axis=0)
        if not finite.all():
            raise ResonantModeError(int(self.grid.modes[driven][~finite][0]))
        table = np.zeros((self.grid.modes.size, self.grid.M), dtype=complex)
        table[:, 0], table[:, -1] = anchor, leader
        table[driven, 1:-1] = (self.to_field @ eig).T
        peaks = abs(table).max(axis=1)
        k = int(peaks.argmax())
        rim = max(abs(anchor).max(), abs(leader).max())
        if peaks[k] > _GOAL_RATIO * rim:
            n = int(self.grid.modes[k])
            raise ResonantModeError(
                n, f"steady profile is near-resonant at angular mode n={n}: "
                   f"its largest coefficient is {peaks[k] / rim:.3g} times the "
                   f"largest rim coefficient (limit {_GOAL_RATIO:.0e})")
        return table


class _Plan(NamedTuple):
    """Closed-form map of one stretch of a block, in eigencoordinates:
    ``decay * state + held`` plus, per channel and wavenumber, ``weights``
    applied to its coefficients in the rim reads of ``table``, taken from the
    block's record instant."""

    decay: np.ndarray       #: (C, M-2, modes)
    held: np.ndarray        #: (C, M-2, modes), the response to the held rims
    weights: np.ndarray     #: (C, modes, M-2, reads), mode-major for one batched matmul
    table: ReadTable        #: the reads, at their instants less the delay


class Channel:
    """The channels of one swarm, stacked on a leading axis and advanced
    together block by block, in closed form, under held rims and delayed
    commands.

    Channel ``c`` evolves by ``stencils[c]``; all share the grid, the block
    and the true delay, and the line's row holds their band coefficient
    rows side by side, channel ``c`` in entries ``c*K .. (c+1)*K - 1`` for
    ``K = len(grid.modes)``.  The interior is kept in each stencil's
    eigencoordinates (see :class:`Stencil`), stacked ``(C, M-2, K)``.
    ``anchor`` and ``leader_base`` are the rims' ``(C, K)`` band coefficient
    rows and ``initial`` the starting ``(C, K, M)`` mode tables.  ``table``
    is the stack of mode tables at the latest block end (``initial`` before
    the first step); ``values`` synthesizes each, real for a ``"real"``
    entry of ``kinds`` (all ``"complex"`` by default).  ``line`` must record
    one row of ``C*K`` coefficients once per ``block``.
    """

    def __init__(self, stencils, anchor: np.ndarray, leader_base: np.ndarray,
                 initial: np.ndarray, block: float, delay: float, kinds=None):
        self.stencils = tuple(stencils)
        self.kinds = ("complex",) * len(self.stencils) if kinds is None else tuple(kinds)
        if len(self.kinds) != len(self.stencils) or not set(self.kinds) <= {"complex", "real"}:
            raise ValueError(f"need one kind, 'complex' or 'real', per stencil: {self.kinds!r}")
        if not (block > 0.0 and delay >= 0.0):
            raise ValueError("block must be positive and delay non-negative")
        grid = self.grid = self.stencils[0].grid
        self.block = float(block)
        self.delay = float(delay)
        self.anchor = np.asarray(anchor, dtype=complex)
        self.leader_base = np.asarray(leader_base, dtype=complex)
        rims = (len(self.stencils), grid.modes.size)
        if not self.anchor.shape == self.leader_base.shape == rims:
            raise ValueError("rim rows do not match the channels and the grid's modes")
        #: (C, len(modes), M) mode tables of the fields
        self.table = np.array(initial, dtype=complex)
        if self.table.shape != rims + (grid.M,):
            raise ValueError("initial table shape does not match the grid")
        self._rates = np.stack([st.rates for st in self.stencils])
        self._rim_gain = np.stack([st.rim_gain for st in self.stencils])
        self._to_field = np.stack([st.to_field for st in self.stencils])
        self._held = np.stack([st.held(a, b) for st, a, b in
                               zip(self.stencils, self.anchor, self.leader_base)])
        self._state = np.stack([st.to_eigen for st in self.stencils]) \
            @ self.table[:, :, 1:-1].transpose(0, 2, 1)

        off = math.fmod(self.delay, self.block)
        self._break = 0.0 if min(off, self.block - off) <= _BREAK_TOL * self.block else off
        self._block_plan = self._plan(0.0, self.block)

    def _plan(self, start: float, stop: float) -> _Plan:
        """Compose the exact maps of the linear pieces of ``[start, stop]``."""
        cuts = [start, self._break, stop] if start < self._break < stop else [start, stop]
        rates, gain = self._rates, self._rim_gain
        spans = np.diff(cuts)
        decays = np.exp(rates * spans[:, None, None, None])
        los, his = exp_lin_weights(rates, spans[:, None, None, None])
        decay = np.ones(rates.shape, dtype=complex)
        held = np.zeros(rates.shape, dtype=complex)
        weights, reads = [], []
        for a, span, e, lo, hi in zip(cuts, spans, decays, los, his):
            decay = e * decay
            held = e * held + (lo + hi) * self._held
            weights = [e * w for w in weights]
            # rim ends from the reads at a third and two thirds of the piece
            weights += [(2.0 * lo - hi) * gain, (2.0 * hi - lo) * gain]
            reads += [a + span / 3.0, a + 2.0 * span / 3.0]
        weights = np.ascontiguousarray(np.stack(weights, axis=-1).transpose(0, 2, 1, 3))
        return _Plan(decay, held, weights, read_table((np.array(reads) - self.delay) / self.block))

    def advance(self, t: float, start: float, stop: float, line: DelayLine) -> None:
        """Move the fields from ``t + start`` to ``t + stop`` inside the block
        that starts at ``t`` (``0 <= start < stop <= block``)."""
        if line.dt != self.block:
            raise ValueError(f"delay line spacing {line.dt} is not the block {self.block}")
        whole = start == 0.0 and stop == self.block
        plan = self._block_plan if whole else self._plan(start, stop)
        # (reads, C, K): the line's rows split per channel
        rows = line.read(plan.table, t).reshape(-1, *self.anchor.shape)
        forced = plan.weights @ rows.transpose(1, 2, 0)[..., None]
        self._state = plan.decay * self._state + plan.held + forced[..., 0].transpose(0, 2, 1)
        table = np.empty_like(self.table)
        table[:, :, 0] = self.anchor
        table[:, :, 1:-1] = (self._to_field @ self._state).transpose(0, 2, 1)
        table[:, :, -1] = self.leader_base + (2.0 * rows[-1] - rows[-2])
        self.table = table

    @property
    def values(self) -> list:
        """The physical ``(M, N)`` field of each channel's :attr:`table`,
        synthesized on each read."""
        return [self.grid.synthesize(tab, kind) for tab, kind in zip(self.table, self.kinds)]

    def peek(self, t: float, tau: float, line: DelayLine) -> list:
        """The fields at ``t + tau`` inside the block from ``t``; the
        channels themselves do not move."""
        probe = copy.copy(self)
        probe.advance(t, 0.0, tau, line)
        return probe.values

    def step(self, t: float, line: DelayLine) -> None:
        """Advance one block, ``[t, t + block]``, then check the guard over
        the stack; the message names the first channel over it."""
        self.advance(t, 0.0, self.block, line)
        sums = np.add.reduce(abs(self.table), axis=1)
        if sums.max() <= GUARD_LIMIT:
            return
        for peak in sums.max(axis=1):
            if not peak <= GUARD_LIMIT:
                raise InstabilityError(
                    f"field magnitude {peak:.3e} exceeded the guard at "
                    f"t={t + self.block:.6f}"
                )

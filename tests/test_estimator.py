"""Estimator checks: the mismatch drift a control step forms against a
scratch-built reference, and the gating rules of the scalar update law."""

import dataclasses

import numpy as np
import pytest

from cylform.controller import step_images
from cylform.estimator import (EstimatorState, mismatch_drift,
                               step_estimate, update_signal)
from cylform.geometry import CylinderGrid
from cylform.kernels import KernelBasis, KernelSet, PlantCoeffs
from cylform.plant import DelayLine
from cylform.quadrature import simpson_weights
from oracles import drift_reference as ref
from oracles.channel_step import channel, control_step
from oracles.mode_symmetry import conjugate_symmetry_defect
from oracles.transforms import from_target_state

LAM = 8.0
DHAT = 1.0


@pytest.fixture(scope="module")
def refs():
    return {
        "k": ref.sine_coefficients(ref.forward_edge(LAM), 64),
        "t": ref.composed_sine_coefficients(LAM, 64),
        "e": ref.edge_integral(LAM),
    }


@pytest.fixture(scope="module")
def fine_set():
    # fine axial grid: the assembled drift inherits an O(h^4) floor from the
    # composed-profile weights, amplified by the stiff leading rates
    grid = CylinderGrid(251, 8)
    return KernelSet(KernelBasis(PlantCoeffs(LAM, 0.0), grid, i_max=64), DHAT)


def single_row_stacks(grid, n, interior, boundary):
    tgt = np.zeros((grid.N, grid.M), dtype=complex)
    hist = np.zeros((grid.N, grid.M), dtype=complex)
    row = n + grid.N // 2
    tgt[row] = interior
    hist[row] = boundary
    return tgt, hist, row


class TestEstimatorState:
    def test_holds_fields(self):
        st = EstimatorState(estimate=2.0, lo=0.1, hi=4.0, gain=0.05, dt=0.01)
        assert st.estimate == 2.0

    def test_frozen(self):
        st = EstimatorState(estimate=2.0, lo=0.1, hi=4.0, gain=0.05, dt=0.01)
        with pytest.raises(dataclasses.FrozenInstanceError):
            st.estimate = 3.0

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            EstimatorState(estimate=1.0, lo=0.0, hi=4.0, gain=0.05, dt=0.01)
        with pytest.raises(ValueError):
            EstimatorState(estimate=1.0, lo=2.0, hi=1.0, gain=0.05, dt=0.01)

    def test_rejects_estimate_outside_bounds(self):
        with pytest.raises(ValueError):
            EstimatorState(estimate=5.0, lo=0.1, hi=4.0, gain=0.05, dt=0.01)

    def test_rejects_bad_gain(self):
        for gain in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                EstimatorState(estimate=1.0, lo=0.1, hi=4.0, gain=gain, dt=0.01)

    def test_rejects_bad_dt(self):
        for dt in (0.0, -1.0):
            with pytest.raises(ValueError):
                EstimatorState(estimate=1.0, lo=0.1, hi=4.0, gain=0.05, dt=dt)


class TestProjection:
    """The clip of :func:`step_estimate` is the projection onto the
    admissible interval: a signal pointing out of it from a bound leaves
    the estimate exactly on that bound, and any other step is the plain
    Euler step."""

    @staticmethod
    def step(estimate, signal):
        state = EstimatorState(estimate=estimate, lo=0.1, hi=4.0, gain=0.5, dt=0.25)
        return step_estimate(state, signal).estimate

    def test_gates_outward_at_upper_bound(self):
        for signal in (2.5, 1e-300, 0.0, -0.0, np.inf):
            assert self.step(4.0, signal) == 4.0

    def test_gates_outward_at_lower_bound(self):
        for signal in (-2.5, -1e-300, 0.0, -0.0, -np.inf):
            assert self.step(0.1, signal) == 0.1

    def test_passes_interior_signal_exactly(self):
        assert self.step(2.0, 5.25) == 2.0 + 0.125 * 5.25
        assert self.step(2.0, -5.25) == 2.0 - 0.125 * 5.25

    def test_passes_inward_signal_at_bounds(self):
        assert self.step(4.0, -2.5) == 4.0 - 0.125 * 2.5
        assert self.step(0.1, 2.5) == 0.1 + 0.125 * 2.5

    def test_near_bound_is_not_gated(self):
        # an estimate off the bound moves outward, and only the clip stops it
        assert self.step(4.0 - 1e-6, 2e-6) == (4.0 - 1e-6) + 0.125 * 2e-6
        assert self.step(4.0 - 1e-12, 2.5) == 4.0


class TestStepEstimate:
    def base(self, **over):
        kw = dict(estimate=2.0, lo=0.1, hi=4.0, gain=0.05, dt=0.01)
        kw.update(over)
        return EstimatorState(**kw)

    def test_euler_step_value(self):
        st = step_estimate(self.base(), 1.0)
        assert abs(st.estimate - 2.0005) < 1e-12

    def test_zero_signal_leaves_estimate(self):
        assert step_estimate(self.base(), 0.0).estimate == 2.0

    def test_gated_at_bound_stays_put(self):
        st = step_estimate(self.base(estimate=4.0), 10.0)
        assert st.estimate == 4.0

    def test_overshoot_parks_exactly_on_bound(self):
        st = self.base(estimate=3.999, gain=0.5, dt=1.0)
        st = step_estimate(st, 10.0)
        assert st.estimate == 4.0
        # a parked estimate stays on the bound under further outward pushes
        assert step_estimate(st, 10.0).estimate == 4.0

    def test_nan_signal_keeps_estimate(self):
        st = step_estimate(self.base(), float("nan"))
        assert st.estimate == 2.0

    def test_infinite_signal_parks_at_bound(self):
        assert step_estimate(self.base(), float("inf")).estimate == 4.0
        assert step_estimate(self.base(), float("-inf")).estimate == 0.1

    def test_bounds_invariant_under_rough_signals(self):
        rng = np.random.default_rng(3)
        st = self.base(gain=0.9, dt=0.5)
        for _ in range(200):
            st = step_estimate(st, float(rng.standard_cauchy() * 10.0))
            assert 0.1 <= st.estimate <= 4.0


class TestUpdateSignal:
    @pytest.fixture()
    def grid(self):
        return CylinderGrid(51, 50)

    def zeros(self, grid):
        return np.zeros((grid.N, grid.M), dtype=complex)

    def test_zero_inputs(self, grid):
        z = self.zeros(grid)
        assert update_signal(z, z, grid) == 0.0

    def test_closed_form_constant_zero_mode(self, grid):
        # flat unit profiles in the zero wavenumber: -4*pi * int (1+s) ds
        hist, drift = self.zeros(grid), self.zeros(grid)
        hist[grid.N // 2] = 1.0
        drift[grid.N // 2] = 1.0
        assert abs(update_signal(hist, drift, grid) + 6.0 * np.pi) < 1e-10

    def test_quadratic_homogeneity_is_exact(self, grid):
        rng = np.random.default_rng(11)
        hist = grid.analyze(rng.standard_normal((grid.M, grid.N)))
        drift = grid.analyze(rng.standard_normal((grid.M, grid.N)))
        base = update_signal(hist, drift, grid)
        hist2 = 2.0 * hist
        drift2 = 2.0 * drift
        assert update_signal(hist2, drift2, grid) == 4.0 * base

    def test_additive_in_drift(self, grid):
        rng = np.random.default_rng(12)
        hist = grid.analyze(rng.standard_normal((grid.M, grid.N)))
        d1 = grid.analyze(rng.standard_normal((grid.M, grid.N)))
        d2 = grid.analyze(rng.standard_normal((grid.M, grid.N)))
        both = d1 + d2
        a = update_signal(hist, d1, grid) + update_signal(hist, d2, grid)
        b = update_signal(hist, both, grid)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_real_pairing_for_conjugate_symmetric_stacks(self, grid):
        rng = np.random.default_rng(13)
        hist = grid.analyze(rng.standard_normal((grid.M, grid.N)))
        drift = grid.analyze(rng.standard_normal((grid.M, grid.N)))
        w = simpson_weights(grid.M, grid.h_s)
        paired = (hist * np.conj(drift)).sum(axis=0)
        full = -4.0 * np.pi * np.sum(paired * (1.0 + grid.s) * w)
        assert abs(full.imag) <= 1e-12 * abs(full.real)
        got = update_signal(hist, drift, grid)
        assert abs(got - full.real) <= 1e-12 * max(1.0, abs(full.real))

    def test_stacked_channels_add_their_shares_in_order(self, grid):
        # the run's one call on the (planar, axial) stack is the sum of the
        # two per-channel calls, bit for bit
        rng = np.random.default_rng(14)
        hist, drift = (np.stack([grid.analyze(rng.standard_normal((grid.M, grid.N))
                                              + 1j * rng.standard_normal((grid.M, grid.N))),
                                 grid.analyze(rng.standard_normal((grid.M, grid.N)))])
                       for _ in range(2))
        each = [update_signal(h, d, grid) for h, d in zip(hist, drift)]
        assert update_signal(hist, drift, grid) == each[0] + each[1]


def loop_drift(target, history, ks):
    """The mismatch drift as a control step forms it: the state part from
    the step product on the deviation whose target state is ``target``
    (recovered by an exact solve), the root-value part from ``history``."""
    _, state = step_images(np.zeros_like(target)[None],
                           from_target_state(target, ks)[None], [ks])
    return mismatch_drift(state[0], history, ks.edge_flow)


def step_drift(transport, measured, ks):
    """Drift of one control step's own history, from the step's inputs."""
    history, state = step_images(transport[None], measured[None], [ks])
    return mismatch_drift(state[0], history[0], ks.edge_flow)


class TestMismatchDrift:
    def test_zero_stacks_give_zero(self, fine_set):
        zero = np.zeros((fine_set.grid.modes.size, fine_set.grid.M), dtype=complex)
        assert np.max(np.abs(step_drift(zero, zero, fine_set))) == 0.0

    def test_equilibrium_is_a_fixed_point(self, fine_set):
        grid = fine_set.grid
        steady = grid.analyze(np.random.default_rng(4).standard_normal((grid.M, grid.N)))
        ctrl = channel(fine_set)
        upd = control_step(ctrl, steady, steady, DelayLine(grid.modes.size, 0.01, 2.0), 0.0)
        out = mismatch_drift(upd.state_drift, upd.target_history, fine_set.edge_flow)
        assert np.max(np.abs(out)) == 0.0

    def test_stacked_channels_match_each_channel(self, fine_set):
        # the run's one call on the stack, each channel with its own set's
        # edge flow, equals the per-channel calls bit for bit
        grid = fine_set.grid
        sets = (fine_set, KernelSet(KernelBasis(PlantCoeffs(3.0, 0.5), grid), 0.7))
        rng = np.random.default_rng(8)
        tables = [[grid.analyze(rng.standard_normal((grid.M, grid.N))) for _ in sets]
                  for _ in range(2)]
        state, history = (np.stack(t) for t in tables)
        got = mismatch_drift(state, history, np.stack([ks.edge_flow for ks in sets]))
        for c, ks in enumerate(sets):
            assert np.array_equal(got[c], mismatch_drift(state[c], history[c], ks.edge_flow))

    def test_zero_reaction_coefficient_kills_drift(self):
        grid = CylinderGrid(51, 8)
        ks = KernelSet(KernelBasis(PlantCoeffs(0.0, 0.0), grid, i_max=8), 1.5)
        rng = np.random.default_rng(5)
        tht = grid.analyze(rng.standard_normal((grid.M, grid.N)))
        phi = grid.analyze(rng.standard_normal((grid.M, grid.N)))
        out = step_drift(tht, phi, ks)
        assert np.max(np.abs(out)) == 0.0

    @pytest.mark.parametrize("n,h0", [(2, 0.0), (2, 0.7), (0, 0.0)])
    def test_matches_independent_reference(self, fine_set, refs, n, h0):
        grid = fine_set.grid
        tgt, hist, row = single_row_stacks(grid, n, np.sin(np.pi * grid.s), h0)
        got = loop_drift(tgt, hist, fine_set)
        want = ref.mismatch_reference(LAM, DHAT, n, grid.s,
                                      refs["k"], refs["t"], refs["e"], h0)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got[row] - want)) <= 1e-7 * scale
        # untouched wavenumbers stay clean
        assert np.max(np.abs(np.delete(got, row, axis=0))) == 0.0

    def test_power_of_two_scaling_is_exact(self, fine_set):
        grid = fine_set.grid
        rng = np.random.default_rng(6)
        tht = grid.analyze(rng.standard_normal((grid.M, grid.N)))
        phi = grid.analyze(rng.standard_normal((grid.M, grid.N)))
        base = step_drift(tht, phi, fine_set)
        assert np.array_equal(step_drift(2.0 * tht, 2.0 * phi, fine_set),
                              2.0 * base)

    def test_preserves_conjugate_symmetry(self, fine_set):
        grid = fine_set.grid
        rng = np.random.default_rng(7)
        tht = grid.analyze(rng.standard_normal((grid.M, grid.N)))
        phi = grid.analyze(rng.standard_normal((grid.M, grid.N)))
        out = step_drift(tht, phi, fine_set)
        scale = np.max(np.abs(out))
        assert conjugate_symmetry_defect(out) <= 1e-12 * scale

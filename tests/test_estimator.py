"""Estimator checks: the mismatch drift a control step forms and the
adaptation drift against scratch-built references (the latter also against
the row-by-row assembly), the gating rules of the scalar update law,
and the cross-exponential helpers of that row-by-row assembly."""

import dataclasses

import numpy as np
import pytest

from cylform import estimator
from cylform.controller import ChannelController, step_images
from cylform.estimator import (_TAYLOR_CUT, EstimatorState, adaptation_drift,
                               mismatch_drift, project, step_estimate,
                               update_signal)
from cylform.geometry import CylinderGrid
from cylform.kernels import KernelBasis, KernelSet, PlantCoeffs
from cylform.plant import DelayLine
from cylform.quadrature import simpson_weights
from oracles import drift_reference as ref
from oracles import drift_rowwise
from oracles.drift_rowwise import cross_exp_conv, cross_exp_table, phi_funcs
from oracles.mode_symmetry import conjugate_symmetry_defect
from oracles.transforms import from_target_state

LAM = 8.0
DHAT = 1.0


@pytest.fixture(scope="module")
def refs():
    return {
        "k": ref.sine_coefficients(ref.forward_edge(LAM), 64),
        "l": ref.sine_coefficients(ref.inverse_edge(LAM), 64),
        "t": ref.composed_sine_coefficients(LAM, 64),
        "e": ref.edge_integral(LAM),
    }


@pytest.fixture(scope="module")
def fine_set():
    # fine axial grid: the assembled drift inherits an O(h^4) floor from the
    # composed-profile weights, amplified by the stiff leading rates
    grid = CylinderGrid(251, 8)
    return KernelSet(KernelBasis(PlantCoeffs(LAM, 0.0), grid, i_max=64), DHAT)


@pytest.fixture(scope="module")
def mid_set():
    grid = CylinderGrid(101, 8)
    return KernelSet(KernelBasis(PlantCoeffs(LAM, 0.0), grid, i_max=32), DHAT)


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
    def test_gates_outward_at_upper_bound(self):
        assert project(4.0, 2.5, 0.1, 4.0) == 0.0

    def test_gates_outward_at_lower_bound(self):
        assert project(0.1, -2.5, 0.1, 4.0) == 0.0

    def test_passes_interior_signal_exactly(self):
        assert project(2.0, 5.25, 0.1, 4.0) == 5.25
        assert project(2.0, -5.25, 0.1, 4.0) == -5.25

    def test_passes_inward_signal_at_bounds(self):
        assert project(4.0, -2.5, 0.1, 4.0) == -2.5
        assert project(0.1, 2.5, 0.1, 4.0) == 2.5

    def test_near_bound_is_not_gated(self):
        assert project(4.0 - 1e-12, 2.5, 0.1, 4.0) == 2.5


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
        # parked estimate is now gated against further outward pushes
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


def loop_drift(target, history, ks):
    """The mismatch drift as a control step forms it: the state part from
    the step product on the deviation whose target state is ``target``
    (recovered by an exact solve), the root-value part from ``history``."""
    _, state = step_images(np.zeros_like(target), from_target_state(target, ks), ks)
    return mismatch_drift(state, history, ks)


def step_drift(transport, measured, ks):
    """Drift of one control step's own history, from the step's inputs."""
    history, state = step_images(transport, measured, ks)
    return mismatch_drift(state, history, ks)


class TestMismatchDrift:
    def test_zero_stacks_give_zero(self, fine_set):
        zero = np.zeros((fine_set.grid.modes.size, fine_set.grid.M), dtype=complex)
        assert np.max(np.abs(step_drift(zero, zero, fine_set))) == 0.0

    def test_equilibrium_is_a_fixed_point(self, fine_set):
        grid = fine_set.grid
        steady = grid.analyze(np.random.default_rng(4).standard_normal((grid.M, grid.N)))
        ctrl = ChannelController(fine_set, steady, "real")
        upd = ctrl.update(steady, DelayLine(grid.modes.size, 0.01, 2.0), 0.0)
        out = mismatch_drift(upd.state_drift, upd.target_history, fine_set)
        assert np.max(np.abs(out)) == 0.0

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


class TestAdaptationDrift:
    def test_zero_stacks_give_zero(self, mid_set):
        grid = mid_set.grid
        tgt, hist, _ = single_row_stacks(grid, 0, 0.0, 0.0)
        out = adaptation_drift(tgt, hist, mid_set)
        assert np.max(np.abs(out)) == 0.0

    def test_matches_independent_reference(self, mid_set, refs):
        grid = mid_set.grid
        tgt, hist, row = single_row_stacks(grid, 2, np.sin(np.pi * grid.s),
                                           grid.s - grid.s**2)
        got = adaptation_drift(tgt, hist, mid_set)[row]
        for s_val, idx in ((0.4, 40), (1.0, 100)):
            terms = ref.adaptation_terms(LAM, DHAT, 2, s_val,
                                         refs["k"][:32], refs["l"][:32],
                                         refs["t"][:32])
            want = sum(terms)
            assert abs(got[idx] - want) <= 1e-7 * abs(want)
            # the four pieces are same-order: the comparison is not riding
            # on a catastrophic cancellation
            assert max(abs(t) for t in terms) <= 50.0 * abs(want)

    def test_exact_rate_collision_stays_finite(self):
        # reaction coefficient placed so two series rates coincide exactly,
        # driving the cross convolutions through their Taylor branch
        grid = CylinderGrid(101, 8)
        lam = 3.0 * np.pi**2
        ks = KernelSet(KernelBasis(PlantCoeffs(lam, 0.0), grid, i_max=32), 0.5)
        gaps = np.abs(ks.inv_rates[0][None, :] - ks.rates[0][:, None])
        assert np.min(gaps) < 1e-12
        tgt, hist, row = single_row_stacks(grid, 0, np.sin(np.pi * grid.s),
                                           grid.s - grid.s**2)
        out = adaptation_drift(tgt, hist, ks)
        assert np.all(np.isfinite(out))
        assert np.max(np.abs(out[row])) > 0.0
        others = np.delete(out, row, axis=0)
        assert np.max(np.abs(others)) == 0.0

    def test_power_of_two_scaling_is_exact(self, mid_set):
        grid = mid_set.grid
        rng = np.random.default_rng(8)
        tgt = grid.analyze(rng.standard_normal((grid.M, grid.N)))
        hist = grid.analyze(rng.standard_normal((grid.M, grid.N)))
        base = adaptation_drift(tgt, hist, mid_set)
        tgt2 = 2.0 * tgt
        hist2 = 2.0 * hist
        assert np.array_equal(adaptation_drift(tgt2, hist2, mid_set),
                              2.0 * base)


def split_stacks(grid, seed):
    """Random stacks with the target zeroed on rows ``n % 3 == 2`` and the
    history on rows ``n % 3 == 1``.

    The drift acts row by row, so one call yields state-only, history-only
    and combined rows; each class is checked on its own scale, so neither
    term can hide behind the other.
    """
    rng = np.random.default_rng(seed)
    tgt = grid.analyze(rng.standard_normal((grid.M, grid.N)))
    hist = grid.analyze(rng.standard_normal((grid.M, grid.N)))
    tgt[grid.modes % 3 == 2] = 0.0
    hist[grid.modes % 3 == 1] = 0.0
    return tgt, hist


def assert_matches_rowwise(ks, seed, rtol=1e-11):
    grid = ks.grid
    tgt, hist = split_stacks(grid, seed)
    got = adaptation_drift(tgt, hist, ks)
    want = drift_rowwise.adaptation_drift(tgt, hist, ks)
    for name, rows in (("state", 1), ("history", 2), ("combined", 0)):
        mask = grid.modes % 3 == rows
        scale = np.max(np.abs(want[mask]))
        assert scale > 0.0, name
        assert np.max(np.abs(got[mask] - want[mask])) <= rtol * scale, name


class TestContractedDrift:
    """The stack-wide contraction against the row-by-row oracle.

    The oracle costs 20-40 ms per row, so the suite runs three coefficient
    sets at 21x16, one at 51x50 and the rate-gap sweep on a 21x8 grid.  The
    full product (both sizes, all three sets, estimates 0.2, 1 and 2, and
    the gap sweep at 101x8) agreed to <= 3.4e-13 relative when last run.
    """

    @pytest.mark.parametrize("shape,coeffs,dhat", [
        ((21, 16), PlantCoeffs(12.0, 0.5), 0.2),
        ((21, 16), PlantCoeffs(8.0, 0.5), 1.0),
        ((21, 16), PlantCoeffs(12.0 + 3.0j, 0.5 + 0.2j), 2.0),
        ((51, 50), PlantCoeffs(8.0, 0.5), 0.2),
    ], ids=["21x16-12", "21x16-8", "21x16-complex", "51x50-8"])
    def test_matches_rowwise_oracle(self, shape, coeffs, dhat):
        grid = CylinderGrid(*shape)
        assert_matches_rowwise(KernelSet(KernelBasis(coeffs, grid), dhat), 21)

    @pytest.mark.parametrize("gap", [
        0.0, 1e-6, 0.02, _TAYLOR_CUT * (1.0 - 3e-6), _TAYLOR_CUT * (1.0 + 3e-6),
        0.1, 0.45, 0.9,
    ])
    def test_rate_gap_sweep_matches_rowwise_oracle(self, gap):
        # reaction placed so that harmonic 2 of the predictor series and
        # harmonic 1 of the inverse series sit exactly ``gap`` apart
        dhat = 0.5
        grid = CylinderGrid(21, 8)
        lam = 3.0 * np.pi**2 - gap / dhat
        ks = KernelSet(KernelBasis(PlantCoeffs(lam, 0.0), grid, i_max=32), dhat)
        pair_gap = ks.inv_rates[0, 0] - ks.rates[0, 1]
        assert abs(pair_gap - gap) < 1e-12
        assert (abs(pair_gap) < _TAYLOR_CUT) == (gap < _TAYLOR_CUT)
        assert_matches_rowwise(ks, 22)

    @pytest.mark.parametrize("n_modes", [8, 50])
    def test_convolution_count_does_not_grow_with_modes(self, monkeypatch,
                                                         n_modes):
        grid = CylinderGrid(21, n_modes)
        ks = KernelSet(KernelBasis(PlantCoeffs(12.0, 0.5), grid), 1.0)
        tgt, hist = split_stacks(grid, 23)
        calls = []
        real = estimator.exp_conv_paired

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(estimator, "exp_conv_paired", counted)
        adaptation_drift(tgt, hist, ks)
        assert len(calls) == 6


class TestCrossExpHelpers:
    s = np.linspace(0.0, 1.0, 11)

    def test_table_matches_divided_difference(self):
        a = np.array([-2.0, -5.0, 3.0])
        c = np.array([-3.0])
        g0, g1 = cross_exp_table(a, c, self.s)
        ref0 = (np.exp(c[0] * self.s)[None, :] - np.exp(np.outer(a, self.s))) \
            / (c[0] - a)[:, None]
        ref1 = (ref0 - self.s * np.exp(np.outer(a, self.s))) / (c[0] - a)[:, None]
        assert np.max(np.abs(g0[:, 0] - ref0)) < 1e-13
        assert np.max(np.abs(g1[:, 0] - ref1)) < 1e-13

    def test_table_coinciding_rates(self):
        g0, g1 = cross_exp_table(np.array([-4.0]), np.array([-4.0]), self.s)
        assert np.max(np.abs(g0[0, 0] - self.s * np.exp(-4.0 * self.s))) < 1e-15
        assert np.max(np.abs(g1[0, 0] - 0.5 * self.s**2 * np.exp(-4.0 * self.s))) < 1e-15

    def test_near_entries_match_full_phi_evaluation(self):
        # the phi-series runs on the near entries only; they must come out
        # exactly as if every entry had been sent through it
        a = np.array([-2.0, -5.0, -40.0, 3.0])
        c = np.array([-2.3, -5.1, -9.8])
        g0, g1 = cross_exp_table(a, c, self.s)
        x = (c[None, :, None] - a[:, None, None]) * self.s
        near = np.abs(x) < 0.5
        p1, p2 = phi_funcs(np.where(near, x, 0.0))
        ea = np.exp(a[:, None, None] * self.s)
        assert np.any(near) and not np.all(near)
        assert np.array_equal(g0[near], np.broadcast_to(self.s * ea * p1, x.shape)[near])
        assert np.array_equal(g1[near], np.broadcast_to(self.s**2 * ea * p2, x.shape)[near])

    def test_table_survives_stiff_gap(self):
        # gap*s in the tens of thousands: naive phi-form would hit 0 * inf
        g0, g1 = cross_exp_table(np.array([-4.0e4]), np.array([-9.8]), self.s)
        want = (np.exp(-9.8 * self.s) - np.exp(-4.0e4 * self.s)) / (4.0e4 - 9.8)
        assert np.all(np.isfinite(g0)) and np.all(np.isfinite(g1))
        assert np.max(np.abs(g0[0, 0] - want)) < 1e-15

    @pytest.mark.parametrize("gap", [1e-3, 2e-2, 5e-2, 0.5])
    def test_conv_constant_profile_closed_form(self, gap):
        h = 0.01
        s = np.arange(101) * h
        a = np.array([-3.0])
        c = a + gap
        c0, c1 = cross_exp_conv(a, c, np.ones(101), h)
        m0a = np.expm1(a[0] * s) / a[0]
        m0c = np.expm1(c[0] * s) / c[0]
        m1a = (s * np.exp(a[0] * s) - m0a) / a[0]
        want0 = (m0c - m0a) / gap
        want1 = (m0c - m0a - gap * m1a) / gap**2
        assert np.max(np.abs(c0[0, 0] - want0)) < 1e-8
        assert np.max(np.abs(c1[0, 0] - want1)) < 3e-7

    def test_branches_agree_at_the_cut(self):
        h = 0.01
        a = np.array([-3.0])
        lo = cross_exp_conv(a, a + _TAYLOR_CUT * (1.0 - 1e-9), np.ones(101), h)
        hi = cross_exp_conv(a, a + _TAYLOR_CUT * (1.0 + 1e-9), np.ones(101), h)
        assert np.max(np.abs(lo[0] - hi[0])) < 5e-7
        assert np.max(np.abs(lo[1] - hi[1])) < 5e-7

    def test_shapes(self):
        c0, c1 = cross_exp_conv(np.array([-1.0, -2.0, -3.0]),
                                np.array([-4.0, -5.0]), np.ones(11), 0.1)
        assert c0.shape == (3, 2, 11)
        assert c1.shape == (3, 2, 11)

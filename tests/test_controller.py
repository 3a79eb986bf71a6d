"""Command-synthesis pipeline checks.

Round trips through the exact inverses must sit at roundoff level; the
independent inverse-kernel routes are held to their analyzable accuracy
(cubic-in-spacing for the state pair, reciprocal-truncation-order for the
history pair) so the reciprocity itself is what gets verified, not a
tautological matrix inversion.
"""

from collections import Counter

import numpy as np
import pytest

from cylform import controller, estimator, kernels, quadrature
from cylform.controller import (
    ChannelController,
    control_modes,
    reconstruct_transport,
    step_images,
    symmetrize_command,
    to_target_state,
)
from cylform.geometry import CylinderGrid
from cylform.kernels import KernelBasis, KernelSet, PlantCoeffs
from cylform.plant import DelayLine
from oracles import seed_pipeline
from oracles.delay_lookup import lookup
from oracles.dense_law import (
    periodic_simpson_weights,
    remove_advection,
    simpson_control,
)
from oracles.mode_symmetry import conjugate_symmetry_defect
from oracles.recorded_law import control_modes_recorded
from oracles.transforms import (
    control_mode,
    from_target_history,
    from_target_history_series,
    from_target_state,
    from_target_state_kernel,
    restore_advection,
)


@pytest.fixture(scope="module")
def grid():
    return CylinderGrid(51, 50)


@pytest.fixture(scope="module")
def kit(grid):
    basis = KernelBasis(PlantCoeffs(8.0, 1.0), grid, i_max=64)
    return KernelSet(basis, 1.0)


def smooth_stack(rng, grid, n_band=8, k_s=4, pinned_root=True):
    """Random angular-bandlimited mode table, axially smooth."""
    coeffs = np.zeros((grid.N, grid.M), dtype=complex)
    half = grid.N // 2
    for n in range(-n_band, n_band + 1):
        amp = rng.normal(size=k_s) + 1j * rng.normal(size=k_s)
        if pinned_root:
            prof = sum(a * np.sin((k + 1) * np.pi / 2 * grid.s)
                       for k, a in enumerate(amp))
        else:
            prof = sum(a * np.cos(k * grid.s) for k, a in enumerate(amp))
        coeffs[half + n] = prof / (1 + n * n)
    return coeffs


def to_target_history(transport, measured, ks):
    """The target history half of the control step's product."""
    return step_images(transport, measured, ks)[0]


class TestAdvectionLift:
    def test_zero_deviation_gives_zero(self, grid):
        vals = np.outer(grid.s, np.cos(grid.theta))
        out = remove_advection(vals, vals, 1.0, grid)
        assert np.max(np.abs(out)) == 0.0

    def test_zero_advection_is_plain_difference(self, grid):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=(grid.M, grid.N))
        base = rng.normal(size=(grid.M, grid.N))
        out = remove_advection(vals, base, 0.0, grid)
        assert np.allclose(out, vals - base, atol=1e-15)

    def test_round_trip(self, grid):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=(grid.M, grid.N)) + 1j * rng.normal(size=(grid.M, grid.N))
        base = rng.normal(size=(grid.M, grid.N))
        fwd = remove_advection(vals, base, 1.3, grid)
        back = restore_advection(fwd, base, 1.3, grid)
        assert np.max(np.abs(back - vals)) <= 1e-14 * np.max(np.abs(vals))


class TestReconstructTransport:
    """The line records the band coefficients of each command profile."""

    def _line(self, grid, dt=0.05):
        return DelayLine(grid.modes.size, dt, horizon=5.0)

    def test_constant_history(self, grid):
        line = self._line(grid)
        prof = np.cos(grid.theta) + 2.0
        for k in range(40):
            line.record(k * 0.05, grid.analyze_rows(prof))
        stack = reconstruct_transport(line, 1.9, 1.0, grid)
        want = grid.analyze_rows(prof)
        assert np.max(np.abs(stack - want[:, None])) <= 1e-13

    def test_zero_delay_limit(self, grid):
        line = self._line(grid)
        for k in range(10):
            line.record(k * 0.05, grid.analyze_rows(np.full(grid.N, float(k))))
        stack = reconstruct_transport(line, 0.45, 0.0, grid)
        assert np.allclose(stack[grid.N // 2], 9.0, atol=1e-12)
        assert np.max(np.abs(np.diff(stack, axis=1))) <= 1e-12

    def test_ramp_history_is_exact(self, grid):
        # linear interpolation reproduces a ramp exactly, so each node holds
        # the lookup time itself
        line = self._line(grid)
        for k in range(80):
            line.record(k * 0.05, grid.analyze_rows(np.full(grid.N, k * 0.05)))
        t, dhat = 3.0, 1.25
        stack = reconstruct_transport(line, t, dhat, grid)
        want = t + dhat * (grid.s - 1.0)
        got = stack[grid.N // 2].real
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_advection_gain_applied(self, grid):
        line = self._line(grid)
        for k in range(10):
            line.record(k * 0.05, grid.analyze_rows(np.ones(grid.N)))
        stack = reconstruct_transport(line, 0.45, 0.2, grid, gain=np.exp(1.0))
        assert abs(stack[grid.N // 2, 0] - np.exp(1.0)) <= 1e-12

    def test_table_synthesizes_to_the_scaled_profiles(self, grid):
        # each node of the table is the scaled command profile in flight,
        # read from a line of physical profiles one scalar lookup at a time
        band, physical = self._line(grid), DelayLine(grid.N, 0.05, horizon=5.0)
        rng = np.random.default_rng(5)
        for k in range(30):
            prof = rng.normal(size=grid.N) + 1j * rng.normal(size=grid.N)
            band.record(k * 0.05, grid.analyze_rows(prof))
            physical.record(k * 0.05, prof)
        t, dhat, adv = 1.45, 0.9, 0.5 + 0.2j
        stack = reconstruct_transport(band, t, dhat, grid, gain=np.exp(0.5 * adv))
        want = np.exp(0.5 * adv) * np.stack(
            [lookup(physical, tt) for tt in t + dhat * (grid.s - 1.0)])
        assert np.max(np.abs(grid.synthesize(stack) - want)) \
            <= 1e-13 * np.max(np.abs(want))


class TestStateTransformPair:
    def test_zero_kernel_is_identity(self, grid):
        basis = KernelBasis(PlantCoeffs(0.0, 0.0), grid, i_max=16)
        ks = KernelSet(basis, 1.0)
        phi = smooth_stack(np.random.default_rng(2), grid)
        w = to_target_state(phi, ks)
        assert np.max(np.abs(w - phi)) <= 1e-14

    def test_exact_round_trip(self, grid, kit):
        rng = np.random.default_rng(3)
        for _ in range(3):
            phi = smooth_stack(rng, grid)
            back = from_target_state(to_target_state(phi, kit), kit)
            assert np.max(np.abs(back - phi)) <= 1e-12

    def test_kernel_route_round_trip(self, grid, kit):
        # independent inverse through the closed-form kernel; accuracy is
        # capped by quadratic interpolation of the node samples
        rng = np.random.default_rng(4)
        phi = smooth_stack(rng, grid)
        back = from_target_state_kernel(to_target_state(phi, kit), kit)
        scale = np.max(np.abs(phi))
        assert np.max(np.abs(back - phi)) <= 1e-4 * scale

    def test_kernel_route_converges_cubically(self):
        # the same round trip on refining grids: defect must drop by ~8x
        # per halving, confirming the pair identity is what's measured
        errs = []
        for m in (25, 49, 97):
            g = CylinderGrid(m, 8)
            basis = KernelBasis(PlantCoeffs(8.0, 0.0), g, i_max=48)
            ks = KernelSet(basis, 1.0)
            prof = np.sin(np.pi / 2 * g.s) + 0.4 * np.sin(np.pi * g.s)
            phi = np.zeros((g.N, g.M), dtype=complex)
            phi[g.N // 2] = prof
            back = from_target_state_kernel(to_target_state(phi, ks), ks)
            errs.append(np.max(np.abs(back - phi)))
        assert errs[1] <= 0.22 * errs[0]
        assert errs[2] <= 0.22 * errs[1]


class TestHistoryTransformPair:
    def test_zero_kernel_history_is_identity(self, grid):
        basis = KernelBasis(PlantCoeffs(0.0, 0.0), grid, i_max=16)
        ks = KernelSet(basis, 1.0)
        rng = np.random.default_rng(5)
        tht = smooth_stack(rng, grid, pinned_root=False)
        phi = smooth_stack(rng, grid)
        h = to_target_history(tht, phi, ks)
        assert np.max(np.abs(h - tht)) <= 1e-14

    def test_exact_round_trip(self, grid, kit):
        rng = np.random.default_rng(6)
        for _ in range(3):
            phi = smooth_stack(rng, grid)
            tht = smooth_stack(rng, grid, pinned_root=False)
            w = to_target_state(phi, kit)
            h = to_target_history(tht, phi, kit)
            back = from_target_history(h, w, kit)
            assert np.max(np.abs(back - tht)) <= 1e-11

    def test_series_route_improves_with_truncation_order(self, grid):
        # the series inverse carries an O(1/i_max) identity defect because
        # the lag-kernel edge coefficients do not decay; verify the defect
        # shrinks accordingly, which pins the kernel structure
        rng = np.random.default_rng(7)
        errs = []
        for imax in (32, 64, 128):
            basis = KernelBasis(PlantCoeffs(2.0, 0.0), grid, i_max=imax)
            ks = KernelSet(basis, 1.0)
            rng2 = np.random.default_rng(7)
            phi = smooth_stack(rng2, grid)
            tht = smooth_stack(rng2, grid, pinned_root=False)
            w = to_target_state(phi, ks)
            h = to_target_history(tht, phi, ks)
            back = from_target_history_series(h, w, ks)
            errs.append(np.max(np.abs(back - tht)))
        assert errs[1] <= 0.65 * errs[0]
        assert errs[2] <= 0.65 * errs[1]


def rim_solve(measured, transport, ks):
    """The command law for a transport whose rim node is ignored."""
    zeroed = transport.copy()
    zeroed[:, -1] = 0.0
    return control_modes(to_target_history(zeroed, measured, ks), ks)


class TestControlLaw:
    def test_zero_kernel_command_is_zero(self, grid):
        basis = KernelBasis(PlantCoeffs(0.0, 0.0), grid, i_max=16)
        ks = KernelSet(basis, 1.0)
        rng = np.random.default_rng(8)
        phi = smooth_stack(rng, grid)
        tht = smooth_stack(rng, grid, pinned_root=False)
        cmd = rim_solve(phi, tht, ks)
        assert np.max(np.abs(cmd)) <= 1e-14
        row = 3 + grid.N // 2
        single = control_mode(3, phi[row], tht[row], ks)
        assert abs(single) <= 1e-14

    def test_zero_inputs_give_zero(self, kit, grid):
        zero = np.zeros((grid.N, grid.M), dtype=complex)
        assert np.max(np.abs(rim_solve(zero, zero, kit))) == 0.0
        assert control_mode(0, zero[grid.N // 2], zero[grid.N // 2], kit) == 0.0

    def test_state_integral_against_refined_contraction(self):
        # manufactured deviation profile with a single axial sine: the state
        # part of the command is a pure series contraction whose sine
        # coefficients an oracle recomputes on a 10x refined grid
        g = CylinderGrid(201, 8)
        for lam, dh, n in [(8.0, 1.0, 0), (12.0, 0.5, 2), (-5.0, 2.0, 1)]:
            basis = KernelBasis(PlantCoeffs(lam, 0.0), g, i_max=64)
            ks = KernelSet(basis, dh)
            phi_row = np.sin(np.pi * g.s).astype(complex)
            got = control_mode(n, phi_row, np.zeros(g.M, dtype=complex), ks)

            from cylform.quadrature import sine_weights
            m_ref = 10 * (g.M - 1) + 1
            xr = np.linspace(0.0, 1.0, m_ref)
            wsr = sine_weights(np.pi * np.arange(1, 65), m_ref, 1.0 / (m_ref - 1))
            s_ref = wsr @ np.sin(np.pi * xr)
            want = 2.0 * np.sum(np.exp(ks.rates[n]) * basis.fwd_sine * s_ref)
            assert abs(got - want) <= 1e-8 * abs(want)

    def test_implicit_rim_solve_zeroes_history_rim(self, grid, kit):
        # after inserting the implicit command as the rim node, the history
        # image must vanish at the rim to roundoff
        rng = np.random.default_rng(9)
        phi = smooth_stack(rng, grid)
        tht = smooth_stack(rng, grid, pinned_root=False)
        cmd = rim_solve(phi, tht, kit)
        tht[:, -1] = cmd
        h = to_target_history(tht, phi, kit)
        scale = np.max(np.abs(tht)) + np.max(np.abs(phi))
        assert np.max(np.abs(h[:, -1])) <= 1e-12 * scale

    @pytest.mark.parametrize("coeffs", [PlantCoeffs(8.0, 1.0),
                                        PlantCoeffs(10.0 + 2.0j, 0.5 + 0.5j)],
                             ids=["real", "complex"])
    @pytest.mark.parametrize("delay", [0.2, 1.0, 2.0])
    def test_command_zeroes_reference_history_rim(self, coeffs, delay):
        # the history image rebuilt from running convolutions, independent
        # of the precomputed rim row the law solves against
        g = CylinderGrid(21, 16)
        ks = KernelSet(KernelBasis(coeffs, g), delay)
        rng = np.random.default_rng(19)
        phi = smooth_stack(rng, g, n_band=6)
        tht = smooth_stack(rng, g, n_band=6, pinned_root=False)
        cmd = rim_solve(phi, tht, ks)
        want = seed_pipeline.control_modes(phi, tht, ks)
        assert np.max(np.abs(cmd - want)) <= 1e-12 * np.max(np.abs(want))
        tht[:, -1] = cmd
        h = seed_pipeline.to_target_history(tht, phi, ks)
        scale = np.max(np.abs(tht)) + np.max(np.abs(phi))
        assert np.max(np.abs(h[:, -1])) <= 1e-12 * scale

    def test_direct_law_disagrees_when_rim_is_stale(self, grid, kit):
        # the open-form law evaluated with a stale rim value must differ from
        # the implicit solve by a visible amount: the rim node's quadrature
        # weight is not negligible
        rng = np.random.default_rng(10)
        phi = smooth_stack(rng, grid)
        tht = smooth_stack(rng, grid, pinned_root=False)
        cmd = rim_solve(phi, tht, kit)
        direct = np.array([control_mode(int(n), phi[k], tht[k], kit)
                           for k, n in enumerate(grid.modes)])
        assert np.max(np.abs(cmd - direct)) > 1e-6 * np.max(np.abs(cmd))


class TestRecordLatticeLaw:
    """The two history quadratures on one constant record history.

    Zero state, unit records up to one step before ``t`` (reaction 12,
    advection 0.5, delay 1, mode 0): the lattice route of the oracle and the
    axial-grid route of the package disagree by tens of percent, and each
    moves with its own spacing, so both values are pinned as they are.
    """

    @pytest.mark.parametrize("M, dt, lattice, axial", [
        (21, 0.01, -78.66135715887484, -56.98855094599946),
        (51, 0.0025, -96.60463258917048, -73.21193382535078),
    ])
    def test_unit_history_commands(self, M, dt, lattice, axial):
        g = CylinderGrid(M, 16)
        ks = KernelSet(KernelBasis(PlantCoeffs(12.0, 0.5), g), 1.0)
        last = round(2.0 / dt)
        line = DelayLine(g.modes.size, dt, horizon=4.0)
        for j in range(last + 1):
            line.record(j * dt, g.analyze_rows(np.ones(g.N)))
        t = (last + 1) * dt
        zero = np.zeros((g.N, g.M), dtype=complex)
        row = g.N // 2                                      # mode 0
        cmd, denom, rhs = control_modes_recorded(zero, line, t, ks)
        assert cmd[row] == pytest.approx(lattice, rel=1e-9)
        assert np.array_equal(cmd, rhs / denom)
        transport = reconstruct_transport(line, t, ks.delay, g, np.exp(0.25))
        assert rim_solve(zero, transport, ks)[row] == pytest.approx(axial, rel=1e-9)


class TestSymmetrize:
    def test_projection_gives_real_profile(self, grid):
        rng = np.random.default_rng(11)
        cmd = rng.normal(size=grid.N) + 1j * rng.normal(size=grid.N)
        sym = symmetrize_command(grid, cmd)
        prof = grid.synthesize_profile(sym)
        assert np.max(np.abs(prof.imag)) <= 1e-13
        # projection is idempotent
        again = symmetrize_command(grid, sym)
        assert np.allclose(again, sym, atol=1e-15)

    def test_matches_pointwise_real_part(self, grid):
        rng = np.random.default_rng(12)
        cmd = rng.normal(size=grid.N) + 1j * rng.normal(size=grid.N)
        via_modes = grid.synthesize_profile(symmetrize_command(grid, cmd), kind="real")
        direct = grid.synthesize_profile(cmd).real
        assert np.max(np.abs(via_modes - direct)) <= 1e-13


class TestPeriodicSimpson:
    def test_integrates_harmonics_exactly_below_band_edge(self):
        n, h = 50, 2 * np.pi / 50
        w = periodic_simpson_weights(n, h)
        theta = -np.pi + h * np.arange(n)
        for k in (0, 1, 7, 24):
            val = w @ np.exp(1j * k * theta)
            want = 2 * np.pi if k == 0 else 0.0
            assert abs(val - want) <= 1e-12

    def test_rejects_odd_count(self):
        with pytest.raises(ValueError):
            periodic_simpson_weights(7, 0.1)


def run_update(controller, values, line, t):
    """One control step on the mode table of ``values``; the line records
    the command's band coefficients, as a run does."""
    upd = controller.update(controller.grid.analyze(values), line, t)
    line.record(t, upd.command_modes)
    return upd


class TestChannelController:
    def _setup(self, grid, lam=8.0, beta=1.0, dhat=1.0, kind="complex"):
        basis = KernelBasis(PlantCoeffs(lam, beta), grid, i_max=64)
        ks = KernelSet(basis, dhat)
        rng = np.random.default_rng(13)
        steady = rng.normal(size=(grid.M, grid.N))
        if kind == "complex":
            steady = steady + 1j * rng.normal(size=(grid.M, grid.N))
        ctrl = ChannelController(ks, grid.analyze(steady), kind=kind)
        line = DelayLine(grid.modes.size, 0.02, horizon=4.0)
        return ctrl, line, steady

    def test_steady_state_and_empty_history_give_zero_command(self, grid):
        ctrl, line, steady = self._setup(grid)
        upd = ctrl.update(grid.analyze(steady), line, 0.0)
        assert np.max(np.abs(upd.command)) <= 1e-12
        assert upd.h_residual <= 1e-12

    def test_history_rim_residual_stays_small_across_steps(self, grid):
        ctrl, line, steady = self._setup(grid)
        rng = np.random.default_rng(14)
        for k in range(6):
            bump = 0.1 * np.outer(np.sin(np.pi * grid.s),
                                  np.cos((k % 3 + 1) * grid.theta))
            vals = steady + bump + 0.05 * rng.normal(size=(grid.M, grid.N))
            vals[0] = steady[0]  # anchored rim carries no deviation
            upd = run_update(ctrl, vals, line, k * 0.02)
            assert upd.h_residual <= 1e-10

    @pytest.mark.parametrize("kind", ["complex", "real"])
    def test_residual_is_the_band_norm_ratio(self, grid, kind):
        # the defect and the scale measure each ring by the sum of its
        # coefficients' magnitudes: the defect is the rim row of the
        # history image, the scale the largest ring of the scaled deviation
        # plus the largest ring of the transport, whose rim node is the
        # new command
        ctrl, line, steady = self._setup(grid, lam=6.0, beta=0.5, kind=kind)
        rng = np.random.default_rng(15)
        for k in range(8):
            vals = steady + 0.1 * rng.normal(size=(grid.M, grid.N))
            vals[0] = steady[0]
            upd = run_update(ctrl, vals, line, k * 0.02)
            measured = grid.analyze(remove_advection(vals, steady, ctrl.advection, grid))
            scale = (np.max(np.sum(np.abs(measured), axis=0))
                     + np.max(np.sum(np.abs(upd.transport), axis=0)) + 1e-30)
            want = np.sum(np.abs(upd.target_history[:, -1])) / scale
            assert upd.h_residual == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_real_channel_emits_real_commands(self, grid):
        ctrl, line, steady = self._setup(grid, lam=6.0, beta=0.5, kind="real")
        vals = steady + 0.2 * np.outer(np.sin(np.pi * grid.s),
                                       np.sin(2 * grid.theta))
        upd = ctrl.update(grid.analyze(vals), line, 0.0)
        assert upd.command.dtype == np.float64
        defect = conjugate_symmetry_defect(upd.transport)
        assert defect <= 1e-12 * (1 + np.max(np.abs(upd.transport)))

    def test_transport_rim_row_is_new_command(self, grid):
        ctrl, line, steady = self._setup(grid)
        vals = steady + np.outer(grid.s**2, np.exp(1j * grid.theta)).real
        upd = ctrl.update(grid.analyze(vals), line, 0.0)
        gain = np.exp(0.5 * ctrl.advection)
        want = grid.analyze_rows(upd.command) * gain
        assert np.max(np.abs(upd.transport[:, -1] - want)) <= 1e-12
        assert np.max(np.abs(upd.command_modes * gain - upd.transport[:, -1])) \
            <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("kind", ["complex", "real"])
    def test_command_equals_the_field_route(self, grid, kind):
        # the controller measures a mode table and reads band rows; the
        # route it replaced measured the scaled field and read a line of
        # physical command profiles, transforming both every step
        ctrl, line, steady = self._setup(grid, lam=6.0, beta=0.5, kind=kind)
        ks, adv = ctrl.ks, ctrl.advection
        physical = DelayLine(grid.N, 0.02, horizon=4.0)
        rng = np.random.default_rng(22)
        commands = []
        for k in range(12):
            t = k * 0.02
            vals = steady + 0.1 * rng.normal(size=(grid.M, grid.N))
            vals[0] = steady[0]
            upd = run_update(ctrl, vals, line, t)
            measured = grid.analyze(remove_advection(vals, steady, adv, grid))
            reads = physical.lookup_many(t + ks.delay * (grid.s - 1.0))
            transport = grid.analyze(reads) * np.exp(0.5 * adv)
            transport[:, -1] = 0.0
            cmd = control_modes(to_target_history(transport, measured, ks), ks)
            if kind == "real":
                cmd = symmetrize_command(grid, cmd)
            want = grid.synthesize_profile(cmd * np.exp(-0.5 * adv), kind)
            physical.record(t, want)
            assert np.max(np.abs(upd.command - want)) <= 1e-13 * np.max(np.abs(want)), k
            commands.append(upd.command)
        # the line of band rows synthesizes to the physical commands
        rows = line.lookup_many(0.02 * np.arange(12))
        for row, command in zip(rows, commands):
            back = grid.synthesize_profile(row, kind)
            assert np.max(np.abs(back - command)) <= 1e-13 * np.max(np.abs(command))


class TestPrecomputedStep:
    def test_updates_build_no_weights_and_read_no_single_records(self, grid,
                                                                 monkeypatch):
        ks = KernelSet(KernelBasis(PlantCoeffs(8.0, 1.0), grid, i_max=64), 1.0)
        rng = np.random.default_rng(20)
        steady = rng.normal(size=(grid.M, grid.N))
        ctrl = ChannelController(ks, grid.analyze(steady), kind="real")
        line = DelayLine(grid.modes.size, 0.02, horizon=4.0)
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (quadrature, kernels, controller, estimator):
            for name in ("exp_pair_weights", "exp_half_weights"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name,
                                        counted(name, getattr(module, name)))
        monkeypatch.setattr(DelayLine, "lookup_many",
                            counted("lookup_many", DelayLine.lookup_many))
        for k in range(8):
            vals = steady + 0.1 * rng.normal(size=(grid.M, grid.N))
            upd = run_update(ctrl, vals, line, k * 0.02)
            assert np.all(np.isfinite(upd.command))
        # one read of the whole in-flight window per update, nothing else
        assert calls == Counter(lookup_many=8)
        # the newest record is the last update's command
        assert np.array_equal(line.lookup_many(np.array([7 * 0.02]))[0],
                              upd.command_modes)

    def test_history_matches_reference_convolution(self, grid, kit):
        rng = np.random.default_rng(21)
        phi = smooth_stack(rng, grid)
        tht = smooth_stack(rng, grid, pinned_root=False)
        got = to_target_history(tht, phi, kit)
        want = seed_pipeline.to_target_history(tht, phi, kit)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestStepProduct:
    """One product per step gives the target history and the mismatch
    drift of the reference maps, which rebuild them from running
    convolutions and per-mode exponential tables."""

    @pytest.mark.parametrize("delay", [0.2, 2.0], ids=["lo", "hi"])
    @pytest.mark.parametrize("band", [None, 2], ids=["full-band", "banded"])
    @pytest.mark.parametrize("coeffs, kind", [
        (PlantCoeffs(12.0, 0.5), "real"),
        (PlantCoeffs(12.0 + 3.0j, 0.5 + 0.2j), "complex")],
        ids=["real", "complex"])
    def test_update_matches_reference_maps(self, coeffs, kind, band, delay):
        g = CylinderGrid(21, 16, band=band)
        ks = KernelSet(KernelBasis(coeffs, g), delay)
        assert np.isrealobj(ks.step_map) == (kind == "real")
        rng = np.random.default_rng(23)

        def table(scale=1.0):
            vals = rng.normal(size=(g.M, g.N))
            if kind == "complex":
                vals = vals + 1j * rng.normal(size=(g.M, g.N))
            return g.analyze(scale * vals)

        steady = table()
        ctrl = ChannelController(ks, steady, kind=kind)
        line = DelayLine(g.modes.size, 0.05, horizon=4.0)
        for k in range(30):
            line.record(k * 0.05, table()[:, -1])
        for t in (1.5, 1.55, 1.6):
            current = steady + table(0.1)
            upd = ctrl.update(current, line, t)
            line.record(t, upd.command_modes)
            measured = (current - steady) * ctrl.lift
            want_hist = seed_pipeline.to_target_history(upd.transport, measured, ks)
            want_drift = seed_pipeline.mismatch_drift(upd.target_state, want_hist, ks)
            drift = estimator.mismatch_drift(upd.state_drift, upd.target_history, ks)
            for got, want in ((upd.target_history, want_hist), (drift, want_drift)):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestSimpsonControl:
    def test_trivial_state_returns_steady_rim(self, grid):
        basis = KernelBasis(PlantCoeffs(8.0, 1.0), grid, i_max=64)
        ks = KernelSet(basis, 1.0)
        rng = np.random.default_rng(15)
        steady = rng.normal(size=(grid.M, grid.N))
        line = DelayLine(grid.N, 0.02, horizon=4.0)
        rim = simpson_control(steady, steady, line, 0.0, ks)
        assert np.max(np.abs(rim - steady[-1])) <= 1e-12

    def test_zero_kernel_returns_steady_rim(self, grid):
        basis = KernelBasis(PlantCoeffs(0.0, 0.0), grid, i_max=16)
        ks = KernelSet(basis, 1.0)
        rng = np.random.default_rng(16)
        steady = rng.normal(size=(grid.M, grid.N))
        vals = steady + rng.normal(size=(grid.M, grid.N))
        line = DelayLine(grid.modes.size, 0.02, horizon=4.0)
        for k in range(30):
            line.record(k * 0.02, grid.analyze_rows(rng.normal(size=grid.N)))
        rim = simpson_control(vals, steady, line, 29 * 0.02, ks)
        assert np.max(np.abs(rim - steady[-1])) <= 1e-12

    def test_agrees_with_spectral_route(self, grid):
        # the dense physical-space law against the spectral one, for one
        # smooth state with a non-trivial history
        ctrl_basis = KernelBasis(PlantCoeffs(8.0, 1.0), grid, i_max=64)
        ks = KernelSet(ctrl_basis, 1.0)
        rng = np.random.default_rng(17)
        steady = rng.normal(size=(grid.M, grid.N))
        ctrl = ChannelController(ks, grid.analyze(steady))
        line = DelayLine(grid.modes.size, 0.02, horizon=4.0)
        vals = steady + 0.3 * np.outer(np.sin(np.pi * grid.s),
                                       np.cos(grid.theta) + 0.4)
        for k in range(60):
            upd = run_update(ctrl, vals, line, k * 0.02)
        t = 60 * 0.02
        upd = ctrl.update(grid.analyze(vals), line, t)
        spectral_rim = steady[-1] + upd.command
        dense_rim = simpson_control(vals, steady, line, t, ks)
        scale = np.max(np.abs(spectral_rim - steady[-1])) + 1e-30
        assert np.max(np.abs(dense_rim - spectral_rim)) <= 1e-4 * scale

    def test_rejects_even_node_count(self, grid):
        basis = KernelBasis(PlantCoeffs(8.0, 0.0), grid, i_max=64)
        ks = KernelSet(basis, 1.0)
        line = DelayLine(grid.N, 0.02, horizon=4.0)
        with pytest.raises(ValueError):
            simpson_control(np.zeros((grid.M, grid.N)), np.zeros((grid.M, grid.N)),
                            line, 0.0, ks, m_prime=50)


class TestStatePrediction:
    def test_rim_column_matches_zero_history_command(self, grid, kit):
        # with an empty in-flight window the command is the prediction at
        # the rim; the batched table and the scalar law use different index
        # paths, so this pins the wiring between them
        rng = np.random.default_rng(18)
        phi = smooth_stack(rng, grid)
        pred = -to_target_history(np.zeros_like(phi), phi, kit)
        zero = np.zeros(grid.M, dtype=complex)
        for n in (-7, -1, 0, 2, 5):
            got = control_mode(n, phi[n + grid.N // 2], zero, kit)
            want = pred[n + grid.N // 2, -1]
            assert abs(got - want) <= 1e-13 * (1 + abs(want))

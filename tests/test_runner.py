import dataclasses
from collections import Counter

import numpy as np
import pytest

from cylform.config import parse_config, preset
from cylform.controller import ChannelController
from cylform.geometry import CylinderGrid
from cylform.kernels import KernelSet
from cylform import controller, plant, runner
from cylform.plant import Channel, DelayLine, stable_dt
from cylform.runner import (
    RunRecord,
    Snapshot,
    run,
    write_positions,
    write_series,
    write_snapshot,
)
from cylform.steady import formation_fields
from oracles import seed_pipeline
from oracles.field_norms import field_l2

EQUILIBRIUM = """
grid.M = 21
grid.N = 8
initial.planar_reaction = 0
initial.axial_reaction = 0
initial.planar_anchor = (0,0.4,-0.3)
initial.planar_leader = (0,1,0.2)
initial.axial_anchor = (0,-1,0)
initial.axial_leader = (0,1,0)
desired.planar_reaction = 0
desired.axial_reaction = 0
desired.planar_anchor = (0,0.4,-0.3)
desired.planar_leader = (0,1,0.2)
desired.axial_anchor = (0,-1,0)
desired.axial_leader = (0,1,0)
delay.true = 0.5
delay.lo = 0.2
delay.hi = 1
delay.gain = 0.05
delay.initial_estimate = 0.8
run.duration = 0.5
run.snapshots = none
run.rings = 1 11 21
"""

TRANSIENT = """
grid.M = 15
grid.N = 8
initial.planar_reaction = 4
initial.planar_advection = 0.5
initial.axial_reaction = 3
initial.axial_advection = 0.5
initial.planar_anchor = (1,0.8,0.1)
initial.planar_leader = (1,1,0)
initial.axial_anchor = (0,-1,0)
initial.axial_leader = (0,1,0) (1,0.2,0.1) (-1,0.2,-0.1)
desired.planar_reaction = 5
desired.planar_advection = 0.5
desired.axial_reaction = 2
desired.axial_advection = 0.5
desired.planar_anchor = (1,0.5,0)
desired.planar_leader = (1,1,0)
desired.axial_anchor = (0,-1,0)
desired.axial_leader = (0,0.8,0)
delay.true = 0.3
delay.lo = 0.1
delay.hi = 1
delay.gain = 0.05
delay.initial_estimate = 0.5
run.duration = 0.4
run.snapshots = 0 0.123 0.4
run.rings = 1 8 15
"""

REFINE = """
grid.M = {M}
grid.N = {N}
initial.planar_reaction = 4
initial.planar_advection = 0.5
initial.axial_reaction = 3
initial.axial_advection = 0.5
initial.planar_anchor = (1,0.8,0.1)
initial.planar_leader = (1,1,0)
initial.axial_anchor = (0,-1,0)
initial.axial_leader = (0,1,0) (1,0.2,0.1) (-1,0.2,-0.1)
desired.planar_reaction = 5
desired.planar_advection = 0.5
desired.axial_reaction = 2
desired.axial_advection = 0.5
desired.planar_anchor = (1,0.5,0)
desired.planar_leader = (1,1,0)
desired.axial_anchor = (0,-1,0)
desired.axial_leader = (0,0.8,0)
delay.true = 0.3
delay.lo = 0.1
delay.hi = 1
delay.gain = 0.05
delay.initial_estimate = 0.3
delay.mode = fixed
run.duration = 1.25
run.dt = {dt}
run.control_period = 5
run.snapshots = none
run.rings = 1 11 21
"""


def moderate_21x16(fixed, duration):
    """The ``moderate`` preset on a 21x16 grid: the estimate fixed at the
    true delay, or adapting from ``hi`` (it then flips between the bounds)."""
    return dataclasses.replace(preset("moderate"), grid_m=21, grid_n=16,
                               ring_rows=(5, 11, 21), duration=duration,
                               fixed_estimate=fixed,
                               initial_estimate=1.0 if fixed else 2.0)


@pytest.fixture(scope="module")
def transient_cfg():
    return parse_config(TRANSIENT, "transient")


@pytest.fixture(scope="module")
def transient_record(transient_cfg):
    return run(transient_cfg)


class TestStepResolution:
    def test_explicit_dt_is_a_cap(self, transient_cfg):
        cfg = dataclasses.replace(transient_cfg, dt=1e-3, control_period=5,
                                  snapshot_times=())
        rec = run(cfg)
        assert rec.times[1] - rec.times[0] == pytest.approx(5e-3, rel=1e-12)
        assert rec.times[-1] == pytest.approx(0.4, abs=1e-12)

    def test_auto_dt_respects_stability_bound(self, transient_cfg, transient_record):
        grid = CylinderGrid(transient_cfg.grid_m, transient_cfg.grid_n)
        cap = stable_dt(grid, transient_cfg.desired.planar_coeffs,
                        transient_cfg.desired.axial_coeffs)
        dt_ctrl = transient_record.times[1] - transient_record.times[0]
        assert dt_ctrl / transient_cfg.control_period <= cap * (1 + 1e-12)


class TestEquilibrium:
    def test_holds_to_roundoff(self):
        rec = run(parse_config(EQUILIBRIUM, "eq"))
        assert not rec.terminated
        assert rec.err_planar.max() <= 1e-10
        assert rec.err_axial.max() <= 1e-10
        assert rec.ring_errors.max() <= 1e-10
        assert rec.control_sup.max() <= 1e-9
        assert np.all(rec.signals == 0.0)
        assert np.all(rec.estimates == 0.8)


class TestDeterminism:
    def test_identical_records(self, transient_cfg, transient_record):
        again = run(transient_cfg)
        for name in ("times", "estimates", "signals", "err_planar",
                     "err_axial", "ring_errors", "control_sup",
                     "rim_residual"):
            assert np.array_equal(getattr(again, name),
                                  getattr(transient_record, name)), name
        for a, b in zip(again.snapshots, transient_record.snapshots):
            assert np.array_equal(a.planar, b.planar)
            assert np.array_equal(a.axial, b.axial)


class TestPlantReads:
    """Per control step each channel makes one block step, which reads the
    delay line once; the block weights are built before the loop."""

    @staticmethod
    def _probe(monkeypatch):
        """Count delay-line reads and weight builds, keyed by name, caller,
        whether the first control step has begun, and argument shape."""
        where, updates, calls = ["runner"], Counter(), Counter()

        def inside(name, fn):
            def wrapper(*args, **kwargs):
                where.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    where.pop()
            return wrapper

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name, where[-1], updates.total() > 0, np.shape(args[-1])] += 1
                return fn(*args, **kwargs)
            return wrapper

        def update(self, *args, **kwargs):
            updates["controller"] += 1
            return controller_update(self, *args, **kwargs)

        controller_update = inside("controller", ChannelController.update)
        monkeypatch.setattr(DelayLine, "lookup_many",
                            counted("read", DelayLine.lookup_many))
        monkeypatch.setattr(plant, "exp_lin_weights",
                            counted("weights", plant.exp_lin_weights))
        monkeypatch.setattr(ChannelController, "update", update)
        monkeypatch.setattr(Channel, "step", inside("plant", Channel.step))
        monkeypatch.setattr(Channel, "peek", inside("peek", Channel.peek))
        return updates, calls

    @pytest.mark.parametrize("period", [3, 7])
    def test_one_block_read_per_channel_per_control_step(self, transient_cfg,
                                                         monkeypatch, period):
        cfg = dataclasses.replace(transient_cfg, control_period=period,
                                  dt=2e-3, duration=0.2, snapshot_times=())
        updates, calls = self._probe(monkeypatch)
        rec = run(cfg)
        rows = rec.times.size
        assert not rec.terminated and rows > 2
        assert updates["controller"] == 2 * rows
        assert calls.pop(("read", "controller", True, (cfg.grid_m,))) == 2 * rows
        (key, n), = [(k, n) for k, n in calls.items() if k[1] == "plant"]
        assert key[0] == "read" and key[3] in {(2,), (4,)}   # two per linear piece
        assert n == 2 * (rows - 1)
        del calls[key]
        # all that is left: the block weights of the two channels, built
        # before the first control step
        assert {(name, loop) for name, _, loop, _ in calls} == {("weights", False)}
        assert not hasattr(DelayLine, "lookup")

    def test_snapshot_inside_a_block_builds_its_own_weights(self, transient_cfg,
                                                            monkeypatch):
        cfg = dataclasses.replace(transient_cfg, control_period=5, dt=2e-3,
                                  duration=0.1, snapshot_times=(0.05, 0.064))
        _, calls = self._probe(monkeypatch)
        rec = run(cfg)
        # 0.05 is a block start, 0.064 the second step inside a block
        assert [s.actual_t for s in rec.snapshots] == [25 * 2e-3, 32 * 2e-3]
        peek_reads = sum(n for k, n in calls.items() if k[:2] == ("read", "peek"))
        loop_weights = sum(n for k, n in calls.items() if k[0] == "weights" and k[2])
        assert peek_reads == loop_weights == 2    # one per channel


class TestTransforms:
    """The loop works in mode space: per control step each channel
    synthesizes its command, for ``control_sup``; it transforms nothing
    else (snapshots, off here, synthesize the fields)."""

    @pytest.mark.parametrize("fixed", [False, True], ids=["adapting", "known-delay"])
    def test_at_most_one_fft_per_channel_per_control_step(self, monkeypatch, fixed):
        calls, started = Counter(), []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name, bool(started)] += 1
                return fn(*args, **kwargs)
            return wrapper

        def update(self, *args, **kwargs):
            started.append(True)
            return controller_update(self, *args, **kwargs)

        for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "fft2", "ifft2"):
            monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
        controller_update = ChannelController.update
        monkeypatch.setattr(ChannelController, "update", update)
        cfg = dataclasses.replace(moderate_21x16(fixed, duration=1.5),
                                  snapshot_times=())
        rec = run(cfg)
        assert not rec.terminated
        assert fixed or np.count_nonzero(np.diff(rec.estimates)) >= 3
        in_loop = sum(n for (_, loop), n in calls.items() if loop)
        assert 0 < in_loop <= 2 * rec.times.size


class TestReferenceStep:
    """The precomputed control step replays the convolution-built one."""

    @pytest.mark.parametrize("fixed, duration", [(False, 0.8), (True, 1.5)],
                             ids=["adapting", "known-delay"])
    def test_record_matches_reference_pipeline(self, monkeypatch, fixed, duration):
        # adapting from hi rebuilds the kernel sets; the fixed estimate at
        # the true delay lets commands reach the plant after t = 1
        cfg = moderate_21x16(fixed, duration)
        rec = run(cfg)
        calls = seed_pipeline.install(monkeypatch)
        want = run(cfg)
        assert not rec.terminated and not want.terminated
        assert fixed or np.count_nonzero(np.diff(rec.estimates)) >= 3
        # every map of the replay's step came from the reference: per
        # channel and control step, one history and one drift split in two
        steps = 2 * want.times.size
        assert calls == Counter(reconstruct_transport=steps, step_images=steps,
                                rim_solve=steps, finish_drift=steps,
                                to_target_history=steps, mismatch_drift=2 * steps)
        for name in ("times", "estimates", "signals", "err_planar",
                     "err_axial", "ring_errors", "control_sup"):
            a, b = getattr(rec, name), getattr(want, name)
            assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b)), name


class TestKernelReuse:
    """A rebuild keeps the kernel sets it replaces as a spare, and an
    estimate that returns to them swaps them back instead of rebuilding."""

    @staticmethod
    def _probe(monkeypatch):
        """Count set builds per kernel basis (one per channel) and log the
        delay of the tables each controller update reads."""
        builds, used = Counter(), []

        def build(basis, delay_estimate):
            builds[basis] += 1
            return kernel_set(basis, delay_estimate)

        def update(self, values, line, t):
            used.append((t, self.ks.delay))
            return controller_update(self, values, line, t)

        kernel_set, controller_update = runner.KernelSet, ChannelController.update
        monkeypatch.setattr(runner, "KernelSet", build)
        monkeypatch.setattr(ChannelController, "update", update)
        return builds, used

    def test_flipping_estimate_builds_each_bound_once(self, monkeypatch):
        cfg = moderate_21x16(fixed=False, duration=0.8)
        builds, used = self._probe(monkeypatch)
        rec = run(cfg)
        assert not rec.terminated
        assert np.count_nonzero(np.diff(rec.estimates)) >= 3
        tol = runner._RETABLE_FRACTION * (cfg.delay_hi - cfg.delay_lo)
        t, delay = np.array(used).T
        assert np.array_equal(t, np.repeat(rec.times, 2))
        assert np.all(np.abs(delay - np.repeat(rec.estimates, 2)) <= tol)
        assert len(builds) == 2 and max(builds.values()) <= 2

    def test_fixed_estimate_builds_one_set_per_channel(self, monkeypatch):
        builds, used = self._probe(monkeypatch)
        rec = run(moderate_21x16(fixed=True, duration=0.8))
        assert sorted(builds.values()) == [1, 1]
        assert {d for _, d in used} == {1.0} and len(used) == 2 * rec.times.size


    def test_a_swap_reuses_the_step_maps(self, monkeypatch):
        builds, _ = self._probe(monkeypatch)
        read = []

        def step_images(transport, measured, ks):
            read.append(ks.step_map)
            return images(transport, measured, ks)

        images = controller.step_images
        monkeypatch.setattr(controller, "step_images", step_images)
        rec = run(moderate_21x16(fixed=False, duration=0.8))
        assert len(read) == 2 * rec.times.size
        planar = [id(m) for m in read[::2]]
        assert np.count_nonzero(np.diff(planar)) >= 3
        assert len({id(m) for m in read}) == sum(builds.values()) <= 4


class TestOneProduct:
    """Per control step each channel makes one table product, with its
    kernel set's step map; nothing else in the loop calls ``apply``."""

    @pytest.mark.parametrize("fixed", [False, True], ids=["adapting", "known-delay"])
    def test_one_apply_per_channel_per_control_step(self, monkeypatch, fixed):
        calls, started = Counter(), []

        def update(self, *args, **kwargs):
            started.append(True)
            return controller_update(self, *args, **kwargs)

        def apply(self, coeffs, mats):
            calls[bool(started), mats is self.step_map] += 1
            return kernel_apply(self, coeffs, mats)

        controller_update, kernel_apply = ChannelController.update, KernelSet.apply
        monkeypatch.setattr(ChannelController, "update", update)
        monkeypatch.setattr(KernelSet, "apply", apply)
        rec = run(moderate_21x16(fixed, duration=0.8))
        assert not rec.terminated
        assert fixed or np.count_nonzero(np.diff(rec.estimates)) >= 3
        assert calls == Counter({(True, True): 2 * rec.times.size})


@pytest.fixture(scope="module")
def band_pair():
    """The known-delay ``moderate`` run at 21x16 over 4 s, snapshots at
    1..4: on its own rim band (|n| <= 2, 5 of 16 wavenumbers), and with zero
    anchor entries at 7 and -8 added, which widen the band to the grid."""
    cfg = dataclasses.replace(moderate_21x16(fixed=True, duration=4.0),
                              snapshot_times=(1.0, 2.0, 3.0, 4.0))
    anchor = {**cfg.desired.planar_anchor, 7: 0j, -8: 0j}
    full = dataclasses.replace(
        cfg, desired=dataclasses.replace(cfg.desired, planar_anchor=anchor))
    return run(cfg), run(full)


class TestWavenumberBand:
    """The loop keeps only the wavenumbers its rim data list; the others
    carry roundoff only, so dropping them changes nothing else."""

    def test_band_is_the_largest_listed_wavenumber(self, band_pair):
        band, full = band_pair
        assert np.array_equal(band.modes, np.arange(-2, 3))
        assert np.array_equal(full.modes, np.arange(-8, 8))

    def test_out_of_band_modes_stay_at_roundoff(self, band_pair):
        _, full = band_pair
        grid = CylinderGrid(full.config.grid_m, full.config.grid_n)
        outside = np.abs(grid.modes) > 2
        assert [s.requested_t for s in full.snapshots] == [1.0, 2.0, 3.0, 4.0]
        for snap in full.snapshots:
            for values in (snap.planar, snap.axial):
                table = np.abs(grid.analyze(values))
                assert table[outside].max() <= 1e-12 * table.max()

    def test_band_run_equals_full_run(self, band_pair):
        band, full = band_pair
        assert not band.terminated and not full.terminated
        assert np.array_equal(band.times, full.times)
        assert np.array_equal(band.estimates, full.estimates)
        for name in ("signals", "err_planar", "err_axial", "ring_errors",
                     "control_sup"):
            a, b = getattr(band, name), getattr(full, name)
            assert np.all(np.abs(a - b) <= 1e-12 * np.max(np.abs(b), axis=0)), name
        # the rim residual is the roundoff of one subtraction in both runs,
        # so it is bounded, not matched
        assert max(band.rim_residual.max(), full.rim_residual.max()) <= 1e-14
        for a, b in zip(band.snapshots, full.snapshots):
            assert a.planar.shape == b.planar.shape == (21, 16)
            scale = np.max(np.abs(b.planar)) + np.max(np.abs(b.axial))
            assert np.max(np.abs(a.planar - b.planar)) <= 1e-12 * scale
            assert np.max(np.abs(a.axial - b.axial)) <= 1e-12 * scale


class TestTransientRecord:
    def test_rows_strictly_increasing_and_finite(self, transient_record):
        rec = transient_record
        assert np.all(np.diff(rec.times) > 0)
        for name in ("estimates", "signals", "err_planar", "err_axial",
                     "control_sup", "rim_residual"):
            assert np.all(np.isfinite(getattr(rec, name))), name
        assert np.all(np.isfinite(rec.ring_errors))

    def test_estimate_stays_in_bounds(self, transient_cfg, transient_record):
        est = transient_record.estimates
        assert np.all(est >= transient_cfg.delay_lo)
        assert np.all(est <= transient_cfg.delay_hi)

    def test_first_row_matches_formation_gap(self, transient_cfg,
                                             transient_record):
        grid = CylinderGrid(transient_cfg.grid_m, transient_cfg.grid_n)
        ip, iz = formation_fields(transient_cfg.initial, grid)
        gp, gz = formation_fields(transient_cfg.desired, grid)
        # the run takes the errors from the tables; here they come from
        # the physical deviation fields
        dev_p = grid.synthesize(ip - gp)
        dev_z = grid.synthesize(iz - gz, "real")
        assert transient_record.err_planar[0] == pytest.approx(
            field_l2(grid, dev_p), rel=1e-12)
        assert transient_record.err_axial[0] == pytest.approx(
            field_l2(grid, dev_z), rel=1e-12)
        rows = [i - 1 for i in transient_cfg.ring_rows]
        want = np.sqrt(np.sum((np.abs(dev_p[rows]) ** 2
                               + np.abs(dev_z[rows]) ** 2) * grid.h_theta,
                              axis=1))
        assert np.allclose(transient_record.ring_errors[0], want, rtol=1e-12)

    def test_rim_consistency_small_under_spectral(self, transient_record):
        assert transient_record.rim_residual.max() <= 1e-6


class TestSnapshots:
    def test_capture_times(self, transient_cfg, transient_record):
        snaps = transient_record.snapshots
        assert [s.requested_t for s in snaps] == [0.0, 0.123, 0.4]
        assert snaps[0].actual_t == 0.0
        assert snaps[2].actual_t == pytest.approx(0.4, abs=1e-12)
        dt = transient_record.times[1] - transient_record.times[0]
        mid = snaps[1]
        assert mid.requested_t - 1e-9 <= mid.actual_t < mid.requested_t + dt

    def test_inner_snapshot_is_the_state_at_its_step(self):
        # no command reaches the rim before t = 1, so the plant runs open
        # loop and its state at a step instant does not depend on the
        # control period: a snapshot two steps into a block equals one
        # taken at a block start when every step starts a block
        text = (TRANSIENT.replace("delay.true = 0.3", "delay.true = 1")
                .replace("run.duration = 0.4", "run.duration = 0.1\nrun.dt = 0.002")
                .replace("run.snapshots = 0 0.123 0.4", "run.snapshots = 0.064"))
        base = parse_config(text, "open-loop")
        inner, = run(dataclasses.replace(base, control_period=5)).snapshots
        start, = run(dataclasses.replace(base, control_period=1)).snapshots
        assert inner.actual_t == start.actual_t == 32 * 0.002
        for a, b in ((inner.planar, start.planar), (inner.axial, start.axial)):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_field_copies_and_kinds(self, transient_record):
        snap = transient_record.snapshots[0]
        assert np.iscomplexobj(snap.planar)
        assert not np.iscomplexobj(snap.axial)
        assert snap.planar.shape == snap.axial.shape == (15, 8)


class TestGuard:
    def test_unstable_step_terminates_with_reason(self):
        # open-loop growth far above pi^2 and no command reaching the rim
        # before t = 1: the field passes the guard within half a second
        text = (TRANSIENT
                .replace("desired.planar_reaction = 5", "desired.planar_reaction = 150")
                .replace("delay.true = 0.3", "delay.true = 1")
                .replace("run.duration = 0.4", "run.duration = 1")
                .replace("run.snapshots = 0 0.123 0.4", "run.snapshots = none"))
        cfg = parse_config(text, "unstable")
        rec = run(cfg)
        assert rec.terminated
        assert "t=" in rec.reason
        assert rec.times.size >= 1
        assert rec.times[-1] < cfg.duration
        assert np.all(np.isfinite(rec.err_planar))

    def test_mismatch_preset_stops_at_the_guard(self):
        # a stress case: its gains overflow before the horizon, and the
        # guard, not a float error, ends the run
        rec = run(preset("mismatch"))
        assert rec.terminated
        assert "exceeded the guard" in rec.reason
        assert rec.times[-1] < rec.config.duration


class TestFixedEstimate:
    def test_estimate_frozen_signal_still_logged(self, transient_cfg):
        import dataclasses
        cfg = dataclasses.replace(transient_cfg, fixed_estimate=True,
                                  snapshot_times=())
        rec = run(cfg)
        assert np.all(rec.estimates == cfg.initial_estimate)
        assert np.any(rec.signals != 0.0)


class TestTargetResiduals:
    def test_equilibrium_residuals_vanish(self):
        cfg = parse_config(EQUILIBRIUM, "eq")
        # one capture at every control step after the first
        rec = run(cfg, capture_residuals=run(cfg).times[1:])
        assert len(rec.residuals) == rec.times.size - 1
        for _, rp, rz in rec.residuals:
            for r in (rp, rz):
                assert r.interior <= 1e-10
                assert r.boundary_flow <= 1e-10
                assert r.rim_defect <= 1e-10
                assert r.anchor_defect <= 1e-10
                assert r.seam_defect <= 1e-10

    def test_anchor_end_pinned_exactly(self, transient_cfg):
        rec = run(transient_cfg, capture_residuals=[0.2])
        (_, rp, rz), = rec.residuals
        assert rp.anchor_defect == 0.0
        assert rz.anchor_defect == 0.0
        assert rp.rim_defect <= 1e-12
        assert rz.rim_defect <= 1e-12

    def test_refinement_beyond_first_order(self):
        # Slope kinks of the command flow echo at multiples of the dead
        # time and decay through the loop's smoothing; capture well past
        # the last visible echo so only discretization error remains.
        coarse = run(parse_config(REFINE.format(M=21, N=8, dt=1e-3), "c"),
                     capture_residuals=[1.2])
        fine = run(parse_config(REFINE.format(M=41, N=16, dt=2.5e-4), "f"),
                   capture_residuals=[1.2])
        (_, cp, cz), = coarse.residuals
        (_, fp, fz), = fine.residuals
        assert cp.interior / fp.interior >= 2.0
        assert cz.interior / fz.interior >= 2.0
        assert cp.boundary_flow / fp.boundary_flow >= 2.0
        assert cz.boundary_flow / fz.boundary_flow >= 2.0
        assert cp.seam_defect / fp.seam_defect >= 2.0
        assert fz.seam_defect <= 1e-8


class TestSeriesWriter:
    def test_header_and_round_trip(self, transient_record, tmp_path):
        path = write_series(transient_record, tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ("t,Dhat,tau,err_u_L2,err_z_L2,err_ring_1,"
                            "err_ring_8,err_ring_15,control_sup,"
                            "h_bnd_residual")
        assert len(lines) - 1 == transient_record.times.size
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(back[:, 0], transient_record.times)
        assert np.array_equal(back[:, 1], transient_record.estimates)
        assert np.array_equal(back[:, 2], transient_record.signals)
        assert np.array_equal(back[:, 3], transient_record.err_planar)
        assert np.array_equal(back[:, 5:8], transient_record.ring_errors)
        assert np.array_equal(back[:, 9], transient_record.rim_residual)

    def test_empty_record_header_only(self, transient_cfg, tmp_path):
        empty = RunRecord(config=transient_cfg, ring_rows=(1, 8, 15),
                          modes=np.arange(-1, 2), times=np.zeros(0),
                          estimates=np.zeros(0),
                          signals=np.zeros(0), err_planar=np.zeros(0),
                          err_axial=np.zeros(0),
                          ring_errors=np.zeros((0, 3)),
                          control_sup=np.zeros(0), rim_residual=np.zeros(0))
        path = write_series(empty, tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("t,Dhat,tau,")


class TestSnapshotWriter:
    def test_constant_field(self, tmp_path):
        c = 0.8125
        paths = write_snapshot({"z": np.full((7, 4), c)}, 1.5, tmp_path)
        assert paths[0].name == "snapshot_t1.5_z.csv"
        back = np.loadtxt(paths[0], delimiter=",")
        assert back.shape == (7, 4)
        assert np.all(back == c)

    def test_round_trip_bit_exact(self, transient_record, tmp_path):
        snap = transient_record.snapshots[1]
        paths = write_snapshot({"u_re": snap.planar.real,
                                "u_im": snap.planar.imag,
                                "z": snap.axial}, snap.requested_t, tmp_path)
        re_back = np.loadtxt(paths[0], delimiter=",")
        im_back = np.loadtxt(paths[1], delimiter=",")
        z_back = np.loadtxt(paths[2], delimiter=",")
        assert np.array_equal(re_back, snap.planar.real)
        assert np.array_equal(im_back, snap.planar.imag)
        assert np.array_equal(z_back, snap.axial)

    def test_complex_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="complex"):
            write_snapshot({"u": np.ones((3, 4), dtype=complex)}, 0.0,
                           tmp_path)

    def test_positions_layout(self, transient_record, tmp_path):
        snap = transient_record.snapshots[0]
        path = write_positions(snap.planar, snap.axial, snap.requested_t,
                               tmp_path)
        assert path.name == "snapshot_t0_positions.csv"
        head = path.read_text(encoding="utf-8").splitlines()[0]
        assert head == "s_index,theta_index,x,y,z"
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        m, n = snap.planar.shape
        assert back.shape == (m * n, 5)
        assert back[0, 0] == 1.0 and back[0, 1] == 1.0
        assert back[-1, 0] == m and back[-1, 1] == n
        assert np.array_equal(back[:, 2].reshape(m, n), snap.planar.real)
        assert np.array_equal(back[:, 3].reshape(m, n), snap.planar.imag)
        assert np.array_equal(back[:, 4].reshape(m, n), snap.axial)


class TestSnapshotDataclass:
    def test_fields(self):
        s = Snapshot(1.0, 1.0009, np.zeros((3, 4), complex), np.zeros((3, 4)))
        assert s.requested_t == 1.0
        assert s.actual_t == 1.0009

import dataclasses
import importlib.util
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from cylform.config import parse_config, preset
from cylform.controller import ChannelController
from cylform.geometry import CylinderGrid
from cylform.kernels import KernelBasis, KernelSet, PlantCoeffs
from cylform import controller, plant, runner
from cylform.plant import Channel, DelayLine, Stencil
from cylform.runner import (
    RunRecord,
    Snapshot,
    run,
    write_positions,
    write_series,
    write_snapshot,
)
from cylform.steady import formation_fields
from oracles import channel_law, continuum_steady, seed_pipeline
from oracles.field_norms import d_s, field_l2
from oracles.mode_symmetry import conjugate_symmetry_defect
from oracles.step_observation import step_observation

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
run.block = {block}
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
        cfg = dataclasses.replace(transient_cfg, block=5e-3, snapshot_times=())
        rec = run(cfg)
        assert rec.times[1] - rec.times[0] == pytest.approx(5e-3, rel=1e-12)
        assert rec.times[-1] == pytest.approx(0.4, abs=1e-12)

    def test_auto_dt_respects_stability_bound(self, transient_cfg, transient_record):
        # the automatic block is capped at ten RK4 steps of the stiffer
        # channel, and the run takes the fewest whole blocks under the cap
        cfg = transient_cfg
        grid = CylinderGrid(cfg.grid_m, cfg.grid_n)
        cap = 10 * min(Stencil(grid, c).rk4_step
                       for c in (cfg.desired.planar_coeffs, cfg.desired.axial_coeffs))
        block = transient_record.times[1] - transient_record.times[0]
        assert block <= cap * (1 + 1e-12)
        blocks = round(cfg.duration / block)
        assert blocks == math.ceil(cfg.duration / cap)


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
    """Per control step the stacked channels make one block step, which
    reads the one delay line once, and the run reads the controller's
    in-flight window once; the block weights and the block's read table
    are built before the loop, and the window's read table at the first
    step under each kernel-set delay."""

    @staticmethod
    def _probe(monkeypatch):
        """Count controller steps by the delay of their kernel stack, and
        delay-line reads, read-table builds and weight builds, keyed by
        name, caller, whether the first control step has begun (at its
        window's read table), and the number of instants (the shape of the
        spans, for weights)."""
        where, steps, calls, started = ["runner"], Counter(), Counter(), []

        def inside(name, fn):
            def wrapper(*args, **kwargs):
                where.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    where.pop()
            return wrapper

        def counted(name, fn, size):
            def wrapper(*args, **kwargs):
                calls[name, where[-1], bool(started), size(*args)] += 1
                return fn(*args, **kwargs)
            return wrapper

        def step(self, *args, **kwargs):
            steps[self.kernels.delay] += 1
            return controller_step(self, *args, **kwargs)

        def window(*args, **kwargs):
            started.append(True)
            return window_table(*args, **kwargs)

        controller_step = inside("controller", ChannelController.step)
        window_table = runner.window_table
        monkeypatch.setattr(runner, "window_table", window)
        monkeypatch.setattr(DelayLine, "read", counted(
            "read", DelayLine.read, lambda line, table, *_: table.index.shape[1]))
        for module in (plant, controller):
            monkeypatch.setattr(module, "read_table", counted(
                "table", module.read_table, np.size))
        monkeypatch.setattr(plant, "exp_lin_weights", counted(
            "weights", plant.exp_lin_weights, lambda rates, spans: spans.shape))
        monkeypatch.setattr(ChannelController, "step", step)
        monkeypatch.setattr(Channel, "step", inside("plant", Channel.step))
        monkeypatch.setattr(Channel, "peek", inside("peek", Channel.peek))
        return steps, calls

    @pytest.mark.parametrize("period", [3, 7])
    def test_one_block_read_per_channel_per_control_step(self, transient_cfg,
                                                         monkeypatch, period):
        cfg = dataclasses.replace(transient_cfg, block=period * 2e-3,
                                  duration=0.2, snapshot_times=())
        steps, calls = self._probe(monkeypatch)
        rec = run(cfg)
        rows = rec.times.size
        assert not rec.terminated and rows > 2
        # one controller step per control step advances both channels
        assert steps.total() == rows
        # the controller's window, both channels in one read; the step
        # reads nothing itself
        assert calls.pop(("read", "runner", True, cfg.grid_m)) == rows
        # one window table per kernel-set delay
        assert calls.pop(("table", "runner", True, cfg.grid_m)) == len(steps)
        (key, n), = [(k, n) for k, n in calls.items() if k[1] == "plant"]
        assert key[0] == "read" and key[3] in {2, 4}   # two per linear piece
        assert n == rows - 1
        del calls[key]
        # all that is left: the block weights and the block read table of
        # the stack, built before the first control step
        assert calls == Counter({("table", "runner", False, key[3]): 1,
                                 ("weights", "runner", False, (key[3] // 2, 1, 1, 1)): 1})
        assert not hasattr(DelayLine, "lookup")

    def test_snapshot_inside_a_block_builds_its_own_weights(self, transient_cfg,
                                                            monkeypatch):
        cfg = dataclasses.replace(transient_cfg, block=1e-2, duration=0.1,
                                  snapshot_times=(0.05, 0.064))
        _, calls = self._probe(monkeypatch)
        rec = run(cfg)
        # 0.05 is a block start, 0.064 inside a block
        assert [s.requested_t for s in rec.snapshots] == [0.05, 0.064]
        peek_reads = sum(n for k, n in calls.items() if k[:2] == ("read", "peek"))
        peek_tables = sum(n for k, n in calls.items() if k[:2] == ("table", "peek"))
        loop_weights = sum(n for k, n in calls.items() if k[0] == "weights" and k[2])
        assert peek_reads == peek_tables == loop_weights == 1    # one for the stack


class TestDelayLineSize:
    def test_a_line_holds_no_more_records_than_the_run_makes(self, monkeypatch):
        # a run far shorter than the delay bound: the rings are sized by
        # the run, not by delay.hi = 1
        lines = []

        def make(*args):
            lines.append(DelayLine(*args))
            return lines[-1]

        monkeypatch.setattr(runner, "DelayLine", make)
        cfg = dataclasses.replace(parse_config(REFINE.format(M=21, N=8, block=5e-3), "r"),
                                  duration=0.05)
        rec = run(cfg)
        # one line for both channels, each row their band rows side by side
        (line,) = lines
        assert line.width == 2 * rec.modes.size
        assert line.capacity <= rec.times.size + 5


class TestTransforms:
    """The loop works in mode space: per chunk of ``_OBS_ROWS`` control
    steps it synthesizes both channels' commands at every step of the chunk
    in one inverse FFT, for ``control_sup``; it transforms nothing else
    (snapshots, off here, synthesize the fields)."""

    @pytest.mark.parametrize("fixed", [False, True], ids=["adapting", "known-delay"])
    def test_at_most_one_fft_per_channel_per_control_step(self, monkeypatch, fixed):
        calls, started = Counter(), []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name, bool(started)] += 1
                return fn(*args, **kwargs)
            return wrapper

        def step(self, *args, **kwargs):
            started.append(True)
            return controller_step(self, *args, **kwargs)

        for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "fft2", "ifft2"):
            monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
        controller_step = ChannelController.step
        monkeypatch.setattr(ChannelController, "step", step)
        cfg = dataclasses.replace(moderate_21x16(fixed, duration=1.5),
                                  snapshot_times=())
        rec = run(cfg)
        assert not rec.terminated
        assert fixed or np.count_nonzero(np.diff(rec.estimates)) >= 3
        in_loop = {name: n for (name, loop), n in calls.items() if loop}
        assert rec.times.size > 3 * runner._OBS_ROWS
        assert in_loop == {"ifft": math.ceil(rec.times.size / runner._OBS_ROWS)}


class TestChunkedObservation:
    """The logged observations, reduced once per chunk of steps, are bit
    for bit those of each step reduced on its own."""

    @staticmethod
    def _run_checked(monkeypatch, cfg):
        """The run's record, once its observed series are checked against
        each step's, from the tables the controller's steps read and wrote."""
        plants, goals, steps = [], [], []

        class Probe(runner.Channel):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                plants.append(self)

        def formations(*args):
            fields = formation_fields(*args)
            goals.append(np.stack(fields))
            return fields

        def step(self, measured, transport, images):
            assert plants[-1].kinds == ("complex", "real")
            table = plants[-1].table - goals[-1]
            commands = controller_step(self, measured, transport, images)
            steps.append((table, measured.copy(), transport.copy(),
                          images[:, :, :self.grid.M].copy(), commands.copy()))
            return commands

        controller_step = ChannelController.step
        monkeypatch.setattr(runner, "Channel", Probe)
        monkeypatch.setattr(runner, "formation_fields", formations)
        monkeypatch.setattr(ChannelController, "step", step)
        rec = run(cfg)
        grid = CylinderGrid(cfg.grid_m, cfg.grid_n, band=-rec.modes[0])
        # one controller step per control step, on the stacks of both channels
        assert len(steps) == rec.times.size
        want = [step_observation(grid, cfg.ring_rows, *step) for step in steps]
        for name, col in zip(("err_planar", "err_axial", "ring_errors", "control_sup",
                              "rim_residual"), zip(*want)):
            assert np.array_equal(getattr(rec, name), np.array(col)), name
        return rec

    @pytest.mark.parametrize("rows", [7, 32, 100])
    def test_chunks_equal_the_per_step_reductions(self, monkeypatch, rows):
        # fewer rows than one chunk, exactly one, several plus a remainder
        assert runner._OBS_ROWS == 32
        block = 2.0 ** -6
        cfg = dataclasses.replace(moderate_21x16(fixed=False, duration=(rows - 1) * block),
                                  block=block, snapshot_times=())
        rec = self._run_checked(monkeypatch, cfg)
        assert rec.times.size == rows and not rec.terminated

    def test_a_guard_stop_mid_chunk(self, monkeypatch):
        rec = self._run_checked(monkeypatch, preset("mismatch"))
        assert rec.terminated and rec.times.size % runner._OBS_ROWS


class TestReferenceStep:
    """The precomputed control step replays the convolution-built one."""

    @pytest.mark.parametrize("fixed, duration, planar", [
        (False, 0.8, None), (True, 1.5, None),
        (True, 1.5, PlantCoeffs(12.0 + 3.0j, 0.5 + 0.2j))],
        ids=["adapting", "known-delay", "mixed-dtypes"])
    def test_record_matches_reference_pipeline(self, monkeypatch, fixed, duration,
                                               planar):
        # adapting from hi rebuilds the kernel sets; the fixed estimate at
        # the true delay lets commands reach the plant after t = 1; complex
        # planar coefficients make the planar step map complex beside the
        # real axial one, through the one stacked loop
        cfg = moderate_21x16(fixed, duration)
        if planar is not None:
            cfg = dataclasses.replace(cfg, desired=dataclasses.replace(
                cfg.desired, planar_coeffs=planar))
            real = [np.isrealobj(KernelSet(KernelBasis(c, CylinderGrid(21, 16, band=2)),
                                           1.0).step_map)
                    for c in (cfg.desired.planar_coeffs, cfg.desired.axial_coeffs)]
            assert real == [False, True]
        rec = run(cfg)
        calls = seed_pipeline.install(monkeypatch)
        read = DelayLine.read

        def counted(self, table, t=None):
            calls["DelayLine.read"] += 1
            return read(self, table, t)

        monkeypatch.setattr(DelayLine, "read", counted)
        want = run(cfg)
        assert not rec.terminated and not want.terminated
        assert fixed or np.count_nonzero(np.diff(rec.estimates)) >= 3
        # every map of the replay's step came from the reference: per
        # control step one window read and one drift completion for both
        # channels, and per channel one product, one rim solve, one history
        # and one drift split in two; only the plant's block steps read the
        # line through a table
        steps = want.times.size
        assert calls == Counter(reconstruct_transport=steps, step_images=2 * steps,
                                rim_solve=2 * steps, finish_drift=steps,
                                to_target_history=2 * steps, mismatch_drift=4 * steps,
                                **{"DelayLine.read": steps - 1})
        for name in ("times", "estimates", "signals", "err_planar",
                     "err_axial", "ring_errors", "control_sup"):
            a, b = getattr(rec, name), getattr(want, name)
            assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b)), name


class TestKernelReuse:
    """A rebuild keeps the kernel stack it replaces as a spare, and an
    estimate that returns to it swaps it back instead of rebuilding."""

    @staticmethod
    def _probe(monkeypatch):
        """Count set builds per kernel basis (one per channel) and log the
        delay of the tables each controller step reads."""
        builds, used = Counter(), []

        def build(basis, delay_estimate):
            builds[basis] += 1
            return kernel_set(basis, delay_estimate)

        def step(self, *args):
            assert {ks.delay for ks in self.kernels.sets} == {self.kernels.delay}
            used.append(self.kernels.delay)
            return controller_step(self, *args)

        kernel_set, controller_step = runner.KernelSet, ChannelController.step
        monkeypatch.setattr(runner, "KernelSet", build)
        monkeypatch.setattr(ChannelController, "step", step)
        return builds, used

    def test_flipping_estimate_builds_each_bound_once(self, monkeypatch):
        cfg = moderate_21x16(fixed=False, duration=0.8)
        builds, used = self._probe(monkeypatch)
        rec = run(cfg)
        assert not rec.terminated
        assert np.count_nonzero(np.diff(rec.estimates)) >= 3
        tol = runner._RETABLE_FRACTION * (cfg.delay_hi - cfg.delay_lo)
        delay = np.array(used)
        assert delay.size == rec.times.size
        assert np.all(np.abs(delay - rec.estimates) <= tol)
        assert len(builds) == 2 and max(builds.values()) <= 2

    def test_fixed_estimate_builds_one_set_per_channel(self, monkeypatch):
        builds, used = self._probe(monkeypatch)
        rec = run(moderate_21x16(fixed=True, duration=0.8))
        assert sorted(builds.values()) == [1, 1]
        assert set(used) == {1.0} and len(used) == rec.times.size


    def test_a_swap_reuses_the_step_maps(self, monkeypatch):
        builds, _ = self._probe(monkeypatch)
        read = []

        def step_images(transport, measured, sets, *out):
            read.extend(ks.step_map for ks in sets)
            return images(transport, measured, sets, *out)

        images = controller.step_images
        monkeypatch.setattr(controller, "step_images", step_images)
        rec = run(moderate_21x16(fixed=False, duration=0.8))
        assert len(read) == 2 * rec.times.size
        planar = [id(m) for m in read[::2]]
        assert np.count_nonzero(np.diff(planar)) >= 3
        assert len({id(m) for m in read}) == sum(builds.values()) <= 4

    def test_a_swap_moves_the_stacked_tables_along(self, monkeypatch):
        # the per-row tables are stacked once per pair of sets, and a swap
        # moves them with the sets: the steps read as many stacks, and
        # as many stacked rim weights, as the run builds pairs
        builds, used = self._probe(monkeypatch)
        stacks, read = [], []

        def stack(sets):
            stacks.append(kernel_stack(sets))
            return stacks[-1]

        def step(self, *args):
            read.append((self.kernels, self.kernels.rim_weight))
            return controller_step(self, *args)

        kernel_stack, controller_step = runner.KernelStack, ChannelController.step
        for module in (runner, controller):
            monkeypatch.setattr(module, "KernelStack", stack)
        monkeypatch.setattr(ChannelController, "step", step)
        rec = run(moderate_21x16(fixed=False, duration=0.8))
        assert np.count_nonzero(np.diff(used)) >= 3
        assert 2 * len(stacks) == sum(builds.values()) <= 4
        assert len(read) == rec.times.size
        assert {id(k) for k, _ in read} == {id(k) for k in stacks}
        assert len({id(w) for _, w in read}) == len(stacks)

    def test_a_swap_builds_no_window_table(self, monkeypatch):
        builds, used = self._probe(monkeypatch)
        windows = Counter()

        def window_table(line, delay_estimate, grid):
            windows[delay_estimate] += 1
            return table(line, delay_estimate, grid)

        table = runner.window_table
        monkeypatch.setattr(runner, "window_table", window_table)
        rec = run(moderate_21x16(fixed=False, duration=0.8))
        swaps = np.count_nonzero(np.diff(used))
        assert swaps >= 3 and sum(builds.values()) <= 4
        # one table for both channels per kernel-set delay, built at its
        # first step; swapping back to a spare set reuses it
        assert windows.total() == sum(builds.values()) // 2
        assert set(windows.values()) == {1}


class TestOneProduct:
    """Per control step each channel makes one table product, with its
    kernel set's step map, inside that channel's update of the one
    controller step, into the controller's one parts buffer; nothing else
    in the loop calls ``apply``."""

    @pytest.mark.parametrize("fixed", [False, True], ids=["adapting", "known-delay"])
    def test_one_apply_per_channel_per_control_step(self, monkeypatch, fixed):
        calls, inside, buffers = Counter(), [], set()

        def update(self, c, *args, **kwargs):
            inside.append((self, c))
            try:
                return controller_update(self, c, *args, **kwargs)
            finally:
                inside.pop()

        def apply(self, table, split, out):
            # the updating channel's own set, at its place in the stack
            ctrl, c = inside[-1] if inside else (None, None)
            calls[c if ctrl is not None and ctrl.kernels.sets[c] is self else None] += 1
            buffers.add(id(out.base))
            return kernel_apply(self, table, split, out)

        controller_update, kernel_apply = ChannelController.update, KernelSet.apply
        monkeypatch.setattr(ChannelController, "update", update)
        monkeypatch.setattr(KernelSet, "apply", apply)
        rec = run(moderate_21x16(fixed, duration=0.8))
        assert not rec.terminated
        assert fixed or np.count_nonzero(np.diff(rec.estimates)) >= 3
        assert calls == Counter({0: rec.times.size, 1: rec.times.size})
        assert len(buffers) == 1


class TestStackedStep:
    """One controller step per control step advances both channels' law,
    with one update per channel for its product, and it is the law of each
    channel on its own, bit for bit."""

    @pytest.mark.parametrize("fixed", [False, True], ids=["adapting", "known-delay"])
    def test_one_step_per_control_step_after_every_set_up_build(self, monkeypatch,
                                                                fixed):
        # the bench ends set-up at the first update: every kernel basis and
        # set of set-up must be built before it, and before the first step
        events = []

        def logged(name, fn):
            def wrapper(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for cls, name in ((ChannelController, "step"), (ChannelController, "update"),
                          (KernelBasis, "__init__"), (KernelSet, "__init__")):
            monkeypatch.setattr(cls, name, logged(f"{cls.__name__}.{name}",
                                                  getattr(cls, name)))
        rec = run(moderate_21x16(fixed, duration=0.8))
        assert not rec.terminated
        first = events.index("ChannelController.step")
        assert Counter(events[:first]) == Counter({"KernelBasis.__init__": 2,
                                                   "KernelSet.__init__": 2})
        assert events[first + 1] == "ChannelController.update"
        later = Counter(events[first:])
        assert later["ChannelController.step"] == rec.times.size
        # the bench counts the controller's updates: one per channel per step
        assert later["ChannelController.update"] == 2 * rec.times.size
        assert "KernelBasis.__init__" not in later
        # an adapting estimate rebuilds both sets of a stack inside the loop
        assert later["KernelSet.__init__"] == (0 if fixed else 2)

    @pytest.mark.parametrize("kinds", [("complex", "real"), ("real", "complex"),
                                       ("real", "real", "complex")])
    def test_step_on_any_tables_is_the_per_channel_law(self, kinds):
        # each channel's map is real or complex as its coefficients are, in
        # any order in the stack; the tables have no conjugate symmetry
        grid = CylinderGrid(15, 8, band=2)
        coeffs = {"real": [PlantCoeffs(12.0, 0.5), PlantCoeffs(8.0, -0.3)],
                  "complex": [PlantCoeffs(10.0 + 2.0j, 0.5 + 0.5j)]}
        sets = [KernelSet(KernelBasis(coeffs[kind].pop(), grid), 0.7) for kind in kinds]
        rng = np.random.default_rng(5)
        shape = (len(kinds), grid.modes.size, grid.M)
        ctrl = ChannelController(sets)
        for _ in range(2):      # the second step reuses the controller's buffers
            measured, transport = (rng.normal(size=(2,) + shape)
                                   + 1j * rng.normal(size=(2,) + shape))
            images, want_images = np.empty((2,) + shape[:2] + (2 * grid.M,), dtype=complex)
            want_transport = transport.copy()
            want = channel_law.stacked_update(sets, measured, want_transport, want_images)
            got = ctrl.step(measured, transport, images)
            assert np.array_equal(got, want)
            assert np.array_equal(transport, want_transport)
            assert np.array_equal(images, want_images)

    @pytest.mark.parametrize("planar", [None, PlantCoeffs(12.0 + 3.0j, 0.5 + 0.2j)],
                             ids=["real-maps", "mixed-dtypes"])
    def test_step_is_the_per_channel_law_bit_for_bit(self, monkeypatch, planar):
        # adapting from hi, the estimate flips between its bounds, so steps
        # run on a rebuilt stack and on the spare swapped back
        cfg = moderate_21x16(fixed=False, duration=0.8)
        if planar is not None:
            cfg = dataclasses.replace(cfg, desired=dataclasses.replace(
                cfg.desired, planar_coeffs=planar))
        used = []

        def step(self, measured, transport, images):
            want_transport, want_images = transport.copy(), np.empty_like(images)
            want = channel_law.stacked_update(self.kernels.sets, measured,
                                              want_transport, want_images)
            got = controller_step(self, measured, transport, images)
            assert np.array_equal(got, want)
            assert np.array_equal(transport, want_transport)
            assert np.array_equal(images, want_images)
            used.append(self.kernels)
            return got

        controller_step = ChannelController.step
        monkeypatch.setattr(ChannelController, "step", step)
        rec = run(cfg)
        assert len(used) == rec.times.size
        returns = [k for j, k in enumerate(used[1:], 1)
                   if k is not used[j - 1] and any(k is u for u in used[:j - 1])]
        assert len(returns) >= 2


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

    def test_inner_snapshot_is_the_state_at_its_instant(self):
        # no command reaches the rim before t = 1, so the plant runs open
        # loop and its state at an instant does not depend on the blocks: a
        # snapshot 0.003 into a block of 0.01 equals the one a run ending
        # there takes at its last block start
        text = (TRANSIENT.replace("delay.true = 0.3", "delay.true = 1")
                .replace("run.duration = 0.4", "run.duration = 0.1\nrun.block = 0.01")
                .replace("run.snapshots = 0 0.123 0.4", "run.snapshots = 0.063"))
        base = parse_config(text, "open-loop")
        inner, = run(base).snapshots
        end, = run(dataclasses.replace(base, duration=0.063)).snapshots
        for a, b in ((inner.planar, end.planar), (inner.axial, end.axial)):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_field_copies_and_kinds(self, transient_record):
        snap = transient_record.snapshots[0]
        assert np.iscomplexobj(snap.planar)
        assert not np.iscomplexobj(snap.axial)
        assert snap.planar.shape == snap.axial.shape == (15, 8)


class TestNyquistRim:
    def test_axial_rim_term_at_the_nyquist_wavenumber(self):
        # on an 8-node ring +4 and -4 are one mode: the two halves of
        # 0.5 cos 4 theta add into its row, and the run keeps it
        text = (TRANSIENT.replace("grid.M = 15", "grid.M = 11")
                .replace("desired.axial_leader = (0,0.8,0)",
                         "desired.axial_leader = (0,1.3,0) (4,0.25,0) (-4,0.25,0)")
                .replace("run.rings = 1 8 15", "run.rings = 1 6 11"))
        cfg = parse_config(text, "nyquist")
        rec = run(cfg)
        assert not rec.terminated
        assert rec.modes.tolist() == [-4, -3, -2, -1, 0, 1, 2, 3]
        grid = CylinderGrid(11, 8, band=4)
        _, axial = formation_fields(cfg.desired, grid)
        ring = grid.synthesize(axial, "real")[-1]
        assert np.max(np.abs(ring - (1.3 + 0.5 * np.cos(4 * grid.theta)))) <= 1e-14
        assert np.all(np.isfinite(rec.err_axial))


def case_config(name):
    """The ``full-band-15x8`` case of ``tools/record_digests.py``, or the
    ``known-delay-21x16`` bench workload at seed 0."""
    root = Path(__file__).resolve().parents[1]
    if name == "full-band-15x8":
        spec = importlib.util.spec_from_file_location(
            "record_digests", root / "tools" / "record_digests.py")
        digests = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(digests)
        return parse_config(digests.FULL_BAND, name)
    if str(root / "benchmarks") not in sys.path:
        sys.path.insert(0, str(root / "benchmarks"))
    scenarios = importlib.import_module("cylbench.scenarios")
    return parse_config(scenarios.scenario_text(scenarios.WORKLOADS[name], 0), name)


class TestAxialCommandsStayReal:
    """The axial channel's rim data are exact conjugate pairs and its maps
    real, so every command it sends is a real profile bit for bit, with no
    projection."""

    @pytest.mark.parametrize("name", ["full-band-15x8", "known-delay-21x16"])
    def test_every_axial_command_is_exactly_conjugate_symmetric(self, monkeypatch, name):
        cfg = case_config(name)
        sent = []

        def step(self, measured, transport, images):
            commands = controller_step(self, measured, transport, images)
            sent.append(commands[1].copy())
            return commands

        controller_step = ChannelController.step
        monkeypatch.setattr(ChannelController, "step", step)
        rec = run(cfg)
        assert not rec.terminated and len(sent) == rec.times.size >= 50
        assert cfg.fixed_estimate or np.count_nonzero(np.diff(rec.estimates)) >= 20
        assert conjugate_symmetry_defect(np.stack(sent, axis=1)) == 0.0


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


class TestConvergence:
    def test_formation_error_decays_to_the_stencil_goal(self):
        # stable loop at the known delay: the agents reach the goal they
        # are regulated to, and the planar error decays at the loop's rate
        rec = run(parse_config(REFINE.format(M=21, N=8, block=5e-3), "r"))
        eu, ez, t = rec.err_planar, rec.err_axial, rec.times
        assert math.hypot(eu[-1], ez[-1]) <= 1e-4 * math.hypot(eu[0], ez[0])
        i, j = np.searchsorted(t, [0.6 - 1e-9, 1.2 - 1e-9])
        assert math.log(eu[i] / eu[j]) / (t[j] - t[i]) >= 8.0


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

    def test_capture_pairs_each_channel_with_its_own_tables(self, monkeypatch):
        # adapting from hi, the estimate flips between the bounds and the
        # loop swaps its kernel sets; a capture at every step must hand each
        # channel's previous and current step to that channel's tables
        cfg = moderate_21x16(fixed=False, duration=0.8)
        times = run(cfg).times
        steps, calls = [], []

        def step(self, measured, transport, images):
            commands = controller_step(self, measured, transport, images)
            steps.append((measured, images[:, :, :self.grid.M], self.kernels.sets))
            return commands

        def residual(prev, curr, dt, ks):
            calls.append((prev, curr, ks))
            return target_residual(prev, curr, dt, ks)

        controller_step, target_residual = ChannelController.step, runner.target_residual
        monkeypatch.setattr(ChannelController, "step", step)
        monkeypatch.setattr(runner, "target_residual", residual)
        rec = run(cfg, capture_residuals=times[1:])
        assert np.count_nonzero(np.diff(rec.estimates)) >= 3
        assert len(rec.residuals) == rec.times.size - 1
        assert len(steps) == rec.times.size
        assert len(calls) == 2 * len(rec.residuals)
        swaps = 0
        for k, (prev, curr, ks) in enumerate(calls):
            # capture j spans steps j and j + 1; channel c is row c of
            # their stacks, taken at the sets of the later step
            j, c = divmod(k, 2)
            (m0, h0, sets0), (m1, h1, sets1) = steps[j], steps[j + 1]
            # each step's (scaled deviation, target history) pair
            for got, want in zip((*prev, *curr), (m0, h0, m1, h1)):
                assert got.shape == want.shape[1:] and np.shares_memory(got, want[c])
            assert ks is sets1[c]
            want = (cfg.desired.planar_coeffs, cfg.desired.axial_coeffs)[c]
            assert ks.basis.coeffs == want and sets0[c].basis is ks.basis
            swaps += sets0[c] is not ks
        assert swaps >= 2

    def test_capture_across_an_estimate_move_is_taken_at_the_tables_in_use(
            self, monkeypatch):
        # the flow defect models no motion of the estimate: across a move it
        # is the transport defect of the two steps under the current tables
        cfg = moderate_21x16(fixed=False, duration=0.8)
        plain = run(cfg)
        k = int(np.flatnonzero(np.diff(plain.estimates))[0]) + 1
        steps = []

        def step(self, measured, transport, images):
            commands = controller_step(self, measured, transport, images)
            steps.append((images[:, :, :self.grid.M].copy(), self.kernels.sets))
            return commands

        controller_step = ChannelController.step
        monkeypatch.setattr(ChannelController, "step", step)
        rec = run(cfg, capture_residuals=[plain.times[k]])
        (t, *captured), = rec.residuals
        assert t == plain.times[k]
        assert len(steps) == rec.times.size
        dt = plain.times[1]
        for c, got in enumerate(captured):
            (before, sets0), (after, sets) = steps[k - 1], steps[k]
            ks = sets[c]
            assert sets0[c].delay != ks.delay
            h0, h1 = before[c], after[c]
            grid = ks.grid
            flow = ks.delay * (h1 - h0) / dt - d_s(grid, (0.5 * (h0 + h1)).T).T
            want = math.sqrt(2.0 * math.pi * grid.h_s * np.sum(abs(flow[:, 1:-1]) ** 2))
            assert got.boundary_flow == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_refinement_beyond_first_order(self, monkeypatch):
        # Slope kinks of the command flow echo at multiples of the dead
        # time and decay through the loop's smoothing; capture well past
        # the last visible echo so only discretization error remains.  On
        # the stencil's own goal that error has decayed to roundoff, so the
        # runs regulate to the continuum goal, which the plant cannot reach.
        monkeypatch.setattr(runner, "formation_fields", continuum_steady.formation_fields)
        coarse = run(parse_config(REFINE.format(M=21, N=8, block=5e-3), "c"),
                     capture_residuals=[1.2])
        fine = run(parse_config(REFINE.format(M=41, N=16, block=1.25e-3), "f"),
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


class TestWritersMatchSavetxt:
    """The writers format each table in one operation; the bytes are those
    ``np.savetxt`` writes."""

    HEADER = ("t,Dhat,tau,err_u_L2,err_z_L2,err_ring_1,err_ring_8,err_ring_15,"
              "control_sup,h_bnd_residual")

    @staticmethod
    def _savetxt(path, data, fmt, header=""):
        np.savetxt(path, data, fmt=fmt, delimiter=",", header=header, comments="",
                   encoding="utf-8")
        return path.read_bytes()

    def test_series(self, transient_record, tmp_path):
        rec = transient_record
        data = np.column_stack([rec.times, rec.estimates, rec.signals, rec.err_planar,
                                rec.err_axial, rec.ring_errors, rec.control_sup,
                                rec.rim_residual])
        want = self._savetxt(tmp_path / "ref.csv", data, "%.17g", self.HEADER)
        assert write_series(rec, tmp_path).read_bytes() == want

    def test_empty_series_is_its_header(self, transient_cfg, tmp_path):
        empty = RunRecord(transient_cfg, (1, 8, 15), np.arange(-1, 2),
                          *[np.zeros(0)] * 5, np.zeros((0, 3)), np.zeros(0), np.zeros(0))
        want = self._savetxt(tmp_path / "ref.csv", np.zeros((0, 10)), "%.17g", self.HEADER)
        assert write_series(empty, tmp_path).read_bytes() == want
        assert want == (self.HEADER + "\n").encode()

    def test_field_files(self, transient_record, tmp_path):
        snap = transient_record.snapshots[1]
        odd = np.array([[0.0, -0.0, 1e-300, np.inf], [np.nan, -1.5, 2.0**60, 1 / 3]])
        fields = {"u_re": snap.planar.real, "z": snap.axial, "odd": odd}
        paths = write_snapshot(fields, snap.requested_t, tmp_path)
        for path, values in zip(paths, fields.values()):
            assert path.read_bytes() == self._savetxt(tmp_path / "ref.csv", values, "%.17g")

    def test_positions(self, transient_record, tmp_path):
        snap = transient_record.snapshots[1]
        m, n = snap.planar.shape
        si, tj = np.meshgrid(np.arange(1, m + 1), np.arange(1, n + 1), indexing="ij")
        data = np.column_stack([si.ravel(), tj.ravel(), snap.planar.real.ravel(),
                                snap.planar.imag.ravel(), snap.axial.ravel()])
        want = self._savetxt(tmp_path / "ref.csv", data,
                             ["%d", "%d", "%.17g", "%.17g", "%.17g"],
                             "s_index,theta_index,x,y,z")
        path = write_positions(snap.planar, snap.axial, snap.requested_t, tmp_path)
        assert path.read_bytes() == want


class TestSnapshotDataclass:
    def test_fields(self):
        s = Snapshot(1.0, np.zeros((3, 4), complex), np.zeros((3, 4)))
        assert [f.name for f in dataclasses.fields(s)] == ["requested_t", "planar", "axial"]
        assert s.requested_t == 1.0

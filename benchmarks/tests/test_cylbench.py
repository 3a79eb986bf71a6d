"""Tests of the benchmark harness itself, all on a 15 x 8 grid.

Run from the repository root with ``python -m pytest benchmarks/tests``.
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cylform import controller, runner
from cylform.config import parse_config, preset

from cylbench import harness, tracing
from cylbench.scenarios import RIM_JITTER, WORKLOADS, Workload, scenario_text
from cylbench.tracing import Span

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = Workload(name="tiny-15x8", grid=(15, 8), duration=0.02,
                delay_keys="delay.initial_estimate = 2\n", rings="1 8 15",
                snapshots="0 0.02", residual_times=(0.01,))


@pytest.fixture
def scenario(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(scenario_text(TINY, 3), encoding="utf-8")
    return path


def _names(kind):
    return {m["name"] for m in SPEC[kind]}


class TestHarness:
    def test_measure_reports_every_end_to_end_metric(self, scenario, tmp_path):
        ops, metrics = harness.measure(TINY, scenario, tmp_path / "out", 0.0)
        assert [op.problems for op in ops] == [[]]
        assert set(metrics) == _names("end_to_end")
        assert all(v > 0 and math.isfinite(v) for v, _ in metrics.values())

    def test_trace_reports_every_per_layer_metric(self, scenario, tmp_path):
        ops, metrics = harness.trace(TINY, scenario, tmp_path / "out", 0.0)
        assert [op.traced for op in ops] == [False, True]
        assert [op.problems for op in ops] == [[], []]
        assert ops[0].digest == ops[1].digest
        assert set(metrics) == _names("per_layer")
        assert metrics["runner.residual_captures"][0] == 1
        assert metrics["kernels.set_builds"][0] >= 2
        assert metrics["controller.update_calls"][0] == 2 * ops[1].ctrl_steps

    def test_run_stops_before_a_round_would_overrun(self, monkeypatch):
        # rounds of 4 s in a 10 s window: a third would end at 12 s
        clock = iter([0.0, 0.0, 4.0, 4.0, 8.0, 8.0])
        monkeypatch.setattr(harness.time, "perf_counter", lambda: next(clock))
        assert len(list(harness._rounds(10.0))) == 2

    def test_wrappers_are_removed_after_a_traced_job(self, scenario, tmp_path):
        before = (vars(controller.ChannelController)["update"],
                  runner.mismatch_drift, runner.target_residual)
        harness.run_operation(TINY, scenario, tmp_path, tracing.Tracer())
        after = (vars(controller.ChannelController)["update"],
                 runner.mismatch_drift, runner.target_residual)
        assert after == before

    def test_missing_target_is_reported_not_fatal(self):
        targets = {"plant": (("cylform.plant", "Channel.no_such_step", "plant.step", "span"),),
                   "steady": (("cylform.runner", "formation_fields", "steady.formation", "span"),)}
        assert tracing.missing_targets(targets) == {
            "plant": ["cylform.plant:Channel.no_such_step"]}
        assert tracing.absent_layers(targets) == ["plant"]
        with tracing.installed(tracing.Tracer(), targets):
            pass

    def test_bare_benchmark_directory_exits_nonzero(self, tmp_path):
        shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        proc = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", "adaptive-51x50",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert proc.returncode != 0
        assert proc.stdout == ""


class TestSelfTime:
    def test_nested_spans(self):
        spans = [Span("runner.run", 0.0, 10.0, -1),
                 Span("controller.update", 1.0, 4.0, 0),
                 Span("quadrature.conv", 2.0, 3.0, 1),
                 Span("plant.step", 5.0, 9.0, 0)]
        assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]

    def test_layer_self_time_and_share(self):
        op = harness.Operation(traced=True, spans=[
            Span("bench.job", 0.0, 20.0, -1),
            Span("runner.run", 0.0, 16.0, 0),
            Span("controller.update", 1.0, 9.0, 1),
            Span("quadrature.conv", 2.0, 5.0, 2),
            Span("controller.law", 6.0, 8.0, 2),
            Span("plant.step", 10.0, 14.0, 1),
        ])
        m = harness.layer_metrics(op)
        assert m["controller.self_s"][0] == pytest.approx(5.0)
        assert m["controller.share"][0] == pytest.approx(8.0 / 20.0)
        assert m["quadrature.self_s"][0] == pytest.approx(3.0)
        assert m["plant.share"][0] == pytest.approx(4.0 / 20.0)
        assert m["runner.loop_self_s"][0] == pytest.approx(4.0)
        assert m["runner.share"][0] == pytest.approx(4.0 / 20.0)
        assert m["controller.update_ms.p50"][0] == pytest.approx(8000.0)


class TestScenarios:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_seed_zero_reproduces_the_preset(self, name):
        ref = preset("moderate")
        cfg = parse_config(scenario_text(WORKLOADS[name], 0))
        assert cfg.initial == ref.initial
        assert cfg.desired == ref.desired
        assert (cfg.true_delay, cfg.delay_lo, cfg.delay_hi, cfg.gain) == \
            (ref.true_delay, ref.delay_lo, ref.delay_hi, ref.gain)

    def test_seed_moves_only_initial_rim_amplitudes(self):
        w = WORKLOADS["adaptive-51x50"]
        base = parse_config(scenario_text(w, 0))
        cfg = parse_config(scenario_text(w, 7))
        assert cfg.initial != base.initial
        assert replace(cfg, initial=base.initial) == base
        keys = ("planar_anchor", "planar_leader", "axial_anchor", "axial_leader")
        for key in keys:
            a, b = getattr(cfg.initial, key), getattr(base.initial, key)
            assert a.keys() == b.keys()
            for n in a:
                assert abs(a[n] / b[n] - 1.0) <= RIM_JITTER
        assert scenario_text(w, 7) == scenario_text(w, 7)


class TestFailureAccounting:
    def test_non_finite_series_is_a_failed_job(self, scenario, tmp_path, monkeypatch):
        real_run = runner.run

        def corrupted(cfg, **kwargs):
            record = real_run(cfg, **kwargs)
            record.err_planar[-1] = np.nan
            return record

        monkeypatch.setattr(runner, "run", corrupted)
        ops, _ = harness.measure(TINY, scenario, tmp_path, 0.0)
        assert [op.failed for op in ops] == [True]
        assert any("non-finite values in err_planar" in p for p in ops[0].problems)

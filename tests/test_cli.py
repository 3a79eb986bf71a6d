import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cylform
from cylform import runner
from cylform.cli import main
from cylform.config import PRESETS
from cylform.controller import ChannelController

TINY = """
grid.M = 15
grid.N = 8
initial.planar_reaction = 4
initial.axial_reaction = 3
initial.planar_anchor = (1,0.8,0.1)
initial.planar_leader = (1,1,0)
initial.axial_anchor = (0,-1,0)
initial.axial_leader = (0,1,0)
desired.planar_reaction = 5
desired.axial_reaction = 2
desired.planar_anchor = (1,0.5,0)
desired.planar_leader = (1,1,0)
desired.axial_anchor = (0,-1,0)
desired.axial_leader = (0,0.8,0)
delay.true = 0.3
delay.lo = 0.1
delay.hi = 1
delay.gain = 0.05
delay.initial_estimate = 0.5
run.duration = 0.05
run.snapshots = 0 0.05
run.rings = 1 8 15
"""

#: the ``moderate`` preset on a 21x16 grid over 0.4 s: adapting from
#: delay.hi, the estimate reaches delay.lo within 0.35 s
MODERATE_21X16 = (PRESETS["moderate"]
                  .replace("grid.M = 51", "grid.M = 21")
                  .replace("grid.N = 50", "grid.N = 16")
                  .replace("run.duration = 20", "run.duration = 0.4")
                  + "run.rings = 5 11 21\n")


@pytest.fixture
def tiny_path(tmp_path):
    p = tmp_path / "tiny.cfg"
    p.write_text(TINY, encoding="utf-8")
    return p


class TestRunCommand:
    def test_completed_run_writes_artifacts(self, tiny_path, tmp_path, capsys):
        out = tmp_path / "results"
        code = main(["run", str(tiny_path), "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        # the rim data list |n| <= 1, so 3 of the grid's 8 wavenumbers run
        assert "wavenumbers |n| <= 1 (3 of 8)" in stdout.splitlines()
        assert "control rows" in stdout
        assert "2 snapshots" in stdout
        series = out / "series.csv"
        assert series.exists()
        data = np.loadtxt(series, delimiter=",", skiprows=1)
        assert data.shape[1] == 10
        assert np.all(np.isfinite(data))
        for stem in ("u_re", "u_im", "z", "positions"):
            assert (out / f"snapshot_t0_{stem}.csv").exists()
            assert (out / f"snapshot_t0.05_{stem}.csv").exists()

    def test_output_dir_from_config(self, tmp_path, capsys):
        out = tmp_path / "from_config"
        text = TINY + f"run.output_dir = {out}\n"
        p = tmp_path / "cfg"
        p.write_text(text, encoding="utf-8")
        assert main(["run", str(p)]) == 0
        capsys.readouterr()
        assert (out / "series.csv").exists()

    def test_fixed_estimate_flag(self, tiny_path, tmp_path, capsys):
        out = tmp_path / "fixed"
        code = main(["run", str(tiny_path), "--out", str(out),
                     "--fixed-delay-estimate", "0.7"])
        assert code == 0
        capsys.readouterr()
        data = np.loadtxt(out / "series.csv", delimiter=",", skiprows=1)
        assert np.all(data[:, 1] == 0.7)

    def test_fixed_estimate_outside_bounds_rejected(self, tiny_path, tmp_path,
                                                    capsys):
        code = main(["run", str(tiny_path), "--out", str(tmp_path / "x"),
                     "--fixed-delay-estimate", "5.0"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_guard_termination_exits_2_with_partial_results(self, tmp_path,
                                                            capsys):
        # open-loop growth far above pi^2, and the delay keeps every command
        # from the rim until the guard trips
        text = (TINY
                .replace("desired.planar_reaction = 5", "desired.planar_reaction = 150")
                .replace("delay.true = 0.3", "delay.true = 1")
                .replace("run.duration = 0.05", "run.duration = 1")
                .replace("run.snapshots = 0 0.05", "run.snapshots = none"))
        p = tmp_path / "blowup.cfg"
        p.write_text(text, encoding="utf-8")
        out = tmp_path / "partial"
        code = main(["run", str(p), "--out", str(out)])
        assert code == 2
        assert "terminated early" in capsys.readouterr().err
        data = np.loadtxt(out / "series.csv", delimiter=",", skiprows=1)
        assert data.size > 0

    def test_kernel_float64_cannot_sum_exits_1(self, tmp_path, capsys):
        text = TINY.replace("desired.planar_reaction = 5",
                            "desired.planar_reaction = 1000\n"
                            "desired.planar_advection = 0.5")
        p = tmp_path / "stiff.cfg"
        p.write_text(text, encoding="utf-8")
        assert main(["run", str(p), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: shifted reaction 999.9375")
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_unresolved_delay_lo_exits_1_before_the_first_step(self, tmp_path,
                                                               capsys, monkeypatch):
        # the kernel series converges slowest at delay.lo, which the
        # adapting estimate may reach: set-up rejects the bound
        updates = []
        update = ChannelController.update
        monkeypatch.setattr(ChannelController, "update",
                            lambda self, *args: updates.append(1) or update(self, *args))
        p = tmp_path / "low.cfg"
        p.write_text(MODERATE_21X16.replace("delay.lo = 0.2", "delay.lo = 0.005"),
                     encoding="utf-8")
        assert main(["run", str(p), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: delay.lo = 0.005 is below ")
        assert updates == []
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("lo, mode", [("0.01", "adaptive"), ("0.005", "fixed")])
    def test_resolved_or_unreached_delay_lo_runs(self, tmp_path, capsys, lo, mode):
        # an adapting estimate reaches delay.lo = 0.01 and rebuilds its
        # tables there; an estimate fixed at 1 never reaches 0.005
        text = MODERATE_21X16.replace("delay.lo = 0.2", f"delay.lo = {lo}")
        if mode == "fixed":
            text = text.replace("delay.initial_estimate = 2",
                                "delay.initial_estimate = 1") + "delay.mode = fixed\n"
        p = tmp_path / "low.cfg"
        p.write_text(text, encoding="utf-8")
        assert main(["run", str(p), "--out", str(tmp_path / "x")]) == 0
        capsys.readouterr()
        dhat = np.loadtxt(tmp_path / "x" / "series.csv", delimiter=",", skiprows=1)[:, 1]
        assert dhat.min() == (float(lo) if mode == "adaptive" else 1.0)

    def test_resonant_goal_exits_1(self, tmp_path, capsys):
        # with 21 axial nodes this reaction zeroes one of the planar
        # stencil's rates at n = 0, where the desired rim data sit: the
        # goal has no equilibrium
        text = (TINY.replace("grid.M = 15", "grid.M = 21")
                .replace("desired.planar_reaction = 5",
                         "desired.planar_reaction = 9.849327523889817")
                .replace("desired.planar_anchor = (1,0.5,0)",
                         "desired.planar_anchor = (0,0.5,0)"))
        p = tmp_path / "resonant.cfg"
        p.write_text(text, encoding="utf-8")
        assert main(["run", str(p), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: steady profile is resonant at angular mode n=0")
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()


    @pytest.mark.parametrize("offset", [1e-12, 1e-9, 1e-6])
    def test_near_resonant_goal_exits_1(self, tmp_path, capsys, offset):
        # the same rate, moved off zero by ``offset``: the goal has an
        # equilibrium, millions of times larger than its rim data
        text = (TINY.replace("grid.M = 15", "grid.M = 21")
                .replace("desired.planar_reaction = 5",
                         f"desired.planar_reaction = {9.849327523889817 + offset!r}")
                .replace("desired.planar_anchor = (1,0.5,0)",
                         "desired.planar_anchor = (0,0.5,0)"))
        p = tmp_path / "near.cfg"
        p.write_text(text, encoding="utf-8")
        assert main(["run", str(p), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: steady profile is near-resonant at angular mode n=0")
        assert "times the largest rim coefficient" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()


class TestUsageErrors:
    def test_missing_config_and_preset(self, capsys):
        assert main(["run"]) == 1
        assert "exactly one" in capsys.readouterr().err

    def test_both_config_and_preset(self, tiny_path, capsys):
        assert main(["run", str(tiny_path), "--preset", "moderate"]) == 1
        assert "exactly one" in capsys.readouterr().err

    def test_unknown_preset(self, capsys):
        assert main(["run", "--preset", "bogus"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["plot"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_option(self, tiny_path, capsys):
        assert main(["run", str(tiny_path), "--frobnicate"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_config_contents(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("grid.M = 14\n", encoding="utf-8")
        assert main(["run", str(p)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("dt", "1e-3"), ("control_period", "5")])
    def test_removed_clock_keys_are_unknown(self, tmp_path, capsys, key, value):
        # the control block is the run's only clock: the old step keys are
        # rejected, not read as a block
        p = tmp_path / "old.cfg"
        p.write_text(TINY + f"run.{key} = {value}\n", encoding="utf-8")
        assert main(["run", str(p), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert f"unknown key {key!r} in section 'run'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_repeated_ring_index(self, tmp_path, capsys):
        p = tmp_path / "rings.cfg"
        p.write_text(TINY.replace("run.rings = 1 8 15", "run.rings = 5 5 3"),
                     encoding="utf-8")
        assert main(["run", str(p), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert "ring index 5 is listed twice" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()


    @pytest.mark.parametrize("key,value", [
        ("run.duration", "inf"),
        ("run.duration", "nan"),
        ("run.block", "nan"),
        ("initial.planar_reaction", "inf"),
        ("desired.axial_reaction", "nan"),
    ])
    def test_non_finite_number_is_a_config_error(self, tmp_path, capsys, key,
                                                  value):
        text = "\n".join(line for line in TINY.splitlines()
                         if not line.startswith(f"{key} ="))
        p = tmp_path / "nonfinite.cfg"
        p.write_text(text + f"\n{key} = {value}\n", encoding="utf-8")
        assert main(["run", str(p), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert f"{key} expects a finite number" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_a_block_no_array_can_count_is_a_config_error(self, tmp_path, capsys,
                                                          monkeypatch):
        # 2e301 blocks over the 20 s horizon: rejected with its count before
        # any kernel table, plant or delay line is built, without a warning
        built = []
        for name in ("KernelBasis", "Channel", "DelayLine"):
            monkeypatch.setattr(runner, name, lambda *_, name=name: built.append(name))
        p = tmp_path / "fine.cfg"
        p.write_text(PRESETS["moderate"] + "run.block = 1e-300\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(p), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: run.block = 1e-300 makes 2e+301 blocks")
        assert "Traceback" not in err
        assert built == []
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("lo", ["0", "-1"])
    def test_non_positive_delay_bound_is_a_config_error(self, tmp_path, capsys,
                                                       lo):
        p = tmp_path / "lo.cfg"
        p.write_text(TINY.replace("delay.lo = 0.1", f"delay.lo = {lo}"),
                     encoding="utf-8")
        assert main(["run", str(p), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert "delay.lo must be positive" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()


class TestSubprocessEntry:
    def test_module_invocation(self, tiny_path, tmp_path):
        # the child imports the same package this test process imported
        src = str(Path(cylform.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = tmp_path / "sub"
        proc = subprocess.run(
            [sys.executable, "-m", "cylform.cli", "run", str(tiny_path),
             "--out", str(out)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        assert "control rows" in proc.stdout
        assert (out / "series.csv").exists()

"""The summary of ``tools/bench_pairs.py`` on synthetic run results."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_per_sim_s", "better": "lower", "bound": 0.25},
           {"name": "ctrl_steps_per_s", "better": "higher", "bound": 0.25}]


def result(wall, steps=None, correct=True, failed=0):
    """A ``benchmarks/run.py`` result object with the two metrics."""
    steps = 1.0 / wall if steps is None else steps
    return {"correct": correct, "attempted": 5, "failed": failed,
            "metrics": {"wall_per_sim_s": {"value": wall, "unit": "s/s"},
                        "ctrl_steps_per_s": {"value": steps, "unit": "1/s"}}}


def rows(pairs):
    return {row["name"]: row for row in bench_pairs.summarize(pairs, METRICS)}


PARENT = [0.0260, 0.0255, 0.0270, 0.0262, 0.0258, 0.0265, 0.0259, 0.0261, 0.0268, 0.0257]


def test_a_clear_gain_in_every_pair_holds_the_rule():
    out = rows([(result(p), result(0.75 * p)) for p in PARENT])
    for name in ("wall_per_sim_s", "ctrl_steps_per_s"):
        assert out[name]["wins"] == 10 and out[name]["pairs"] == 10
        assert out[name]["rule"]
    q1, median, q3 = out["wall_per_sim_s"]["parent"]
    assert q1 < median < q3 and median == pytest.approx(0.02605)
    assert out["wall_per_sim_s"]["change"][1] == pytest.approx(0.75 * 0.02605)


def test_a_gain_inside_the_parents_spread_does_not_hold():
    # the change wins every pair, by less than the parent's quartile gap
    out = rows([(result(p), result(p - 1e-5)) for p in PARENT])
    assert out["wall_per_sim_s"]["wins"] == 10
    assert not out["wall_per_sim_s"]["rule"]


def test_failed_and_incorrect_runs_lose_their_pairs():
    pairs = [(result(p), result(0.75 * p)) for p in PARENT]
    pairs[3] = (result(PARENT[3]), result(0.5 * PARENT[3], failed=1))
    out = rows(pairs)
    assert out["wall_per_sim_s"]["wins"] == 9 and out["wall_per_sim_s"]["rule"]
    pairs[4] = (result(PARENT[4], correct=False), result(0.75 * PARENT[4]))
    out = rows(pairs)
    assert out["wall_per_sim_s"]["wins"] == 8 and not out["wall_per_sim_s"]["rule"]
    pairs[5] = (result(PARENT[5]), None)                 # no result printed
    assert rows(pairs)["ctrl_steps_per_s"]["wins"] == 7


def test_ties_count_for_neither_side():
    pairs = [(result(p), result(0.75 * p)) for p in PARENT]
    pairs[0] = (result(PARENT[0]), result(PARENT[0]))
    out = rows(pairs)
    assert out["wall_per_sim_s"]["wins"] == 9 and out["wall_per_sim_s"]["rule"]


def test_the_direction_follows_the_metric():
    # the change is faster by wall time but reports fewer steps per second
    out = rows([(result(p, steps=100.0), result(0.75 * p, steps=90.0)) for p in PARENT])
    assert out["wall_per_sim_s"]["rule"]
    assert out["ctrl_steps_per_s"]["wins"] == 0 and not out["ctrl_steps_per_s"]["rule"]


def test_no_counted_run_on_one_side():
    out = rows([(result(p), None) for p in PARENT])
    assert out["wall_per_sim_s"]["change"] is None
    assert out["wall_per_sim_s"]["wins"] == 0 and not out["wall_per_sim_s"]["rule"]


def test_worse_needs_more_than_the_parents_quartile_gap():
    # a quarter slower: worse on both metrics, and no gain
    out = rows([(result(p), result(1.25 * p)) for p in PARENT])
    for name in ("wall_per_sim_s", "ctrl_steps_per_s"):
        assert out[name]["worse"] and not out[name]["rule"]
        assert out[name]["wins"] == 0
    # slower in every pair, by less than the parent's quartile gap
    out = rows([(result(p), result(p + 1e-5)) for p in PARENT])
    assert out["wall_per_sim_s"]["wins"] == 0
    assert not out["wall_per_sim_s"]["worse"]
    # a clear gain is not worse
    out = rows([(result(p), result(0.75 * p)) for p in PARENT])
    assert not out["wall_per_sim_s"]["worse"] and not out["ctrl_steps_per_s"]["worse"]


def test_no_counted_run_is_not_worse():
    assert not rows([(result(p), None) for p in PARENT])["wall_per_sim_s"]["worse"]


def test_the_shift_against_the_bound_follows_the_metric():
    # 30 % more wall time is outside the 25 % bound; the steps per second
    # it leaves fall by 23 %, inside it
    out = rows([(result(p), result(1.3 * p)) for p in PARENT])
    assert out["wall_per_sim_s"]["shift"] == pytest.approx(0.3)
    assert not out["wall_per_sim_s"]["inside"]
    assert out["ctrl_steps_per_s"]["shift"] == pytest.approx(1.0 / 1.3 - 1.0)
    assert out["ctrl_steps_per_s"]["inside"]
    assert out["wall_per_sim_s"]["worse"] and out["ctrl_steps_per_s"]["worse"]
    # a gain of any size is inside
    out = rows([(result(p), result(0.5 * p)) for p in PARENT])
    assert out["wall_per_sim_s"]["shift"] == pytest.approx(-0.5)
    assert out["wall_per_sim_s"]["inside"] and out["ctrl_steps_per_s"]["inside"]
    assert rows([(result(p), None) for p in PARENT])["wall_per_sim_s"]["shift"] is None


def test_worse_by_the_quartile_gap_can_lie_inside_the_bound():
    # peak memory up by 0.5 MB of 61.4 (0.8 %) against a parent spread
    # under 0.1 MB: worse by the quartile rule, well inside a 10 % bound
    rss = [{"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]
    parent = [61.40, 61.35, 61.45, 61.42, 61.38, 61.41, 61.39, 61.44, 61.36, 61.43]

    def run(mb):
        return {"correct": True, "failed": 0, "metrics": {"peak_rss_mb": {"value": mb}}}

    (row,) = bench_pairs.summarize([(run(p), run(p + 0.5)) for p in parent], rss)
    assert row["worse"] and row["inside"] and row["bound"] == 0.1
    assert row["shift"] == pytest.approx(0.5 / 61.405, rel=1e-3)


def test_several_workloads_in_one_call(tmp_path, monkeypatch, capsys):
    # each workload runs its own alternating pairs, and gets its own summary
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "run.py").write_text("", encoding="utf-8")
    calls = []

    def run_side(checkout, workload, seed, seconds):
        side = "parent" if checkout == tmp_path.resolve() else "change"
        calls.append((workload, side))
        wall = 0.02 if side == "parent" else 0.03
        return {"correct": True, "failed": 0,
                "metrics": {"wall_per_sim_s": {"value": wall}}}

    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    assert bench_pairs.main([str(tmp_path), "--workload", "known-delay-21x16",
                             "--workload", "adaptive-51x50", "--seed", "3",
                             "--pairs", "2", "--seconds", "1"]) == 0
    assert calls == [(w, side) for w in ("known-delay-21x16", "adaptive-51x50")
                     for side in ("parent", "change", "change", "parent")]
    out = capsys.readouterr().out
    for workload in ("known-delay-21x16", "adaptive-51x50"):
        assert f"\n{workload}, seed 3, 2 pairs of 1 s runs" in out
    walls = [line for line in out.splitlines() if line.startswith("  wall_per_sim_s")]
    assert len(walls) == 2 and all(line.endswith("worse yes") for line in walls)
    assert all("shift +50.00 % outside the 25 % bound" in line for line in walls)
    steps = [line for line in out.splitlines() if line.startswith("  ctrl_steps_per_s")]
    assert all("shift none" in line for line in steps)


def test_an_unknown_workload_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "run.py").write_text("", encoding="utf-8")
    with pytest.raises(SystemExit):
        bench_pairs.main([str(tmp_path), "--workload", "no-such", "--seed", "1"])
    assert "unknown workload 'no-such'" in capsys.readouterr().err

"""The closed-loop spectrum oracle against a simulated run.

A measurement of the present command law, not a claim about it: the law
does not yet stabilise the loop, and the check is that the oracle's largest
growth rate over the planar rows the rim data excite is the rate at which a
run's planar error grows once the pre-history is behind it.
"""

import dataclasses
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from cylform.config import parse_config
from cylform.runner import run
from oracles.closed_loop_spectrum import planar_spectrum


@pytest.fixture(scope="module")
def known_delay():
    """The ``known-delay-21x16`` bench scenario at seed 0, run for 8 s."""
    bench = str(Path(__file__).resolve().parents[1] / "benchmarks")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    scenarios = importlib.import_module("cylbench.scenarios")
    text = scenarios.scenario_text(scenarios.WORKLOADS["known-delay-21x16"], 0)
    cfg = dataclasses.replace(parse_config(text, "known-delay-21x16"),
                              duration=8.0, snapshot_times=())
    return cfg, run(cfg)


def test_largest_planar_growth_is_the_runs_slope(known_delay):
    cfg, rec = known_delay
    assert not rec.terminated
    block = rec.times[1] - rec.times[0]
    spec = cfg.initial, cfg.desired
    excited = sorted({n for f in spec for n in (*f.planar_anchor, *f.planar_leader)})
    assert excited == [-2, 1]
    _, decay = planar_spectrum(cfg, block, excited)
    late = (rec.times >= 2.0) & (rec.times <= 8.0)
    slope = np.polyfit(rec.times[late], np.log(rec.err_planar[late]), 1)[0]
    assert -np.min(decay) == pytest.approx(slope, rel=0.01)

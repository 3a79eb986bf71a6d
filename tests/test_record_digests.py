"""The verdict of ``tools/record_digests.py --compare`` on synthetic arrays."""

import importlib.util
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parents[1] / "tools" / "record_digests.py"
_SPEC = importlib.util.spec_from_file_location("record_digests", _PATH)
record_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record_digests)

SERIES = ["times", "estimates", "err_planar"]


def case(rows=5, **changed):
    """A saved case's arrays: three series of ``rows`` rows and a snapshot."""
    out = {"times": np.arange(rows) * 0.1,
           "estimates": np.full(rows, 1.5),
           "err_planar": np.linspace(2.0, 1.0, rows),
           "snapshot0.axial": np.ones((3, 4))}
    out.update(changed)
    return out


def verdict(saved, now, tolerance=0.0):
    lines, ok = record_digests.compare(saved, now, SERIES, tolerance)
    assert len(lines) == 1 + len({*saved, *now})
    # a failed check is marked on its line, and only then
    assert any(line.endswith("FAIL") for line in lines) == (not ok)
    return ok


def test_identical_records_pass():
    assert verdict(case(), case())


def test_row_counts_or_estimates_that_differ_fail():
    assert not verdict(case(), case(rows=4))
    assert not verdict(case(), case(estimates=np.array([1.5, 1.5, 1.5, 1.5, 1.25])))


def test_a_deviation_fails_beyond_the_tolerance_only():
    drift = case(err_planar=np.linspace(2.0, 1.0, 5) * (1.0 + 2e-16))
    assert not verdict(case(), drift)
    assert verdict(case(), drift, tolerance=1e-15)
    assert not verdict(case(), case(err_planar=np.linspace(2.0, 1.0, 5) + 1e-6),
                       tolerance=1e-15)


def test_arrays_that_cannot_be_matched_fail():
    missing = case()
    del missing["snapshot0.axial"]
    assert not verdict(case(), missing)
    assert not verdict(case(), case(**{"snapshot0.axial": np.ones((4, 3))}))
    assert not verdict(case(), case(**{"snapshot0.axial": np.full((3, 4), np.nan)}),
                       tolerance=1.0)

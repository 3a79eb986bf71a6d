"""Print the record digests a behaviour-preserving change must keep.

Usage, from the root of the repository::

    python3 tools/record_digests.py

Runs six cases and prints one JSON object, case name -> the SHA-256 of
``cylbench.harness.record_digest`` over every logged series, snapshot and
residual capture.  A refactor that claims bit-identical records must print
the same object as its parent commit: run the script in both checkouts (in
one that predates it, from a copy placed under its ``tools/``).  The package
and ``benchmarks/`` are imported from the checkout the script sits in.  The
cases:

* both bench workloads at seeds 0 and 1, with their ``residual_times``;
* the ``moderate`` preset for 1 s, with residual captures at 0.3 and 0.6 s
  and snapshots at 0, 0.5 and 0.51 s (the last one inside a block);
* the ``mismatch`` preset for 3 s, which the guard stops.

Digests are bit-exact, so they depend on the BLAS build: compare two
checkouts on one machine, never against numbers from another.  BLAS runs
single-threaded, as in the bench.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digests() -> dict:
    """Case name -> record digest."""
    from cylbench.harness import record_digest
    from cylbench.scenarios import WORKLOADS, scenario_text
    from cylform.config import parse_config, preset
    from cylform.runner import run

    out = {}
    for name, workload in WORKLOADS.items():
        for seed in (0, 1):
            cfg = parse_config(scenario_text(workload, seed), f"{name}-seed{seed}")
            out[f"{name}/seed{seed}"] = record_digest(
                run(cfg, capture_residuals=workload.residual_times))
    moderate = dataclasses.replace(preset("moderate"), duration=1.0,
                                   snapshot_times=(0.0, 0.5, 0.51))
    out["moderate-1s"] = record_digest(run(moderate, capture_residuals=(0.3, 0.6)))
    mismatch = dataclasses.replace(preset("mismatch"), duration=3.0)
    out["mismatch-3s"] = record_digest(run(mismatch))
    return out


def main() -> int:
    # before numpy is first imported, which is when the BLAS pool starts
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    print(json.dumps(digests(), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())

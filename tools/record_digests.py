"""Print the record digests a behaviour-preserving change must keep.

Usage, from the root of the repository::

    python3 tools/record_digests.py

Runs seven cases and prints one JSON object, case name -> the SHA-256 of
``cylbench.harness.record_digest`` over every logged series, snapshot and
residual capture.  A refactor that claims bit-identical records must print
the same object as its parent commit: run the script in both checkouts (in
one that predates it, from a copy placed under its ``tools/``).  The package
and ``benchmarks/`` are imported from the checkout the script sits in.  The
cases:

* both bench workloads at seeds 0 and 1, with their ``residual_times``;
* the ``moderate`` preset for 1 s, with residual captures at 0.3 and 0.6 s
  and snapshots at 0, 0.5 and 0.51 s (the last one inside a block);
* the ``mismatch`` preset for 3 s, which the guard stops;
* ``full-band-15x8``, 1.5 s in 49 blocks on a 15x8 grid whose rim data
  reach ``|n| = N/2``, so the loop keeps every wavenumber: axial rims at
  ``+-1``, ``+-2`` and ``+-4``, a complex planar reaction and advection,
  an adapting estimate that moves on 24 steps and is held at a bound on
  the others, a snapshot inside a block and a residual capture at 0.9 s.

Digests are bit-exact, so they depend on the BLAS build: compare two
checkouts on one machine, never against numbers from another.  BLAS runs
single-threaded, as in the bench.

A change that moves the records by roundoff is measured instead::

    python3 tools/record_digests.py --save DIR      # in the parent checkout
    python3 tools/record_digests.py --compare DIR   # in the changed one

``--save`` writes each case's logged series, snapshots and residual
captures to ``DIR/<case>.npz``; ``--compare`` reads them back and prints,
per case, whether the row counts and the delay-estimate series are
identical, then per array the largest deviation over the saved array's
largest magnitude (over the rows both records hold), and the current
array's largest magnitude.  Both print the digests first.  ``--compare``
exits 1 when a check fails: the row counts or the delay-estimate series
differ, an array is in one record only or changes shape, or an array's
relative deviation exceeds ``--tolerance`` (default 0, bit-identical).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: the config of the ``full-band-15x8`` case
FULL_BAND = """
grid.M = 15
grid.N = 8
initial.planar_reaction = (4,1)
initial.planar_advection = (0.5,0.2)
initial.axial_reaction = 3
initial.axial_advection = 0.5
initial.planar_anchor = (1,0.8,0.1)
initial.planar_leader = (1,1,0) (-2,0.2,0.3)
initial.axial_anchor = (0,-1,0) (2,0.1,0.2) (-2,0.1,-0.2)
initial.axial_leader = (0,1,0) (1,0.2,0.1) (-1,0.2,-0.1)
desired.planar_reaction = (6,1.5)
desired.planar_advection = (0.5,0.3)
desired.axial_reaction = 4
desired.axial_advection = -0.4
desired.planar_anchor = (1,0.5,0) (3,0.1,-0.1)
desired.planar_leader = (1,1,0) (-4,0.05,0.02)
desired.axial_anchor = (0,-1,0) (4,0.05,0.03) (-4,0.05,-0.03)
desired.axial_leader = (0,0.8,0) (1,0.3,0.2) (-1,0.3,-0.2) (2,0.1,-0.05) (-2,0.1,0.05)
delay.true = 0.4
delay.lo = 0.3
delay.hi = 0.6
delay.gain = 0.15
delay.initial_estimate = 0.6
run.duration = 1.5
run.block = 0.0307
run.snapshots = 0.7
run.rings = 1 8 15
"""


def records() -> dict:
    """Case name -> the run's record."""
    from cylbench.scenarios import WORKLOADS, scenario_text
    from cylform.config import parse_config, preset
    from cylform.runner import run

    out = {}
    for name, workload in WORKLOADS.items():
        for seed in (0, 1):
            cfg = parse_config(scenario_text(workload, seed), f"{name}-seed{seed}")
            out[f"{name}/seed{seed}"] = run(cfg, capture_residuals=workload.residual_times)
    moderate = dataclasses.replace(preset("moderate"), duration=1.0,
                                   snapshot_times=(0.0, 0.5, 0.51))
    out["moderate-1s"] = run(moderate, capture_residuals=(0.3, 0.6))
    mismatch = dataclasses.replace(preset("mismatch"), duration=3.0)
    out["mismatch-3s"] = run(mismatch)
    out["full-band-15x8"] = run(parse_config(FULL_BAND, "full-band-15x8"),
                                capture_residuals=(0.9,))
    return out


def arrays(record) -> dict:
    """Array name -> every array ``record_digest`` hashes."""
    import numpy as np
    from cylbench.harness import _logged

    out = dict(_logged(record))
    for i, snap in enumerate(record.snapshots):
        out[f"snapshot{i}.planar"] = snap.planar
        out[f"snapshot{i}.axial"] = snap.axial
    if record.residuals:
        out["residuals"] = np.array([[t, *dataclasses.astuple(res_p),
                                      *dataclasses.astuple(res_z)]
                                     for t, res_p, res_z in record.residuals])
    return out


def compare(saved: dict, now: dict, series: list,
            tolerance: float = 0.0) -> tuple[list, bool]:
    """Report lines for one case, the saved arrays against the current,
    and whether every check passes; the ``series`` are compared over the
    rows both records hold, and a line that fails a check ends in FAIL."""
    import numpy as np

    def same(flag):
        return "identical" if flag else "DIFFERENT"

    rows = len(saved["times"]), len(now["times"])
    dhat = np.array_equal(saved["estimates"], now["estimates"])
    ok = rows[0] == rows[1] and dhat
    lines = [f"  rows {rows[0]} -> {rows[1]} ({same(rows[0] == rows[1])}); "
             f"Dhat {same(dhat)}{'' if ok else '  FAIL'}"]
    for name in dict.fromkeys([*saved, *now]):
        if name not in saved or name not in now:
            lines.append(f"  {name:<20} in one record only  FAIL")
            ok = False
            continue
        a, b = saved[name], now[name]
        if name in series:
            a, b = a[:min(rows)], b[:min(rows)]
        if a.shape != b.shape:
            lines.append(f"  {name:<20} shape {a.shape} -> {b.shape}  FAIL")
            ok = False
            continue
        scale = np.abs(a).max(initial=0.0)
        dev = np.abs(b - a).max(initial=0.0)
        rel = dev / scale if scale else dev
        # a NaN in either record deviates by NaN, which fails
        passed = bool(rel <= tolerance)
        ok &= passed
        lines.append(f"  {name:<20} {rel:.3e}"
                     f"  (largest {np.abs(b).max(initial=0.0):.3e})"
                     f"{'' if passed else '  FAIL'}")
    return lines, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--save", metavar="DIR",
                        help="also write each case's arrays to DIR")
    parser.add_argument("--compare", metavar="DIR",
                        help="also compare each case with the arrays saved in DIR; "
                             "exit 1 when a check fails")
    parser.add_argument("--tolerance", type=float, default=0.0,
                        help="largest relative deviation --compare accepts "
                             "(default 0: bit-identical)")
    args = parser.parse_args(argv)
    # before numpy is first imported, which is when the BLAS pool starts
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    import numpy as np
    from cylbench.harness import _logged, record_digest

    recs = records()
    print(json.dumps({name: record_digest(rec) for name, rec in recs.items()},
                     indent=2))
    failed = []
    for name, rec in recs.items():
        stem = f"{name.replace('/', '_')}.npz"
        if args.save:
            Path(args.save).mkdir(parents=True, exist_ok=True)
            np.savez(Path(args.save) / stem, **arrays(rec))
        if args.compare:
            with np.load(Path(args.compare) / stem) as saved:
                lines, ok = compare(dict(saved), arrays(rec),
                                    [key for key, _ in _logged(rec)], args.tolerance)
            print(name)
            print("\n".join(lines))
            if not ok:
                failed.append(name)
    if args.compare:
        print(f"compare: {len(failed)} of {len(recs)} cases fail"
              + (f" ({', '.join(failed)})" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

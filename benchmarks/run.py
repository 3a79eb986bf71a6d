"""Closed-loop benchmark of the ``cylform`` package.

Usage, from the root of the repository::

    python3 benchmarks/run.py --workload adaptive-51x50 --seed 1 --seconds 60 --trace 0

``--trace 0`` times whole jobs and reports the end-to-end metrics;
``--trace 1`` times one job untraced and then traces jobs layer by layer,
and reports the per-layer metrics.  The package is imported from ``src/``
next to this directory, never from an installed copy.  A summary is printed
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything else --
environment, scenario text, per-job values, check messages and spans -- is
written under ``.cylbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".cylbench"

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_threads() -> int:
    """Run BLAS and OpenMP single-threaded; return the usable CPU count.

    Must run before numpy is imported, which is when the pools start.  The
    package is single-threaded Python around small arrays: one BLAS thread
    is as fast as two on a 2-core machine and halves the run-to-run spread,
    since an idle pool thread spinning on the second core competes with
    whatever else the machine runs.
    """
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def _blas_threads():
    """Thread count the bundled OpenBLAS reports, or None if it cannot say."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """Commit of a git checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def environment(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "thread_env": {var: os.environ[var] for var in _THREAD_VARS},
        "nproc": nproc,
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
    }


def _import_package() -> None:
    """Import ``cylform`` from ``src/`` next to the benchmark, or exit."""
    if not (SRC / "cylform" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'cylform'}")
    sys.path.insert(0, str(SRC))
    import cylform

    if Path(cylform.__file__).resolve().parent != (SRC / "cylform").resolve():
        sys.exit(f"error: cylform imported from {cylform.__file__}, not {SRC}")


def main(argv=None) -> int:
    nproc = _pin_threads()
    _import_package()
    from cylbench import harness, tracing
    from cylbench.scenarios import WORKLOADS, scenario_text

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}"
    OUT.mkdir(exist_ok=True)
    text = scenario_text(workload, args.seed)
    scenario = OUT / f"{tag}.cfg"
    scenario.write_text(text, encoding="utf-8")
    out_dir = OUT / f"{tag}-out"

    if args.trace:
        ops, metrics = harness.trace(workload, scenario, out_dir, args.seconds)
    else:
        ops, metrics = harness.measure(workload, scenario, out_dir, args.seconds)
    failed = sum(op.failed for op in ops)
    env = environment(nproc)
    missing = tracing.missing_targets()
    absent = tracing.absent_layers()

    result = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "scenario": text, "residual_times": list(workload.residual_times),
        "attempted": len(ops), "failed": failed,
        "fail_share": failed / len(ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "missing_targets": missing, "absent_layers": absent,
        "jobs": [{"traced": op.traced, "setup_s": op.setup_s, "loop_s": op.loop_s,
                  "job_s": op.job_s, "ctrl_steps": op.ctrl_steps,
                  "digest": op.digest, "problems": op.problems,
                  "counts": op.counts,
                  "spans": [[s.name, s.start, s.end, s.parent] for s in op.spans]}
                 for op in ops],
    }
    (OUT / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1), encoding="utf-8")

    for i, op in enumerate(ops):
        for problem in op.problems:
            print(f"job {i} failed: {problem}", file=sys.stderr)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"jobs {len(ops)}  failed {failed}  fail_share {failed / len(ops):g}")
    blas = env["blas"]
    print(f"  python {env['python']}, numpy {env['numpy']}, {blas['name']} "
          f"{blas['version']} on {blas['threads']} thread(s), nproc {env['nproc']}, "
          f"{env['cpu']}, commit {env['git_commit'][:12]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    if missing:
        print(f"  targets not found: {missing}")
    print(f"  absent layers: {', '.join(absent) if absent else 'none'}")

    if not metrics or any(math.isnan(v) for v, _ in metrics.values()):
        print("error: no job produced timings", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Alternating benchmark pairs of a parent checkout and this one.

Usage, from the root of the repository::

    python3 tools/bench_pairs.py PARENT_CHECKOUT --workload W [--workload W2 ...] \
        --seed S --pairs 10

For each workload in turn, each pair runs ``benchmarks/run.py --trace 0``
once in ``PARENT_CHECKOUT`` and once in this checkout, one process at a
time; which side goes first alternates from pair to pair, the parent first
in the first.  ``--seconds`` sets the length of each run and defaults to
the ``run_seconds`` of ``BENCHMARK.json``.  Each run reads its package and
writes its results in its own checkout.

Per workload and end-to-end metric of ``BENCHMARK.json`` the script prints
each side's median and quartiles, how many of the pairs run the change
won, whether the rule for claiming a gain holds, and whether the change is
worse.  The gain rule: the change wins at least nine tenths of the pairs
run, ties counting for neither, and its median is better than the
parent's by more than the distance between the parent's quartiles.  The
change is worse when its median is worse than the parent's by more than
that distance.  Beside those, the script prints the change's median shift
relative to the parent's median, and whether it lies inside the metric's
``bound`` of ``BENCHMARK.json``: a shift in the better direction always
does, one in the worse direction when it is no larger than the bound.  A
metric whose runs spread tightly can be worse by the quartile rule and
still inside its bound.  A run that reports ``correct`` false or a failed
operation, or prints no result, loses its pair, and so does a metric it
leaves out.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: share of the pairs run the change must win before a gain is claimed
WIN_SHARE = 0.9


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The result object ``benchmarks/run.py`` prints last, or None when
    the run exits non-zero or prints none."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def _value(result: dict | None, name: str) -> float | None:
    """The metric of a run that counts, or None for a run that loses."""
    if not result or not result.get("correct") or result.get("failed", 1) > 0:
        return None
    metric = result.get("metrics", {}).get(name)
    return None if metric is None else float(metric["value"])


def _quartiles(values: list) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of the values."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _shift(parent: float, change: float) -> float:
    """``change / parent - 1``; an infinity of the change's sign off a zero
    parent, and 0 when both are zero."""
    if parent == 0.0:
        return 0.0 if change == 0.0 else math.copysign(math.inf, change)
    return change / parent - 1.0


def summarize(pairs: list, metrics: list) -> list:
    """One row per metric of ``metrics`` (the ``end_to_end`` entries of
    ``BENCHMARK.json``) over ``pairs`` of ``(parent, change)`` results.

    A row holds the metric's ``name`` and ``better`` direction, each side's
    ``(q1, median, q3)`` over its counted runs (None with none), the change's
    ``wins`` out of ``pairs`` run, whether the gain ``rule`` holds, and
    whether the change is ``worse``: its median worse than the parent's by
    more than the parent's quartile gap.  ``shift`` is the change's median
    over the parent's, less one (None without both), and ``inside`` whether
    that shift, taken in the worse direction, is no larger than the
    metric's ``bound``, which the row repeats.
    """
    rows = []
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        values = [(_value(p, name), _value(c, name)) for p, c in pairs]
        wins = sum(p is not None and c is not None and (c < p if lower else c > p)
                   for p, c in values)
        sides = [[v[i] for v in values if v[i] is not None] for i in (0, 1)]
        parent, change = (_quartiles(side) if side else None for side in sides)
        rule = worse = inside = False
        shift = None
        if parent and change:
            gain = parent[1] - change[1] if lower else change[1] - parent[1]
            gap = parent[2] - parent[0]
            rule = wins >= WIN_SHARE * len(pairs) and gain > gap
            worse = -gain > gap
            shift = _shift(parent[1], change[1])
            inside = (shift if lower else -shift) <= spec["bound"]
        rows.append({"name": name, "better": spec["better"], "parent": parent,
                     "change": change, "wins": wins, "pairs": len(pairs),
                     "rule": rule, "worse": worse, "shift": shift,
                     "bound": spec["bound"], "inside": inside})
    return rows


def _spread(q) -> str:
    return "none counted" if q is None else f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def _against_bound(row: dict) -> str:
    if row["shift"] is None:
        return "shift none"
    where = "inside" if row["inside"] else "outside"
    shift, bound = 100.0 * row["shift"], 100.0 * row["bound"]
    return f"shift {shift:+.2f} % {where} the {bound:g} % bound"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of BENCHMARK.json; repeat for several")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    args = parser.parse_args(argv)
    if not (args.parent / "benchmarks" / "run.py").is_file():
        parser.error(f"no benchmarks/run.py in {args.parent}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    known = {w["name"] for w in spec["workloads"]}
    unknown = [w for w in args.workload if w not in known]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; BENCHMARK.json has "
                     f"{', '.join(sorted(known))}")

    names = [m["name"] for m in spec["end_to_end"]]
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    for workload in args.workload:
        pairs = []
        for k in range(args.pairs):
            order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
            got = {side: run_side(sides[side], workload, args.seed, args.seconds)
                   for side in order}
            pairs.append((got["parent"], got["change"]))
            for side in ("parent", "change"):
                vals = [_value(got[side], name) for name in names]
                shown = "lost (incorrect, failed or no result)" if None in vals else \
                    "  ".join(f"{n} {v:.6g}" for n, v in zip(names, vals))
                print(f"{workload} pair {k + 1} ({order[0]} first) {side}: {shown}",
                      flush=True)

        print(f"\n{workload}, seed {args.seed}, {args.pairs} pairs of "
              f"{args.seconds:g} s runs; median [q1, q3]")
        for row in summarize(pairs, spec["end_to_end"]):
            print(f"  {row['name']:18s} {row['better']:6s} parent {_spread(row['parent'])}"
                  f"  change {_spread(row['change'])}  wins {row['wins']}/{row['pairs']}"
                  f"  gain rule {'holds' if row['rule'] else 'does not hold'}"
                  f"  {_against_bound(row)}"
                  f"  worse {'yes' if row['worse'] else 'no'}", flush=True)
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: simulate one scenario and write its CSV files.

Exit status: 0 for a completed run, 2 when the instability guard stopped it
early (partial results are still written), 1 for any configuration or usage
problem, a scenario whose kernels float64 cannot represent included.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import PRESETS, load_config, preset
from .errors import ConfigError, KernelTruncationError, ResonantModeError
from .runner import run, write_all_snapshots, write_series


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; this tool reserves 2 for
    # guard-terminated runs, so usage problems join the config-error path.
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cylform",
                     description="Delay-adaptive boundary control of a "
                                 "cylindrical multi-agent formation.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    runp = sub.add_parser("run", help="simulate one scenario and write CSVs")
    runp.add_argument("config", nargs="?",
                      help="path to a scenario file (or use --preset)")
    runp.add_argument("--preset", choices=sorted(PRESETS),
                      help="run a bundled scenario instead of a file")
    runp.add_argument("--out", metavar="DIR",
                      help="output directory (default: config value or ./out)")
    runp.add_argument("--fixed-delay-estimate", type=float, metavar="X",
                      help="pin the delay estimate to X and disable adaptation")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if (args.config is None) == (args.preset is None):
            raise ConfigError("provide exactly one of: a config path or --preset")
        cfg = preset(args.preset) if args.preset else load_config(args.config)
        if args.fixed_delay_estimate is not None:
            cfg = replace(cfg, fixed_estimate=True,
                          initial_estimate=args.fixed_delay_estimate)
        record = run(cfg)
    except (ConfigError, KernelTruncationError, ResonantModeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    outdir = Path(args.out or cfg.output_dir or "out")
    write_series(record, outdir)
    write_all_snapshots(record, outdir)

    print(f"wavenumbers |n| <= {abs(record.modes).max()} "
          f"({record.modes.size} of {cfg.grid_n})")
    if record.times.size:
        print(f"{record.times.size} control rows -> {outdir / 'series.csv'} "
              f"(t_final={record.times[-1]:g}, "
              f"delay estimate {record.estimates[-1]:.6g})")
    if record.snapshots:
        print(f"{len(record.snapshots)} snapshots -> {outdir}")
    if record.terminated:
        print(f"run terminated early: {record.reason}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

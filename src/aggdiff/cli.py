"""Command-line front door.

Commands:
  run          time-step one experiment config, writing CSV and snapshots
  convergence  reproduce one validation table's refinement schedule
  sweep        steady-state parameter sweep (bifurcation diagrams)
  validate     run the acceptance suite, one pass/fail line per criterion

Output paths resolve under $AGGDIFF_OUTPUT_ROOT when set.
"""

from __future__ import annotations

import argparse
import sys

from . import acceptance
from .config import parse_config, resolve_output
from .errors import AggDiffError
from .experiments import (
    STUDY_CASE_NAMES,
    bifurcation_sweep,
    convergence_study,
    format_row,
    run_experiment,
)


def _cmd_run(args):
    config = parse_config(args.config)
    if args.output is not None:
        config.output_dir = resolve_output(args.output)
    record = run_experiment(config)
    last = record.rows[-1]
    print(f"steps recorded: {len(record.rows) - 1}")
    print(f"final t={last[0]:.10g} energy={last[1]:.10g} mass={last[2]:.10g} "
          f"min_rho={last[3]:.3g}")
    if record.csv_path:
        print(f"series: {record.csv_path}")
    for path in record.snapshot_paths:
        print(f"snapshot: {path}")
    if record.violations:
        for v in record.violations:
            print(f"VIOLATION: {v}", file=sys.stderr)
        return 1
    return 0


def _cmd_convergence(args):
    result = convergence_study(
        args.case, args.scheme, args.levels, exponent=args.exponent,
        output_dir=resolve_output(args.output),
    )
    header, rows = result.table()
    print(",".join(header))
    for row in rows:
        print(format_row(row))
    if result.csv_path:
        print(f"written: {result.csv_path}", file=sys.stderr)
    return 0


def _cmd_sweep(args):
    config = parse_config(args.config)
    values = [float(v) for v in args.values.split(",") if v.strip()]
    record = bifurcation_sweep(
        config, args.param, values, output_dir=resolve_output(args.output)
    )
    print(",".join(record.HEADER))
    for row in record.rows:
        print(format_row(row))
    if record.csv_path:
        print(f"written: {record.csv_path}", file=sys.stderr)
    if any(not row[3] for row in record.rows):
        print("note: some rows did not reach a steady state", file=sys.stderr)
    return 0


def _cmd_validate(args):
    indices = [int(i) for i in args.criteria.split(",")] if args.criteria else None
    results = acceptance.run_all(indices)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="aggdiff",
        description="Structure-preserving finite-volume solvers for "
                    "aggregation-diffusion equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("--config", required=True, help="path to the INI config file")
    p_run.add_argument("--output", default=None, help="override the output directory")
    p_run.set_defaults(fn=_cmd_run)

    p_conv = sub.add_parser("convergence", help="run a convergence study")
    p_conv.add_argument("--case", required=True, choices=STUDY_CASE_NAMES)
    p_conv.add_argument("--scheme", required=True, choices=["s1", "s2"])
    p_conv.add_argument("--levels", type=int, required=True)
    p_conv.add_argument("--exponent", type=float, default=None,
                        help="porous-medium exponent m (pme cases)")
    p_conv.add_argument("--output", default=None, help="directory for the CSV")
    p_conv.set_defaults(fn=_cmd_convergence)

    p_sweep = sub.add_parser("sweep", help="steady-state parameter sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True,
                         help="model knob to sweep (e.g. sigma, exponent)")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--output", default=None)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_val = sub.add_parser("validate", help="run the acceptance suite")
    p_val.add_argument("--criteria", default=None,
                       help="comma-separated criterion numbers (default: all)")
    p_val.set_defaults(fn=_cmd_validate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except AggDiffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

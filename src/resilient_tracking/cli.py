"""Command line: run experiment specs, summarize result CSVs, self-check."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .checks import run_bound_suite, run_property_suite
from .errors import TrackingError, require_int
from .experiments import (
    load_spec,
    objective_name,
    render_summary,
    run_suite,
    summarize,
    write_csv,
)
from .matroid import require_enumerable
from .simulation import FIELD_RULES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resilient-tracking",
        description="Resilient multi-robot target tracking experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment spec and write a CSV")
    run_p.add_argument("--spec", required=True, help="path to a JSON experiment spec")
    run_p.add_argument("--out", help="output CSV path (overrides the spec's output)")
    run_p.add_argument("--seed", type=int, help="override the spec's master seed")
    run_p.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")

    sum_p = sub.add_parser("summarize", help="print a comparison table for a CSV")
    sum_p.add_argument("--in", dest="input", required=True, help="results CSV path")

    check_p = sub.add_parser("check", help="run a self-check suite")
    check_p.add_argument("--suite", required=True, choices=("bounds", "properties"))
    check_p.add_argument("--seed", type=int, default=20260815)
    check_p.add_argument(
        "--instances", type=int, default=200, help="bound-suite instance count"
    )
    check_p.add_argument(
        "--trials", type=int, default=1000, help="property-suite trials per check"
    )
    return parser


def _cmd_run(args) -> int:
    require_int(args.jobs, "--jobs", 1)
    spec = load_spec(args.spec)
    if args.seed is not None:
        spec = replace(spec, master_seed=FIELD_RULES["rng_seed"](args.seed, "master_seed"))
    out = args.out or spec.output
    if not out:
        print("error: no output path (pass --out or set 'output' in the spec)", file=sys.stderr)
        return 2
    # refused before the suite runs, not after it, when the CSV is written
    if not Path(out).parent.is_dir():
        print(f"error: cannot write {out}: its directory does not exist", file=sys.stderr)
        return 1
    rows = run_suite(spec, jobs=args.jobs)
    write_csv(rows, out, objective=objective_name(spec))
    print(f"wrote {len(rows)} rows to {out}")
    print(render_summary(*summarize(out)))
    return 0


def _cmd_summarize(args) -> int:
    print(render_summary(*summarize(args.input)))
    return 0


def _cmd_check(args) -> int:
    require_int(args.seed, "--seed", 0)
    require_int(args.instances, "--instances", 1)
    require_int(args.trials, "--trials", 1)
    # the same bound on the amount of work as a spec's trials
    for flag, value in (("--instances", args.instances), ("--trials", args.trials)):
        require_enumerable(f"the checks of {flag} {value}", [value])
    if args.suite == "bounds":
        reports = run_bound_suite(num_instances=args.instances, rng_seed=args.seed)
        bad = [r for r in reports if not r.satisfied]
        degenerate = sum(1 for r in reports if r.degenerate)
        print(
            f"bound holds on {len(reports) - len(bad)}/{len(reports)} instances "
            f"({degenerate} degenerate)"
        )
        for report in bad:
            print(
                f"  VIOLATION n={report.num_robots} alpha={report.alpha} "
                f"survived={report.surviving_value} guarantee={report.guarantee}"
            )
        return 0 if not bad else 1
    result = run_property_suite(trials=args.trials, rng_seed=args.seed)
    print(f"coverage_count: {result.coverage_monotone} monotonicity violations")
    print(f"coverage_count: {result.coverage_submodular} submodularity violations")
    print(f"expected_detections: {result.expected_monotone} monotonicity violations")
    print(f"expected_detections: {result.expected_submodular} submodularity violations")
    print(f"negative control -|S|: {result.control_monotone} violations (want > 0)")
    print(f"negative control |S|^2: {result.control_submodular} violations (want > 0)")
    print("PASS" if result.passed else "FAIL")
    return 0 if result.passed else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "summarize":
            return _cmd_summarize(args)
        return _cmd_check(args)
    except TrackingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

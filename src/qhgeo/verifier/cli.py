"""Command-line front end: ``qhgeo run --scenario <file> --report <out>``."""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from importlib import resources

from ..errors import ConfigurationError
from .scenario import (
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_VIOLATIONS,
    emit_report,
    load_scenario,
    report_to_csv,
    report_to_json_bytes,
    run_scenario,
)


def _resolve_scenario(name: str):
    import os

    if os.path.exists(name):
        return name
    candidate = name if name.endswith(".json") else name + ".json"
    pkg = resources.files("qhgeo.verifier") / "scenarios" / candidate
    if pkg.is_file():
        return str(pkg)
    raise ConfigurationError(f"scenario {name!r} not found on disk or among shipped scenarios")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhgeo",
        description="Scenario-driven verification of quasihyperbolic geometry invariants",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a scenario and emit a report")
    run.add_argument("--scenario", required=True, help="scenario JSON path or shipped name")
    run.add_argument("--report", default=None, help="output path ('-' for stdout)")
    run.add_argument("--format", choices=("json", "csv"), default="json")
    run.add_argument("--jobs", type=int, default=1, help="parallel check workers")
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument(
        "--resolution-override",
        type=float,
        default=None,
        help="replace every shape resolution (quick smoke runs)",
    )
    run.add_argument(
        "--timing",
        action="store_true",
        help="append wall-clock timings (breaks byte-stability of reports)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag, value, low in (("--seed", args.seed, 0), ("--jobs", args.jobs, 1)):
            if value is not None and value < low:
                raise ConfigurationError(f"{flag}: must be >= {low}")
        path = _resolve_scenario(args.scenario)
        raw = load_scenario(path)
        started = time.perf_counter()
        report = run_scenario(
            raw,
            seed=args.seed,
            jobs=args.jobs,
            resolution_override=args.resolution_override,
        )
        elapsed = time.perf_counter() - started
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception:  # not KeyboardInterrupt: a crash must not exit 1, as a violation does
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL

    for chk in report["checks"]:
        status = "PASS" if chk["passed"] else "FAIL"
        print(f"[{status}] {chk['check']}")
        for note in chk["notes"]:
            print(f"       {note}")
    if args.timing:
        report["timing"] = {"total_s": elapsed}

    if args.report:
        if args.report == "-":
            if args.format == "json":
                sys.stdout.write(report_to_json_bytes(report).decode())
            else:
                sys.stdout.write(report_to_csv(report))
        else:
            try:
                emit_report(report, args.report, args.format)
            except OSError as exc:
                print(f"configuration error: cannot write report: {exc}", file=sys.stderr)
                return EXIT_CONFIG
            print(f"report written to {args.report}")

    n_fail = sum(1 for c in report["checks"] if not c["passed"])
    print(f"{len(report['checks']) - n_fail}/{len(report['checks'])} checks passed")
    return EXIT_OK if report["passed"] else EXIT_VIOLATIONS


if __name__ == "__main__":
    raise SystemExit(main())

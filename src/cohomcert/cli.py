"""Command-line front end: run scenarios, emit reports, re-verify them.

Exit codes: 0 when every executed check meets its expected outcome, 1 on
any check failure (or a failed re-verification), 2 on usage or
configuration errors and on internal errors of an engine.
"""

from __future__ import annotations

import argparse
import json
import sys

from .scenarios import (
    BadParametersError,
    MalformedReportError,
    Report,
    UnknownScenarioError,
    abbreviate,
    check_census_params,
    list_scenarios,
    overrides_for_all,
    reverify,
    run_scenario,
)
from .toeplitz import factor_census


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohomcert",
        description=(
            "exact verification of local-cohomology torsion classes, "
            "Toeplitz determinant identities, and colon-ideal annihilators"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the built-in scenarios")

    run_p = sub.add_parser("run", help="run a scenario (or 'all')")
    run_p.add_argument("scenario", help="scenario name, or 'all'")
    run_p.add_argument("--format", choices=("text", "json"), default="text")
    run_p.add_argument("--out", metavar="PATH",
                       help="write the JSON report to PATH")
    run_p.add_argument("--full", action="store_true",
                       help="print complete certificate transcripts")
    run_p.add_argument("--params", metavar="PATH", dest="params_file",
                       help="JSON file of parameter overrides")
    run_p.add_argument("--k-max", type=int, dest="k_max")
    run_p.add_argument("--n-max", type=int, dest="n_max")
    run_p.add_argument("--primes", type=str,
                       help="comma-separated primes, e.g. 2,3,5,7")
    run_p.add_argument("--p", type=int, dest="p",
                       help="the prime p of GF(p); in ptor2-theorem, the prime "
                            "of q = p^e, so 'all' does not pass it there "
                            "(ptor2-theorem names its fields by domains)")

    rev_p = sub.add_parser("reverify", help="re-check a saved report or 'run all' bundle")
    rev_p.add_argument("path", metavar="REPORT.json")

    toe_p = sub.add_parser("toeplitz", help="irreducible-factor census table")
    toe_p.add_argument("--n-max", type=int, dest="n_max", default=16)
    toe_p.add_argument("--p", type=int, dest="p", default=5)
    toe_p.add_argument("--format", choices=("text", "json"), default="text")
    toe_p.add_argument("--out", metavar="PATH")
    return parser


def _parse_primes(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"bad primes list {abbreviate(repr(text))}; expected e.g. 2,3,5,7")


def _scenario_params(args) -> dict:
    params = {}
    if getattr(args, "params_file", None):
        with open(args.params_file) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("parameter file must hold a JSON object")
        params.update(loaded)
    if getattr(args, "k_max", None) is not None:
        params["k_max"] = args.k_max
    if getattr(args, "n_max", None) is not None:
        params["n_max"] = args.n_max
    if getattr(args, "p", None) is not None:
        params["p"] = args.p
    if getattr(args, "primes", None):
        params["primes"] = _parse_primes(args.primes)
    return params


def _print_report(report: Report, full: bool, stream) -> None:
    mark = "PASS" if report.passed else "FAIL"
    ok = sum(1 for c in report.checks if c.ok)
    print(
        f"scenario {report.scenario}: {mark} "
        f"({ok}/{len(report.checks)} checks, {report.seconds:.2f}s)",
        file=stream,
    )
    for c in report.checks:
        flag = c.status if c.ok else f"{c.status}, expected {c.expected_status}"
        print(f"  [{flag}] {c.name}: {abbreviate(c.actual)}", file=stream)
        if full:
            print(json.dumps(c.certificate, indent=2, sort_keys=True), file=stream)


def _emit(payload: dict, args, text_renderer, code: int) -> int:
    """Write or print the payload; returns code, or 2 if --out cannot be
    written."""
    # one dumps and one write: json.dump writes the report chunk by chunk
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.out}", file=sys.stdout)
    elif getattr(args, "format", "text") == "json":
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        text_renderer()
    return code


def _cmd_list() -> int:
    for name, description in list_scenarios():
        print(f"{name:24s} {description}")
    return 0


def _cmd_run(args) -> int:
    try:
        params = _scenario_params(args)
        runs = list(overrides_for_all(params).items()) \
            if args.scenario == "all" else [(args.scenario, params)]
    except (OSError, ValueError, RecursionError) as exc:
        # RecursionError: json.load on deeply nested input
        print(f"bad parameters: {exc}", file=sys.stderr)
        return 2
    try:
        reports = [run_scenario(*run) for run in runs]
    except UnknownScenarioError as exc:
        print(f"unknown scenario: {exc}", file=sys.stderr)
        return 2
    except BadParametersError as exc:
        print(f"bad parameters: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # an engine fault is not a failed check, so not exit code 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    payload = reports[0].to_json_dict() if len(reports) == 1 \
        else {"artifact": "cohomcert", "reports":
              [r.to_json_dict() for r in reports]}
    return _emit(payload, args, lambda: [
        _print_report(r, args.full, sys.stdout) for r in reports
    ], 0 if all(r.passed for r in reports) else 1)


def _reports_of(payload) -> list:
    """The reports in a saved file: one report, or the bundle that
    `run all` writes."""
    if not (isinstance(payload, dict) and "reports" in payload
            and payload.get("artifact") == "cohomcert"):
        return [payload]
    reports = payload["reports"]
    if not isinstance(reports, list) or not reports:
        raise MalformedReportError("bundle carries no reports")
    return reports


def _cmd_reverify(args) -> int:
    try:
        with open(args.path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: json.load on deeply nested input
        print(f"cannot read report: {exc}", file=sys.stderr)
        return 2
    try:
        ok = all(reverify(report) for report in _reports_of(payload))
    except MalformedReportError as exc:
        print(f"malformed report: {exc}", file=sys.stderr)
        return 2
    print("all certificates re-verified" if ok else "re-verification FAILED")
    return 0 if ok else 1


def _cmd_toeplitz(args) -> int:
    try:
        check_census_params(args.n_max, args.p)
    except ValueError as exc:
        print(f"bad parameters: {exc}", file=sys.stderr)
        return 2
    try:
        census = factor_census(args.n_max, args.p)
    except Exception as exc:
        # an engine fault is an internal error, not a census
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    payload = {"cumulative_count": census.cumulative_count,
               **census.to_json_dict()}

    def render():
        print(f"irreducible factors of Q_n(1,t) over GF({args.p})")
        print(f"{'n':>3s}  {'cum':>4s}  factorization")
        for row in census.rows:
            fac = " * ".join(
                f"({f})" if m == 1 else f"({f})^{m}"
                for f, m in row.factorization
            )
            print(f"{row.n:3d}  {row.cumulative_count:4d}  {fac}")
        print(f"distinct irreducible factors up to n = {args.n_max}: "
              f"{census.cumulative_count}")

    return _emit(payload, args, render, 0)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "out", None) and getattr(args, "format", None) == "json":
        print("--out and --format json are mutually exclusive", file=sys.stderr)
        return 2
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "reverify":
        return _cmd_reverify(args)
    if args.command == "toeplitz":
        return _cmd_toeplitz(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())

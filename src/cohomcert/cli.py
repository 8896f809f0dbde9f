"""Command-line front end: run scenarios, emit reports, re-verify them.

Exit codes: 0 when every executed check meets its expected outcome, 1 on
any check failure (or a failed re-verification), 2 on usage or
configuration errors and on internal errors of an engine.
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace

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


_SYNOPSIS = """\
usage: cohomcert list
       cohomcert run [--format {text,json}] [--out PATH] [--full]
                     [--params PATH] [--k-max K_MAX] [--n-max N_MAX]
                     [--primes PRIMES] [--p P] scenario
       cohomcert reverify REPORT.json
       cohomcert toeplitz [--n-max N_MAX] [--p P] [--format {text,json}]
                          [--out PATH]
       cohomcert -h | --help
"""

_HELP = _SYNOPSIS + """
exact verification of local-cohomology torsion classes, Toeplitz determinant
identities, and colon-ideal annihilators

commands:
  list                  list the built-in scenarios
  run                   run a scenario (or 'all')
  reverify              re-check a saved report or 'run all' bundle
  toeplitz              irreducible-factor census table

run:
  scenario              scenario name, or 'all'
  --format {text,json}  print a text summary (default) or the JSON report
  --out PATH            write the JSON report to PATH
  --full                print complete certificate transcripts
  --params PATH         JSON file of parameter overrides
  --k-max K_MAX
  --n-max N_MAX
  --primes PRIMES       comma-separated primes, e.g. 2,3,5,7
  --p P                 the prime p of GF(p); in ptor2-theorem, the prime of q
                        = p^e, so 'all' does not pass it there (ptor2-theorem
                        names its fields by domains)

reverify:
  REPORT.json           a report written by 'run --out', or the bundle of
                        'run all --out'

toeplitz:
  --n-max N_MAX         default 16
  --p P                 default 5
  --format {text,json}  print the table (default) or the JSON census
  --out PATH            write the JSON census to PATH

Options go before or after the positional argument, as '--opt value' or
'--opt=value'; the last repeat of an option wins.  Options must be spelled
out in full: an abbreviation such as '--n' is not accepted.
"""

_FORMATS = ("text", "json")

# command -> (positional fields, {option: (field, kind)}, defaults); a kind
# is int, str, a tuple of choices, or bool for a flag.  An option with no
# default is None when absent, a flag False.
_COMMANDS = {
    "list": ((), {}, {}),
    "run": (("scenario",), {
        "--format": ("format", _FORMATS),
        "--out": ("out", str),
        "--full": ("full", bool),
        "--params": ("params_file", str),
        "--k-max": ("k_max", int),
        "--n-max": ("n_max", int),
        "--primes": ("primes", str),
        "--p": ("p", int),
    }, {"format": "text"}),
    "reverify": (("path",), {}, {}),
    "toeplitz": ((), {
        "--n-max": ("n_max", int),
        "--p": ("p", int),
        "--format": ("format", _FORMATS),
        "--out": ("out", str),
    }, {"n_max": 16, "p": 5, "format": "text"}),
}


class _UsageError(Exception):
    pass


def _is_option(token: str) -> bool:
    # as in argparse: "-" alone and negative numbers are values
    return token.startswith("-") and token != "-" \
        and re.fullmatch(r"-\d+|-\d*\.\d+", token) is None


def _value(option: str, kind, text: str):
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise _UsageError(f"argument {option}: invalid int value: {text!r}")
    if kind is not str and text not in kind:
        choices = ", ".join(map(repr, kind))
        raise _UsageError(
            f"argument {option}: invalid choice: {text!r} (choose from {choices})")
    return text


def _parse_args(argv) -> SimpleNamespace | None:
    """The command line read through _COMMANDS: a namespace of the command,
    its positionals and every option field, or None for -h/--help.  Raises
    _UsageError on anything the table does not accept."""
    command, options, positionals, values = None, {}, [], {}
    tokens = iter(argv)
    only_positionals = False
    for token in tokens:
        if only_positionals or not _is_option(token):
            if command is not None:
                positionals.append(token)
            elif token in _COMMANDS:
                command, options = token, _COMMANDS[token][1]
            else:
                choices = ", ".join(map(repr, _COMMANDS))
                raise _UsageError(
                    f"argument command: invalid choice: {token!r} (choose from {choices})")
        elif token == "--":
            only_positionals = True
        elif token in ("-h", "--help"):
            return None
        else:
            option, has_value, text = token.partition("=")
            if option not in options:
                raise _UsageError(f"unrecognized arguments: {token}")
            field, kind = options[option]
            if kind is bool:
                if has_value:
                    raise _UsageError(
                        f"argument {option}: ignored explicit argument {text!r}")
                values[field] = True
                continue
            if not has_value:
                text = next(tokens, None)
                if text is None or _is_option(text):
                    raise _UsageError(f"argument {option}: expected one argument")
            values[field] = _value(option, kind, text)
    if command is None:
        raise _UsageError("the following arguments are required: command")
    names, _, defaults = _COMMANDS[command]
    if len(positionals) < len(names):
        missing = ", ".join(names[len(positionals):])
        raise _UsageError(f"the following arguments are required: {missing}")
    if len(positionals) > len(names):
        extra = " ".join(positionals[len(names):])
        raise _UsageError(f"unrecognized arguments: {extra}")
    fields = {field: False if kind is bool else None
              for field, kind in options.values()}
    return SimpleNamespace(command=command, **dict(zip(names, positionals)),
                           **{**fields, **defaults, **values})


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
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        print(f"{_SYNOPSIS}cohomcert: error: {exc}", file=sys.stderr)
        return 2
    if args is None:
        sys.stdout.write(_HELP)
        return 0
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

import hashlib
import json
import os
import re
import subprocess
import sys
import time

import pytest

import cohomcert
from cohomcert.cli import _parse_args, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("hartshorne", "singh-p-torsion", "singh-swanson-S",
                 "katzman-factorization", "toeplitz-suite"):
        assert name in out


def test_run_pass_exit_zero(capsys):
    assert main(["run", "katzman-factorization"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "katzman-factorization" in out


def test_run_unknown_scenario_exit_two(capsys):
    assert main(["run", "no-such-thing"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_run_bad_parameter_exit_two(capsys):
    assert main(["run", "hartshorne", "--n-max", "99"]) == 2
    assert "bad parameters" in capsys.readouterr().err


def test_usage_error_exit_two(capsys):
    assert main(["run"]) == 2
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["run"],
    ["reverify"],
    ["run", "katzman-factorization", "extra"],
    ["list", "extra"],
    ["run", "katzman-factorization", "--bogus"],
    ["toeplitz", "--n", "3"],
    ["toeplitz", "--n-max"],
    ["run", "katzman-factorization", "--out", "--full"],
    ["toeplitz", "--n-max", "x"],
    ["run", "katzman-factorization", "--format", "xml"],
    ["run", "katzman-factorization", "--full=1"],
], ids=lambda argv: " ".join(argv) or "no-command")
def test_usage_errors_print_usage_and_exit_two(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: cohomcert")
    assert re.search(r"^cohomcert: error: \S", captured.err, re.M)


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["run", "--help"]])
def test_help_names_every_command_and_option(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    for word in ("list", "run", "reverify", "toeplitz", "--format", "--out",
                 "--full", "--params", "--k-max", "--n-max", "--primes", "--p",
                 "in ptor2-theorem, the prime of q"):
        assert word in captured.out, word


def test_option_spellings_and_defaults(capsys, monkeypatch):
    assert vars(_parse_args(["run", "hartshorne"])) == {
        "command": "run", "scenario": "hartshorne", "format": "text",
        "out": None, "full": False, "params_file": None, "k_max": None,
        "n_max": None, "primes": None, "p": None}
    assert vars(_parse_args(["toeplitz"])) == {
        "command": "toeplitz", "n_max": 16, "p": 5, "format": "text", "out": None}
    assert vars(_parse_args(["reverify", "r.json"])) == {
        "command": "reverify", "path": "r.json"}
    # --opt=value, options on either side of the positional, the last wins
    assert _parse_args(["run", "--n-max=3", "--full", "hartshorne"]) \
        == _parse_args(["run", "hartshorne", "--n-max", "9", "--full",
                        "--n-max", "3"])
    assert _parse_args(["reverify", "--", "-r.json"]).path == "-r.json"
    assert _parse_args(["run", "x", "--p", "-3"]).p == -3

    assert main(["toeplitz", "--n-max=3", "--format", "json"]) == 0
    expected = capsys.readouterr().out
    assert main(["toeplitz", "--n-max", "9", "--format=json", "--n-max", "3"]) == 0
    assert capsys.readouterr().out == expected
    monkeypatch.setattr(sys, "argv", ["cohomcert", "toeplitz", "--n-max", "3",
                                      "--format", "json"])
    assert main() == 0
    assert capsys.readouterr().out == expected


def test_run_json_format(capsys):
    assert main(["run", "katzman-factorization", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scenario"] == "katzman-factorization"
    assert payload["passed"] is True
    assert payload["checks"][0]["certificate"]["kind"] == "polynomial_identity"


def test_run_out_file_then_reverify(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["run", "singh-p-torsion", "--primes", "2", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["reverify", str(path)]) == 0
    assert "re-verified" in capsys.readouterr().out

    payload = json.loads(path.read_text())
    payload["checks"][0]["certificate"]["annihilation"]["relation_cofactor"] = "1"
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(payload))
    assert main(["reverify", str(tampered)]) == 1


def test_reverify_malformed_exit_two(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{\"hello\": 1}")
    assert main(["reverify", str(path)]) == 2
    path2 = tmp_path / "not-json.json"
    path2.write_text("????")
    assert main(["reverify", str(path2)]) == 2
    assert main(["reverify", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("argv", [["run", "katzman-factorization"], ["toeplitz"]])
def test_unwritable_out_exit_two(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "report.json"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write report:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["reverify"], "cannot read report"),
    (["run", "hartshorne", "--params"], "bad parameters"),
])
def test_deeply_nested_json_exit_two(tmp_path, capsys, argv, message):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    assert main(argv + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1


def test_out_and_json_mutually_exclusive(tmp_path, capsys):
    path = tmp_path / "x.json"
    for argv in (["run", "katzman-factorization"],
                 ["toeplitz", "--n-max", "3", "--p", "5"]):
        assert main(argv + ["--format", "json", "--out", str(path)]) == 2
        assert "mutually exclusive" in capsys.readouterr().err
        assert not path.exists()


def test_toeplitz_census_json(capsys):
    assert main(["toeplitz", "--n-max", "3", "--p", "5", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cumulative_count"] >= 4
    assert payload["p"] == 5
    assert [row["n"] for row in payload["rows"]] == [1, 2, 3]


def test_toeplitz_census_text(capsys):
    assert main(["toeplitz", "--n-max", "2", "--p", "5"]) == 0
    out = capsys.readouterr().out
    assert "distinct irreducible factors" in out


def test_toeplitz_bad_p(capsys):
    assert main(["toeplitz", "--n-max", "3", "--p", "6"]) == 2


@pytest.mark.parametrize("argv", [
    ["--p", "1000000000000000000000000000057"],  # a prime above 2^64
    ["--n-max", "400"],
    ["--n-max", "0"],
])
def test_toeplitz_bounds_exit_two(capsys, argv):
    # rejected before any primality test or factorization
    t0 = time.perf_counter()
    assert main(["toeplitz", *argv]) == 2
    assert time.perf_counter() - t0 < 0.1
    assert "bad parameters" in capsys.readouterr().err


def test_run_torsion_primes_flag(capsys):
    assert main(["run", "singh-p-torsion", "--primes", "2,3"]) == 0
    out = capsys.readouterr().out
    assert "p-torsion-p2" in out and "p-torsion-p3" in out


def test_run_torsion_bad_primes(capsys):
    assert main(["run", "singh-p-torsion", "--primes", "2,banana"]) == 2


def test_run_all_exit_zero(capsys):
    assert main(["run", "all"]) == 0
    out = capsys.readouterr().out
    assert out.count("scenario ") == 8


def test_run_all_out_then_reverify_bundle(tmp_path, capsys):
    path = tmp_path / "all.json"
    assert main(["run", "all", "--out", str(path)]) == 0
    assert main(["reverify", str(path)]) == 0
    assert "re-verified" in capsys.readouterr().out

    bundle = json.loads(path.read_text())
    assert len(bundle["reports"]) == 8
    torsion = next(r for r in bundle["reports"]
                   if r["scenario"] == "singh-p-torsion")
    torsion["checks"][0]["certificate"]["annihilation"]["relation_cofactor"] = "1"
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(bundle))
    assert main(["reverify", str(tampered)]) == 1

    for reports in ([], "nope"):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"artifact": "cohomcert", "reports": reports}))
        assert main(["reverify", str(empty)]) == 2


def test_run_empty_list_parameters_exit_two(tmp_path, capsys):
    for scenario, params in (("singh-p-torsion", {"primes": []}),
                             ("ptor2-theorem", {"domains": []})):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        assert main(["run", scenario, "--params", str(path)]) == 2
        assert "nonempty" in capsys.readouterr().err


@pytest.mark.parametrize("domains", [["ZZ"], [3], ["QQ", "GF(4)"],
                                     ["GF(18446744073709551629)"]])
def test_run_non_field_domains_exit_two(tmp_path, capsys, domains):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"domains": domains}))
    assert main(["run", "ptor2-theorem", "--params", str(path)]) == 2
    assert "bad parameters" in capsys.readouterr().err


def test_run_census_p_above_the_prime_bound_exit_two(tmp_path, capsys):
    # 2^64 + 13 is prime; the bound rejects it before any primality test
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"census_p": 2 ** 64 + 13}))
    t0 = time.perf_counter()
    assert main(["run", "toeplitz-suite", "--params", str(path)]) == 2
    assert time.perf_counter() - t0 < 0.1
    assert "2^64" in capsys.readouterr().err


def test_params_file(tmp_path, capsys):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"primes": [2]}))
    assert main(["run", "singh-p-torsion", "--params", str(path)]) == 0
    out = capsys.readouterr().out
    assert "p-torsion-p2" in out and "p-torsion-p3" not in out
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert main(["run", "singh-p-torsion", "--params", str(bad)]) == 2


def test_run_all_routes_scenario_specific_flags(capsys):
    assert main(["run", "all", "--primes", "2,3"]) == 0
    out = capsys.readouterr().out
    assert out.count("scenario ") == 8
    assert "p-torsion-p3" in out and "p-torsion-p5" not in out


def test_run_all_rejects_parameters_no_scenario_accepts(tmp_path, capsys):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"bogus": 1}))
    assert main(["run", "all", "--params", str(path)]) == 2
    assert "bogus" in capsys.readouterr().err
    assert main(["run", "all", "--primes", "37"]) == 2


def test_torsion_prime_bound_exit_two(capsys):
    assert main(["run", "singh-p-torsion", "--primes", "37"]) == 2
    assert "bounds" in capsys.readouterr().err
    assert main(["run", "singh-p-torsion", "--primes", "2,37"]) == 2


@pytest.mark.parametrize("argv, params", [
    # p = 1009, e = 3 would expand lambda_q for q = 1009^3
    (["run", "ptor2-theorem", "--p", "1009"], {"e": 3}),
    # q = 16 would compute the annihilator of eta_16
    (["run", "singh-swanson-S"], {"q_list": [16]}),
])
def test_parameters_that_set_unbounded_work_exit_two(tmp_path, capsys, argv, params):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    t0 = time.perf_counter()
    assert main(argv + ["--params", str(path)]) == 2
    assert time.perf_counter() - t0 < 0.1
    assert "bad parameters" in capsys.readouterr().err


def test_run_engine_fault_is_an_internal_error(tmp_path, capsys, monkeypatch):
    from cohomcert import toeplitz
    from cohomcert.polyring import NonDivisibleError

    def broken(n, p):
        raise NonDivisibleError(f"injected fault at n = {n}")

    monkeypatch.setattr(toeplitz, "qn_row_fp", broken)
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"n_max": 1, "generating_order": 2,
                                "roots_n_max": 1, "census_n_max": 3}))
    assert main(["run", "toeplitz-suite", "--params", str(path)]) == 2
    assert "internal error: NonDivisibleError: injected fault" in \
        capsys.readouterr().err


def test_run_engine_value_error_is_not_bad_parameters(capsys, monkeypatch):
    # a ValueError raised after the parameters were validated is an engine
    # fault, not a parameter the user can fix
    from cohomcert import scenarios

    def broken(*_args, **_kwargs):
        raise ValueError("3/2 is not an integer coefficient")

    monkeypatch.setattr(scenarios, "generating_check", broken)
    assert main(["run", "toeplitz-suite"]) == 2
    err = capsys.readouterr().err
    assert "internal error: ValueError: 3/2 is not an integer coefficient" in err
    assert "bad parameters" not in err


def test_toeplitz_engine_fault_is_an_internal_error(capsys, monkeypatch):
    from cohomcert import toeplitz

    real = toeplitz.qn_row_fp

    def broken(n, p):
        # Q_3 + 1 is not divisible by Q_1 = t
        row = real(n, p)
        return [(row[0] + 1) % p] + row[1:] if n == 3 else row

    monkeypatch.setattr(toeplitz, "qn_row_fp", broken)
    assert main(["toeplitz", "--n-max", "6", "--p", "5"]) == 2
    err = capsys.readouterr().err
    assert "internal error: NonDivisibleError" in err and "Traceback" not in err


def test_toeplitz_rejected_certificate_is_an_internal_error(capsys, monkeypatch):
    # the census carries its own row check: a factor it cannot certify
    # irreducible is an engine error, never a printed census
    from cohomcert import toeplitz

    monkeypatch.setattr(toeplitz, "irreducible_fp", lambda f, p: False)
    assert main(["toeplitz", "--n-max", "6", "--p", "5"]) == 2
    captured = capsys.readouterr()
    assert "internal error" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def _nested(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("scenario, key, value", [
    ("singh-p-torsion", "primes", _nested(900)),
    ("singh-swanson-S", "q_list", list(range(3000))),
    ("singh-swanson-S", "n_max", list(range(3000))),
    ("ptor2-theorem", "domains", ["GF(4)"] * 2000),
])
def test_bad_parameter_messages_abbreviate_the_value(tmp_path, capsys, scenario, key, value):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({key: value}))
    assert main(["run", scenario, "--params", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bad parameters") and err.count("\n") == 1
    assert len(err) < 200 and key in err


@pytest.mark.parametrize("p, witness", [(3, "frobenius-witness-q3"), (101, None)])
def test_singh_swanson_levels_follow_p(tmp_path, capsys, p, witness):
    # with no q_list given, the witness level is p itself when n_max allows it
    out = tmp_path / "report.json"
    assert main(["run", "singh-swanson-S", "--p", str(p), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["params"]["q_list"] == ([p] if witness else [])
    assert [c["name"] for c in report["checks"] if c["name"].startswith("frobenius")] == \
        ([witness] if witness else [])
    assert main(["reverify", str(out)]) == 0


def test_run_all_at_p3_then_reverify(tmp_path, capsys):
    out = tmp_path / "all.json"
    assert main(["run", "all", "--p", "3", "--out", str(out)]) == 0
    assert main(["reverify", str(out)]) == 0
    assert "re-verified" in capsys.readouterr().out


def test_run_all_leaves_ptor2_at_its_own_p(tmp_path, capsys):
    # ptor2-theorem's p is the prime of q = p^e, bounded by 31; its fields
    # come from domains, so --p 101 reaches every other scenario only
    out = tmp_path / "all.json"
    assert main(["run", "all", "--p", "101", "--out", str(out)]) == 0
    reports = {r["scenario"]: r for r in json.loads(out.read_text())["reports"]}
    assert reports["ptor2-theorem"]["params"]["p"] == 3
    assert all(r["params"]["p"] == 101 for name, r in reports.items()
               if "p" in r["params"] and name != "ptor2-theorem")
    assert main(["reverify", str(out)]) == 0
    assert "re-verified" in capsys.readouterr().out
    assert main(["run", "ptor2-theorem", "--p", "101"]) == 2


def _masked_digest(path):
    # the report as --out writes it, with every "seconds" value set to 0
    text = re.sub(r'"seconds": [-+.\deE]+', '"seconds": 0', path.read_text())
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("p, digest", [(2, "def397c20248e9e2"),
                                       (3, "3017142c67417fca"),
                                       (5, "f58335ab79db58ce"),
                                       (7, "6e3581dd4bd30e17"),
                                       (11, "bbcc0f87b6560a13"),
                                       (13, "d280ada9fc626401"),
                                       (65521, "e50794dccb7b2947"),
                                       (2 ** 64 - 59, "d680b4cb6d8c324c")])
def test_toeplitz_suite_report_digest(tmp_path, capsys, p, digest):
    # the census benchmark's parameters: the report must not change by a byte
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"n_max": 12, "generating_order": 64,
                                  "roots_n_max": 12, "census_n_max": 64,
                                  "census_p": p}))
    out = tmp_path / "report.json"
    assert main(["run", "toeplitz-suite", "--params", str(params),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert _masked_digest(out) == digest


@pytest.mark.parametrize("p, fmt, digest", [
    (2, "json", "8c9b5af76a2253e3"),
    (2, "text", "51382ccaeeaf9ef8"),
    (13, "json", "f961872ec9c8ff8d"),
    (13, "text", "f51bf77a8b20e4f6"),
    (2 ** 64 - 59, "json", "ab29ee2b1c567e11"),
    (2 ** 64 - 59, "text", "988dad1c7ef2e9de"),
])
def test_toeplitz_census_digest(capsys, p, fmt, digest):
    # the standalone census, table and JSON, must not change by a byte
    assert main(["toeplitz", "--n-max", "64", "--p", str(p), "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("scenario, params, digest", [
    ("all", None, "e482dcfe92f9978a"),
    ("singh-p-torsion", {"primes": [2, 3, 5, 7, 11]}, "df160d1f44ac4307"),
    ("singh-swanson-S", {"n_max": 4, "k": 1}, "9e70dc5259f25cb8"),
    ("ring-A-colon", {"n_max": 8, "p": 101}, "c8ad8f2a6d21a993"),
    ("ring-B-colon", {"n_max": 6, "p": 101}, "d0d27597ba805616"),
    ("hartshorne", {"n_max": 8, "k_max": 12, "p": 101}, "480d3c1994e57995"),
    ("ptor2-theorem", {"e": 2}, "27db5bb9976dbd92"),
    ("singh-p-torsion", {"primes": [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]},
     "a56f444ad4f2fa69"),
])
def test_report_digest(tmp_path, capsys, scenario, params, digest):
    # every report but for its timings must not change by a byte
    argv = ["run", scenario, "--out", str(tmp_path / "report.json")]
    if params is not None:
        (tmp_path / "params.json").write_text(json.dumps(params))
        argv += ["--params", str(tmp_path / "params.json")]
    assert main(argv) == 0
    capsys.readouterr()
    assert _masked_digest(tmp_path / "report.json") == digest


def test_import_leaves_out_dataclasses_and_inspect(tmp_path):
    # cold start: every run and reverify is a fresh interpreter, and neither
    # the value types (dataclass code generation) nor the argument parser
    # (argparse, with gettext and locale) may pay for a module it does not
    # need; -S keeps what site-packages may load at start-up out of the probe
    src = os.path.dirname(os.path.dirname(cohomcert.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    report = str(tmp_path / "report.json")
    probe = ("import sys; from cohomcert.cli import main; "
             f"assert main(['run', 'ptor2-theorem', '--out', {report!r}]) == 0; "
             f"assert main(['reverify', {report!r}]) == 0; "
             "print(sorted(m for m in ('dataclasses', 'inspect', 'argparse', "
             "'gettext', 'locale') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[]"


def test_out_file_and_json_stdout_are_the_same_bytes(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["run", "katzman-factorization", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["run", "katzman-factorization", "--format", "json"]) == 0
    printed = tmp_path / "printed.json"
    printed.write_text(capsys.readouterr().out)
    assert out.read_text().endswith("}\n")
    assert _masked_digest(printed) == _masked_digest(out)

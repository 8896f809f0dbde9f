"""Seeded mutation gate: every checker defect in the table stays caught.

Each mutant is one exact-snippet replacement in a copy of src/.  The gate
runs the mutant's named tests on that copy in a fresh interpreter, at most
two mutants at a time, and the mutant is caught when they fail.  Before
any mutant it runs every named test on the unmutated source, so a test
that fails anyway catches nothing.

    python tests/mutants.py

It prints one line per mutant with its time, and exits 1 when a snippet
does not occur exactly once in its file (the table has rotted, so a PR
that rewrites a mutated line updates the snippet), when a mutant
survives, or when the named tests do not run cleanly.  Stdlib only;
pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
WORKERS = 2
TIMEOUT_S = 120


class Mutant(NamedTuple):
    name: str
    file: str            # under src/cohomcert
    snippet: str         # occurs exactly once in file
    replacement: str
    tests: tuple         # pytest node ids, run from the repo root
    origin: str          # the defect it stands for


SCENARIOS = "tests/test_scenarios.py::"
TOEPLITZ = "tests/test_toeplitz.py::"

MUTANTS = (
    Mutant(
        "reducer-divides-reversed", "cohomology.py",
        "if not any(monomial_divides(e, t) for e in exponents)",
        "if not any(monomial_divides(t, e) for e in exponents)",
        ("tests/test_cohomology.py::test_outside_monomial_ideal_is_the_engine_normal_form",),
        "outside_monomial_ideal keeps a term that a generator divides",
    ),
    Mutant(
        "same-ignores-actual", "scenarios.py",
        "all(_same(v, b[k]) for k, v in a.items())",
        'all(_same(v, b[k]) for k, v in a.items() if k != "actual")',
        (SCENARIOS + "test_reverify_rejects_a_tampered_field[hartshorne-_every_actual_1]",
         SCENARIOS + "test_reverify_rejects_a_tampered_field[toeplitz-suite-_census_count_1000]"),
        "CHANGES.md MENDED: reverify never read a check's actual",
    ),
    Mutant(
        "socle-kill-accepts-k3", "scenarios.py",
        "ok = type(k) is int and 0 <= k <= 2 and verify_zero_at",
        "ok = type(k) is int and 0 <= k <= 3 and verify_zero_at",
        (SCENARIOS + "test_planned_verify_fails_on_a_malformed_certificate",
         SCENARIOS + "test_reverify_rejects_forgeries_against_the_plan"
                     "[hartshorne-params2-_hartshorne_witness_k5]"),
        "a zero_at witness past the claim k <= 2 costs a membership test",
    ),
    Mutant(
        "census-rows-not-monic", "toeplitz.py",
        "read[fac] = tuple(g) if g and g[-1] == 1 else None",
        "read[fac] = tuple(g) if g else None",
        (SCENARIOS + "test_reverify_rejects_non_monic_census_factors",
         SCENARIOS + "test_census_row_check_is_false_on_malformed_rows"),
        "CHANGES.md: census_rows_sound accepted non-monic associates",
    ),
    Mutant(
        "divmod-remainder-unreduced", "toeplitz.py",
        "return q, self.red(a & low)",
        "return q, a & low",
        ("tests/test_toeplitz.py::test_packed_remainder_and_gcd_match_schoolbook",),
        "CHANGES.md: packed GF(p)[t] kernel, no final red in divmod",
    ),
    Mutant(
        "census-degree-test-dropped", "toeplitz.py",
        "len(g) == 2 or g in certified or len(g) - 1 == e",
        "True",
        (SCENARIOS + "test_reverify_rejects_two_new_factors_merged",
         "tests/test_cli.py::test_toeplitz_rejected_certificate_is_an_internal_error"),
        "census_rows_sound takes a new factor of any degree as irreducible",
    ),
    Mutant(
        "census-old-part-unchecked", "toeplitz.py",
        "if min(left.values()) < 0:",
        "if False:",
        (SCENARIOS + "test_reverify_rejects_a_row_without_an_older_group",),
        "census_rows_sound lets a row's new group stand in for an older one",
    ),
    Mutant(
        "slot-bound-one-coefficient-product", "toeplitz.py",
        "bound = n * p * (p - 1) + p",
        "bound = n * (p - 1) ** 2 + p",
        (TOEPLITZ + "test_red_is_exact_with_every_slot_at_its_bound",
         TOEPLITZ + "test_packed_remainder_and_gcd_match_schoolbook"),
        "CHANGES.md: packed GF(p)[t] kernel, the old slot bound n*(p-1)^2 + p",
    ),
    Mutant(
        "red-shift-two-bits-short", "toeplitz.py",
        "self.k = bound.bit_length() + p.bit_length()",
        "self.k = bound.bit_length() + p.bit_length() - 2",
        (TOEPLITZ + "test_red_is_exact_with_every_slot_at_its_bound",),
        "CHANGES.md: packed GF(p)[t] kernel, k two bits short",
    ),
    Mutant(
        "barrett-shift-one-slot-long", "toeplitz.py",
        "q = self.red(hi * self.mu) >> (self.n - 2) * self.bits",
        "q = self.red(hi * self.mu) >> (self.n - 1) * self.bits",
        (TOEPLITZ + "test_mulmod_matches_schoolbook_on_random_operands",
         TOEPLITZ + "test_mulmod_worst_case_operands"),
        "CHANGES.md: packed GF(p)[t] kernel, a Barrett shift of (n-1)W",
    ),
    Mutant(
        "divisor-inverse-one", "toeplitz.py",
        "inv = pow(g >> dg * w, -1, p)",
        "inv = 1",
        (TOEPLITZ + "test_packed_remainder_and_gcd_match_schoolbook",),
        "CHANGES.md: packed GF(p)[t] kernel, a divisor inverse fixed at 1",
    ),
    Mutant(
        "census-shape-unguarded", "scenarios.py",
        "sound = isinstance(rows, list) and len(rows) == census_n_max",
        "sound = len(rows) == census_n_max",
        (SCENARIOS + "test_planned_verify_fails_on_a_malformed_certificate",),
        "CHANGES.md FOUND: census_verify raised on a census without list rows",
    ),
)


def _pytest(src: Path, tests) -> tuple[int, str]:
    """Run the named tests with src first on the path; (exit code, tail)."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, f"timed out after {TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else proc.stderr.strip()[-200:]


def run_mutant(mutant: Mutant) -> tuple[bool, str]:
    """(caught, verdict line) for one mutant."""
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="cohomcert-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "cohomcert" / mutant.file
        text = path.read_text()
        count = text.count(mutant.snippet)
        if count != 1:
            return False, f"{'STALE':9}{mutant.name}: the snippet occurs {count} " \
                          f"times in {mutant.file}"
        path.write_text(text.replace(mutant.snippet, mutant.replacement))
        code, tail = _pytest(src, mutant.tests)
    seconds = time.perf_counter() - t0
    # pytest exits 1 when a test failed; anything else is not a verdict
    verdict = {0: "SURVIVED", 1: "caught"}.get(code, "ERROR")
    line = f"{verdict:9}{mutant.name} ({seconds:.1f} s): {tail}"
    return code == 1, line if code == 1 else f"{line}\n         stands for: {mutant.origin}"


def main() -> int:
    t0 = time.perf_counter()
    tests = sorted({t for m in MUTANTS for t in m.tests})
    code, tail = _pytest(ROOT / "src", tests)
    print(f"{'ok' if code == 0 else 'FAILED':9}unmutated source: {tail}", flush=True)
    if code != 0:
        return 1
    with ThreadPoolExecutor(WORKERS) as pool:
        results = list(pool.map(run_mutant, MUTANTS))
    for _, line in results:
        print(line)
    caught = sum(ok for ok, _ in results)
    print(f"{caught} of {len(MUTANTS)} mutants caught in {time.perf_counter() - t0:.1f} s")
    return 0 if caught == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Cold-process benchmark of the two commands cohomcert users wait on.

    python3 perfbench/run.py --workload torsion|colon|census --seed N \
        --seconds S --trace 0|1

Run from the repository root.  Every operation -- one
`cohomcert run SCENARIO ... --out R.json` or one `cohomcert reverify R.json`
-- runs in a fresh interpreter (perfbench/child.py), at most two at a time.
Never time two operations in one interpreter: cohomcert.groebner keeps a
process-global Groebner cache, so a second operation in the same process
would time dict lookups instead of Buchberger (hartshorne's reverify at its
defaults takes 12 ms after its own run in one process, 33 ms in a cold one).

A round runs every scenario of the workload once and re-verifies each
report; rounds repeat, in alternating order, until S seconds have passed
(at least two rounds).  End-to-end metrics (--trace 0):

  run_s        median over rounds of the summed in-process time of the
               round's `run` operations (after import)
  reverify_s   the same for the `reverify` operations of genuine reports
  setup_s      median over all children of spawn -> entering cli.main
  peak_rss_mb  largest ru_maxrss of any child

Correctness gate, per operation: a `run` fails if its exit code is not 0,
a check misses its expected_status, or its report is not byte-identical
(apart from "seconds") to the first round's; a `reverify` of a genuine
report fails unless it accepts; one seeded tampered copy of each report
(a cofactor, a generator, a witness exponent or a census count) must be
rejected.  Any failure makes `correct` false.

A known defect is not timed and not counted: before timing, each input in
KNOWN_DEFECTS for the workload runs once in its own child and the summary
lines say whether it still fails as recorded.

With --trace 1, two of every three rounds run with the layer tracer
(perfbench/tracer.py) and the per-layer metrics are reported instead; the
deterministic counts must agree exactly between traced rounds.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exits 2 without a result when
the program cannot be started (for example, no src/cohomcert here).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
LANES = min(2, os.cpu_count() or 1)
CHILD_TIMEOUT_S = 120
_SECONDS_FIELD = re.compile(r'"seconds": [^,\n}]+')


@dataclass(frozen=True)
class Case:
    key: str              # unique within the workload; names report files
    scenario: str
    flags: tuple = ()     # CLI flags after the scenario name
    params: dict | None = None  # passed through --params


def _draw_prime(rng, lo=101, hi=65521):
    n = rng.randint(lo, hi)
    while any(n % d == 0 for d in range(2, int(n ** 0.5) + 1)):
        n += 1  # 65521 is prime, so this stays inside [lo, hi]
    return n


def torsion_cases(_rng):
    return [Case("singh-p-torsion", "singh-p-torsion", ("--primes", "2,3,5,7,11"))]


def colon_cases(rng):
    p_a, p_b, p_h = (_draw_prime(rng) for _ in range(3))
    return [
        Case("singh-swanson-S", "singh-swanson-S", params={"n_max": 4, "k": 1}),
        Case("ring-A-colon", "ring-A-colon", ("--n-max", "8", "--p", str(p_a))),
        Case("ring-B-colon", "ring-B-colon", ("--n-max", "6", "--p", str(p_b))),
        Case("hartshorne", "hartshorne",
             ("--n-max", "8", "--k-max", "12", "--p", str(p_h))),
        # e = 3, the top of its bounds, is a known defect: see KNOWN_DEFECTS
        Case("ptor2-theorem", "ptor2-theorem", params={"e": 2}),
    ]


def census_cases(rng):
    # all four primes in every round: run cost differs by ~30% between
    # census_p = 5 and the others, so one prime per seed would make the
    # seed, not the code, decide run_s
    primes = [5, 7, 11, 13]
    rng.shuffle(primes)
    return [Case(f"toeplitz-suite-p{p}", "toeplitz-suite", params={
        "n_max": 12, "generating_order": 64, "roots_n_max": 12,
        "census_n_max": 64, "census_p": p,
    }) for p in primes]


WORKLOADS = {"torsion": torsion_cases, "colon": colon_cases, "census": census_cases}

# workload -> inputs inside their documented bounds that fail today, with
# the failure each check shows; probed once per run, never timed or counted
KNOWN_DEFECTS = {
    "colon": [(Case("ptor2-theorem-e3", "ptor2-theorem", params={"e": 3}),
               "degree guard: S-pair lcm degree 159 exceeds the guard (120)")],
}


@dataclass
class Op:
    op_id: str
    kind: str             # "run" | "reverify" | "tamper"
    case: Case
    round: int
    traced: bool
    args: list
    report: str           # report written (run) or read (reverify, tamper)
    spawn: float = 0.0
    setup_s: float | None = None
    op_s: float | None = None
    rc: int | None = None
    maxrss_kb: int = 0
    error: str | None = None
    then: list = field(default_factory=list)


# --------------------------------------------------------------------------
# tampering


def _tamper_sites(report):
    """(check index, path into the certificate, what it is) of every field
    whose change must make reverify reject the report."""
    sites = []
    for i, check in enumerate(report["checks"]):
        cert = check["certificate"]
        kind = cert.get("kind")
        if kind == "torsion":
            ann = cert["annihilation"]
            sites += [(i, ("annihilation", "sequence_cofactors", j), "cofactor")
                      for j in range(len(ann["sequence_cofactors"]))]
            sites.append((i, ("annihilation", "relation_cofactor"), "cofactor"))
        elif kind == "zero_at" and isinstance(cert.get("k"), int) and cert["k"] >= 1:
            # k is the least vanishing level, so k - 1 must fail
            sites.append((i, ("k",), "witness exponent"))
        elif kind in ("annihilator", "colon_contraction"):
            sites += [(i, ("computed_generators", j), "generator")
                      for j in range(len(cert["computed_generators"]))]
        elif kind == "frobenius_witness":
            sites += [(i, ("bracket_generators", j), "generator")
                      for j in range(len(cert["bracket_generators"]))]
        elif kind == "census":
            sites += [(i, ("census", "rows", j, "cumulative_count"), "census count")
                      for j in range(len(cert["census"]["rows"]))]
    return sites


def tamper(report, rng):
    """Mutate one seeded certificate field in place; returns a description,
    or None when the report has no tamperable field."""
    sites = _tamper_sites(report)
    if not sites:
        return None
    check_index = rng.choice(sorted({i for i, _, _ in sites}))
    _, path, what = rng.choice([s for s in sites if s[0] == check_index])
    cert = report["checks"][check_index]["certificate"]
    holder = cert
    for step in path[:-1]:
        holder = holder[step]
    old = holder[path[-1]]
    if what == "cofactor":
        new = f"{old} + 1"
    elif what == "generator":
        var = cert.get("subring_variables", ["x"])[0]
        new = f"({old})*{var}"
    else:  # witness exponent (least k, so k - 1 fails) or census count
        new = old - 1 if what == "witness exponent" else old + 1
    holder[path[-1]] = new
    name = report["checks"][check_index]["name"]
    return f"{name}: {what} {'.'.join(map(str, path))} {old!r} -> {new!r}"


# --------------------------------------------------------------------------
# running operations


def child_env():
    return dict(os.environ, PYTHONPATH=os.path.abspath("src"))


class Runner:
    def __init__(self, cases, work, seconds, trace, seed_text):
        self.cases, self.work, self.seconds = cases, work, seconds
        self.trace, self.seed_text = trace, seed_text
        self.env = child_env()
        self.rounds: list[list[Op]] = []
        self.tampers: list[Op] = []
        self.tamper_notes: dict[str, str] = {}
        self.ready: deque = deque()
        self.running: dict = {}   # pid -> (op, Popen, stderr file)

    def _op(self, kind, case, r, traced, args, report):
        return Op(f"r{r}-{case.key}-{kind}", kind, case, r, traced, args, report)

    def _params_path(self, case):
        return os.path.join(self.work, f"params-{case.key}.json")

    def start_round(self):
        r = len(self.rounds)
        traced = self.trace and r % 3 != 0
        cases = self.cases if r % 2 == 0 else self.cases[::-1]
        ops = []
        for case in cases:
            report = os.path.join(self.work, f"r{r}-{case.key}.json")
            args = ["run", case.scenario, *case.flags]
            if case.params is not None:
                args += ["--params", self._params_path(case)]
            run = self._op("run", case, r, traced, args + ["--out", report], report)
            check = self._op("reverify", case, r, traced, ["reverify", report], report)
            run.then.append(check)
            ops += [run, check]
            self.ready.append(run)
        self.rounds.append(ops)

    def _spawn(self, op):
        base = os.path.join(self.work, op.op_id)
        spans = base + ".spans.json" if op.traced else "-"
        err = open(base + ".err", "w")
        op.spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"),
             base + ".result.json", spans, op.op_id, *op.args],
            env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=err,
        )
        self.running[proc.pid] = (op, proc, err)

    def _finish(self, op, proc, err, status, rusage):
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.close()
        op.maxrss_kb = rusage.ru_maxrss
        base = os.path.join(self.work, op.op_id)
        try:
            with open(base + ".result.json") as fh:
                result = json.load(fh)
            op.setup_s = result["entered"] - op.spawn
            op.op_s, op.rc, op.error = result["op_s"], result["rc"], result["error"]
        except (OSError, ValueError, KeyError):
            with open(base + ".err") as fh:
                op.error = f"exit {proc.returncode}: {fh.read()[-2000:]}"
        if op.rc is not None and op.rc != proc.returncode:
            op.error = f"exit code {proc.returncode} but cli.main returned {op.rc}"
        self.ready.extend(op.then)
        if op.kind == "run" and op.round == 0 and op.rc is not None:
            self._add_tamper(op)

    def _add_tamper(self, run):
        try:
            with open(run.report) as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            return  # the run op itself fails the gate
        note = tamper(report, random.Random(f"{self.seed_text}:{run.case.key}"))
        if note is None:
            return
        path = os.path.join(self.work, f"tampered-{run.case.key}.json")
        with open(path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        op = self._op("tamper", run.case, 0, False, ["reverify", path], path)
        self.tampers.append(op)
        self.tamper_notes[op.op_id] = note
        self.ready.append(op)

    def _kill_all(self, reason):
        for op, proc, err in self.running.values():
            proc.kill()
            proc.wait()
            err.close()
            op.error = reason
        self.running.clear()

    def execute(self):
        for case in self.cases:
            if case.params is not None:
                with open(self._params_path(case), "w") as fh:
                    json.dump(case.params, fh)
        min_rounds = 3 if self.trace else 2
        start = time.monotonic()
        deadline, hard_stop = start + self.seconds, start + self.seconds + 100
        try:
            while True:
                while len(self.running) < LANES:
                    if not self.ready and (time.monotonic() < deadline
                                           or len(self.rounds) < min_rounds):
                        self.start_round()
                    if not self.ready:
                        break
                    self._spawn(self.ready.popleft())
                if not self.running:
                    break
                pid, status, rusage = os.wait4(-1, os.WNOHANG)
                if pid == 0:
                    now = time.monotonic()
                    if now > hard_stop:
                        self._kill_all("killed: benchmark time limit")
                        self.ready.clear()
                        break
                    for op, proc, err in list(self.running.values()):
                        if now - op.spawn > CHILD_TIMEOUT_S:
                            proc.kill()
                    time.sleep(0.005)
                    continue
                if pid in self.running:
                    self._finish(*self.running.pop(pid), status, rusage)
        finally:
            self._kill_all("killed: benchmark aborted")
        return time.monotonic() - start


# --------------------------------------------------------------------------
# the correctness gate


def _masked(text):
    return _SECONDS_FIELD.sub('"seconds": 0', text)


def gate(runner):
    """Set op.error on every failed op; returns the failed ops."""
    first_report: dict = {}
    ops = [op for ops in runner.rounds for op in ops] + runner.tampers
    failed = []
    for op in sorted(ops, key=lambda o: (o.round, o.kind != "run")):
        if op.error is None and op.kind == "run":
            try:
                with open(op.report) as fh:
                    text = fh.read()
                report = json.loads(text)
                missed = [c for c in report["checks"]
                          if c["status"] != c["expected_status"]]
            except (OSError, ValueError, KeyError, TypeError) as exc:
                op.error = f"unreadable report: {exc}"
            else:
                first = first_report.setdefault(op.case.key, _masked(text))
                if _masked(text) != first:
                    op.error = "report differs from the first round's"
                elif missed or op.rc != 0:
                    op.error = (f"exit {op.rc}; checks missing expected_status: "
                                + ", ".join(f"{c['name']} ({c['actual']})"
                                            for c in missed))
        elif op.error is None and op.kind == "reverify" and op.rc != 0:
            op.error = f"reverify rejected a genuine report (exit {op.rc})"
        elif op.error is None and op.kind == "tamper" and op.rc not in (1, 2):
            op.error = (f"tampered report accepted (exit {op.rc}): "
                        f"{runner.tamper_notes[op.op_id]}")
        if op.error is not None:
            failed.append(op)
    return failed


def probe_known_defects(workload, work):
    """Run each known defect of the workload once, untimed; returns one
    summary line per defect saying whether it still fails as recorded."""
    lines = []
    for case, failure in KNOWN_DEFECTS.get(workload, []):
        base = os.path.join(work, f"defect-{case.key}")
        with open(base + ".params.json", "w") as fh:
            json.dump(case.params, fh)
        try:
            # subprocess.run kills and reaps the child on a timeout
            rc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"),
                 base + ".result.json", "-", case.key, "run", case.scenario,
                 *case.flags, "--params", base + ".params.json",
                 "--out", base + ".report.json"],
                env=child_env(), stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=CHILD_TIMEOUT_S,
            ).returncode
        except subprocess.TimeoutExpired:
            rc = "timeout"
        try:
            with open(base + ".report.json") as fh:
                checks = json.load(fh)["checks"]
            missed = {c["actual"] for c in checks
                      if c["status"] != c["expected_status"]}
        except (OSError, ValueError, KeyError, TypeError):
            missed = {"no report"}
        if rc == 1 and missed == {failure}:
            state = f"still fails: {failure}"
        elif rc == 0 and not missed:
            state = "now passes; move it into the workload"
        else:
            state = f"fails differently (exit {rc}): " \
                + "; ".join(sorted(map(str, missed)))[:160]
        lines.append(f"  known defect, not timed or counted: {case.key} {state}")
    return lines


# --------------------------------------------------------------------------
# metrics


def _spread(values):
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"[q1 {q1:.4f}, q3 {q3:.4f}]"


def end_to_end(runner, lines):
    rounds = [ops for ops in runner.rounds if not ops[0].traced]
    all_ops = [op for ops in runner.rounds for op in ops] + runner.tampers
    sums = {kind: [sum(op.op_s or 0.0 for op in ops if op.kind == kind)
                   for ops in rounds] for kind in ("run", "reverify")}
    setups = [op.setup_s for op in all_ops if op.setup_s is not None]
    rss = max(op.maxrss_kb for op in all_ops) / 1024
    metrics = {
        "run_s": (statistics.median(sums["run"]), "s"),
        "reverify_s": (statistics.median(sums["reverify"]), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    lines += [
        f"  run_s        {metrics['run_s'][0]:.4f} s   median of {len(rounds)} "
        f"rounds {_spread(sums['run'])}",
        f"  reverify_s   {metrics['reverify_s'][0]:.4f} s   median of "
        f"{len(rounds)} rounds {_spread(sums['reverify'])}",
        f"  setup_s      {metrics['setup_s'][0]:.4f} s   median of "
        f"{len(setups)} children {_spread(setups)}",
        f"  peak_rss_mb  {rss:.2f} MB  max of {len(all_ops)} children",
    ]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(runner, lines):
    """Per-layer metrics from the traced rounds, and whether every
    deterministic count agrees between traced rounds."""
    traced = [ops for ops in runner.rounds if ops[0].traced]
    plain = [ops for ops in runner.rounds if not ops[0].traced]
    per_round = []
    for ops in traced:
        per_op = []
        for op in ops:
            try:
                with open(os.path.join(runner.work, op.op_id + ".spans.json")) as fh:
                    per_op.append(tracer.layer_metrics(json.load(fh)["spans"]))
            except OSError:
                pass  # the op crashed, which already fails the gate
        per_round.append(tracer.combine_ops(per_op))

    def wall(ops):
        return sum(op.op_s or 0.0 for op in ops)
    ratio = statistics.median(map(wall, traced)) / statistics.median(map(wall, plain))
    counts_agree = True
    metrics = {}
    for name, unit, _ in tracer.METRICS:
        if name == "trace.overhead_ratio":
            value = ratio
        elif unit == "count":
            values = {r[name] for r in per_round}
            if len(values) > 1:
                counts_agree = False
                lines.append(f"  count {name} differs between traced rounds: "
                             f"{sorted(values)}")
            value = per_round[0][name]
        else:
            value = statistics.median(r[name] for r in per_round)
        metrics[name] = {"value": value, "unit": unit}
    lines.append(f"  {len(traced)} traced rounds, {len(plain)} untraced; "
                 f"trace.overhead_ratio {ratio:.3f}")
    width = max(len(n) for n, _, _ in tracer.METRICS)
    traced_s = sum(m["value"] for n, m in metrics.items() if n.endswith(".self_s"))
    for name, unit, _ in tracer.METRICS:
        value = metrics[name]["value"]
        share = f"  ({value / traced_s:.1%} of traced time)" \
            if name.endswith(".self_s") and traced_s else ""
        lines.append(f"  {name:<{width}}  {value:.6g} {unit}{share}")
    return metrics, counts_agree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join("src", "cohomcert", "cli.py")):
        print("perfbench: no src/cohomcert here; run from the repository root",
              file=sys.stderr)
        return 2

    seed_text = f"{args.workload}:{args.seed}"
    cases = WORKLOADS[args.workload](random.Random(seed_text))
    os.makedirs(".perfbench_work", exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=".perfbench_work")
    try:
        # untimed warm-up: byte-compiles cohomcert and proves it starts
        warm = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"),
             os.path.join(work, "warmup.result.json"), "-", "warmup", "list"],
            env=child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if warm.returncode != 0:
            print(f"perfbench: cohomcert does not start:\n{warm.stderr[-2000:]}",
                  file=sys.stderr)
            return 2
        defect_lines = probe_known_defects(args.workload, work)
        runner = Runner(cases, work, args.seconds, bool(args.trace), seed_text)
        elapsed = runner.execute()
        failed = gate(runner)
        attempted = sum(len(ops) for ops in runner.rounds) + len(runner.tampers)
        lines = [
            f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
            f"{len(runner.rounds)} rounds, {attempted} operations in "
            f"{elapsed:.1f} s, {LANES} at a time",
        ]
        counts_agree = True
        if args.trace:
            metrics, counts_agree = per_layer(runner, lines)
        else:
            metrics = end_to_end(runner, lines)
        lines.append(f"  op_failure_rate {len(failed) / attempted:.4f}  "
                     f"{len(failed)} of {attempted} operations failed")
        groups: dict = {}
        for op in failed:
            groups.setdefault((op.case.key, op.kind), []).append(op)
        for (key, kind), ops in groups.items():
            detail = ops[0].error.strip().splitlines()[-1][:160]
            lines.append(f"    {len(ops)} x {key} {kind}: {detail}")
        lines += defect_lines
        for op_id, note in runner.tamper_notes.items():
            lines.append(f"  tampered {op_id}: {note}")
        print("\n".join(lines))
        print(json.dumps({
            "correct": counts_agree and not failed,
            "attempted": attempted,
            "failed": len(failed),
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(".perfbench_work")
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())

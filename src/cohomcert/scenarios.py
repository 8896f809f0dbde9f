"""Named constructions bundled with their expected certificates.

Each scenario is a plan: a function from validated parameters to an
ordered list of checks.  A planned check carries its name, operation,
expected outcome and the certificate fields the parameters fix, a function
that issues it and, for some, one that issues it from a reported witness.
`run_scenario` validates the parameters, plans and issues every check.
`reverify` validates the parameters a report names, plans again and
derives, through the same path, the report that the plan and the reported
certificates imply; it accepts iff every derived check meets its expected
status and that report equals the given one as JSON, `seconds` left out.
So one implementation both issues and checks every certificate, no
reported field is taken on trust, and the only polynomials read back from
a report are census factors.

Reports are deterministic: identical runs produce identical payloads up to
the per-check wall-clock fields.
"""

from __future__ import annotations

import json
import re
import time
from collections.abc import Callable

from .cohomology import (
    CechClass,
    PipelineStepError,
    UnknownUpTo,
    ZeroAt,
    conjecture_membership_check,
    eta_annihilation,
    eta_torsion_check,
    is_zero_up_to,
    push_forward,
    verify_zero_at,
)
from .degree_solver import CertificationError, monomials_of_degree
from .groebner import (
    GuardExceededError,
    Ideal,
    QuotientRing,
    frobenius_power,
)
from .polyring import (
    GF,
    Multigrading,
    QQ,
    Polynomial,
    PolyRing,
    Record,
    ZZ,
    convert,
    domain_from_string,
    is_prime,
    monomial_divides,
    multidegree,
)
from .toeplitz import (
    ST_RING,
    QnPolynomial,
    build_matrix,
    census_json,
    census_rows_sound,
    chebyshev_identity_check,
    det_oracle,
    factor_census,
    generating_check,
    qn_recursive,
)

ARTIFACT_VERSION = "0.1.0"


class UnknownScenarioError(KeyError):
    pass


class BadParametersError(ValueError):
    """Parameters that a scenario's bounds or types reject."""


class MalformedReportError(ValueError):
    pass


class CheckResult(Record):
    name: str
    operation: str
    status: str                 # "pass" | "fail" | "unknown"
    expected_status: str        # what the scenario promises
    expected: object
    actual: object
    certificate: dict
    seconds: float
    diagnostics: dict

    @property
    def ok(self) -> bool:
        return self.status == self.expected_status

    def to_json_dict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}


class Report(Record):
    scenario: str
    description: str
    params: dict
    checks: tuple[CheckResult, ...]
    seconds: float

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "artifact": "cohomcert",
            "version": ARTIFACT_VERSION,
            "scenario": self.scenario,
            "description": self.description,
            "params": self.params,
            "passed": self.passed,
            "seconds": self.seconds,
            "checks": [c.to_json_dict() for c in self.checks],
        }


class PlannedCheck(Record):
    """One check of a plan.  `fixed` holds the certificate fields the
    parameters fix, "kind" among them.  `issue()` runs the check and
    returns (status, actual, witness fields).  `verify(certificate)`, when
    given, issues the check from a reported certificate instead: it reads
    the witness from it rather than searching, and returns the same
    triple.  A check reads no other check's outcome: a fact it needs from
    another planned check it decides by issuing that check itself."""

    name: str
    operation: str
    expected: object
    fixed: dict
    issue: Callable
    verify: Callable | None = None
    expected_status: str = "pass"


def _same(a, b) -> bool:
    """Equal as JSON: unlike ==, 1 differs from 1.0 and from true.  A value
    both sides share, such as the census rows a report hands to its own
    check, is not walked."""
    if a is b or type(a) is not type(b):
        return a is b
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(v, b[k]) for k, v in a.items())
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def abbreviate(value, limit: int = 100) -> str:
    """A string as it is, any other value as JSON, cut to at most `limit`
    characters: how a message echoes a value of unbounded size.  Messages
    about parameters pass repr(value)."""
    text = value if isinstance(value, str) else json.dumps(value, sort_keys=True)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _ring_json(ring: PolyRing) -> dict:
    return {"variables": list(ring.variables), "domain": str(ring.domain)}


def _guarded_check(planned: PlannedCheck, certificate=None) -> CheckResult:
    """Issue a planned check, from a reported certificate if it has a
    verify, turning degree-guard aborts and pipeline failures into failed
    checks with diagnostics instead of crashes."""
    t0 = time.perf_counter()
    diagnostics = {}
    try:
        status, actual, witness = planned.issue() if certificate is None or \
            planned.verify is None else planned.verify(certificate)
        certificate = {**planned.fixed, **witness}
    except GuardExceededError as exc:
        status, actual = "fail", f"degree guard: {exc}"
        certificate, diagnostics = {"kind": "aborted"}, exc.diagnostics.as_dict()
    except (PipelineStepError, CertificationError) as exc:
        status, actual = "fail", str(exc)
        certificate = {"kind": "aborted"}
    return CheckResult(
        name=planned.name,
        operation=planned.operation,
        status=status,
        expected_status=planned.expected_status,
        expected=planned.expected,
        actual=actual,
        certificate=certificate,
        seconds=time.perf_counter() - t0,
        diagnostics=diagnostics,
    )


# --------------------------------------------------------------------------
# scenario plans


def _socle_kill(name: str, cls: CechClass, k_max: int) -> PlannedCheck:
    def issue(verdict=None):
        verdict = verdict or is_zero_up_to(cls, k_max)
        ok = isinstance(verdict, ZeroAt) and verdict.k <= 2
        return ("pass" if ok else "fail"), verdict.to_json_dict(), \
            {"k": getattr(verdict, "k", None)}

    def verify(cert):
        # the claim is k <= 2, so one membership test re-checks the witness
        k = cert["k"]
        ok = type(k) is int and 0 <= k <= 2 and verify_zero_at(cls, ZeroAt(k))
        return issue(ZeroAt(k) if ok else UnknownUpTo(2))

    return PlannedCheck(
        name, "is_zero_up_to", {"verdict": "zero_at", "k_at_most": 2},
        {"kind": "zero_at", "class": cls.to_json_dict()}, issue, verify,
    )


def _socle_nonzero(name: str, cls: CechClass, k_max: int) -> PlannedCheck:
    def issue():
        # vanishing is monotone in k, so a class that survives level k_max
        # survives every level below it: one membership test decides
        # "unknown", and only a class that vanishes needs the search
        verdict = is_zero_up_to(cls, k_max) \
            if verify_zero_at(cls, ZeroAt(k_max)) else UnknownUpTo(k_max)
        status = "unknown" if isinstance(verdict, UnknownUpTo) else "fail"
        return status, verdict.to_json_dict(), {}

    return PlannedCheck(
        name, "is_zero_up_to",
        {"verdict": "unknown_up_to",
         "note": "bounded search cannot certify nonvanishing; the "
                 "construction's nonzero claim is prose, reported as unknown"},
        {"kind": "unknown_up_to", "class": cls.to_json_dict(), "k_max": k_max},
        issue, expected_status="unknown",
    )


def _plan_hartshorne(params) -> list[PlannedCheck]:
    p, n_max, k_max = params["p"], params["n_max"], params["k_max"]
    ring = PolyRing(("w", "x", "y", "z"), GF(p))
    w, x, y, z = ring.gens()
    quotient = QuotientRing(ring, (w * x - y * z,))
    plan = []
    for n in range(0, n_max + 1):
        base = CechClass(quotient, (x, y), n + 1, y ** n * z ** n)
        for gname, g in zip(("w", "x", "y", "z"), (w, x, y, z)):
            plan.append(_socle_kill(f"socle-kill-n{n}-{gname}", base.scale(g), k_max))
        plan.append(_socle_nonzero(f"socle-nonzero-n{n}", base, k_max))
    return plan


def _plan_singh_p_torsion(params) -> list[PlannedCheck]:
    plan = []
    for p in params["primes"]:
        annihilation = eta_annihilation(p)
        cls, seq_cofactors, rel_cofactor = annihilation

        def issue(p=p, annihilation=annihilation):
            cert = eta_torsion_check(p, annihilation)
            return "pass", {
                "p_times_class_vanishes_at": cert.annihilation.k,
                "nonvanishing_witness":
                    cert.nonvanishing.certificate.witness_monomial,
            }, {"nonvanishing": cert.nonvanishing.to_json_dict()}
        plan.append(PlannedCheck(
            f"p-torsion-p{p}", "eta_torsion_check",
            {"p_torsion": True, "nonzero": True},
            {"kind": "torsion", "p": p, "class": cls.to_json_dict(),
             "annihilation": {
                 **ZeroAt(0).to_json_dict(),
                 "sequence_cofactors": [str(c) for c in seq_cofactors],
                 "relation_cofactor": str(rel_cofactor),
             }},
            issue,
        ))
    return plan


def _plan_ptor2(params) -> list[PlannedCheck]:
    # the instance is fixed: f = (x, y, z), g = (yz, zx, -2xy), sum f_i g_i = 0
    ring = PolyRing(("x", "y", "z"), ZZ)
    x, y, z = ring.gens()
    f_list, g_list = [x, y, z], [y * z, z * x, -2 * x * y]
    p, e = params["p"], params["e"]
    k = p ** e - 1
    plan = []
    for dom_str in params["domains"]:
        def issue(dom=domain_from_string(dom_str)):
            value = conjecture_membership_check(f_list, g_list, p, e, k, dom)
            return ("pass" if value else "fail"), value, {}
        plan.append(PlannedCheck(
            f"membership-k{k}-{dom_str}", "conjecture_membership_check", True,
            {"kind": "conjecture_instance",
             "variables": list(ring.variables),
             "f": [str(t) for t in f_list],
             "g": [str(t) for t in g_list],
             "p": p, "e": e, "k": k,
             "domain": dom_str,
             "expected": True,
             "note": (
                 "membership verified over this domain is a necessary "
                 "consequence of the integer-level theorem; the Z-level "
                 "statement is stronger and not decided by this engine"
             )},
            issue,
        ))
    return plan


def _colon_check(name, operation, n, quotient: QuotientRing, ideal: Ideal,
                 element: Polynomial, weights, fixed) -> PlannedCheck:
    """(ideal : element) in K[s,t][y]/(relation), contracted to K[s,t], is
    (Q_(n-1)).  `weights` grade y, s and t have degree 0, and the ideal is
    generated by monomials in y, so the element's component modulo the
    ideal is free over K[s,t] on the monomials it misses.  The relation
    times the monomials one relation-degree lower must give exactly the
    tridiagonal M_(n-1) there, and the element s*e_1.  v_i = (-1)^(i+1)
    s^i Q_(n-1-i) has M v = s Q_(n-1) e_1, so Q_(n-1) is in the colon; rows
    2..n-1 of M have rank n-2, so g*s*e_1 = M w forces w = (g/Q_(n-1)) v,
    and as v ends in +-s^(n-1) and s does not divide Q_(n-1), Q_(n-1) | g.
    At n = 1 the element lies in the ideal.  Re-checking issues it again."""
    ring, m = quotient.ring, n - 1
    st = PolyRing(("s", "t"), ring.domain)
    s = st.gen("s")
    q = convert(qn_recursive(m).poly, st)
    # the reduced basis of (q) is q divided by its leading coefficient
    names = [str(q * ring.domain.inv(q.sorted_terms()[0][1]))]

    def survivors(f, killers):
        """f modulo the ideal, as {exponent of y: K[s,t] coefficient}."""
        out: dict = {}
        for e, c in f.terms.items():
            if not any(monomial_divides(k, e[2:]) for k in killers):
                out.setdefault(e[2:], {})[e[:2]] = c
        return {key: Polynomial(st, terms, _normalized=True) for key, terms in out.items()}

    def obstruction():
        if any(len(g.terms) != 1 or next(iter(g.terms))[:2] != (0, 0)
               for g in ideal.generators):
            return "an ideal generator is not a monomial in the graded variables"
        killers = [next(iter(g.terms))[2:] for g in ideal.generators]
        (relation,) = quotient.relations
        grading = Multigrading(((0,) * len(weights[0]),) * 2 + weights)
        rel_degree, target = multidegree(relation, grading), multidegree(element, grading)
        if not (isinstance(rel_degree, tuple) and isinstance(target, tuple)):
            return "the relation or the element is not homogeneous"
        rows = [e for e in monomials_of_degree(weights, target)
                if not any(monomial_divides(k, e) for k in killers)]
        below = tuple(a - b for a, b in zip(target, rel_degree))
        columns = [column for column in (
            {rows.index(key): c for key, c in
             survivors(relation * ring.monomial((0, 0) + e), killers).items()}
            for e in monomials_of_degree(weights, below)) if column]
        if len(rows) != m or len(columns) != m:
            return f"the component has {len(rows)} coordinates and " \
                   f"{len(columns)} relations, not {m} and {m}"
        if m == 0:
            return None if q == st.one() else f"Q_0 = {q} is not 1"
        if columns != [{i: convert(c, st) for i, c in enumerate(column) if not c.is_zero}
                       for column in zip(*build_matrix(m).entries)]:
            return f"the relations are not the columns of M_{m}"
        if survivors(element, killers) != {rows[0]: s}:
            return "the element is not s*e_1"
        v = [(-1) ** (i + 1) * s ** i * convert(qn_recursive(m - i).poly, st)
             for i in range(1, m + 1)]
        if [sum((col[i] * vj for col, vj in zip(columns, v) if i in col), st.zero())
                for i in range(m)] != [s * q] + [st.zero()] * (m - 1):
            return f"M v is not s*Q_{m}*e_1"
        if v[-1] not in (s ** m, -(s ** m)) or q.terms.get((0, m)) != 1:
            return f"v does not end in +-s^{m}, or s divides Q_{m}"
        return None

    def issue():
        reason = obstruction()
        return ("pass", names, {"computed_generators": names}) if reason is None \
            else ("fail", reason, {"computed_generators": []})

    return PlannedCheck(
        name, operation, [str(qn_recursive(m).poly)],
        {**fixed, "subring_variables": ["s", "t"], "expected_generators": names},
        issue,
    )


def _annihilator_check(name, cech: CechClass, k: int, weights, **extra):
    pushed = push_forward(cech, k)
    return _colon_check(
        name, "annihilator_in_subring", cech.m, cech.ring,
        pushed.power_ideal(), pushed.numerator, weights,
        {"kind": "annihilator", "class": cech.to_json_dict(), "k": k, **extra},
    )


def _plan_ring_a(params) -> list[PlannedCheck]:
    p, n_max = params["p"], params["n_max"]
    ring = PolyRing(("s", "t", "a", "b"), GF(p))
    s, t, a, b = ring.gens()
    relation = s * a ** 2 + t * a * b + s * b ** 2
    quotient = QuotientRing(ring, (relation,))
    note = (
        "relation s*a^2 + t*a*b + s*b^2: the coefficient s on b^2 is forced "
        "by the displayed presentation matrix (diagonals s, t, s) and by "
        "B/cB; with b^2 alone the colon comes out as (t^2 - s), not (Q_2)"
    )
    return [
        _annihilator_check(
            f"colon-n{n}", CechClass(quotient, (a, b), n, s * a * b ** (n - 1)),
            0, ((1,), (1,)), note=note,
        )
        for n in range(1, n_max + 1)
    ]


def _plan_ring_b(params) -> list[PlannedCheck]:
    p, n_max = params["p"], params["n_max"]
    ring = PolyRing(("s", "t", "a", "b", "c"), GF(p))
    s, t, a, b, c = ring.gens()
    relation = s * a ** 2 + s * b ** 2 + t * a * b + t * c ** 2
    quotient = QuotientRing(ring, (relation,))
    plan = []
    for n in range(1, n_max + 1):
        # (a^n, b^n, c) : s a b^{n-1}, contracted to K[s,t]
        ideal = Ideal(ring, (a ** n, b ** n, c))
        element = s * a * b ** (n - 1)
        plan.append(_colon_check(
            f"colon-n{n}", "colon+eliminate", n, quotient, ideal, element,
            ((1,), (1,), (1,)),
            {"kind": "colon_contraction", "ring": _ring_json(ring),
             "relations": [str(relation)],
             "ideal_generators": [str(g) for g in ideal.generators],
             "colon_element": str(element)},
        ))
    return plan


def _singh_swanson_ring(p):
    ring = PolyRing(("s", "t", "u", "v", "w", "x", "y", "z"), GF(p))
    s, t, u, v, w, x, y, z = ring.gens()
    relation = (s * u ** 2 * x ** 2 + s * v ** 2 * y ** 2
                + t * u * x * v * y + t * w ** 2 * z ** 2)
    return ring, relation


def _plan_singh_swanson(params) -> list[PlannedCheck]:
    p, n_max, k = params["p"], params["n_max"], params["k"]
    q_list = params["q_list"]
    ring, relation = _singh_swanson_ring(p)
    s, t, u, v, w, x, y, z = ring.gens()
    quotient = QuotientRing(ring, (relation,))
    annihilators = {
        n: _annihilator_check(
            f"annihilator-n{n}",
            CechClass(quotient, (x, y, z), n,
                      s * (u * x) * (v * y) ** (n - 1) * z ** (n - 1)),
            # u..z graded by (deg x - deg u, deg y - deg v, deg z - deg w,
            # deg x + deg y + deg z)
            k, ((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0),
                (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1)),
        )
        for n in sorted(set(range(1, n_max + 1)) | set(q_list))
    }
    plan = list(annihilators.values())
    for q in q_list:
        bracket = frobenius_power(Ideal(ring, (x, y, z)), q)

        def issue(q=q, bracket=bracket):
            same = bracket.generators == (x ** q, y ** q, z ** q)
            ann_ok = annihilators[q].issue()[0] == "pass"
            return ("pass" if same and ann_ok else "fail"), {
                "bracket_power_matches": same,
                "annihilator_witness_passes": ann_ok,
            }, {}
        plan.append(PlannedCheck(
            f"frobenius-witness-q{q}", "frobenius_power", True,
            {"kind": "frobenius_witness",
             "ring": _ring_json(ring),
             "q": q,
             "bracket_generators": [str(g) for g in bracket.generators],
             "witness_annihilator_check": f"annihilator-n{q}",
             "note": (
                 "the Frobenius-power systems {S/(x^q,y^q,z^q)} are cofinal "
                 "with {S/(x^n,y^n,z^n)}, so the annihilator witness at "
                 "n = q exhibits the associated prime as one of "
                 "Ass S/(x,y,z)^[q]; the passage from infinitely many "
                 "annihilators to infinitely many associated primes is a "
                 "cited implication, not machine-checked"
             )},
            issue,
        ))
    return plan


def _plan_katzman(params) -> list[PlannedCheck]:
    ring = PolyRing(("s", "t", "u", "v", "x", "y"), QQ)
    s, t, u, v, x, y = ring.gens()
    lhs = s * u ** 2 * x ** 2 - (s + t) * u * x * v * y + t * v ** 2 * y ** 2
    factors = (s * u * x - t * v * y, u * x - v * y)

    def issue():
        return ("pass" if lhs == factors[0] * factors[1] else "fail"), str(lhs), {}

    return [PlannedCheck(
        "defining-equation-factors", "polynomial_identity",
        "(s*u*x - t*v*y)*(u*x - v*y)",
        {"kind": "polynomial_identity",
         "ring": _ring_json(ring),
         "lhs": str(lhs),
         "rhs_factors": [str(f) for f in factors],
         "note": (
             "the factorization shows this hypersurface is not a domain; "
             "the infinitude of Ass for it is reported as context only"
         )},
        issue,
    )]


def _sabotaged_family(n: int) -> QnPolynomial:
    if n == 2:
        return QnPolynomial(2, ST_RING.parse("t^2"))
    return qn_recursive(n)


def _plan_toeplitz_suite(params) -> list[PlannedCheck]:
    n_max = params["n_max"]
    N = params["generating_order"]
    roots_n_max = params["roots_n_max"]
    census_p, census_n_max = params["census_p"], params["census_n_max"]
    plan = []
    for n in range(1, n_max + 1):
        def issue(n=n):
            lhs = qn_recursive(n).poly
            rhs = det_oracle(build_matrix(n))
            return ("pass" if lhs == rhs else "fail"), str(rhs), \
                {"polynomial": str(lhs)}

        def verify(cert, n=n):
            # the recursion is linear; the determinant oracle is not re-run,
            # and the reported polynomial stands for its value
            lhs, rhs = str(qn_recursive(n).poly), cert["polynomial"]
            return ("pass" if lhs == rhs else "fail"), rhs, {"polynomial": lhs}
        plan.append(PlannedCheck(
            f"recursion-vs-oracle-n{n}", "det_oracle", "equal",
            {"kind": "toeplitz_equality", "n": n}, issue, verify,
        ))

    def gen_issue():
        value = generating_check(N)
        return ("pass" if value else "fail"), value, {"value": value}
    plan.append(PlannedCheck(
        "generating-function", "generating_check", True,
        {"kind": "generating", "order": N}, gen_issue,
    ))

    def sab_issue():
        value = generating_check(N, family=_sabotaged_family)
        return ("pass" if value is False else "fail"), value, {"value": value}
    plan.append(PlannedCheck(
        "generating-sabotage", "generating_check", False,
        {"kind": "generating_sabotage", "order": N}, sab_issue,
    ))

    for n in range(1, roots_n_max + 1):
        def roots_issue(n=n):
            value = chebyshev_identity_check(n)
            return ("pass" if value else "fail"), value, {"value": value}
        plan.append(PlannedCheck(
            f"chebyshev-identity-n{n}", "chebyshev_identity_check", True,
            {"kind": "chebyshev", "n": n}, roots_issue,
        ))

    def census_outcome(census):
        counts = [row["cumulative_count"] for row in census["rows"]]
        monotone = all(a <= b for a, b in zip(counts, counts[1:]))
        return ("pass" if monotone else "fail"), {
            "cumulative_count": counts[-1],
            "monotone": monotone,
            "factors_certified_irreducible_and_reconstruct": True,
        }, {"census": census}

    def census_verify(cert):
        # as many rows as the parameters ask for, before any arithmetic;
        # sound rows are rows n = 1..n_max and fix every other field
        rows = cert["census"]["rows"]
        sound = len(rows) == census_n_max and census_rows_sound(census_p, rows)
        return census_outcome(census_json(census_p, census_n_max, rows)) if sound \
            else ("fail", "the census rows fail the row check", {})

    def census_issue():
        # factor_census returns only a census whose rows census_rows_sound,
        # the check census_verify makes, has accepted
        return census_outcome(factor_census(census_n_max, census_p).to_json_dict())
    plan.append(PlannedCheck(
        "factor-census", "factor_census",
        {"monotone": True, "factors_certified_irreducible_and_reconstruct": True},
        {"kind": "census"}, census_issue, census_verify,
    ))
    return plan


# --------------------------------------------------------------------------
# registry


class Scenario(Record):
    name: str
    description: str
    defaults: dict
    bounds: dict
    plan: Callable[[dict], list[PlannedCheck]]


# the primes singh-p-torsion and ptor2-theorem accept: the torsion
# pipeline's enumeration and lambda_p, and the ptor2 coefficients 2^(p^e),
# all grow with p, so p comes from a fixed range
TORSION_PRIME_BOUNDS = (2, 31)

# the largest modulus a scenario or a census certificate may name (p,
# census_p, GF(p) domains); checked before any primality test
PRIME_BOUND = 2 ** 64

_SCENARIOS = (
    Scenario(
        "hartshorne",
        "socle classes of H^2_(x,y) of K[w,x,y,z]/(wx-yz): each of w,x,y,z "
        "kills [y^n z^n + (x^(n+1), y^(n+1))]; the nonzero half is reported "
        "as unknown (bounded search only)",
        {"p": 101, "n_max": 4, "k_max": 6},
        {"n_max": (0, 8), "k_max": (0, 12)},
        _plan_hartshorne,
    ),
    Scenario(
        "singh-p-torsion",
        "p-torsion classes eta_p in H^3_(x,y,z) of Z[u,v,w,x,y,z]/(ux+vy+wz) "
        "for each requested prime, with the five-step weight-reduction "
        "nonvanishing certificate",
        {"primes": [2, 3, 5, 7]},
        {},
        _plan_singh_p_torsion,
    ),
    Scenario(
        "ptor2-theorem",
        "the k = q-1 membership for a regular-sequence instance, over Q and "
        "a prime field (necessary consequences of the integer statement)",
        {"p": 3, "e": 1, "domains": ["QQ", "GF(5)"]},
        {"p": TORSION_PRIME_BOUNDS, "e": (1, 3)},
        _plan_ptor2,
    ),
    Scenario(
        "ring-A-colon",
        "(a^n, b^n) : s a b^(n-1) contracted to K[s,t] equals (Q_(n-1)) in "
        "K[s,t,a,b]/(s a^2 + t a b + s b^2)",
        {"p": 101, "n_max": 4},
        {"n_max": (1, 8)},
        _plan_ring_a,
    ),
    Scenario(
        "ring-B-colon",
        "(a^n, b^n, c) : s a b^(n-1) contracted to K[s,t] equals (Q_(n-1)) "
        "in K[s,t,a,b,c]/(s a^2 + s b^2 + t a b + t c^2)",
        {"p": 101, "n_max": 3},
        {"n_max": (1, 6)},
        _plan_ring_b,
    ),
    Scenario(
        "singh-swanson-S",
        "ann_(K[s,t]) of eta_n in the normal hypersurface S equals (Q_(n-1)); "
        "the n = q cases double as Frobenius-power witnesses",
        {"p": 2, "n_max": 3, "k": 0, "q_list": [2]},  # q_list: [p] unless given
        {"n_max": (1, 8), "k": (0, 2)},
        _plan_singh_swanson,
    ),
    Scenario(
        "katzman-factorization",
        "the defining equation s u^2 x^2 - (s+t) u x v y + t v^2 y^2 factors "
        "as (s u x - t v y)(u x - v y), exactly",
        {},
        {},
        _plan_katzman,
    ),
    Scenario(
        "toeplitz-suite",
        "recursion vs determinant oracle, generating function, exact "
        "complex-root identity, and the irreducible-factor census over F_p",
        {
            "n_max": 10, "generating_order": 12, "roots_n_max": 10,
            "census_p": 5, "census_n_max": 16,
        },
        {"n_max": (1, 12), "generating_order": (2, 64),
         "roots_n_max": (1, 64), "census_n_max": (1, 64)},
        _plan_toeplitz_suite,
    ),
)

_REGISTRY = {s.name: s for s in _SCENARIOS}


def list_scenarios() -> list[tuple[str, str]]:
    """Names and one-line descriptions, in registry order."""
    return [(s.name, s.description) for s in _SCENARIOS]


def _is_field_name(text) -> bool:
    """Is text "QQ" or "GF(p)" with p a prime at most PRIME_BOUND?"""
    if not isinstance(text, str):
        return False
    try:
        m = re.fullmatch(r"GF\((\d+)\)", text.strip())
        if m and int(m.group(1)) > PRIME_BOUND:
            return False
        return domain_from_string(text).is_field
    except ValueError:
        return False


def _validated_params(scenario: Scenario, overrides: dict | None) -> dict:
    params = dict(scenario.defaults)
    for key, value in (overrides or {}).items():
        if key not in scenario.defaults:
            raise BadParametersError(
                f"unknown parameter {abbreviate(repr(key))} for scenario "
                f"{scenario.name!r}; "
                f"accepted: {sorted(scenario.defaults)}"
            )
        params[key] = value
    # a report's lists must not alias the registry's defaults (or the caller's)
    params = {k: list(v) if isinstance(v, list) else v for k, v in params.items()}
    for key, (lo, hi) in scenario.bounds.items():
        v = params[key]
        if type(v) is not int or not lo <= v <= hi:
            raise BadParametersError(
                f"parameter {key}={abbreviate(repr(v))} outside documented "
                f"bounds [{lo}, {hi}]"
            )
    for key in ("p", "census_p"):
        if key not in params:
            continue
        v = params[key]
        if type(v) is not int or v > PRIME_BOUND:
            raise BadParametersError(
                f"parameter {key}={abbreviate(repr(v))} must be an int at most 2^64")
        if not is_prime(v):
            raise BadParametersError(f"parameter {key}={v} must be prime")
    # one check per entry: an empty list would pass with nothing checked
    for key in ("primes", "domains"):
        if key in params and (not isinstance(params[key], list) or not params[key]):
            raise BadParametersError(
                f"parameter {key}={abbreviate(repr(params[key]))} must be a nonempty list")
    if "domains" in params:
        bad = [d for d in params["domains"] if not _is_field_name(d)]
        if bad:
            raise BadParametersError(
                "domains entries must name QQ or GF(p), p a prime at most 2^64: "
                + abbreviate(repr(bad))
            )
    if "primes" in params:
        primes = params["primes"]
        lo, hi = TORSION_PRIME_BOUNDS
        if not all(type(p) is int and lo <= p <= hi for p in primes):
            raise BadParametersError(
                f"parameter primes={abbreviate(repr(primes))} outside documented bounds "
                f"[{lo}, {hi}]"
            )
        bad = [p for p in primes if not is_prime(p)]
        if bad:
            raise BadParametersError(f"non-prime entries in primes: {abbreviate(repr(bad))}")
        if len(set(primes)) != len(primes):
            raise BadParametersError(f"repeated entries in primes: {abbreviate(repr(primes))}")
    if "q_list" in params:
        # each q is an annihilator level, so it takes the bounds of n_max;
        # unless given, q_list is [p] when p is inside them and else empty
        lo, hi = scenario.bounds["n_max"]
        p = params["p"]
        if "q_list" not in (overrides or {}):
            params["q_list"] = [p] if p <= hi else []
        q_list = params["q_list"]
        if not isinstance(q_list, list) or \
                not all(type(q) is int and lo <= q <= hi for q in q_list) or \
                len(set(q_list)) != len(q_list):
            raise BadParametersError(
                f"parameter q_list={abbreviate(repr(q_list))} must list distinct ints "
                f"in [{lo}, {hi}]"
            )
        powers = {p ** i for i in range(hi.bit_length())}  # all those up to hi
        bad = [q for q in q_list if q not in powers]
        if bad:
            raise BadParametersError(
                f"q_list entries that are not powers of p = {p}: {abbreviate(repr(bad))}")
    return params


def check_census_params(n_max, p) -> None:
    """Raise ValueError unless toeplitz-suite would accept n_max and p as
    its census_n_max and census_p: n_max inside its bounds, p a prime at
    most PRIME_BOUND (the bound is checked before the primality test)."""
    _validated_params(_REGISTRY["toeplitz-suite"],
                      {"census_n_max": n_max, "census_p": p})


def overrides_for_all(overrides: dict) -> dict[str, dict]:
    """The overrides of a run of every scenario, split by scenario: each key
    goes only to the scenarios whose defaults carry it, and p not to one
    whose fields are named by domains (ptor2-theorem, where p is the prime
    of q = p^e).  A key that no scenario accepts is a ValueError."""
    unknown = set(overrides) - {k for s in _SCENARIOS for k in s.defaults}
    if unknown:
        raise ValueError(
            f"no scenario accepts parameter(s) {abbreviate(repr(sorted(unknown)))}")
    return {s.name: {k: v for k, v in overrides.items() if k in s.defaults
                     and not (k == "p" and "domains" in s.defaults)}
            for s in _SCENARIOS}


def run_scenario(name: str, params: dict | None = None) -> Report:
    """Execute a named scenario; the Report passes iff every check meets
    its expected outcome."""
    if name not in _REGISTRY:
        raise UnknownScenarioError(
            f"unknown scenario {name!r}; available: {[s.name for s in _SCENARIOS]}"
        )
    scenario = _REGISTRY[name]
    merged = _validated_params(scenario, params)
    t0 = time.perf_counter()
    checks = tuple(_guarded_check(planned) for planned in scenario.plan(merged))
    return Report(
        scenario=name,
        description=scenario.description,
        params=merged,
        checks=checks,
        seconds=time.perf_counter() - t0,
    )


# --------------------------------------------------------------------------
# certificate re-verification


def reverify(report) -> bool:
    """Re-derive a report from the plan of the scenario it names and the
    certificates it carries, through the path run_scenario takes.

    Accepts a Report or its JSON dict form.  Raises MalformedReportError
    when the payload is not a report of this artifact, names no known
    scenario, has no checks, or has a check of the planned name and
    operation whose certificate is of another kind.  Returns False, before
    any arithmetic, when its parameters are not exactly the validated ones
    or its checks are not as many as planned.  Otherwise it accepts iff
    every derived check meets its expected status and the derived report
    equals the given one as JSON, `seconds` left out at the top level and
    in each check.
    """
    if isinstance(report, Report):
        report = report.to_json_dict()
    if not isinstance(report, dict) or report.get("artifact") != "cohomcert":
        raise MalformedReportError("not a cohomcert report")
    checks = report.get("checks")
    if not isinstance(checks, list) or not checks:
        raise MalformedReportError("report carries no checks")
    name = report.get("scenario")
    if not isinstance(name, str) or name not in _REGISTRY:
        raise MalformedReportError(f"unknown scenario {name!r}")
    scenario = _REGISTRY[name]
    params = report.get("params")
    try:
        if not isinstance(params, dict) or _validated_params(scenario, params) != params:
            return False
    except ValueError:
        return False
    plan = scenario.plan(params)
    if len(plan) != len(checks):
        return False
    for planned, check in zip(plan, checks):
        try:
            kind = check["certificate"].get("kind")
            relabelled = (check.get("name"), check.get("operation")) != \
                (planned.name, planned.operation)
        except (TypeError, KeyError, AttributeError) as exc:
            raise MalformedReportError(f"malformed check entry: {exc}") from exc
        if kind != planned.fixed["kind"] and not relabelled:
            raise MalformedReportError(
                f"check {planned.name}: certificate kind {kind!r}, "
                f"planned {planned.fixed['kind']!r}"
            )
    try:
        derived = Report(name, scenario.description, params, tuple(
            _guarded_check(planned, check["certificate"])
            for planned, check in zip(plan, checks)), report.get("seconds"))
    except Exception:
        return False
    derived_json = derived.to_json_dict()
    for mine, theirs in zip(derived_json["checks"], checks):
        mine["seconds"] = theirs.get("seconds")
    return derived.passed and _same(derived_json, report)

"""Named constructions bundled with their expected certificates.

Each scenario builds a ring presentation, runs an ordered list of checks
through the polynomial / Groebner / cohomology machinery, and returns a
Report whose certificates carry enough data for a third party to re-check
the verdicts offline (reverify) without re-deriving the expensive parts.

Reports are deterministic: identical runs produce identical payloads up to
the per-check wall-clock fields.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .cohomology import (
    CechClass,
    PipelineStepError,
    UnknownUpTo,
    ZeroAt,
    annihilator_in_subring,
    conjecture_membership_check,
    eta_torsion_check,
    is_zero_up_to,
    torsion_ring,
    verify_zero_at,
    WEIGHT_TABLE,
)
from .degree_solver import (
    CertificationError,
    MonomialFamily,
    monomials_of_degree,
    unique_monomial_family,
)
from .groebner import (
    GuardExceededError,
    Ideal,
    QuotientRing,
    buchberger,
    colon,
    eliminate,
    frobenius_power,
    ideal_equal,
    membership,
    membership_monomial_plus_p,
)
from .polyring import (
    GF,
    QQ,
    Multigrading,
    Polynomial,
    PolyRing,
    ZZ,
    convert,
    domain_from_string,
    is_prime,
    multidegree,
    reduce_mod_p,
    restrict_to_variables,
)
from .toeplitz import (
    ST_RING,
    QnPolynomial,
    build_matrix,
    det_oracle,
    factor_census,
    generating_check,
    irreducibility_certified,
    qn_dehomogenized,
    qn_recursive,
    roots_numeric_check,
)

ARTIFACT_VERSION = "0.1.0"


class UnknownScenarioError(KeyError):
    pass


class MalformedReportError(ValueError):
    pass


@dataclass(frozen=True)
class CheckResult:
    name: str
    operation: str
    status: str                 # "pass" | "fail" | "unknown"
    expected_status: str        # what the scenario promises
    expected: object
    actual: object
    certificate: dict
    seconds: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == self.expected_status

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "operation": self.operation,
            "status": self.status,
            "expected_status": self.expected_status,
            "expected": self.expected,
            "actual": self.actual,
            "certificate": self.certificate,
            "seconds": self.seconds,
            "diagnostics": self.diagnostics,
        }


@dataclass(frozen=True)
class Report:
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


def _ring_json(ring: PolyRing) -> dict:
    return {"variables": list(ring.variables), "domain": str(ring.domain)}


def _ring_from_json(d: dict) -> PolyRing:
    return PolyRing(tuple(d["variables"]), domain_from_string(d["domain"]))


def _class_from_json(d: dict) -> CechClass:
    ring = PolyRing(tuple(d["variables"]), domain_from_string(d["domain"]))
    quotient = QuotientRing(ring, tuple(ring.parse(r) for r in d["relations"]))
    return CechClass(
        quotient,
        tuple(ring.parse(x) for x in d["sequence"]),
        int(d["m"]),
        ring.parse(d["numerator"]),
    )


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _guarded_check(name, operation, expected, builder, expected_status="pass"):
    """Run a check body, turning degree-guard aborts and pipeline failures
    into failed checks with diagnostics instead of crashes."""
    t0 = time.perf_counter()
    try:
        status, actual, certificate, diagnostics = builder()
    except GuardExceededError as exc:
        status, actual = "fail", f"degree guard: {exc}"
        certificate, diagnostics = {"kind": "aborted"}, exc.diagnostics.as_dict()
    except (PipelineStepError, CertificationError) as exc:
        status, actual = "fail", str(exc)
        certificate, diagnostics = {"kind": "aborted"}, {}
    return CheckResult(
        name=name,
        operation=operation,
        status=status,
        expected_status=expected_status,
        expected=expected,
        actual=actual,
        certificate=certificate,
        seconds=time.perf_counter() - t0,
        diagnostics=diagnostics,
    )


# --------------------------------------------------------------------------
# scenario bodies


def _run_hartshorne(params) -> list[CheckResult]:
    p, n_max, k_max = params["p"], params["n_max"], params["k_max"]
    ring = PolyRing(("w", "x", "y", "z"), GF(p))
    w, x, y, z = ring.gens()
    quotient = QuotientRing(ring, (w * x - y * z,))
    checks = []
    for n in range(0, n_max + 1):
        base = CechClass(quotient, (x, y), n + 1, y ** n * z ** n)
        for gname, g in zip(("w", "x", "y", "z"), (w, x, y, z)):
            def body(base=base, g=g):
                verdict = is_zero_up_to(base.scale(g), k_max)
                cert = {
                    "kind": "zero_at",
                    "class": base.scale(g).to_json_dict(),
                    "k": getattr(verdict, "k", None),
                }
                ok = isinstance(verdict, ZeroAt) and verdict.k <= 2
                return ("pass" if ok else "fail",
                        verdict.to_json_dict(), cert, {})
            checks.append(_guarded_check(
                f"socle-kill-n{n}-{gname}", "is_zero_up_to",
                {"verdict": "zero_at", "k_at_most": 2}, body,
            ))
        def nonzero_body(base=base):
            verdict = is_zero_up_to(base, k_max)
            cert = {
                "kind": "unknown_up_to",
                "class": base.to_json_dict(),
                "k_max": k_max,
            }
            status = "unknown" if isinstance(verdict, UnknownUpTo) else "fail"
            return status, verdict.to_json_dict(), cert, {}
        checks.append(_guarded_check(
            f"socle-nonzero-n{n}", "is_zero_up_to",
            {"verdict": "unknown_up_to",
             "note": "bounded search cannot certify nonvanishing; the "
                     "construction's nonzero claim is prose, reported as unknown"},
            nonzero_body, expected_status="unknown",
        ))
    return checks


def _run_singh_p_torsion(params) -> list[CheckResult]:
    checks = []
    for p in params["primes"]:
        def body(p=p):
            cert = eta_torsion_check(p)
            return "pass", {
                "p_times_class_vanishes_at": cert.annihilation.k,
                "nonvanishing_witness":
                    cert.nonvanishing.certificate.witness_monomial,
            }, cert.to_json_dict(), {}
        checks.append(_guarded_check(
            f"p-torsion-p{p}", "eta_torsion_check",
            {"p_torsion": True, "nonzero": True}, body,
        ))
    return checks


def _run_ptor2(params) -> list[CheckResult]:
    variables = tuple(params["variables"])
    ring = PolyRing(variables, ZZ)
    f_list = [ring.parse(s) for s in params["f"]]
    g_list = [ring.parse(s) for s in params["g"]]
    p, e = params["p"], params["e"]
    q = p ** e
    k = q - 1
    checks = []
    for dom_str in params["domains"]:
        def body(dom_str=dom_str):
            dom = domain_from_string(dom_str)
            value = conjecture_membership_check(f_list, g_list, p, e, k, dom)
            cert = {
                "kind": "conjecture_instance",
                "variables": list(variables),
                "f": [str(t) for t in f_list],
                "g": [str(t) for t in g_list],
                "p": p, "e": e, "k": k,
                "domain": dom_str,
                "expected": True,
                "note": (
                    "membership verified over this domain is a necessary "
                    "consequence of the integer-level theorem; the Z-level "
                    "statement is stronger and not decided by this engine"
                ),
            }
            return ("pass" if value else "fail"), value, cert, {}
        checks.append(_guarded_check(
            f"membership-k{k}-{dom_str}", "conjecture_membership_check",
            True, body,
        ))
    return checks


def _annihilator_check(name, cech, subring_vars, k, expected_poly, note=None):
    """Shared body for the colon-identity scenarios."""
    def body():
        computed = annihilator_in_subring(cech, subring_vars, k)
        sub = computed.ring
        expected_sub = convert(expected_poly, sub)
        expected_ideal = Ideal(sub, (expected_sub,))
        equal = ideal_equal(computed, expected_ideal)
        computed_gb = [str(g) for g in buchberger(computed).basis] \
            if not computed.is_zero else []
        expected_gb = [str(g) for g in buchberger(expected_ideal).basis]
        cert = {
            "kind": "annihilator",
            "class": cech.to_json_dict(),
            "subring_variables": list(subring_vars),
            "k": k,
            "computed_generators": computed_gb,
            "expected_generators": expected_gb,
        }
        if note:
            cert["note"] = note
        return ("pass" if equal else "fail"), computed_gb, cert, {}
    return _guarded_check(
        name, "annihilator_in_subring", [str(expected_poly)], body,
    )


def _run_ring_a(params) -> list[CheckResult]:
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
    checks = []
    for n in range(1, n_max + 1):
        cech = CechClass(quotient, (a, b), n, s * a * b ** (n - 1))
        expected = qn_recursive(n - 1).poly
        checks.append(_annihilator_check(
            f"colon-n{n}", cech, ("s", "t"), 0, expected, note=note,
        ))
    return checks


def _run_ring_b(params) -> list[CheckResult]:
    p, n_max = params["p"], params["n_max"]
    ring = PolyRing(("s", "t", "a", "b", "c"), GF(p))
    s, t, a, b, c = ring.gens()
    relation = s * a ** 2 + s * b ** 2 + t * a * b + t * c ** 2
    quotient = QuotientRing(ring, (relation,))
    checks = []
    for n in range(1, n_max + 1):
        # (a^n, b^n, c) : s a b^{n-1}, contracted to K[s,t]
        def body(n=n):
            I = Ideal(ring, (a ** n, b ** n, c))
            quot = colon(I, s * a * b ** (n - 1), rel=quotient)
            computed = eliminate(quot, {"a", "b", "c"})
            sub = computed.ring
            expected_sub = convert(qn_recursive(n - 1).poly, sub)
            expected_ideal = Ideal(sub, (expected_sub,))
            equal = ideal_equal(computed, expected_ideal)
            computed_gb = [str(g) for g in buchberger(computed).basis] \
                if not computed.is_zero else []
            cert = {
                "kind": "colon_contraction",
                "ring": _ring_json(ring),
                "relations": [str(relation)],
                "ideal_generators": [str(g) for g in I.generators],
                "colon_element": str(s * a * b ** (n - 1)),
                "subring_variables": ["s", "t"],
                "computed_generators": computed_gb,
                "expected_generators":
                    [str(g) for g in buchberger(expected_ideal).basis],
            }
            return ("pass" if equal else "fail"), computed_gb, cert, {}
        checks.append(_guarded_check(
            f"colon-n{n}", "colon+eliminate",
            [str(qn_recursive(n - 1).poly)], body,
        ))
    return checks


def _singh_swanson_ring(p):
    ring = PolyRing(("s", "t", "u", "v", "w", "x", "y", "z"), GF(p))
    s, t, u, v, w, x, y, z = ring.gens()
    relation = (s * u ** 2 * x ** 2 + s * v ** 2 * y ** 2
                + t * u * x * v * y + t * w ** 2 * z ** 2)
    return ring, relation


def _run_singh_swanson(params) -> list[CheckResult]:
    p, n_max, k = params["p"], params["n_max"], params["k"]
    q_list = params["q_list"]
    ring, relation = _singh_swanson_ring(p)
    s, t, u, v, w, x, y, z = ring.gens()
    quotient = QuotientRing(ring, (relation,))
    checks = []
    needed = sorted(set(range(1, n_max + 1)) | set(q_list))
    ann_results = {}
    for n in needed:
        cech = CechClass(
            quotient, (x, y, z), n,
            s * (u * x) * (v * y) ** (n - 1) * z ** (n - 1),
        )
        expected = qn_recursive(n - 1).poly
        check = _annihilator_check(f"annihilator-n{n}", cech, ("s", "t"), k, expected)
        ann_results[n] = check
        checks.append(check)
    for q in q_list:
        def body(q=q):
            r = q
            while r % p == 0:
                r //= p
            if r != 1:
                return "fail", f"{q} is not a power of {p}", {"kind": "aborted"}, {}
            bracket = frobenius_power(Ideal(ring, (x, y, z)), q)
            explicit = Ideal(ring, (x ** q, y ** q, z ** q))
            same = ideal_equal(bracket, explicit)
            ann_ok = ann_results[q].ok
            cert = {
                "kind": "frobenius_witness",
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
                ),
            }
            ok = same and ann_ok
            return ("pass" if ok else "fail"), {
                "bracket_power_matches": same,
                "annihilator_witness_passes": ann_ok,
            }, cert, {}
        checks.append(_guarded_check(
            f"frobenius-witness-q{q}", "frobenius_power", True, body,
        ))
    return checks


def _run_katzman(params) -> list[CheckResult]:
    ring = PolyRing(("s", "t", "u", "v", "x", "y"), QQ)
    s, t, u, v, x, y = ring.gens()
    lhs = s * u ** 2 * x ** 2 - (s + t) * u * x * v * y + t * v ** 2 * y ** 2
    rhs = (s * u * x - t * v * y) * (u * x - v * y)

    def body():
        cert = {
            "kind": "polynomial_identity",
            "ring": _ring_json(ring),
            "lhs": str(lhs),
            "rhs_factors": [str(s * u * x - t * v * y), str(u * x - v * y)],
            "note": (
                "the factorization shows this hypersurface is not a domain; "
                "the infinitude of Ass for it is reported as context only"
            ),
        }
        return ("pass" if lhs == rhs else "fail"), str(lhs), cert, {}

    return [_guarded_check(
        "defining-equation-factors", "polynomial_identity",
        "(s*u*x - t*v*y)*(u*x - v*y)", body,
    )]


def _sabotaged_family(n: int) -> QnPolynomial:
    if n == 2:
        return QnPolynomial(2, ST_RING.parse("t^2"))
    return qn_recursive(n)


def _run_toeplitz_suite(params) -> list[CheckResult]:
    n_max = params["n_max"]
    N = params["generating_order"]
    roots_n_max, tol = params["roots_n_max"], params["roots_tol"]
    census_p, census_n_max = params["census_p"], params["census_n_max"]
    checks = []
    for n in range(1, n_max + 1):
        def body(n=n):
            lhs = qn_recursive(n).poly
            rhs = det_oracle(build_matrix(n))
            cert = {"kind": "toeplitz_equality", "n": n, "polynomial": str(lhs)}
            return ("pass" if lhs == rhs else "fail"), str(rhs), cert, {}
        checks.append(_guarded_check(
            f"recursion-vs-oracle-n{n}", "det_oracle", "equal", body,
        ))

    def gen_body():
        value = generating_check(N)
        cert = {"kind": "generating", "order": N, "value": value}
        return ("pass" if value else "fail"), value, cert, {}
    checks.append(_guarded_check(
        "generating-function", "generating_check", True, gen_body,
    ))

    def sab_body():
        value = generating_check(N, family=_sabotaged_family)
        cert = {"kind": "generating_sabotage", "order": N, "value": value}
        return ("pass" if value is False else "fail"), value, cert, {}
    checks.append(_guarded_check(
        "generating-sabotage", "generating_check", False, sab_body,
    ))

    for n in range(1, roots_n_max + 1):
        def body(n=n):
            value = roots_numeric_check(n, tol)
            cert = {"kind": "roots", "n": n, "tol": tol, "value": value}
            return ("pass" if value else "fail"), value, cert, {}
        checks.append(_guarded_check(
            f"complex-roots-n{n}", "roots_numeric_check", True, body,
        ))

    def census_body():
        census = factor_census(census_n_max, census_p)
        monotone = all(
            a.cumulative_count <= b.cumulative_count
            for a, b in zip(census.rows, census.rows[1:])
        )
        tring = PolyRing(("t",), GF(census_p))
        sound = True
        for row in census.rows:
            product = tring.one()
            for fac, mult in row.factorization:
                poly = tring.parse(fac)
                if not irreducibility_certified(poly):
                    sound = False
                product = product * poly ** mult
            if product != qn_dehomogenized(row.n, census_p):
                sound = False
        cert = {"kind": "census", "census": census.to_json_dict()}
        ok = monotone and sound
        return ("pass" if ok else "fail"), {
            "cumulative_count": census.cumulative_count,
            "monotone": monotone,
            "factors_certified_irreducible_and_reconstruct": sound,
        }, cert, {}
    checks.append(_guarded_check(
        "factor-census", "factor_census",
        {"monotone": True, "factors_certified_irreducible_and_reconstruct": True},
        census_body,
    ))
    return checks


# --------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    defaults: dict
    bounds: dict
    runner: object


# the primes singh-p-torsion runs and reverify accepts: the pipeline's
# enumeration and lambda_p both grow with p, so p comes from a fixed range
TORSION_PRIME_BOUNDS = (2, 31)

_SCENARIOS = (
    Scenario(
        "hartshorne",
        "socle classes of H^2_(x,y) of K[w,x,y,z]/(wx-yz): each of w,x,y,z "
        "kills [y^n z^n + (x^(n+1), y^(n+1))]; the nonzero half is reported "
        "as unknown (bounded search only)",
        {"p": 101, "n_max": 4, "k_max": 6},
        {"n_max": (0, 8), "k_max": (0, 12)},
        _run_hartshorne,
    ),
    Scenario(
        "singh-p-torsion",
        "p-torsion classes eta_p in H^3_(x,y,z) of Z[u,v,w,x,y,z]/(ux+vy+wz) "
        "for each requested prime, with the five-step weight-reduction "
        "nonvanishing certificate",
        {"primes": [2, 3, 5, 7]},
        {},
        _run_singh_p_torsion,
    ),
    Scenario(
        "ptor2-theorem",
        "the k = q-1 membership for a regular-sequence instance, over Q and "
        "a prime field (necessary consequences of the integer statement)",
        {
            "variables": ["x", "y", "z"],
            "f": ["x", "y", "z"],
            "g": ["y*z", "z*x", "-2*x*y"],
            "p": 3, "e": 1,
            "domains": ["QQ", "GF(5)"],
        },
        {"e": (1, 3)},
        _run_ptor2,
    ),
    Scenario(
        "ring-A-colon",
        "(a^n, b^n) : s a b^(n-1) contracted to K[s,t] equals (Q_(n-1)) in "
        "K[s,t,a,b]/(s a^2 + t a b + s b^2)",
        {"p": 101, "n_max": 4},
        {"n_max": (1, 8)},
        _run_ring_a,
    ),
    Scenario(
        "ring-B-colon",
        "(a^n, b^n, c) : s a b^(n-1) contracted to K[s,t] equals (Q_(n-1)) "
        "in K[s,t,a,b,c]/(s a^2 + s b^2 + t a b + t c^2)",
        {"p": 101, "n_max": 3},
        {"n_max": (1, 6)},
        _run_ring_b,
    ),
    Scenario(
        "singh-swanson-S",
        "ann_(K[s,t]) of eta_n in the normal hypersurface S equals (Q_(n-1)); "
        "the n = q cases double as Frobenius-power witnesses",
        {"p": 2, "n_max": 3, "k": 0, "q_list": [2]},
        {"n_max": (1, 4), "k": (0, 1)},
        _run_singh_swanson,
    ),
    Scenario(
        "katzman-factorization",
        "the defining equation s u^2 x^2 - (s+t) u x v y + t v^2 y^2 factors "
        "as (s u x - t v y)(u x - v y), exactly",
        {},
        {},
        _run_katzman,
    ),
    Scenario(
        "toeplitz-suite",
        "recursion vs determinant oracle, generating function, numeric "
        "complex-root check, and the irreducible-factor census over F_p",
        {
            "n_max": 10, "generating_order": 12,
            "roots_n_max": 10, "roots_tol": 1e-8,
            "census_p": 5, "census_n_max": 16,
        },
        {"n_max": (1, 12), "generating_order": (2, 64),
         "roots_n_max": (1, 12), "census_n_max": (1, 64)},
        _run_toeplitz_suite,
    ),
)

_REGISTRY = {s.name: s for s in _SCENARIOS}


def list_scenarios() -> list[tuple[str, str]]:
    """Names and one-line descriptions, in registry order."""
    return [(s.name, s.description) for s in _SCENARIOS]


def _validated_params(scenario: Scenario, overrides: dict | None) -> dict:
    params = dict(scenario.defaults)
    for key, value in (overrides or {}).items():
        if key not in scenario.defaults:
            raise ValueError(
                f"unknown parameter {key!r} for scenario {scenario.name!r}; "
                f"accepted: {sorted(scenario.defaults)}"
            )
        params[key] = value
    for key, (lo, hi) in scenario.bounds.items():
        v = params[key]
        if not isinstance(v, int) or not lo <= v <= hi:
            raise ValueError(
                f"parameter {key}={v!r} outside documented bounds [{lo}, {hi}]"
            )
    for key in ("p", "census_p"):
        if key in params and not is_prime(params[key]):
            raise ValueError(f"parameter {key}={params[key]} must be prime")
    if "primes" in params:
        primes = params["primes"]
        lo, hi = TORSION_PRIME_BOUNDS
        if not isinstance(primes, list) or not all(
                isinstance(p, int) and lo <= p <= hi for p in primes):
            raise ValueError(
                f"parameter primes={primes!r} outside documented bounds "
                f"[{lo}, {hi}]"
            )
        bad = [p for p in primes if not is_prime(p)]
        if bad:
            raise ValueError(f"non-prime entries in primes: {bad}")
        if len(set(primes)) != len(primes):
            raise ValueError(f"repeated entries in primes: {primes}")
    if "q_list" in params:
        bad = [q for q in params["q_list"] if not isinstance(q, int) or q < 1]
        if bad:
            raise ValueError(f"bad Frobenius exponents in q_list: {bad}")
    return params


def overrides_for_all(overrides: dict) -> dict[str, dict]:
    """The overrides of a run of every scenario, split by scenario: each key
    goes only to the scenarios whose defaults carry it.  A key that no
    scenario accepts is a ValueError."""
    unknown = set(overrides) - {k for s in _SCENARIOS for k in s.defaults}
    if unknown:
        raise ValueError(f"no scenario accepts parameter(s) {sorted(unknown)}")
    return {s.name: {k: v for k, v in overrides.items() if k in s.defaults}
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
    checks = scenario.runner(merged)
    return Report(
        scenario=name,
        description=scenario.description,
        params=merged,
        checks=tuple(checks),
        seconds=time.perf_counter() - t0,
    )


# --------------------------------------------------------------------------
# certificate re-verification


def _verify_zero_at_cert(cert, _report):
    cech = _class_from_json(cert["class"])
    return verify_zero_at(cech, ZeroAt(int(cert["k"])))


def _verify_unknown_cert(cert, _report):
    cech = _class_from_json(cert["class"])
    return is_zero_up_to(cech, int(cert["k_max"])) == UnknownUpTo(int(cert["k_max"]))


def _verify_conjecture_cert(cert, _report):
    ring = PolyRing(tuple(cert["variables"]), ZZ)
    f_list = [ring.parse(s) for s in cert["f"]]
    g_list = [ring.parse(s) for s in cert["g"]]
    value = conjecture_membership_check(
        f_list, g_list, int(cert["p"]), int(cert["e"]), int(cert["k"]),
        domain_from_string(cert["domain"]),
    )
    return value == bool(cert["expected"])


def _verify_polynomial_identity(cert, _report):
    ring = _ring_from_json(cert["ring"])
    lhs = ring.parse(cert["lhs"])
    rhs = ring.one()
    for f in cert["rhs_factors"]:
        rhs = rhs * ring.parse(f)
    return lhs == rhs


def _verify_weight_pipeline(cert) -> bool:
    p = int(cert["p"])
    steps = {s["name"]: s for s in cert["steps"]}
    required = ("homogeneity", "cofactor_degrees", "reduction_identity",
                "specialization", "final_nonmembership")
    if set(required) - set(steps):
        return False
    ring, relation = torsion_ring()
    grading = Multigrading.from_dict(ring, WEIGHT_TABLE)
    hom = steps["homogeneity"]["data"]
    lam = ring.parse(hom["numerator"])
    if multidegree(lam, grading) != tuple(hom["degree"]):
        return False
    weights = tuple(WEIGHT_TABLE[v] for v in ring.variables)
    rel_deg = multidegree(relation, grading)
    wsum = tuple(sum(WEIGHT_TABLE[v][j] for v in ("x", "y", "z")) for j in range(4))
    families = {}
    for rec in steps["cofactor_degrees"]["data"]["cofactors"]:
        base = tuple(rec["target_base"])
        slope = tuple(rec["target_slope"])
        # the targets follow from p; taken from the report unchecked they
        # could ask the enumerator for any amount of work
        wv = WEIGHT_TABLE[rec["generator"]]
        if base != tuple(e - p * w for e, w in zip((0, 0, 0, p), wv)) or \
                slope != tuple(t - w for t, w in zip(wsum, wv)):
            return False
        family = MonomialFamily(tuple(rec["family_const"]),
                                tuple(rec["family_slope"]))
        try:
            unique_monomial_family(weights, base, slope, expected=family)
        except CertificationError:
            return False
        psi = tuple(rec["relation_shift_farkas"])
        shifted = tuple(b - r for b, r in zip(base, rel_deg))
        if any(sum(c * w[j] for j, c in enumerate(psi)) < 0 for w in weights):
            return False
        if sum(c * s_ for c, s_ in zip(psi, slope)) > 0:
            return False
        if sum(c * b for c, b in zip(psi, shifted)) >= 0:
            return False
        if monomials_of_degree(weights, shifted):
            return False
        families[rec["generator"]] = family
    if set(families) != {"x", "y", "z"}:
        return False
    # step 3: each forced cofactor times x_i^(p+k) equals (xyz)^k times the
    # matching bracket generator, as parametric exponent vectors
    partner = {"x": "u", "y": "v", "z": "w"}
    for name, family in families.items():
        const = list(family.const)
        slope_v = list(family.slope)
        const[ring.var_index(name)] += p
        slope_v[ring.var_index(name)] += 1
        goal_const = [0] * ring.nvars
        goal_const[ring.var_index(name)] = p
        goal_const[ring.var_index(partner[name])] = p
        goal_slope = [1 if v in ("x", "y", "z") else 0 for v in ring.variables]
        if const != goal_const or slope_v != goal_slope:
            return False
    spec_data = steps["specialization"]["data"]
    x, y = ring.gen("x"), ring.gen("y")
    subst = {"u": 1, "v": 1, "w": 1, "z": -(x + y)}
    if not relation.substitute(subst).is_zero:
        return False
    lam_bar = restrict_to_variables(lam.substitute(subst), ("x", "y"))
    if str(lam_bar) != spec_data["specialized_numerator"]:
        return False
    zxy = lam_bar.ring
    xb, yb = zxy.gens()
    # step 4: the recorded generator images match and land in (p, x^p, y^p)
    u_gen, v_gen, w_gen, z_gen = (ring.gen(n) for n in ("u", "v", "w", "z"))
    images = {
        "u^p*x^p": (u_gen ** p * x ** p),
        "v^p*y^p": (v_gen ** p * y ** p),
        "w^p*z^p": (w_gen ** p * z_gen ** p),
    }
    for label, poly in images.items():
        image = restrict_to_variables(poly.substitute(subst), ("x", "y"))
        if str(image) != spec_data["generator_images"].get(label):
            return False
        if not membership_monomial_plus_p(image, p, [xb ** p, yb ** p]):
            return False
    final = steps["final_nonmembership"]["data"]
    if membership_monomial_plus_p(lam_bar, p, [xb ** p, yb ** p]):
        return False
    fbar = reduce_mod_p(lam_bar, p)
    residual = Polynomial(fbar.ring, {
        e: c for e, c in fbar.terms.items()
        if not (e[0] >= p or e[1] >= p)
    }, _normalized=True)
    if str(residual) != final["residual_mod_p"]:
        return False
    if residual.is_zero:
        return False
    return final["witness_monomial"] == cert["witness_monomial"]


def _torsion_work_bounded(cert) -> bool:
    """Do p and the class degree stay in the documented range?  Checked
    before any arithmetic, since the re-check's cost grows with p."""
    lo, hi = TORSION_PRIME_BOUNDS
    p = cert["p"]
    if type(p) is not int or not lo <= p <= hi or not is_prime(p):
        return False
    pipeline = cert["nonvanishing"]["certificate"]
    if pipeline["p"] != p:
        return False
    hom = {s["name"]: s for s in pipeline["steps"]}.get("homogeneity")
    return hom is not None and list(hom["data"]["degree"]) == [0, 0, 0, p]


def _verify_torsion_cert(cert, _report):
    if not _torsion_work_bounded(cert):
        return False
    p = cert["p"]
    cech = _class_from_json(cert["class"])
    ring = cech.ring.ring
    if ring.domain != ZZ or len(cech.ring.relations) != 1:
        return False
    relation = cech.ring.relations[0]
    ann = cert["annihilation"]
    if int(ann["k"]) != 0:
        return False
    recombined = ring.zero()
    for gen, cof in zip(cech.sequence, ann["sequence_cofactors"]):
        recombined = recombined + ring.parse(cof) * gen ** cech.m
    recombined = recombined + ring.parse(ann["relation_cofactor"]) * relation
    if recombined != p * cech.numerator:
        return False
    nv = cert["nonvanishing"]
    if nv.get("verdict") != "nonzero_certified":
        return False
    pipeline = nv["certificate"]
    hom = {s["name"]: s for s in pipeline["steps"]}.get("homogeneity")
    if hom is None or hom["data"]["numerator"] != str(cech.numerator):
        return False
    return _verify_weight_pipeline(pipeline)


def _inject(poly: Polynomial, target: PolyRing) -> Polynomial:
    idx = [target.var_index(v) for v in poly.ring.variables]
    out = {}
    for e, c in poly.terms.items():
        e2 = [0] * target.nvars
        for i, x in zip(idx, e):
            e2[i] = x
        out[tuple(e2)] = c
    return Polynomial(target, out)


def _verify_annihilator_cert(cert, _report):
    cech = _class_from_json(cert["class"])
    ring = cech.ring.ring
    k = int(cert["k"])
    subvars = tuple(cert["subring_variables"])
    sub = PolyRing(subvars, ring.domain)
    computed = [sub.parse(s) for s in cert["computed_generators"]]
    expected = [sub.parse(s) for s in cert["expected_generators"]]
    if not computed or not expected:
        return False
    # the two subring ideals must coincide
    if not ideal_equal(Ideal(sub, tuple(computed)), Ideal(sub, tuple(expected))):
        return False
    # soundness: every reported generator annihilates the class at level k
    f = cech.numerator * cech.sequence_product() ** k
    power = cech.power_ideal(k)
    for g in computed:
        if not membership(_inject(g, ring) * f, power, rel=cech.ring):
            return False
    return True


def _verify_colon_contraction(cert, _report):
    ring = _ring_from_json(cert["ring"])
    relations = tuple(ring.parse(r) for r in cert["relations"])
    quotient = QuotientRing(ring, relations)
    ideal = Ideal(ring, tuple(ring.parse(g) for g in cert["ideal_generators"]))
    element = ring.parse(cert["colon_element"])
    sub = PolyRing(tuple(cert["subring_variables"]), ring.domain)
    computed = [sub.parse(s) for s in cert["computed_generators"]]
    expected = [sub.parse(s) for s in cert["expected_generators"]]
    if not computed or not expected:
        return False
    if not ideal_equal(Ideal(sub, tuple(computed)), Ideal(sub, tuple(expected))):
        return False
    for g in computed:
        if not membership(_inject(g, ring) * element, ideal, rel=quotient):
            return False
    return True


def _verify_toeplitz_equality(cert, _report):
    n = int(cert["n"])
    return ST_RING.parse(cert["polynomial"]) == qn_recursive(n).poly


def _verify_generating(cert, _report):
    return generating_check(int(cert["order"])) is bool(cert["value"]) is True


def _verify_generating_sabotage(cert, _report):
    return generating_check(int(cert["order"]), family=_sabotaged_family) is False \
        and cert["value"] is False


def _verify_roots(cert, _report):
    return roots_numeric_check(int(cert["n"]), float(cert["tol"])) is True \
        and bool(cert["value"])


def _verify_census(cert, _report):
    data = cert["census"]
    p = int(data["p"])
    tring = PolyRing(("t",), GF(p))
    seen: set[str] = set()
    prev = 0
    for row in data["rows"]:
        n = int(row["n"])
        product = tring.one()
        for fac, mult in row["factorization"]:
            poly = tring.parse(fac)
            if not irreducibility_certified(poly):
                return False
            product = product * poly ** int(mult)
        if product != qn_dehomogenized(n, p):
            return False
        for fac in row["new_factors"]:
            if fac in seen:
                return False
        seen.update(row["factors"])
        if len(seen) != int(row["cumulative_count"]) or len(seen) < prev:
            return False
        prev = len(seen)
    return True


def _verify_frobenius_witness(cert, report):
    ring = _ring_from_json(cert["ring"])
    q = int(cert["q"])
    x, y, z = ring.gen("x"), ring.gen("y"), ring.gen("z")
    bracket = frobenius_power(Ideal(ring, (x, y, z)), q)
    if [str(g) for g in bracket.generators] != cert["bracket_generators"]:
        return False
    target = cert["witness_annihilator_check"]
    for check in report.get("checks", []):
        if check["name"] == target:
            return check["status"] == "pass" and \
                _verify_annihilator_cert(check["certificate"], report)
    return False


_VERIFIERS = {
    "zero_at": _verify_zero_at_cert,
    "unknown_up_to": _verify_unknown_cert,
    "conjecture_instance": _verify_conjecture_cert,
    "polynomial_identity": _verify_polynomial_identity,
    "torsion": _verify_torsion_cert,
    "annihilator": _verify_annihilator_cert,
    "colon_contraction": _verify_colon_contraction,
    "toeplitz_equality": _verify_toeplitz_equality,
    "generating": _verify_generating,
    "generating_sabotage": _verify_generating_sabotage,
    "roots": _verify_roots,
    "census": _verify_census,
    "frobenius_witness": _verify_frobenius_witness,
}


def reverify(report) -> bool:
    """Re-check every certificate embedded in a report.

    Accepts a Report or its JSON dict form.  Raises MalformedReportError
    when the payload is not a report of this artifact; returns False as
    soon as any certificate fails to re-verify.
    """
    if isinstance(report, Report):
        report = report.to_json_dict()
    if not isinstance(report, dict) or report.get("artifact") != "cohomcert":
        raise MalformedReportError("not a cohomcert report")
    checks = report.get("checks")
    if not isinstance(checks, list):
        raise MalformedReportError("report carries no check list")
    for check in checks:
        try:
            cert = check["certificate"]
            kind = cert.get("kind")
            status = check["status"]
        except (TypeError, KeyError) as exc:
            raise MalformedReportError(f"malformed check entry: {exc}") from exc
        if status != check.get("expected_status", "pass"):
            return False
        if kind == "aborted":
            return False
        verifier = _VERIFIERS.get(kind)
        if verifier is None:
            raise MalformedReportError(f"unknown certificate kind {kind!r}")
        try:
            if not verifier(cert, report):
                return False
        except MalformedReportError:
            raise
        except Exception:
            return False
    return True

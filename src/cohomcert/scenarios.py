"""Named constructions bundled with their expected certificates.

Each scenario builds a ring presentation, runs an ordered list of checks
through the polynomial / Groebner / cohomology machinery, and returns a
Report whose certificates carry enough data for a third party to re-check
the verdicts offline (reverify) without re-deriving the expensive parts.

Reports are deterministic: identical runs produce identical payloads up to
the per-check wall-clock fields.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field

from .cohomology import (
    CechClass,
    PipelineStepError,
    UnknownUpTo,
    ZeroAt,
    annihilator_in_subring,
    conjecture_membership_check,
    eta_class,
    eta_torsion_check,
    is_zero_up_to,
    push_forward,
    verify_zero_at,
    weight_reduction_nonvanishing,
)
from .degree_solver import CertificationError
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
)
from .polyring import (
    GF,
    QQ,
    Polynomial,
    PolyRing,
    ZZ,
    convert,
    domain_from_string,
    is_prime,
)
from .toeplitz import (
    ST_RING,
    QnPolynomial,
    build_matrix,
    dense_coefficients,
    det_oracle,
    factor_census,
    generating_check,
    irreducibility_certified,
    mul_fp,
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


def _colon_check(name, operation, expected_poly, contracted, cert_fields):
    """Shared body for the colon-identity scenarios: `contracted()` yields
    the contracted colon ideal, `cert_fields` the fields of the certificate
    that depend on its kind."""
    def body():
        computed = contracted()
        expected_ideal = Ideal(computed.ring, (convert(expected_poly, computed.ring),))
        equal = ideal_equal(computed, expected_ideal)
        computed_gb = [str(g) for g in buchberger(computed).basis] \
            if not computed.is_zero else []
        cert = {
            **cert_fields,
            "computed_generators": computed_gb,
            "expected_generators":
                [str(g) for g in buchberger(expected_ideal).basis],
        }
        return ("pass" if equal else "fail"), computed_gb, cert, {}
    return _guarded_check(name, operation, [str(expected_poly)], body)


def _annihilator_check(name, cech, subring_vars, k, expected_poly, **extra):
    return _colon_check(
        name, "annihilator_in_subring", expected_poly,
        lambda: annihilator_in_subring(cech, subring_vars, k),
        {"kind": "annihilator", "class": cech.to_json_dict(),
         "subring_variables": list(subring_vars), "k": k, **extra},
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
        ideal = Ideal(ring, (a ** n, b ** n, c))
        element = s * a * b ** (n - 1)
        checks.append(_colon_check(
            f"colon-n{n}", "colon+eliminate", qn_recursive(n - 1).poly,
            lambda ideal=ideal, element=element: eliminate(
                colon(ideal, element, rel=quotient), {"a", "b", "c"}),
            {"kind": "colon_contraction", "ring": _ring_json(ring),
             "relations": [str(relation)],
             "ideal_generators": [str(g) for g in ideal.generators],
             "colon_element": str(element), "subring_variables": ["s", "t"]},
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


# one term of a factor as format_polynomial prints it over F_p: c*t^k, t^k,
# c*t, t or c, with no coefficient 1 on t and no exponent 0 or 1
_FACTOR_TERM = re.compile(r"(?:([1-9]\d*)\*)?t(?:\^([1-9]\d*))?|([1-9]\d*)")


def _read_factor(text: str, p: int):
    """Terms (k, c) of a polynomial in t over F_p, exponents strictly
    decreasing and coefficients in [1, p), read from exactly the string
    format_polynomial prints for it; None for any other string."""
    terms = []
    for piece in text.split(" + "):
        m = _FACTOR_TERM.fullmatch(piece)
        if m is None:
            return None
        coeff, exp, const = m.groups()
        if const is not None:
            k, c = 0, int(const)
        elif coeff == "1" or exp == "1":
            return None
        else:
            k = int(exp or 1)
            c = int(coeff or 1)
        if c >= p or terms and terms[-1][0] <= k:
            return None
        terms.append((k, c))
    return terms


def _census_rows_sound(p: int, rows) -> bool:
    """Each census row (JSON form) lists irreducible factors over F_p whose
    product is Q_n(1,t), names as new exactly its factors that no earlier
    row has, and counts the distinct factors seen so far.  Each distinct
    factor string is read and certified once."""
    tring = PolyRing(("t",), GF(p))
    read: dict = {}  # factor string -> its terms, or None if not canonical
    certified: dict = {}  # factor string -> dense coefficients, or None
    seen: set[str] = set()
    for row in rows:
        n = int(row["n"])
        factorization = []
        for fac, mult in row["factorization"]:
            if fac not in read:
                read[fac] = _read_factor(fac, p)
            if read[fac] is None:
                return False
            factorization.append((fac, read[fac][0][0], int(mult)))
        # degrees adding up to n bound the work before any arithmetic
        if any(d < 1 or m < 1 for _, d, m in factorization) or \
                sum(d * m for _, d, m in factorization) != n:
            return False
        product = [1]
        for fac, _, m in factorization:
            if fac not in certified:
                g = Polynomial(tring, {(k,): c for k, c in read[fac]},
                               _normalized=True)
                certified[fac] = dense_coefficients(g) \
                    if irreducibility_certified(g) else None
            dense = certified[fac]
            if dense is None:
                return False
            for _ in range(m):
                product = mul_fp(product, dense, p)
        if product != dense_coefficients(qn_dehomogenized(n, p)):
            return False
        factors = [fac for fac, _ in row["factorization"]]
        if row["factors"] != factors or \
                row["new_factors"] != [f for f in factors if f not in seen]:
            return False
        seen.update(factors)
        if int(row["cumulative_count"]) != len(seen):
            return False
    return True


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
        cert = {"kind": "census", "census": census.to_json_dict()}
        sound = _census_rows_sound(census_p, cert["census"]["rows"])
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
        {"n_max": (1, 8), "k": (0, 2)},
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
        if key not in params:
            continue
        v = params[key]
        if type(v) is not int or v > PRIME_BOUND:
            raise ValueError(f"parameter {key}={v!r} must be an int at most 2^64")
        if not is_prime(v):
            raise ValueError(f"parameter {key}={v} must be prime")
    # one check per entry: an empty list would pass with nothing checked
    for key in ("primes", "domains"):
        if key in params and (not isinstance(params[key], list) or not params[key]):
            raise ValueError(f"parameter {key}={params[key]!r} must be a nonempty list")
    if "domains" in params:
        bad = [d for d in params["domains"] if not _is_field_name(d)]
        if bad:
            raise ValueError(
                f"domains entries must name QQ or GF(p), p a prime at most 2^64: {bad}"
            )
    if "primes" in params:
        primes = params["primes"]
        lo, hi = TORSION_PRIME_BOUNDS
        if not all(isinstance(p, int) and lo <= p <= hi for p in primes):
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


def check_census_params(n_max, p) -> None:
    """Raise ValueError unless toeplitz-suite would accept n_max and p as
    its census_n_max and census_p: n_max inside its bounds, p a prime at
    most PRIME_BOUND (the bound is checked before the primality test)."""
    _validated_params(_REGISTRY["toeplitz-suite"],
                      {"census_n_max": n_max, "census_p": p})


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


def _torsion_work_bounded(cert) -> bool:
    """Does p stay in the documented range?  Checked before any
    arithmetic, since the re-check's cost grows with p."""
    lo, hi = TORSION_PRIME_BOUNDS
    p = cert["p"]
    return type(p) is int and lo <= p <= hi and is_prime(p)


def _verify_torsion_cert(cert, _report):
    """The class must be eta_p itself, the cofactors must recombine to
    p * lambda_p, and rerunning the pipeline that issued the nonvanishing
    certificate must reproduce it exactly."""
    if not _torsion_work_bounded(cert):
        return False
    p = cert["p"]
    cech = eta_class(p)
    if cert["class"] != cech.to_json_dict():
        return False
    ring = cech.ring.ring
    (relation,) = cech.ring.relations
    ann = cert["annihilation"]
    if int(ann["k"]) != 0:
        return False
    recombined = ring.zero()
    for gen, cof in zip(cech.sequence, ann["sequence_cofactors"]):
        recombined = recombined + ring.parse(cof) * gen ** cech.m
    recombined = recombined + ring.parse(ann["relation_cofactor"]) * relation
    if recombined != p * cech.numerator:
        return False
    return cert["nonvanishing"] == \
        weight_reduction_nonvanishing(p, cech.numerator).to_json_dict()


def _inject(poly: Polynomial, target: PolyRing) -> Polynomial:
    idx = [target.var_index(v) for v in poly.ring.variables]
    out = {}
    for e, c in poly.terms.items():
        e2 = [0] * target.nvars
        for i, x in zip(idx, e):
            e2[i] = x
        out[tuple(e2)] = c
    return Polynomial(target, out)


def _colon_cert_holds(cert, quotient: QuotientRing, ideal: Ideal,
                      element: Polynomial) -> bool:
    """The reported subring generators span the expected ideal, and each
    one multiplies `element` into `ideal` modulo the relations."""
    ring = quotient.ring
    sub = PolyRing(tuple(cert["subring_variables"]), ring.domain)
    computed = [sub.parse(s) for s in cert["computed_generators"]]
    expected = [sub.parse(s) for s in cert["expected_generators"]]
    if not computed or not expected:
        return False
    if not ideal_equal(Ideal(sub, tuple(computed)), Ideal(sub, tuple(expected))):
        return False
    return all(membership(_inject(g, ring) * element, ideal, rel=quotient)
               for g in computed)


def _verify_annihilator_cert(cert, _report):
    # the colon of the class at level k: its power ideal by its numerator
    pushed = push_forward(_class_from_json(cert["class"]), int(cert["k"]))
    return _colon_cert_holds(cert, pushed.ring, pushed.power_ideal(),
                             pushed.numerator)


def _verify_colon_contraction(cert, _report):
    ring = _ring_from_json(cert["ring"])
    return _colon_cert_holds(
        cert, QuotientRing(ring, tuple(ring.parse(r) for r in cert["relations"])),
        Ideal(ring, tuple(ring.parse(g) for g in cert["ideal_generators"])),
        ring.parse(cert["colon_element"]),
    )


def _suite_param(report, key):
    """The report's toeplitz-suite parameter key when it is an int inside
    the scenario's bounds, else None."""
    params = report.get("params")
    value = params.get(key) if isinstance(params, dict) else None
    lo, hi = _REGISTRY["toeplitz-suite"].bounds[key]
    return value if type(value) is int and lo <= value <= hi else None


def _suite_index_bounded(value, report, key) -> bool:
    """Is value an int in [1, the report's parameter key]?  Checked before
    any arithmetic, since the re-check's cost grows with value."""
    top = _suite_param(report, key)
    return top is not None and type(value) is int and 1 <= value <= top


def _verify_toeplitz_equality(cert, report):
    n = cert["n"]
    if not _suite_index_bounded(n, report, "n_max"):
        return False
    return ST_RING.parse(cert["polynomial"]) == qn_recursive(n).poly


def _generating_order_bounded(cert, report) -> bool:
    order = cert["order"]
    return type(order) is int and order == _suite_param(report, "generating_order")


def _verify_generating(cert, report):
    return _generating_order_bounded(cert, report) \
        and generating_check(cert["order"]) is bool(cert["value"]) is True


def _verify_generating_sabotage(cert, report):
    return _generating_order_bounded(cert, report) \
        and generating_check(cert["order"], family=_sabotaged_family) is False \
        and cert["value"] is False


def _verify_roots(cert, report):
    n, tol = cert["n"], cert["tol"]
    if not _suite_index_bounded(n, report, "roots_n_max") \
            or type(tol) not in (int, float) \
            or tol != report["params"].get("roots_tol"):
        return False
    return roots_numeric_check(n, tol) is True and bool(cert["value"])


def _census_work_bounded(data, report) -> bool:
    """Is this the census the report's parameters ask for, with rows
    n = 1..n_max inside the scenario's bounds?  Checked before any
    arithmetic, since the re-check's cost grows with n and p."""
    p, n_max, rows = data["p"], data["n_max"], data["rows"]
    if type(n_max) is not int or n_max != _suite_param(report, "census_n_max"):
        return False
    return type(p) is int and p == report["params"].get("census_p") \
        and isinstance(rows, list) and len(rows) == n_max \
        and all(isinstance(row, dict) and type(row.get("n")) is int
                and row["n"] == i for i, row in enumerate(rows, 1)) \
        and p <= PRIME_BOUND and is_prime(p)


def _verify_census(cert, report):
    data = cert["census"]
    if not _census_work_bounded(data, report):
        return False
    return _census_rows_sound(data["p"], data["rows"])


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
    when the payload is not a report of this artifact or has no checks;
    returns False as soon as any certificate fails to re-verify.
    """
    if isinstance(report, Report):
        report = report.to_json_dict()
    if not isinstance(report, dict) or report.get("artifact") != "cohomcert":
        raise MalformedReportError("not a cohomcert report")
    checks = report.get("checks")
    if not isinstance(checks, list) or not checks:
        raise MalformedReportError("report carries no checks")
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

"""Acceptance suite: every computational claim verified at fixed tolerances.

One test per criterion, each printing a single PASS line with its runtime
(run with -s to see them).  Budgets are wall-clock caps from the build
contract; expected values marked "oracle" were computed ahead of the build
by the brute-force routines in census_oracle.py / helpers.py and frozen
here.
"""

import json
import random
import time

import pytest

from cohomcert import (
    CechClass,
    GF,
    Ideal,
    PolyRing,
    QQ,
    QuotientRing,
    ZZ,
    ZeroAt,
    build_matrix,
    buchberger,
    chebyshev_identity_check,
    colon,
    conjecture_membership_check,
    convert,
    det_oracle,
    eliminate,
    eta_torsion_check,
    factor_census,
    generating_check,
    ideal_equal,
    is_zero_up_to,
    membership,
    normal_form,
    qn_recursive,
    reverify,
    run_scenario,
    verify_zero_at,
)
from cohomcert.toeplitz import QnPolynomial, ST_RING

from helpers import brute_force_membership, random_homogeneous, random_polynomial

# fixed ahead of the build by tests/census_oracle.py (exhaustive trial division)
ORACLE_CENSUS_COUNTS_F5 = [1, 3, 4, 6, 7, 9, 10, 12, 12, 14, 16, 22, 23, 23, 24, 26]
ORACLE_CENSUS_TOTAL_F5 = 26


_CAPSYS = None


@pytest.fixture(autouse=True)
def _uncaptured_reporting(capsys):
    # the one pass/fail line per criterion prints even without -s
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(number, elapsed, budget, detail):
    line = (f"ACCEPTANCE {number:2d} PASS "
            f"({elapsed:6.2f}s / budget {budget:.0f}s): {detail}")
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line)
    else:
        print(line)


def test_criterion_01_recursion_equals_determinant_oracle():
    t0 = time.perf_counter()
    for n in range(1, 11):
        assert qn_recursive(n).poly == det_oracle(build_matrix(n)), n
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(1, elapsed, 5, "Q_n recursion = cofactor determinant, n = 1..10")


def test_criterion_02_generating_function():
    t0 = time.perf_counter()
    assert generating_check(12) is True

    def sabotage(n):
        if n == 2:
            return QnPolynomial(2, ST_RING.parse("t^2"))
        return qn_recursive(n)

    assert generating_check(12, family=sabotage) is False
    elapsed = time.perf_counter() - t0
    _report(2, elapsed, 5, "series identity at order 12; sabotaged input detected")


def test_criterion_03_complex_factorization_roots():
    t0 = time.perf_counter()
    for n in range(1, 65):
        assert chebyshev_identity_check(n), n
    elapsed = time.perf_counter() - t0
    _report(3, elapsed, 5,
            "x^n Q_n(1, x + 1/x) = 1 + x^2 + ... + x^(2n) exactly for n = 1..64")


def test_criterion_04_factor_census_matches_oracle():
    t0 = time.perf_counter()
    census = factor_census(16, 5)
    counts = [row.cumulative_count for row in census.rows]
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert counts == ORACLE_CENSUS_COUNTS_F5
    assert census.cumulative_count == ORACLE_CENSUS_TOTAL_F5
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(4, elapsed, 30,
            f"census over GF(5), n <= 16: distinct irreducibles = "
            f"{census.cumulative_count}, matches the pre-build oracle")


def test_criterion_05_p_torsion_certificates():
    t0 = time.perf_counter()
    residuals = {}
    for p in (2, 3, 5, 7):
        cert = eta_torsion_check(p)
        assert cert.annihilation == ZeroAt(0)
        residuals[p] = cert.nonvanishing.certificate
    final2 = residuals[2].steps[-1].data
    assert residuals[2].residual == "x*y"
    assert final2["monomial_generators"] == ["x^2", "y^2"]
    final3 = residuals[3].steps[-1].data
    assert residuals[3].residual == "2*x^2*y + 2*x*y^2"
    assert final3["monomial_generators"] == ["x^3", "y^3"]
    report = run_scenario("singh-p-torsion", {"primes": [2, 3, 5, 7]})
    assert report.passed
    assert reverify(json.loads(json.dumps(report.to_json_dict())))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(5, elapsed, 10,
            "eta_p certificates for p = 2,3,5,7; step-5 reductions exactly "
            "xy mod 2 and 2x^2y + 2xy^2 mod 3; reports survive reverify")


def _annihilator_equals_qn(ring, quotient, sequence, numerator_for, subvars,
                           p, n_values, k=0):
    sub = PolyRing(subvars, GF(p))
    for n in n_values:
        c = CechClass(quotient, sequence, n, numerator_for(n))
        f = c.numerator * c.sequence_product() ** k
        quot = colon(c.power_ideal(k), f, rel=quotient)
        ann = eliminate(quot, set(ring.variables) - set(subvars))
        expected = Ideal(sub, (convert(qn_recursive(n - 1).poly, sub),))
        assert ideal_equal(ann, expected), n
        assert buchberger(ann).basis == buchberger(expected).basis, n


def test_criterion_06_ring_A_colon_identity():
    t0 = time.perf_counter()
    ring = PolyRing(("s", "t", "a", "b"), GF(101))
    s, t, a, b = ring.gens()
    quotient = QuotientRing(ring, (s * a ** 2 + t * a * b + s * b ** 2,))
    _annihilator_equals_qn(
        ring, quotient, (a, b), lambda n: s * a * b ** (n - 1), ("s", "t"),
        101, (1, 2, 3, 4),
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(6, elapsed, 60,
            "(a^n, b^n) : s a b^(n-1) contracts to (Q_(n-1)) over GF(101), "
            "n = 1..4, reduced bases equal")


def test_criterion_07_ring_B_colon_identity():
    t0 = time.perf_counter()
    ring = PolyRing(("s", "t", "a", "b", "c"), GF(101))
    s, t, a, b, c = ring.gens()
    quotient = QuotientRing(
        ring, (s * a ** 2 + s * b ** 2 + t * a * b + t * c ** 2,)
    )
    sub = PolyRing(("s", "t"), GF(101))
    for n in (2, 3):
        quot = colon(Ideal(ring, (a ** n, b ** n, c)), s * a * b ** (n - 1),
                     rel=quotient)
        ann = eliminate(quot, {"a", "b", "c"})
        expected = Ideal(sub, (convert(qn_recursive(n - 1).poly, sub),))
        assert ideal_equal(ann, expected), n
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(7, elapsed, 60,
            "(a^n, b^n, c) : s a b^(n-1) contracts to (Q_(n-1)) over GF(101), "
            "n = 2, 3")


def test_criterion_08_singh_swanson_witness():
    budget_per_check = 60.0
    t0 = time.perf_counter()
    ring = PolyRing(("s", "t", "u", "v", "w", "x", "y", "z"), GF(2))
    s, t, u, v, w, x, y, z = ring.gens()
    quotient = QuotientRing(ring, (
        s * u ** 2 * x ** 2 + s * v ** 2 * y ** 2
        + t * u * x * v * y + t * w ** 2 * z ** 2,
    ))
    for n in (2, 3):
        t_check = time.perf_counter()
        c = CechClass(quotient, (x, y, z), n,
                      s * (u * x) * (v * y) ** (n - 1) * z ** (n - 1))
        quot = colon(c.power_ideal(0), c.numerator, rel=quotient)
        ann = eliminate(quot, {"u", "v", "w", "x", "y", "z"})
        sub = PolyRing(("s", "t"), GF(2))
        expected = Ideal(sub, (convert(qn_recursive(n - 1).poly, sub),))
        assert ideal_equal(ann, expected), n
        assert time.perf_counter() - t_check < budget_per_check
    # doubling as the q = 2 Frobenius-power witness
    report = run_scenario("singh-swanson-S", {"q_list": [2]})
    assert report.passed
    fro = next(c for c in report.checks if c.name == "frobenius-witness-q2")
    assert fro.status == "pass"
    elapsed = time.perf_counter() - t0
    _report(8, elapsed, 120,
            "ann_(K[s,t]) eta_n = (Q_(n-1)) in S over GF(2), n = 2, 3; "
            "doubles as the q = 2 Frobenius-power witness")


def test_criterion_09_regular_sequence_membership():
    t0 = time.perf_counter()
    ring = PolyRing(("x", "y", "z"), ZZ)
    x, y, z = ring.gens()
    f, g = [x, y, z], [y * z, z * x, -2 * x * y]
    assert conjecture_membership_check(f, g, 3, 1, 2, QQ) is True
    assert conjecture_membership_check(f, g, 3, 1, 2, GF(5)) is True
    report = run_scenario("ptor2-theorem", {"domains": ["QQ", "GF(5)"]})
    assert report.passed
    assert all("Z-level" in c.certificate["note"] for c in report.checks)
    elapsed = time.perf_counter() - t0
    _report(9, elapsed, 5,
            "k = q-1 membership holds over Q and GF(5); report flags the "
            "Z-level gap")


def test_criterion_10_hartshorne_socle():
    t0 = time.perf_counter()
    ring = PolyRing(("w", "x", "y", "z"), GF(101))
    w, x, y, z = ring.gens()
    quotient = QuotientRing(ring, (w * x - y * z,))
    for n in range(0, 5):
        base = CechClass(quotient, (x, y), n + 1, y ** n * z ** n)
        for g in (w, x, y, z):
            verdict = is_zero_up_to(base.scale(g), 6)
            assert isinstance(verdict, ZeroAt) and verdict.k <= 2, (n, str(g))
            assert verify_zero_at(base.scale(g), verdict)
    elapsed = time.perf_counter() - t0
    _report(10, elapsed, 5,
            "w, x, y, z kill [y^n z^n + (x^(n+1), y^(n+1))] with k <= 2 for "
            "n <= 4; witnesses re-verify")


def test_criterion_11_katzman_factorization():
    t0 = time.perf_counter()
    ring = PolyRing(("s", "t", "u", "v", "x", "y"), QQ)
    s, t, u, v, x, y = ring.gens()
    lhs = s * u ** 2 * x ** 2 - (s + t) * u * x * v * y + t * v ** 2 * y ** 2
    assert lhs == (s * u * x - t * v * y) * (u * x - v * y)
    assert run_scenario("katzman-factorization").passed
    elapsed = time.perf_counter() - t0
    _report(11, elapsed, 5, "defining equation factors exactly")


def test_criterion_12_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(2718)
    RQ = PolyRing(("x", "y"), QQ)
    R5 = PolyRing(("x", "y"), GF(5))

    def spoly(fp, gp, order, ring):
        key = order.key(ring)
        lf = max(fp.terms, key=key)
        lg = max(gp.terms, key=key)
        lcm = tuple(max(a, b) for a, b in zip(lf, lg))
        from cohomcert import Polynomial
        mf = Polynomial(ring, {tuple(l - a for l, a in zip(lcm, lf)):
                               ring.domain.inv(fp.terms[lf])})
        mg = Polynomial(ring, {tuple(l - b for l, b in zip(lcm, lg)):
                               ring.domain.inv(gp.terms[lg])})
        return mf * fp - mg * gp

    # 100 random small ideals over F_5 and Q: every S-pair reduces to zero
    ideals = 0
    while ideals < 100:
        ring = R5 if ideals % 2 == 0 else RQ
        gens = tuple(random_polynomial(rng, ring) for _ in range(rng.randint(1, 3)))
        ideal = Ideal(ring, gens)
        if ideal.is_zero:
            continue
        gb = ideal.groebner()
        for i in range(len(gb.basis)):
            for j in range(i + 1, len(gb.basis)):
                assert normal_form(spoly(gb.basis[i], gb.basis[j],
                                         gb.order, ring), gb).is_zero
        ideals += 1

    # 100 membership cases against the bounded-degree linear-algebra oracle
    cases = 0
    while cases < 100:
        ring = R5 if cases % 2 == 0 else RQ
        gens = tuple(random_homogeneous(rng, ring, rng.randint(1, 3))
                     for _ in range(rng.randint(1, 3)))
        ideal = Ideal(ring, gens)
        if ideal.is_zero:
            continue
        if cases % 3 == 0:  # constructed positive, any shape
            f = ring.zero()
            for g in ideal.generators:
                f = f + random_polynomial(rng, ring, max_deg=2) * g
            if f.is_zero:
                continue
            bound = f.total_degree() + max(g.total_degree()
                                           for g in ideal.generators) + 2
            assert membership(f, ideal)
            assert brute_force_membership(f, ideal.generators, bound)
        else:  # homogeneous two-sided agreement
            f = random_homogeneous(rng, ring, rng.randint(1, 4))
            expect = brute_force_membership(f, ideal.generators, f.total_degree())
            assert membership(f, ideal) == expect
        cases += 1

    # 50 colon containment cases
    cases = 0
    while cases < 50:
        ring = R5 if cases % 2 == 0 else RQ
        ideal = Ideal(ring, tuple(random_polynomial(rng, ring) for _ in range(2)))
        f = random_polynomial(rng, ring)
        if ideal.is_zero or f.is_zero:
            continue
        quot = colon(ideal, f)
        for g in ideal.generators:
            assert membership(g, quot)
        for g in quot.generators:
            assert membership(f * g, ideal)
        cases += 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(12, elapsed, 60,
            "100 S-pair ideals, 100 membership-vs-oracle cases, 50 colon "
            "containment cases, all green")

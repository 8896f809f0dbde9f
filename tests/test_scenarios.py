import copy
import json
import random
import time

import pytest

from cohomcert import (
    GF,
    Ideal,
    PolyRing,
    QuotientRing,
    UnknownScenarioError,
    MalformedReportError,
    Polynomial,
    annihilator_in_subring,
    buchberger,
    colon,
    convert,
    domain_from_string,
    eliminate,
    list_scenarios,
    qn_recursive,
    reverify,
    run_scenario,
)
from cohomcert import cohomology, degree_solver, groebner, scenarios, toeplitz
from cohomcert.cli import main
from cohomcert.cohomology import CechClass, UnknownUpTo, is_zero_up_to
from cohomcert.polyring import format_polynomial
from cohomcert.toeplitz import (
    ST_RING,
    QnPolynomial,
    _print_factor,
    _read_factor,
    census_json,
    census_rows,
    census_rows_sound,
    factor_census,
    mirror_fp,
    mul_fp,
)


def test_list_scenarios():
    names = [n for n, _ in list_scenarios()]
    assert "hartshorne" in names
    assert "singh-p-torsion" in names
    assert "singh-swanson-S" in names
    assert names == sorted(names, key=names.index)  # deterministic order
    assert len(names) == 8


def test_unknown_scenario():
    with pytest.raises(UnknownScenarioError):
        run_scenario("no-such-thing")


def test_parameter_validation():
    with pytest.raises(ValueError):
        run_scenario("hartshorne", {"bogus": 1})
    with pytest.raises(ValueError):
        run_scenario("hartshorne", {"n_max": 99})
    with pytest.raises(ValueError):
        run_scenario("ring-A-colon", {"p": 4})
    with pytest.raises(ValueError):
        run_scenario("singh-p-torsion", {"primes": [4]})
    # an empty list would pass with nothing checked
    with pytest.raises(ValueError):
        run_scenario("singh-p-torsion", {"primes": []})
    with pytest.raises(ValueError):
        run_scenario("ptor2-theorem", {"domains": []})
    # moduli above 2^64 are rejected before any primality test
    for params in ({"p": 2 ** 64 + 13}, {"p": "101"}):
        with pytest.raises(ValueError):
            run_scenario("ring-A-colon", params)
    with pytest.raises(ValueError):
        run_scenario("ptor2-theorem", {"domains": ["GF(18446744073709551629)"]})


@pytest.mark.parametrize("name, params", [
    # bounded parameters are ints, and a bool is not one
    ("hartshorne", {"n_max": True}),
    ("ring-A-colon", {"n_max": 2.0}),
    ("toeplitz-suite", {"census_n_max": True}),
    # the root check is exact: a tolerance is an unknown parameter
    ("toeplitz-suite", {"roots_tol": 1e-8}),
    # roots_n_max is an int in [1, 64]
    ("toeplitz-suite", {"roots_n_max": 65}),
    ("toeplitz-suite", {"roots_n_max": 0}),
    ("toeplitz-suite", {"roots_n_max": 12.0}),
    ("toeplitz-suite", {"roots_n_max": True}),
    ("toeplitz-suite", {"roots_n_max": "12"}),
    # ptor2's p takes the torsion prime bounds; its instance is fixed
    ("ptor2-theorem", {"p": 1009}),
    ("ptor2-theorem", {"p": 37}),
    ("ptor2-theorem", {"p": 9}),
    ("ptor2-theorem", {"f": ["x", "y", "z"]}),
    ("ptor2-theorem", {"variables": ["x", "y", "z"]}),
    # Frobenius exponents are distinct powers of p inside n_max's bounds
    ("singh-swanson-S", {"q_list": [16]}),
    ("singh-swanson-S", {"q_list": [0]}),
    ("singh-swanson-S", {"q_list": [2, 2]}),
    ("singh-swanson-S", {"q_list": [True]}),
    ("singh-swanson-S", {"q_list": [3]}),
    ("singh-swanson-S", {"q_list": 2}),
    ("singh-swanson-S", {"q_list": [[2]]}),
])
def test_parameter_validation_is_strict(name, params):
    t0 = time.perf_counter()
    with pytest.raises(ValueError):
        run_scenario(name, params)
    assert time.perf_counter() - t0 < 0.1


def test_parameters_inside_the_new_bounds_run():
    assert run_scenario("toeplitz-suite", {
        "n_max": 2, "generating_order": 2, "roots_n_max": 64,
        "census_n_max": 2}).passed
    report = run_scenario("singh-swanson-S", {"q_list": [1, 4, 8], "n_max": 1})
    assert [c.name for c in report.checks] == [
        "annihilator-n1", "annihilator-n4", "annihilator-n8",
        "frobenius-witness-q1", "frobenius-witness-q4", "frobenius-witness-q8"]
    assert report.passed
    report = run_scenario("ptor2-theorem", {"p": 7, "e": 1, "domains": ["GF(11)"]})
    assert report.passed and set(report.params) == {"p", "e", "domains"}
    cert = report.checks[0].certificate
    assert (cert["variables"], cert["f"], cert["g"]) == \
        (["x", "y", "z"], ["x", "y", "z"], ["y*z", "x*z", "-2*x*y"])
    # at the top of both bounds one term's membership in a monomial ideal
    # is decided termwise, before any Groebner run
    t0 = time.perf_counter()
    report = run_scenario("ptor2-theorem", {"p": 31, "e": 3})
    assert report.passed and reverify(report)
    assert time.perf_counter() - t0 < 0.1


@pytest.mark.parametrize("primes", [[37], [2, 37], [101], [1], [-2], [3, 3],
                                    3, ["7"]])
def test_torsion_primes_are_bounded(primes):
    with pytest.raises(ValueError):
        run_scenario("singh-p-torsion", {"primes": primes})


def test_torsion_primes_up_to_the_bound_run_and_reverify():
    report = run_scenario("singh-p-torsion", {"primes": [13, 17, 19, 23, 29, 31]})
    assert report.passed and len(report.checks) == 6
    assert reverify(json.loads(json.dumps(report.to_json_dict())))


def test_report_params_do_not_alias_the_defaults():
    # mutating one report's parameter lists must not change later defaults
    report = run_scenario("singh-p-torsion")
    report.params["primes"].append(37)
    assert run_scenario("singh-p-torsion").passed
    assert run_scenario("ptor2-theorem").params["domains"] is not \
        run_scenario("ptor2-theorem").params["domains"]


def test_hartshorne_report():
    report = run_scenario("hartshorne", {"n_max": 2})
    assert report.passed
    kills = [c for c in report.checks if c.name.startswith("socle-kill")]
    assert len(kills) == 12
    for c in kills:
        assert c.status == "pass"
        assert c.certificate["k"] <= 2
    unknowns = [c for c in report.checks if c.name.startswith("socle-nonzero")]
    assert all(c.status == "unknown" and c.ok for c in unknowns)


def test_socle_nonzero_decides_unknown_by_one_membership_test(monkeypatch):
    levels = []
    real = cohomology._vanishes_at
    monkeypatch.setattr(cohomology, "_vanishes_at",
                        lambda c, k: levels.append(k) or real(c, k))
    plan = scenarios._plan_hartshorne({"n_max": 8, "k_max": 12, "p": 101})
    nonzero = [c for c in plan if c.name.startswith("socle-nonzero")]
    assert len(nonzero) == 9
    for planned in nonzero:
        levels.clear()
        status, actual, _ = planned.issue()
        assert (status, actual) == ("unknown", UnknownUpTo(12).to_json_dict())
        assert levels == [12], planned.name
    # a class that vanishes below k_max gets the search's least witness
    ring = PolyRing(("w", "x", "y", "z"), GF(101))
    w, x, y, z = ring.gens()
    quotient = QuotientRing(ring, (w * x - y * z,))
    for n, k_max in ((0, 12), (2, 12), (3, 1), (3, 0)):
        cls = CechClass(quotient, (x, y), n + 1, w * y ** n * z ** n)
        status, actual, _ = scenarios._socle_nonzero("c", cls, k_max).issue()
        assert actual == is_zero_up_to(cls, k_max).to_json_dict()
        assert status == ("fail" if actual["verdict"] == "zero_at" else "unknown")


def _masked_report(name, params=None):
    report = run_scenario(name, params).to_json_dict()
    report["seconds"] = 0
    for check in report["checks"]:
        check["seconds"] = 0
    return json.dumps(report, sort_keys=True)


def test_singh_p_torsion_report_does_not_depend_on_earlier_runs():
    # the degree solver caches echelon forms and covector cones per weight
    # table; what earlier runs left there must not change a report
    def cold():
        degree_solver._cone_box.cache_clear()
        degree_solver._degree_map.cache_clear()

    params = {"primes": [2, 3, 5, 7, 11, 31]}
    cold()
    first = _masked_report("singh-p-torsion", params)
    assert _masked_report("singh-p-torsion", params) == first
    cold()
    _masked_report("singh-swanson-S", {"n_max": 8, "k": 2})
    assert _masked_report("singh-p-torsion", params) == first


def test_singh_p_torsion_report():
    report = run_scenario("singh-p-torsion", {"primes": [2, 3]})
    assert report.passed and len(report.checks) == 2
    cert = report.checks[0].certificate
    assert cert["kind"] == "torsion"
    steps = cert["nonvanishing"]["certificate"]["steps"]
    assert [s["name"] for s in steps] == [
        "homogeneity", "cofactor_degrees", "reduction_identity",
        "specialization", "final_nonmembership",
    ]


def test_ptor2_report_flags_integer_gap():
    report = run_scenario("ptor2-theorem")
    assert report.passed
    for check in report.checks:
        assert "Z-level" in check.certificate["note"]
    domains = {c.certificate["domain"] for c in report.checks}
    assert domains == {"QQ", "GF(5)"}


def test_ring_a_annihilators_match_qn():
    report = run_scenario("ring-A-colon", {"n_max": 4, "p": 101})
    assert report.passed
    sub = PolyRing(("s", "t"), GF(101))
    for n, check in enumerate(report.checks, start=1):
        expected = buchberger(
            Ideal(sub, (convert(qn_recursive(n - 1).poly, sub),))
        ).basis
        assert check.certificate["computed_generators"] == [str(g) for g in expected]


def test_ring_b_report():
    report = run_scenario("ring-B-colon", {"n_max": 3})
    assert report.passed and len(report.checks) == 3


def test_singh_swanson_bound_tops_run_and_reverify():
    report = run_scenario("singh-swanson-S", {"n_max": 8, "k": 2})
    assert report.passed
    assert [c.name for c in report.checks] == \
        [f"annihilator-n{n}" for n in range(1, 9)] + ["frobenius-witness-q2"]
    assert reverify(json.loads(json.dumps(report.to_json_dict())))
    for over in ({"n_max": 9}, {"k": 3}):
        with pytest.raises(ValueError):
            run_scenario("singh-swanson-S", over)


def test_singh_swanson_report():
    report = run_scenario("singh-swanson-S")
    assert report.passed
    names = [c.name for c in report.checks]
    assert "annihilator-n2" in names and "frobenius-witness-q2" in names
    fro = next(c for c in report.checks if c.name == "frobenius-witness-q2")
    assert fro.certificate["bracket_generators"] == ["x^2", "y^2", "z^2"]


def test_katzman_and_toeplitz_pass():
    assert run_scenario("katzman-factorization").passed
    report = run_scenario("toeplitz-suite", {"n_max": 4, "census_n_max": 5})
    assert report.passed
    census_check = next(c for c in report.checks if c.name == "factor-census")
    assert census_check.actual["cumulative_count"] == 7


def test_reports_are_deterministic():
    def strip(d):
        if isinstance(d, dict):
            return {k: strip(v) for k, v in d.items() if k != "seconds"}
        if isinstance(d, list):
            return [strip(x) for x in d]
        return d

    for name in ("hartshorne", "ring-A-colon", "katzman-factorization"):
        a = run_scenario(name).to_json_dict()
        b = run_scenario(name).to_json_dict()
        assert json.dumps(strip(a), sort_keys=True) == \
            json.dumps(strip(b), sort_keys=True)


def test_reverify_roundtrips():
    for name, _ in list_scenarios():
        params = {"n_max": 2} if name in ("hartshorne", "ring-B-colon") else \
            {"primes": [2]} if name == "singh-p-torsion" else \
            {"n_max": 4, "census_n_max": 4} if name == "toeplitz-suite" else \
            {"n_max": 2} if name in ("ring-A-colon", "singh-swanson-S") else None
        report = run_scenario(name, params)
        assert report.passed, name
        assert reverify(report), name
        # and through a JSON round trip
        assert reverify(json.loads(json.dumps(report.to_json_dict()))), name


@pytest.mark.parametrize("name", [n for n, _ in list_scenarios()])
def test_each_check_reverifies_on_its_own(name):
    # checks share no state: each certificate of a fresh report re-checks
    # alone, here in reverse plan order
    report = json.loads(json.dumps(run_scenario(name).to_json_dict()))
    plan = scenarios._REGISTRY[name].plan(report["params"])
    assert [planned.name for planned in plan] == [c["name"] for c in report["checks"]]
    for planned, check in reversed(list(zip(plan, report["checks"]))):
        derived = scenarios._guarded_check(planned, check["certificate"])
        assert derived.ok, check["name"]
        assert scenarios._same({**derived.to_json_dict(), "seconds": None},
                               {**check, "seconds": None}), check["name"]


def _without_seconds(report):
    return {**report, "seconds": None,
            "checks": [{**check, "seconds": None} for check in report["checks"]]}


def test_a_report_that_misses_an_expected_status_does_not_reverify(monkeypatch):
    # an empty component breaks every annihilator check from n = 2 on;
    # deriving the report again under the same fault reproduces it exactly,
    # and it is still rejected for the statuses it misses
    monkeypatch.setattr(scenarios, "monomials_of_degree", lambda weights, target: [])
    report = run_scenario("singh-swanson-S").to_json_dict()
    assert not report["passed"]
    assert scenarios._same(_without_seconds(report),
                           _without_seconds(run_scenario("singh-swanson-S").to_json_dict()))
    assert reverify(report) is False


def test_frobenius_witness_fails_with_its_annihilator(monkeypatch):
    # an empty component breaks every annihilator check from n = 2 on
    monkeypatch.setattr(scenarios, "monomials_of_degree", lambda weights, target: [])
    params = scenarios._validated_params(scenarios._REGISTRY["singh-swanson-S"], None)
    plan = {planned.name: planned for planned in
            scenarios._REGISTRY["singh-swanson-S"].plan(params)}
    assert plan["annihilator-n2"].issue()[0] == "fail"
    status, actual, _ = plan["frobenius-witness-q2"].issue()
    assert (status, actual) == ("fail", {"bracket_power_matches": True,
                                         "annihilator_witness_passes": False})
    report = run_scenario("singh-swanson-S")
    assert [c.status for c in report.checks] == ["pass", "fail", "fail", "fail"]


def test_reverify_detects_tampering():
    torsion = run_scenario("singh-p-torsion", {"primes": [2]}).to_json_dict()
    tampered = copy.deepcopy(torsion)
    tampered["checks"][0]["certificate"]["annihilation"]["sequence_cofactors"][0] = "u"
    assert not reverify(tampered)

    tampered = copy.deepcopy(torsion)
    steps = tampered["checks"][0]["certificate"]["nonvanishing"]["certificate"]["steps"]
    steps[-1]["data"]["residual_mod_p"] = "0"
    assert not reverify(tampered)

    tampered = copy.deepcopy(torsion)
    steps = tampered["checks"][0]["certificate"]["nonvanishing"]["certificate"]["steps"]
    spec_step = next(s for s in steps if s["name"] == "specialization")
    spec_step["data"]["generator_images"]["w^p*z^p"] = "x^2"
    assert not reverify(tampered)

    tampered = copy.deepcopy(torsion)
    steps = tampered["checks"][0]["certificate"]["nonvanishing"]["certificate"]["steps"]
    cof_step = next(s for s in steps if s["name"] == "cofactor_degrees")
    cof_step["data"]["cofactors"][0]["family_const"] = [0, 0, 0, 0, 0, 0]
    assert not reverify(tampered)

    hart = run_scenario("hartshorne", {"n_max": 1}).to_json_dict()
    tampered = copy.deepcopy(hart)
    for check in tampered["checks"]:
        if check["certificate"]["kind"] == "zero_at" and check["certificate"]["k"] == 1:
            check["certificate"]["k"] = 0  # tampered witness exponent
            break
    else:
        pytest.fail("expected a k=1 witness to tamper with")
    assert not reverify(tampered)

    ann = run_scenario("ring-A-colon", {"n_max": 3}).to_json_dict()
    tampered = copy.deepcopy(ann)
    tampered["checks"][2]["certificate"]["expected_generators"] = ["s^2 + 1"]
    assert not reverify(tampered)


_FORGERY_REPORTS: dict = {}


def _fresh_report(name, params):
    """A deep copy of one run of the scenario, shared across the forgeries."""
    key = (name, json.dumps(params, sort_keys=True))
    if key not in _FORGERY_REPORTS:
        _FORGERY_REPORTS[key] = run_scenario(name, params).to_json_dict()
    return copy.deepcopy(_FORGERY_REPORTS[key])


def _check(report, name):
    return next(c for c in report["checks"] if c["name"] == name)


def _katzman_x_equals_x(report):
    cert = _check(report, "defining-equation-factors")["certificate"]
    cert["ring"] = {"variables": ["x"], "domain": "QQ"}
    cert["lhs"], cert["rhs_factors"] = "x", ["x"]


def _ring_a_unit_annihilates_a5(report):
    # 1 * a^5 does lie in (a^2, b^2), so a class-driven check accepts it
    cert = _check(report, "colon-n2")["certificate"]
    cert["class"]["numerator"] = "a^5"
    cert["computed_generators"] = cert["expected_generators"] = ["1"]


def _hartshorne_witness_k5(report):
    # vanishing at k = 1 implies vanishing at k = 5, but the claim is k <= 2
    cert = _check(report, "socle-kill-n1-w")["certificate"]
    assert cert["k"] == 1
    cert["k"] = 5


def _hartshorne_numerator_x9(report):
    _check(report, "socle-kill-n1-w")["certificate"]["class"]["numerator"] = "x^9"


def _ptor2_other_syzygy(report):
    # x*y + y*(-x) = 0 is a syzygy too, and its membership holds trivially
    for check in report["checks"]:
        check["certificate"]["f"], check["certificate"]["g"] = ["x", "y"], ["y", "-x"]


def _frobenius_witness_at_n1(report):
    cert = _check(report, "frobenius-witness-q2")["certificate"]
    cert["witness_annihilator_check"] = "annihilator-n1"


def _relabelled_as_ring_b(report):
    report["scenario"] = "ring-B-colon"


def _unknown_k_max_30(report):
    _check(report, "socle-nonzero-n0")["certificate"]["k_max"] = 30


def _params_out_of_bounds(report):
    report["params"]["n_max"] = 99


def _ptor2_p1009_e3(report):
    # q = 1009^3: expanding lambda_q alone would take minutes
    k = 1009 ** 3 - 1
    report["params"].update(p=1009, e=3)
    for check in report["checks"]:
        check["name"] = f"membership-k{k}-{check['certificate']['domain']}"
        check["certificate"].update(p=1009, e=3, k=k)


@pytest.mark.parametrize("name, params, forge", [
    ("katzman-factorization", {}, _katzman_x_equals_x),
    ("ring-A-colon", {"n_max": 3}, _ring_a_unit_annihilates_a5),
    ("hartshorne", {"n_max": 1}, _hartshorne_witness_k5),
    ("hartshorne", {"n_max": 1}, _hartshorne_numerator_x9),
    ("ptor2-theorem", {}, _ptor2_other_syzygy),
    ("singh-swanson-S", {"n_max": 2}, _frobenius_witness_at_n1),
    ("ring-A-colon", {"n_max": 3}, _relabelled_as_ring_b),
    ("hartshorne", {"n_max": 1}, _unknown_k_max_30),
    ("hartshorne", {"n_max": 1}, _params_out_of_bounds),
    ("ptor2-theorem", {}, _ptor2_p1009_e3),
])
def test_reverify_rejects_forgeries_against_the_plan(name, params, forge):
    report = _fresh_report(name, params)
    assert reverify(copy.deepcopy(report))
    forge(report)
    t0 = time.perf_counter()
    assert reverify(report) is False
    assert time.perf_counter() - t0 < 0.1


def _passed_false(report):
    report["passed"] = False


def _description_replaced(report):
    report["description"] = "a construction this report is not about"


def _version_replaced(report):
    report["version"] = "0.0.0"


def _every_actual_1(report):
    for check in report["checks"]:
        check["actual"] = "1"


def _every_diagnostics_x1(report):
    for check in report["checks"]:
        check["diagnostics"] = {"x": 1}


def _extra_report_key(report):
    report["extra"] = 1


def _extra_check_key(report):
    report["checks"][-1]["extra"] = 1


def _extra_certificate_key(kind):
    def tamper(report):
        for check in report["checks"]:
            if check["certificate"]["kind"] == kind:
                check["certificate"]["extra"] = 1
    tamper.__name__ = f"_extra_{kind}_certificate_key"
    return tamper


def _census_count_1000(report):
    _check(report, "factor-census")["actual"]["cumulative_count"] = 1000


def _census_row_extra_key(report):
    _check(report, "factor-census")["certificate"]["census"]["rows"][2]["extra"] = 1


@pytest.mark.parametrize("name, tamper", [
    *[(name, tamper) for name, _ in list_scenarios()
      for tamper in (_passed_false, _description_replaced, _version_replaced,
                     _every_actual_1, _every_diagnostics_x1, _extra_report_key,
                     _extra_check_key)],
    ("hartshorne", _extra_certificate_key("zero_at")),
    ("toeplitz-suite", _extra_certificate_key("toeplitz_equality")),
    ("toeplitz-suite", _extra_certificate_key("census")),
    ("toeplitz-suite", _census_count_1000),
    ("toeplitz-suite", _census_row_extra_key),
])
def test_reverify_rejects_a_tampered_field(name, tamper):
    # a report re-verifies only if it is the one its plan and certificates
    # imply, so no field outside a certificate is taken on trust
    report = _fresh_report(name, None)
    assert reverify(copy.deepcopy(report))
    tamper(report)
    assert reverify(report) is False


def test_reverify_needs_a_known_scenario():
    report = _fresh_report("katzman-factorization", {})
    for name in ("no-such-scenario", None, ["hartshorne"]):
        report["scenario"] = name
        with pytest.raises(MalformedReportError):
            reverify(report)


@pytest.fixture(scope="module")
def torsion_report_p3():
    return run_scenario("singh-p-torsion", {"primes": [3]}).to_json_dict()


def test_reverify_rejects_a_forged_torsion_class(torsion_report_p3):
    # [lambda_3 + (x, y, z)] is zero, since lambda_3 lies in (x, y, z), yet
    # these cofactors satisfy the annihilation identity at m = 1
    forged = copy.deepcopy(torsion_report_p3)
    cert = forged["checks"][0]["certificate"]
    cert["class"]["m"] = 1
    cert["annihilation"]["sequence_cofactors"] = ["u^3*x^2", "v^3*y^2", "w^3*z^2"]
    assert not reverify(forged)


def test_reverify_reruns_the_pipeline_transcript(torsion_report_p3):
    tampered = copy.deepcopy(torsion_report_p3)
    pipeline = tampered["checks"][0]["certificate"]["nonvanishing"]["certificate"]
    pipeline["steps"][2]["statement"] += " "
    assert not reverify(tampered)


def _set_p(cert, p):
    cert["p"] = p


def _set_pipeline_p(cert, p):
    cert["nonvanishing"]["certificate"]["p"] = p


def _set_both_p(cert, p):
    _set_p(cert, p)
    _set_pipeline_p(cert, p)


def _set_degree(cert, p):
    steps = cert["nonvanishing"]["certificate"]["steps"]
    hom = next(s for s in steps if s["name"] == "homogeneity")
    hom["data"]["degree"] = [0, 0, 0, p]


def _set_target_base(cert, p):
    steps = cert["nonvanishing"]["certificate"]["steps"]
    cof = next(s for s in steps if s["name"] == "cofactor_degrees")
    cof["data"]["cofactors"][0]["target_base"] = [-p, 0, 0, p]


def _set_target_slope(cert, k):
    steps = cert["nonvanishing"]["certificate"]["steps"]
    cof = next(s for s in steps if s["name"] == "cofactor_degrees")
    cof["data"]["cofactors"][0]["target_slope"] = [0, k, k, 0]


@pytest.mark.parametrize("tamper, value", [
    (_set_both_p, 37),          # prime past the bound
    (_set_both_p, 10007),       # would enumerate for hours unbounded
    (_set_both_p, 9),           # in range but not prime
    (_set_both_p, "3"),         # not an integer
    (_set_p, 5),                # outer p disagrees with the pipeline's
    (_set_pipeline_p, 5),       # pipeline p disagrees with the outer one
    (_set_pipeline_p, 10007),
    (_set_degree, 4),           # homogeneity degree is not (0,0,0,p)
    (_set_degree, 10007),
    (_set_target_base, 10007),  # cofactor target that p does not give
    (_set_target_slope, 5000),
])
def test_reverify_bounds_torsion_work(torsion_report_p3, tamper, value):
    tampered = copy.deepcopy(torsion_report_p3)
    tamper(tampered["checks"][0]["certificate"], value)
    t0 = time.perf_counter()
    assert not reverify(tampered)
    assert time.perf_counter() - t0 < 0.1


@pytest.fixture(scope="module")
def census_report():
    return run_scenario("toeplitz-suite", {
        "n_max": 1, "generating_order": 2, "roots_n_max": 1, "census_n_max": 8,
    }).to_json_dict()


def _census_of(report):
    return report["checks"][-1]["certificate"]["census"]


def _census_p_string(report):
    _census_of(report)["p"] = "5"


def _census_p_not_prime(report):
    _census_of(report)["p"] = report["params"]["census_p"] = 9


def _census_p_not_the_params(report):
    _census_of(report)["p"] = 7


def _census_n_max_not_row_count(report):
    _census_of(report)["n_max"] = report["params"]["census_n_max"] = 7


def _census_n_max_above_bounds(report):
    rows = _census_of(report)["rows"]
    rows += [dict(rows[-1], n=n) for n in range(9, 401)]
    _census_of(report)["n_max"] = report["params"]["census_n_max"] = 400


def _census_n_max_below_bounds(report):
    _census_of(report)["rows"] = []
    _census_of(report)["n_max"] = report["params"]["census_n_max"] = 0


def _census_row_n_400(report):
    _census_of(report)["rows"][3]["n"] = 400


def _census_row_n_2000(report):
    _census_of(report)["rows"][-1]["n"] = 2000


def _census_rows_out_of_order(report):
    rows = _census_of(report)["rows"]
    rows[2], rows[3] = rows[3], rows[2]


def _census_row_n_not_int(report):
    _census_of(report)["rows"][0]["n"] = True


def _census_p_above_the_prime_bound(report):
    # 2^64 + 13 is prime; the bound rejects it before any primality test
    _census_of(report)["p"] = report["params"]["census_p"] = 2 ** 64 + 13


def _census_first_occurrence_99(report):
    first = _census_of(report)["first_occurrence"]
    first[next(iter(first))] = 99


def _census_first_occurrence_empty(report):
    _census_of(report)["first_occurrence"] = {}


def _census_note_changed(report):
    _census_of(report)["note"] += "."


def _census_dehomogenized_at_changed(report):
    _census_of(report)["dehomogenized_at"] = "t=1"


def _census_extra_key(report):
    _census_of(report)["extra"] = 1


def _census_p_float(report):
    _census_of(report)["p"] = float(_census_of(report)["p"])


def _census_n_max_float(report):
    _census_of(report)["n_max"] = float(_census_of(report)["n_max"])


def _census_first_occurrence_rederived(report):
    census = _census_of(report)
    census["first_occurrence"] = \
        census_json(census["p"], census["n_max"], census["rows"])["first_occurrence"]


def _census_factors_swapped(report):
    # row 5 is t (t + 1)(t + 4)(t^2 + 2)
    factors = _census_of(report)["rows"][4]["factors"]
    factors[0], factors[1] = factors[1], factors[0]


def _census_new_factor_dropped(report):
    # t + 1 and t + 4 are new at row 2
    row = _census_of(report)["rows"][1]
    assert row["new_factors"] == ["t + 1", "t + 4"]
    row["new_factors"] = ["t + 4"]
    _census_first_occurrence_rederived(report)


def _census_old_factor_new_again(report):
    # t, new at row 1, is a factor of row 5 again
    row = _census_of(report)["rows"][4]
    assert row["factors"][0] == "t" and "t" not in row["new_factors"]
    row["new_factors"] = ["t"] + row["new_factors"]
    _census_first_occurrence_rederived(report)


def _census_count_one_higher(report):
    for row in _census_of(report)["rows"][3:]:
        row["cumulative_count"] += 1


def _census_missing(report):
    del report["checks"][-1]["certificate"]["census"]


def _census_5(report):
    report["checks"][-1]["certificate"]["census"] = 5


def _census_rows_5(report):
    _census_of(report)["rows"] = 5


def _census_rows_null(report):
    _census_of(report)["rows"] = None


@pytest.mark.parametrize("tamper", [
    _census_p_string,             # p is not an int
    _census_p_not_prime,          # p is not prime
    _census_p_not_the_params,     # p differs from params.census_p
    _census_n_max_not_row_count,  # n_max is not len(rows)
    _census_n_max_above_bounds,   # n_max past census_n_max's bounds
    _census_n_max_below_bounds,
    _census_row_n_400,            # rows are not n = 1..n_max
    _census_row_n_2000,
    _census_rows_out_of_order,
    _census_row_n_not_int,
    _census_p_above_the_prime_bound,
    _census_first_occurrence_99,  # a field the rows imply is not theirs
    _census_first_occurrence_empty,
    _census_note_changed,
    _census_dehomogenized_at_changed,
    _census_extra_key,
    _census_p_float,              # equal to params.census_p, but not an int
    _census_n_max_float,
    _census_factors_swapped,      # a field the factorizations imply is not theirs
    _census_new_factor_dropped,
    _census_old_factor_new_again,
    _census_count_one_higher,
    _census_missing,              # the census is not a dict of rows
    _census_5,
    _census_rows_5,
    _census_rows_null,
])
def test_reverify_bounds_census_work(census_report, tamper):
    tampered = copy.deepcopy(census_report)
    tamper(tampered)
    t0 = time.perf_counter()
    assert not reverify(tampered)
    assert time.perf_counter() - t0 < 0.1


def _cert_of_kind(report, kind):
    return next(c["certificate"] for c in report["checks"]
                if c["certificate"]["kind"] == kind)


def _equality_n_1500(report):
    _cert_of_kind(report, "toeplitz_equality")["n"] = 1500


def _equality_n_and_params_1500(report):
    # consistent with params, but past n_max's bounds
    _equality_n_1500(report)
    report["params"]["n_max"] = 1500


def _equality_n_not_int(report):
    _cert_of_kind(report, "toeplitz_equality")["n"] = 1.0


def _generating_order_400(report):
    _cert_of_kind(report, "generating")["order"] = 400


def _generating_order_and_params_400(report):
    _generating_order_400(report)
    _cert_of_kind(report, "generating_sabotage")["order"] = 400
    report["params"]["generating_order"] = 400


def _sabotage_order_300(report):
    _cert_of_kind(report, "generating_sabotage")["order"] = 300


def _roots_n_3000(report):
    _cert_of_kind(report, "chebyshev")["n"] = 3000


def _roots_n_and_params_3000(report):
    _roots_n_3000(report)
    report["params"]["roots_n_max"] = 3000


def _without(key):
    def tamper(certificate):
        del certificate[key]
    tamper.__name__ = f"_without_{key}"
    return tamper


def _setter(key, value):
    def tamper(certificate):
        certificate[key] = value
    tamper.__name__ = f"_{key}_{value}"
    return tamper


def _census_setter(key, value):
    def tamper(certificate):
        certificate["census"][key] = value
    tamper.__name__ = f"_census_{key}_{value}"
    return tamper


@pytest.mark.parametrize("name, check, tamper", [
    ("toeplitz-suite", "factor-census", _without("census")),
    ("toeplitz-suite", "factor-census", _setter("census", 5)),
    ("toeplitz-suite", "factor-census", _census_setter("rows", 5)),
    ("toeplitz-suite", "factor-census", _census_setter("rows", None)),
    ("toeplitz-suite", "recursion-vs-oracle-n3", _without("polynomial")),
    ("hartshorne", "socle-kill-n1-w", _without("k")),
    ("hartshorne", "socle-kill-n1-w", _setter("k", 3)),  # past k <= 2
])
def test_planned_verify_fails_on_a_malformed_certificate(monkeypatch, name, check, tamper):
    # a certificate of the planned kind but the wrong shape, or a witness
    # past the claim, is a failed check before any membership test, not an
    # exception that reverify would have to swallow
    report = _fresh_report(name, None)
    certificate = _check(report, check)["certificate"]
    tamper(certificate)
    scenario = scenarios._REGISTRY[name]
    (planned,) = [c for c in scenario.plan(report["params"]) if c.name == check]
    tests = []
    monkeypatch.setattr(scenarios, "verify_zero_at", lambda *args: tests.append(args))
    status, _, _ = planned.verify(copy.deepcopy(certificate))
    monkeypatch.undo()
    assert status == "fail" and tests == []
    assert reverify(report) is False


@pytest.mark.parametrize("tamper", [
    _equality_n_1500,                  # n past params.n_max
    _equality_n_and_params_1500,       # n_max past its bounds
    _equality_n_not_int,
    _generating_order_400,             # order is not params.generating_order
    _generating_order_and_params_400,  # generating_order past its bounds
    _sabotage_order_300,
    _roots_n_3000,                     # n past params.roots_n_max
    _roots_n_and_params_3000,          # roots_n_max past its bounds
])
def test_reverify_bounds_toeplitz_work(census_report, tamper):
    tampered = copy.deepcopy(census_report)
    tamper(tampered)
    t0 = time.perf_counter()
    assert not reverify(tampered)
    assert time.perf_counter() - t0 < 0.1


def test_reverify_checks_census_factor_degrees(census_report):
    # a factor of huge degree is rejected by its degree, before any product
    tampered = copy.deepcopy(census_report)
    _census_of(tampered)["rows"][0]["factorization"] = [["t^100000000", 1]]
    t0 = time.perf_counter()
    assert not reverify(tampered)
    assert time.perf_counter() - t0 < 0.1
    assert reverify(census_report)


@pytest.mark.parametrize("field, value", [
    ("multiplicity", 1.25),          # read with int() this counted as 1
    ("multiplicity", True),
    ("multiplicity", "1"),
    ("cumulative_count", 1.5),
    ("cumulative_count", True),
    ("cumulative_count", "1"),
])
def test_reverify_requires_int_census_counts(census_report, field, value):
    # row n = 1 is Q_1 = t: multiplicity 1, cumulative count 1
    tampered = copy.deepcopy(census_report)
    row = _census_of(tampered)["rows"][0]
    if field == "multiplicity":
        row["factorization"][0][1] = value
    else:
        row[field] = value
    assert not reverify(tampered)


def _refuse(*_args, **_kwargs):
    raise AssertionError("Rabin's test or the mirror ran on the census certificate path")


def test_census_check_needs_no_rabin_test_and_no_mirror(monkeypatch):
    # rows full of mirror pairs g, (-1)^deg g g(-t) are certified by the
    # degree lemma alone: the check takes neither Rabin's test nor a mirror
    p = 5
    rows = factor_census(64, p).to_json_dict()["rows"]
    factors = {tuple(_read_factor(f, p, 64)) for row in rows for f in row["factors"]}
    pairs = {f for f in factors if tuple(mirror_fp(list(f), p)) in factors - {f}}
    assert len(pairs) > len(factors) // 2
    for name in ("irreducible_fp", "_degree_certified", "mirror_fp"):
        monkeypatch.setattr(toeplitz, name, _refuse)
    assert census_rows_sound(p, rows)


@pytest.mark.parametrize("p", [5, 11])
def test_census_certificate_path_runs_no_rabin_test(monkeypatch, capsys, p):
    # run, reverify and `cohomcert toeplitz` certify every census factor
    # with Rabin's test unavailable, and the row check runs once per run
    # and once per reverify: one group degree per row
    real = toeplitz._group_degree
    calls = []

    def counted(k, p):
        calls.append(k)
        return real(k, p)
    monkeypatch.setattr(toeplitz, "_group_degree", counted)
    for name in ("irreducible_fp", "_degree_certified"):
        monkeypatch.setattr(toeplitz, name, _refuse)
    report = run_scenario("toeplitz-suite", {"census_p": p, "census_n_max": 64})
    assert report.passed
    assert calls == list(range(2, 66))
    calls.clear()
    assert reverify(report.to_json_dict())
    assert calls == list(range(2, 66))
    assert main(["toeplitz", "--n-max", "64", "--p", str(p)]) == 0
    assert f"up to n = 64: {report.checks[-1].actual['cumulative_count']}" \
        in capsys.readouterr().out


def test_census_check_builds_no_polynomial(monkeypatch):
    # the census and its row check work on dense coefficient lists from
    # factorization or parse to verdict
    rows = factor_census(64, 5).to_json_dict()["rows"]

    def refuse(*_args, **_kwargs):
        raise AssertionError("the census or its row check built a Polynomial")
    monkeypatch.setattr(Polynomial, "__init__", refuse)
    assert census_rows_sound(5, rows)
    assert factor_census(64, 5).to_json_dict()["rows"] == rows


def test_reverify_rejects_non_monic_census_factors():
    # over GF(5), (2t + 2)(3t + 2) = t^2 - 1 = (t + 1)(t + 4): the associates
    # keep row 2's product and each is irreducible, and once recounted (t + 1
    # and t + 4 are new again at their next row) every count is consistent.
    # The census prints monic factors only
    report = run_scenario("toeplitz-suite",
                          {"census_p": 5, "census_n_max": 16}).to_json_dict()
    tampered = copy.deepcopy(report)
    census = _census_of(tampered)
    assert census["rows"][1]["factorization"] == [["t + 1", 1], ["t + 4", 1]]
    census["rows"][1]["factorization"] = [["2*t + 2", 1], ["3*t + 2", 1]]
    census["rows"] = census_rows([row["factorization"] for row in census["rows"]])
    census["first_occurrence"] = \
        census_json(5, 16, census["rows"])["first_occurrence"]
    assert _census_of(report)["rows"][-1]["cumulative_count"] == 26
    assert census["rows"][-1]["cumulative_count"] == 28
    assert not reverify(tampered)
    assert reverify(report)


def test_reverify_rejects_a_merged_mirror_pair(census_report):
    # t + 1 and its mirror t + 4 always occur together, with equal
    # multiplicities; their product t^2 + 4 keeps every row's product and
    # degrees, so only its irreducibility certificate can reject it
    tampered = copy.deepcopy(census_report)
    merged = False
    for row in _census_of(tampered)["rows"]:
        mults = dict(row["factorization"])
        if "t + 1" not in mults:
            assert "t + 4" not in mults
            row["cumulative_count"] -= merged
            continue
        assert mults["t + 1"] == mults["t + 4"]
        row["factorization"] = [[f, m] for f, m in row["factorization"]
                                if f not in ("t + 1", "t + 4")] + \
            [["t^2 + 4", mults["t + 1"]]]
        row["factors"] = [f for f, _ in row["factorization"]]
        if "t + 1" in row["new_factors"]:
            row["new_factors"] = [f for f in row["new_factors"]
                                  if f not in ("t + 1", "t + 4")] + ["t^2 + 4"]
            merged = True
        row["cumulative_count"] -= merged
    assert merged
    assert not reverify(tampered)
    assert reverify(census_report)


def _census_row_refactored(report, n, old, new):
    """Row n with the factors old replaced by new, every row, the first
    occurrences and the reported count derived again, so only the
    factorization is wrong, and the row check rejects it."""
    census = _census_of(report)
    factorization = [[f, m] for f, m in census["rows"][n - 1]["factorization"]
                     if f not in old] + new
    assert len(factorization) == len(census["rows"][n - 1]["factorization"]) \
        - len(old) + len(new)
    column = [row["factorization"] for row in census["rows"]]
    column[n - 1] = factorization
    census["rows"] = census_rows(column)
    _census_first_occurrence_rederived(report)
    report["checks"][-1]["actual"]["cumulative_count"] = \
        census["rows"][-1]["cumulative_count"]
    # the row still has degree n and multiplies to Q_n(1,t)
    assert toeplitz.power_product_fp(
        [(_read_factor(f, 5, 8), m) for f, m in factorization], 5) == \
        toeplitz.qn_row_fp(n, 5)
    assert not census_rows_sound(5, census["rows"])


def test_reverify_rejects_a_row_without_an_older_group(census_report):
    # Q_5(1,t) = G_2 G_3 G_6 = t * (t + 1)(t + 4) * (t^2 + 2) over GF(5).
    # t^2 + t = t(t + 1) has degree 2 = e_12, the degree of every factor of
    # the new group G_6 = Psi_12, so only the subtraction of the older
    # groups G_2 and G_3 rejects it
    assert toeplitz._group_degree(6, 5) == 2
    tampered = copy.deepcopy(census_report)
    _census_row_refactored(tampered, 5, ("t", "t + 1"), [["t^2 + t", 1]])
    assert not reverify(tampered)


def test_reverify_rejects_two_new_factors_merged(census_report):
    # G_7 = Psi_7 * Psi_14 splits over GF(5) into two factors of degree
    # e_7 = 3, both new at row 6; their product has degree 6, not 3
    assert toeplitz._group_degree(7, 5) == 3
    tampered = copy.deepcopy(census_report)
    row = _census_of(tampered)["rows"][5]
    assert row["factors"] == row["new_factors"] and len(row["factors"]) == 2
    product = mul_fp(*(_read_factor(f, 5, 8) for f in row["factors"]), 5)
    _census_row_refactored(tampered, 6, row["factors"], [[_print_factor(product), 1]])
    assert not reverify(tampered)


def _census_factor_renamed(report, old, new):
    """Replace one factor string by another in every list of every row."""
    for row in _census_of(report)["rows"]:
        row["factorization"] = [[new if f == old else f, m]
                                for f, m in row["factorization"]]
        for name in ("factors", "new_factors"):
            row[name] = [new if f == old else f for f in row[name]]


@pytest.mark.parametrize("old, new", [
    ("t + 3", "1*t + 3"),   # not the canonical form of the same factor
    ("t", "t + 0"),
    ("t + 3", "t + 8"),     # a coefficient >= p, congruent to the real one
    ("t^2 + 3", "3 + t^2"),  # exponents out of order
])
def test_reverify_reads_census_factors_strictly(census_report, old, new):
    # each string names the same polynomial over F_5, so only the reader
    # can tell it from the factor the census prints
    tampered = copy.deepcopy(census_report)
    _census_factor_renamed(tampered, old, new)
    assert tampered != census_report
    t0 = time.perf_counter()
    assert not reverify(tampered)
    assert time.perf_counter() - t0 < 0.1


def test_census_factor_reader_round_trips():
    # format_polynomial is the oracle of the census printer
    rng = random.Random(13)
    for p in (2, 5, 13, 65521, 2 ** 64 - 59):
        ring = PolyRing(("t",), GF(p))
        for _ in range(200):
            terms = {(k,): rng.randrange(1, p)
                     for k in rng.sample(range(12), rng.randint(1, 5))}
            dense = [0] * (max(terms)[0] + 1)
            for (k,), c in terms.items():
                dense[k] = c
            text = format_polynomial(Polynomial(ring, terms))
            assert _print_factor(dense) == text
            assert _read_factor(text, p, 11) == dense
    long_exponent = "t^" + "9" * 5000  # int() of it raises past 4300 digits
    for text in ("0", "", "t+3", "t + 3 + 4", "t^1", "t^0", "1*t", "05",
                 "-t", "t - 1", "t^2 + t^2", "x", " t", "t^12", "t^99",
                 "15*t", long_exponent, "9" * 5000 + "*t", "9" * 5000):
        assert _read_factor(text, 5, 11) is None
    assert census_rows_sound(5, [{
        "n": 1, "factors": [long_exponent], "new_factors": [long_exponent],
        "cumulative_count": 1, "factorization": [[long_exponent, 1]]}]) is False


_CENSUS_ROW_1 = {"n": 1, "factors": ["t"], "new_factors": ["t"],
                 "cumulative_count": 1, "factorization": [["t", 1]]}


@pytest.mark.parametrize("rows", [
    [["t", 1]],                                           # a row not a dict
    [None],
    [dict(_CENSUS_ROW_1, factorization=[["t", 1, 2]])],   # entry of three
    [dict(_CENSUS_ROW_1, factorization=["t"])],
    [dict(_CENSUS_ROW_1, factorization=[[["t"], 1]])],    # name not a string
    [dict(_CENSUS_ROW_1, factorization=[[7, 1]])],
    [dict(_CENSUS_ROW_1, factorization=5)],
    [{k: v for k, v in _CENSUS_ROW_1.items() if k != "factorization"}],
    [dict(_CENSUS_ROW_1, n="x")],
    [dict(_CENSUS_ROW_1, n=1.0)],
    [dict(_CENSUS_ROW_1, extra=1)],
    {"rows": [_CENSUS_ROW_1]},                            # rows not a list
    5,
    # over GF(5) (2t + 2)(3t + 2) = Q_2(1, t), but the factors are not monic
    census_rows([[["t", 1]], [["2*t + 2", 1], ["3*t + 2", 1]]]),
])
def test_census_row_check_is_false_on_malformed_rows(rows):
    assert census_rows_sound(5, [_CENSUS_ROW_1])
    assert census_rows_sound(5, rows) is False


def test_reverify_rejects_malformed():
    with pytest.raises(MalformedReportError):
        reverify({"not": "a report"})
    with pytest.raises(MalformedReportError):
        reverify({"artifact": "cohomcert", "checks": "nope"})
    with pytest.raises(MalformedReportError):
        reverify({"artifact": "cohomcert", "checks": []})
    report = run_scenario("katzman-factorization").to_json_dict()
    bad = copy.deepcopy(report)
    bad["checks"][0]["certificate"]["kind"] = "martian"
    with pytest.raises(MalformedReportError):
        reverify(bad)


def test_reports_validate_against_documented_schema():
    jsonschema = pytest.importorskip("jsonschema")
    import pathlib
    schema_path = pathlib.Path(__file__).resolve().parent.parent / "docs" / \
        "report_schema.json"
    schema = json.loads(schema_path.read_text())
    validator = jsonschema.Draft7Validator(schema)
    for name in ("hartshorne", "singh-p-torsion", "ring-A-colon",
                 "singh-swanson-S", "toeplitz-suite"):
        params = {"primes": [2]} if name == "singh-p-torsion" else \
            {"n_max": 2} if name != "toeplitz-suite" else \
            {"n_max": 3, "census_n_max": 3}
        report = run_scenario(name, params).to_json_dict()
        errors = list(validator.iter_errors(report))
        assert not errors, (name, errors[:1])


def test_scenario_cross_agreement_ring_a_vs_toeplitz():
    # the annihilator generator at level n is Q_{n-1} reduced mod p
    report = run_scenario("ring-A-colon", {"n_max": 4})
    sub = PolyRing(("s", "t"), GF(101))
    for n, check in enumerate(report.checks, start=1):
        q = convert(qn_recursive(n - 1).poly, sub)
        gb = buchberger(Ideal(sub, (q,))).basis
        assert check.certificate["expected_generators"] == [str(g) for g in gb]


def _engine_generators(cert):
    """The contracted colon a report's colon check names, computed by the
    Groebner engine from the certificate alone."""
    if cert["kind"] == "annihilator":
        cls = cert["class"]
        ring = PolyRing(tuple(cls["variables"]), domain_from_string(cls["domain"]))
        quotient = QuotientRing(ring, tuple(map(ring.parse, cls["relations"])))
        cech = CechClass(quotient, tuple(map(ring.parse, cls["sequence"])),
                         cls["m"], ring.parse(cls["numerator"]))
        ideal = annihilator_in_subring(cech, ("s", "t"), cert["k"])
    else:
        ring = PolyRing(tuple(cert["ring"]["variables"]),
                        domain_from_string(cert["ring"]["domain"]))
        quotient = QuotientRing(ring, tuple(map(ring.parse, cert["relations"])))
        ideal = eliminate(colon(Ideal(ring, tuple(map(ring.parse, cert["ideal_generators"]))),
                                ring.parse(cert["colon_element"]), rel=quotient),
                          {"a", "b", "c"})
    return [str(g) for g in ideal.generators]


@pytest.mark.parametrize("name, params", [
    *[("ring-A-colon", {"n_max": 8, "p": p}) for p in (2, 3, 101)],
    *[("ring-B-colon", {"n_max": 6, "p": p}) for p in (2, 101)],
    *[("singh-swanson-S", {"n_max": 4, "k": k, "p": p, "q_list": [p]})
      for p in (2, 3) for k in (0, 1, 2)],
    ("singh-swanson-S", {"n_max": 8, "k": 2}),
])
def test_colon_verdicts_match_the_groebner_engine(name, params):
    report = run_scenario(name, params).to_json_dict()
    colons = [c for c in report["checks"]
              if c["certificate"]["kind"] in ("annihilator", "colon_contraction")]
    assert len(colons) == params["n_max"]
    for check in colons:
        assert check["status"] == "pass"
        assert check["certificate"]["computed_generators"] == \
            _engine_generators(check["certificate"]), check["name"]


def test_colon_scenarios_make_no_groebner_run_at_their_bound_tops(monkeypatch):
    computed = []
    core = groebner._buchberger_core

    def counting(*args):
        computed.append(args)
        return core(*args)
    monkeypatch.setattr(groebner, "_buchberger_core", counting)
    for name, params in (("ring-A-colon", {"n_max": 8, "p": 2}),
                         ("ring-B-colon", {"n_max": 6, "p": 3}),
                         ("singh-swanson-S", {"n_max": 8, "k": 2}),
                         ("hartshorne", {"n_max": 8, "k_max": 12, "p": 101})):
        t0 = time.perf_counter()
        report = run_scenario(name, params)
        t1 = time.perf_counter()
        assert report.passed and reverify(json.loads(json.dumps(report.to_json_dict())))
        assert t1 - t0 < 0.1 and time.perf_counter() - t1 < 0.1, name
    assert computed == []


def _note_relation(n, quotient, ideal, element):
    # the relation s a^2 + t a b + b^2 of ring-A's note: its colon is (t^2 - s)
    ring = quotient.ring
    s, t, a, b = ring.gens()
    return QuotientRing(ring, (s * a ** 2 + t * a * b + b ** 2,)), ideal, element


def _extra_generator(n, quotient, ideal, element):
    # a^2 b^(n-2) lies in no (a^n, b^n) for n >= 3, and survives there
    _, _, a, b = ideal.ring.gens()
    return quotient, Ideal(ideal.ring, ideal.generators + (a ** 2 * b ** (n - 2),)), element


def _element_s_e2(n, quotient, ideal, element):
    s, _, a, b = element.ring.gens()
    return quotient, ideal, s * a ** 2 * b ** (n - 2)


def _binomial_generator(n, quotient, ideal, element):
    _, _, a, b = ideal.ring.gens()
    return quotient, Ideal(ideal.ring, (a ** n + b ** n, b ** n)), element


def _inhomogeneous_element(n, quotient, ideal, element):
    return quotient, ideal, element + element.ring.gen("a")


def _q2_is_t2(j):
    return QnPolynomial(2, ST_RING.parse("t^2")) if j == 2 else qn_recursive(j)


def _q_times_s(j):
    # s Q_j for every j keeps M v = s (s Q_(n-1)) e_1, but s divides s Q_(n-1)
    return QnPolynomial(j, ST_RING.gen("s") * qn_recursive(j).poly)


@pytest.mark.parametrize("n, mutate, family, reason", [
    (3, _note_relation, None, "the relations are not the columns of M_2"),
    (3, _extra_generator, None,
     "the component has 1 coordinates and 2 relations, not 2 and 2"),
    # Q_2 = t^2 enters v_1 = s Q_2 at n = 4, while Q_3 itself is right
    (4, None, _q2_is_t2, "M v is not s*Q_3*e_1"),
    (4, None, _q_times_s, "v does not end in +-s^3, or s divides Q_3"),
    (4, _element_s_e2, None, "the element is not s*e_1"),
    (2, _binomial_generator, None,
     "an ideal generator is not a monomial in the graded variables"),
    (2, _inhomogeneous_element, None, "the relation or the element is not homogeneous"),
])
def test_colon_check_fails_on_a_mutated_component(monkeypatch, n, mutate, family, reason):
    genuine = _fresh_report("ring-A-colon", {"n_max": 4})
    if family is not None:
        monkeypatch.setattr(scenarios, "qn_recursive", family)
    if mutate is not None:
        real = scenarios._colon_check

        def mutated(name, operation, level, quotient, ideal, element, weights, fixed):
            if level == n:
                quotient, ideal, element = mutate(level, quotient, ideal, element)
            return real(name, operation, level, quotient, ideal, element, weights, fixed)
        monkeypatch.setattr(scenarios, "_colon_check", mutated)
    report = run_scenario("ring-A-colon", {"n_max": 4})
    check = report.checks[n - 1]
    assert (check.status, check.actual, check.certificate["computed_generators"]) == \
        ("fail", reason, [])
    assert not report.passed
    assert reverify(genuine) is False

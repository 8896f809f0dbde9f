import random

import pytest

from cohomcert import cohomology
from cohomcert import (
    CechClass,
    DomainNotSupportedError,
    GF,
    Ideal,
    IllFormedSyzygyError,
    ideal_equal,
    NonzeroCertified,
    PipelineStepError,
    PolyRing,
    QQ,
    QuotientRing,
    UnknownUpTo,
    ZZ,
    ZeroAt,
    annihilator_in_subring,
    buchberger,
    conjecture_membership_check,
    convert,
    eta_torsion_check,
    exact_divide,
    is_zero_up_to,
    lambda_q,
    membership,
    normal_form,
    push_forward,
    qn_recursive,
    torsion_ring,
    verify_zero_at,
    weight_reduction_nonvanishing,
)
from cohomcert.cohomology import outside_monomial_ideal
from cohomcert.polyring import reduce_mod_p

from helpers import random_polynomial

RING_Z, RELATION = torsion_ring()
U, V, W, X, Y, Z = RING_Z.gens()


def hartshorne_ring(p=101):
    ring = PolyRing(("w", "x", "y", "z"), GF(p))
    w, x, y, z = ring.gens()
    return ring, QuotientRing(ring, (w * x - y * z,))


# -- push-forward -------------------------------------------------------------

def test_push_forward_moves_the_representative():
    ring, quotient = hartshorne_ring()
    w, x, y, z = ring.gens()
    c = CechClass(quotient, (x, y), 2, y * z)
    pushed = push_forward(c, 1)
    assert pushed.m == 3 and pushed.numerator == y * z * x * y
    assert push_forward(c, 0) == c
    with pytest.raises(ValueError):
        push_forward(c, -1)


def test_push_forward_preserves_verdicts():
    ring, quotient = hartshorne_ring()
    w, x, y, z = ring.gens()
    c = CechClass(quotient, (x, y), 2, y * z).scale(w)
    direct = is_zero_up_to(c, 4)
    pushed = is_zero_up_to(push_forward(c, 1), 3)
    assert isinstance(direct, ZeroAt) and isinstance(pushed, ZeroAt)
    assert pushed.k == max(direct.k - 1, 0)


def test_push_forward_consistency_random():
    rng = random.Random(5)
    ring, quotient = hartshorne_ring()
    gens = ring.gens()
    for _ in range(10):
        num = gens[rng.randrange(4)] * gens[rng.randrange(4)]
        c = CechClass(quotient, (ring.gen("x"), ring.gen("y")), 2, num)
        a = is_zero_up_to(c, 4)
        b = is_zero_up_to(push_forward(c, 1), 3)
        if isinstance(a, ZeroAt):
            assert isinstance(b, ZeroAt) and b.k == max(a.k - 1, 0)


# -- vanishing verdicts -------------------------------------------------------

def test_is_zero_examples():
    K = PolyRing(("x",), GF(101))
    x = K.gen("x")
    plain = QuotientRing(K, ())
    assert is_zero_up_to(CechClass(plain, (x,), 1, x), 3) == ZeroAt(0)
    assert is_zero_up_to(CechClass(plain, (x,), 1, K.one()), 6) == UnknownUpTo(6)
    ring, quotient = hartshorne_ring()
    w, X_, Y_, Z_ = ring.gens()
    c = CechClass(quotient, (X_, Y_), 2, Y_ * Z_).scale(w)
    assert is_zero_up_to(c, 4) == ZeroAt(1)


@pytest.mark.parametrize("k_max", [0, 1, 2, 5, 12])
def test_is_zero_up_to_gallops_to_the_least_level(monkeypatch, k_max):
    # vanishing is monotone in k; a stand-in class first vanishing at
    # level least (never, past k_max) counts the levels the search tests
    for least in range(k_max + 2):
        tested = []

        def vanishes(_c, k, least=least, tested=tested):
            tested.append(k)
            return k >= least
        monkeypatch.setattr(cohomology, "_vanishes_at", vanishes)
        verdict = is_zero_up_to(None, k_max)
        if least > k_max:
            assert verdict == UnknownUpTo(k_max)
            # k = 0, 1, 3, 7, ..., k_max: five levels for k_max = 12
            assert k_max in tested and len(tested) <= k_max.bit_length() + 1
        else:
            assert verdict == ZeroAt(least)
        assert all(0 <= k <= k_max for k in tested)
        if least <= 1:
            assert len(tested) <= least + 1  # never more than the linear scan


def test_zero_at_witness_reverifies():
    ring, quotient = hartshorne_ring()
    w, x, y, z = ring.gens()
    c = CechClass(quotient, (x, y), 2, y * z).scale(w)
    assert verify_zero_at(c, ZeroAt(1))
    assert not verify_zero_at(c, ZeroAt(0))  # tampered witness


def test_is_zero_over_integers_monomial_case():
    ring = PolyRing(("x", "y"), ZZ)
    x, y = ring.gens()
    plain = QuotientRing(ring, ())
    assert is_zero_up_to(CechClass(plain, (x, y), 1, x * y), 2) == ZeroAt(0)
    assert is_zero_up_to(CechClass(plain, (x, y), 2, x), 2) == UnknownUpTo(2)
    with_rel = QuotientRing(ring, (x - y,))
    with pytest.raises(DomainNotSupportedError):
        is_zero_up_to(CechClass(with_rel, (x,), 1, y), 1)


# -- the divided power sums ---------------------------------------------------

def test_lambda_q_examples():
    lam2 = lambda_q([U, V, W], [X, Y, Z], 2, 1, relation=RELATION)
    assert lam2 == -(U * X * V * Y + U * X * W * Z + V * Y * W * Z)
    ring = PolyRing(("x", "y", "z"), ZZ)
    x, y, z = ring.gens()
    lam3 = lambda_q([x, y, z], [y * z, z * x, -2 * x * y], 3, 1)
    assert lam3 == -2 * (x * y * z) ** 3
    assert lambda_q([y, -x], [x, y], 3, 1).is_zero


def test_lambda_q_rejects_bad_syzygies():
    ring = PolyRing(("x", "y"), ZZ)
    x, y = ring.gens()
    with pytest.raises(IllFormedSyzygyError):
        lambda_q([x], [y], 2, 1)
    with pytest.raises(IllFormedSyzygyError):
        lambda_q([U, V, W], [X, Y, Z], 2, 1, relation=RELATION + 1)


def test_lambda_q_times_p_identity():
    # p * lambda_q recovers the power sum (minus relation^q), exactly
    for p, e in ((2, 1), (3, 1), (2, 2)):
        q = p ** e
        lam = lambda_q([U, V, W], [X, Y, Z], p, e, relation=RELATION)
        powers = (U * X) ** q + (V * Y) ** q + (W * Z) ** q - RELATION ** q
        assert p * lam == powers
    ring = PolyRing(("x", "y", "z"), ZZ)
    x, y, z = ring.gens()
    for p, e in ((3, 1), (5, 1), (3, 2)):
        q = p ** e
        lam = lambda_q([x, y, z], [y * z, z * x, -2 * x * y], p, e)
        powers = (x * (y * z)) ** q + (y * (z * x)) ** q + (z * (-2 * x * y)) ** q
        assert p * lam == powers


def test_lambda_lifts_differ_by_relation_multiple():
    # canonical lift vs the lift that substitutes wz = -ux - vy first
    p = 3
    lam = lambda_q([U, V, W], [X, Y, Z], p, 1, relation=RELATION)
    alt = ((U * X) ** p + (V * Y) ** p + (-(U * X) - V * Y) ** p)
    from cohomcert import divide_exact_by_integer
    alt = divide_exact_by_integer(alt, p)
    difference = lam - alt
    ring_q = PolyRing(RING_Z.variables, QQ)
    quotient = exact_divide(convert(difference, ring_q), convert(RELATION, ring_q))
    assert quotient * convert(RELATION, ring_q) == convert(difference, ring_q)


# -- the nonvanishing pipeline ------------------------------------------------

def test_pipeline_p2_and_p3_final_reductions():
    cert2 = weight_reduction_nonvanishing(2).certificate
    assert cert2.witness_monomial == "x*y"
    assert cert2.residual == "x*y"
    final2 = cert2.steps[-1].data
    assert final2["monomial_generators"] == ["x^2", "y^2"]
    cert3 = weight_reduction_nonvanishing(3).certificate
    assert cert3.residual == "2*x^2*y + 2*x*y^2"
    final3 = cert3.steps[-1].data
    assert final3["monomial_generators"] == ["x^3", "y^3"]


def test_pipeline_has_five_steps_in_order():
    cert = weight_reduction_nonvanishing(5).certificate
    assert [s.name for s in cert.steps] == [
        "homogeneity", "cofactor_degrees", "reduction_identity",
        "specialization", "final_nonmembership",
    ]


def test_pipeline_sabotage():
    with pytest.raises(PipelineStepError) as info:
        weight_reduction_nonvanishing(2, lam=X ** 2)
    assert info.value.step == "homogeneity"
    with pytest.raises(PipelineStepError) as info2:
        weight_reduction_nonvanishing(3, lam=X + U)
    assert info2.value.step == "homogeneity"
    # degree (0, 0, 0, 3), but u^3 x^3 specializes to x^3, inside (3, x^3, y^3)
    with pytest.raises(PipelineStepError) as info3:
        weight_reduction_nonvanishing(3, lam=U ** 3 * X ** 3)
    assert info3.value.step == "final_nonmembership"


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_step_two_families_give_the_reduction_identity(p):
    # step 3's identity c_i x_i^(p+k) = (xyz)^k m_i, on the families the
    # step-2 transcript records, for several k
    steps = {s.name: s.data for s in weight_reduction_nonvanishing(p).certificate.steps}
    targets = steps["reduction_identity"]["targets"]
    records = steps["cofactor_degrees"]["cofactors"]
    assert [r["generator"] for r in records] == ["x", "y", "z"]
    for rec in records:
        gen = RING_Z.gen(rec["generator"])
        m = RING_Z.parse(targets[rec["generator"]].replace("p", str(p)))
        for k in range(4):
            c = RING_Z.monomial(tuple(a + k * b for a, b in
                                      zip(rec["family_const"], rec["family_slope"])))
            assert c * gen ** (p + k) == (X * Y * Z) ** k * m, (rec["generator"], k)


def test_eta_annihilation_shares_one_relation_power(monkeypatch):
    # relation^(p-1) is formed once: it is the relation cofactor, and
    # lambda_p subtracts relation^p = relation^(p-1) * relation
    powers = []
    pow_ = type(RELATION).__pow__

    def recording(self, n):
        if self == RELATION:
            powers.append(n)
        return pow_(self, n)

    for p in (2, 3, 5, 7, 11):
        monkeypatch.setattr(type(RELATION), "__pow__", recording)
        powers.clear()
        cls, seq_cofactors, rel_cofactor = cohomology.eta_annihilation(p)
        assert powers == [p - 1], p
        monkeypatch.undo()
        assert cls.numerator == lambda_q([U, V, W], [X, Y, Z], p, 1, relation=RELATION)
        assert rel_cofactor == -(RELATION ** (p - 1))
        assert seq_cofactors == (U ** p, V ** p, W ** p)


def test_eta_torsion_certificates():
    for p in (2, 3, 5, 7):
        cert = eta_torsion_check(p)
        assert cert.annihilation == ZeroAt(0)
        assert isinstance(cert.nonvanishing, NonzeroCertified)
        # the annihilation cofactor identity re-verifies by plain arithmetic
        recombined = cert.relation_cofactor * RELATION
        for cof, gen in zip(cert.sequence_cofactors, cert.cech_class.sequence):
            recombined = recombined + cof * gen ** p
        assert recombined == p * cert.cech_class.numerator


# -- the monomial-ideal reducer ----------------------------------------------

def test_outside_monomial_ideal_decides_monomials_plus_p():
    # f lies in (p, x^a, ...) of Z[x, y] iff nothing of f mod p survives
    ring = PolyRing(("x", "y"), ZZ)
    x, y = ring.gens()

    def outside(f, p, exps):
        return outside_monomial_ideal(reduce_mod_p(f, p), exps)
    lam = -(x * y)  # ((x^2+y^2) - (x+y)^2)/2
    assert outside(lam, 2, [(2, 0), (0, 2)]) == reduce_mod_p(x * y, 2)
    assert outside(x ** 2, 2, [(2, 0), (0, 2)]).is_zero
    assert outside(x ** 3 * y, 2, [(2, 0), (0, 2)]).is_zero
    assert outside(3 * x, 3, [(5, 0)]).is_zero
    assert outside(3 * x + y, 3, [(5, 0)]) == reduce_mod_p(y, 3)


@pytest.mark.parametrize("domain", [QQ, GF(5)])
def test_outside_monomial_ideal_is_the_engine_normal_form(domain):
    # monomial generators are a Groebner basis under any order, so the
    # engine's normal form is an independent oracle for the reducer
    ring = PolyRing(("x", "y", "z"), domain)
    rng = random.Random(32)
    for _ in range(80):
        exps = [tuple(rng.randint(0, 3) for _ in range(3))
                for _ in range(rng.randint(1, 3))]
        f = random_polynomial(rng, ring, max_terms=8, max_deg=5)
        gb = buchberger(Ideal(ring, tuple(ring.monomial(e) for e in exps)))
        assert outside_monomial_ideal(f, exps) == normal_form(f, gb), (f, exps)


# -- the k = q - 1 membership -------------------------------------------------

def test_conjecture_membership_examples():
    ring = PolyRing(("x", "y", "z"), ZZ)
    x, y, z = ring.gens()
    f, g = [x, y, z], [y * z, z * x, -2 * x * y]
    assert conjecture_membership_check(f, g, 3, 1, 2, QQ)
    assert conjecture_membership_check(f, g, 3, 1, 0, QQ)
    assert conjecture_membership_check([y, -x], [x, y], 3, 1, 0, QQ)
    with pytest.raises(IllFormedSyzygyError):
        conjecture_membership_check([x], [y], 3, 1, 0, QQ)
    with pytest.raises(DomainNotSupportedError):
        conjecture_membership_check(f, g, 3, 1, 0, ZZ)


@pytest.mark.parametrize("domain", [QQ, GF(2), GF(3), GF(5)])
def test_termwise_membership_agrees_with_the_engine(monkeypatch, domain):
    # the ptor2 instance: every generator is one term, or zero over GF(2)
    ring = PolyRing(("x", "y", "z"), ZZ)
    x, y, z = ring.gens()
    f, g = [x, y, z], [y * z, z * x, -2 * x * y]
    engine = []

    def recorded(product, ideal, rel):
        engine.append(membership(product, ideal, rel=rel))
        return engine[-1]
    monkeypatch.setattr(cohomology, "membership", recorded)
    for p, e in ((2, 1), (2, 2), (3, 1), (3, 2)):
        q = p ** e
        for k in (0, q - 1):
            field = PolyRing(ring.variables, domain)
            product = convert(lambda_q(f, g, p, e), field)
            for gi in g:
                product = product * convert(gi, field) ** k
            gens = tuple(convert(gi, field) ** (q + k) for gi in g)
            assert conjecture_membership_check(f, g, p, e, k, domain) == \
                membership(product, Ideal(field, gens))
    assert engine == []


@pytest.mark.parametrize("p", [2, 3, 101, 65521])
def test_binomial_moves_agree_with_the_engine_on_hartshorne(p):
    ring, quotient = hartshorne_ring(p)
    w, x, y, z = ring.gens()
    numerators = (w, x, y, z, ring.one(), x * y + 3 * w * z, w * x - y * z + z ** 2)
    for n in range(9):
        for k in (0, 1, 2, 5):
            power = (x ** (n + 1 + k), y ** (n + 1 + k))
            for g in numerators:
                f = g * y ** n * z ** n * (x * y) ** k
                assert cohomology._term_ideal_membership(f, power, quotient.relations) \
                    == membership(f, Ideal(ring, power), rel=quotient), (n, k, g)


def test_moves_decide_by_component_sums():
    plane = PolyRing(("x", "y"), GF(101))
    x, y = plane.gens()
    ring, quotient = hartshorne_ring()
    w, X_, Y_, z = ring.gens()
    cases = [
        # x y and x^2 share a degree but no component of the x^2 <-> y^2 moves
        (x * y, (x ** 2,), x ** 2 - y ** 2, False),
        (y ** 2, (x ** 2,), x ** 2 - y ** 2, True),
        # w x and y z share a component that no generator divides
        (w * X_ - Y_ * z, (X_ ** 3, Y_ ** 3), w * X_ - Y_ * z, True),
        (w * X_ + Y_ * z, (X_ ** 3, Y_ ** 3), w * X_ - Y_ * z, False),
    ]
    for f, gens, relation, inside in cases:
        assert cohomology._term_ideal_membership(f, gens, (relation,)) is inside
        assert membership(f, Ideal(f.ring, gens), rel=QuotientRing(f.ring, (relation,))) \
            is inside


def test_other_relations_go_to_the_engine(monkeypatch):
    # a three-term relation (ring A's), an inhomogeneous binomial and a sum
    engine = []

    def recorded(f, ideal, rel):
        engine.append(membership(f, ideal, rel=rel))
        return engine[-1]
    monkeypatch.setattr(cohomology, "membership", recorded)
    ring, quotient = ring_a()
    s, t, a, b = ring.gens()
    cases = [(quotient, (a, b), 2, s * a * b, k) for k in (0, 1)]
    cases += [(quotient, (a, b), 2, t * s * a * b, 0)]
    plane = PolyRing(("x", "y"), GF(101))
    x, y = plane.gens()
    parabola = QuotientRing(plane, (x - y ** 2,))
    cases += [(parabola, (x,), 1, y ** 2, 0), (parabola, (x,), 1, y, 2)]
    # x + y is a binomial but not a difference: it lies in its own ideal,
    # yet its coefficients sum to 2 on the component {x, y}
    cases += [(QuotientRing(plane, (x + y,)), (x,), 2, x + y, 0)]
    for q, sequence, m, numerator, k in cases:
        cls = CechClass(q, sequence, m, numerator)
        pushed = push_forward(cls, k)
        with pytest.raises(DomainNotSupportedError):
            cohomology._term_ideal_membership(
                pushed.numerator, pushed.power_ideal().generators, q.relations)
        assert cohomology._vanishes_at(cls, k) == membership(
            pushed.numerator, pushed.power_ideal(), rel=q)
    assert engine == [False, True, True, True, False, True]


# -- annihilators ---------------------------------------------------------------

def ring_a(p=101):
    ring = PolyRing(("s", "t", "a", "b"), GF(p))
    s, t, a, b = ring.gens()
    return ring, QuotientRing(ring, (s * a ** 2 + t * a * b + s * b ** 2,))


def test_annihilator_ring_a_examples():
    ring, quotient = ring_a()
    s, t, a, b = ring.gens()
    sub = PolyRing(("s", "t"), GF(101))
    for n in (1, 2, 3):
        c = CechClass(quotient, (a, b), n, s * a * b ** (n - 1))
        ann = annihilator_in_subring(c, ("s", "t"), 0)
        expected = Ideal(sub, (convert(qn_recursive(n - 1).poly, sub),))
        assert buchberger(ann).basis == buchberger(expected).basis


def test_annihilator_stabilization_for_S():
    ring = PolyRing(("s", "t", "u", "v", "w", "x", "y", "z"), GF(2))
    s, t, u, v, w, x, y, z = ring.gens()
    rel = (s * u ** 2 * x ** 2 + s * v ** 2 * y ** 2
           + t * u * x * v * y + t * w ** 2 * z ** 2)
    quotient = QuotientRing(ring, (rel,))
    for n in (2, 3):
        c = CechClass(quotient, (x, y, z), n,
                      s * (u * x) * (v * y) ** (n - 1) * z ** (n - 1))
        at0 = annihilator_in_subring(c, ("s", "t"), 0)
        at1 = annihilator_in_subring(c, ("s", "t"), 1)
        assert buchberger(at0).basis == buchberger(at1).basis


def test_ring_a_colon_is_a_finite_level_identity():
    # The (Q_(n-1)) identity for ring A holds at level n but does not lift
    # to the direct-limit class: one transition step later the colon is the
    # unit ideal, i.e. the class representative dies.  The limit-class
    # annihilator statement belongs to the 8-variable hypersurface only.
    ring, quotient = ring_a()
    s, t, a, b = ring.gens()
    c = CechClass(quotient, (a, b), 2, s * a * b)
    at1 = annihilator_in_subring(c, ("s", "t"), 1)
    assert ideal_equal(at1, Ideal(at1.ring, (at1.ring.one(),)))
    with pytest.raises(KeyError):
        annihilator_in_subring(c, ("s", "nope"), 0)

import hashlib
import random
from fractions import Fraction

import pytest

from cohomcert import (
    DegreeGuard,
    DomainNotSupportedError,
    GF,
    GuardExceededError,
    Ideal,
    Lex,
    Polynomial,
    PolyRing,
    QQ,
    QuotientRing,
    RingMismatchError,
    ZZ,
    buchberger,
    colon,
    convert,
    eliminate,
    exact_divide,
    frobenius_power,
    ideal_equal,
    intersect,
    membership,
    normal_form,
    reverify,
    run_scenario,
)
from cohomcert import groebner
from cohomcert.cohomology import CechClass, annihilator_in_subring, lambda_q
from cohomcert.groebner import (
    _Overflow,
    _layout,
    _normal_form_terms,
    _reducer,
)
from cohomcert.polyring import (
    BlockElimination,
    GrevLex,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)
from cohomcert.scenarios import _singh_swanson_ring

from helpers import (
    brute_force_membership,
    monomials_up_to_degree,
    random_homogeneous,
    random_polynomial,
)

RQ = PolyRing(("x", "y"), QQ)
R5 = PolyRing(("x", "y"), GF(5))


def variables_used(f):
    return {f.ring.variables[i] for e in f.terms for i, x in enumerate(e) if x}


def spoly(f, g, order, ring):
    key = order.key(ring)
    lf = max(f.terms, key=key)
    lg = max(g.terms, key=key)
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    mf = Polynomial(ring, {tuple(l - a for l, a in zip(lcm, lf)):
                           ring.domain.inv(f.terms[lf])})
    mg = Polynomial(ring, {tuple(l - b for l, b in zip(lcm, lg)):
                           ring.domain.inv(g.terms[lg])})
    return mf * f - mg * g


def test_lex_elimination_example():
    x, y = RQ.gens()
    gb = buchberger(Ideal(RQ, (x + y, x - y)), Lex())
    assert [str(g) for g in gb.basis] == ["y", "x"]


def test_principal_ideal_monic():
    ring = PolyRing(("u", "v", "w", "x", "y", "z"), QQ)
    u, v, w, x, y, z = ring.gens()
    gb = buchberger(Ideal(ring, (2 * (u * x + v * y + w * z),)))
    assert gb.basis == (u * x + v * y + w * z,)


def test_buchberger_criterion_on_example():
    ring = R5
    x, y = ring.gens()
    gb = buchberger(Ideal(ring, (x ** 2 - y, y ** 2 - x)), Lex())
    for i in range(len(gb.basis)):
        for j in range(i + 1, len(gb.basis)):
            s = spoly(gb.basis[i], gb.basis[j], gb.order, ring)
            assert normal_form(s, gb).is_zero


def test_spair_reduction_random():
    rng = random.Random(42)
    for ring in (R5, RQ):
        for _ in range(20):
            gens = tuple(random_polynomial(rng, ring) for _ in range(rng.randint(1, 3)))
            ideal = Ideal(ring, gens)
            if ideal.is_zero:
                continue
            gb = ideal.groebner()
            for i in range(len(gb.basis)):
                for j in range(i + 1, len(gb.basis)):
                    s = spoly(gb.basis[i], gb.basis[j], gb.order, ring)
                    assert normal_form(s, gb).is_zero


def test_reduced_basis_is_reduced():
    rng = random.Random(43)
    key = None
    for _ in range(20):
        gens = tuple(random_polynomial(rng, R5) for _ in range(2))
        gb = Ideal(R5, gens).groebner()
        key = gb.order.key(R5)
        lms = [max(g.terms, key=key) for g in gb.basis if not g.is_zero]
        for i, g in enumerate(gb.basis):
            assert g.terms[max(g.terms, key=key)] == 1  # monic
            for e in g.terms:
                for j, lm in enumerate(lms):
                    if j != i:
                        assert not all(a <= b for a, b in zip(lm, e))


def test_determinism_under_generator_permutation():
    x, y = R5.gens()
    gens = (x ** 2 + y, x * y + 3, y ** 3 + x)
    a = buchberger(Ideal(R5, gens)).basis
    b = buchberger(Ideal(R5, gens[::-1])).basis
    assert a == b


def test_membership_examples():
    F2 = PolyRing(("x", "y"), GF(2))
    x, y = F2.gens()
    I = Ideal(F2, (x ** 2, y ** 2))
    assert not membership(x * y, I)
    assert membership(x ** 2, I)
    ring = PolyRing(("w", "x", "y", "z"), GF(101))
    w, X, Y, Z = ring.gens()
    rel = QuotientRing(ring, (w * X - Y * Z,))
    assert membership(Y ** 3 * Z ** 2, Ideal(ring, (X ** 3, Y ** 3)), rel=rel)


def test_membership_brute_force_agreement():
    rng = random.Random(44)
    hits = 0
    for ring in (R5, RQ):
        for _ in range(25):
            # homogeneous instances: the bounded oracle is complete there
            gens = tuple(
                random_homogeneous(rng, ring, rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))
            )
            ideal = Ideal(ring, gens)
            if ideal.is_zero:
                continue
            f = random_homogeneous(rng, ring, rng.randint(1, 4))
            expect = brute_force_membership(f, ideal.generators, f.total_degree())
            assert membership(f, ideal) == expect
            hits += expect
            # constructed positive: explicit combination of generators
            combo = ring.zero()
            for g in ideal.generators:
                combo = combo + random_polynomial(rng, ring, max_deg=2) * g
            assert membership(combo, ideal)
            if not combo.is_zero:
                bound = combo.total_degree() + max(
                    g.total_degree() for g in ideal.generators) + 2
                assert brute_force_membership(combo, ideal.generators, bound)
    assert hits  # at least one positive random case exercised both routes


def test_normal_form_idempotent():
    rng = random.Random(45)
    for _ in range(20):
        gens = tuple(random_polynomial(rng, R5) for _ in range(2))
        ideal = Ideal(R5, gens)
        if ideal.is_zero:
            continue
        gb = ideal.groebner()
        f = random_polynomial(rng, R5)
        nf = normal_form(f, gb)
        assert normal_form(nf, gb) == nf
        assert membership(f - nf, ideal)


def test_normal_form_divides_by_leading_coefficients():
    # a hand-built basis that is not monic: each element is scaled by the
    # inverse of its leading coefficient before it reduces
    x, y = RQ.gens()
    gb = groebner.GroebnerBasis(RQ, GrevLex(), (2 * x - y,),
                                groebner.Diagnostics(0, 1, 0))
    assert normal_form(x, gb) == Fraction(1, 2) * y
    assert gb.contains(2 * x - y) and gb.contains(4 * x ** 2 - y ** 2)
    assert not gb.contains(x)
    assert normal_form(x, gb) == normal_form(x, buchberger(Ideal(RQ, (2 * x - y,))))
    with_zero = groebner.GroebnerBasis(RQ, GrevLex(), (RQ.zero(), 2 * x - y),
                                       groebner.Diagnostics(0, 2, 0))
    assert normal_form(x, with_zero) == Fraction(1, 2) * y
    r7 = PolyRing(("x", "y"), GF(7))
    a, b = r7.gens()
    gb7 = groebner.GroebnerBasis(r7, GrevLex(), (3 * b ** 2 + a, 5 * a * b),
                                 groebner.Diagnostics(0, 2, 0))
    f = a ** 2 * b + b ** 3
    assert normal_form(f, gb7) == normal_form(
        f, groebner.GroebnerBasis(r7, GrevLex(), (b ** 2 + 5 * a, a * b),
                                  groebner.Diagnostics(0, 2, 0)))


def test_colon_examples():
    x, y = RQ.gens()
    I = Ideal(RQ, (x ** 2, y ** 2))
    assert ideal_equal(colon(I, x * y), Ideal(RQ, (x, y)))
    assert ideal_equal(colon(I, x), Ideal(RQ, (x, y ** 2)))
    assert ideal_equal(colon(I, RQ.one()), I)
    with pytest.raises(ValueError):
        colon(I, RQ.zero())


def test_colon_monomial_ideals_against_closed_form():
    # (m_1, ..., m_r) : x^a is generated by the monomials m_i / gcd(m_i, x^a);
    # independent combinatorial oracle for the elimination-based route
    rng = random.Random(404)
    ring = PolyRing(("x", "y", "z"), GF(5))
    for _ in range(25):
        gens = []
        for _ in range(rng.randint(1, 4)):
            e = tuple(rng.randint(0, 4) for _ in range(3))
            gens.append(Polynomial(ring, {e: 1}))
        a = tuple(rng.randint(0, 3) for _ in range(3))
        f = Polynomial(ring, {a: 1})
        expected_gens = tuple(
            Polynomial(ring, {tuple(max(m - x, 0) for m, x in zip(e, a)): 1})
            for g in gens for e in g.terms
        )
        got = colon(Ideal(ring, tuple(gens)), f)
        assert ideal_equal(got, Ideal(ring, expected_gens))


def test_colon_containments_random():
    rng = random.Random(46)
    for _ in range(15):
        gens = tuple(random_polynomial(rng, R5) for _ in range(2))
        ideal = Ideal(R5, gens)
        f = random_polynomial(rng, R5)
        if ideal.is_zero or f.is_zero:
            continue
        quot = colon(ideal, f)
        for g in ideal.generators:       # I <= (I : f)
            assert membership(g, quot)
        for g in quot.generators:        # f * (I : f) <= I
            assert membership(f * g, ideal)


def test_eliminate_examples():
    ring = PolyRing(("x", "y", "z"), QQ)
    x, y, z = ring.gens()
    out = eliminate(Ideal(ring, (x - y, y - z ** 2)), {"y"})
    assert out.ring.variables == ("x", "z")
    assert ideal_equal(out, Ideal(out.ring, (out.ring.parse("x - z^2"),)))
    same = eliminate(Ideal(ring, (x - y,)), set())
    assert same.ring == ring and ideal_equal(same, Ideal(ring, (x - y,)))
    ring2 = PolyRing(("t", "x"), QQ)
    t, X = ring2.gens()
    out2 = eliminate(Ideal(ring2, (t * X, t - 1)), {"t"})
    assert [str(g) for g in out2.generators] == ["x"]
    with pytest.raises(KeyError):
        eliminate(Ideal(ring, (x,)), {"q"})
    with pytest.raises(ValueError):
        eliminate(Ideal(ring, (x,)), {"x", "y", "z"})


def test_eliminate_soundness_random():
    rng = random.Random(47)
    ring = PolyRing(("x", "y", "z"), GF(5))
    for _ in range(12):
        gens = tuple(random_polynomial(rng, ring) for _ in range(2))
        ideal = Ideal(ring, gens)
        if ideal.is_zero:
            continue
        out = eliminate(ideal, {"y"})
        for g in out.generators:
            assert "y" not in variables_used(g)
            lifted = Polynomial(ring, {
                (e[0], 0, e[1]): c for e, c in g.terms.items()
            })
            assert membership(lifted, ideal)


def test_intersect_examples():
    x, y = RQ.gens()
    assert ideal_equal(intersect(Ideal(RQ, (x,)), Ideal(RQ, (y,))),
                       Ideal(RQ, (x * y,)))
    I = Ideal(RQ, (x, y))
    assert ideal_equal(intersect(I, I), I)
    assert ideal_equal(intersect(I, Ideal(RQ, (x ** 2,))), Ideal(RQ, (x ** 2,)))
    with pytest.raises(RingMismatchError):
        intersect(I, Ideal(R5, R5.gens()))


def test_frobenius_power():
    x, y = R5.gens()
    I = Ideal(R5, (x, y))
    assert ideal_equal(frobenius_power(I, 5), Ideal(R5, (x ** 5, y ** 5)))
    assert ideal_equal(frobenius_power(I, 1), I)
    F3 = PolyRing(("x", "y"), GF(3))
    a, b = F3.gens()
    assert frobenius_power(Ideal(F3, (a + b,)), 3).generators == (a ** 3 + b ** 3,)
    with pytest.raises(ValueError):
        frobenius_power(I, 0)
    with pytest.raises(ValueError):
        frobenius_power(I, 10)  # not a power of 5
    # over Q any positive exponent is a plain bracket power
    xq, yq = RQ.gens()
    assert frobenius_power(Ideal(RQ, (xq + yq,)), 2).generators == ((xq + yq) ** 2,)


def test_frobenius_containments():
    rng = random.Random(48)
    ring = PolyRing(("x", "y"), GF(3))
    x, y = ring.gens()
    I = Ideal(ring, (x ** 2 + y, x * y))
    q = 3
    bracket = frobenius_power(I, q)
    # I^[q] inside I^q: every g^q is a q-fold product of generators
    power_gens = []
    gens = I.generators
    for i in range(q + 1):
        power_gens.append(gens[0] ** i * gens[1] ** (q - i))
    Iq = Ideal(ring, tuple(power_gens))
    for g in bracket.generators:
        assert membership(g, Iq)
    # f in I implies f^q in I^[q]
    for _ in range(10):
        f = ring.zero()
        for g in gens:
            f = f + random_polynomial(rng, ring, max_deg=2) * g
        assert membership(f ** q, bracket)


def test_ideal_equal_examples():
    x, y = RQ.gens()
    assert ideal_equal(Ideal(RQ, (x, y)), Ideal(RQ, (x + y, y)))
    assert not ideal_equal(Ideal(RQ, (x,)), Ideal(RQ, (x ** 2,)))
    assert ideal_equal(colon(Ideal(RQ, (x ** 2, y ** 2)), x * y), Ideal(RQ, (x, y)))


def test_quotient_ring_normal_form():
    ring = PolyRing(("w", "x", "y", "z"), GF(101))
    w, x, y, z = ring.gens()
    q = QuotientRing(ring, (w * x - y * z,))
    assert q.normal_form(w * x) == q.normal_form(y * z)
    assert q.normal_form(q.normal_form(w * x + 1)) == q.normal_form(w * x + 1)


def test_integer_domain_rejected():
    ring = PolyRing(("x",), ZZ)
    with pytest.raises(DomainNotSupportedError):
        buchberger(Ideal(ring, (ring.gen("x"),)))


def test_degree_guard_aborts():
    ring = PolyRing(("x", "y", "z"), GF(5))
    x, y, z = ring.gens()
    gens = (x ** 2 * y - z, x * y ** 2 - 1)  # first S-pair lcm has degree 4
    with pytest.raises(GuardExceededError) as info:
        buchberger(Ideal(ring, gens), guard=DegreeGuard(max_basis=5000, max_degree=3))
    assert info.value.diagnostics.s_pairs >= 1


def test_cached_basis_does_not_bypass_a_tighter_guard():
    # the basis under the default guard is cached; the same ideal under a
    # guard it exceeds must still abort, not return the cached basis
    ring = PolyRing(("x", "y", "z"), GF(7))
    x, y, z = ring.gens()
    ideal = Ideal(ring, (x ** 2 * y - z, x * y ** 2 - 1))
    assert buchberger(ideal).diagnostics.max_degree == 4
    with pytest.raises(GuardExceededError):
        buchberger(ideal, guard=DegreeGuard(max_basis=5000, max_degree=3))


def test_exact_divide():
    x, y = RQ.gens()
    f = (x + y) * (x ** 2 - y)
    assert exact_divide(f, x + y) == x ** 2 - y
    with pytest.raises(Exception):
        exact_divide(x ** 2 + y, x + y)


def test_zero_ideal_membership():
    x, _ = RQ.gens()
    Z = Ideal(RQ, (RQ.zero(),))
    assert Z.is_zero
    assert membership(RQ.zero(), Z)
    assert not membership(x, Z)


# --------------------------------------------------------------------------
# pinned outputs: the S-pair selection order decides every basis and every
# Diagnostics, so these values (recorded before the pair queue became a
# keyed heap) must not move


def _basis_digest(gb):
    text = "\n".join(str(g) for g in gb.basis)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _record_buchberger_runs(monkeypatch, thunk):
    """Every basis the engine computes while thunk runs, in order."""
    runs = []
    real = groebner.buchberger

    def recording(ideal, order=groebner.DEFAULT_ORDER, guard=groebner.DEFAULT_GUARD):
        gb = real(ideal, order, guard)
        runs.append(gb)
        return gb

    monkeypatch.setattr(groebner, "buchberger", recording)
    thunk()
    return runs


def test_groebner_work_does_not_depend_on_history(monkeypatch):
    # bases computed per operation, whatever ran before in the process
    computed = []
    core = groebner._buchberger_core

    def counting(*args):
        computed.append(args)
        return core(*args)
    monkeypatch.setattr(groebner, "_buchberger_core", counting)

    def run_and_reverify(name, params):
        computed.clear()
        report = run_scenario(name, params).to_json_dict()
        run = len(computed)
        computed.clear()
        assert reverify(report)
        return run, len(computed)

    hartshorne = {"p": 101, "n_max": 8, "k_max": 12}
    assert run_and_reverify("hartshorne", hartshorne) == (0, 0)
    assert run_and_reverify("hartshorne", hartshorne) == (0, 0)
    assert run_and_reverify("ring-A-colon", {"n_max": 8}) == (0, 0)
    assert run_and_reverify("hartshorne", hartshorne) == (0, 0)


def test_pinned_singh_swanson_annihilator_colon(monkeypatch):
    # the n = 4, k = 1 annihilator of the colon workload, over GF(2)
    ring, relation = _singh_swanson_ring(2)
    s, t, u, v, w, x, y, z = ring.gens()
    n = 4
    cech = CechClass(QuotientRing(ring, (relation,)), (x, y, z), n,
                     s * (u * x) * (v * y) ** (n - 1) * z ** (n - 1))
    runs = _record_buchberger_runs(
        monkeypatch, lambda: annihilator_in_subring(cech, ("s", "t"), 1))
    assert [(str(gb.order), gb.diagnostics.as_dict(), _basis_digest(gb))
            for gb in runs] == [
        ("eliminate(_t)", {"s_pairs": 359, "basis_size": 76, "max_degree": 24},
         "3bc248fe28575631"),
        ("eliminate(u,v,w,x,y,z)",
         {"s_pairs": 17, "basis_size": 12, "max_degree": 7},
         "872043b577a06101"),
    ]


def test_pinned_hartshorne_ideal():
    ring = PolyRing(("w", "x", "y", "z"), GF(101))
    w, x, y, z = ring.gens()
    gb = buchberger(Ideal(ring, (x ** 5 * z ** 2, y ** 5, w * x - y * z)))
    assert gb.diagnostics.as_dict() == \
        {"s_pairs": 13, "basis_size": 7, "max_degree": 12}
    assert [str(g) for g in gb.basis] == [
        "w*x + 100*y*z", "y^5", "x^5*z^2", "x^4*y*z^3", "x^3*y^2*z^4",
        "x^2*y^3*z^5", "x*y^4*z^6",
    ]


def test_pinned_random_grevlex_ideal():
    ring = PolyRing(("a", "b", "c", "d"), GF(101))
    rng = random.Random(1)
    mons = list(monomials_up_to_degree(4, 3))
    gens = tuple(
        Polynomial(ring, {m: rng.randint(1, 100) for m in rng.sample(mons, 4)})
        for _ in range(3)
    )
    assert [str(g) for g in gens] == [
        "58*a^2*b + 61*a*c + 64*a*d + 98*d",
        "78*c^3 + 4*a*d^2 + 56*a*b + 50*c*d",
        "41*a^2*c + 14*b*c^2 + 4*d^2 + 76",
    ]
    gb = buchberger(Ideal(ring, gens))
    assert gb.diagnostics.as_dict() == \
        {"s_pairs": 26, "basis_size": 13, "max_degree": 9}
    assert _basis_digest(gb) == "926bbb05dd80e75d"


def test_pinned_ptor2_guard_abort():
    # the engine still aborts on the e = 3 membership question that
    # ptor2-theorem now decides termwise, before any Groebner run
    ring = PolyRing(("x", "y", "z"), ZZ)
    x, y, z = ring.gens()
    f, g = [x, y, z], [y * z, z * x, -2 * x * y]
    q, k = 27, 26
    for domain in (QQ, GF(5)):
        field = PolyRing(ring.variables, domain)
        product = convert(lambda_q(f, g, 3, 3), field)
        for gi in g:
            product = product * convert(gi, field) ** k
        gens = tuple(convert(gi, field) ** (q + k) for gi in g)
        with pytest.raises(GuardExceededError) as info:
            membership(product, Ideal(field, gens))
        assert str(info.value) == "S-pair lcm degree 159 exceeds the guard (120)"
        assert info.value.diagnostics.as_dict() == \
            {"s_pairs": 1, "basis_size": 3, "max_degree": 159}
    report = run_scenario("ptor2-theorem", {"e": 3})
    assert [c.status for c in report.checks] == ["pass"] * 2


def test_packed_reducer_agrees_with_monomial_divides():
    rng = random.Random(46)
    lay = _layout(("a", "b", "c", "d", "e"), GrevLex(), 8)
    zero = (0,) * 5
    seen = {True: 0, False: 0}
    for _ in range(3000):
        # mostly small exponents, so zeros and true divisors both occur
        a = tuple(rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(5))
        b = tuple(rng.choice((0, 0, 1, 2, 3, 4)) for _ in range(5))
        for a1, b1 in ((a, b), (zero, b), (a, zero), (zero, zero)):
            expect = monomial_divides(a1, b1)
            seen[expect] += 1
            pa, pb = lay.pack(a1), lay.pack(b1)
            assert (((pb | lay.guard) - pa) & lay.guard == lay.guard) == expect
            # the engine's own reduction: x^b is reduced by x^a iff a | b
            reduced = _normal_form_terms({pb: 1}, [_reducer(pa, {pa: 1}, lay)],
                                         lay, GF(101))
            assert (reduced == {}) == expect
    assert seen[True] > 1000 and seen[False] > 1000


def _random_order(rng, names):
    kind = rng.randrange(4)
    if kind == 0:
        return Lex()
    if kind == 1:
        return GrevLex()
    front = tuple(rng.sample(names, rng.randint(1, len(names) - 1)))
    return BlockElimination(front=front, inner=GrevLex() if kind == 2 else Lex())


def test_packed_monomials_match_tuples():
    # packed arithmetic against the tuple helpers and order keys, over every
    # order kind the engine lays out, with zero exponents and the monomial 1
    rng = random.Random(6)
    kinds = set()
    for _ in range(200):
        names = tuple(f"x{i}" for i in range(rng.randint(2, 9)))
        ring = PolyRing(names, GF(101))
        order = _random_order(rng, names)
        kinds.add(f"block over {order.inner}"
                  if isinstance(order, BlockElimination) else str(order))
        key = order.key(ring)
        lay = _layout(names, order, 10)  # products reach degree 9 * 62
        mons = [(0,) * len(names)] + [
            tuple(rng.choice((0, 0, 1, 2, 5, 31)) for _ in names)
            for _ in range(12)
        ]
        for a in mons:
            pa = lay.pack(a)
            assert lay.unpack(pa) == a
            assert lay.degree(pa) == sum(a)
            for b in mons:
                pb = lay.pack(b)
                assert ((pa ^ lay.flip) < (pb ^ lay.flip)) == (key(a) < key(b))
                g = lay.guard
                assert (((pb | g) - pa) & g == g) == monomial_divides(a, b)
                assert lay.unpack(lay.lcm(pa, pb)) == monomial_lcm(a, b)
                assert lay.lcm(pa, pb) == lay.pack(monomial_lcm(a, b))
                assert pa + pb == lay.pack(monomial_mul(a, b))
                if monomial_divides(a, b):
                    assert pb - pa == lay.pack(monomial_div(b, a))
    assert kinds == {"lex", "grevlex", "block over lex", "block over grevlex"}


def test_packed_fields_overflow_instead_of_wrapping():
    lay = _layout(("x", "y"), Lex(), 8)
    with pytest.raises(_Overflow):
        lay.lcm(lay.pack((200, 0)), lay.pack((0, 100)))  # degree 300 > 255
    assert lay.lcm(lay.pack((200, 0)), lay.pack((0, 55))) == lay.pack((200, 55))


def test_widening_restart_gives_the_same_basis():
    # under lex, x^6 - z reduces to y^1200 - z, past the starting width
    ring = PolyRing(("x", "y", "z"), GF(101))
    x, y, z = ring.gens()
    gb = buchberger(Ideal(ring, (x - y ** 200, x ** 6 - z)), Lex())
    assert gb.basis == (y ** 1200 - z, x - y ** 200)
    assert gb.diagnostics == groebner.Diagnostics(0, 2, 0)
    principal = buchberger(Ideal(ring, (x - y ** 200,)), Lex())
    assert normal_form(x ** 6, principal) == y ** 1200
    # f's own degree outgrows the width a degree-1 basis starts at
    for order in (GrevLex(), Lex()):
        linear = buchberger(Ideal(ring, (x - y,)), order)
        assert normal_form(x ** 5000, linear) == y ** 5000


def _sympy_reduced_basis(sympy, gens, ring, order):
    """The reduced basis sympy computes, as a set of frozen term dicts in
    this ring's coefficients."""
    symbols = sympy.symbols(ring.variables)
    dom = ring.domain
    exprs = [sympy.Poly.from_dict({e: sympy.sympify(c) for e, c in g.terms.items()},
                                  *symbols).as_expr() for g in gens]
    kwargs = {"modulus": dom.p} if dom.kind == "prime_field" else {"domain": "QQ"}
    gb = sympy.groebner(exprs, *symbols, order=order, **kwargs)
    return {
        frozenset((e, dom.normalize(Fraction(int(c.numerator), int(c.denominator))
                                    if dom.kind == "rational" else int(c)))
                  for e, c in poly.terms())
        for poly in gb.polys
    }


def test_reduced_bases_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(47)
    mons = list(monomials_up_to_degree(3, 2))
    sizes = []
    for dom in (GF(101), GF(7), QQ):
        ring = PolyRing(("x", "y", "z"), dom)
        for _ in range(6):
            gens = tuple(
                Polynomial(ring, {m: rng.randint(1, 9) for m in rng.sample(mons, 3)})
                for _ in range(rng.randint(2, 3))
            )
            for order, name in ((Lex(), "lex"), (GrevLex(), "grevlex")):
                gb = buchberger(Ideal(ring, gens), order)
                ours = {frozenset(g.terms.items()) for g in gb.basis}
                assert ours == _sympy_reduced_basis(sympy, gens, ring, name)
                sizes.append(len(gb.basis))
    assert len(sizes) == 36 and sum(n >= 3 for n in sizes) >= 18

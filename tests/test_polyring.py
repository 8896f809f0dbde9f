import random
import time
from fractions import Fraction

import pytest

from cohomcert import (
    ANY_DEGREE,
    GF,
    CoefficientDomain,
    DegreeGuard,
    GroebnerBasis,
    Ideal,
    GrevLex,
    BlockElimination,
    Lex,
    Multigrading,
    NonDivisibleError,
    ParseError,
    Polynomial,
    PolyRing,
    QQ,
    QuotientRing,
    RingMismatchError,
    ZZ,
    buchberger,
    convert,
    divide_exact_by_integer,
    membership,
    multidegree,
    reduce_mod_p,
)
from cohomcert.polyring import is_prime
from helpers import naive_mul, naive_substitute

RQ = PolyRing(("x", "y"), QQ)
RZ = PolyRing(("x", "y"), ZZ)
R3 = PolyRing(("x", "y"), GF(3))


def test_add_mul_examples():
    x, y = RQ.gens()
    assert (x + y) + (x - y) == 2 * x
    assert (x + y) * (x - y) == x ** 2 - y ** 2
    x3, y3 = R3.gens()
    assert (x3 + y3) ** 3 == x3 ** 3 + y3 ** 3


def test_pow_edge_cases():
    x, y = RQ.gens()
    assert x ** 0 == RQ.one()
    assert RQ.zero() ** 0 == RQ.one()
    assert (x + y) ** 1 == x + y
    with pytest.raises(ValueError):
        x ** -1


def test_ring_mismatch_rejected():
    x, _ = RQ.gens()
    xz, _ = RZ.gens()
    with pytest.raises(RingMismatchError):
        x + xz
    with pytest.raises(RingMismatchError):
        x * xz


def test_zero_coefficients_never_stored():
    x, y = RQ.gens()
    f = (x + y) - x - y
    assert f.is_zero and f.terms == {}
    g = Polynomial(RQ, {(1, 0): 0, (0, 1): 2})
    assert list(g.terms.values()) == [2]


def test_ring_axioms_random():
    rng = random.Random(101)
    for ring in (RQ, R3, RZ):
        for _ in range(60):
            f, g, h = (
                _random(rng, ring), _random(rng, ring), _random(rng, ring)
            )
            assert (f + g) + h == f + (g + h)
            assert f + g == g + f
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f + ring.zero() == f
            assert f * ring.one() == f


def _random(rng, ring):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        e = tuple(rng.randint(0, 3) for _ in range(ring.nvars))
        terms[e] = terms.get(e, 0) + rng.randint(-4, 4)
    return Polynomial(ring, terms)


# -- multigradings ----------------------------------------------------------

SECTION2_TABLE = {
    "x": (1, 0, 0, 0), "y": (0, 1, 0, 0), "z": (0, 0, 1, 0),
    "u": (-1, 0, 0, 1), "v": (0, -1, 0, 1), "w": (0, 0, -1, 1),
}
R6 = PolyRing(("u", "v", "w", "x", "y", "z"), ZZ)
GRADING = Multigrading.from_dict(R6, SECTION2_TABLE)


def test_multidegree_weight_table():
    u, v, w, x, y, z = R6.gens()
    assert multidegree(x, GRADING) == (1, 0, 0, 0)
    lam2 = -(u * x * v * y + u * x * w * z + v * y * w * z)
    assert multidegree(lam2, GRADING) == (0, 0, 0, 2)
    assert multidegree(x + u, GRADING) is None
    assert multidegree(R6.zero(), GRADING) is ANY_DEGREE


def test_multidegree_additive_on_products():
    rng = random.Random(7)
    u, v, w, x, y, z = R6.gens()
    gens = [u, v, w, x, y, z]
    for _ in range(40):
        f = rng.choice(gens) * rng.choice(gens)
        g = rng.choice(gens) * rng.choice(gens) * rng.choice(gens)
        a, b = multidegree(f, GRADING), multidegree(g, GRADING)
        assert multidegree(f * g, GRADING) == tuple(i + j for i, j in zip(a, b))


def test_multidegree_additive_on_homogeneous_polynomials():
    # multi-term homogeneous inputs under the total-degree grading
    rng = random.Random(9)
    ring = PolyRing(("x", "y", "z"), QQ)
    grading = Multigrading.from_dict(ring, {"x": (1,), "y": (1,), "z": (1,)})
    from helpers import random_homogeneous
    for _ in range(30):
        da, db = rng.randint(1, 3), rng.randint(1, 3)
        f = random_homogeneous(rng, ring, da)
        g = random_homogeneous(rng, ring, db)
        if f.is_zero or g.is_zero or (f * g).is_zero:
            continue
        assert multidegree(f, grading) == (da,)
        assert multidegree(g, grading) == (db,)
        assert multidegree(f * g, grading) == (da + db,)


def test_multidegree_rank_mismatch():
    bad = Multigrading(((1,), (1,)))
    with pytest.raises(ValueError):
        multidegree(R6.one(), bad)


# -- exact integer division and mod-p reduction -----------------------------

def test_divide_exact_examples():
    x, y = RZ.gens()
    assert divide_exact_by_integer((x ** 2 + y ** 2) - (x + y) ** 2, 2) == -(x * y)
    assert divide_exact_by_integer(RZ.zero(), 7).is_zero
    with pytest.raises(NonDivisibleError) as info:
        divide_exact_by_integer(x, 2)
    assert info.value.monomial == (1, 0)


def test_divide_exact_needs_integer_ring():
    x, _ = RQ.gens()
    with pytest.raises(ValueError):
        divide_exact_by_integer(x, 2)


def test_reduce_mod_p_examples():
    x, y = RZ.gens()
    r2 = reduce_mod_p(2 * x + 3 * y, 2)
    assert str(r2) == "y"
    assert str(reduce_mod_p(-(x * y), 2)) == "x*y"
    f = divide_exact_by_integer(x ** 3 + y ** 3 - (x + y) ** 3, 3)
    assert str(reduce_mod_p(f, 3)) == "2*x^2*y + 2*x*y^2"


def test_reduce_mod_p_is_a_ring_map():
    rng = random.Random(13)
    for _ in range(40):
        f, g = _random(rng, RZ), _random(rng, RZ)
        p = rng.choice((2, 3, 5))
        assert reduce_mod_p(f + g, p) == reduce_mod_p(f, p) + reduce_mod_p(g, p)
        assert reduce_mod_p(f * g, p) == reduce_mod_p(f, p) * reduce_mod_p(g, p)
        assert reduce_mod_p(divide_exact_by_integer(p * f, p), p) == reduce_mod_p(f, p)


def test_frobenius_identity():
    rng = random.Random(17)
    for p in (2, 3, 5):
        ring = PolyRing(("x", "y"), GF(p))
        for _ in range(25):
            f, g = _random(rng, ring), _random(rng, ring)
            assert (f + g) ** p == f ** p + g ** p


# -- substitution ------------------------------------------------------------

def test_substitute_examples():
    u, v, w, x, y, z = R6.gens()
    f = u * x + v * y + w * z
    assert f.substitute({"u": 1, "v": 1, "w": 1}) == x + y + z
    assert f.substitute({}) == f
    st = PolyRing(("s", "t"), QQ)
    s, t = st.gens()
    q2 = t ** 2 - s ** 2
    assert q2.substitute({"s": 1}) == t ** 2 - 1
    with pytest.raises(KeyError):
        f.substitute({"nope": 1})


def _stored_canonically(f):
    # equality ignores dict order, so check the stored terms themselves:
    # no zero coefficient, and each one in its domain's representation
    dom = f.ring.domain
    return all(c != 0 and dom.normalize(c) == c and type(c) is type(dom.normalize(c))
               for c in f.terms.values())


def _random_over(rng, ring, max_terms=6, max_deg=4):
    """A random polynomial; over QQ the coefficients are proper fractions."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(ring.nvars))
        c = rng.randint(-6, 6)
        if ring.domain == QQ:
            c = Fraction(c, rng.randint(1, 4))
        terms[e] = terms.get(e, 0) + c
    return Polynomial(ring, terms)


ORACLE_RINGS = [PolyRing(("x", "y", "z"), dom) for dom in (ZZ, QQ, GF(2), GF(7))]


@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=lambda r: str(r.domain))
def test_mul_matches_the_naive_product(ring):
    rng = random.Random(2026)
    for _ in range(80):
        f, g = _random_over(rng, ring), _random_over(rng, ring)
        h = f * g
        assert h == naive_mul(f, g) and _stored_canonically(h), (f, g)
    x, y, z = ring.gens()
    # products that cancel
    assert (x + y) * (x - y) == naive_mul(x + y, x - y) == x ** 2 - y ** 2
    assert _stored_canonically((x + y) * (x - y))
    p = ring.domain.characteristic
    if p:
        power = (x + 1) ** p
        assert power == x ** p + 1 and _stored_canonically(power)
        assert len(power.terms) == 2
    assert (x - x) * y == ring.zero() and ((x - x) * y).terms == {}


@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=lambda r: str(r.domain))
def test_substitute_matches_the_naive_substitution(ring):
    rng = random.Random(1999)
    x, y, z = ring.gens()
    names = ring.variables
    for _ in range(60):
        f = _random_over(rng, ring, max_deg=3)
        assignment = {}
        for name in rng.sample(names, rng.randint(1, 3)):
            kind = rng.randint(0, 2)
            if kind == 0:
                assignment[name] = rng.randint(-3, 3)
            elif kind == 1:
                assignment[name] = ring.const(rng.randint(-3, 3))
            else:
                assignment[name] = _random_over(rng, ring, max_terms=3, max_deg=2)
        h = f.substitute(assignment)
        assert h == naive_substitute(f, assignment) and _stored_canonically(h), \
            (f, assignment)
    f = x ** 3 * y + 2 * x * y ** 2 + z + 1
    cases = [
        {"x": y, "y": x},          # a swap: the substitution is simultaneous
        {"x": x + y},              # an image containing its own variable
        {"x": 0},                  # a zero image; x^0 = 1 keeps z + 1
        {"y": 3, "z": ring.zero()},
        {"x": ring.const(2), "y": x - 1},
        {"z": x * y},              # z has exponent 0 in every other term
    ]
    for assignment in cases:
        h = f.substitute(assignment)
        assert h == naive_substitute(f, assignment) and _stored_canonically(h), assignment
    assert f.substitute({"x": y, "y": x}) == y ** 3 * x + 2 * y * x ** 2 + z + 1
    assert f.substitute({"x": 0}) == z + 1
    assert (x - y).substitute({"x": y}).terms == {}
    assert ring.zero().substitute({"x": y}) == ring.zero()
    assert ring.one().substitute({"x": 0}) == ring.one()


def test_restrict_to_variables():
    # convert restricts to a subring, mapping variables by name
    u, v, w, x, y, z = R6.gens()
    f = x ** 2 + 3 * y
    g = convert(f, PolyRing(("x", "y"), ZZ))
    assert g.ring.variables == ("x", "y") and str(g) == "x^2 + 3*y"
    with pytest.raises(ValueError):
        convert(u + x, PolyRing(("x",), ZZ))


def _old_coefficient_map(c, dom):
    # the per-coefficient map convert used before it went through the
    # Polynomial constructor
    c = Fraction(c)
    if dom == QQ:
        return c
    den = c.denominator % dom.p
    if den == 0:
        raise ZeroDivisionError(c)
    return c.numerator * pow(den, dom.p - 2, dom.p) % dom.p


def test_convert_properties_random():
    rng = random.Random(37)
    names = ("a", "b", "c", "d", "e")
    for _ in range(200):
        small = tuple(rng.sample(names, rng.randint(1, 3)))
        rest = [v for v in names if v not in small]
        big = list(small) + rng.sample(rest, rng.randint(1, len(rest)))
        rng.shuffle(big)
        src_dom = rng.choice((ZZ, QQ))
        src, wide = PolyRing(small, src_dom), PolyRing(tuple(big), src_dom)
        f = Polynomial(src, {
            tuple(rng.randint(0, 3) for _ in small):
                Fraction(rng.randint(-9, 9), 1 if src_dom == ZZ else rng.randint(1, 6))
            for _ in range(rng.randint(0, 5))
        })
        # inject, then restrict: the identity
        up = convert(f, wide)
        assert convert(up, src) == f
        assert sorted(up.terms.values()) == sorted(f.terms.values())
        # a variable the target lacks must not occur
        outside = wide.gen(next(v for v in big if v not in small))
        with pytest.raises(RingMismatchError):
            convert(up + outside, src)
        # ZZ -> QQ, ZZ -> GF(p), QQ -> GF(p): the old coefficient map
        for dom in (QQ, GF(2), GF(3), GF(7), GF(101)):
            if dom == src_dom:
                continue
            target = PolyRing(small, dom)
            try:
                want = {e: _old_coefficient_map(c, dom) for e, c in f.terms.items()}
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    convert(f, target)
                continue
            got = convert(f, target)
            assert got.terms == {e: c for e, c in want.items() if c != 0}
            assert all(type(c) is type(dom.normalize(0)) for c in got.terms.values())


# -- text form ----------------------------------------------------------------

def test_parse_spec_string_roundtrip():
    ring = PolyRing(("s", "t", "u", "v", "w", "x", "y", "z"), QQ)
    text = "s*u^2*x^2 + s*v^2*y^2 + t*u*x*v*y + t*w^2*z^2"
    f = ring.parse(text)
    assert ring.parse(str(f)) == f
    assert len(f.terms) == 4


def test_parse_fractions_and_signs():
    f = RQ.parse("-1/2*x^2 + x*y - 3")
    assert str(f) == "-1/2*x^2 + x*y - 3"
    assert RQ.parse("(x + y)^2") == (RQ.gen("x") + RQ.gen("y")) ** 2
    assert RQ.parse("0").is_zero


def test_parse_roundtrip_random():
    rng = random.Random(23)
    for ring in (RQ, RZ, R3):
        for _ in range(40):
            f = _random(rng, ring)
            assert ring.parse(str(f)) == f


def test_parse_errors():
    with pytest.raises(ParseError):
        RQ.parse("x +")
    with pytest.raises(ParseError):
        RQ.parse("x $ y")
    with pytest.raises(ParseError):
        RQ.parse("(x + y")
    with pytest.raises(KeyError):
        RQ.parse("q + 1")


# -- monomial orders ----------------------------------------------------------

def _order_holds(key, nvars, rng, samples=200):
    def rand_exp():
        return tuple(rng.randint(0, 4) for _ in range(nvars))

    one = (0,) * nvars
    for _ in range(samples):
        a, b, c = rand_exp(), rand_exp(), rand_exp()
        ka, kb = key(a), key(b)
        # total: equal keys iff equal exponents
        assert (ka == kb) == (a == b)
        # multiplicative: a < b implies a + c < b + c
        if ka < kb:
            assert key(tuple(i + k for i, k in zip(a, c))) < \
                key(tuple(j + k for j, k in zip(b, c)))
        # 1 is minimal
        if a != one:
            assert key(one) < key(a)


def test_monomial_orders_are_orders():
    rng = random.Random(31)
    ring = PolyRing(("x", "y", "z"), QQ)
    _order_holds(Lex().key(ring), 3, rng)
    _order_holds(GrevLex().key(ring), 3, rng)
    _order_holds(BlockElimination(front=("y",)).key(ring), 3, rng)


def test_block_order_eliminates():
    ring = PolyRing(("x", "y", "z"), QQ)
    key = BlockElimination(front=("y",)).key(ring)
    # any monomial containing y beats any y-free monomial
    assert key((0, 1, 0)) > key((5, 0, 5))


def test_grevlex_standard_example():
    ring = PolyRing(("x", "y", "z"), QQ)
    key = GrevLex().key(ring)
    # x^5 y z > x^4 y z^2 in grevlex
    assert key((5, 1, 1)) > key((4, 1, 2))


def test_prime_field_requires_prime():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)


def test_is_prime_matches_a_sieve():
    limit = 10 ** 5
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, limit, i)))
    assert [n for n in range(limit) if is_prime(n)] == \
        [n for n in range(limit) if sieve[n]]
    assert not is_prime(-7)


@pytest.mark.parametrize("n, expected", [
    (3215031751, False),           # strong pseudoprime to bases 2, 3, 5, 7
    (3825123056546413051, False),  # strong pseudoprime to bases 2..23
    (2 ** 61 - 1, True),
    (10 ** 16 + 61, True),
])
def test_is_prime_large_inputs_fast(n, expected):
    t0 = time.perf_counter()
    assert is_prime(n) is expected
    assert time.perf_counter() - t0 < 0.01


# -- coefficients enter a ring only as an int or a Fraction ------------------


def test_normalize_accepts_ints_and_fractions():
    assert GF(5).normalize(7) == 2
    assert GF(5).normalize(Fraction(1, 2)) == 3
    with pytest.raises(ZeroDivisionError):
        GF(5).normalize(Fraction(1, 5))
    assert ZZ.normalize(-4) == -4
    assert ZZ.normalize(Fraction(6, 3)) == 2
    assert type(ZZ.normalize(Fraction(6, 3))) is int
    with pytest.raises(ValueError):
        ZZ.normalize(Fraction(1, 2))
    assert QQ.normalize(3) == Fraction(3)
    assert type(QQ.normalize(3)) is Fraction
    assert QQ.normalize(Fraction(-1, 2)) == Fraction(-1, 2)


@pytest.mark.parametrize("dom", [GF(5), ZZ, QQ], ids=str)
@pytest.mark.parametrize("bad", [2.5, 2.7, 2.0, "3", True, None, 1j],
                         ids=repr)
def test_normalize_rejects_other_coefficients(dom, bad):
    with pytest.raises(TypeError):
        dom.normalize(bad)
    ring = PolyRing(("x",), dom)
    with pytest.raises(TypeError):
        ring.const(bad)
    with pytest.raises(TypeError):
        ring.monomial((1,), bad)
    with pytest.raises(TypeError):
        ring.gen("x") * bad


# -- value types: Record keeps the semantics of a frozen dataclass -----------

_R5 = PolyRing(("x", "y"), GF(5))
_X5, _Y5 = _R5.gens()


def _records():
    """(value, an equal but distinct value, field tuple, repr)."""
    dom = "CoefficientDomain(kind='prime_field', p=5)"
    ring = f"PolyRing(variables=('x', 'y'), domain={dom})"
    return [
        (GF(5), CoefficientDomain("prime_field", 5), ("prime_field", 5), dom),
        (QQ, CoefficientDomain(kind="rational"), ("rational", None),
         "CoefficientDomain(kind='rational', p=None)"),
        (_R5, PolyRing(("x", "y"), CoefficientDomain("prime_field", 5)),
         (("x", "y"), GF(5)), ring),
        (Lex(), Lex(), (), "Lex()"),
        (GrevLex(), GrevLex(), (), "GrevLex()"),
        (BlockElimination(("t",)), BlockElimination(front=("t",)),
         (("t",), GrevLex()),
         "BlockElimination(front=('t',), inner=GrevLex())"),
        (BlockElimination(("t", "u"), Lex()),
         BlockElimination(inner=Lex(), front=("t", "u")),
         (("t", "u"), Lex()),
         "BlockElimination(front=('t', 'u'), inner=Lex())"),
        (DegreeGuard(), DegreeGuard(5000, 120), (5000, 120),
         "DegreeGuard(max_basis=5000, max_degree=120)"),
        (DegreeGuard(max_degree=3), DegreeGuard(5000, 3), (5000, 3),
         "DegreeGuard(max_basis=5000, max_degree=3)"),
        (Ideal(_R5, (_X5 ** 2 - _Y5, 0 * _X5, _Y5 + 1)),
         Ideal(generators=(_X5 ** 2 - _Y5, _Y5 + 1), ring=_R5),
         (_R5, (_X5 ** 2 - _Y5, _Y5 + 1)),
         f"Ideal(ring={ring}, generators=(<x^2 + 4*y over GF(5)[x,y]>, "
         "<y + 1 over GF(5)[x,y]>))"),
    ]


@pytest.mark.parametrize("value, twin, fields, text", _records(),
                         ids=lambda v: v if isinstance(v, str) else None)
def test_record_equality_hash_and_repr(value, twin, fields, text):
    assert value is not twin
    assert value == twin and not value != twin
    assert hash(value) == hash(twin) == hash(fields)
    assert repr(value) == repr(twin) == text
    assert value != fields
    assert {value: 1}[twin] == 1


def test_record_classes_compare_unequal():
    assert Lex() != GrevLex() and GrevLex() != Lex()
    assert BlockElimination(("t",)) != BlockElimination(("t",), Lex())
    assert DegreeGuard() != DegreeGuard(max_degree=3)
    assert GF(5) != GF(7) and GF(5) != QQ and QQ != ZZ
    assert _R5 != PolyRing(("x", "y"), GF(7))
    assert _R5 != PolyRing(("y", "x"), GF(5))


def test_record_non_fields_stay_out_of_equality_and_repr():
    dom = CoefficientDomain("prime_field", 5)
    assert dom.norm(7) == 2 and QQ.norm(Fraction(1, 2)) == Fraction(1, 2)
    object.__setattr__(dom, "norm", None)
    assert dom == GF(5) and hash(dom) == hash(GF(5))
    assert "norm" not in repr(dom)
    ideal = Ideal(_R5, (_X5 ** 2 - _Y5, _Y5 + 1))
    gb = buchberger(ideal)
    fresh = GroebnerBasis(gb.ring, gb.order, gb.basis, gb.diagnostics)
    assert fresh == gb and hash(fresh) == hash(gb)
    assert repr(fresh) == repr(gb)
    assert fresh.normal_form(_X5 ** 2) == gb.normal_form(_X5 ** 2)
    assert gb.contains(_X5 ** 2 + 1) and fresh.contains(_X5 ** 2 + 1)
    assert membership(_X5 ** 2 + 1, ideal)
    quotient = QuotientRing(_R5, (_X5 ** 2 - _Y5,))
    assert membership(_Y5 ** 2, Ideal(_R5, (_X5,)), rel=quotient)
    fields = {"ring", "order", "basis", "diagnostics"}
    assert vars(gb).keys() == vars(fresh).keys() == fields  # nothing kept
    assert quotient.normal_form(_X5 ** 3) == _X5 * _Y5
    assert vars(quotient).keys() == {"ring", "relations"}  # nothing kept


def test_record_construction():
    assert BlockElimination(front=("t",)).inner == GrevLex()
    assert DegreeGuard(max_degree=3).max_basis == 5000
    assert PolyRing(domain=QQ, variables=("x",)) == PolyRing(("x",), QQ)
    with pytest.raises(TypeError):
        PolyRing(("x",))                        # a field is missing
    with pytest.raises(TypeError):
        BlockElimination()
    with pytest.raises(TypeError):
        PolyRing(("x",), QQ, 1)                 # one argument too many
    with pytest.raises(TypeError):
        PolyRing(("x",), QQ, variables=("y",))  # a field given twice
    with pytest.raises(TypeError):
        DegreeGuard(max_bases=1)                # no such field
    with pytest.raises(ValueError):
        PolyRing((), QQ)                        # __post_init__ runs
    with pytest.raises(ValueError):
        CoefficientDomain("prime_field", 6)
    assert Ideal(_R5, (0 * _X5,)).generators == ()


@pytest.mark.parametrize("value, name", [
    (_R5, "domain"), (GF(5), "p"), (GF(5), "norm"), (Lex(), "key"),
    (BlockElimination(("t",)), "inner"), (DegreeGuard(), "max_degree"),
    (Ideal(_R5, (_X5,)), "generators"),
])
def test_record_is_frozen(value, name):
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.unheard_of = 1
    assert repr(value) == before

import random
import sys
import threading
from fractions import Fraction
from math import comb

import pytest

from cohomcert import (
    GF,
    Multigrading,
    PolyRing,
    Polynomial,
    QQ,
    ZZ,
    build_matrix,
    chebyshev_identity_check,
    det_oracle,
    exact_divide,
    factor_census,
    factor_univariate_fp,
    generating_check,
    irreducibility_certified,
    multidegree,
    qn_dehomogenized,
    qn_recursive,
)
from cohomcert import scenarios, toeplitz
from cohomcert.polyring import NonDivisibleError, convert
from cohomcert.toeplitz import (
    QnPolynomial,
    ST_RING,
    ToeplitzMatrix,
    _Modulus,
    _Slots,
    _degree_certified,
    _equal_degree,
    _qn_row,
    _slot_width,
    _split_power,
    _upow_mod,
    dense_coefficients,
    irreducible_fp,
    mirror_fp,
    mul_fp,
    power_product_fp,
)

from census_oracle import (
    brute_census_counts,
    brute_factorize,
    census_shape,
    qn_dehom_dense,
    smallest_factor,
)

S, T = ST_RING.gens()


def test_build_matrix_pattern():
    assert build_matrix(1).entries == ((T,),)
    assert build_matrix(2).entries == ((T, S), (S, T))
    m3 = build_matrix(3)
    zero = ST_RING.zero()
    assert m3.entries == ((T, S, zero), (S, T, S), (zero, S, T))
    with pytest.raises(ValueError):
        build_matrix(0)
    with pytest.raises(ValueError):
        ToeplitzMatrix(2, ((T, T), (T, T)))


def test_det_oracle_examples():
    assert det_oracle(build_matrix(1)) == T
    assert det_oracle(build_matrix(2)) == T ** 2 - S ** 2
    assert det_oracle(ToeplitzMatrix(0, ())) == ST_RING.one()


def test_qn_recursive_examples():
    assert qn_recursive(0).poly == ST_RING.one()
    assert qn_recursive(1).poly == T
    assert qn_recursive(2).poly == T ** 2 - S ** 2
    assert qn_recursive(3).poly == T ** 3 - 2 * S ** 2 * T
    with pytest.raises(ValueError):
        qn_recursive(-1)


def test_recursion_matches_oracle():
    for n in range(1, 17):
        assert qn_recursive(n).poly == det_oracle(build_matrix(n))


def test_qn_invariants():
    grading = Multigrading.from_dict(ST_RING, {"s": (1,), "t": (1,)})
    for n in range(0, 13):
        q = qn_recursive(n).poly
        assert multidegree(q, grading) == (n,)
        # only even powers of s
        assert all(e[0] % 2 == 0 for e in q.terms)
        # parity under t -> -t
        flipped = q.substitute({"t": -T})
        assert flipped == q * (-1) ** n


def test_generating_function():
    assert generating_check(2)
    assert generating_check(12)
    with pytest.raises(ValueError):
        generating_check(1)

    def sabotage(n):
        if n == 2:
            return QnPolynomial(2, ST_RING.parse("t^2"))
        return qn_recursive(n)

    assert not generating_check(6, family=sabotage)

    st_over_q = PolyRing(("s", "t"), QQ)

    def fractional(n):
        if n == 3:
            half_q3 = convert(qn_recursive(3).poly, st_over_q) * Fraction(1, 2)
            return QnPolynomial(3, half_q3)
        return qn_recursive(n)

    # the series lives over Z: a non-integral member is an engine error
    for check in (generating_check, series_generating_check):
        with pytest.raises(ValueError):
            check(6, family=fractional)


def series_generating_check(N, family=qn_recursive):
    """Oracle: the generating identity as one truncated series product
    (sum_{n<=N} Q_n z^n) * (1 - t z + s^2 z^2) in Z[s, t, z], with no
    coefficient taken apart."""
    if N < 2:
        raise ValueError("truncation order must be at least 2")
    ring = PolyRing(("s", "t", "z"), ZZ)
    s, t, z = ring.gens()
    # Q_n z^n for distinct n share no monomial: the sum is a union of terms
    series = Polynomial(ring, {
        e + (n,): ZZ.normalize(c)
        for n in range(N + 1) for e, c in family(n).poly.terms.items()
    }, _normalized=True)
    product = series * (ring.one() - t * z + s ** 2 * z ** 2)
    truncated = Polynomial(
        ring, {e: c for e, c in product.terms.items() if e[2] <= N}, _normalized=True
    )
    return truncated == ring.one()


def _family_with(m, poly):
    """The true family with Q_m replaced by poly."""
    return lambda n: QnPolynomial(n, poly) if n == m else qn_recursive(n)


def _sabotages(N, rng):
    """Seeded (name, family) pairs, each wrong at some n <= N."""
    n = rng.randrange(N + 1)
    j = rng.randrange(n + 1)
    bumped = dict(qn_recursive(n).poly.terms)
    bumped[n - j, j] = bumped.get((n - j, j), 0) + rng.choice((1, -1))
    yield f"Q_{n} with s^{n - j} t^{j} moved by 1", _family_with(
        n, Polynomial(ST_RING, bumped))
    yield "Q_0 = 2", _family_with(0, 2 * ST_RING.one())
    yield "Q_1 = t + s", _family_with(1, T + S)
    m = rng.randrange(2, N + 1)
    yield f"Q_{m} + s", _family_with(m, qn_recursive(m).poly + S)
    m = rng.randrange(N + 1)
    dropped = dict(qn_recursive(m).poly.terms)
    del dropped[rng.choice(sorted(dropped))]
    yield f"Q_{m} with a term dropped", _family_with(
        m, Polynomial(ST_RING, dropped))


def test_generating_check_reads_members_up_to_the_first_failure():
    # the scenario's sabotaged family is wrong at Q_2: no later member is built
    read = []

    def recording(n):
        read.append(n)
        return scenarios._sabotaged_family(n)

    assert generating_check(64, family=recording) is False
    assert read == [0, 1, 2]
    read.clear()
    family = _family_with(5, qn_recursive(5).poly + S)
    assert generating_check(12, family=lambda n: read.append(n) or family(n)) is False
    assert read == list(range(6))


def test_generating_check_agrees_with_series_oracle():
    rng = random.Random(13)
    for N in (2, 3, 12, 64):
        assert generating_check(N) is series_generating_check(N) is True, N
        for _ in range(4):
            for name, family in _sabotages(N, rng):
                assert generating_check(N, family) is \
                    series_generating_check(N, family) is False, (N, name)
        # the series is truncated at z^N: a wrong Q_N fails, a wrong Q_(N+1)
        # is never read
        for n, verdict in ((N, False), (N + 1, True)):
            family = _family_with(n, qn_recursive(n).poly + ST_RING.one())
            assert generating_check(N, family) is \
                series_generating_check(N, family) is verdict, (N, n)


def test_qn_closed_form():
    # independent of the recursion: Q_n = sum_k (-1)^k C(n-k, k) s^(2k) t^(n-2k)
    for n in range(65):
        assert qn_recursive(n).poly.terms == {
            (2 * k, n - 2 * k): (-1) ** k * comb(n - k, k)
            for k in range(n // 2 + 1)}, n


def test_chebyshev_identity(monkeypatch):
    assert all(chebyshev_identity_check(n) for n in range(1, 65))
    with pytest.raises(ValueError):
        chebyshev_identity_check(0)
    real = toeplitz.qn_recursive
    one = ST_RING.one()
    for n in (1, 2, 7, 64):
        # Q_n + 1: its constant term breaks the identity
        monkeypatch.setattr(toeplitz, "qn_recursive", lambda m, n=n: QnPolynomial(
            m, real(m).poly + one) if m == n else real(m))
        assert not chebyshev_identity_check(n), n
    # right degree, wrong roots (t^2 - 3 vanishes at +-sqrt(3), not +-1),
    # then the wrong degree
    for wrong in ("t^2 - 3", "t^3 - t"):
        monkeypatch.setattr(toeplitz, "qn_recursive", lambda m, w=wrong: QnPolynomial(
            m, ST_RING.parse(w)) if m == 2 else real(m))
        assert not chebyshev_identity_check(2), wrong
        assert chebyshev_identity_check(3)


def test_qn_is_chebyshev_u_of_half_t():
    # an independent oracle: Q_n(1, t) = U_n(t/2)
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    for n in range(65):
        want = sympy.Poly(sympy.chebyshevu(n, t / 2), t)
        got = {(j,): c for (_, j), c in qn_recursive(n).poly.terms.items()}
        assert want.as_dict() == got, n


def test_factor_examples():
    f = qn_dehomogenized(3, 5)
    assert [(str(g), m) for g, m in factor_univariate_fp(f)] == \
        [("t", 1), ("t^2 + 3", 1)]
    tp = PolyRing(("t",), GF(11))
    assert [(str(g), m) for g, m in factor_univariate_fp(tp.gen("t"))] == [("t", 1)]
    t7 = PolyRing(("t",), GF(7))
    split = factor_univariate_fp(t7.parse("t^2 - 2"))
    assert sorted(str(g) for g, _ in split) == ["t + 3", "t + 4"]
    with pytest.raises(ValueError):
        factor_univariate_fp(t7.zero())


def test_factor_reconstruction_random():
    rng = random.Random(99)
    for p in (2, 3, 5, 7):
        ring = PolyRing(("t",), GF(p))
        t = ring.gen("t")
        for _ in range(12):
            f = ring.const(rng.randint(1, p - 1))
            target = rng.randint(2, 7)
            while f.total_degree() < target:
                c0, c1 = rng.randrange(p), rng.randrange(p)
                if rng.random() < 0.5:
                    f = f * (t + ring.const(c0))
                else:
                    f = f * (t ** 2 + c1 * t + ring.const(c0))
            result = factor_univariate_fp(f)
            product = ring.one()
            for g, m in result:
                assert irreducibility_certified(g)
                product = product * g ** m
            lc = f.terms[max(f.terms, key=lambda e: e[0])]
            assert product * lc == f


def test_factor_against_brute_force():
    for p in (3, 5):
        for n in range(1, 9):
            f = qn_dehomogenized(n, p)
            brute = brute_factorize(qn_dehom_dense(n, p), p)
            assert _dense_factors(f) == {tuple(k): v for k, v in brute.items()}
    # products of two or three distinct irreducibles of one degree d >= 2:
    # distinct-degree splitting leaves them in one block, so equal-degree
    # splitting (the Frobenius norm for odd p) must separate them
    rng = random.Random(4242)
    for p in (3, 5, 13):
        ring = PolyRing(("t",), GF(p))
        for d in (2, 3):
            for count in ((2,) if p ** d > 1000 else (2, 3)):
                irreducibles = set()
                while len(irreducibles) < count:
                    g = _random_monic(d, p, rng)
                    if smallest_factor(g, p)[0] is None:
                        irreducibles.add(tuple(g))
                product = [1]
                for g in irreducibles:
                    product = _umul(product, list(g), p)
                f = Polynomial(ring, {(i,): c for i, c in enumerate(product) if c})
                brute = brute_factorize(product, p)
                assert brute == {g: 1 for g in irreducibles}
                assert _dense_factors(f) == brute, (p, d, count)


def _dense_factors(f):
    return {tuple(dense_coefficients(g)): m for g, m in factor_univariate_fp(f)}


def test_irreducibility_certified():
    t5 = PolyRing(("t",), GF(5))
    assert irreducibility_certified(t5.parse("t^2 + 3"))
    assert not irreducibility_certified(t5.parse("t^2 - 1"))
    assert irreducibility_certified(t5.parse("t"))
    assert not irreducibility_certified(t5.one())


def test_low_degree_factors_checked_exhaustively():
    # census factors of degree <= 3: certify by exhaustive root search
    # (a cubic or quadratic over F_p is reducible iff it has a root)
    p = 5
    for row in factor_census(12, p).rows:
        for name in row.factors:
            ring = PolyRing(("t",), GF(p))
            f = ring.parse(name)
            deg = f.total_degree()
            if 2 <= deg <= 3:
                for a in range(p):
                    value = sum(
                        c * pow(a, e[0], p) for e, c in f.terms.items()
                    ) % p
                    assert value != 0, (name, a)
            assert irreducibility_certified(f)


def test_census_examples():
    c = factor_census(3, 5)
    names = set()
    for row in c.rows:
        names.update(row.factors)
    assert {"t", "t + 1", "t + 4", "t^2 + 3"} <= names
    assert c.cumulative_count == 4
    assert factor_census(1, 5).cumulative_count == 1
    counts = [r.cumulative_count for r in factor_census(16, 5).rows]
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    with pytest.raises(ValueError):
        factor_census(0, 5)


def test_census_against_brute_force_oracle():
    # live cross-check at small degrees; n = 16 is frozen in the acceptance suite
    counts = [r.cumulative_count for r in factor_census(10, 5).rows]
    assert counts == brute_census_counts(10, 5)
    for p, n_max in ((2, 12), (3, 10), (5, 8)):
        ring = PolyRing(("t",), GF(p))
        for row in factor_census(n_max, p).rows:
            mine = {tuple(dense_coefficients(ring.parse(name))): m
                    for name, m in row.factorization}
            assert mine == brute_factorize(qn_dehom_dense(row.n, p), p), (p, row.n)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 65521])
def test_census_rows_match_direct_factorization(p):
    # the census factors each Psi_d once and sums them over d | 2(n+1);
    # each row must still be the factorization of all of Q_n,
    # multiplicities included (p | n+1 gives repeated factors)
    for row in factor_census(64, p).rows:
        direct = factor_univariate_fp(qn_dehomogenized(row.n, p))
        assert list(row.factorization) == [(str(g), m) for g, m in direct], \
            (p, row.n)


def _plus(row, other, p):
    """row + other over F_p, both dense little-endian lists."""
    out = [0] * max(len(row), len(other))
    for f in (row, other):
        for i, c in enumerate(f):
            out[i] += c
    return [c % p for c in out]


def test_census_rejects_a_divisor_that_does_not_divide(monkeypatch):
    # Psi_4 = Q_1 = t must divide Q_3; a wrong Q_3 raises instead of
    # being factored
    real = toeplitz.qn_row_fp

    def broken(n, p):
        f = real(n, p)
        return _plus(f, [1], p) if n == 3 else f
    monkeypatch.setattr(toeplitz, "qn_row_fp", broken)
    with pytest.raises(NonDivisibleError):
        factor_census(3, 5)


def test_census_rejects_a_wrong_even_row_identity(monkeypatch):
    # Q_4 = (Q_2 - Q_1)(Q_2 + Q_1); a wrong Q_4 breaks that product and
    # raises before any Psi_d is divided out
    real = toeplitz.qn_row_fp

    def broken(n, p):
        f = real(n, p)
        return _plus(f, [1], p) if n == 4 else f
    monkeypatch.setattr(toeplitz, "qn_row_fp", broken)
    with pytest.raises(NonDivisibleError):
        factor_census(4, 5)


def test_census_rejects_a_wrong_odd_row_past_its_older_divisors(monkeypatch):
    # Q_5 = Psi_3 Psi_4 Psi_6 Psi_12; Q_5 + 1 leaves a remainder on division
    # by the older Psi_3 Psi_4 Psi_6 = t^3 - t
    real = toeplitz.qn_row_fp

    def broken(n, p):
        f = real(n, p)
        return _plus(f, [1], p) if n == 5 else f
    monkeypatch.setattr(toeplitz, "qn_row_fp", broken)
    with pytest.raises(NonDivisibleError):
        factor_census(5, 5)


def test_census_checks_the_power_rule(monkeypatch):
    # over GF(5), Psi_20 = Psi_4^4 = t^4; a Q_9 that keeps the older
    # Psi_4 Psi_5 Psi_10 as a divisor but turns Psi_20 into t^4 + 1 passes
    # the division and must fail the power-rule product
    real = toeplitz.qn_row_fp
    t4 = PolyRing(("t",), GF(5)).parse("t^4")
    older = dense_coefficients(exact_divide(qn_dehomogenized(9, 5), t4))

    def broken(n, p):
        f = real(n, p)
        return _plus(f, older, p) if n == 9 else f
    monkeypatch.setattr(toeplitz, "qn_row_fp", broken)
    with pytest.raises(NonDivisibleError):
        factor_census(9, 5)


def _raised_within(seconds, fn, *args):
    """The exception fn(*args) raises, or None.  fn runs in a daemon thread,
    so a search that never ends fails the test instead of hanging it."""
    raised = []

    def target():
        try:
            fn(*args)
        except Exception as exc:
            raised.append(exc)
    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(timeout=seconds)
    assert not worker.is_alive(), f"still running after {seconds} s"
    return raised[0] if raised else None


def test_split_at_a_wrong_degree_raises_promptly():
    # t^4 + 2 is irreducible over GF(5); no draw splits it at degree 2, so
    # equal-degree splitting must give up after its bounded number of draws
    t5 = PolyRing(("t",), GF(5))
    assert irreducibility_certified(t5.parse("t^4 + 2"))
    f = [2, 0, 0, 0, 1]
    assert isinstance(_raised_within(1, _equal_degree, f, 2, 5, random.Random(0)),
                      ArithmeticError)
    assert _equal_degree(f, 4, 5, random.Random(0)) == [f]


@pytest.mark.parametrize("wrong", [lambda e: e + 1, lambda e: 2 * e,
                                   lambda e: max(1, e - 1), lambda e: 3 * e],
                         ids=["e+1", "2e", "e-1", "3e"])
def test_census_rejects_a_wrong_split_degree(monkeypatch, wrong):
    real = toeplitz._split_degree
    monkeypatch.setattr(toeplitz, "_split_degree", lambda d, p: wrong(real(d, p)))
    assert isinstance(_raised_within(5, factor_census, 16, 5), ArithmeticError)


def test_degree_certificate_matches_trial_division():
    # True iff f is squarefree and every irreducible factor has degree e
    rng = random.Random(2026)
    for p in (2, 3, 5):
        for _ in range(60):
            f = [1]
            for _ in range(rng.randrange(1, 4)):
                f = _umul(f, _random_monic(rng.randrange(1, 4), p, rng), p)
            factors = brute_factorize(f, p)
            for e in range(1, 7):
                want = all(m == 1 and len(g) - 1 == e for g, m in factors.items())
                assert _degree_certified(_Modulus(f, p), e) is want, (p, f, e)


@pytest.mark.parametrize("p", [q for q in range(2, 62)
                               if all(q % k for k in range(2, q))])
def test_census_matches_the_shape_oracle(p):
    # degrees, multiplicities and cumulative counts from d and p alone
    ring = PolyRing(("t",), GF(p))
    census = factor_census(64, p)
    for row, (shape, cumulative) in zip(census.rows, census_shape(64, p),
                                        strict=True):
        got = sorted((ring.parse(name).total_degree(), m)
                     for name, m in row.factorization)
        assert got == shape, (p, row.n)
        assert row.cumulative_count == cumulative, (p, row.n)


def _dehomogenized(n, p=None):
    """Q_n(1,t) over F_p, or over Q for p None by substituting s = 1."""
    if p is not None:
        return qn_dehomogenized(n, p)
    return convert(qn_recursive(n).poly.substitute({"s": 1}), PolyRing(("t",), QQ))


def _half(j, p=None):
    """A_j = Q_j(1,t) - Q_(j-1)(1,t), with Q_0 = 1."""
    return _dehomogenized(j, p) - _dehomogenized(j - 1, p)


def test_even_row_is_a_product_of_halves():
    # U_2j = U_j^2 - U_(j-1)^2, over ZZ
    zt = PolyRing(("t",), ZZ)
    for j in range(1, 33):
        q = [convert(_dehomogenized(n), zt) for n in (j - 1, j, 2 * j)]
        assert q[2] == (q[1] - q[0]) * (q[1] + q[0]), j


def test_halves_divide_along_odd_divisors():
    # A_i | A_j whenever 2i+1 | 2j+1, over Q and over F_5
    for p in (None, 5):
        for j in range(1, 33):
            for i in range(1, j):
                if (2 * j + 1) % (2 * i + 1) == 0:
                    quotient = exact_divide(_half(j, p), _half(i, p))
                    assert quotient * _half(i, p) == _half(j, p), (p, i, j)


def test_mirror_fp():
    rng = random.Random(7)
    for p in (2, 3, 5, 13, 65521):
        for _ in range(50):
            f = _random_monic(rng.randrange(8), p, rng)
            g = mirror_fp(f, p)
            assert mirror_fp(g, p) == f
            assert len(g) == len(f) and g[-1] == 1
            if p == 2:
                assert g == f
        assert mirror_fp([], p) == []
    # the second half of Q_2j is the mirror of the first
    for p in (3, 5, 13):
        for j in range(1, 17):
            plus = qn_dehomogenized(j, p) + qn_dehomogenized(j - 1, p)
            assert mirror_fp(dense_coefficients(_half(j, p)), p) == \
                dense_coefficients(plus), (p, j)


def test_census_first_occurrence():
    c = factor_census(5, 5)
    json_dict = c.to_json_dict()
    first = json_dict["first_occurrence"]
    assert first["t"] == 1
    assert first["t^2 + 3"] == 3
    assert json_dict["rows"][0]["factors"] == ["t"]


def test_divisibility_ladder():
    # m | n implies Q_{m-1}(1,t) divides Q_{n-1}(1,t), over Q and over F_5
    for p in (None, 5):
        for n in range(1, 17):
            for m in range(1, n + 1):
                if n % m == 0 and m > 1:
                    top = _dehomogenized(n - 1, p)
                    bottom = _dehomogenized(m - 1, p)
                    quotient = exact_divide(top, bottom)
                    assert quotient * bottom == top


# --------------------------------------------------------------------------
# packed GF(p)[t] kernel, checked against schoolbook arithmetic

KERNEL_PRIMES = (2, 3, 13, 257, 65521, 2 ** 31 - 1, 2 ** 61 - 1)
WIDE_PRIME = 2 ** 64 - 59  # the largest prime census_p accepts


def _umul(f, g, p):
    """Schoolbook product over F_p: the oracle for the packed kernel."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] = (out[i + j] + a * b) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def _udivmod(f, g, p):
    """Schoolbook quotient and remainder over F_p, g nonzero."""
    inv, dg = pow(g[-1], -1, p), len(g) - 1
    r, q = list(f), [0] * max(len(f) - dg, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + dg] * inv % p
        for i, b in enumerate(g):
            r[k + i] = (r[k + i] - c * b) % p
    r = r[:dg]
    while q and q[-1] == 0:
        q.pop()
    while r and r[-1] == 0:
        r.pop()
    return q, r


def _ugcd(f, g, p):
    """Schoolbook monic gcd over F_p."""
    while g:
        f, g = g, _udivmod(f, g, p)[1]
    inv = pow(f[-1], -1, p) if f else 1
    return [c * inv % p for c in f]


def _oracle_mulmod(a, b, f, p):
    return _udivmod(_umul(a, b, p), f, p)[1]


def _oracle_powmod(a, e, f, p):
    result, base = [1], _udivmod(a, f, p)[1]
    for _ in range(e):
        result = _oracle_mulmod(result, base, f, p)
    return result


def _random_dense(length, p, rng):
    f = [rng.randrange(p) for _ in range(length)]
    while f and f[-1] == 0:
        f.pop()
    return f


def _random_monic(n, p, rng):
    return [rng.randrange(p) for _ in range(n)] + [1]


def _on_lists(mod, op, *args):
    """op on the packed forms of dense lists, read back as a dense list."""
    return mod.unpack(op(*(mod.pack(a) for a in args)))


def test_slot_width_rounds_up_never_down():
    assert _slot_width(255) == 1
    assert _slot_width(256) == 2
    assert _slot_width(2 ** 32 - 1) == 4
    assert _slot_width(2 ** 32) == 8
    assert _slot_width(2 ** 64 - 1) == 8
    assert _slot_width(2 ** 64) == 9
    assert _slot_width(2 ** 72) == 10


def test_mulmod_matches_schoolbook_on_random_operands():
    rng = random.Random(20260)
    widths = set()
    for p in KERNEL_PRIMES:
        for n in (1, 2, 3, 5, 8, 17, 33):
            f = _random_monic(n, p, rng)
            mod = _Modulus(f, p)
            widths.add(mod.width)
            for _ in range(4):
                a, b = _random_dense(n, p, rng), _random_dense(n, p, rng)
                assert _on_lists(mod, mod.mul, a, b) == _oracle_mulmod(a, b, f, p), (p, n)
                assert _on_lists(mod, mod.mul, a, a) == _oracle_mulmod(a, a, f, p), (p, n)
            assert _on_lists(mod, mod.mul, [], _random_dense(n, p, rng)) == []
    # every array slot width and the generic wide path ran
    assert {1, 2, 4, 8} <= widths and max(widths) > 8


def test_mulmod_worst_case_operands():
    # all coefficients p - 1 make every product, Barrett quotient and
    # remainder sum maximal; every degree from 1 to 64
    rng = random.Random(7)
    for p in KERNEL_PRIMES + (WIDE_PRIME,):
        for n in range(1, 65):
            top = [p - 1] * n
            fs = [[p - 1] * n + [1]]
            if n in (1, 2, 3, 4, 9, 40, 64):
                fs.append(_random_monic(n, p, rng))
            for f in fs:
                mod = _Modulus(f, p)
                assert _on_lists(mod, mod.mul, top, top) == \
                    _oracle_mulmod(top, top, f, p), (p, n)


def test_mulmod_needs_its_seventeen_byte_slot():
    # p = 2^31 - 1, degree 5: V = n*p*(p-1) + p has 65 bits, k = 96, and
    # V*M has 130 bits for M = ceil(2^96/p), so the slot takes 17 bytes; in
    # 16 the worst-case slot of X*M would carry into the next coefficient
    p, n = 2 ** 31 - 1, 5
    f = [p - 1] * n + [1]
    mod = _Modulus(f, p)
    bound = n * p * (p - 1) + p
    assert (mod.k, mod.magic) == (96, -(-2 ** 96 // p))
    assert (bound * mod.magic).bit_length() == 130
    assert mod.width == 17
    top = [p - 1] * n
    assert _on_lists(mod, mod.mul, top, top) == _oracle_mulmod(top, top, f, p)
    assert mul_fp(top, top, p) == _umul(top, top, p)


def test_red_is_exact_with_every_slot_at_its_bound():
    # red(X) = X - (((X*M) >> k) & MASK)*p in every one of the 2n+1 slots,
    # each at V = n*p*(p-1) + p, just below it and at random values
    rng = random.Random(1994)
    for p in KERNEL_PRIMES + (WIDE_PRIME,):
        for n in (1, 2, 3, 17, 64):
            s = _Slots(n, p)
            bound = n * p * (p - 1) + p
            assert s.bits == 8 * s.width and bound * s.magic < 2 ** s.bits
            for values in ([bound] * (2 * n + 1), [bound - 1] * (2 * n + 1),
                           [rng.randint(0, bound) for _ in range(2 * n + 1)]):
                packed = sum(v << i * s.bits for i, v in enumerate(values))
                assert s.red(packed) == s.pack([v % p for v in values]), (p, n)


def test_packed_remainder_and_gcd_match_schoolbook():
    # dividends up to degree 2n, divisors of every degree up to it, monic
    # or not.  Below the lead of a monomial divisor x^m every slot adds
    # (p-1)*p per step, so the all-(p-1) dividend of degree 2n over x^n
    # brings n slots to p - 1 + n*p*(p-1), one below V
    rng = random.Random(1970)
    for p in KERNEL_PRIMES + (WIDE_PRIME,):
        for n in (1, 2, 3, 8, 21):
            s = _Slots(n, p)
            cases = [([p - 1] * (2 * n + 1), g) for m in (0, 1, n)
                     for g in ([p - 1] * (m + 1), [0] * m + [1])]
            for _ in range(6):
                a = _random_dense(rng.randint(0, 2 * n + 1), p, rng)
                g = _random_dense(rng.randint(1, 2 * n + 1), p, rng) or [1]
                cases.append((a, g))
            for a, g in cases:
                q, r = s.divmod(s.pack(a), s.pack(g))
                assert [s.unpack(q), s.unpack(r)] == list(_udivmod(a, g, p)), (p, n)
                if len(a) <= n + 1 and len(g) <= n + 1:
                    assert _on_lists(s, s.gcd, a, g) == _ugcd(a, g, p), (p, n)
            # a common factor survives, and gcd(0, g) is g made monic
            c = _random_monic(n, p, rng)
            a, g = _umul(c, [1, 1], p), _umul(c, [2 % p, 1], p)
            assert _on_lists(s, s.gcd, a, g) == _ugcd(a, g, p)
            assert _on_lists(s, s.gcd, [], [p - 1]) == [1]
            with pytest.raises(ZeroDivisionError):
                s.divmod(s.pack([1]), 0)


def test_irreducible_fp_refuses_a_list_that_is_not_monic_over_f_p():
    # 2t^2 + 1 over GF(5) is 2(t^2 + 3), an associate of an irreducible:
    # the test answers only for monic lists with entries in [0, p)
    assert irreducible_fp([3, 0, 1], 5)
    for f in ([1, 0, 2], [8, 0, 1], [-2, 0, 1], [3, 0, 1, 0], [], [0]):
        with pytest.raises(ValueError):
            irreducible_fp(f, 5)


def test_upow_mod_matches_schoolbook():
    rng = random.Random(31337)
    for p in KERNEL_PRIMES:
        for n in (1, 2, 3, 6, 11):
            f = _random_monic(n, p, rng)
            mod = _Modulus(f, p)
            for e in (0, 1, 2, 3, 7, 16, 29):
                a = _random_dense(n + 2, p, rng)  # unreduced base too
                assert _on_lists(mod, lambda x: _upow_mod(x, e, mod), a) == \
                    _oracle_powmod(a, e, f, p), (p, n, e)


def test_frobenius_matches_powering():
    # a^p mod f from the packed x^(i*p) table against square-and-multiply,
    # for p >= n (a genuine power) and p < n, on unreduced and worst-case a
    rng = random.Random(1992)
    for p in KERNEL_PRIMES:
        sizes = {1, 2, 3, 17, 33} | {n for n in (p - 1, p + 1) if 1 <= n <= 300}
        for n in sorted(sizes):
            for f in ([p - 1] * n + [1], _random_monic(n, p, rng)):
                mod = _Modulus(f, p)
                for a in ([p - 1] * n, [p - 1] * (2 * n + 1),
                          _random_dense(n, p, rng), _random_dense(n + 3, p, rng),
                          [], [0, 1]):
                    assert _on_lists(mod, mod.frobenius, a) == \
                        _on_lists(mod, lambda x: _upow_mod(x, p, mod), a), (p, n)


def test_split_power_matches_powering():
    # the equal-degree split element a^((p^d-1)/2) through d-1 Frobenius maps
    rng = random.Random(1981)
    for p in (3, 5, 13, 257, 65521, 2 ** 61 - 1):
        for n in (2, 4, 6, 9):
            f = _random_monic(n, p, rng)
            mod = _Modulus(f, p)
            for d in (1, 2, 3, 4):
                for a in (_random_dense(n, p, rng), [p - 1] * n):
                    assert _on_lists(mod, lambda x: _split_power(x, d, mod), a) == \
                        _on_lists(mod, lambda x: _upow_mod(x, (p ** d - 1) // 2, mod),
                                  a), (p, n, d)


def test_mul_fp_matches_schoolbook():
    rng = random.Random(5)
    for p in KERNEL_PRIMES:
        for la, lb in ((1, 1), (1, 9), (7, 3), (20, 20), (0, 4)):
            a, b = _random_dense(la, p, rng), _random_dense(lb, p, rng)
            assert mul_fp(a, b, p) == _umul(a, b, p), (p, la, lb)
        top = [p - 1] * 30
        assert mul_fp(top, top, p) == _umul(top, top, p)


def test_power_product_matches_chained_schoolbook():
    # every coefficient p - 1 makes each ||g||_1 as large as it can be, the
    # worst case for the slot bound of the one integer product
    rng = random.Random(2604)
    for p in (2, 65521, 2 ** 64 - 59):
        cases = [[([p - 1] * 4, 64)], [([p - 1] * 2, 64), ([p - 1] * 3, 64)], []]
        cases += [[([p - 1] * rng.randint(2, 4), rng.randint(1, 64))
                   for _ in range(rng.randint(1, 3))] for _ in range(5)]
        for powers in cases:
            want = [1]
            for g, m in powers:
                for _ in range(m):
                    want = _umul(want, g, p)
            assert power_product_fp(powers, p) == want, (p, powers)


def test_irreducibility_matches_trial_division():
    # Rabin's test reads x^(p^(n/l)) from one pass of Frobenius iterates;
    # composite degrees (4, 6) exercise more than one checkpoint
    rng = random.Random(11)
    for p in (2, 3, 5):
        ring = PolyRing(("t",), GF(p))
        for n in range(1, 7):
            for _ in range(8):
                dense = _random_monic(n, p, rng)
                f = ring.parse(" + ".join(
                    f"{c}*t^{i}" for i, c in enumerate(dense) if c))
                brute = smallest_factor(dense, p)[0] is None
                assert irreducibility_certified(f) is brute, (p, dense)


# --------------------------------------------------------------------------
# the Q_n family


def test_qn_recursion_resumes_out_of_order():
    _qn_row.cache_clear()
    got = {n: qn_recursive(n).poly for n in (40, 7, 64, 3)}
    # the rows of Q_0..Q_64, each built once
    assert _qn_row.cache_info().misses == _qn_row.cache_info().currsize == 65
    a, b = ST_RING.one(), T
    fresh = [a, b]
    for _ in range(2, 65):
        a, b = b, T * b - S ** 2 * a
        fresh.append(b)
    for n, poly in got.items():
        assert poly == fresh[n], n
    for n in range(65):
        row = _qn_row(n)
        assert type(row) is tuple and len(row) == n + 1, n
        as_poly = Polynomial(ST_RING, {(n - j, j): c for j, c in enumerate(row)})
        assert as_poly == fresh[n], n


def test_qn_row_far_above_the_recursion_limit():
    # a cold call fills its rows in strides, so the depth stays bounded
    n = sys.getrecursionlimit() + 500
    _qn_row.cache_clear()
    row = _qn_row(n)
    prev, last = [1], [0, 1]
    for _ in range(2, n + 1):
        prev, last = last, [b - a for b, a in zip([0] + last, prev + [0, 0])]
    assert list(row) == last


def test_qn_dehomogenized_matches_substitution():
    for p in (2, 5, 13):
        for n in range(65):
            old = convert(qn_recursive(n).poly.substitute({"s": 1}),
                          PolyRing(("t",), GF(p)))
            new = qn_dehomogenized(n, p)
            assert new.ring == old.ring and new == old, (n, p)


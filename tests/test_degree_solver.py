import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from cohomcert import cohomology, degree_solver
from cohomcert.cohomology import weight_reduction_nonvanishing
from cohomcert.degree_solver import (
    CertificationError,
    MonomialFamily,
    certify_no_solutions,
    monomials_of_degree,
    positive_functional,
    unique_monomial_family,
)

# the weight table driving the nonvanishing argument, variables (u,v,w,x,y,z)
W6 = ((-1, 0, 0, 1), (0, -1, 0, 1), (0, 0, -1, 1),
      (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))


def brute_monomials(weights, target, cap):
    n, d = len(weights), len(target)
    out = []
    for e in product(range(cap + 1), repeat=n):
        if all(sum(e[i] * weights[i][j] for i in range(n)) == target[j]
               for j in range(d)):
            out.append(e)
    return sorted(out)


def box_walk_monomials(weights, target):
    """Oracle: walk every exponent vector under the positive-functional
    budget and keep those of the target degree."""
    n = len(weights)
    c = positive_functional(weights)
    phi = [sum(ci * wi for ci, wi in zip(c, w)) for w in weights]
    budget = sum(ci * ti for ci, ti in zip(c, target))
    out = []
    if budget < 0:
        return out

    def rec(i, residual, remaining_budget, acc):
        if i == n:
            if all(r == 0 for r in residual):
                out.append(tuple(acc))
            return
        w = weights[i]
        cap = remaining_budget // phi[i]
        for e in range(cap + 1):
            rec(
                i + 1,
                tuple(r - e * wj for r, wj in zip(residual, w)),
                remaining_budget - e * phi[i],
                acc + [e],
            )

    rec(0, tuple(target), budget, [])
    out.sort()
    return out


def _random_tables(rng, count):
    """Seeded small weight tables that admit a positive functional; every
    fourth one gets an extra coordinate, the sum of its first and last, so
    it is rank deficient."""
    tables = []
    while len(tables) < count:
        n, d = rng.randint(1, 4), rng.randint(1, 3)
        weights = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(n)]
        if len(tables) % 4 == 3:
            weights = [w + [w[0] + w[-1]] for w in weights]
        try:
            positive_functional(weights)
        except CertificationError:
            continue
        tables.append(tuple(tuple(w) for w in weights))
    return tables


def test_random_tables_match_both_oracles():
    rng = random.Random(20040603)
    for weights in _random_tables(rng, 150):
        d = len(weights[0])
        c = positive_functional(weights)
        targets = [tuple(rng.randint(-3, 4) for _ in range(d)) for _ in range(2)]
        # two more on the lattice: a small nonnegative combination of weights
        for _ in range(2):
            e = [rng.randint(0, 1) for _ in weights]
            targets.append(tuple(sum(ei * w[j] for ei, w in zip(e, weights))
                                 for j in range(d)))
        for target in targets:
            budget = sum(ci * ti for ci, ti in zip(c, target))
            got = monomials_of_degree(weights, target)
            # phi(w_i) >= 1, so no exponent of a solution exceeds the budget
            assert got == brute_monomials(weights, target, max(budget, 0)), \
                (weights, target)
            assert got == box_walk_monomials(weights, target), (weights, target)


@pytest.mark.parametrize("weights, target", [
    # rank 1 in two coordinates: (1, 0) lies off the rational span
    (((1, 1), (2, 2)), (1, 0)),
    (((1, 1), (2, 2), (3, 3)), (3, 2)),
    # on the rational span but off the integer lattice
    (((2,), (4,)), (3,)),
    (((2, 0), (0, 2), (1, 1)), (1, 0)),
    # a rank-2 table in three coordinates
    (((1, 0, 1), (0, 1, 1), (1, 1, 2)), (1, 2, 0)),
])
def test_off_lattice_targets_have_no_solutions(weights, target):
    assert box_walk_monomials(weights, target) == []
    assert monomials_of_degree(weights, target) == []


def test_rank_deficient_table_matches_oracles():
    weights = ((1, 0, 1), (0, 1, 1), (1, 1, 2), (2, 1, 3))
    for target in [(2, 1, 3), (3, 3, 6), (0, 0, 0), (4, 2, 6)]:
        got = monomials_of_degree(weights, target)
        assert got, target
        assert got == box_walk_monomials(weights, target) == \
            brute_monomials(weights, target, sum(target)), target


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_pipeline_targets_match_box_walk(p, monkeypatch):
    # every target the pipeline asks the solver about for this p: the
    # cofactor degrees of the three generators at k = 0, 1
    asked = []
    solve = degree_solver.monomials_of_degree

    def recording(weights, target):
        asked.append((tuple(weights), tuple(target)))
        return solve(weights, target)

    monkeypatch.setattr(degree_solver, "monomials_of_degree", recording)
    weight_reduction_nonvanishing(p)
    assert len(asked) == 6  # three generators at k = 0, 1
    for weights, target in set(asked):
        assert solve(weights, target) == box_walk_monomials(weights, target), \
            (p, target)


def _along(base, slope, k):
    return tuple(b + k * s for b, s in zip(base, slope))


def _certificate_inputs():
    """Seeded (weights, (base, slope) on the lattice, (base, slope) anywhere)
    off the W6 table."""
    rng = random.Random(19990815)
    for weights in _random_tables(rng, 60):
        d = len(weights[0])
        # base and slope on the lattice: small nonnegative weight combinations
        exps = [[rng.randint(0, 1) for _ in weights] for _ in range(2)]
        on = tuple(tuple(sum(ei * w[j] for ei, w in zip(e, weights))
                         for j in range(d)) for e in exps)
        anywhere = (tuple(rng.randint(-3, 3) for _ in range(d)),
                    tuple(rng.randint(-2, 2) for _ in range(d)))
        yield weights, on, anywhere


def test_all_k_certificates_hold_on_random_tables():
    # each certificate claims something for every k; check it at k = 0..5
    # against the box walk
    unique = empty = 0
    for weights, (base, slope), anywhere in _certificate_inputs():
        try:
            fam = unique_monomial_family(weights, base, slope)
        except CertificationError:
            pass
        else:
            unique += 1
            for k in range(6):
                assert box_walk_monomials(weights, _along(base, slope, k)) == \
                    [_along(fam.const, fam.slope, k)], (weights, base, slope, k)
        base, slope = anywhere
        try:
            certify_no_solutions(weights, base, slope)
        except CertificationError:
            pass
        else:
            empty += 1
            for k in range(6):
                assert box_walk_monomials(weights, _along(base, slope, k)) == [], \
                    (weights, base, slope, k)
    # neither half may pass vacuously
    assert unique >= 10 and empty >= 10, (unique, empty)


def _first_farkas_covector(weights, base, slope):
    """Reference search: the first covector of the boxes of radius 1, 2, 3,
    each in lexicographic order, testing the weights first, then the slope,
    then the base; None when there is none."""
    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))
    for radius in range(1, 4):
        for c in product(range(-radius, radius + 1), repeat=len(base)):
            if (all(dot(c, w) >= 0 for w in weights) and dot(c, slope) <= 0
                    and dot(c, base) < 0):
                return c
    return None


def test_farkas_covector_is_the_first_in_box_order():
    found = 0
    for weights, on, anywhere in _certificate_inputs():
        for base, slope in (on, anywhere):
            expected = _first_farkas_covector(weights, base, slope)
            try:
                psi = certify_no_solutions(weights, base, slope)
            except CertificationError:
                psi = None
            assert psi == expected, (weights, base, slope)
            found += psi is not None
    assert found >= 10, found


def _first_in_boxes(d, accept):
    """Reference search: the first covector of length d in the boxes of
    radius 1, 2, 3, each in lexicographic order, with accept(c); None when
    there is none."""
    for radius in range(1, 4):
        for c in product(range(-radius, radius + 1), repeat=d):
            if accept(c):
                return c
    return None


def _fraction_rref(rows):
    """Reference: the reduced row echelon form over Q, every pivot 1."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots, r = [], 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return rows[:r], pivots


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _first_positive_functional(weights):
    return _first_in_boxes(len(weights[0]), lambda c: all(
        _dot(c, w) >= 1 for w in weights))


def _first_face_functional(weights, base, slope):
    """Reference face search: c . base = c . slope = 0, c . w >= 0 for every
    weight, and the weights with c . w = 0 have full rank over Q."""
    def accept(c):
        if _dot(c, base) or _dot(c, slope) or any(_dot(c, w) < 0 for w in weights):
            return False
        face = [w for w in weights if _dot(c, w) == 0]
        return len(_fraction_rref(face)[1]) == len(face)
    return _first_in_boxes(len(base), accept)


def test_integer_rref_matches_fraction_reference():
    rng = random.Random(1729)
    for trial in range(300):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 7)
        rows = [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(nrows)]
        if trial % 3 == 0 and nrows > 1:
            # a dependent row: a combination of two others
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1 % (nrows - 1)])]
        got, pivots = degree_solver._rref(rows)
        ref, ref_pivots = _fraction_rref(rows)
        assert pivots == ref_pivots, rows
        assert len(got) == len(ref) == len(pivots), rows
        for row, ref_row, col in zip(got, ref, pivots):
            assert all(type(x) is int for x in row), rows
            assert row[col] > 0 and gcd(*row) == 1, (rows, row)
            assert row == [row[col] * x for x in ref_row], (rows, row, ref_row)


def test_cone_box_is_the_filtered_box():
    for weights in list(_random_tables(random.Random(2718), 40)) + [W6, ((1,), (-1,))]:
        for radius in (1, 2, 3):
            box = product(range(-radius, radius + 1), repeat=len(weights[0]))
            assert degree_solver._cone_box(weights, radius) == tuple(
                c for c in box if all(_dot(c, w) >= 0 for w in weights)), \
                (weights, radius)


def test_positive_functional_is_the_first_in_box_order():
    tables = list(_random_tables(random.Random(314), 60)) + [
        W6,
        # c1 >= c2 + 1 and 3 c2 >= c1 + 1 need c = (2, 1): radius 2
        ((1, -1), (-1, 3)),
        # c1 >= c2 + 1 and 2 c2 >= c1 + 1 need c = (3, 2): radius 3
        ((1, -1), (-1, 2)),
    ]
    radii = set()
    for weights in tables:
        c = positive_functional(weights)
        assert c == _first_positive_functional(weights), weights
        radii.add(max(map(abs, c)))
    assert radii >= {1, 2, 3}, radii
    # no covector is positive on both w and -w
    with pytest.raises(CertificationError):
        positive_functional(((1, 2), (-1, -2)))


def test_face_functional_is_the_first_in_box_order(monkeypatch):
    # the last covector search unique_monomial_family makes is its face search
    found = []
    search = degree_solver._small_covector

    def recording(weights, accept):
        found.append(search(weights, accept))
        return found[-1]

    monkeypatch.setattr(degree_solver, "_small_covector", recording)
    certified = refused = 0
    cases = [(weights, base, slope)
             for weights, (base, slope), _ in _certificate_inputs()]
    cases += [(W6, (-p, 0, 0, p), (0, 1, 1, 0)) for p in (2, 3, 5)]
    cases += [(((1,), (2,)), (0,), (1,))]
    for weights, base, slope in cases:
        counts = [len(monomials_of_degree(weights, t))
                  for t in (base, _along(base, slope, 1))]
        found.clear()
        try:
            unique_monomial_family(weights, base, slope)
        except CertificationError:
            refused += 1
        else:
            certified += 1
        if counts != [1, 1] or not found:
            continue  # refused before the face search
        assert found[-1] == _first_face_functional(weights, base, slope), \
            (weights, base, slope)
    assert certified >= 10 and refused >= 1, (certified, refused)


def test_degree_solver_is_integer_only():
    assert not hasattr(degree_solver, "Fraction")
    assert not hasattr(degree_solver, "fractions")


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_torsion_farkas_covectors(monkeypatch, p):
    # the covectors the torsion pipeline reports, one per generator x, y, z
    asked = []

    def recording(weights, base, slope):
        psi = certify_no_solutions(weights, base, slope)
        asked.append((psi, _first_farkas_covector(weights, base, slope)))
        return psi

    monkeypatch.setattr(cohomology, "certify_no_solutions", recording)
    weight_reduction_nonvanishing(p)
    assert asked == [((1, 0, 0, 1),) * 2, ((0, 1, 0, 1),) * 2, ((0, 0, 1, 1),) * 2]


@pytest.mark.parametrize("call, args", [
    # a target longer than the weight rows
    (monomials_of_degree, (((1, 0), (0, 1)), (1, 1, 1))),
    # a ragged weight table
    (monomials_of_degree, (((1, 0), (0, 1, 5)), (1, 1))),
    (unique_monomial_family, (W6, (-2, 0, 0, 2, 7), (0, 1, 1, 0, 0))),
    # six monomials have degree (0, 0, 0, 2); a cut psi would miss them
    (certify_no_solutions, (W6, (0, 0, 0, 2, -1), (0,) * 5)),
    (positive_functional, (((1, 0), (0, 1, 5)),)),
])
def test_mis_shaped_inputs_are_rejected(call, args):
    with pytest.raises(ValueError) as info:
        call(*args)
    assert not isinstance(info.value, CertificationError)


def test_positive_functional_exists():
    c = positive_functional(W6)
    assert all(sum(ci * wi for ci, wi in zip(c, w)) >= 1 for w in W6)


def test_enumeration_matches_brute_force():
    # c weighs every variable 1, so a monomial of degree `target` has total
    # degree c . target, which bounds each of its exponents
    c = (1, 1, 1, 2)
    assert all(sum(ci * wi for ci, wi in zip(c, w)) == 1 for w in W6)
    for target in [(0, 0, 0, 2), (-2, 1, 1, 2), (1, 1, 0, 1), (0, 0, 0, 0),
                   (-1, 0, 0, 0), (3, -1, 0, 2)]:
        got = monomials_of_degree(W6, target)
        cap = sum(ci * ti for ci, ti in zip(c, target))
        assert got == brute_monomials(W6, target, max(cap, 0)), target


def test_unique_family_for_the_cofactor_targets():
    for p in (2, 3, 5, 7, 11, 13):
        fam = unique_monomial_family(W6, (-p, 0, 0, p), (0, 1, 1, 0))
        assert fam == MonomialFamily((p, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1))
        fam2 = unique_monomial_family(W6, (0, -p, 0, p), (1, 0, 1, 0))
        assert fam2.const == (0, p, 0, 0, 0, 0)


def test_unique_family_rejects_ambiguous_targets():
    # degree (0,0,0,2) is hit by six monomials
    assert len(monomials_of_degree(W6, (0, 0, 0, 2))) == 6
    with pytest.raises(CertificationError):
        unique_monomial_family(W6, (0, 0, 0, 2), (0, 0, 0, 0))


def test_unique_family_rejects_wrong_expectation():
    with pytest.raises(CertificationError):
        unique_monomial_family(
            W6, (-2, 0, 0, 2), (0, 1, 1, 0),
            expected=MonomialFamily((0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0)),
        )


def test_farkas_emptiness_certificate():
    # the relation-shifted target (-p, k, k, p-1) has no monomials for any k
    for p in (2, 3, 5):
        psi = certify_no_solutions(W6, (-p, 0, 0, p - 1), (0, 1, 1, 0))
        assert all(sum(ci * wi for ci, wi in zip(psi, w)) >= 0 for w in W6)
        assert sum(ci * si for ci, si in zip(psi, (0, 1, 1, 0))) <= 0
        assert sum(ci * bi for ci, bi in zip(psi, (-p, 0, 0, p - 1))) < 0


def test_farkas_refuses_when_solutions_exist():
    with pytest.raises(CertificationError):
        certify_no_solutions(W6, (0, 0, 0, 2), (0, 0, 0, 0))


def test_standard_grading_unique_family():
    # single variable of weight (1,): target k has the unique solution x^k
    fam = unique_monomial_family(((1,),), (0,), (1,))
    assert fam == MonomialFamily((0,), (1,))


def test_cone_check_catches_large_k_ambiguity():
    # weights (1,), (2,): degree k is hit once at k = 0, 1 but twice at
    # k = 2 (u^2 and v); sampling at small k would miss it, and since the
    # weights 1 and 2 are dependent no face functional exists
    assert len(monomials_of_degree(((1,), (2,)), (0,))) == 1
    assert len(monomials_of_degree(((1,), (2,)), (1,))) == 1
    assert len(monomials_of_degree(((1,), (2,)), (2,))) == 2
    with pytest.raises(CertificationError):
        unique_monomial_family(((1,), (2,)), (0,), (1,))

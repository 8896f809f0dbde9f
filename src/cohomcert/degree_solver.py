"""Monomials of a prescribed weighted multidegree, with a free parameter.

The nonvanishing pipeline needs two kinds of facts about a weight table:

* the set of monomials whose multidegree equals a target that depends
  affinely on a parameter k (target = base + k*slope) consists of exactly
  one k-parametric family, for every k >= 0; and
* for a shifted target there are no monomials at all, for every k >= 0.

Both are certified exactly.  Enumeration at fixed k walks the solution
lattice of the degree map, not the exponent box: the reduced row echelon
form of the weight matrix splits the variables into pivot and free
coordinates, only the free exponents are enumerated, and the pivot
exponents are solved for exactly in integer arithmetic.  It is complete
thanks to a positive functional (an integer covector making every
variable weight strictly positive), which caps every free exponent by the
remaining budget.  The functional and the echelon form are computed once
per weight table.  Uniqueness for all k is certified by a face
functional: an integer covector, nonnegative on every weight and zero on
the target, whose zero face carries linearly independent weights, so the
family found at k = 0, 1 is the only solution on it.  Emptiness for all k
is certified by a Farkas covector.

All linear algebra is in integers: the echelon form comes from
fraction-free elimination with primitive rows.  The three covector
searches (positive, face, Farkas) each ask for a covector nonnegative on
every weight, so each scans one cached list per weight table and box
radius -- the cone of such covectors, in lexicographic order -- and tests
only its own conditions.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import mul

from .polyring import Record


class CertificationError(ValueError):
    """The requested parametric fact could not be certified."""


def _dot(a, b):
    return sum(map(mul, a, b))


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _check_shapes(weights, *vectors):
    """Raise ValueError unless the weight rows share one length d and every
    degree vector has length d; the covector arithmetic would otherwise cut
    every vector to the shorter length."""
    if not weights:
        raise ValueError("empty weight table")
    d = len(weights[0])
    if any(len(w) != d for w in weights) or any(len(v) != d for v in vectors):
        raise ValueError(
            f"weight rows and degree vectors must all have length {d}"
        )


@lru_cache(maxsize=64)
def _cone_box(weights, radius) -> tuple[tuple[int, ...], ...]:
    """The integer covectors c with every |c_j| <= radius and c . w >= 0
    for every weight w, in lexicographic order.  Built one coordinate at a
    time: a prefix is dropped as soon as some c . w stays negative however
    the remaining coordinates are chosen."""
    d = len(weights[0])
    cols = tuple(zip(*weights))
    # reach[j][i]: the most that coordinates j+1, ..., d-1 can add to c . w_i
    reach = [[radius * sum(map(abs, w[j + 1:])) for w in weights] for j in range(d)]
    cone = []

    def extend(prefix, values):
        j = len(prefix)
        if j == d:
            cone.append(prefix)
            return
        for x in range(-radius, radius + 1):
            new = [v + x * a for v, a in zip(values, cols[j])]
            if all(v + r >= 0 for v, r in zip(new, reach[j])):
                extend(prefix + (x,), new)

    extend((), [0] * len(weights))
    return tuple(cone)


def _small_covector(weights, accept):
    """The first integer covector c with c . w >= 0 for every weight w and
    accept(c), searching the boxes of radius 1, 2 and 3 in turn, each in
    lexicographic order; None when there is none.  A larger box is listed
    only when the smaller ones hold no such covector."""
    weights = tuple(map(tuple, weights))
    for radius in range(1, 4):
        for cand in _cone_box(weights, radius):
            if accept(cand):
                return cand
    return None


def positive_functional(weights) -> tuple[int, ...]:
    """An integer covector c with c . w >= 1 for every variable weight w."""
    _check_shapes(weights)
    c = _small_covector(weights, lambda cand: all(_dot(cand, w) >= 1 for w in weights))
    if c is None:
        raise CertificationError("no small positive functional for this weight table")
    return c


class _DegreeMap(Record):
    """The degree map E -> sum_i E_i * w_i of one weight table, in integers.

    Row i < rank of the reduced echelon form of [A | I], with A the d x n
    weight matrix, scaled to integer entries reads
        scales[i] * E[pivots[i]] + sum_j free_coeffs[j][i] * E[free[j]]
            = transform[i] . target;
    the rows past the rank have no variable and say that a target off the
    rational span of the weights has transform[i] . target != 0.
    settled[j][i] says no free coordinate from free[j] on has a negative
    coefficient in row i, so raising those exponents can only lower row
    i's value.
    """

    functional: tuple[int, ...]
    phi: tuple[int, ...]
    pivots: tuple[int, ...]
    free: tuple[int, ...]
    scales: tuple[int, ...]
    free_coeffs: tuple[tuple[int, ...], ...]
    settled: tuple[tuple[bool, ...], ...]
    transform: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=16)
def _degree_map(weights) -> _DegreeMap:
    n, d = len(weights), len(weights[0])
    c = positive_functional(weights)
    aug = [[w[j] for w in weights] + [int(i == j) for i in range(d)]
           for j in range(d)]
    rows, cols = _rref(aug)
    pivots = tuple(col for col in cols if col < n)
    rank = len(pivots)
    free = tuple(j for j in range(n) if j not in pivots)
    free_coeffs = tuple(tuple(row[j] for row in rows[:rank]) for j in free)
    return _DegreeMap(
        functional=c,
        phi=tuple(_dot(c, w) for w in weights),
        pivots=pivots,
        free=free,
        scales=tuple(rows[i][col] for i, col in enumerate(pivots)),
        free_coeffs=free_coeffs,
        settled=tuple(
            tuple(all(fc[i] >= 0 for fc in free_coeffs[j:]) for i in range(rank))
            for j in range(len(free))
        ),
        transform=tuple(tuple(row[n:]) for row in rows),
    )


def monomials_of_degree(weights, target) -> list[tuple[int, ...]]:
    """All exponent vectors E >= 0 with sum_i E_i * w_i = target, sorted.

    Only the free coordinates of the degree map are enumerated; the pivot
    coordinates are solved for exactly.  Complete by the positive-functional
    bound: phi(E) = phi(target) with every phi(w_i) >= 1 caps each free
    exponent by the remaining budget.  A branch ends as soon as a pivot
    row whose value the remaining free exponents can only lower is
    negative (scales are positive, so that pivot exponent would be too).
    """
    _check_shapes(weights, target)
    dm = _degree_map(tuple(map(tuple, weights)))
    budget = _dot(dm.functional, target)
    if budget < 0:
        return []
    rank = len(dm.pivots)
    rhs = [_dot(row, target) for row in dm.transform]
    if any(rhs[rank:]):
        return []  # off the rational span of the weights
    out: list[tuple[int, ...]] = []
    exps = [0] * len(weights)

    def rec(j, remaining, nums):
        if j == len(dm.free):
            for col, num, scale in zip(dm.pivots, nums, dm.scales):
                e, r = divmod(num, scale)
                if r or e < 0:
                    return
                exps[col] = e
            out.append(tuple(exps))
            return
        col, coeffs, settled = dm.free[j], dm.free_coeffs[j], dm.settled[j]
        step = dm.phi[col]
        for e in range(remaining // step + 1):
            if any(x < 0 and s for x, s in zip(nums, settled)):
                return
            exps[col] = e
            rec(j + 1, remaining - e * step, nums)
            nums = [x - c for x, c in zip(nums, coeffs)]

    rec(0, budget, rhs[:rank])
    out.sort()
    return out


class MonomialFamily(Record):
    """Exponent vectors const + k*slope, one monomial per parameter value."""

    const: tuple[int, ...]
    slope: tuple[int, ...]


# -- exact linear algebra helpers ------------------------------------------


def _primitive(row):
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _rref(rows):
    """The reduced row echelon form of an integer matrix and its pivot
    columns, by fraction-free Gauss-Jordan elimination.  Each row is the
    rational reduced row scaled to the primitive integer vector with a
    positive pivot: its entries have gcd 1, and it is zero in every other
    pivot column."""
    rows = [list(row) for row in rows]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = _primitive(rows[r])
        if top[col] < 0:
            top = [-x for x in top]
        rows[r] = top
        pv = top[col]
        for i in range(nrows):
            f = rows[i][col]
            if i != r and f:
                rows[i] = _primitive([pv * x - f * y for x, y in zip(rows[i], top)])
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def unique_monomial_family(weights, base, slope,
                           expected: MonomialFamily | None = None) -> MonomialFamily:
    """Certify that degree base + k*slope is hit by exactly one monomial
    family for every k >= 0, and return it.

    The family const + k*diff is read off the solutions at k = 0 and 1 and
    checked against the degree equation, so it solves it at every k.  It is
    the only solution by a face functional psi: psi . w_i >= 0 for every
    variable and psi . base = psi . slope = 0 put every solution on the
    face {i : psi . w_i = 0}, and the weights there are linearly
    independent, so the degree map is injective on it.

    Raises CertificationError when existence, linearity, nonnegativity, or
    all-k uniqueness cannot be established.
    """
    _check_shapes(weights, base, slope)
    n = len(weights)
    sols0 = monomials_of_degree(weights, base)
    sols1 = monomials_of_degree(weights, _vadd(base, slope))
    if len(sols0) != 1 or len(sols1) != 1:
        raise CertificationError(
            f"solution counts at k=0,1 are {len(sols0)},{len(sols1)}, not 1,1"
        )
    const = sols0[0]
    diff = tuple(b - a for a, b in zip(const, sols1[0]))
    if any(x < 0 for x in diff):
        raise CertificationError("family slope has a negative exponent")
    family = MonomialFamily(const, diff)
    d = len(base)
    for j in range(d):
        if sum(const[i] * weights[i][j] for i in range(n)) != base[j]:
            raise CertificationError("constant part fails the degree equation")
        if sum(diff[i] * weights[i][j] for i in range(n)) != slope[j]:
            raise CertificationError("slope part fails the degree equation")

    def face_functional(c):
        if _dot(c, base) or _dot(c, slope):
            return False
        face = [w for w in weights if not _dot(c, w)]
        return len(_rref(face)[1]) == len(face)

    if _small_covector(weights, face_functional) is None:
        raise CertificationError(
            "no small face functional; uniqueness for all k not certified"
        )
    if expected is not None and family != expected:
        raise CertificationError(f"family {family} differs from expected {expected}")
    return family


def certify_no_solutions(weights, base, slope) -> tuple[int, ...]:
    """A Farkas covector psi proving no monomial has degree base + k*slope
    for any k >= 0: psi . w_i >= 0 for all i, psi . slope <= 0, and
    psi . base < 0, so psi is nonnegative on every monomial degree and
    negative on every target."""
    _check_shapes(weights, base, slope)
    psi = _small_covector(weights, lambda c: (
        _dot(c, base) < 0 and _dot(c, slope) <= 0
    ))
    if psi is None:
        raise CertificationError("no small Farkas certificate found")
    return psi

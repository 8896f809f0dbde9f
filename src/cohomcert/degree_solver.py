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
per weight table.  Uniqueness for all k reduces to the absence of nonzero
integer points in a polyhedron inside the kernel of the degree map,
decided by exact rational linear algebra: trivial lineality, no extreme
ray in the recession cone, then integer enumeration of the boxed
polytope.  Emptiness for all k is certified by a Farkas functional.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import lcm

from .polyring import Record


class CertificationError(ValueError):
    """The requested parametric fact could not be certified."""


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _vscale(a, c):
    return tuple(c * x for x in a)


def _small_covector(d, accept):
    """The first integer covector of length d with accept(c), searching the
    boxes of radius 1, 2 and 3 in turn, each in lexicographic order; None
    when there is none."""
    for radius in range(1, 4):
        for cand in product(range(-radius, radius + 1), repeat=d):
            if accept(cand):
                return cand
    return None


def positive_functional(weights) -> tuple[int, ...]:
    """An integer covector c with c . w >= 1 for every variable weight w."""
    c = _small_covector(len(weights[0]),
                        lambda cand: all(_dot(cand, w) >= 1 for w in weights))
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
    """

    functional: tuple[int, ...]
    phi: tuple[int, ...]
    pivots: tuple[int, ...]
    free: tuple[int, ...]
    scales: tuple[int, ...]
    free_coeffs: tuple[tuple[int, ...], ...]
    transform: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=16)
def _degree_map(weights) -> _DegreeMap:
    n, d = len(weights), len(weights[0])
    c = positive_functional(weights)
    aug = [[w[j] for w in weights] + [int(i == j) for i in range(d)]
           for j in range(d)]
    red, cols = _rref(aug)
    rows = []
    for row in red:
        scale = lcm(*(x.denominator for x in row))
        rows.append([int(x * scale) for x in row])
    pivots = tuple(col for col in cols if col < n)
    rank = len(pivots)
    free = tuple(j for j in range(n) if j not in pivots)
    return _DegreeMap(
        functional=c,
        phi=tuple(_dot(c, w) for w in weights),
        pivots=pivots,
        free=free,
        scales=tuple(rows[i][col] for i, col in enumerate(pivots)),
        free_coeffs=tuple(tuple(row[j] for row in rows[:rank]) for j in free),
        transform=tuple(tuple(row[n:]) for row in rows),
    )


def monomials_of_degree(weights, target) -> list[tuple[int, ...]]:
    """All exponent vectors E >= 0 with sum_i E_i * w_i = target, sorted.

    Only the free coordinates of the degree map are enumerated; the pivot
    coordinates are solved for exactly.  Complete by the positive-functional
    bound: phi(E) = phi(target) with every phi(w_i) >= 1 caps each free
    exponent by the remaining budget.
    """
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
        col, coeffs = dm.free[j], dm.free_coeffs[j]
        step = dm.phi[col]
        for e in range(remaining // step + 1):
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

    def at(self, k: int) -> tuple[int, ...]:
        return tuple(c + k * s for c, s in zip(self.const, self.slope))


# -- exact linear algebra helpers ------------------------------------------


def _rref(rows):
    rows = [[Fraction(x) for x in row] for row in rows]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][col]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def _nullspace_int(rows, ncols):
    """Integer basis of the rational nullspace of the given matrix."""
    if not rows:
        return [tuple(1 if j == i else 0 for j in range(ncols)) for i in range(ncols)]
    red, pivots = _rref(rows)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for j in free:
        v = [Fraction(0)] * ncols
        v[j] = Fraction(1)
        for i, col in enumerate(pivots):
            v[col] = -red[i][j]
        denom = lcm(*(x.denominator for x in v))
        basis.append(tuple(int(x * denom) for x in v))
    return basis


def _cone_is_trivial(rows, D) -> bool:
    """Is {x in Q^D : r . x >= 0 for all rows r} just the origin?

    Checks that the lineality space vanishes and that no candidate extreme
    ray (null direction of D-1 independent active constraints) satisfies
    every inequality.
    """
    if D == 0:
        return True
    if len(_rref(rows)[1]) < D:
        return False  # a full line satisfies every constraint
    if D == 1:
        for cand in ((1,), (-1,)):
            if all(_dot(r, cand) >= 0 for r in rows):
                return False
        return True
    for subset in combinations(range(len(rows)), D - 1):
        sub = [rows[i] for i in subset]
        if len(_rref(sub)[1]) != D - 1:
            continue
        for ray in _nullspace_int(sub, D):
            for cand in (ray, tuple(-x for x in ray)):
                if any(cand) and all(_dot(r, cand) >= 0 for r in rows):
                    return False
    return True


_BOX_CAP = 200_000


def _polyhedron_nonzero_points(constraints, basis, weights, nvars):
    """Nonzero integer kernel vectors satisfying r . lam >= b constraints.

    The polyhedron is pointed and bounded by the time this runs (cone check
    done by the caller), so its vertices come from D-subsets of active
    constraints, and integer points are enumerated inside the vertex box
    mapped to exponent space.
    """
    D = len(basis)
    rows = [c[0] for c in constraints]
    rhs = [c[1] for c in constraints]
    vertices = []
    for subset in combinations(range(len(rows)), D):
        # the square system is nonsingular iff the pivots are 0..D-1
        red, pivots = _rref([list(rows[i]) + [rhs[i]] for i in subset])
        if pivots != list(range(D)):
            continue
        sol = [row[D] for row in red]
        if all(_dot(r, sol) >= b for r, b in zip(rows, rhs)):
            vertices.append(sol)
    if not vertices:
        vertices = [[Fraction(0)] * D]
    lo, hi = [], []
    for i in range(nvars):
        vals = [sum(Fraction(bvec[i]) * lam for bvec, lam in zip(basis, v))
                for v in vertices]
        lo.append(int(min(vals).__floor__()))
        hi.append(int(max(vals).__ceil__()))
    volume = 1
    for a, b in zip(lo, hi):
        volume *= b - a + 1
        if volume > _BOX_CAP:
            raise CertificationError("polytope box too large to enumerate")
    found = []
    d = len(weights[0])
    for point in product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        if not any(point):
            continue
        if any(sum(point[i] * weights[i][j] for i in range(nvars)) != 0
               for j in range(d)):
            continue
        # constraints are indexed by exponent coordinates with zero slope
        if all(point[c[2]] >= c[1] for c in constraints):
            found.append(point)
    return found


# parameter values past k = 0, 1 at which the family is checked against a
# fresh enumeration
_PROBES = (2, 3)


def unique_monomial_family(weights, base, slope,
                           expected: MonomialFamily | None = None) -> MonomialFamily:
    """Certify that degree base + k*slope is hit by exactly one monomial
    family for every k >= 0, and return it.

    Raises CertificationError when existence, linearity, nonnegativity, or
    all-k uniqueness cannot be established.
    """
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
    amat = [[weights[i][j] for i in range(n)] for j in range(d)]
    basis = _nullspace_int(amat, n)
    if basis:
        D = len(basis)
        constraints = []
        for i in range(n):
            if diff[i] == 0:
                row = tuple(bvec[i] for bvec in basis)
                constraints.append((row, -const[i], i))
        if not _cone_is_trivial([c[0] for c in constraints], D):
            raise CertificationError(
                "kernel recession cone is nontrivial; uniqueness not certified"
            )
        extra = _polyhedron_nonzero_points(constraints, basis, weights, n)
        if extra:
            raise CertificationError(f"second solution family exists: {extra[0]}")
    for k in _PROBES:
        target = _vadd(base, _vscale(slope, k))
        if monomials_of_degree(weights, target) != [family.at(k)]:
            raise CertificationError(f"probe at k={k} does not match the family")
    if expected is not None and family != expected:
        raise CertificationError(f"family {family} differs from expected {expected}")
    return family


def certify_no_solutions(weights, base, slope) -> tuple[int, ...]:
    """A Farkas covector psi proving no monomial has degree base + k*slope
    for any k >= 0: psi . w_i >= 0 for all i, psi . slope <= 0, and
    psi . base < 0."""
    for k in (0, 1):
        if monomials_of_degree(weights, _vadd(base, _vscale(slope, k))):
            raise CertificationError("solutions exist; emptiness is false")
    psi = _small_covector(len(base), lambda c: (
        all(_dot(c, w) >= 0 for w in weights)
        and _dot(c, slope) <= 0
        and _dot(c, base) < 0
    ))
    if psi is None:
        raise CertificationError("no small Farkas certificate found")
    return psi

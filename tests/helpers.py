"""Independent oracles and generators used to cross-check the engines.

Nothing here goes through the Groebner machinery: membership is decided by
exact linear algebra over bounded-degree monomials, and the random inputs
are produced from seeded generators so every run is reproducible.
"""

from itertools import combinations_with_replacement

from cohomcert import Polynomial


def monomials_up_to_degree(nvars, max_deg):
    for d in range(max_deg + 1):
        yield from monomials_of_degree(nvars, d)


def monomials_of_degree(nvars, d):
    for combo in combinations_with_replacement(range(nvars), d):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        yield tuple(e)


class LinearSpan:
    """Incremental row space over a coefficient field, pivoted on monomials."""

    def __init__(self, domain):
        self.domain = domain
        self.rows = {}  # pivot exponent -> normalized vector dict

    @staticmethod
    def _pivot_key(e):
        return (sum(e),) + tuple(-x for x in reversed(e))

    def _reduce(self, vec):
        norm = self.domain.norm
        vec = dict(vec)
        while vec:
            pivot = max(vec, key=self._pivot_key)
            row = self.rows.get(pivot)
            if row is None:
                return vec
            c = vec[pivot]
            for e, rc in row.items():
                nv = norm(vec.get(e, 0) - c * rc)
                if nv == 0:
                    vec.pop(e, None)
                else:
                    vec[e] = nv
        return vec

    def add(self, vec) -> bool:
        vec = self._reduce(vec)
        if not vec:
            return False
        dom = self.domain
        pivot = max(vec, key=self._pivot_key)
        inv = dom.inv(vec[pivot])
        self.rows[pivot] = {e: dom.norm(c * inv) for e, c in vec.items()}
        return True

    def contains(self, vec) -> bool:
        return not self._reduce(vec)


def brute_force_membership(f, generators, degree_bound) -> bool:
    """Is f a combination sum m_i g_i with every deg(m_i g_i) <= bound?

    Complete for homogeneous inputs with bound >= deg f; in general a
    sound one-sided check (True always implies membership).
    """
    ring = f.ring
    span = LinearSpan(ring.domain)
    for g in generators:
        if g.is_zero:
            continue
        room = degree_bound - g.total_degree()
        for m in monomials_up_to_degree(ring.nvars, max(room, -1)):
            product = g * Polynomial(ring, {m: 1})
            span.add(product.terms)
    return span.contains(f.terms)


def random_polynomial(rng, ring, max_terms=4, max_deg=3, coeff_bound=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(ring.nvars))
        if sum(e) > max_deg:
            continue
        c = rng.randint(-coeff_bound, coeff_bound)
        terms[e] = terms.get(e, 0) + c
    return Polynomial(ring, terms)


def random_homogeneous(rng, ring, degree, max_terms=4, coeff_bound=5):
    mons = list(monomials_of_degree(ring.nvars, degree))
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = rng.choice(mons)
        terms[e] = terms.get(e, 0) + rng.randint(-coeff_bound, coeff_bound)
    return Polynomial(ring, terms)


def naive_mul(f, g):
    """Term-by-term product that normalizes the running sum after every
    pair of terms; the reference for Polynomial.__mul__."""
    norm = f.ring.domain.norm
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = norm(out.get(e, 0) + c1 * c2)
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
    return Polynomial(f.ring, out)


def naive_substitute(f, assignment):
    """Simultaneous substitution term by term: each image is raised to its
    exponent by repeated naive_mul, and the pieces are added one at a time;
    the reference for Polynomial.substitute."""
    ring = f.ring
    images = {ring.var_index(name): val if isinstance(val, Polynomial)
              else ring.const(val) for name, val in assignment.items()}
    out = ring.zero()
    for e, c in f.terms.items():
        rest = tuple(0 if i in images else x for i, x in enumerate(e))
        piece = Polynomial(ring, {rest: c})
        for i, val in images.items():
            for _ in range(e[i]):
                piece = naive_mul(piece, val)
        out = out + piece
    return out

"""Buchberger engine over field coefficients and the ideal calculus on top.

Everything the verification layer asks — membership, colon ideals,
elimination, intersections, bracket powers, quotient-ring normal forms —
reduces to reduced Groebner bases computed here.  The engine works over Q
and F_p only; the single integer-coefficient membership question the
constructions need (ideals of the shape (p, monomials)) is decided exactly
by membership_monomial_plus_p via reduction mod p.

The pair queue uses the normal selection strategy (lowest lcm degree
first) and the Gebauer-Moeller criteria; bases are monic and fully
auto-reduced, so output is deterministic for a fixed input and order.

Bookkeeping: pairs wait in a heap keyed (deg lcm, order key of lcm, i, j),
each key computed once when the pair is kept; (i, j) is unique, so the
selection order is exactly "smallest key first".  Every basis element is a
reducer (lm, terms, support mask of lm, deg lm), so reduction, the
coprime test, the criteria and minimalization reject most non-divisors by
a mask and a degree comparison before the exponent scan.  In the
M-criterion a later candidate lcm has no smaller degree and so divides an
earlier one only when they are equal: that half of the test is one
comparison with the next candidate.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from operator import neg

from .polyring import (
    GrevLex,
    BlockElimination,
    MonomialOrder,
    Polynomial,
    PolyRing,
    RingMismatchError,
    NonDivisibleError,
    ZZ,
    is_prime,
    monomial_degree,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    reduce_mod_p,
)


class DomainNotSupportedError(TypeError):
    """Operation requires a field coefficient domain."""


class GuardExceededError(RuntimeError):
    """A Groebner run blew through the configured degree/size guard."""

    def __init__(self, message, diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class DegreeGuard:
    """Hard caps that abort runaway basis computations with a diagnostic."""

    max_basis: int = 5000
    max_degree: int = 120


DEFAULT_GUARD = DegreeGuard()
DEFAULT_ORDER = GrevLex()


@dataclass(frozen=True)
class Diagnostics:
    s_pairs: int
    basis_size: int
    max_degree: int

    def as_dict(self) -> dict:
        return {
            "s_pairs": self.s_pairs,
            "basis_size": self.basis_size,
            "max_degree": self.max_degree,
        }


# --------------------------------------------------------------------------
# ideals and quotient rings


@dataclass(frozen=True)
class Ideal:
    """Generator list in a fixed ambient ring; zero generators are dropped."""

    ring: PolyRing
    generators: tuple[Polynomial, ...]

    def __post_init__(self):
        gens = []
        for g in self.generators:
            if g.ring != self.ring:
                raise RingMismatchError(f"generator {g} not in {self.ring}")
            if not g.is_zero:
                gens.append(g)
        object.__setattr__(self, "generators", tuple(gens))

    @classmethod
    def of(cls, *gens: Polynomial) -> "Ideal":
        if not gens:
            raise ValueError("need at least one generator to infer the ring")
        return cls(gens[0].ring, tuple(gens))

    @property
    def is_zero(self) -> bool:
        return not self.generators

    def groebner(self, order: MonomialOrder = DEFAULT_ORDER,
                 guard: DegreeGuard = DEFAULT_GUARD) -> "GroebnerBasis":
        return buchberger(self, order, guard)

    def __str__(self):
        return "(" + ", ".join(str(g) for g in self.generators) + ")"


@dataclass(frozen=True)
class QuotientRing:
    """Ambient ring modulo a tuple of relations (usually one hypersurface).

    normal_form gives a canonical representative, so classes compare by
    representative equality.
    """

    ring: PolyRing
    relations: tuple[Polynomial, ...]

    def __post_init__(self):
        rels = tuple(r for r in self.relations if not r.is_zero)
        for r in rels:
            if r.ring != self.ring:
                raise RingMismatchError(f"relation {r} not in {self.ring}")
        object.__setattr__(self, "relations", rels)

    def relation_ideal(self) -> Ideal:
        return Ideal(self.ring, self.relations)

    def normal_form(self, f: Polynomial) -> Polynomial:
        if not self.relations:
            return f
        return normal_form(f, self.relation_ideal().groebner())

    def __str__(self):
        rels = ", ".join(str(r) for r in self.relations)
        return f"{self.ring}/({rels})"


# --------------------------------------------------------------------------
# engine internals: terms are dicts {exponent tuple: coefficient}


def _field_ops(domain):
    if domain.kind == "prime_field":
        p = domain.p

        def add(a, b):
            return (a + b) % p

        def sub(a, b):
            return (a - b) % p

        def mul(a, b):
            return (a * b) % p

        def inv(a):
            return pow(a, p - 2, p)

        return add, sub, mul, inv
    if domain.kind == "rational":

        def add(a, b):
            return a + b

        def sub(a, b):
            return a - b

        def mul(a, b):
            return a * b

        def inv(a):
            return Fraction(1) / a

        return add, sub, mul, inv
    raise DomainNotSupportedError(
        f"Groebner computations need field coefficients, not {domain}"
    )


def _monicize(terms, key, ops):
    _, _, mul, inv = ops
    lm = max(terms, key=key)
    lc = terms[lm]
    if lc != 1:
        ic = inv(lc)
        terms = {e: mul(c, ic) for e, c in terms.items()}
    return lm, terms


def _support_mask(e) -> int:
    """Bit i is set iff variable i occurs in the monomial e."""
    mask = 0
    for i, x in enumerate(e):
        if x:
            mask |= 1 << i
    return mask


def _reducer(lm, terms):
    """A monic basis element as (lm, terms, support mask of lm, deg lm)."""
    return lm, terms, _support_mask(lm), sum(lm)


def _normal_form_terms(fterms, basis, key, ops):
    """Full normal form of a term dict against reducers (lm, terms, mask,
    deg); the first reducer in list order whose lm divides a term is used."""
    _, sub, mul, _ = ops
    if not fterms:
        return {}
    work = dict(fterms)
    heap = [(tuple(map(neg, key(e))), e) for e in work]
    heapq.heapify(heap)
    out = {}
    while heap:
        _, m = heapq.heappop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        mmask = _support_mask(m)
        dm = sum(m)
        for lm, terms, lmask, ld in basis:
            # the mask and degree reject most non-divisors before the scan
            if lmask & ~mmask or ld > dm or not monomial_divides(lm, m):
                continue
            shift = monomial_div(m, lm)
            for e2, c2 in terms.items():
                if e2 == lm:
                    continue
                e = monomial_mul(shift, e2)
                prev = work.get(e)
                if prev is None:
                    nc = sub(0, mul(c, c2))
                    if nc != 0:
                        work[e] = nc
                        heapq.heappush(heap, (tuple(map(neg, key(e))), e))
                else:
                    nc = sub(prev, mul(c, c2))
                    if nc == 0:
                        del work[e]
                    else:
                        work[e] = nc
            break
        else:
            out[m] = c
    return out


def _spoly(a, b, ops):
    """S-polynomial of two monic elements given as reducers."""
    _, sub, _, _ = ops
    l = monomial_lcm(a[0], b[0])
    sa = monomial_div(l, a[0])
    sb = monomial_div(l, b[0])
    out = {monomial_mul(sa, e): c for e, c in a[1].items()}
    for e, c in b[1].items():
        e2 = monomial_mul(sb, e)
        nc = sub(out.get(e2, 0), c)
        if nc == 0:
            out.pop(e2, None)
        else:
            out[e2] = nc
    return out


def _buchberger_core(inputs, key, ops, guard):
    """Returns (reduced monic basis as term dicts sorted by leading
    monomial, Diagnostics)."""
    store: list = []  # every element ever added, as a reducer
    active: list[int] = []  # indices into store of the current basis
    reducers: list = []  # store[g] for g in active, in that order
    # pairs as (deg lcm, key(lcm), i, j, lcm, support mask of lcm); (i, j)
    # is unique, so heap order is the normal strategy's order with ties
    # broken by (i, j), and the comparison never reaches the lcm
    pairs: list = []
    stats = {"s_pairs": 0, "max_degree": 0}

    def update(h):
        # Gebauer-Moeller pair update on arrival of a new basis element.
        nonlocal pairs, active, reducers
        hlm, _, hmask, hdeg = store[h]
        cand = []
        for g in active:
            gmask = store[g][2]
            l = monomial_lcm(hlm, store[g][0])
            cand.append((sum(l), l, g, hmask | gmask, not hmask & gmask))
        # Sorted by degree, then lcm, equal lcms sit next to each other in g
        # order.  A later lcm, of no smaller degree, divides l only if it
        # equals l, and so does an earlier one of the same degree.  Which
        # candidates survive therefore does not depend on how the lcms of
        # one degree are ordered, and the order key is computed only for
        # the pairs that are kept.
        cand.sort()
        kept: list = []  # (lcm, mask) of every candidate kept so far
        new_pairs = []
        for pos, (d, l, g, lmask, cp) in enumerate(cand):
            if not cp and (
                pos + 1 < len(cand) and cand[pos + 1][1] == l
                or any(not m2 & ~lmask and monomial_divides(l2, l)
                       for l2, m2 in kept)
            ):
                continue
            kept.append((l, lmask))
            if not cp:
                new_pairs.append((d, key(l), g, h, l, lmask))
        # B-criterion: drop an old pair (i, j) when h's lm divides its lcm
        # and that lcm differs from both lcm(i, h) and lcm(h, j)
        pairs = [
            t for t in pairs
            if hmask & ~t[5] or hdeg > t[0] or not monomial_divides(hlm, t[4])
            or monomial_lcm(store[t[2]][0], hlm) == t[4]
            or monomial_lcm(hlm, store[t[3]][0]) == t[4]
        ] + new_pairs
        heapq.heapify(pairs)
        active = [
            g for g in active
            if hmask & ~store[g][2] or not monomial_divides(hlm, store[g][0])
        ]
        active.append(h)
        reducers = [store[g] for g in active]

    def add(h):
        lm, terms = _monicize(h, key, ops)
        store.append(_reducer(lm, terms))
        update(len(store) - 1)
        if len(active) > guard.max_basis:
            raise GuardExceededError(
                f"basis size {len(active)} exceeds the guard ({guard.max_basis})",
                Diagnostics(stats["s_pairs"], len(active), stats["max_degree"]),
            )

    seeds = sorted(
        (t for t in inputs if t),
        key=lambda t: (monomial_degree(max(t, key=key)), key(max(t, key=key))),
    )
    for terms in seeds:
        h = _normal_form_terms(terms, reducers, key, ops)
        if h:
            add(h)

    while pairs:
        deg, _, i, j, _, _ = heapq.heappop(pairs)
        stats["s_pairs"] += 1
        stats["max_degree"] = max(stats["max_degree"], deg)
        if deg > guard.max_degree:
            raise GuardExceededError(
                f"S-pair lcm degree {deg} exceeds the guard ({guard.max_degree})",
                Diagnostics(stats["s_pairs"], len(active), stats["max_degree"]),
            )
        h = _normal_form_terms(_spoly(store[i], store[j], ops), reducers, key, ops)
        if h:
            add(h)

    # minimalize, then tail-reduce against the final leading terms; a
    # minimal element's monic leading term is divisible by no other, so it
    # survives the reduction unchanged
    order_sorted = sorted(active, key=lambda i: key(store[i][0]))
    minimal: list = []
    for i in order_sorted:
        lm, _, mask, _ = store[i]
        if not any(not m2 & ~mask and monomial_divides(lm2, lm)
                   for lm2, _, m2, _ in minimal):
            minimal.append(store[i])
    reduced = []  # ascending by leading monomial, like minimal
    for r in minimal:
        others = [o for o in minimal if o is not r]
        reduced.append(_normal_form_terms(r[1], others, key, ops))
    diag = Diagnostics(stats["s_pairs"], len(reduced), stats["max_degree"])
    return reduced, diag


# --------------------------------------------------------------------------
# public surface


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced, monic, auto-reduced basis under a fixed monomial order."""

    ring: PolyRing
    order: MonomialOrder
    basis: tuple[Polynomial, ...]
    diagnostics: Diagnostics
    # basis as reducers, derived once so normal_form need not redo it
    _reducers: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        key = self.order.key(self.ring)
        object.__setattr__(self, "_reducers", tuple(
            _reducer(max(g.terms, key=key), g.terms) for g in self.basis
        ))

    def normal_form(self, f: Polynomial) -> Polynomial:
        return normal_form(f, self)

    def contains(self, f: Polynomial) -> bool:
        return normal_form(f, self).is_zero


_GB_CACHE: dict = {}


def _canonical_gens(gens) -> tuple:
    return tuple(sorted(tuple(sorted(g.terms.items())) for g in gens))


def buchberger(ideal: Ideal, order: MonomialOrder = DEFAULT_ORDER,
               guard: DegreeGuard = DEFAULT_GUARD) -> GroebnerBasis:
    """Reduced Groebner basis of an ideal over a field."""
    ring = ideal.ring
    cache_key = (ring, order, _canonical_gens(ideal.generators))
    hit = _GB_CACHE.get(cache_key)
    if hit is not None:
        return hit
    ops = _field_ops(ring.domain)
    key = order.key(ring)
    raw, diag = _buchberger_core(
        [g.terms for g in ideal.generators], key, ops, guard
    )
    basis = tuple(Polynomial(ring, terms, _normalized=True) for terms in raw)
    gb = GroebnerBasis(ring, order, basis, diag)
    _GB_CACHE[cache_key] = gb
    return gb


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    if f.ring != gb.ring:
        raise RingMismatchError(f"{f.ring} != {gb.ring}")
    ops = _field_ops(gb.ring.domain)
    key = gb.order.key(gb.ring)
    out = _normal_form_terms(f.terms, gb._reducers, key, ops)
    return Polynomial(gb.ring, out, _normalized=True)


def _with_relations(ideal: Ideal, rel: QuotientRing | None) -> Ideal:
    if rel is None:
        return ideal
    if rel.ring != ideal.ring:
        raise RingMismatchError("quotient ring lives over a different ambient ring")
    return Ideal(ideal.ring, ideal.generators + rel.relations)


def membership(f: Polynomial, ideal: Ideal, rel: QuotientRing | None = None,
               guard: DegreeGuard = DEFAULT_GUARD) -> bool:
    """Decide f in I (mod relations when rel is given) via normal form."""
    full = _with_relations(ideal, rel)
    if full.is_zero:
        return f.is_zero
    return buchberger(full, guard=guard).contains(f)


def membership_monomial_plus_p(f: Polynomial, p: int, monomials) -> bool:
    """Decide f in (p, m_1, ..., m_r) inside Z[vars].

    Exact for this shape of ideal: reduce f mod p, then every surviving
    term must be divisible by some m_i.
    """
    if f.ring.domain != ZZ:
        raise DomainNotSupportedError("membership_monomial_plus_p works over Z")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    exps = []
    for m in monomials:
        if m.ring != f.ring:
            raise RingMismatchError(f"generator {m} not in {f.ring}")
        if len(m.terms) != 1:
            raise ValueError(f"generator {m} is not a monomial")
        ((e, c),) = m.terms.items()
        if c % p != 0:
            exps.append(e)
    fbar = reduce_mod_p(f, p)
    return all(
        any(monomial_divides(e, term) for e in exps) for term in fbar.terms
    )


def exact_divide(g: Polynomial, f: Polynomial) -> Polynomial:
    """Quotient g / f when f divides g exactly (field coefficients)."""
    if g.ring != f.ring:
        raise RingMismatchError(f"{g.ring} != {f.ring}")
    if f.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    ops = _field_ops(g.ring.domain)
    _, sub, mul, inv = ops
    key = DEFAULT_ORDER.key(g.ring)
    flm = max(f.terms, key=key)
    fic = inv(f.terms[flm])
    work = dict(g.terms)
    quot: dict = {}
    while work:
        m = max(work, key=key)
        if not monomial_divides(flm, m):
            raise NonDivisibleError(f"{f} does not divide {g}", monomial=m)
        shift = monomial_div(m, flm)
        qc = mul(work[m], fic)
        quot[shift] = qc
        for e2, c2 in f.terms.items():
            e = monomial_mul(shift, e2)
            nc = sub(work.get(e, 0), mul(qc, c2))
            if nc == 0:
                work.pop(e, None)
            else:
                work[e] = nc
    return Polynomial(g.ring, quot, _normalized=True)


def _fresh_variable(ring: PolyRing) -> str:
    name = "_t"
    k = 0
    while name in ring.variables:
        name = f"_t{k}"
        k += 1
    return name


def intersect(I: Ideal, J: Ideal, guard: DegreeGuard = DEFAULT_GUARD) -> Ideal:
    """I cap J via the one-auxiliary-variable elimination construction."""
    if I.ring != J.ring:
        raise RingMismatchError("intersection needs a common ambient ring")
    ring = I.ring
    tname = _fresh_variable(ring)
    aux = PolyRing((tname,) + ring.variables, ring.domain)

    def lift(p: Polynomial, tpow: int) -> Polynomial:
        return Polynomial(
            aux, {(tpow,) + e: c for e, c in p.terms.items()}, _normalized=True
        )

    gens = [lift(g, 1) for g in I.generators]
    gens += [lift(h, 0) - lift(h, 1) for h in J.generators]
    if not gens:
        return Ideal(ring, ())
    elim = eliminate(Ideal(aux, tuple(gens)), {tname}, guard=guard)
    # eliminate() returns the ideal in the remaining variables, which are
    # exactly the original ring's variables in declaration order
    return Ideal(ring, tuple(
        Polynomial(ring, g.terms, _normalized=True) for g in elim.generators
    ))


def eliminate(ideal: Ideal, drop, guard: DegreeGuard = DEFAULT_GUARD) -> Ideal:
    """Generators of I cap K[remaining variables].

    Uses a block elimination order with the dropped variables in front and
    keeps the basis elements free of them; by the elimination theorem these
    generate the contraction (and are a Groebner basis of it).
    """
    ring = ideal.ring
    drop = set(drop)
    unknown = drop - set(ring.variables)
    if unknown:
        raise KeyError(f"cannot eliminate unknown variables {sorted(unknown)}")
    if not drop:
        gb = buchberger(ideal, guard=guard)
        return Ideal(ring, gb.basis)
    if not (set(ring.variables) - drop):
        raise ValueError("cannot eliminate every variable")
    front = tuple(v for v in ring.variables if v in drop)
    order = BlockElimination(front=front)
    gb = buchberger(ideal, order, guard=guard)
    keep_idx = [i for i, v in enumerate(ring.variables) if v not in drop]
    drop_idx = [i for i, v in enumerate(ring.variables) if v in drop]
    sub = PolyRing(tuple(ring.variables[i] for i in keep_idx), ring.domain)
    out = []
    for g in gb.basis:
        if any(e[i] for e in g.terms for i in drop_idx):
            continue
        out.append(Polynomial(
            sub,
            {tuple(e[i] for i in keep_idx): c for e, c in g.terms.items()},
            _normalized=True,
        ))
    return Ideal(sub, tuple(out))


def colon(ideal: Ideal, f: Polynomial, rel: QuotientRing | None = None,
          guard: DegreeGuard = DEFAULT_GUARD) -> Ideal:
    """The colon ideal (I : f) = {g : g*f in I}, mod relations when given.

    Computed as (I cap (f)) / f.  Colon by zero is rejected outright; it
    almost always signals a scenario-definition bug.
    """
    if f.is_zero:
        raise ValueError("colon by the zero polynomial (by convention an error)")
    full = _with_relations(ideal, rel)
    if f.ring != full.ring:
        raise RingMismatchError(f"{f.ring} != {full.ring}")
    meet = intersect(full, Ideal(full.ring, (f,)), guard=guard)
    gens = tuple(exact_divide(g, f) for g in meet.generators)
    if not gens:
        gens = ()
    return Ideal(full.ring, gens)


def frobenius_power(ideal: Ideal, q: int) -> Ideal:
    """Bracket power I^[q]: generator-wise q-th powers.

    Over F_p, q must be a power of the characteristic; over other domains
    any positive q is accepted (plain bracket power of the given
    generators).
    """
    if not isinstance(q, int) or q < 1:
        raise ValueError(f"bracket power exponent must be a positive integer, got {q}")
    dom = ideal.ring.domain
    if dom.kind == "prime_field":
        r = q
        while r % dom.p == 0:
            r //= dom.p
        if r != 1:
            raise ValueError(f"{q} is not a power of the characteristic {dom.p}")
    return Ideal(ideal.ring, tuple(g ** q for g in ideal.generators))


def ideal_equal(I: Ideal, J: Ideal, rel: QuotientRing | None = None,
                guard: DegreeGuard = DEFAULT_GUARD) -> bool:
    """True iff the two ideals coincide (mod relations when given)."""
    if I.ring != J.ring:
        raise RingMismatchError("ideal comparison needs a common ambient ring")
    A = _with_relations(I, rel)
    B = _with_relations(J, rel)
    if A.is_zero or B.is_zero:
        return A.is_zero and B.is_zero
    ga = buchberger(A, guard=guard).basis
    gb = buchberger(B, guard=guard).basis
    return ga == gb

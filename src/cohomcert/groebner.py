"""Buchberger engine over field coefficients and the ideal calculus on top.

Membership, colon ideals, elimination, intersections, bracket powers and
quotient-ring normal forms over Q and F_p reduce to the reduced Groebner
bases computed here.  They are library API and the acceptance oracles,
but no scenario asks the engine anything: every basis-free membership
decision (monomial ideals, binomial moves, (p, monomials) in Z[vars])
lives in cohomology, and the colon scenarios add linear algebra in one
graded component.

The pair queue uses the normal selection strategy (lowest lcm degree
first) and the Gebauer-Moeller criteria; bases are monic and fully
auto-reduced, so output is deterministic for a fixed input and order.
buchberger and QuotientRing keep no state between calls, and a
GroebnerBasis is its four fields and nothing else.

Monomials: inside the engine every exponent vector is one Python int.
buchberger and normal_form hand their polynomials to _packed_run, which
packs them and runs the work; the caller unpacks the result.  The layout
is compiled once per (variables, order, width).  Each field has `bits`
value bits and a guard bit on top, and the fields run most significant
first in the order's own comparison sequence: grevlex [deg | e_n ... e_1],
lex [e_1 ... e_n | deg], and BlockElimination [deg front | front reversed
| inner layout of the rest], composing recursively.  The fields the order
compares descending are complemented by XOR with all-ones, so the order
key is the int P ^ X and the heaps hold -(P ^ X).  A product is a + b, a
quotient b - a, x^a divides x^b iff ((b | G) - a) & G == G for the guard
bits G, and the lcm selects each exponent field by the same subtraction
and then recomputes the degree fields by one multiplication per block.

Width: _packed_run starts the value bits with room for twice the largest
total degree of what it packs (for normal_form, f and the basis), and
never fewer than 8.  Every product (through the fieldwise maximum of a
reducer's tail) and the degree fields of every lcm kept are checked
against the guard bits; on overflow _packed_run restarts the work with
twice the width.  The engine is deterministic, so a restart changes
nothing but the time taken, and nothing wraps.  normal_form packs the
basis afresh on every call.

Bookkeeping: pairs wait in a heap keyed (deg lcm, order key of lcm, i, j),
each key computed once when the pair is kept; (i, j) is unique, so the
selection order is exactly "smallest key first".  The candidates of a
pair update are sorted by their packed lcm, which puts every proper
divisor first and equal lcms side by side: in the M-criterion a later
lcm divides an earlier one only when they are equal, and that half of
the test is one comparison with the next candidate.
"""

from __future__ import annotations

import heapq
from functools import lru_cache

from .polyring import (
    GrevLex,
    BlockElimination,
    Lex,
    MonomialOrder,
    Polynomial,
    PolyRing,
    Record,
    RingMismatchError,
    NonDivisibleError,
    convert,
    monomial_div,
    monomial_divides,
    monomial_mul,
)


class DomainNotSupportedError(TypeError):
    """Operation requires a field coefficient domain."""


class GuardExceededError(RuntimeError):
    """A Groebner run blew through the configured degree/size guard."""

    def __init__(self, message, diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


class DegreeGuard(Record):
    """Hard caps that abort runaway basis computations with a diagnostic."""

    max_basis: int = 5000
    max_degree: int = 120


DEFAULT_GUARD = DegreeGuard()
DEFAULT_ORDER = GrevLex()


class Diagnostics(Record):
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


class Ideal(Record):
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

    @property
    def is_zero(self) -> bool:
        return not self.generators

    def groebner(self, order: MonomialOrder = DEFAULT_ORDER) -> "GroebnerBasis":
        return buchberger(self, order)

    def __str__(self):
        return "(" + ", ".join(str(g) for g in self.generators) + ")"


class QuotientRing(Record):
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

    def normal_form(self, f: Polynomial) -> Polynomial:
        if not self.relations:
            return f
        return normal_form(f, buchberger(Ideal(self.ring, self.relations)))

    def __str__(self):
        rels = ", ".join(str(r) for r in self.relations)
        return f"{self.ring}/({rels})"


# --------------------------------------------------------------------------
# engine internals: terms are dicts {packed monomial: coefficient}


def _field(domain):
    """The domain itself, once it is known to be a field."""
    if not domain.is_field:
        raise DomainNotSupportedError(
            f"Groebner computations need field coefficients, not {domain}"
        )
    return domain


class _Overflow(Exception):
    """A packed field outgrew its width; _packed_run widens and restarts."""


def _fields(order, names, idx):
    """Fields of the packed layout of `order` on the variables `names` (at
    ring positions idx), most significant first, as (positions summed,
    complemented).  An exponent field sums one position."""
    if not idx:
        return []
    if isinstance(order, Lex):
        return [((i,), False) for i in idx] + [(tuple(idx), False)]
    if isinstance(order, GrevLex):
        return [(tuple(idx), False)] + [((i,), True) for i in reversed(idx)]
    if isinstance(order, BlockElimination):
        where = {v: k for k, v in enumerate(names)}
        fk = [where[v] for v in order.front]
        rk = [k for k in range(len(names)) if k not in set(fk)]
        front = [idx[k] for k in fk]
        out = [(tuple(front), False)] if front else []
        out += [((i,), True) for i in reversed(front)]
        return out + _fields(order.inner, tuple(names[k] for k in rk),
                             [idx[k] for k in rk])
    raise TypeError(f"no packed layout for the monomial order {order!r}")


class _Layout:
    """Exponent vectors packed into one int for one (variables, order,
    bits); see the module docstring.  `flip` is X, `guard` is G, `exps`
    covers the value bits of the exponent fields, and the degree fields,
    whose blocks partition the variables, add up to the total degree."""

    def __init__(self, variables, order, bits):
        stride = bits + 1
        fields = _fields(order, variables, list(range(len(variables))))
        self.bits = bits
        self.value = (1 << bits) - 1
        self.offsets = [0] * len(variables)  # offset of each exponent field
        self.guard = self.flip = self.exps = 0
        placed = set()
        sums = []
        for k, (pos, complemented) in enumerate(reversed(fields)):
            off = k * stride
            self.guard |= 1 << (off + bits)
            if complemented:
                self.flip |= self.value << off
            if len(pos) == 1 and pos[0] not in placed:
                placed.add(pos[0])
                self.offsets[pos[0]] = off
                self.exps |= self.value << off
            else:
                sums.append((pos, off))
        # a degree field is the sum of a contiguous run of exponent fields:
        # multiplying the run by 1 + 2^stride + ... puts the running sums in
        # successive fields, the full sum in the run's top one, and no
        # partial sum of an lcm reaches the next field (each is at most
        # 2 * (2^bits - 1)); a shift then moves the full sum into place
        self.sums = []
        for pos, off in sums:
            offs = sorted(self.offsets[i] for i in pos)
            lo, top = offs[0], offs[-1]
            assert offs == list(range(lo, top + 1, stride))
            mult = sum(1 << (o - lo) for o in offs)
            mask = sum(self.value << o for o in offs)
            up, down = max(off - top, 0), max(top - off, 0)
            self.sums.append((mask, mult << up, down,
                              ((1 << stride) - 1) << off))
        self.degree_offsets = tuple(off for _, off in sums)

    def pack(self, e) -> int:
        m = 0
        for x, off in zip(e, self.offsets):
            m |= x << off
        return self.with_sums(m)

    def unpack(self, m) -> tuple:
        v = self.value
        return tuple((m >> off) & v for off in self.offsets)

    def with_sums(self, m):
        for mask, mult, down, field in self.sums:
            m |= ((m & mask) * mult >> down) & field
        if m & self.guard:
            raise _Overflow
        return m

    def degree(self, m) -> int:
        v = self.value
        return sum((m >> off) & v for off in self.degree_offsets)

    def lcm(self, a, b) -> int:
        # guard bit of a field set iff a's field >= b's; spread it over the
        # field's value bits to select a's exponents there, b's elsewhere
        g = self.guard
        d = ((a | g) - b) & g
        sel = (d - (d >> self.bits)) & self.exps
        return self.with_sums((b ^ ((a ^ b) & sel)) & self.exps)

    def fieldwise_max(self, a, b) -> int:
        g = self.guard
        d = ((a | g) - b) & g
        return b ^ ((a ^ b) & (d - (d >> self.bits)))


@lru_cache(maxsize=64)
def _layout(variables, order, bits) -> _Layout:
    return _Layout(variables, order, bits)


def _start_bits(degree) -> int:
    """Value bits for inputs of total degree <= degree: room for twice it."""
    return max(8, (2 * degree).bit_length())


def _reducer(lm, terms, lay):
    """A monic basis element as (lm, tail terms, fieldwise max of the tail,
    terms); every product shift * tail term stays inside its fields iff
    shift * max does."""
    tail = tuple((e, c) for e, c in terms.items() if e != lm)
    top = 0
    for e, _ in tail:
        top = lay.fieldwise_max(top, e)
    return lm, tail, top, terms


def _monicize(lm, terms, lay, dom):
    """The polynomial with leading monomial lm, divided by its leading
    coefficient, as a reducer."""
    norm = dom.norm
    lc = terms[lm]
    if lc != 1:
        ic = dom.inv(lc)
        terms = {e: norm(c * ic) for e, c in terms.items()}
    return _reducer(lm, terms, lay)


def _normal_form_terms(fterms, basis, lay, dom):
    """Full normal form of a packed term dict against reducers; the first
    reducer in list order whose lm divides a term is used.  The result
    lists its terms in descending order."""
    norm = dom.norm
    if not fterms:
        return {}
    flip, g = lay.flip, lay.guard
    heappush, heappop = heapq.heappush, heapq.heappop
    work = dict(fterms)
    heap = [-(e ^ flip) for e in work]
    heapq.heapify(heap)
    out = {}
    while heap:
        m = -heappop(heap) ^ flip
        c = work.pop(m, None)
        if c is None:
            continue
        mg = m | g
        for lm, tail, top, _ in basis:
            if (mg - lm) & g != g:  # lm does not divide m
                continue
            shift = m - lm
            if (shift + top) & g:
                raise _Overflow
            for e2, c2 in tail:
                e = shift + e2
                prev = work.get(e)
                if prev is None:
                    work[e] = norm(-c * c2)
                    heappush(heap, -(e ^ flip))
                else:
                    nc = norm(prev - c * c2)
                    if nc:
                        work[e] = nc
                    else:
                        del work[e]
            break
        else:
            out[m] = c
    return out


def _spoly(a, b, l, g, dom):
    """S-polynomial of two monic reducers whose leading monomials have lcm
    l; the leading terms cancel, so only the tails are multiplied."""
    norm = dom.norm
    sa = l - a[0]
    sb = l - b[0]
    if (sa + a[2]) & g or (sb + b[2]) & g:
        raise _Overflow
    out = {sa + e: c for e, c in a[1]}
    for e, c in b[1]:
        e2 = sb + e
        nc = norm(out.get(e2, 0) - c)
        if nc:
            out[e2] = nc
        else:
            out.pop(e2, None)
    return out


def _buchberger_core(inputs, lay, dom, guard):
    """Returns (reduced monic basis as reducers ascending by leading
    monomial, Diagnostics); inputs and output are packed."""
    flip, g, exps, bits = lay.flip, lay.guard, lay.exps, lay.bits
    lcm, degree, with_sums = lay.lcm, lay.degree, lay.with_sums
    store: list = []  # every element ever added, as a reducer
    active: list[int] = []  # indices into store of the current basis
    reducers: list = []  # store[i] for i in active, in that order
    # pairs as (deg lcm, order key of lcm, i, j, lcm); (i, j) is unique, so
    # heap order is the normal strategy's order with ties broken by (i, j),
    # and the comparison never reaches the lcm
    pairs: list = []
    stats = {"s_pairs": 0, "max_degree": 0}

    def update(h):
        # Gebauer-Moeller pair update on arrival of a new basis element.
        nonlocal pairs, active, reducers
        hlm = store[h][0]
        he = hlm & exps
        cand = []
        for i in active:
            # the lcm's exponent fields, by the select of _Layout.lcm; its
            # degree fields are filled in only for the pairs kept
            ie = store[i][0] & exps
            d = ((he | g) - ie) & g
            le = ie ^ ((he ^ ie) & (d - (d >> bits)))
            cand.append((le, i, le == he + ie))
        # Sorted by lcm, equal lcms sit next to each other in i order, and
        # every proper divisor of an lcm comes before it (the packed int
        # grows with each field).  Whether a candidate survives depends only
        # on its divisors, so the survivors are those of any other order
        # that refines divisibility, such as degree first.
        cand.sort()
        kept: list = []  # lcm exponents of every candidate kept so far
        new_pairs = []
        for pos, (le, i, coprime) in enumerate(cand):
            if coprime:
                kept.append(le)
                continue
            if pos + 1 < len(cand) and cand[pos + 1][0] == le:
                continue
            lg = le | g
            for l2 in kept:
                if (lg - l2) & g == g:
                    break
            else:
                kept.append(le)
                l = with_sums(le)
                new_pairs.append((degree(l), l ^ flip, i, h, l))
        # B-criterion: drop an old pair (i, j) when h's lm divides its lcm
        # and that lcm differs from both lcm(i, h) and lcm(h, j)
        pairs = [
            t for t in pairs
            if ((t[4] | g) - hlm) & g != g
            or lcm(store[t[2]][0], hlm) == t[4]
            or lcm(hlm, store[t[3]][0]) == t[4]
        ] + new_pairs
        heapq.heapify(pairs)
        active = [i for i in active if ((store[i][0] | g) - hlm) & g != g]
        active.append(h)
        reducers = [store[i] for i in active]

    def add(h):
        # a normal form lists its terms in descending order
        store.append(_monicize(next(iter(h)), h, lay, dom))
        update(len(store) - 1)
        if len(active) > guard.max_basis:
            raise GuardExceededError(
                f"basis size {len(active)} exceeds the guard ({guard.max_basis})",
                Diagnostics(stats["s_pairs"], len(active), stats["max_degree"]),
            )

    def leading(terms):
        lm = max(e ^ flip for e in terms) ^ flip
        return degree(lm), lm ^ flip

    for terms in sorted((t for t in inputs if t), key=leading):
        h = _normal_form_terms(terms, reducers, lay, dom)
        if h:
            add(h)

    while pairs:
        deg, _, i, j, l = heapq.heappop(pairs)
        stats["s_pairs"] += 1
        stats["max_degree"] = max(stats["max_degree"], deg)
        if deg > guard.max_degree:
            raise GuardExceededError(
                f"S-pair lcm degree {deg} exceeds the guard ({guard.max_degree})",
                Diagnostics(stats["s_pairs"], len(active), stats["max_degree"]),
            )
        h = _normal_form_terms(_spoly(store[i], store[j], l, g, dom),
                               reducers, lay, dom)
        if h:
            add(h)

    # the basis is already minimal: each element arrived reduced by the
    # active ones and evicted those its lm divides.  Tail-reduce it against
    # the final leading terms; a minimal element's monic leading term is
    # divisible by no other, so it survives the reduction unchanged
    minimal = sorted(reducers, key=lambda r: r[0] ^ flip)
    reduced = []  # ascending by leading monomial, like minimal
    for r in minimal:
        others = [o for o in minimal if o is not r]
        reduced.append(_reducer(r[0], _normal_form_terms(r[3], others, lay, dom),
                                lay))
    diag = Diagnostics(stats["s_pairs"], len(reduced), stats["max_degree"])
    return reduced, diag


# --------------------------------------------------------------------------
# public surface


class GroebnerBasis(Record):
    """Reduced, monic, auto-reduced basis under a fixed monomial order."""

    ring: PolyRing
    order: MonomialOrder
    basis: tuple[Polynomial, ...]
    diagnostics: Diagnostics

    def normal_form(self, f: Polynomial) -> Polynomial:
        return normal_form(f, self)

    def contains(self, f: Polynomial) -> bool:
        return normal_form(f, self).is_zero


def _packed_run(ring, order, polys, work):
    """(layout, work(layout, the term dicts of polys packed in it)).  The
    width starts from the largest total degree in polys and doubles on
    every _Overflow, the only place that restarts packed work."""
    bits = _start_bits(max((g.total_degree() for g in polys), default=0))
    while True:
        lay = _layout(ring.variables, order, bits)
        try:
            return lay, work(lay, [{lay.pack(e): c for e, c in g.terms.items()}
                                   for g in polys])
        except _Overflow:
            bits *= 2


def _unpacked(ring, lay, terms) -> Polynomial:
    unpack = lay.unpack
    return Polynomial(ring, {unpack(e): c for e, c in terms.items()},
                      _normalized=True)


def buchberger(ideal: Ideal, order: MonomialOrder = DEFAULT_ORDER,
               guard: DegreeGuard = DEFAULT_GUARD) -> GroebnerBasis:
    """Reduced Groebner basis of an ideal over a field; keeps no state."""
    ring = ideal.ring
    dom = _field(ring.domain)
    lay, (reduced, diag) = _packed_run(
        ring, order, ideal.generators,
        lambda lay, gens: _buchberger_core(gens, lay, dom, guard))
    return GroebnerBasis(ring, order,
                         tuple(_unpacked(ring, lay, r[3]) for r in reduced), diag)


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """f fully reduced by gb's basis, each element divided by its leading
    coefficient first, so a hand-built basis need not be monic; a zero
    element reduces nothing."""
    if f.ring != gb.ring:
        raise RingMismatchError(f"{f.ring} != {gb.ring}")
    dom = _field(gb.ring.domain)

    def reduce(lay, packed):
        fterms, *basis = packed
        flip = lay.flip
        reducers = [_monicize(max(e ^ flip for e in terms) ^ flip, terms, lay, dom)
                    for terms in basis if terms]
        return _normal_form_terms(fterms, reducers, lay, dom)

    lay, out = _packed_run(gb.ring, gb.order, (f, *gb.basis), reduce)
    return _unpacked(gb.ring, lay, out)


def _with_relations(ideal: Ideal, rel: QuotientRing | None) -> Ideal:
    if rel is None:
        return ideal
    if rel.ring != ideal.ring:
        raise RingMismatchError("quotient ring lives over a different ambient ring")
    return Ideal(ideal.ring, ideal.generators + rel.relations)


def membership(f: Polynomial, ideal: Ideal, rel: QuotientRing | None = None) -> bool:
    """Decide f in I (mod relations when rel is given) via normal form."""
    full = _with_relations(ideal, rel)
    if full.is_zero:
        return f.is_zero
    return buchberger(full).contains(f)


def exact_divide(g: Polynomial, f: Polynomial) -> Polynomial:
    """Quotient g / f when f divides g exactly (field coefficients)."""
    if g.ring != f.ring:
        raise RingMismatchError(f"{g.ring} != {f.ring}")
    if f.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    dom = _field(g.ring.domain)
    norm = dom.norm
    key = DEFAULT_ORDER.key(g.ring)
    flm = max(f.terms, key=key)
    fic = dom.inv(f.terms[flm])
    work = dict(g.terms)
    quot: dict = {}
    while work:
        m = max(work, key=key)
        if not monomial_divides(flm, m):
            raise NonDivisibleError(f"{f} does not divide {g}", monomial=m)
        shift = monomial_div(m, flm)
        qc = norm(work[m] * fic)
        quot[shift] = qc
        for e2, c2 in f.terms.items():
            e = monomial_mul(shift, e2)
            nc = norm(work.get(e, 0) - qc * c2)
            if nc:
                work[e] = nc
            else:
                work.pop(e, None)
    return Polynomial(g.ring, quot, _normalized=True)


def _fresh_variable(ring: PolyRing) -> str:
    name = "_t"
    k = 0
    while name in ring.variables:
        name = f"_t{k}"
        k += 1
    return name


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I cap J via the one-auxiliary-variable elimination construction."""
    if I.ring != J.ring:
        raise RingMismatchError("intersection needs a common ambient ring")
    ring = I.ring
    tname = _fresh_variable(ring)
    aux = PolyRing((tname,) + ring.variables, ring.domain)

    t = aux.gen(tname)
    gens = [t * convert(g, aux) for g in I.generators]
    gens += [(1 - t) * convert(h, aux) for h in J.generators]
    if not gens:
        return Ideal(ring, ())
    # the remaining variables are the original ring's, in declaration order
    return eliminate(Ideal(aux, tuple(gens)), {tname})


def eliminate(ideal: Ideal, drop) -> Ideal:
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
        return Ideal(ring, buchberger(ideal).basis)
    if not (set(ring.variables) - drop):
        raise ValueError("cannot eliminate every variable")
    front = tuple(v for v in ring.variables if v in drop)
    gb = buchberger(ideal, BlockElimination(front=front))
    drop_idx = [i for i, v in enumerate(ring.variables) if v in drop]
    sub = PolyRing(tuple(v for v in ring.variables if v not in drop), ring.domain)
    return Ideal(sub, tuple(
        convert(g, sub) for g in gb.basis
        if not any(e[i] for e in g.terms for i in drop_idx)
    ))


def colon(ideal: Ideal, f: Polynomial, rel: QuotientRing | None = None) -> Ideal:
    """The colon ideal (I : f) = {g : g*f in I}, mod relations when given.

    Computed as (I cap (f)) / f.  Colon by zero is rejected outright; it
    almost always signals a scenario-definition bug.
    """
    if f.is_zero:
        raise ValueError("colon by the zero polynomial (by convention an error)")
    full = _with_relations(ideal, rel)
    if f.ring != full.ring:
        raise RingMismatchError(f"{f.ring} != {full.ring}")
    meet = intersect(full, Ideal(full.ring, (f,)))
    return Ideal(full.ring, tuple(exact_divide(g, f) for g in meet.generators))


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


def ideal_equal(I: Ideal, J: Ideal, rel: QuotientRing | None = None) -> bool:
    """True iff the two ideals coincide (mod relations when given)."""
    if I.ring != J.ring:
        raise RingMismatchError("ideal comparison needs a common ambient ring")
    A = _with_relations(I, rel)
    B = _with_relations(J, rel)
    if A.is_zero or B.is_zero:
        return A.is_zero and B.is_zero
    return buchberger(A).basis == buchberger(B).basis

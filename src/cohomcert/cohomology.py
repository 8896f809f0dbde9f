"""Local cohomology classes and their zero / torsion certificates.

A class [f + (x_1^m, ..., x_n^m)] is a direct-limit representative: the
transition map multiplies the numerator by x_1...x_n and raises m, and the
class vanishes iff f (x_1...x_n)^k lands in (x_1^{m+k}, ..., x_n^{m+k})
for some k.  Bounded search can certify vanishing (with a re-checkable
witness exponent) but never nonvanishing; the only nonvanishing
certificates issued here come from the weight-reduction pipeline, which
turns the torsion construction's grading argument into five machine-checked
steps.

Every membership question that needs no Groebner basis is decided here:
outside_monomial_ideal drops the terms a monomial ideal contains (with a
reduction mod p first it decides (p, monomials) in Z[vars]), and
_term_ideal_membership walks pure-difference binomial moves.  Only
_ideal_membership hands a question it cannot decide that way to the
engine's membership.
"""

from __future__ import annotations


from . import degree_solver
from .degree_solver import MonomialFamily, certify_no_solutions, unique_monomial_family
from .groebner import (
    DomainNotSupportedError,
    Ideal,
    QuotientRing,
    eliminate,
    colon,
    membership,
)
from .polyring import (
    Multigrading,
    Polynomial,
    PolyRing,
    Record,
    ZZ,
    _format_monomial,
    convert,
    divide_exact_by_integer,
    is_prime,
    monomial_div,
    monomial_divides,
    monomial_mul,
    multidegree,
    reduce_mod_p,
)


class IllFormedSyzygyError(ValueError):
    """The pairs do not satisfy sum f_i g_i = 0 (or = the relation)."""


class PipelineStepError(RuntimeError):
    """A step of the nonvanishing pipeline failed; .step names it."""

    def __init__(self, step: str, message: str):
        super().__init__(f"step {step!r}: {message}")
        self.step = step


# --------------------------------------------------------------------------
# verdicts


class ZeroAt(Record):
    """The class vanishes, witnessed at transition exponent k."""

    k: int

    def to_json_dict(self):
        return {"verdict": "zero_at", "k": self.k}


class UnknownUpTo(Record):
    """No vanishing found for any k <= k_max; says nothing about nonzero."""

    k_max: int

    def to_json_dict(self):
        return {"verdict": "unknown_up_to", "k_max": self.k_max}


class NonzeroCertified(Record):
    """The class is provably nonzero; carries the pipeline certificate."""

    certificate: "WeightPipelineCertificate"

    def to_json_dict(self):
        return {"verdict": "nonzero_certified",
                "certificate": self.certificate.to_json_dict()}


# --------------------------------------------------------------------------
# Cech classes


class CechClass(Record):
    """[numerator + (x_1^m, ..., x_n^m)] in a quotient ring."""

    ring: QuotientRing
    sequence: tuple[Polynomial, ...]
    m: int
    numerator: Polynomial

    def __post_init__(self):
        if not self.sequence:
            raise ValueError("the sequence must be nonempty")
        if self.m < 1:
            raise ValueError("the exponent m must be at least 1")
        for x in self.sequence + (self.numerator,):
            if x.ring != self.ring.ring:
                raise ValueError(f"{x} does not live in {self.ring.ring}")

    def sequence_product(self) -> Polynomial:
        prod = self.ring.ring.one()
        for x in self.sequence:
            prod = prod * x
        return prod

    def power_ideal(self, k: int = 0) -> Ideal:
        return Ideal(self.ring.ring, tuple(x ** (self.m + k) for x in self.sequence))

    def scale(self, g: Polynomial) -> "CechClass":
        """The class of g * numerator (module multiplication by g)."""
        return CechClass(self.ring, self.sequence, self.m, self.numerator * g)

    def to_json_dict(self):
        return {
            "variables": list(self.ring.ring.variables),
            "domain": str(self.ring.ring.domain),
            "relations": [str(r) for r in self.ring.relations],
            "sequence": [str(x) for x in self.sequence],
            "m": self.m,
            "numerator": str(self.numerator),
        }


def push_forward(c: CechClass, steps: int) -> CechClass:
    """Apply the transition map `steps` times; represents the same class."""
    if steps < 0:
        raise ValueError("cannot push a class backwards")
    if steps == 0:
        return c
    return CechClass(
        c.ring, c.sequence, c.m + steps,
        c.numerator * c.sequence_product() ** steps,
    )


def _term_ideal_membership(f: Polynomial, gens, relations=()) -> bool:
    """Decide f in (gens) + (relations) when every generator is a unit
    multiple of a monomial and every relation a unit multiple of a
    homogeneous x^a - x^b, over any domain; DomainNotSupportedError
    otherwise.  Zero generators and relations add nothing.

    Such an ideal is spanned by its monomials and the differences
    u x^a - u x^b (Eisenbud-Sturmfels, "Binomial ideals", 1996), so f lies
    in it iff f's coefficients sum to zero on each component of the move
    graph u x^a <-> u x^b that no generator divides.  The moves keep the
    total degree, so each component is finite; with no relations each
    component is a single term.
    """
    dom = f.ring.domain

    def unit(c):
        return dom.is_field or c in (1, -1)
    gens = [g for g in gens if not g.is_zero]
    if any(len(g.terms) != 1 or not unit(c) for g in gens for c in g.terms.values()):
        raise DomainNotSupportedError("generators must be unit multiples of monomials")
    moves = []
    for r in relations:
        terms = list(r.terms.items())
        if len(terms) == 2:
            (a, c), (b, d) = terms
            if unit(c) and not dom.norm(c + d) and sum(a) == sum(b):
                moves += [(a, b), (b, a)]
                continue
        if terms:
            raise DomainNotSupportedError(
                "relations must be unit multiples of homogeneous x^a - x^b")
    exps = [e for g in gens for e in g.terms]
    seen = set()
    for t in f.terms:
        if t in seen:
            continue
        component, todo = {t}, [t]
        while todo:
            m = todo.pop()
            for a, b in moves:
                if monomial_divides(a, m):
                    moved = monomial_mul(monomial_div(m, a), b)
                    if moved not in component:
                        component.add(moved)
                        todo.append(moved)
        seen |= component
        if not any(monomial_divides(e, m) for m in component for e in exps) \
                and dom.norm(sum(f.terms.get(m, 0) for m in component)):
            return False
    return True


def outside_monomial_ideal(f: Polynomial, exponents) -> Polynomial:
    """The terms of f that no x^e, e in exponents, divides: f's normal form
    modulo that monomial ideal, over any coefficient domain.  With f
    reduced mod p first, it decides membership in (p, monomials) in
    Z[vars]: f lies there iff nothing survives."""
    return Polynomial(f.ring, {
        t: c for t, c in f.terms.items()
        if not any(monomial_divides(e, t) for e in exponents)
    }, _normalized=True)


def _ideal_membership(f: Polynomial, gens, quotient: QuotientRing | None = None) -> bool:
    """Decide f in (gens) + the relations of quotient: by moves when the
    ideal allows it, otherwise by the Groebner engine, which raises
    DomainNotSupportedError again over Z."""
    try:
        return _term_ideal_membership(f, gens, quotient.relations if quotient else ())
    except DomainNotSupportedError:
        return membership(f, Ideal(f.ring, tuple(gens)), rel=quotient)


def _vanishes_at(c: CechClass, k: int) -> bool:
    """Does f (x_1...x_n)^k lie in (x_1^{m+k}, ..., x_n^{m+k}) + relations?"""
    pushed = push_forward(c, k)
    if not c.ring.ring.domain.is_field and c.ring.relations:
        raise DomainNotSupportedError(
            "vanishing over Z with relations is outside the membership engine"
        )
    return _ideal_membership(pushed.numerator, pushed.power_ideal().generators, c.ring)


def is_zero_up_to(c: CechClass, k_max: int):
    """ZeroAt(k) for the least k <= k_max witnessing vanishing, else
    UnknownUpTo(k_max); never claims nonvanishing by itself.

    Vanishing is monotone in k (multiplying level k by x_1...x_n lands in
    level k+1), so a galloping search tests k = 0, 1, 3, 7, ... capped at
    k_max, then bisects between the last level that does not vanish and
    the first that does.
    """
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    lo, hi = -1, 0  # level lo does not vanish (-1: none tested yet)
    while not _vanishes_at(c, hi):
        if hi == k_max:
            return UnknownUpTo(k_max)
        lo, hi = hi, min(2 * hi + 1, k_max)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _vanishes_at(c, mid):
            hi = mid
        else:
            lo = mid
    return ZeroAt(hi)


def verify_zero_at(c: CechClass, verdict: ZeroAt) -> bool:
    """Re-check a ZeroAt witness by one membership test."""
    return _vanishes_at(c, verdict.k)


# --------------------------------------------------------------------------
# the torsion construction


def lambda_q(f_list, g_list, p: int, e: int, relation: Polynomial | None = None,
             *, relation_power: Polynomial | None = None) -> Polynomial:
    """The divided power sum ((f_1 g_1)^q + ... + (f_n g_n)^q) / p, q = p^e.

    When sum f_i g_i = 0 the divisibility is the multinomial theorem; in
    the hypersurface case sum f_i g_i = relation, the canonical integer
    lift subtracts relation^q first.  Any two lifts differ by a multiple
    of the relation, so downstream verdicts agree.  `relation_power` is
    relation^q, from a caller that has already formed it.
    """
    if len(f_list) != len(g_list) or not f_list:
        raise ValueError("need equal-length nonempty factor lists")
    ring = f_list[0].ring
    if ring.domain != ZZ:
        raise ValueError("the torsion construction lives over Z")
    if not is_prime(p) or e < 1:
        raise ValueError("need a prime p and exponent e >= 1")
    q = p ** e
    total = ring.zero()
    for f, g in zip(f_list, g_list):
        total = total + f * g
    powers = ring.zero()
    for f, g in zip(f_list, g_list):
        powers = powers + (f * g) ** q
    if relation is None:
        if not total.is_zero:
            raise IllFormedSyzygyError(f"sum f_i g_i = {total}, expected 0")
    else:
        if total != relation:
            raise IllFormedSyzygyError(
                f"sum f_i g_i = {total}, expected the relation {relation}"
            )
        powers = powers - (relation ** q if relation_power is None else relation_power)
    return divide_exact_by_integer(powers, p)


def conjecture_membership_check(f_list, g_list, p: int, e: int, k: int, domain) -> bool:
    """Decide lambda_q (g_1...g_n)^k in (g_1^{q+k}, ..., g_n^{q+k}) over
    the given field domain (Q or F_p).

    Requires sum f_i g_i = 0 exactly.  Over F_p this checks the mod-p
    consequence of the integer statement, over Q the rational consequence;
    both are necessary conditions, not the full Z-level claim.  Monomial
    ideals are decided termwise, before any Groebner run.
    """
    lam = lambda_q(f_list, g_list, p, e)
    if k < 0:
        raise ValueError("k must be non-negative")
    if not domain.is_field:
        raise DomainNotSupportedError("membership needs a field domain")
    q = p ** e
    ring = PolyRing(lam.ring.variables, domain)
    product = convert(lam, ring)
    for g in g_list:
        product = product * convert(g, ring) ** k
    return _ideal_membership(product, [convert(g, ring) ** (q + k) for g in g_list])


# -- the fixed ux + vy + wz scenario ----------------------------------------

TORSION_VARIABLES = ("u", "v", "w", "x", "y", "z")

WEIGHT_TABLE = {
    "x": (1, 0, 0, 0),
    "y": (0, 1, 0, 0),
    "z": (0, 0, 1, 0),
    "u": (-1, 0, 0, 1),
    "v": (0, -1, 0, 1),
    "w": (0, 0, -1, 1),
}


def torsion_ring() -> tuple[PolyRing, Polynomial]:
    """Z[u,v,w,x,y,z] with the hypersurface relation ux + vy + wz."""
    ring = PolyRing(TORSION_VARIABLES, ZZ)
    u, v, w, x, y, z = ring.gens()
    return ring, u * x + v * y + w * z


class PipelineStep(Record):
    name: str
    statement: str
    data: dict

    def to_json_dict(self):
        return {"name": self.name, "statement": self.statement, "data": self.data}


class WeightPipelineCertificate(Record):
    """Transcript of the five-step grading argument for eta_p != 0."""

    p: int
    steps: tuple[PipelineStep, ...]
    witness_monomial: str
    residual: str

    def to_json_dict(self):
        return {
            "kind": "weight_pipeline",
            "p": self.p,
            "witness_monomial": self.witness_monomial,
            "residual": self.residual,
            "steps": [s.to_json_dict() for s in self.steps],
        }


def weight_reduction_nonvanishing(p: int, lam: Polynomial | None = None) -> NonzeroCertified:
    """Run the grading argument showing eta_p != 0 in the ux+vy+wz ring.

    Steps: (1) the divided power sum is homogeneous of degree (0,0,0,p)
    under the weight table; (2) in any homogeneous equation
    lambda (xyz)^k = c_1 x^{p+k} + c_2 y^{p+k} + c_3 z^{p+k} the degree
    equations force each c_i to be an integer multiple of one monomial,
    for every k at once, and admit no relation-multiple corrections;
    (3) hence the equation pulls lambda into (u^p x^p, v^p y^p, w^p z^p),
    after cancelling (xyz)^k in the domain; (4) specializing u,v,w -> 1 and
    z -> -(x+y) lands the question in Z[x,y]; (5) the specialized element
    is not in (p, x^p, y^p), so no such equation exists.

    Raises PipelineStepError naming the failing step.  lam defaults to
    lambda_p; tests pass other numerators to sabotage the input.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    ring, relation = torsion_ring()
    u, v, w, x, y, z = ring.gens()
    if lam is None:
        lam = lambda_q([u, v, w], [x, y, z], p, 1, relation=relation)
    steps = []

    # step 1: homogeneity
    grading = Multigrading.from_dict(ring, WEIGHT_TABLE)
    deg = multidegree(lam, grading)
    expected_deg = (0, 0, 0, p)
    if deg != expected_deg:
        raise PipelineStepError(
            "homogeneity",
            f"degree of the class numerator is {deg}, expected {expected_deg}",
        )
    steps.append(PipelineStep(
        "homogeneity",
        f"the class numerator is homogeneous of degree {expected_deg} "
        "under the weight table",
        {"weights": {v: list(WEIGHT_TABLE[v]) for v in ring.variables},
         "numerator": str(lam), "degree": list(expected_deg)},
    ))

    # step 2: cofactor degrees have unique monomial solutions, all k at once
    weights = grading.weights
    wsum = tuple(sum(WEIGHT_TABLE[v][j] for v in ("x", "y", "z")) for j in range(4))
    targets = []
    expected_families = {
        "x": MonomialFamily((p, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1)),  # u^p y^k z^k
        "y": MonomialFamily((0, p, 0, 0, 0, 0), (0, 0, 0, 1, 0, 1)),  # v^p z^k x^k
        "z": MonomialFamily((0, 0, p, 0, 0, 0), (0, 0, 0, 1, 1, 0)),  # w^p x^k y^k
    }
    rel_deg = multidegree(relation, grading)
    try:
        for name in ("x", "y", "z"):
            wv = WEIGHT_TABLE[name]
            base = tuple(expected_deg[j] - p * wv[j] for j in range(4))
            slope = tuple(wsum[j] - wv[j] for j in range(4))
            fam = unique_monomial_family(
                weights, base, slope, expected=expected_families[name]
            )
            psi = certify_no_solutions(
                weights,
                tuple(base[j] - rel_deg[j] for j in range(4)),
                slope,
            )
            targets.append({
                "generator": name,
                "target_base": list(base),
                "target_slope": list(slope),
                "family_const": list(fam.const),
                "family_slope": list(fam.slope),
                "relation_shift_farkas": list(psi),
            })
    except degree_solver.CertificationError as exc:
        raise PipelineStepError("cofactor_degrees", str(exc)) from exc
    steps.append(PipelineStep(
        "cofactor_degrees",
        "each cofactor degree is achieved by exactly one monomial family "
        "(certified for every k >= 0), and the shifted target carrying a "
        "relation multiple has no monomials at all",
        {"cofactors": targets},
    ))

    # step 3: c_i x_i^{p+k} = (xyz)^k m_i holds for the families step 2
    # pins (expected_families), so the identity needs no further check
    steps.append(PipelineStep(
        "reduction_identity",
        "c_i x_i^{p+k} = (xyz)^k * m_i exactly, where m_i runs over "
        "u^p x^p, v^p y^p, w^p z^p; cancelling (xyz)^k (the hypersurface "
        "is a domain: its relation is irreducible) pulls the class "
        "numerator into (u^p x^p, v^p y^p, w^p z^p)",
        {"targets": {"x": "u^p*x^p", "y": "v^p*y^p", "z": "w^p*z^p"}},
    ))

    # step 4: specialize u, v, w -> 1 and z -> -(x+y)
    subst = {"u": 1, "v": 1, "w": 1, "z": -(x + y)}
    if not relation.substitute(subst).is_zero:
        raise PipelineStepError("specialization", "the map does not kill the relation")
    zxy = PolyRing(("x", "y"), ZZ)
    lam_bar = convert(lam.substitute(subst), zxy)
    lam_bar_str = str(lam_bar)
    xb, yb = zxy.gens()
    images = {
        "u^p*x^p": convert((u ** p * x ** p).substitute(subst), zxy),
        "v^p*y^p": convert((v ** p * y ** p).substitute(subst), zxy),
        "w^p*z^p": convert((w ** p * z ** p).substitute(subst), zxy),
    }
    if images["u^p*x^p"] != xb ** p or images["v^p*y^p"] != yb ** p:
        raise PipelineStepError("specialization", "generator images are wrong")
    third = images["w^p*z^p"]
    if third != (-(xb + yb)) ** p:
        raise PipelineStepError("specialization", "third generator image is wrong")
    if not outside_monomial_ideal(reduce_mod_p(third, p), [(p, 0), (0, p)]).is_zero:
        raise PipelineStepError(
            "specialization",
            "the image of w^p z^p is not in (p, x^p, y^p), so the final "
            "reduction would not be conclusive",
        )
    steps.append(PipelineStep(
        "specialization",
        "u,v,w -> 1 and z -> -(x+y) kill the relation and send the three "
        "generators into (p, x^p, y^p) of Z[x,y]",
        {"specialized_numerator": lam_bar_str,
         "generator_images": {k: str(vv) for k, vv in images.items()}},
    ))

    # step 5: the specialized numerator avoids (p, x^p, y^p): its normal
    # form there, the residual, is not zero
    residual = outside_monomial_ideal(reduce_mod_p(lam_bar, p), [(p, 0), (0, p)])
    if residual.is_zero:
        raise PipelineStepError(
            "final_nonmembership",
            "the specialized numerator lies in (p, x^p, y^p); the class "
            "could be zero",
        )
    residual_str = str(residual)
    witness_str = _format_monomial(zxy, residual.sorted_terms()[0][0])
    steps.append(PipelineStep(
        "final_nonmembership",
        f"{lam_bar_str} is not in (p, x^p, y^p) in Z[x,y] for p = {p}: "
        f"mod {p} the terms {residual_str} survive and none is divisible by "
        f"x^{p} or y^{p}",
        {"specialized_numerator": lam_bar_str,
         "monomial_generators": [f"x^{p}", f"y^{p}"],
         "residual_mod_p": residual_str,
         "witness_monomial": witness_str},
    ))

    return NonzeroCertified(WeightPipelineCertificate(
        p, tuple(steps), witness_str, residual_str
    ))


class TorsionCertificate(Record):
    """eta_p is p-torsion and nonzero, both halves independently checkable.

    The annihilation half is an exact cofactor identity
    p * numerator = sum_i cof_i x_i^m + cof_rel * relation, re-checkable by
    plain polynomial arithmetic; the nonvanishing half is the pipeline
    certificate.
    """

    p: int
    cech_class: CechClass
    annihilation: ZeroAt
    sequence_cofactors: tuple[Polynomial, ...]
    relation_cofactor: Polynomial
    nonvanishing: NonzeroCertified


def eta_annihilation(p: int) -> tuple[CechClass, tuple[Polynomial, ...], Polynomial]:
    """eta_p = [lambda_p + (x^p, y^p, z^p)] in the ux + vy + wz
    hypersurface over Z, with the cofactors of p * lambda_p =
    sum_i cof_i x_i^p + cof_rel * relation, the identity that kills
    p * eta_p at transition exponent 0.  relation^(p-1) is formed once:
    negated it is cof_rel, and one more product gives the relation^p that
    lambda_p subtracts."""
    ring, relation = torsion_ring()
    u, v, w, x, y, z = ring.gens()
    rel_power = relation ** (p - 1)
    lam = lambda_q([u, v, w], [x, y, z], p, 1, relation=relation,
                   relation_power=rel_power * relation)
    cls = CechClass(QuotientRing(ring, (relation,)), (x, y, z), p, lam)
    return cls, (u ** p, v ** p, w ** p), -rel_power


def eta_torsion_check(p: int, annihilation=None) -> TorsionCertificate:
    """Certify that eta_p is a nonzero p-torsion class.

    p * eta_p = 0 holds at transition exponent 0 with explicit cofactors
    (an exact polynomial identity, re-checkable without any ideal
    machinery); nonvanishing comes from the weight pipeline.
    `annihilation` is eta_annihilation(p), from a caller that has it.
    """
    cls, seq_cofactors, rel_cofactor = annihilation or eta_annihilation(p)
    (relation,) = cls.ring.relations
    recombined = rel_cofactor * relation
    for cof, gen in zip(seq_cofactors, cls.sequence):
        recombined = recombined + cof * gen ** p
    if recombined != p * cls.numerator:
        raise PipelineStepError("annihilation", "cofactor identity failed")

    nonzero = weight_reduction_nonvanishing(p, cls.numerator)
    return TorsionCertificate(
        p=p,
        cech_class=cls,
        annihilation=ZeroAt(0),
        sequence_cofactors=seq_cofactors,
        relation_cofactor=rel_cofactor,
        nonvanishing=nonzero,
    )


# --------------------------------------------------------------------------
# annihilators contracted to a subring


def annihilator_in_subring(c: CechClass, subring_vars, k: int = 0) -> Ideal:
    """((x_1^{m+k}, ..., x_n^{m+k}) + relations) : (f (x_1...x_n)^k),
    contracted to the subring on `subring_vars`.

    The annihilator of the limit class is the union of these over k;
    callers compare consecutive exponents for stabilization.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    subring_vars = tuple(subring_vars)
    ring = c.ring.ring
    unknown = set(subring_vars) - set(ring.variables)
    if unknown:
        raise KeyError(f"subring variables {sorted(unknown)} not in {ring}")
    pushed = push_forward(c, k)
    quot = colon(pushed.power_ideal(), pushed.numerator, rel=c.ring)
    drop = set(ring.variables) - set(subring_vars)
    return eliminate(quot, drop)

"""Exact sparse multivariate polynomial arithmetic.

Coefficients live in one of three exact domains: the rationals, a prime
field F_p, or the integers.  There is no floating point anywhere in this
module.  Polynomials are immutable value objects over a fixed ring
descriptor; monomials are plain exponent tuples whose length equals the
ring's variable count.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add, attrgetter


class RingMismatchError(ValueError):
    """Operands belong to different ambient rings."""


class NonDivisibleError(ArithmeticError):
    """Exact division failed; carries the offending monomial."""

    def __init__(self, message, monomial=None):
        super().__init__(message)
        self.monomial = monomial


class ParseError(ValueError):
    """Polynomial text could not be parsed."""


# Miller-Rabin with the prime bases 2..37 has no strong pseudoprime below
# this bound (OEIS A014233), so the test is exact there
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 318665857834031151167461


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_EXACT_BELOW:
        d = 41
        while d * d <= n:
            if n % d == 0:
                return False
            d += 2
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# --------------------------------------------------------------------------
# frozen value types


class Record:
    """Base of the immutable value types.

    The fields are the annotated class attributes, base fields first; a
    class attribute of the same name is the field's default.  The
    constructor takes the fields by position or keyword and then runs
    __post_init__.  Two records are equal iff they are of the same class
    with equal field tuples, the hash is the hash of the field tuple, the
    repr reads Name(a=..., b=...), and assignment raises AttributeError;
    an attribute that is not a field is set once, in __post_init__,
    through object.__setattr__.  No source is generated per
    class, which keeps the import cheap: __init_subclass__ binds __init__,
    __eq__ and __hash__ to closures over the field names and an attrgetter
    of them.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__annotations__
        fields = cls._fields + tuple(n for n in own if n not in cls._fields)
        cls._fields = fields
        cls._defaults = {n: v for n, v in cls._defaults.items() if n not in own}
        cls._defaults.update((n, cls.__dict__[n]) for n in own if n in cls.__dict__)
        setattr_, post = object.__setattr__, cls.__post_init__
        if len(fields) == 1:
            get = attrgetter(fields[0])

            def key(self):
                return (get(self),)
        elif fields:
            key = attrgetter(*fields)
        else:
            def key(self):
                return ()

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != len(fields):
                args = cls._arguments(args, kwargs)
            for name, value in zip(fields, args):
                setattr_(self, name, value)
            post(self)

        def __eq__(self, other):
            if self is other:
                return True
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        cls.__init__ = __init__
        cls.__eq__ = __eq__
        cls.__hash__ = __hash__

    @classmethod
    def _arguments(cls, args, kwargs) -> list:
        """Every field's value, from the arguments or else the default."""
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} fields, "
                            f"got {len(args)} positional arguments")
        values = list(args)
        for name in cls._fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing field {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected or repeated "
                            f"field {next(iter(kwargs))!r}")
        return values

    def __post_init__(self):
        pass

    def __repr__(self):
        return f"{self.__class__.__qualname__}(" + ", ".join(
            f"{n}={getattr(self, n)!r}" for n in self._fields) + ")"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# --------------------------------------------------------------------------
# coefficient domains


class CoefficientDomain(Record):
    """One of Q ("rational"), F_p ("prime_field"), or Z ("integer").

    Coefficients are represented as Fraction over Q, as int in [0, p)
    over F_p, and as int over Z.
    """

    kind: str
    p: int | None = None
    # not a field: `norm`, the canonical value of a sum or product of
    # coefficients (x mod p over F_p, the identity over Q and Z)

    def __post_init__(self):
        if self.kind not in ("rational", "prime_field", "integer"):
            raise ValueError(f"unknown coefficient domain kind {self.kind!r}")
        if self.kind == "prime_field":
            if self.p is None or not is_prime(self.p):
                raise ValueError(f"prime field modulus must be prime, got {self.p}")
        elif self.p is not None:
            raise ValueError(f"{self.kind} domain takes no modulus")
        object.__setattr__(self, "norm", self.p.__rmod__ if self.p else _identity)

    @property
    def is_field(self) -> bool:
        return self.kind in ("rational", "prime_field")

    @property
    def characteristic(self) -> int:
        return self.p if self.kind == "prime_field" else 0

    def normalize(self, c):
        """Coerce an int or a Fraction into this domain's representation;
        anything else, a bool, a float or a string among them, raises
        TypeError."""
        if c.__class__ is int:
            if self.kind == "prime_field":
                return c % self.p
            return Fraction(c) if self.kind == "rational" else c
        if not isinstance(c, Fraction):
            raise TypeError(f"coefficient {c!r} is not an int or a Fraction")
        if self.kind == "prime_field":
            den = c.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator of {c} vanishes mod {self.p}")
            return c.numerator * pow(den, self.p - 2, self.p) % self.p
        if self.kind == "rational":
            return Fraction(c)
        if c.denominator != 1:
            raise ValueError(f"{c} is not an integer coefficient")
        return c.numerator

    def inv(self, a):
        if self.kind == "prime_field":
            return pow(a, self.p - 2, self.p)
        if self.kind == "rational":
            return Fraction(1) / a
        raise ZeroDivisionError("integers are not a field")

    def __str__(self):
        return {"rational": "QQ", "integer": "ZZ"}.get(self.kind) or f"GF({self.p})"


def _identity(a):
    return a


QQ = CoefficientDomain("rational")
ZZ = CoefficientDomain("integer")

_GF_CACHE: dict[int, CoefficientDomain] = {}


def GF(p: int) -> CoefficientDomain:
    if p not in _GF_CACHE:
        _GF_CACHE[p] = CoefficientDomain("prime_field", p)
    return _GF_CACHE[p]


def domain_from_string(text: str) -> CoefficientDomain:
    """Inverse of str(): "QQ", "ZZ", or "GF(p)"."""
    text = text.strip()
    if text == "QQ":
        return QQ
    if text == "ZZ":
        return ZZ
    m = re.fullmatch(r"GF\((\d+)\)", text)
    if m:
        return GF(int(m.group(1)))
    raise ValueError(f"unknown coefficient domain {text!r}")


# --------------------------------------------------------------------------
# monomial helpers (monomials are exponent tuples)


def monomial_mul(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a: tuple, b: tuple) -> bool:
    """True iff x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a: tuple, b: tuple) -> tuple:
    """Exponent vector of x^a / x^b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


# --------------------------------------------------------------------------
# rings and polynomials


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class PolyRing(Record):
    """Ambient ring descriptor: ordered variable names plus a domain.

    Two independently constructed descriptors with the same data compare
    equal, so polynomials built by different modules interoperate.
    """

    variables: tuple[str, ...]
    domain: CoefficientDomain

    def __post_init__(self):
        if not self.variables:
            raise ValueError("a polynomial ring needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        for v in self.variables:
            if not _NAME_RE.match(v):
                raise ValueError(f"bad variable name {v!r}")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(f"no variable {name!r} in {self}") from None

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c) -> "Polynomial":
        c = self.domain.normalize(c)
        if c == 0:
            return Polynomial(self, {})
        return Polynomial(self, {(0,) * self.nvars: c}, _normalized=True)

    def gen(self, name: str) -> "Polynomial":
        e = [0] * self.nvars
        e[self.var_index(name)] = 1
        return Polynomial(self, {tuple(e): self.domain.normalize(1)}, _normalized=True)

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(self.gen(v) for v in self.variables)

    def monomial(self, exponents, coeff=1) -> "Polynomial":
        return Polynomial(self, {tuple(exponents): coeff})

    def parse(self, text: str) -> "Polynomial":
        return parse_polynomial(self, text)

    def __str__(self):
        return f"{self.domain}[{','.join(self.variables)}]"


def _print_key(e: tuple):
    # fixed printing order: graded reverse lexicographic, descending
    return (-sum(e),) + tuple(reversed(e))


class Polynomial:
    """Sparse polynomial: a map from exponent tuples to nonzero coefficients.

    Instances are immutable by convention; every operation returns a new
    polynomial.  Scalars (int, Fraction) coerce on the fly in arithmetic.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict, _normalized=False):
        self.ring = ring
        if _normalized:
            self.terms = terms
            return
        dom = ring.domain
        clean = {}
        for e, c in terms.items():
            e = tuple(e)
            if len(e) != ring.nvars or any(x < 0 for x in e):
                raise ValueError(f"bad exponent vector {e} for {ring}")
            c = dom.normalize(c)
            if c != 0:
                clean[e] = c
        self.terms = clean

    # -- predicates and accessors

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(map(sum, self.terms), default=-1)

    def constant_value(self):
        """The coefficient of 1, assuming the polynomial is constant."""
        if self.is_zero:
            return self.ring.domain.normalize(0)
        ((e, c),) = self.terms.items()
        if any(e):
            raise ValueError(f"{self} is not constant")
        return c

    # -- arithmetic

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise RingMismatchError(f"{other.ring} != {self.ring}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        norm = self.ring.domain.norm
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = norm(out.get(e, 0) + c)
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return Polynomial(self.ring, out, _normalized=True)

    __radd__ = __add__

    def __neg__(self):
        norm = self.ring.domain.norm
        return Polynomial(
            self.ring, {e: norm(-c) for e, c in self.terms.items()}, _normalized=True
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        raw: dict = {}
        get = raw.get
        pairs = other.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in pairs:
                e = tuple(map(add, e1, e2))
                raw[e] = get(e, 0) + c1 * c2
        return Polynomial(self.ring, _nonzero(raw, self.ring.domain.norm),
                          _normalized=True)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base2 = base * base if n > 1 else base
            base, n = base2, n >> 1
        return result

    # -- comparison and printing

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def sorted_terms(self) -> list[tuple[tuple, object]]:
        """Terms in the fixed (grevlex-descending) printing order."""
        return sorted(self.terms.items(), key=lambda item: _print_key(item[0]))

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"<{self} over {self.ring}>"

    # -- substitution

    def substitute(self, assignment: dict) -> "Polynomial":
        """Simultaneous substitution of variables by polynomials or constants.

        The assignment maps variable names to values; unmentioned variables
        stay put.  Unknown names raise KeyError.  Each image's powers are
        built once per call, every piece is summed into one dict, and the
        sums are normalized once at the end.
        """
        ring = self.ring
        images = {}
        for name, val in assignment.items():
            i = ring.var_index(name)
            if not isinstance(val, Polynomial):
                val = ring.const(val)
            elif val.ring != ring:
                raise RingMismatchError(f"substitution value for {name} in {val.ring}")
            images[i] = val
        if not images:
            return self
        # one row of powers per image, up to the largest exponent needed; a
        # constant image scales the coefficient, any other is multiplied in
        scalars, powers = [], []
        norm = ring.domain.norm
        for i, val in images.items():
            top = max((e[i] for e in self.terms), default=0)
            if val.total_degree() > 0:
                row = [ring.one()]
                for _ in range(top):
                    row.append(row[-1] * val)
                powers.append((i, row))
            else:
                c = val.constant_value()
                row = [1]
                for _ in range(top):
                    row.append(norm(row[-1] * c))
                scalars.append((i, row))
        raw: dict = {}
        get = raw.get
        for e, c in self.terms.items():
            for i, row in scalars:
                c = c * row[e[i]]
            rest = tuple(0 if i in images else x for i, x in enumerate(e))
            factor = None
            for i, row in powers:
                if e[i]:
                    factor = row[e[i]] if factor is None else factor * row[e[i]]
            if factor is None:
                raw[rest] = get(rest, 0) + c
                continue
            for e2, c2 in factor.terms.items():
                e2 = tuple(map(add, rest, e2))
                raw[e2] = get(e2, 0) + c * c2
        return Polynomial(ring, _nonzero(raw, norm), _normalized=True)


def _nonzero(raw: dict, norm) -> dict:
    """Raw coefficient sums, each normalized once, zeros dropped."""
    return {e: c for e, c in zip(raw, map(norm, raw.values())) if c}


# --------------------------------------------------------------------------
# domain-changing maps


def divide_exact_by_integer(f: Polynomial, n: int) -> Polynomial:
    """f / n with exact integer coefficients; f must live over Z.

    Raises NonDivisibleError naming the first offending monomial when some
    coefficient is not a multiple of n.
    """
    if f.ring.domain != ZZ:
        raise ValueError("exact integer division requires an integer-coefficient ring")
    if n <= 0:
        raise ValueError("divisor must be a positive integer")
    out = {}
    for e, c in sorted(f.terms.items(), key=lambda item: _print_key(item[0])):
        q, r = divmod(c, n)
        if r != 0:
            raise NonDivisibleError(
                f"coefficient {c} of monomial {_format_monomial(f.ring, e) or '1'} "
                f"is not divisible by {n}",
                monomial=e,
            )
        out[e] = q
    return Polynomial(f.ring, out)


def reduce_mod_p(f: Polynomial, p: int) -> Polynomial:
    """Coefficient-wise reduction Z[x] -> F_p[x]; terms that vanish drop out."""
    if f.ring.domain != ZZ:
        raise ValueError("reduce_mod_p expects integer coefficients")
    return convert(f, PolyRing(f.ring.variables, GF(p)))


def convert(f: Polynomial, target: PolyRing) -> Polynomial:
    """Move a polynomial to another ring, mapping variables by name.

    Every variable that occurs in f must be one of target's.  The target
    domain normalizes each coefficient: Z -> Q and Z -> F_p always work;
    Q -> F_p works when no denominator is divisible by p; Q -> Z requires
    all coefficients integral.
    """
    if f.ring == target:
        return f
    names = f.ring.variables
    where = [target.variables.index(v) if v in target.variables else None
             for v in names]
    out = {}
    for e, c in f.terms.items():
        e2 = [0] * target.nvars
        for i, x, name in zip(where, e, names):
            if x:
                if i is None:
                    raise RingMismatchError(f"{f} involves {name}, which {target} lacks")
                e2[i] = x
        out[tuple(e2)] = c
    return Polynomial(target, out)


# --------------------------------------------------------------------------
# multigradings


class _AnyDegree:
    """Degree of the zero polynomial: compatible with every degree."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ANY_DEGREE"


ANY_DEGREE = _AnyDegree()


class Multigrading(Record):
    """Z^d weight vector per ring variable, in declaration order."""

    weights: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        ranks = {len(w) for w in self.weights}
        if len(ranks) > 1:
            raise ValueError("all weight vectors must share one rank")

    @property
    def rank(self) -> int:
        return len(self.weights[0]) if self.weights else 0

    @classmethod
    def from_dict(cls, ring: PolyRing, table: dict[str, tuple]) -> "Multigrading":
        missing = set(ring.variables) - set(table)
        if missing:
            raise ValueError(f"no weights for {sorted(missing)}")
        return cls(tuple(tuple(table[v]) for v in ring.variables))

    def monomial_degree(self, e: tuple) -> tuple[int, ...]:
        deg = [0] * self.rank
        for x, w in zip(e, self.weights):
            if x:
                for j, wj in enumerate(w):
                    deg[j] += x * wj
        return tuple(deg)


def multidegree(f: Polynomial, grading: Multigrading):
    """Common weighted degree of all terms of f.

    Returns the degree tuple when f is homogeneous under the grading, None
    when it is not, and the ANY_DEGREE marker for the zero polynomial, so
    that homogeneity filters compose.
    """
    if len(grading.weights) != f.ring.nvars:
        raise ValueError("grading rank does not match the ring's variable count")
    if f.is_zero:
        return ANY_DEGREE
    it = iter(f.terms)
    deg = grading.monomial_degree(next(it))
    for e in it:
        if grading.monomial_degree(e) != deg:
            return None
    return deg


# --------------------------------------------------------------------------
# monomial orders


class MonomialOrder(Record):
    """Total multiplicative order on monomials with 1 minimal.

    Subclasses provide key(ring) -> function mapping an exponent tuple to a
    flat tuple of ints; bigger key means bigger monomial.  The Groebner
    engine compares packed monomials instead; the keys serve exact_divide
    and the reference implementations in the tests.
    """

    def key(self, ring: PolyRing):
        raise NotImplementedError


class Lex(MonomialOrder):
    def key(self, ring):
        return lambda e: e

    def __str__(self):
        return "lex"


class GrevLex(MonomialOrder):
    def key(self, ring):
        def k(e):
            return (sum(e),) + tuple(-x for x in reversed(e))

        return k

    def __str__(self):
        return "grevlex"


class BlockElimination(MonomialOrder):
    """Eliminates the front variables: any monomial involving them beats any
    monomial free of them.  Front block compares by grevlex, the rest by the
    inner order."""

    front: tuple[str, ...]
    inner: MonomialOrder = GrevLex()

    def key(self, ring):
        fidx = [ring.var_index(v) for v in self.front]
        ridx = [i for i in range(ring.nvars) if i not in set(fidx)]
        rest_ring = PolyRing(tuple(ring.variables[i] for i in ridx), ring.domain) \
            if ridx else None
        inner_key = self.inner.key(rest_ring) if rest_ring else (lambda e: ())

        def k(e):
            front = tuple(e[i] for i in fidx)
            rest = tuple(e[i] for i in ridx)
            return (
                (sum(front),)
                + tuple(-x for x in reversed(front))
                + tuple(inner_key(rest))
            )

        return k

    def __str__(self):
        return f"eliminate({','.join(self.front)})"


# --------------------------------------------------------------------------
# text form


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"bad character at position {pos}: {text[pos:pos + 10]!r}")
        if m.lastgroup == "num":
            out.append(("num", int(m.group("num"))))
        elif m.lastgroup == "name":
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
        pos = m.end()
    return out


class _Parser:
    """Recursive descent over +, -, *, /, ^ and parentheses."""

    def __init__(self, ring: PolyRing, tokens):
        self.ring = ring
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self) -> Polynomial:
        p = self.expr()
        if self.pos != len(self.tokens):
            raise ParseError(f"trailing input at token {self.pos}")
        return p

    def expr(self) -> Polynomial:
        sign = 1
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
        acc = self.term() * sign
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                nxt = self.term()
                acc = acc + (nxt if val == "+" else -nxt)
            else:
                return acc

    def term(self) -> Polynomial:
        acc = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.factor()
                if val == "*":
                    acc = acc * rhs
                else:
                    c = rhs.constant_value()
                    if c == 0:
                        raise ParseError("division by zero")
                    acc = self._divide_by_constant(acc, c)
            else:
                return acc

    def _divide_by_constant(self, f: Polynomial, c) -> Polynomial:
        dom = self.ring.domain
        if dom.is_field:
            return f * self.ring.const(dom.inv(c))
        return divide_exact_by_integer(f, int(c)) if c > 0 else \
            -divide_exact_by_integer(f, -int(c))

    def factor(self) -> Polynomial:
        kind, val = self.take()
        if kind == "num":
            base = self.ring.const(val)
        elif kind == "name":
            base = self.ring.gen(val)
        elif kind == "op" and val == "(":
            base = self.expr()
            kind, val = self.take()
            if (kind, val) != ("op", ")"):
                raise ParseError("missing closing parenthesis")
        elif kind == "op" and val == "-":
            return -self.factor()
        else:
            raise ParseError(f"unexpected token {val!r}")
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val = self.take()
            if kind != "num":
                raise ParseError("exponent must be a number")
            base = base ** val
        return base


def parse_polynomial(ring: PolyRing, text: str) -> Polynomial:
    """Parse standard infix form, e.g. "s*u^2*x^2 - 2*x*y + 1/2"."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input")
    return _Parser(ring, tokens).parse()


def _format_monomial(ring: PolyRing, e: tuple) -> str:
    parts = []
    for name, x in zip(ring.variables, e):
        if x == 1:
            parts.append(name)
        elif x > 1:
            parts.append(f"{name}^{x}")
    return "*".join(parts)


def _format_coeff(c) -> str:
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    return str(int(c))


def format_polynomial(f: Polynomial) -> str:
    """Canonical infix form; round-trips exactly through parse_polynomial."""
    if f.is_zero:
        return "0"
    pieces = []
    for e, c in f.sorted_terms():
        mono = _format_monomial(f.ring, e)
        neg = c < 0
        mag = -c if neg else c
        if not mono:
            body = _format_coeff(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{_format_coeff(mag)}*{mono}"
        if not pieces:
            pieces.append(f"-{body}" if neg else body)
        else:
            pieces.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(pieces)

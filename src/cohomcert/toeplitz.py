"""The tridiagonal determinant family Q_n(s,t).

Q_n is the determinant of the n x n Toeplitz matrix with t on the main
diagonal and s on the two adjacent ones.  The module keeps two independent
routes to Q_n -- cofactor expansion of the matrix (the oracle) and the
two-term recursion -- plus the generating-function identity, checked one
z-coefficient at a time, the exact Chebyshev identity that pins the complex
roots of Q_n(1,t), and irreducible-factor censuses over prime fields.  The
family lives over ZZ as one dense int row per n; there is no floating point.

The oracle expands each minor (bottom rows, a set of columns) once per
call, as a dense homogeneous row.  The census factors Q_n(1,t) one
cyclotomic piece Psi_d at a time, each an exact quotient split once, in a
bounded number of random draws, at a degree that d and p fix; an inexact
division, a wrong product or a split that fails is an engine error, never
a verdict.  The census row check, census_rows_sound, is the only
irreducibility certificate: factor_census runs it on its own rows before
it returns them, and reverify runs it on a reported census.  It certifies
one factor of each mirror pair by Rabin's test (t -> -t is a ring
automorphism, so the other is irreducible with it), and asks that the rows
equal, as JSON, what census_rows derives from their factorizations.
_print_factor and _read_factor print and read factor names.
"""

from __future__ import annotations

import random
import re
import sys
from array import array
from collections import Counter
from functools import lru_cache
from itertools import zip_longest
from math import comb

from .polyring import (
    GF,
    ZZ,
    NonDivisibleError,
    Polynomial,
    PolyRing,
    Record,
)

ST_RING = PolyRing(("s", "t"), ZZ)

_EDF_SEED = 271828182845
_EDF_DRAWS = 128  # random elements equal-degree splitting may draw


class ToeplitzMatrix(Record):
    """n x n matrix with t on the diagonal, s beside it, zero elsewhere.

    n = 0 (the empty matrix, determinant 1 by convention) is allowed as a
    value; build_matrix itself requires n >= 1.
    """

    n: int
    entries: tuple[tuple[Polynomial, ...], ...]

    def __post_init__(self):
        if self.n < 0 or len(self.entries) != self.n:
            raise ValueError("entry grid does not match the declared size")
        s, t = ST_RING.gen("s"), ST_RING.gen("t")
        zero = ST_RING.zero()
        for i, row in enumerate(self.entries):
            if len(row) != self.n:
                raise ValueError("entry grid is not square")
            for j, e in enumerate(row):
                want = t if i == j else s if abs(i - j) == 1 else zero
                if e != want:
                    raise ValueError(f"entry ({i},{j}) breaks the Toeplitz pattern")


def build_matrix(n: int) -> ToeplitzMatrix:
    """The matrix M_n; requires n >= 1."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"matrix size must be a positive integer, got {n}")
    s, t = ST_RING.gen("s"), ST_RING.gen("t")
    zero = ST_RING.zero()
    rows = tuple(
        tuple(t if i == j else s if abs(i - j) == 1 else zero for j in range(n))
        for i in range(n)
    )
    return ToeplitzMatrix(n, rows)


def _det_minor(rows, cols, memo) -> list:
    """Determinant of the bottom len(cols) rows restricted to cols, by
    expansion along its first row, as a dense homogeneous row: the
    coefficient of s^(k-j) t^j at index j for k = len(cols).  Each entry is
    a pair (coefficient of s, coefficient of t); memo maps cols to values
    already expanded."""
    if not cols:
        return [1]
    if cols in memo:
        return memo[cols]
    row = rows[len(rows) - len(cols)]
    total = [0] * (len(cols) + 1)
    sign = 1
    for j, c in enumerate(cols):
        a, b = row[c]
        if a or b:
            for k, m in enumerate(_det_minor(rows, cols[:j] + cols[j + 1:], memo)):
                total[k] += sign * a * m
                total[k + 1] += sign * b * m
        sign = -sign
    memo[cols] = total
    return total


def det_oracle(M: ToeplitzMatrix) -> Polynomial:
    """Determinant by cofactor expansion.

    Deliberately independent of the recursion it is used to check: every
    minor is expanded from the matrix entries, once per call, keyed on the
    columns it keeps.  Each entry is a linear form in s and t (the matrix
    validates it), read as the pair of its coefficients, so a k x k minor
    is homogeneous of degree k and is kept as one dense row.  The empty
    matrix has determinant 1.
    """
    rows = tuple(tuple((e.terms.get((1, 0), 0), e.terms.get((0, 1), 0))
                       for e in row) for row in M.entries)
    det = _det_minor(rows, tuple(range(M.n)), {})
    return Polynomial(ST_RING, {(M.n - j, j): c for j, c in enumerate(det) if c},
                      _normalized=True)


class QnPolynomial(Record):
    n: int
    poly: Polynomial


@lru_cache(maxsize=None)
def _qn_row(n: int) -> tuple:
    """Row n: the coefficient of s^(n-j) t^j at index j (Q_n is homogeneous),
    so Q_{n+2}[j] = Q_{n+1}[j-1] - Q_n[j].  Each row comes from the two
    cached rows below it, so the family up to n costs n steps in total.  A
    cold call fills row n - 256 first, so no call recurses through more
    than 256 missing rows."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"index must be a non-negative integer, got {n}")
    if n < 2:
        return ((1,), (0, 1))[n]
    if n > 256:
        _qn_row(n - 256)
    last, prev = _qn_row(n - 1), _qn_row(n - 2)
    return tuple(b - a for b, a in zip((0,) + last, prev + (0, 0)))


def qn_recursive(n: int) -> QnPolynomial:
    """Q_0 = 1, Q_1 = t, Q_{n+2} = t*Q_{n+1} - s^2*Q_n, memoized as dense
    rows; each call builds a fresh polynomial from row n."""
    terms = {(n - j, j): c for j, c in reversed(list(enumerate(_qn_row(n)))) if c}
    return QnPolynomial(n, Polynomial(ST_RING, terms, _normalized=True))


def qn_row_fp(n: int, p: int) -> list:
    """Q_n(1, t) over F_p as a dense little-endian list: row n, reduced mod
    p.  The t^n coefficient is 1, so the list has length n + 1."""
    return [c % p for c in _qn_row(n)]


def qn_dehomogenized(n: int, p: int) -> Polynomial:
    """Q_n(1, t) as a univariate polynomial over F_p."""
    terms = {(j,): c for j, c in enumerate(qn_row_fp(n, p)) if c}
    return Polynomial(PolyRing(("t",), GF(p)), terms, _normalized=True)


def _member_row(member: QnPolynomial, n: int):
    """The dense row of a family member claimed to be Q_n: the coefficient
    of s^(n-j) t^j at index j, or None if it is not homogeneous of degree
    n.  A non-integral coefficient raises ValueError."""
    row = [0] * (n + 1)
    homogeneous = True
    for (i, j), c in member.poly.terms.items():
        c = ZZ.normalize(c)
        if i + j == n:
            row[j] = c
        else:
            homogeneous = False
    return row if homogeneous else None


def generating_check(N: int, family=qn_recursive) -> bool:
    """Verify (sum_{n<=N} Q_n z^n) * (1 - t z + s^2 z^2) = 1 + O(z^{N+1}).

    One z-coefficient at a time, on dense rows over Z: the coefficient of
    s^(n-j) t^j z^n is Q_n[j] - Q_(n-1)[j-1] + Q_(n-2)[j], which must be 1
    at n = j = 0 and 0 otherwise.  `family` exists so tests can feed a
    sabotaged sequence; each member is read into a row when the identity
    reaches it, so no member past the first failing z-coefficient is
    built.  A member that is not homogeneous of degree n fails the check:
    Q_0..Q_(n-1) fix Q_n, homogeneous of degree n, so the identity fails
    at the first such n.  A member read with a non-integral coefficient
    raises ValueError.
    """
    if N < 2:
        raise ValueError("truncation order must be at least 2")
    prev, last = (), ()
    for n in range(N + 1):
        row = _qn_row(n) if family is qn_recursive else _member_row(family(n), n)
        if row is None or [c - a + b for c, a, b in
                           zip_longest(row, (0, *last), prev, fillvalue=0)] \
                != [int(n == 0)] + [0] * n:
            return False
        prev, last = last, row
    return True


def chebyshev_identity_check(n: int) -> bool:
    """Check x^n * Q_n(1, x + 1/x) = 1 + x^2 + ... + x^(2n) over ZZ.

    The right side is (x^(2n+2) - 1)/(x^2 - 1), so the identity pins the
    complex factorization exactly: the roots of Q_n(1,t) are x + 1/x for
    the 2(n+1)-th roots of unity x other than +-1, that is
    t = 2 cos(r pi / (n+1)) for r = 1..n.  The left side is
    sum_j c_j x^(n-j) (x^2 + 1)^j over the coefficients c_j of t^j in
    Q_n(1,t), expanded by binomials.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    coeffs = [0] * (n + 1)
    # summed at s = 1, so a member that is not homogeneous is judged too
    for (_, j), c in qn_recursive(n).poly.terms.items():
        if j > n:
            return False
        coeffs[j] += c
    lhs = [0] * (2 * n + 1)
    for j, c in enumerate(coeffs):
        if c:
            for i, b in enumerate(_binomial_row(j)):
                lhs[n - j + 2 * i] += c * b
    return lhs == [1 - k % 2 for k in range(2 * n + 1)]


@lru_cache(maxsize=None)
def _binomial_row(j: int) -> tuple:
    return tuple(comb(j, i) for i in range(j + 1))


# --------------------------------------------------------------------------
# univariate factorization over F_p
#
# Squarefree decomposition, then distinct-degree splitting, then
# equal-degree splitting (Cantor-Zassenhaus for odd p, the trace map for
# p = 2) with a fixed-seed generator so runs are reproducible bit for bit.
# The census knows each degree in advance and skips the first two.
#
# The arithmetic runs on packed polynomials (Kronecker substitution): one
# integer holds coefficient i in its W-bit slot i, so one big-integer
# operation acts on every coefficient at once.  Slots stay unreduced
# between operations while they are at most a bound V, and are reduced mod
# p all at once by multiply-shift-mask, exact division by an invariant
# integer (Granlund-Montgomery 1994).  Products are reduced mod f by
# polynomial Barrett, remainders and gcds by one quotient step per slot
# read, and Frobenius powers h -> h^p mod f (the degree certificate,
# distinct-degree splitting, and the norm a^((p^d-1)/2) of equal-degree
# splitting) by a table of x^(i*p) mod f, one packed sum each, instead of
# square-and-multiply (von zur Gathen-Shoup 1992).  Dense coefficient
# lists go in and come out only at the edges of the kernel.


_BYTEORDER = sys.byteorder
_TYPECODES = {array(code).itemsize: code for code in "BHILQ"}


def _slot_width(bound):
    """Bytes per slot holding every value up to bound: the smallest of 1,
    2, 4 and 8 that does, otherwise the exact byte count."""
    need = (bound.bit_length() + 7) // 8
    return next((w for w in (1, 2, 4, 8) if w >= need), need)


def _pack(coeffs, width):
    code = _TYPECODES.get(width)
    if code is not None:
        data = array(code, coeffs).tobytes()
    else:
        data = b"".join(c.to_bytes(width, _BYTEORDER) for c in coeffs)
    return int.from_bytes(data, _BYTEORDER)


def _slot_values(x, count, width):
    """The first count slots of a packed integer, as they stand."""
    data = x.to_bytes(count * width, _BYTEORDER)
    code = _TYPECODES.get(width)
    if code is not None:
        return array(code, data)
    return [int.from_bytes(data[i:i + width], _BYTEORDER)
            for i in range(0, len(data), width)]


class _Slots:
    """Packed arithmetic over F_p on polynomials of degree at most 2n.

    A packed value is reduced when every slot is in [0, p): then it is 0
    for the zero polynomial, and its degree is (bit_length - 1) // W.  No
    slot exceeds V = n*p*(p-1) + p in any operation here:
    - a product of reduced operands with at most n slots, or a sum of n
      reduced operands times coefficients, reaches n*(p-1)^2;
    - a remainder step adds c*(p - g_i) <= (p-1)*p to the slots below the
      divisor's leading slot, and for a dividend of degree at most 2n a
      slot lies there in at most n steps.
    With k = bitlen(V) + bitlen(p) and M = ceil(2^k/p), floor(v*M / 2^k)
    is floor(v/p) for every v <= V, since v*(M*p - 2^k) < 2^k.  The slot
    width W is the least of 8, 16, 32 and 64 bits, or above 64 the least
    multiple of 8, with V*M < 2^W, so no slot of X*M carries into the next
    and red reduces every slot at once.
    """

    __slots__ = ("p", "n", "width", "bits", "k", "magic", "mask", "pall")

    def __init__(self, n, p):
        self.p, self.n = p, n
        bound = n * p * (p - 1) + p
        self.k = bound.bit_length() + p.bit_length()
        self.magic = -(-(1 << self.k) // p)
        self.width = _slot_width(bound * self.magic)
        self.bits = w = 8 * self.width
        ones = ((1 << (2 * n + 1) * w) - 1) // ((1 << w) - 1)
        self.mask = ((1 << w - self.k) - 1) * ones
        self.pall = p * ones

    def pack(self, coeffs):
        """The packed form of a dense list with entries in [0, p)."""
        return _pack(coeffs, self.width)

    def unpack(self, x):
        """The dense coefficient list of a reduced x."""
        return list(_slot_values(x, self.degree(x) + 1, self.width))

    def degree(self, x):
        return (x.bit_length() - 1) // self.bits

    def red(self, x):
        """x with every slot reduced mod p, for slots at most V."""
        return x - ((x * self.magic >> self.k) & self.mask) * self.p

    def sub(self, a, b):
        """a - b for reduced a and b of degree at most 2n."""
        return self.red(a + self.pall - b)

    def divmod(self, a, g):
        """Quotient and remainder of a reduced a of degree at most 2n by a
        reduced nonzero g.  The negated divisor is kept as p - g_i."""
        w, p = self.bits, self.p
        dg = (g.bit_length() - 1) // w
        if dg < 0:
            raise ZeroDivisionError("division by the zero polynomial")
        inv = pow(g >> dg * w, -1, p)
        low = (1 << dg * w) - 1
        neg, top, q = self.pall - g & low, (1 << w) - 1, 0
        for shift in range((a.bit_length() - 1) // w * w, dg * w - 1, -w):
            c = (a >> shift & top) * inv % p
            if c:
                q |= c << shift - dg * w
                a += c * neg << shift - dg * w
        return q, self.red(a & low)

    def gcd(self, a, b):
        """The monic gcd of reduced a and b of degree at most 2n."""
        while b:
            a, b = b, self.divmod(a, b)[1]
        lead = a >> self.degree(a) * self.bits if a else 1
        return a if lead == 1 else self.red(a * pow(lead, -1, self.p))


class _Modulus(_Slots):
    """Multiplication and the Frobenius map modulo a monic f of degree
    n >= 1 over F_p, on packed values reduced mod p and mod f.

    Built once per modulus.  A product X of degree at most 2n-2 is reduced
    mod f by polynomial Barrett: with mu = floor(x^(2n-2)/f), the quotient
    floor(X/f) is exactly floor(floor(X/x^n) * mu / x^(n-2)), and dropping
    low slots commutes with reducing slots mod p; the remainder is the low
    n slots of X + quotient*(p - f).  The Frobenius table, built on first
    use, holds x^(i*p) mod f for i < n, each the one before times x^p mod
    f: a -> a^p is linear over F_p, so a^p mod f is the sum of
    a_i * (x^(i*p) mod f), reduced once.
    """

    __slots__ = ("packed", "x", "low", "mu", "negf", "frob")

    def __init__(self, f, p):
        n = len(f) - 1
        super().__init__(n, p)
        w = self.bits
        self.packed = self.pack(f)
        self.low = (1 << n * w) - 1
        self.negf = self.pall - self.packed & self.low
        self.mu = self.divmod(1 << (2 * n - 2) * w, self.packed)[0]
        self.x = 1 << w if n > 1 else -f[0] % p  # x mod f
        self.frob = None

    def mul(self, a, b):
        """a*b mod f for reduced a and b of degree < n."""
        x = self.red(a * b)
        hi = x >> self.n * self.bits
        if hi:
            q = self.red(hi * self.mu) >> (self.n - 2) * self.bits
            x = self.red((x & self.low) + (q * self.negf & self.low))
        return x

    def frobenius(self, a):
        """a^p mod f for a reduced a of degree at most 2n."""
        if a >> self.n * self.bits:
            a = self.divmod(a, self.packed)[1]
        if self.frob is None:
            xp = _upow_mod(self.x, self.p, self)
            self.frob = [1]
            for _ in range(self.n - 1):
                self.frob.append(self.mul(self.frob[-1], xp))
        acc = 0
        for c, row in zip(_slot_values(a, self.n, self.width), self.frob):
            if c:
                acc += c * row
        return self.red(acc)


def _upow_mod(a, e, mod):
    """a^e mod f for a reduced packed a of degree at most 2n, by
    square-and-multiply in the modulus context."""
    base = mod.divmod(a, mod.packed)[1] if a >> mod.n * mod.bits else a
    result = 1
    while e:
        if e & 1:
            result = mod.mul(result, base)
        e >>= 1
        if e:
            base = mod.mul(base, base)
    return result


def mul_fp(a, b, p):
    """Product of dense coefficient lists over F_p (entries in [0, p))."""
    if not a or not b:
        return []
    s = _Slots(max(len(a), len(b)), p)
    return s.unpack(s.red(s.pack(a) * s.pack(b)))


def power_product_fp(powers, p):
    """The product of g^m over the (g, m) in powers, for dense lists over
    F_p with entries in [0, p) and nonzero leading coefficients, by one
    exact integer product reduced mod p once.  Every coefficient is >= 0,
    so each coefficient of the product over ZZ is at most the product of
    the ||g||_1^m, below 2^B for B = sum m * bitlen(||g||_1): slots of B
    bits never carry."""
    bits = sum(m * sum(g).bit_length() for g, m in powers)
    width = _slot_width((1 << bits) - 1)
    x = 1
    for g, m in powers:
        x *= _pack(g, width) ** m
    count = sum(m * (len(g) - 1) for g, m in powers) + 1
    return _utrim([c % p for c in _slot_values(x, count, width)])


def mirror_fp(f, p):
    """(-1)^deg f * f(-t) for a dense coefficient list over F_p: an
    involution that maps irreducibles to irreducibles (t -> -t is a ring
    automorphism), keeps a monic f monic, and is the identity at p = 2."""
    d = len(f) - 1
    return [c if (d - i) % 2 == 0 else -c % p for i, c in enumerate(f)]


def dense_coefficients(f: Polynomial) -> list:
    """Little-endian coefficient list of a univariate polynomial."""
    dense = [0] * (f.total_degree() + 1)
    for e, c in f.terms.items():
        dense[e[0]] = c
    return dense


def _utrim(f):
    while f and f[-1] == 0:
        f.pop()
    return f

def _udeg(f):
    return len(f) - 1

def _umonic(f, p):
    if not f or f[-1] == 1:
        return list(f)
    inv = pow(f[-1], p - 2, p)
    return [c * inv % p for c in f]

def _udivmod(f, g, p):
    """Quotient and remainder of dense lists over F_p, g nonzero."""
    s = _Slots(max(len(f), 1), p)
    q, r = s.divmod(s.pack(f), s.pack(g))
    return s.unpack(q), s.unpack(r)

def _ugcd(f, g, p):
    s = _Slots(max(len(f), len(g), 1), p)
    return s.unpack(s.gcd(s.pack(f), s.pack(g)))

def _uderiv(f, p):
    return _utrim([i * c % p for i, c in enumerate(f)][1:])


def _squarefree(f, p):
    """Squarefree decomposition of a monic f: list of (factor, multiplicity)."""
    if _udeg(f) < 1:
        return []
    d = _uderiv(f, p)
    if not d:
        # f = u(x^p) = u(x)^p over the prime field
        root = _utrim([f[i] for i in range(0, len(f), p)])
        return [(g, m * p) for g, m in _squarefree(root, p)]
    out = []
    g = _ugcd(f, d, p)
    h = _udivmod(f, g, p)[0]
    i = 1
    while _udeg(h) > 0:
        G = _ugcd(g, h, p)
        H = _udivmod(h, G, p)[0]
        if _udeg(H) > 0:
            out.append((H, i))
        h = G
        g = _udivmod(g, G, p)[0]
        i += 1
    if _udeg(g) > 0:
        root = _utrim([g[i] for i in range(0, len(g), p)])
        out.extend((q, m * p) for q, m in _squarefree(root, p))
    return out


def _distinct_degree(f, p):
    """Split a squarefree monic f into (product, d) blocks."""
    out = []
    # h = x^(p^d) stays reduced mod the input f: the rest left after each
    # split divides it, so gcd(h - x, rest) is unchanged
    mod = _Modulus(f, p)
    rest, h, d = mod.packed, mod.x, 0
    while mod.degree(rest) > 0:
        d += 1
        if 2 * d > mod.degree(rest):
            out.append((mod.unpack(rest), mod.degree(rest)))
            break
        h = mod.frobenius(h)
        g = mod.gcd(mod.sub(h, mod.x), rest)
        if mod.degree(g) > 0:
            out.append((mod.unpack(g), d))
            rest = mod.divmod(rest, g)[0]
    return out


def _split_power(a, d, mod):
    """The Cantor-Zassenhaus splitting power a^((p^d-1)/2) mod f for odd
    p, as c^(1+p+...+p^(d-1)) with c = a^((p-1)/2): d-1 Frobenius images
    and d-1 products."""
    c = _upow_mod(a, (mod.p - 1) // 2, mod)
    b = c
    for _ in range(d - 1):
        b = mod.mul(mod.frobenius(b), c)
    return b


def _equal_degree(f, d, p, rng):
    """Factor a monic squarefree product of degree-d irreducibles.  Each
    random element is raised to the splitting power mod f once and splits
    every piece found so far, so no piece needs a modulus of its own.

    At most _EDF_DRAWS elements are drawn.  A draw is uniform mod f, and
    separates any two distinct factors g, g' still in one piece with
    probability at least 4/9, whatever came before: for odd p and
    q = p^d, a mod g and a mod g' are independent and uniform in F_q, and
    exactly one is a nonzero square with probability (q^2 - 1)/(2q^2),
    least at p = 3, d = 1; for p = 2 their traces differ with probability
    1/2.  There are at most C(deg f, 2) pairs, so some pair is still
    together after every draw with probability at most
    C(deg f, 2) * (5/9)^_EDF_DRAWS, below 2^-88 for deg f <= 1000.  At a
    wrong d the search may find too few pieces or pieces of another
    degree; either raises ArithmeticError, so every piece returned has
    degree exactly d."""
    n = _udeg(f)
    pieces, draws = [f], 0
    if n > d:
        mod = _Modulus(f, p)
        pieces = [mod.packed]
        while len(pieces) < n // d and draws < _EDF_DRAWS:
            draws += 1
            a = mod.pack([rng.randrange(p) for _ in range(n)])
            if mod.degree(a) < 1:
                continue  # a constant separates nothing
            if p == 2:
                # trace map: a + a^2 + a^4 + ... + a^(2^(d-1)) splits f
                b = 0
                for _ in range(d):
                    b += a
                    a = mod.mul(a, a)
                b = mod.red(b)
            else:
                b = mod.sub(_split_power(a, d, mod), 1)
            split = []
            for g in pieces:
                h = mod.gcd(b, g) if mod.degree(g) > d else g
                split += [h, mod.divmod(g, h)[0]] \
                    if 0 < mod.degree(h) < mod.degree(g) else [g]
            pieces = split
        pieces = [mod.unpack(g) for g in pieces]
    if any(_udeg(g) != d for g in pieces):
        raise ArithmeticError(f"coefficients {f} over GF({p}): not split into "
                              f"factors of degree {d} in {draws} draws")
    return pieces


def _factor_order(item):
    """Sort key of a (coefficient tuple, multiplicity) pair: degree, then
    coefficients."""
    return len(item[0]), item[0]


def _degree_certified(mod, e):
    """Is the monic f of mod a product of distinct irreducibles of degree
    exactly e?  Yes iff f divides x^(p^e) - x (f is squarefree, each factor
    degree divides e) and gcd(x^(p^(e/l)) - x, f) = 1 for each prime l | e
    (no factor degree divides e/l).  The iterates x^(p^k) mod f are
    computed once, k = 1..e in turn, each gcd taken when k reaches e/l."""
    checkpoints = {e // l for l in range(2, e + 1)
                   if e % l == 0 and all(l % k for k in range(2, l))}
    h = mod.x
    for k in range(1, e + 1):
        h = mod.frobenius(h)
        if k in checkpoints and \
                mod.degree(mod.gcd(mod.sub(h, mod.x), mod.packed)) != 0:
            return False
    return h == mod.x


def irreducible_fp(f, p) -> bool:
    """Deterministic irreducibility certificate (Rabin's test) for a monic
    dense coefficient list over F_p with entries in [0, p); any other list
    raises ValueError.  f of degree n >= 1 is irreducible iff it is a
    product of distinct irreducibles of degree exactly n."""
    if not f or f[-1] != 1 or not all(0 <= c < p for c in f):
        raise ValueError(f"not a monic coefficient list over GF({p}): {f}")
    n = _udeg(f)
    return n >= 1 and _degree_certified(_Modulus(f, p), n)


def irreducibility_certified(f: Polynomial) -> bool:
    """irreducible_fp for a univariate polynomial over F_p, made monic."""
    ring = f.ring
    if ring.domain.kind != "prime_field" or ring.nvars != 1:
        raise ValueError("irreducibility test expects one variable over F_p")
    p = ring.domain.p
    return not f.is_zero and irreducible_fp(_umonic(dense_coefficients(f), p), p)


def factor_univariate_fp(f: Polynomial) -> list[tuple[Polynomial, int]]:
    """Complete factorization of a nonzero univariate polynomial over F_p.

    Returns (monic irreducible, multiplicity) pairs, sorted by degree and
    then by coefficient list; the product of the factors times the leading
    coefficient of f reconstructs f exactly.
    """
    ring = f.ring
    if ring.domain.kind != "prime_field":
        raise ValueError("factorization works over a prime field")
    if ring.nvars != 1:
        raise ValueError("factorization expects one variable")
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    p = ring.domain.p
    rng = random.Random(_EDF_SEED)
    out = []
    for sq, mult in _squarefree(_umonic(dense_coefficients(f), p), p):
        for block, d in _distinct_degree(sq, p):
            out.extend((tuple(g), mult) for g in _equal_degree(block, d, p, rng))
    return [(Polynomial(ring, {(i,): c for i, c in enumerate(g) if c}), mult)
            for g, mult in sorted(out, key=_factor_order)]


# --------------------------------------------------------------------------
# census


class CensusRow(Record):
    n: int
    factors: tuple[str, ...]       # distinct irreducible factors of Q_n(1,t)
    new_factors: tuple[str, ...]   # those not seen at any smaller index
    cumulative_count: int
    factorization: tuple[tuple[str, int], ...]  # with multiplicities


class FactorCensus(Record):
    p: int
    n_max: int
    rows: tuple[CensusRow, ...]

    @property
    def cumulative_count(self) -> int:
        return self.rows[-1].cumulative_count if self.rows else 0

    def to_json_dict(self) -> dict:
        return census_json(self.p, self.n_max,
                           census_rows([r.factorization for r in self.rows]))


def census_rows(factorizations) -> list:
    """The JSON census rows of (factor, multiplicity) lists, row n from
    the list at position n - 1: its factors, those no earlier row has, and
    the count of distinct factors so far."""
    rows, seen = [], set()
    for n, factorization in enumerate(factorizations, 1):
        factors = [f for f, _ in factorization]
        new = [f for f in factors if f not in seen]
        seen.update(new)
        rows.append({"n": n, "factors": factors, "new_factors": new,
                     "cumulative_count": len(seen),
                     "factorization": [[f, m] for f, m in factorization]})
    return rows


def census_json(p: int, n_max: int, rows: list) -> dict:
    """The JSON form of a census over F_p for n = 1..n_max, from its rows
    in JSON form: every other field follows from p, n_max and the rows,
    and sound rows (census_rows_sound) follow from their factorizations."""
    return {
        "p": p,
        "n_max": n_max,
        "dehomogenized_at": "s=1",
        "note": (
            "finite-n evidence for the infinitude of distinct irreducible "
            "factors; the variable s itself never occurs as a factor"
        ),
        "first_occurrence": {f: row["n"] for row in rows
                             for f in row["new_factors"]},
        "rows": rows,
    }


# one term of a factor name over F_p: c*t^k, t^k, c*t, t or c, with no
# coefficient 1 on t and no exponent 0 or 1
_FACTOR_TERM = re.compile(r"(?:([1-9]\d*)\*)?t(?:\^([1-9]\d*))?|([1-9]\d*)")


def _print_factor(dense) -> str:
    """The name of a nonzero dense list over F_p with entries in [0, p),
    the string format_polynomial prints for it."""
    return " + ".join(
        str(c) if k == 0 else
        ("" if c == 1 else f"{c}*") + ("t" if k == 1 else f"t^{k}")
        for k, c in reversed(list(enumerate(dense))) if c)


def _read_factor(text: str, p: int, max_degree: int):
    """The dense list over F_p of degree at most max_degree that
    _print_factor names text; None for any other string.  No term longer
    than (p-1)*t^max_degree is matched or converted to ints."""
    longest = len(f"{p - 1}*t^{max_degree}")
    terms = []
    for piece in text.split(" + "):
        m = _FACTOR_TERM.fullmatch(piece) if len(piece) <= longest else None
        if m is None:
            return None
        coeff, exp, const = m.groups()
        if coeff == "1" or exp == "1":
            return None
        k, c = (0, int(const)) if const else (int(exp or 1), int(coeff or 1))
        if c >= p or k > max_degree or terms and terms[-1][0] <= k:
            return None
        terms.append((k, c))
    dense = [0] * (terms[0][0] + 1)
    for k, c in terms:
        dense[k] = c
    return dense


def census_rows_sound(p: int, rows) -> bool:
    """Do the census rows (JSON form) list, as row n, monic irreducible
    factors over F_p named as _print_factor names them, with int
    multiplicities and product Q_n(1,t), and equal, as JSON, the rows
    census_rows derives from those factorizations?  A value of any other
    shape is False.  Each distinct factor string is read and certified
    once, after its row's degrees add up to n.  t -> -t is a ring
    automorphism of F_p[t], so a factor whose mirror (-1)^deg g * g(-t) is
    already certified irreducible is irreducible without Rabin's test.  A
    row's product is one exact integer product of its factor powers.  The
    closing == cannot tell 1.0 or True from 1, so n and every count must
    be an int too."""
    if not isinstance(rows, list):
        return False
    read: dict = {}  # factor string -> dense tuple, or None if not monic canonical
    irreducible: set = set()  # dense coefficient tuples certified so far
    column = []
    for n, row in enumerate(rows, 1):
        entries = row.get("factorization") if isinstance(row, dict) else None
        if not isinstance(entries, list) or not all(
                isinstance(e, list) and len(e) == 2 and type(e[0]) is str
                and type(e[1]) is int for e in entries):
            return False
        powers = []
        for fac, m in entries:
            if fac not in read:
                g = _read_factor(fac, p, len(rows))
                read[fac] = tuple(g) if g and g[-1] == 1 else None
            if read[fac] is None:
                return False
            powers.append((read[fac], m))
        # degrees adding up to n bound the work before any arithmetic
        if any(len(g) < 2 or m < 1 for g, m in powers) or \
                sum((len(g) - 1) * m for g, m in powers) != n:
            return False
        for g, _ in powers:
            if not (g in irreducible or tuple(mirror_fp(g, p)) in irreducible
                    or irreducible_fp(g, p)):
                return False
            irreducible.add(g)
        if power_product_fp(powers, p) != qn_row_fp(n, p):
            return False
        column.append(entries)
    return rows == census_rows(column) and all(
        type(row["n"]) is int and type(row["cumulative_count"]) is int
        for row in rows)


def _split_degree(d, p):
    """The least e >= 1 with p^e = +-1 mod d, for d >= 3 prime to p: the
    degree over F_p of every irreducible factor of Psi_d."""
    e, r = 1, p % d
    while r not in (1, d - 1):
        e, r = e + 1, r * p % d
    return e


def factor_census(n_max: int, p: int) -> FactorCensus:
    """Factor Q_n(1,t) over F_p for n = 1..n_max and track distinct factors.

    Q_n is homogeneous of degree n, so distinctness of the irreducible
    factors of Q_n(s,t) reduces to distinctness for Q_n(1,t); s never
    divides Q_n (the t^n coefficient is 1).

    By the Chebyshev identity Q_n(1,t) is the product of Psi_d over
    d | D = 2(n+1), d >= 3, where Psi_d is the minimal polynomial of
    zeta_d + 1/zeta_d.  Each Psi_d is factored once, at the first row whose
    D it divides, and a row's factorization is the sum of its Psi_d's.
    Row n meets d = D, and d = n+1 too for n even:
    - odd n: Psi_D is Q_n(1,t) divided exactly by the older Psi_d;
    - even n = 2j: the row checks Q_n(1,t) = A_j * mirror(A_j), with
      A_j = Q_j(1,t) - Q_(j-1)(1,t), Q_0 = 1, and mirror(g) =
      (-1)^deg g * g(-t).  A_j is the product of Psi_2d over d | n+1,
      d >= 3, so Psi_D is A_j divided exactly by the older ones, and the
      factors of Psi_(n+1) = mirror(Psi_D) are mirrored into Psi_D's.
    For p prime to d, Psi_d is split by equal-degree splitting at the
    degree of _split_degree, in a bounded number of draws.  For
    d = p^a * d' with p prime to d', Psi_d is Psi_(d')^phi(p^a) when
    d' >= 3 and (t -+ 2)^(phi(p^a)/2) when d' is 1 or 2, checked by
    multiplying out.  Factors are ordered as factor_univariate_fp orders
    them, and census_rows derives the rest of each row from them.  Nothing
    here certifies irreducibility: the census ends by running
    census_rows_sound, the check reverify makes, on its own rows, so a
    factor that is not irreducible, or a row that is not what its
    factorization implies, never leaves this function.  A division,
    product, split or row check that comes out wrong raises
    ArithmeticError, never a verdict.
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    rng = random.Random(_EDF_SEED)
    name = lru_cache(maxsize=None)(_print_factor)  # each factor printed once
    dense_qn: dict[int, list] = {0: [1]}
    psi: dict[int, list] = {}      # d -> dense Psi_d
    psi_counts: dict[int, dict] = {}  # d -> {dense factor: multiplicity}

    def quotient(f, older, d):
        """Psi_d: f divided exactly by psi[k] for the k in older dividing d."""
        g = [1]
        for k in older:
            if d % k == 0:
                g = mul_fp(g, psi[k], p)
        q, remainder = _udivmod(f, g, p)
        if remainder:
            raise NonDivisibleError(f"Psi_{d} is not an exact quotient over GF({p})")
        return q

    def factor_psi(d):
        if d % p:
            return {tuple(g): 1 for g in
                    _equal_degree(psi[d], _split_degree(d, p), p, rng)}
        q, rest = 1, d
        while rest % p == 0:
            q, rest = q * p, rest // p
        phi = q - q // p
        if rest >= 3:
            counts = {g: m * phi for g, m in psi_counts[rest].items()}
        else:
            counts = {(-2 % p if rest == 1 else 2 % p, 1): phi // 2}
        if power_product_fp(counts.items(), p) != psi[d]:
            raise NonDivisibleError(f"Psi_{rest}^{phi} is not Psi_{d} over GF({p})")
        return counts

    factorizations = []
    for n in range(1, n_max + 1):
        dense_qn[n] = qn_row_fp(n, p)
        top = 2 * (n + 1)
        if n % 2:
            psi[top] = quotient(dense_qn[n], range(3, top), top)
            psi_counts[top] = factor_psi(top)
        else:
            j = n // 2
            # Q_j - Q_(j-1), whose t^j coefficient is 1
            half = [(a - b) % p for a, b in
                    zip_longest(dense_qn[j], dense_qn[j - 1], fillvalue=0)]
            if mul_fp(half, mirror_fp(half, p), p) != dense_qn[n]:
                raise NonDivisibleError(f"(Q_{j} - Q_{j - 1})(Q_{j} + Q_{j - 1}) "
                                        f"is not Q_{n}(1,t) over GF({p})")
            psi[top] = quotient(half, range(6, top, 2), top)
            psi[n + 1] = mirror_fp(psi[top], p)
            psi_counts[n + 1] = factor_psi(n + 1)
            psi_counts[top] = {tuple(mirror_fp(g, p)): m
                               for g, m in psi_counts[n + 1].items()}
        counts = Counter()
        for d in range(3, top + 1):
            if top % d == 0:
                counts.update(psi_counts[d])
        factorizations.append([(name(key), mult) for key, mult
                               in sorted(counts.items(), key=_factor_order)])
    rows = census_rows(factorizations)
    if not census_rows_sound(p, rows):
        raise ArithmeticError(f"the census over GF({p}) fails its row check")
    return FactorCensus(p, n_max, tuple(
        CensusRow(r["n"], tuple(r["factors"]), tuple(r["new_factors"]),
                  r["cumulative_count"], tuple(map(tuple, r["factorization"])))
        for r in rows))

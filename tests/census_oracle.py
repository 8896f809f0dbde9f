"""Brute-force factorization oracle over F_p by exhaustive trial division.

This is the reference the factor census is frozen against: no squarefree
decomposition, no Frobenius, no randomness -- just division by every monic
polynomial in increasing degree.  Quadratic in the candidate count, so it
only runs live for modest degrees; the n = 16 census value asserted in the
acceptance suite was produced by this oracle ahead of the build.  The
shape oracle at the end predicts every census row's degrees and
multiplicities from number theory alone, with no polynomial arithmetic.
"""

from math import gcd


def trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def divmod_p(f, g, p):
    f = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], p - 2, p)
    q = [0] * max(len(f) - dg, 0)
    while f and len(f) - 1 >= dg:
        c = (f[-1] * inv) % p
        k = len(f) - 1 - dg
        q[k] = c
        for i, gc in enumerate(g):
            f[k + i] = (f[k + i] - c * gc) % p
        trim(f)
    return trim(q), f


def monic_polys_of_degree(d, p):
    def rec(i, cur):
        if i == d:
            yield cur + [1]
            return
        for c in range(p):
            yield from rec(i + 1, cur + [c])

    yield from rec(0, [])


def smallest_factor(f, p):
    df = len(f) - 1
    for d in range(1, df // 2 + 1):
        for g in monic_polys_of_degree(d, p):
            q, r = divmod_p(f, g, p)
            if not r:
                return g, q
    return None, None


def brute_factorize(f, p):
    """Full factorization {coefficient tuple: multiplicity}; f nonzero."""
    out = {}
    lc = f[-1]
    if lc != 1:
        inv = pow(lc, p - 2, p)
        f = [(c * inv) % p for c in f]
    stack = [list(f)]
    while stack:
        g = stack.pop()
        if len(g) - 1 == 0:
            continue
        h, q = smallest_factor(g, p)
        if h is None:
            out[tuple(g)] = out.get(tuple(g), 0) + 1
        else:
            stack.append(h)
            stack.append(q)
    return out


def qn_dehom_dense(n, p):
    """Q_n(1, t) mod p as a little-endian coefficient list, by recursion."""
    a, b = [1], [0, 1]
    if n == 0:
        return a
    for _ in range(n - 1):
        tb = [0] + b
        nxt = [
            ((tb[i] if i < len(tb) else 0) - (a[i] if i < len(a) else 0)) % p
            for i in range(max(len(tb), len(a)))
        ]
        a, b = b, trim(nxt)
    return b


def brute_census_counts(n_max, p):
    """Cumulative distinct-irreducible counts for Q_1(1,t) ... Q_{n_max}(1,t)."""
    seen = set()
    counts = []
    for n in range(1, n_max + 1):
        seen.update(brute_factorize(qn_dehom_dense(n, p), p))
        counts.append(len(seen))
    return counts


# --------------------------------------------------------------------------
# shape oracle: the census predicted from d and p alone
#
# Q_n(1,t) is the product of Psi_d over d | 2(n+1), d >= 3, where Psi_d is
# the minimal polynomial of zeta_d + 1/zeta_d, of degree phi(d)/2.  Over
# F_p with p prime to d, Psi_d splits into phi(d)/(2e) distinct
# irreducibles of degree e, the least e >= 1 with p^e = +-1 (mod d).  For
# d = p^a * d' with p prime to d', Psi_d = Psi_(d')^phi(p^a) mod p when
# d' >= 3, and (t - 2)^(phi(p^a)/2) or (t + 2)^(phi(p^a)/2) when d' is 1
# or 2.  Factors of Psi_d' for distinct d' prime to p are distinct, and
# none is t -+ 2 (zeta + 1/zeta = +-2 only for zeta = +-1).


def euler_phi(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def plus_minus_order(d, p):
    """The least e >= 1 with p^e = +-1 (mod d); d >= 3, p prime to d."""
    e = 1
    while pow(p, e, d) not in (1, d - 1):
        e += 1
    return e


def census_shape(n_max, p):
    """For each row n = 1..n_max of the census of Q_n(1,t) over F_p: the
    sorted list of (degree, multiplicity) over its distinct irreducible
    factors, and the cumulative count of distinct factors up to n."""
    classes = {}  # d' prime to p, or "t-2" / "t+2" -> number of factors
    rows = []
    for n in range(1, n_max + 1):
        top = 2 * (n + 1)
        weight = {}  # class -> multiplicity in Q_n(1,t) of each of its factors
        for d in range(3, top + 1):
            if top % d:
                continue
            rest, q = d, 1
            while rest % p == 0:
                rest, q = rest // p, q * p
            phi_q = q - q // p
            if rest >= 3:
                weight[rest] = weight.get(rest, 0) + phi_q
            else:
                # at p = 2, rest is 1 and t - 2 = t + 2 = t
                sign = "t-2" if rest == 1 else "t+2"
                weight[sign] = weight.get(sign, 0) + phi_q // 2
        shape = []
        for cls, mult in weight.items():
            if isinstance(cls, int):
                e = plus_minus_order(cls, p)
                classes[cls] = euler_phi(cls) // (2 * e)
            else:
                e, classes[cls] = 1, 1
            shape += [(e, mult)] * classes[cls]
        rows.append((sorted(shape), sum(classes.values())))
    return rows

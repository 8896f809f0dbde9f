"""Oracles for the degree lemma behind the census row check.

The check (toeplitz.census_rows_sound) certifies irreducibility with no
Rabin's test.  It rests on integer identities, checked here over Z with
schoolbook arithmetic, and on the lemma itself, checked by running
Rabin's test on every factor the check accepts:

- Psi_d, the minimal polynomial of zeta_d + 1/zeta_d, is an exact
  quotient of rows of Q_n(1,t), and Phi_d(x) = x^(phi(d)/2) Psi_d(x + 1/x);
- Q_n(1,t) is the product of G_k over k | n+1, k >= 2, with G_k = Psi_2k
  for even k and Psi_k * Psi_2k for odd k;
- row n brings exactly one group no earlier row has, G_(n+1).
"""

from functools import lru_cache
from itertools import zip_longest
from math import gcd

import pytest

from cohomcert.toeplitz import (
    _group_degree,
    _qn_row,
    _read_factor,
    census_rows_sound,
    factor_census,
    irreducible_fp,
)

D_MAX = 130  # 2 * (64 + 1): every d the census meets up to n = 64


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _exact_div(f, g):
    """f / g over Z for a monic g dividing f exactly."""
    f, q = list(f), [0] * (len(f) - len(g) + 1)
    assert g[-1] == 1
    for k in range(len(q) - 1, -1, -1):
        q[k] = c = f[k + len(g) - 1]
        for i, y in enumerate(g):
            f[k + i] -= c * y
    assert not any(f), "not an exact quotient"
    return q


def _product(polys):
    out = [1]
    for g in polys:
        out = _mul(out, g)
    return out


def _phi(d):
    return sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)


@lru_cache(maxsize=None)
def _psi():
    """{d: Psi_d over Z} for 3 <= d <= D_MAX, each an exact quotient of
    rows of Q_n(1,t) by the older Psi_d', d' | d, 3 <= d' < d: of row
    d/2 - 1 = prod Psi_d' over d' | d for even d, and of
    Q_j(1,t) + Q_(j-1)(1,t) = prod Psi_d' over d' | d for odd d = 2j + 1
    (Q_2j = (Q_j - Q_(j-1)) (Q_j + Q_(j-1)))."""
    psi = {}
    for d in range(3, D_MAX + 1):
        if d % 2:
            j = d // 2
            row = [a + b for a, b in zip_longest(_qn_row(j), _qn_row(j - 1), fillvalue=0)]
        else:
            row = _qn_row(d // 2 - 1)
        psi[d] = _exact_div(row, _product(psi[k] for k in range(3, d) if d % k == 0))
    return psi


def _cyclotomic():
    """{d: Phi_d over Z} for d <= D_MAX, from x^d - 1 = prod_(e | d) Phi_e."""
    phi = {}
    for d in range(1, D_MAX + 1):
        phi[d] = _exact_div([-1] + [0] * (d - 1) + [1],
                            _product(phi[e] for e in range(1, d) if d % e == 0))
    return phi


def _group(k):
    psi = _psi()
    return psi[2 * k] if k % 2 == 0 else _mul(psi[k], psi[2 * k])


def test_psi_is_the_cyclotomic_polynomial_in_x_plus_one_over_x():
    # x^h Psi_d(x + 1/x) = sum_j c_j x^(h-j) (x^2 + 1)^j, h = phi(d)/2
    psi, phi = _psi(), _cyclotomic()
    assert sorted(psi) == list(range(3, D_MAX + 1))
    for d, coeffs in psi.items():
        h = len(coeffs) - 1
        assert 2 * h == _phi(d) and coeffs[-1] == 1, d
        lhs = [0] * (2 * h + 1)
        square_plus_one = [1]
        for j, c in enumerate(coeffs):
            for i, b in enumerate(square_plus_one):
                lhs[h - j + i] += c * b
            square_plus_one = _mul(square_plus_one, [1, 0, 1])
        assert lhs == phi[d], d


def test_rows_are_products_of_groups():
    for n in range(1, 65):
        ks = [k for k in range(2, n + 2) if (n + 1) % k == 0]
        assert _product(_group(k) for k in ks) == list(_qn_row(n)), n


def test_each_row_brings_exactly_one_new_group():
    # Psi_d and Psi_2d for odd d meet the same rows, so a group is whole
    seen = set()
    for n in range(1, 1025):
        ks = {k for k in range(2, n + 2) if (n + 1) % k == 0}
        assert ks - seen == {n + 1}, n
        seen |= ks
    for d in range(3, D_MAX, 2):
        assert all(((n + 1) % d == 0) == ((2 * (n + 1)) % (2 * d) == 0)
                   for n in range(1, 1025)), d


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 65521, 2 ** 64 - 59])
def test_rabin_certifies_every_factor_the_check_accepts(p):
    rows = factor_census(64, p).to_json_dict()["rows"]
    assert census_rows_sound(p, rows)
    factors = {f for row in rows for f in row["factors"]}
    for name in factors:
        assert irreducible_fp(_read_factor(name, p, 64), p), (p, name)
    # each row's new factors have degree 1 or the degree of its new group,
    # which p | n+1 leaves undefined
    for row in rows:
        e = _group_degree(row["n"] + 1, p)
        new = [len(_read_factor(f, p, 64)) - 1 for f in row["new_factors"]]
        assert all(d == 1 or d == e for d in new), (p, row["n"])

"""Differential tests of the F_q[T] kernels against code they share nothing with.

Over prime fields the oracle is sympy's dense arithmetic over GF(p)
(``sympy.polys.galoistools``, big-endian lists over ZZ).  Over GF(4),
GF(8), GF(9) and GF(25) it is schoolbook arithmetic on the digit-rule
reference field of ``test_field``, and the derivative jet is checked
against its definition D(i)(sum a_k T^k) = sum C(k, i) a_k T^(k-i).
"""

import math

import pytest

pytest.importorskip("hypothesis")
galoistools = pytest.importorskip("sympy.polys.galoistools")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from sympy.polys.domains import ZZ  # noqa: E402
from test_field import DigitRule  # noqa: E402

from ffunits import GF, Poly, poly_divmod, poly_gcd  # noqa: E402
from ffunits.hasse import poly_jet  # noqa: E402

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

PRIME_FIELDS = {p: GF(p) for p in (2, 3, 5, 7)}
EXTENSION_FIELDS = [GF(2, 2, (1, 1, 1)), GF(2, 3, (1, 1, 0, 1)), GF(3, 2, (1, 0, 1)), GF(5, 2, (2, 0, 1))]


def polys(field, max_len=10):
    return st.lists(st.integers(0, field.q - 1), max_size=max_len).map(
        lambda cs: Poly.from_coeffs(field, cs)
    )


@st.composite
def poly_triples(draw, fields):
    f = draw(st.sampled_from(fields))
    return f, draw(polys(f)), draw(polys(f)), draw(polys(f, 4))


def big(a: Poly) -> list[int]:
    return list(reversed(a.coeffs))


@SETTINGS
@given(poly_triples(list(PRIME_FIELDS.values())))
def test_prime_field_kernels_match_galoistools(case):
    f, a, b, c = case
    p = f.p
    assert big(a + b) == galoistools.gf_add(big(a), big(b), p, ZZ)
    assert big(a - b) == galoistools.gf_sub(big(a), big(b), p, ZZ)
    assert big(-a) == galoistools.gf_neg(big(a), p, ZZ)
    assert big(a * b) == galoistools.gf_mul(big(a), big(b), p, ZZ)
    if not b.is_zero:
        quot, rem = poly_divmod(a, b)
        assert (big(quot), big(rem)) == tuple(galoistools.gf_div(big(a), big(b), p, ZZ))
    if not (a.is_zero and b.is_zero) and not c.is_zero:
        # a common factor c makes the gcd nontrivial
        ac, bc = a * c, b * c
        assert big(poly_gcd(ac, bc)) == galoistools.gf_gcd(big(ac), big(bc), p, ZZ)
        assert big(poly_gcd(a, b)) == galoistools.gf_gcd(big(a), big(b), p, ZZ)


def _trim(out):
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def ref_add(F, a, b):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return _trim([F.add(x, y) for x, y in zip(a, b)])


def ref_mul(F, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return _trim(out)


def ref_divmod(F, a, b):
    rem = list(a)
    db = len(b) - 1
    if len(rem) <= db:
        return (), _trim(rem)
    quot = [0] * (len(rem) - db)
    inv_lead = F.inv(b[-1])
    for i in range(len(rem) - db - 1, -1, -1):
        q_i = F.mul(rem[i + db], inv_lead)
        quot[i] = q_i
        for j, y in enumerate(b):
            rem[i + j] = F.sub(rem[i + j], F.mul(q_i, y))
    return _trim(quot), _trim(rem[:db])


def ref_gcd(F, a, b):
    while b:
        a, b = b, ref_divmod(F, a, b)[1]
    inv_lead = F.inv(a[-1])
    return tuple(F.mul(x, inv_lead) for x in a)


@SETTINGS
@given(poly_triples(EXTENSION_FIELDS))
def test_extension_kernels_match_digit_rule(case):
    f, a, b, c = case
    F = DigitRule(f.p, f.s, f.modulus)
    A, B = a.coeffs, b.coeffs
    assert (a + b).coeffs == ref_add(F, A, B)
    assert (-a).coeffs == tuple(F.neg(x) for x in A)
    assert (a - b).coeffs == ref_add(F, A, tuple(F.neg(x) for x in B))
    assert (a * b).coeffs == ref_mul(F, A, B)
    for k in range(f.q):
        assert a.scale(k).coeffs == _trim([F.mul(x, k) for x in A])
    if not b.is_zero:
        quot, rem = poly_divmod(a, b)
        assert (quot.coeffs, rem.coeffs) == ref_divmod(F, A, B)
    if not (a.is_zero and b.is_zero) and not c.is_zero:
        ac, bc = a * c, b * c
        assert poly_gcd(ac, bc).coeffs == ref_gcd(F, ac.coeffs, bc.coeffs)


@SETTINGS
@given(poly_triples(list(PRIME_FIELDS.values()) + EXTENSION_FIELDS), st.integers(0, 8))
def test_poly_jet_matches_definition(case, order):
    f, a, _, _ = case
    F = DigitRule(f.p, f.s, f.modulus)
    jet = poly_jet(a, order)
    assert len(jet) == order + 1
    for i, d in enumerate(jet):
        want = [F.mul(c, math.comb(k, i) % f.p) for k, c in enumerate(a.coeffs)][i:]
        assert d.coeffs == _trim(want)

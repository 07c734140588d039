"""Differential tests of the F_q[T] kernels against code they share nothing with.

Over prime fields the oracle is sympy's dense arithmetic over GF(p)
(``sympy.polys.galoistools``, big-endian lists over ZZ), which also checks
factorization and the irreducibility test.  Over GF(4), GF(8), GF(9) and
GF(25) it is schoolbook arithmetic on the digit-rule reference field of
``test_field``, and the derivative jet is checked against its definition
D(i)(sum a_k T^k) = sum C(k, i) a_k T^(k-i).  Kernel results are built
without the constructor's trailing-zero check, so every result is also
checked for a trailing zero here.
"""

import math
from itertools import islice

import pytest

pytest.importorskip("hypothesis")
galoistools = pytest.importorskip("sympy.polys.galoistools")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from sympy.polys.domains import ZZ  # noqa: E402
from test_field import DigitRule  # noqa: E402

from ffunits import GF, Poly, factor, is_irreducible, poly_divmod, poly_gcd, poly_powmod  # noqa: E402
from ffunits.poly import _divmod_list, _invmod_list, _mul_list, _mulmod_list  # noqa: E402
from ffunits.hasse import poly_jet  # noqa: E402

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

PRIME_FIELDS = {p: GF(p) for p in (2, 3, 5, 7)}
EXTENSION_FIELDS = [GF(2, 2, (1, 1, 1)), GF(2, 3, (1, 1, 0, 1)), GF(3, 2, (1, 0, 1)), GF(5, 2, (2, 0, 1))]


def polys(field, max_len=10):
    return st.lists(st.integers(0, field.q - 1), max_size=max_len).map(
        lambda cs: Poly.from_coeffs(field, cs)
    )


def edge_polys(field):
    """0, 1, T and the nonzero constants: the operands the operators answer
    without a kernel call."""
    constants = st.integers(1, field.q - 1).map(lambda c: Poly.constant(field, c))
    return st.sampled_from([Poly.zero(field), Poly.one(field), Poly.x(field)]) | constants


# which of a and b are edge polynomials; both are dense in four draws of seven
EDGE_OPERANDS = [""] * 4 + ["a", "b", "ab"]


@st.composite
def poly_triples(draw, fields):
    f = draw(st.sampled_from(fields))
    edge = draw(st.sampled_from(EDGE_OPERANDS))
    a = draw(edge_polys(f) if "a" in edge else polys(f))
    b = draw(edge_polys(f) if "b" in edge else polys(f))
    return f, a, b, draw(polys(f, 4))


def constants(field):
    """The nonzero constants of edge_polys, which the list kernels answer
    by scaling."""
    return edge_polys(field).filter(lambda e: e.degree() == 0)


def co(a: Poly) -> tuple[int, ...]:
    """The coefficient tuple of a kernel result, which must carry no trailing zero."""
    assert not a.coeffs or a.coeffs[-1] != 0, f"trailing zero in {a!r}"
    return a.coeffs


def big(a: Poly) -> list[int]:
    return list(reversed(co(a)))


def _mulmod(a: Poly, b: Poly, c: Poly) -> Poly:
    """a*b mod c by the list kernel _mulmod_list, whose remainder may carry trailing zeros."""
    return Poly.from_coeffs(a.field, _mulmod_list(a.field, a.coeffs, b.coeffs, c.coeffs))


def _invmod(a: Poly, c: Poly) -> Poly:
    """The inverse of a mod c by the list kernel _invmod_list, which must trim it."""
    return Poly(a.field, tuple(_invmod_list(a.field, a.coeffs, c.coeffs)))


@SETTINGS
@given(poly_triples(list(PRIME_FIELDS.values())), st.data())
def test_prime_field_kernels_match_galoistools(case, data):
    f, a, b, c = case
    p = f.p
    assert big(a + b) == galoistools.gf_add(big(a), big(b), p, ZZ)
    assert big(a - b) == galoistools.gf_sub(big(a), big(b), p, ZZ)
    assert big(-a) == galoistools.gf_neg(big(a), p, ZZ)
    assert big(a * b) == galoistools.gf_mul(big(a), big(b), p, ZZ)
    # the kernels' constant-operand branches, which the operators answer
    # before a kernel call
    k = data.draw(constants(f))
    A, B, K = a.coeffs, b.coeffs, k.coeffs
    assert (
        (_mul_list(f, K, B)[::-1] if B else [], _mul_list(f, A, K)[::-1] if A else [],
         tuple(x[::-1] for x in _divmod_list(f, list(A), K)))
        == (galoistools.gf_mul(big(k), big(b), p, ZZ), galoistools.gf_mul(big(a), big(k), p, ZZ),
            tuple(galoistools.gf_div(big(a), big(k), p, ZZ)))
    )
    for n in (0, 1, 2, 5):
        assert big(a ** n) == galoistools.gf_pow(big(a), n, p, ZZ)
    if not b.is_zero:
        quot, rem = poly_divmod(a, b)
        assert (big(quot), big(rem)) == tuple(galoistools.gf_div(big(a), big(b), p, ZZ))
    if not (a.is_zero and b.is_zero) and not c.is_zero:
        # a common factor c makes the gcd nontrivial
        ac, bc = a * c, b * c
        assert big(poly_gcd(ac, bc)) == galoistools.gf_gcd(big(ac), big(bc), p, ZZ)
        assert big(poly_gcd(a, b)) == galoistools.gf_gcd(big(a), big(b), p, ZZ)
    if not c.is_zero:
        assert big(_mulmod(a, b, c)) == galoistools.gf_rem(
            galoistools.gf_mul(big(a), big(b), p, ZZ), big(c), p, ZZ)
    if c.degree() >= 1:
        for n in (0, 1, 5, p**3 + 2):
            assert big(poly_powmod(a, n, c)) == galoistools.gf_pow_mod(big(a), n, big(c), p, ZZ)
        s, _, h = galoistools.gf_gcdex(big(a), big(c), p, ZZ)
        if h == [1]:
            assert big(_invmod(a, c)) == galoistools.gf_rem(s, big(c), p, ZZ)
        else:
            with pytest.raises(ZeroDivisionError):
                _invmod(a, c)


@SETTINGS
@given(st.sampled_from(list(PRIME_FIELDS.values())).flatmap(
    lambda f: polys(f, 9) | polys(f, 9) | edge_polys(f)))  # an edge input one time in three
def test_factor_and_irreducibility_match_galoistools(a):
    p = a.field.p
    if a.is_zero:
        return
    fa = factor(a)
    assert fa.unit == a.leading
    assert all(co(g) and g.is_monic for g, _ in fa.factors)
    got = sorted((big(g), e) for g, e in fa.factors)
    if galoistools.gf_sqf_p(big(a), p, ZZ):
        lc, want = galoistools.gf_factor_sqf(big(a), p, ZZ)
        assert (fa.unit, got) == (lc, sorted((g, 1) for g in want))
    else:
        lc, want = galoistools.gf_factor(big(a), p, ZZ)
        assert (fa.unit, got) == (lc, sorted(want))
    if a.degree() >= 1:
        assert is_irreducible(a) == galoistools.gf_irreducible_p(big(a), p, ZZ)


@pytest.mark.parametrize("p", sorted(PRIME_FIELDS))
def test_factor_of_degree_at_most_one_matches_galoistools(p):
    f = PRIME_FIELDS[p]
    for c0 in range(p):
        for c1 in range(p):
            a = Poly.from_coeffs(f, [c0, c1])
            if a.is_zero:
                continue
            fa = factor(a)
            lc, want = galoistools.gf_factor(big(a), p, ZZ)
            assert (fa.unit, [(big(g), e) for g, e in fa.factors]) == (lc, want)


def test_factor_seeds_its_generator_only_to_split(monkeypatch):
    import ffunits.poly as poly

    seeded = []

    class Recorded(poly.random.Random):
        def __init__(self, seed):
            seeded.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(poly.random, "Random", Recorded)
    f = PRIME_FIELDS[5]
    # irreducible, linear, a power of one irreducible: nothing to split
    for cs in ([2, 0, 1], [3, 1], [1, 2, 1]):
        factor(Poly.from_coeffs(f, cs))
    assert seeded == []
    # (T + 1)(T + 2)(T^2 + 2): two degree-1 irreducibles to tell apart
    fa = factor(Poly.from_coeffs(f, [2, 3, 1]) * Poly.from_coeffs(f, [2, 0, 1]))
    assert seeded == [poly.DEFAULT_SEED]
    assert [g.coeffs for g, _ in fa.factors] == [(1, 1), (2, 1), (2, 0, 1)]


def test_trivial_operands_are_returned_as_they_are():
    for f in list(PRIME_FIELDS.values()) + EXTENSION_FIELDS:
        one, zero = Poly.one(f), Poly.zero(f)
        for x in (Poly.x(f), Poly.from_coeffs(f, [1, 0, 1, 1]), one, zero):
            assert one * x is x and x * one is x
            assert zero + x is x and x + zero is x
            assert x ** 1 is x
        assert one ** 7 is one and one ** 0 is one


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
@given(poly_triples(EXTENSION_FIELDS), st.data())
def test_extension_kernels_match_digit_rule(case, data):
    f, a, b, c = case
    F = DigitRule(f.p, f.s, f.modulus)
    A, B, C = a.coeffs, b.coeffs, c.coeffs
    assert co(a + b) == ref_add(F, A, B)
    assert co(-a) == tuple(F.neg(x) for x in A)
    assert co(a - b) == ref_add(F, A, tuple(F.neg(x) for x in B))
    assert co(a * b) == ref_mul(F, A, B)
    # the kernels' constant-operand branches, as in the prime-field test
    K = data.draw(constants(f)).coeffs
    assert (
        (tuple(_mul_list(f, K, B)) if B else (), tuple(_mul_list(f, A, K)) if A else (),
         tuple(map(tuple, _divmod_list(f, list(A), K))))
        == (ref_mul(F, K, B), ref_mul(F, A, K), ref_divmod(F, A, K))
    )
    power = (1,)
    for n in range(6):
        assert co(a ** n) == power
        power = ref_mul(F, power, A)
    for k in range(f.q):
        assert co(a.scale(k)) == _trim([F.mul(x, k) for x in A])
    if not b.is_zero:
        quot, rem = poly_divmod(a, b)
        assert (co(quot), co(rem)) == ref_divmod(F, A, B)
    if not (a.is_zero and b.is_zero) and not c.is_zero:
        ac, bc = a * c, b * c
        assert co(poly_gcd(ac, bc)) == ref_gcd(F, ac.coeffs, bc.coeffs)
    if not c.is_zero:
        assert co(_mulmod(a, b, c)) == ref_divmod(F, ref_mul(F, A, B), C)[1]
    if c.degree() >= 1:
        power = (1,)
        for n in range(6):
            assert co(poly_powmod(a, n, c)) == ref_divmod(F, power, C)[1]
            power = ref_mul(F, power, A)
        if poly_gcd(a, c).is_one:
            inv = co(_invmod(a, c))
            assert len(inv) < len(C) and ref_divmod(F, ref_mul(F, A, inv), C)[1] == (1,)
        else:
            with pytest.raises(ZeroDivisionError):
                _invmod(a, c)


@SETTINGS
@given(poly_triples(list(PRIME_FIELDS.values()) + EXTENSION_FIELDS), st.integers(0, 8))
def test_poly_jet_matches_definition(case, order):
    f, a, _, _ = case
    F = DigitRule(f.p, f.s, f.modulus)
    jet = list(islice(poly_jet(a), order + 1))
    assert len(jet) == order + 1
    for i, d in enumerate(jet):
        want = [F.mul(c, math.comb(k, i) % f.p) for k, c in enumerate(a.coeffs)][i:]
        assert co(d) == _trim(want)

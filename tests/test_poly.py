import itertools
import random

import pytest

from ffunits import GF, Poly, factor, is_irreducible, poly, poly_divmod, poly_gcd, poly_powmod
from ffunits.field import prime_factors
from ffunits.poly import _add_list, _invmod_list, _neg_list, _sub_list, _trim, monic_irreducibles

from conftest import pl, rand_poly


def evaluate(a: Poly, x: int) -> int:
    """a(x) by Horner's rule."""
    f = a.field
    acc = 0
    for c in reversed(a.coeffs):
        acc = f.add(f.mul(acc, x), c)
    return acc


def expand(fac) -> Poly:
    """unit * prod(poly**multiplicity)."""
    out = Poly.constant(fac.field, fac.unit)
    for g, e in fac.factors:
        out = out * g**e
    return out


@pytest.mark.parametrize(
    "field", [GF(2), GF(3), GF(2, 2, (1, 1, 1)), GF(3, 2, (1, 0, 1))], ids=["GF2", "GF3", "GF4", "GF9"]
)
def test_negation_cancels(field):
    """a + (-a) == 0 through the negation kernel, subtraction and Poly.__neg__;
    in characteristic 2, over GF(4) too, negation is the identity, and
    Poly.__neg__ returns the polynomial itself."""
    for cs in itertools.product(range(field.q), repeat=3):
        assert _trim(_add_list(field, cs, _neg_list(field, cs))) == []
        assert _trim(_sub_list(field, cs, cs)) == []
        a = Poly.from_coeffs(field, cs)
        assert (a + (-a)).is_zero and -(-a) == a
        if field.p == 2:
            assert _neg_list(field, cs) == list(cs) and -a is a


def test_divmod_examples(F2, F3):
    q, r = poly_divmod(pl(F2, "T^2+1"), pl(F2, "T+1"))
    assert (q, r) == (pl(F2, "T+1"), Poly.zero(F2))  # (t+1)^2 = t^2+1 in char 2
    q, r = poly_divmod(pl(F2, "T^3"), pl(F2, "T"))
    assert (q, r) == (pl(F2, "T^2"), Poly.zero(F2))
    q, r = poly_divmod(pl(F3, "T^2+1"), pl(F3, "T"))
    assert (q, r) == (pl(F3, "T"), Poly.one(F3))


def test_divmod_reconstructs(F2, F3, F5):
    rng = random.Random(101)
    for field in (F2, F3, F5):
        for _ in range(100):
            a = rand_poly(rng, field, 8)
            b = rand_poly(rng, field, 5, nonzero=True)
            q, r = poly_divmod(a, b)
            assert q * b + r == a
            assert r.degree() < b.degree()


def test_divmod_by_zero(F2):
    with pytest.raises(ZeroDivisionError):
        poly_divmod(pl(F2, "T"), Poly.zero(F2))


def test_gcd_examples(F2, F3):
    assert poly_gcd(pl(F3, "T^2-1"), pl(F3, "T-1")) == pl(F3, "T+2")
    assert poly_gcd(pl(F2, "T"), pl(F2, "T+1")) == Poly.one(F2)
    # oracle: expanding (T^2+T+1)^2 over F_2 gives T^4+T^2+1
    square = pl(F2, "T^2+T+1") * pl(F2, "T^2+T+1")
    assert square == pl(F2, "T^4+T^2+1")
    assert poly_gcd(pl(F2, "T^4+T^2+1"), pl(F2, "T^2+T+1")) == pl(F2, "T^2+T+1")


def test_gcd_properties(F3):
    rng = random.Random(7)
    for _ in range(100):
        a = rand_poly(rng, F3, 6)
        b = rand_poly(rng, F3, 6)
        if a.is_zero and b.is_zero:
            continue
        g = poly_gcd(a, b)
        assert g.is_monic
        for v in (a, b):
            if not v.is_zero:
                assert (v % g).is_zero
    with pytest.raises(ValueError):
        poly_gcd(Poly.zero(F3), Poly.zero(F3))


def test_powmod_examples(F2):
    m1 = pl(F2, "T^2+1")
    assert poly_powmod(pl(F2, "T"), 4, m1) == Poly.one(F2)
    # oracle: direct powering shows 1+T has order exactly 6 mod (T^2+T+1)^2
    m2 = pl(F2, "T^2+T+1") * pl(F2, "T^2+T+1")
    acc = Poly.one(F2)
    orders = []
    for k in range(1, 7):
        acc = (acc * pl(F2, "1+T")) % m2
        orders.append(acc)
    assert all(v != Poly.one(F2) for v in orders[:5])
    assert orders[5] == Poly.one(F2)
    assert poly_powmod(pl(F2, "1+T"), 6, m2) == Poly.one(F2)
    assert poly_powmod(pl(F2, "T"), 0, m1) == Poly.one(F2)


def test_powmod_exponent_additivity(F3):
    rng = random.Random(11)
    m = pl(F3, "T^3+2*T+1")
    for _ in range(100):
        x = rand_poly(rng, F3, 4)
        e1, e2 = rng.randrange(40), rng.randrange(40)
        lhs = poly_powmod(x, e1 + e2, m)
        rhs = (poly_powmod(x, e1, m) * poly_powmod(x, e2, m)) % m
        assert lhs == rhs


def test_powmod_invalid_modulus(F2):
    with pytest.raises(ValueError):
        poly_powmod(pl(F2, "T"), 3, Poly.one(F2))
    with pytest.raises(ValueError):
        poly_powmod(pl(F2, "T"), 3, Poly.zero(F2))


def test_invmod(F2):
    m = pl(F2, "T^2+T+1")
    inv = Poly(F2, tuple(_invmod_list(F2, pl(F2, "1+T").coeffs, m.coeffs)))
    assert (inv * pl(F2, "1+T")) % m == Poly.one(F2)
    with pytest.raises(ZeroDivisionError):
        _invmod_list(F2, pl(F2, "T+1").coeffs, pl(F2, "T^2+1").coeffs)


def test_factor_examples(F2, F3, F5):
    fac = factor(pl(F2, "T^2+T"))
    assert fac.unit == 1
    assert fac.factors == ((pl(F2, "T"), 1), (pl(F2, "T+1"), 1))
    # oracle: T^2+1 has no root in F_3 (0,1,2 all fail), so it is irreducible
    assert all(evaluate(pl(F3, "T^2+1"), a) != 0 for a in range(3))
    fac = factor(pl(F3, "2*T^2+2"))
    assert fac.unit == 2
    assert fac.factors == ((pl(F3, "T^2+1"), 1),)
    fac = factor(pl(F5, "T"))
    assert fac.unit == 1 and fac.factors == ((pl(F5, "T"), 1),)


def test_factor_errors(F2):
    with pytest.raises(ValueError):
        factor(Poly.zero(F2))


def test_factor_reconstructs_and_certifies(F2, F3, monkeypatch):
    rng = random.Random(23)
    f4 = GF(2, 2, (1, 1, 1))
    for field in (F2, F3, f4):
        for _ in range(60):
            a = rand_poly(rng, field, 9, nonzero=True)
            fac = factor(a)
            assert expand(fac) == a
            for g, e in fac.factors:
                assert e >= 1
                assert g.is_monic
                assert is_irreducible(g)
            keys = [g.sort_key() for g, _ in fac.factors]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)
            # the same factors come out for any seed
            with monkeypatch.context() as patch:
                patch.setattr(poly, "DEFAULT_SEED", 12345)
                assert factor(a) == fac


def _divides(a, b):
    return (b % a).is_zero


def test_is_irreducible_examples(F2):
    assert is_irreducible(pl(F2, "T^2+T+1"))
    assert not is_irreducible(pl(F2, "T^2+1"))
    # oracle for the degree-4 case: trial division by every monic polynomial
    # of degree 1 and 2 finds no factor
    phi5 = pl(F2, "T^4+T^3+T^2+T+1")
    small = [Poly.from_coeffs(F2, (c0, 1)) for c0 in range(2)]
    small += [Poly.from_coeffs(F2, (c0, c1, 1)) for c0 in range(2) for c1 in range(2)]
    assert not any(_divides(g, phi5) for g in small)
    assert is_irreducible(phi5)


def test_is_irreducible_against_trial_division(F3):
    rng = random.Random(31)
    monics = list(monic_irreducibles(F3, 1)) + list(monic_irreducibles(F3, 2))
    for _ in range(80):
        a = rand_poly(rng, F3, 4, nonzero=True)
        if a.degree() < 1:
            continue
        has_small_factor = any(_divides(g, a) for g in monics if g.degree() <= a.degree() // 2)
        assert is_irreducible(a) == (not has_small_factor)


def rabin_is_irreducible(a: Poly) -> bool:
    """Rabin's test: f of degree n is irreducible iff T**(q**n) = T mod f and
    gcd(T**(q**(n/r)) - T, f) = 1 for every prime r dividing n.
    """
    field = a.field
    f = a.monic()[0]
    n = f.degree()
    x = Poly.x(field)
    frob = [x % f]  # frob[k] = T**(q**k) mod f
    for _ in range(n):
        frob.append(poly_powmod(frob[-1], field.q, f))
    if frob[n] != x % f:
        return False
    return all(poly_gcd(frob[n // r] - x, f).degree() == 0 for r in prime_factors(n))


@pytest.mark.parametrize(
    "field, max_deg",
    [(GF(2), 8), (GF(3), 5), (GF(2, 2, (1, 1, 1)), 4), (GF(3, 2, (1, 0, 1)), 3)],
    ids=["GF2", "GF3", "GF4", "GF9"],
)
def test_is_irreducible_matches_rabin(field, max_deg):
    # every polynomial of degree 1..max_deg, any leading coefficient, so
    # non-monic and non-squarefree inputs (squares, p-th powers) are included
    kinds = set()
    for n in range(1, max_deg + 1):
        for low in itertools.product(range(field.q), repeat=n):
            for lead in range(1, field.q):
                a = Poly(field, low + (lead,))
                expect = rabin_is_irreducible(a)
                assert is_irreducible(a) == expect, a
                kinds.add((expect, lead == 1, poly_gcd(a, a.derivative()).degree() > 0))
    leads = {True} if field.q == 2 else {True, False}
    for monic in leads:
        assert (True, monic, False) in kinds and (False, monic, True) in kinds


def test_is_irreducible_rejects_constants(F2):
    with pytest.raises(ValueError):
        is_irreducible(Poly.one(F2))


def test_monic_irreducibles(F2, F3):
    assert list(monic_irreducibles(F2, 2)) == [pl(F2, "T^2+T+1")]
    deg2 = list(monic_irreducibles(F3, 2))
    assert len(deg2) == 3  # (q^2 - q)/2
    assert [g.sort_key() for g in deg2] == sorted(g.sort_key() for g in deg2)
    assert list(monic_irreducibles(F3, 1)) == [pl(F3, "T"), pl(F3, "T+1"), pl(F3, "T+2")]

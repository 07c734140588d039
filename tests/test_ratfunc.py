import copy
import pickle
import random
import signal

import pytest

from ffunits import GF, Modulus, Poly, RatFunc, divisor_vector, is_irreducible, localprobe, poly_gcd
from ffunits.ratfunc import multiplicity

from conftest import el, pl, rand_ratfunc, reduce_mod


FIELDS = (GF(2), GF(3), GF(2, 2, (1, 1, 1)), GF(3, 2, (1, 0, 1)))


def divisor_product(field: GF, divisor: dict[Poly, int], constant: int) -> RatFunc:
    """Rebuild the element from its divisor exponents and leading unit."""
    out = RatFunc.constant(field, constant)
    for place, e in divisor.items():
        out = out * RatFunc.from_poly(place) ** e
    return out


def test_normalize_examples(F2, F3):
    assert RatFunc.make(pl(F2, "T^2+T"), pl(F2, "T")) == el(F2, "T+1")
    assert RatFunc.make(pl(F3, "2*T"), pl(F3, "2")) == el(F3, "T")
    assert RatFunc.make(pl(F3, "T^2-1"), pl(F3, "T+1")) == el(F3, "T+2")
    with pytest.raises(ZeroDivisionError):
        RatFunc.make(pl(F2, "T"), Poly.zero(F2))


def test_field_ops(F2, F3):
    assert el(F3, "T") + el(F3, "1-T") == RatFunc.one(F3)
    x = el(F2, "(T+1)/T")
    assert x * x.inverse() == RatFunc.one(F2)
    assert el(F2, "(1+T)^-2") == el(F2, "1/(T^2+1)")
    with pytest.raises(ZeroDivisionError):
        x / RatFunc.zero(F2)
    with pytest.raises(ZeroDivisionError):
        RatFunc.zero(F2).inverse()
    assert RatFunc.zero(F2) ** 0 == RatFunc.one(F2)


def valuation(x: RatFunc, place: Poly) -> int:
    """The order of x at a place, read off ratfunc.multiplicity; the
    fraction is reduced, so at most one of the two counts is nonzero."""
    return multiplicity(x.num, place)[0] - multiplicity(x.den, place)[0]


def test_valuation_examples(F2):
    x = el(F2, "T^2/(T+1)")
    assert valuation(x, pl(F2, "T")) == 2
    assert valuation(x, pl(F2, "T+1")) == -1
    assert valuation(x, pl(F2, "T^2+T+1")) == 0
    with pytest.raises(ValueError, match="zero polynomial"):
        valuation(RatFunc.zero(F2), pl(F2, "T"))


def test_constant_place_is_refused(F2, F3):
    # a constant divides every polynomial, so trial division by one never
    # ended; the alarm turns such a hang into a failure
    def hang(signum, frame):
        raise TimeoutError("trial division did not end")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        for field in (F2, F3):
            x = el(field, "T^2/(T+1)")
            for place in (Poly.one(field), Poly.constant(field, field.q - 1), Poly.zero(field)):
                with pytest.raises(ValueError, match="degree >= 1"):
                    multiplicity(x.num, place)
            with pytest.raises(ValueError):
                multiplicity(Poly.zero(field), pl(field, "T"))
            assert multiplicity(pl(field, "T^3+T^2"), pl(field, "T")) == (2, pl(field, "T+1"))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_valuation_is_additive(F3):
    rng = random.Random(5)
    places = [pl(F3, "T"), pl(F3, "T+1"), pl(F3, "T^2+1")]
    for _ in range(80):
        x = rand_ratfunc(rng, F3, 4, nonzero=True)
        y = rand_ratfunc(rng, F3, 4, nonzero=True)
        for v in places:
            assert valuation(x * y, v) == valuation(x, v) + valuation(y, v)


def test_divisor_examples(F2, F3):
    # oracle: 2*(T+2) = 2T + 4 = 2T + 1 = 1 - T over F_3
    assert pl(F3, "T+2").scale(2) == pl(F3, "1-T")
    dv, c = divisor_vector(el(F3, "1-T"))
    assert c == 2
    assert dv == {pl(F3, "T+2"): 1}

    dv, c = divisor_vector(el(F2, "T"))
    assert c == 1
    assert dv == {pl(F2, "T"): 1}

    dv, c = divisor_vector(el(F3, "-1"))
    assert c == 2 and dv == {}

    dv, c = divisor_vector(el(F2, "T/(T+1)"))
    assert dv == {pl(F2, "T"): 1, pl(F2, "T+1"): -1}
    # entries run in place order, the numerator's places not first
    dv, c = divisor_vector(el(F2, "(T+1)/T^2"))
    assert list(dv.items()) == [(pl(F2, "T"), -2), (pl(F2, "T+1"), 1)]
    dv, c = divisor_vector(el(F3, "2*(T^2+1)/(T*(T+2)^3)"))
    assert list(dv.items()) == [(pl(F3, "T"), -1), (pl(F3, "T+2"), -3), (pl(F3, "T^2+1"), 1)]
    assert c == 2

    with pytest.raises(ValueError):
        divisor_vector(RatFunc.zero(F2))


def test_divisor_properties():
    rng = random.Random(17)
    for field in FIELDS:
        for _ in range(60):
            x = rand_ratfunc(rng, field, 5, nonzero=True)
            y = rand_ratfunc(rng, field, 5, nonzero=True)
            dx, cx = divisor_vector(x)
            dy, cy = divisor_vector(y)
            assert 0 not in dx.values()
            # the finite places carry the whole degree of x
            assert sum(e * place.degree() for place, e in dx.items()) == x.num.degree() - x.den.degree()
            # multiplicativity
            dxy, cxy = divisor_vector(x * y)
            total = {place: dx.get(place, 0) + dy.get(place, 0) for place in dx.keys() | dy.keys()}
            assert dxy == {place: e for place, e in total.items() if e}
            assert cxy == field.mul(cx, cy)
            # round trip through the finite entries and the unit
            assert divisor_product(field, dx, cx) == x


def test_divisor_keys_are_sorted_monic_irreducibles(F2):
    assert list(divisor_vector(el(F2, "T^2/(T+1)"))[0]) == [pl(F2, "T"), pl(F2, "T+1")]
    rng = random.Random(23)
    for field in FIELDS:
        for _ in range(40):
            x = rand_ratfunc(rng, field, 6, nonzero=True)
            dv, c = divisor_vector(x)
            places = list(dv)
            assert all(type(p) is Poly and p.is_monic and p.degree() >= 1 and is_irreducible(p) for p in places)
            assert places == sorted(places, key=Poly.sort_key)
            assert c != 0 and divisor_product(field, dv, c) == x


def route(x: RatFunc, m: Modulus) -> Poly:
    """x modulo m.poly by the residue route of localprobe: the unit test at
    m.base, the reduction modulo m.poly at e >= 2 and the quotient step."""
    (pair,) = localprobe._modulus_residues(x.field, m, (x,), "element")
    return Poly(x.field, tuple(localprobe._quotient(x.field, pair, m.poly.coeffs)))


def test_reduce_mod_examples(F2, F3):
    m = Modulus(pl(F2, "T^2+T+1"), 1)
    # oracle first: the inverse of 1+T in the 4-element residue ring is found
    # by exhaustive search and is unique
    ring = [Poly.from_coeffs(F2, (a, b)) for a in range(2) for b in range(2)]
    inverses = [z for z in ring if (pl(F2, "1+T") * z) % m.poly == Poly.one(F2)]
    assert inverses == [pl(F2, "T")]
    for reduce in (reduce_mod, route):
        assert reduce(el(F2, "1/(1+T)"), m) == pl(F2, "T")
        assert reduce(el(F3, "T"), Modulus(pl(F3, "T+1"), 2)) == pl(F3, "T")

    with pytest.raises(ZeroDivisionError):
        reduce_mod(el(F2, "1/(T^2+T+1)"), m)
    # the route takes units only: a pole or a zero at the base is refused
    for x in ("1/(T^2+T+1)", "T^2+T+1"):
        with pytest.raises(ValueError, match="element is not a unit at the modulus place"):
            route(el(F2, x), m)


def test_reduce_mod_is_ring_hom(F2, F3):
    rng = random.Random(29)
    units = 0
    for field, base, e in ((F2, "T^2+T+1", 2), (F3, "T+1", 2)):
        m = Modulus(pl(field, base), e)

        def sample():
            while True:
                x = rand_ratfunc(rng, field, 4)
                if (x.den % m.base).is_zero:
                    continue
                return x

        for _ in range(100):
            x, y = sample(), sample()
            assert reduce_mod(x + y, m) == (reduce_mod(x, m) + reduce_mod(y, m)) % m.poly
            assert reduce_mod(x * y, m) == (reduce_mod(x, m) * reduce_mod(y, m)) % m.poly
            # the package's route agrees with the oracle on every unit
            for z in (x, y, x + y, x * y):
                if not (z.num % m.base).is_zero:
                    assert route(z, m) == reduce_mod(z, m)
                    units += 1
    assert units > 400


def test_place_validation(F2, F3):
    # a place enters the program from outside only as a modulus base
    for base in (
        pl(F2, "T^2+1"),  # reducible
        Poly.from_coeffs(F2, (1,)),  # constant
        Poly.zero(F2),
        pl(F3, "2*T+1"),  # irreducible, not monic
    ):
        with pytest.raises(ValueError, match="modulus base must be monic irreducible"):
            Modulus(base, 1)
    assert Modulus(pl(F2, "T"), 1).base.degree() == 1


def test_modulus_validation(F2):
    with pytest.raises(ValueError):
        Modulus(pl(F2, "T^2+1"), 1)
    with pytest.raises(ValueError):
        Modulus(pl(F2, "T"), 0)
    m = Modulus(pl(F2, "T^2+T+1"), 2)
    assert m.poly == pl(F2, "T^2+T+1") ** 2


def test_modulus_tests_its_base_once(F2, monkeypatch):
    from ffunits import ratfunc

    calls = []
    original = ratfunc.is_irreducible
    monkeypatch.setattr(ratfunc, "is_irreducible", lambda a: calls.append(a) or original(a))
    base = pl(F2, "T^2+T+1")
    m = Modulus(base, 2)
    assert m.base == base and m.poly == base**2
    assert calls == [base]
    with pytest.raises(ValueError, match="modulus base must be monic irreducible"):
        Modulus(pl(F2, "T^2+1"), 1)


def test_ratfunc_structural_invariants(F2, F3):
    with pytest.raises(ZeroDivisionError):
        RatFunc(pl(F2, "T"), Poly.zero(F2))
    with pytest.raises(ValueError):
        RatFunc(pl(F3, "T"), pl(F3, "2*T"))  # denominator must be monic
    with pytest.raises(ValueError):
        RatFunc(Poly.zero(F3), pl(F3, "T"))  # zero is 0/1
    # results are built without the constructor's checks, so they are checked here
    F4 = GF(2, 2, (1, 1, 1))
    rng = random.Random(14)
    for field in (F2, F3, F4):
        for _ in range(60):
            x, y = rand_ratfunc(rng, field, 4), rand_ratfunc(rng, field, 4, nonzero=True)
            for r in (x + y, x - y, x * y, x / y, y.inverse(), -x, y**-2):
                for part in (r.num, r.den):
                    assert not part.coeffs or part.coeffs[-1] != 0
                assert r.den.is_monic and poly_gcd(r.num, r.den).is_one
                assert not r.num.is_zero or r.den.is_one
                assert RatFunc(r.num, r.den) == r


def test_value_types_copy_pickle_and_stay_frozen(F3):
    p = pl(F3, "T^2+2*T+1")
    x = RatFunc.make(pl(F3, "T+2"), p)
    for v in (p, x, Poly.zero(F3), RatFunc.one(F3)):
        for twin in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v), copy.copy(v)):
            assert twin == v and hash(twin) == hash(v)
    # an equal field built separately gives equal values with equal hashes
    G3 = GF(3)
    assert G3 is not F3
    p3, x3 = Poly(G3, p.coeffs), RatFunc(Poly(G3, x.num.coeffs), Poly(G3, x.den.coeffs))
    assert (p3, x3) == (p, x) and (hash(p3), hash(x3)) == (hash(p), hash(x))
    assert Poly(GF(5), p.coeffs) != p
    for obj, attr in ((p, "coeffs"), (p, "field"), (x, "num"), (x, "den")):
        with pytest.raises(AttributeError):
            setattr(obj, attr, getattr(obj, attr))
        with pytest.raises(AttributeError):
            delattr(obj, attr)
    with pytest.raises(ValueError):
        Poly(F3, (1, 0))
    with pytest.raises(ValueError):
        RatFunc(pl(F3, "1"), pl(F3, "2*T"))

import io
import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffunits import GF, Poly, RatFunc, hasse, hasse_derivative, in_power_subfield, taylor_jet
from ffunits.cli import run_cli
from ffunits.errors import MAX_PRIME_POWER, InternalCheckError, ResourceLimitError
from ffunits.hasse import (
    _jet_coeffs,
    binom_mod,
    inflate,
    poly_jet,
    prime_power,
    subfield_level,
    subfield_coordinates,
)

from conftest import el, rand_ratfunc
from test_properties import FIELDS


def test_binom_mod_matches_pascal():
    import math

    for p in (2, 3, 5, 7, 65521):
        for n in range(200):
            for k in range(-2, n + 3):
                assert binom_mod(n, k, p) == (math.comb(n, k) % p if k >= 0 else 0)


def test_derivative_examples(F2, F3):
    assert hasse_derivative(el(F2, "T^5"), 2).is_zero  # C(5,2) = 10 = 0 mod 2
    assert hasse_derivative(el(F3, "T^5"), 2) == el(F3, "T^3")  # 10 = 1 mod 3
    # oracle via the Leibniz rule on (1+T) * (1/(1+T)) = 1:
    # 0 = D1(1) = (1+T) D1(x) + D1(1+T) x, so D1(x) = x / (1+T)
    x = el(F2, "1/(1+T)")
    expected = x / el(F2, "1+T")
    assert expected == el(F2, "1/(1+T^2)")
    assert hasse_derivative(x, 1) == expected


def test_jet_examples(F2, F3):
    jet = taylor_jet(el(F3, "T^2"), 2)
    assert jet == (el(F3, "T^2"), el(F3, "2*T"), el(F3, "1"))
    jet = taylor_jet(el(F3, "2"), 4)
    assert jet[0] == el(F3, "2")
    assert all(c.is_zero for c in jet[1:])
    # oracle: (1+T) * (T/(1+T)) = T gives D1 = (1 - x) / (1+T) = 1/(1+T^2)
    x = el(F2, "T/(1+T)")
    expected = (RatFunc.one(F2) - x) / el(F2, "1+T")
    jet = taylor_jet(x, 1)
    assert jet == (x, expected)
    assert expected == el(F2, "1/(1+T^2)")


def test_leibniz(F2, F3):
    rng = random.Random(41)
    for field in (F2, F3):
        for _ in range(15):
            x = rand_ratfunc(rng, field, 6)
            y = rand_ratfunc(rng, field, 6)
            jx = taylor_jet(x, 8)
            jy = taylor_jet(y, 8)
            jxy = taylor_jet(x * y, 8)
            for i in range(9):
                acc = RatFunc.zero(field)
                for j in range(i + 1):
                    acc = acc + jx[j] * jy[i - j]
                assert acc == jxy[i]


def test_iterativity(F2, F3):
    rng = random.Random(43)
    for field in (F2, F3):
        for _ in range(12):
            x = rand_ratfunc(rng, field, 5)
            i, j = rng.randrange(5), rng.randrange(4)
            lhs = hasse_derivative(hasse_derivative(x, j), i)
            c = binom_mod(i + j, i, field.p)
            rhs = hasse_derivative(x, i + j) * RatFunc.constant(field, c)
            assert lhs == rhs


def test_additivity(F3):
    rng = random.Random(47)
    for _ in range(30):
        x = rand_ratfunc(rng, F3, 5)
        y = rand_ratfunc(rng, F3, 5)
        i = rng.randrange(7)
        assert hasse_derivative(x + y, i) == hasse_derivative(x, i) + hasse_derivative(y, i)


def test_subfield_linearity(F2, F3):
    rng = random.Random(53)
    for field, m in ((F2, 1), (F2, 2), (F3, 1)):
        pm = field.p**m
        for _ in range(20):
            a = rand_ratfunc(rng, field, 2, nonzero=True) ** pm  # element of the subfield
            x = rand_ratfunc(rng, field, 4)
            for i in range(pm):
                assert hasse_derivative(a * x, i) == a * hasse_derivative(x, i)


def test_in_power_subfield_examples(F2, F3):
    assert in_power_subfield(el(F2, "T^2/(T^2+1)"), 1)
    assert not in_power_subfield(el(F2, "T"), 1)
    assert el(F3, "(1+T)^3") == el(F3, "1+T^3")  # Frobenius
    assert in_power_subfield(el(F3, "(1+T)^3"), 1)
    assert in_power_subfield(RatFunc.zero(F2), 3)
    assert in_power_subfield(el(F3, "2"), 2)


def test_subfield_level_examples(F2, F3):
    # the p-adic valuation of the gcd of the exponents of the reduced fraction
    assert subfield_level(el(F2, "T")) == 0
    assert subfield_level(el(F2, "T^2/(T^2+1)")) == 1
    assert subfield_level(el(F2, "(T^4+1)/T^8")) == 2
    assert subfield_level(el(F2, "T^4/(T^2+T+1)^2")) == 1  # (T^2/(T^2+T+1))^2
    assert subfield_level(el(F3, "(1+T)^3")) == 1
    assert subfield_level(el(F3, "T^6+T^18")) == 1
    assert subfield_level(el(F3, "2*T^9")) == 2
    assert subfield_level(el(F3, "2")) is None
    assert subfield_level(RatFunc.zero(F2)) is None


def test_subfield_level_reads_membership(F2, F3):
    # x lies in F_q(t**(p**m)), the joint kernel of D(1), ..., D(p**m - 1),
    # iff its level is at least m (or x is constant)
    rng = random.Random(61)
    for field in (F2, F3):
        for _ in range(30):
            k = rng.randrange(3)
            x = inflate(rand_ratfunc(rng, field, 3), field.p**k)
            level = subfield_level(x)
            assert level is None or level >= k
            for m in range(4):
                kernel = all(hasse_derivative(x, i).is_zero for i in range(1, field.p**m))
                assert kernel == (level is None or level >= m)


def test_in_power_subfield_powers(F2, F3):
    rng = random.Random(59)
    for field, m in ((F2, 1), (F2, 2), (F3, 1)):
        for _ in range(25):
            x = rand_ratfunc(rng, field, 4, nonzero=True)
            c = RatFunc.constant(field, rng.randrange(1, field.q))
            assert in_power_subfield(x ** (field.p**m) * c, m)


def test_jet_cache_is_transparent(F2):
    x = el(F2, "(T^2+1)/(T^3+T+1)")
    _jet_coeffs.cache_clear()
    cold = taylor_jet(x, 6)
    warm = taylor_jet(x, 6)
    assert cold == warm
    assert _jet_coeffs.cache_info().hits >= 1
    # a jet grown in steps, from a read of a lower order, is the same jet
    _jet_coeffs.cache_clear()
    assert hasse_derivative(x, 2) == cold[2] and len(_jet_coeffs(x)[0]) == 3
    assert taylor_jet(x, 6) == cold and taylor_jet(x, 4) == cold[:5]


def _two_step_jet(x, order):
    """Reference jet: invert den(t+u) as a power series, then multiply by num(t+u)."""
    f = x.field
    num_jet = [RatFunc.from_poly(a) for a in islice(poly_jet(x.num), order + 1)]
    den_jet = [RatFunc.from_poly(a) for a in islice(poly_jet(x.den), order + 1)]
    inv = [den_jet[0].inverse()]
    for k in range(1, order + 1):
        acc = RatFunc.zero(f)
        for j in range(1, k + 1):
            acc = acc + den_jet[j] * inv[k - j]
        inv.append(-(inv[0] * acc))
    out = []
    for i in range(order + 1):
        acc = RatFunc.zero(f)
        for a in range(i + 1):
            acc = acc + num_jet[a] * inv[i - a]
        out.append(acc)
    return tuple(out)


def test_jet_recurrence_matches_two_step_expansion(F2, F3):
    rng = random.Random(67)
    fields = (F2, F3, GF(2, 2, (1, 1, 1)), GF(3, 2, (1, 0, 1)))
    for field in fields:
        for order in (1, 2, 3, 8):
            for _ in range(20):
                x = rand_ratfunc(rng, field, 4)
                assert taylor_jet(x, order) == _two_step_jet(x, order)


def test_coordinates_reassemble(F2, F3):
    rng = random.Random(61)
    # over GF(4) and GF(9) with s not dividing m the Frobenius on coefficients is not trivial
    F4, F9 = GF(2, 2, (1, 1, 1)), GF(3, 2, (1, 0, 1))
    # m = 0 reassembles x as inflate(x, 1)
    for field, m in ((F3, 0), (F2, 1), (F2, 2), (F3, 1), (F4, 1), (F4, 2), (F4, 3), (F9, 1)):
        pm = field.p**m
        t = RatFunc.t(field)
        for _ in range(25):
            x = rand_ratfunc(rng, field, 5, nonzero=True)
            nums, den_hat = subfield_coordinates(x, m)
            assert len(nums) == pm
            coords = [RatFunc.make(n, den_hat) for n in nums]
            acc = RatFunc.zero(field)
            for r, c in enumerate(coords):
                acc = acc + inflate(c, pm) * t**r
            assert acc == x
            for c in coords:
                if not c.is_zero:
                    assert in_power_subfield(inflate(c, pm), m)


def _dense_coordinates(x, m):
    """The rows off the dense power x.num * x.den**(p**m - 1): the oracle of
    subfield_coordinates, which divides the relabeled den**(p**m) by den instead.
    """
    f, pm = x.field, x.field.p**m
    coeffs = (x.num * x.den ** (pm - 1)).coeffs
    den_hat = Poly(f, tuple(f.frobenius(c, m) for c in x.den.coeffs))
    return tuple(Poly.from_coeffs(f, coeffs[r::pm]) for r in range(pm)), den_hat


@st.composite
def repeated_denominators(draw):
    """(x, m) with m <= 3 and x = num / (g**e * h), a factor g of degree 1 or 2
    repeated e >= 2 times before the fraction is reduced.
    """
    field = draw(st.sampled_from(FIELDS))
    coeffs = st.lists(st.integers(0, field.q - 1), min_size=1, max_size=4)
    num, h = (Poly.from_coeffs(field, draw(coeffs)) for _ in range(2))
    g = Poly.from_coeffs(field, draw(st.lists(st.integers(0, field.q - 1), min_size=1, max_size=2)) + [1])
    den = g ** draw(st.integers(2, 4)) * (h if h.coeffs else Poly.one(field))
    return RatFunc.make(num, den), draw(st.integers(0, 3))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(repeated_denominators())
def test_coordinates_match_the_dense_power(case):
    x, m = case
    assert subfield_coordinates(x, m) == _dense_coordinates(x, m)


def test_coordinates_of_subfield_elements(F2):
    # an element of F_q(t^2) has only its 0-th coordinate
    x = el(F2, "(T^2+1)/(T^4+T^2+1)")
    nums, den_hat = subfield_coordinates(x, 1)
    assert nums[1].is_zero and not nums[0].is_zero


def test_prime_power_guard():
    with pytest.raises(ResourceLimitError):
        prime_power(GF(2), 17)
    assert prime_power(GF(2), 16) == 65536


def test_derivative_input_validation(F2):
    with pytest.raises(ValueError):
        hasse_derivative(el(F2, "T"), -1)
    with pytest.raises(ValueError):
        taylor_jet(el(F2, "T"), -2)


def test_jet_order_bound(F2, monkeypatch):
    # every order the solver asks for is below p**m <= MAX_PRIME_POWER
    from ffunits import hasse

    x = el(F2, "1/(1+T)")
    assert hasse_derivative(x, 3) == taylor_jet(x, 3)[3]
    # the bound is checked before any expansion starts
    monkeypatch.setattr(hasse, "_jet_coeffs", lambda *a: pytest.fail("jet expanded"))
    with pytest.raises(ResourceLimitError):
        hasse_derivative(x, MAX_PRIME_POWER)
    with pytest.raises(ResourceLimitError):
        taylor_jet(x, MAX_PRIME_POWER)


def test_subfield_routes_that_disagree_are_an_internal_fault(F2, monkeypatch):
    # in_power_subfield asks the exponent pattern and the derivative kernel;
    # a level that puts T^2 + 1 in no subfield contradicts its kernel
    x = el(F2, "T^2+1")
    assert in_power_subfield(x, 1)
    monkeypatch.setattr(hasse, "subfield_level", lambda x: 0)
    with pytest.raises(InternalCheckError, match="subfield membership tests disagree"):
        in_power_subfield(x, 1)


def test_inexact_coordinate_division_is_an_internal_fault(F2, monkeypatch):
    # den**(p**m) is a multiple of den: a remainder left by the division is a fault
    x = el(F2, "1/(T+1)")
    argv = ["indep", "--p", "2", "--b", "1, 1/(T+1)", "--m", "1"]
    subfield_coordinates(x, 1)
    assert run_cli(argv, stdout=io.StringIO(), stderr=io.StringIO()) == 0
    original = hasse._divmod_list
    monkeypatch.setattr(hasse, "_divmod_list", lambda f, a, b: (original(f, a, b)[0], [1]))
    with pytest.raises(InternalCheckError, match="non-exact division"):
        subfield_coordinates(x, 1)
    out, err = io.StringIO(), io.StringIO()
    assert run_cli(argv, stdout=out, stderr=err) == 1
    assert out.getvalue() == "" and "internal check failed: non-exact division" in err.getvalue()

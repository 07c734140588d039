"""RatFunc field operations against the textbook formulas.

The operations cancel across factors instead of taking one gcd of the whole
product, so they are checked here against make(n1*d2 +- n2*d1, d1*d2),
make(n1*n2, d1*d2) and make(n1*d2, d1*n2), and against the cross-multiplied
identity num * (textbook den) = den * (textbook num), which does not go
through make at all.  The operand pairs are drawn so that their
denominators are both 1, equal, coprime or share a factor, the sums can
vanish, and numerators need not be monic.
"""

import operator

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ffunits import GF, Poly, RatFunc, poly_gcd  # noqa: E402

SETTINGS = settings(max_examples=400, deadline=None, derandomize=True, database=None)

FIELDS = [GF(2), GF(3), GF(2, 2, (1, 1, 1)), GF(3, 2, (1, 0, 1))]
SHAPES = ("random", "one", "equal", "coprime", "shared", "negated")


# operator -> the unreduced textbook fraction that make reduces
TEXTBOOK = {
    operator.add: lambda x, y: (x.num * y.den + y.num * x.den, x.den * y.den),
    operator.sub: lambda x, y: (x.num * y.den - y.num * x.den, x.den * y.den),
    operator.mul: lambda x, y: (x.num * y.num, x.den * y.den),
    operator.truediv: lambda x, y: (x.num * y.den, x.den * y.num),
}


def coeffs(field, max_len=4):
    return st.lists(st.integers(0, field.q - 1), max_size=max_len)


def monic(field, cs) -> Poly:
    return Poly(field, tuple(cs) + (1,))


@st.composite
def fraction_with_den(draw, field, den: Poly) -> RatFunc:
    """A reduced fraction (k + den*c) * lam / den: k is a nonzero constant,
    so the numerator is coprime to den, and lam makes it non-monic."""
    k = draw(st.integers(1, field.q - 1))
    lam = draw(st.integers(1, field.q - 1))
    c = Poly.from_coeffs(field, draw(coeffs(field)))
    num = (Poly.constant(field, k) + den * c).scale(lam)
    return RatFunc(num, den) if num.coeffs else RatFunc.zero(field)


@st.composite
def operands(draw):
    field = draw(st.sampled_from(FIELDS))
    shape = draw(st.sampled_from(SHAPES))
    one, t = Poly.one(field), Poly.x(field)
    if shape == "random":
        nums = [Poly.from_coeffs(field, draw(coeffs(field))) for _ in range(2)]
        dens = [monic(field, draw(coeffs(field))) for _ in range(2)]
        return field, shape, RatFunc.make(nums[0], dens[0]), RatFunc.make(nums[1], dens[1])
    if shape == "one":
        d1 = d2 = one
    elif shape == "shared":
        g = monic(field, [draw(st.integers(0, field.q - 1))] + draw(coeffs(field, 2)))
        d1, d2 = g * monic(field, draw(coeffs(field, 2))), g * monic(field, draw(coeffs(field, 2)))
    else:
        d1 = monic(field, draw(coeffs(field)))
        d2 = d1 * t + one if shape == "coprime" else d1
    x = draw(fraction_with_den(field, d1))
    y = -x if shape == "negated" else draw(fraction_with_den(field, d2))
    return field, shape, x, y


def assert_canonical(r: RatFunc):
    for part in (r.num, r.den):
        assert not part.coeffs or part.coeffs[-1] != 0
    assert r.den.is_monic
    assert poly_gcd(r.num, r.den).is_one
    assert not r.num.is_zero or r.den.is_one
    assert RatFunc(r.num, r.den) == r


@SETTINGS
@given(operands())
def test_field_operations_match_textbook_formulas(case):
    _, shape, x, y = case
    if shape == "shared":
        assert poly_gcd(x.den, y.den).degree() > 0
    if shape == "coprime":
        assert poly_gcd(x.den, y.den).is_one
    if shape == "equal":
        assert x.den == y.den
    for op, textbook in TEXTBOOK.items():
        if op is operator.truediv and y.is_zero:
            with pytest.raises(ZeroDivisionError):
                x / y
            continue
        got = op(x, y)
        n, d = textbook(x, y)
        assert got == RatFunc.make(n, d), (op, x, y)
        assert_canonical(got)
        assert got.num * d == got.den * n
    if shape == "negated":
        assert (x + y).is_zero and (x - x).is_zero and (x + y).den.is_one


@SETTINGS
@given(operands())
def test_make_and_inverse_match_definitions(case):
    field, shape, x, y = case
    # make reduces any fraction, with a constant or non-monic denominator too
    for n, d in ((x.num * y.den, x.den * y.num), (x.num, Poly.constant(field, field.q - 1))):
        if d.is_zero:
            continue
        r = RatFunc.make(n, d)
        assert_canonical(r)
        assert r.num * d == r.den * n
    if not y.is_zero:
        inv = y.inverse()
        assert_canonical(inv)
        assert inv == RatFunc.make(y.den, y.num) and (inv * y).is_one


def test_division_by_a_non_monic_numerator():
    F9 = FIELDS[3]
    t = Poly.x(F9)
    y = RatFunc(t.scale(2) + Poly.one(F9), t * t + Poly.one(F9))  # (2T+1)/(T^2+1)
    x = RatFunc(t * t + Poly.one(F9), t)  # (T^2+1)/T
    assert y.num.leading != 1
    for got in (x / y, y.inverse()):
        assert_canonical(got)
    assert x / y == RatFunc.make(*TEXTBOOK[operator.truediv](x, y)) == x * y.inverse()

import random

import pytest

from ffunits import GF, Poly, RatFunc
from ffunits.exprio import parse_element


@pytest.fixture(scope="session")
def F2():
    return GF(2)


@pytest.fixture(scope="session")
def F3():
    return GF(3)


@pytest.fixture(scope="session")
def F5():
    return GF(5)


def el(field, text):
    """Parse a field element from canonical text (test convenience)."""
    return parse_element(text, field)


def pl(field, text):
    """Parse a polynomial from text."""
    value = parse_element(text, field)
    assert value.den.is_one
    return value.num


def rand_poly(rng: random.Random, field: GF, max_deg: int, nonzero: bool = False) -> Poly:
    while True:
        p = Poly.from_coeffs(field, [rng.randrange(field.q) for _ in range(rng.randrange(max_deg + 1) + 1)])
        if not nonzero or not p.is_zero:
            return p


def rand_ratfunc(rng: random.Random, field: GF, max_deg: int, nonzero: bool = False) -> RatFunc:
    while True:
        x = RatFunc.make(rand_poly(rng, field, max_deg), rand_poly(rng, field, max_deg, nonzero=True))
        if not nonzero or not x.is_zero:
            return x


def coordinate_fractions(rows):
    """Integral coordinate rows (nums, den) as RatFunc rows, entry r being make(nums[r], den)."""
    return [[RatFunc.make(n, den) for n in nums] for nums, den in rows]


def sympy_element(x: RatFunc):
    """x as an element of sympy's GF(p)(T): an oracle sharing no code with ffunits.

    Prime fields only.
    """
    from sympy import FF, Integer, Symbol

    T = Symbol("T")
    K = FF(x.field.p).frac_field(T)

    def expr(p: Poly):
        return sum((c * T**k for k, c in enumerate(p.coeffs)), Integer(0))

    return K.from_sympy(expr(x.num)) / K.from_sympy(expr(x.den))


def sympy_matrix(rows):
    """A RatFunc matrix as a sympy DomainMatrix over GF(p)(T)."""
    from sympy import FF, Symbol
    from sympy.polys.matrices import DomainMatrix

    K = FF(rows[0][0].field.p).frac_field(Symbol("T"))
    entries = [[sympy_element(x) for x in row] for row in rows]
    return DomainMatrix(entries, (len(rows), len(rows[0])), K)

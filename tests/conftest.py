import random

import pytest

from ffunits import GF, Modulus, Poly, RatFunc, poly_divmod
from ffunits.errors import InternalCheckError
from ffunits.exprio import parse_element
from ffunits.hasse import in_power_subfield
from ffunits.intlattice import hnf
from ffunits.unitgroup import SubgroupPresentation, _exponent_target, member, residue_key


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


def invmod(a: Poly, m: Poly) -> Poly:
    """The inverse of a modulo m by an extended Euclid on Poly values, apart
    from the package's list-level inverse; ZeroDivisionError when
    gcd(a, m) != 1."""
    field = a.field
    r0, r1 = m, a % m
    u0, u1 = Poly.zero(field), Poly.one(field)
    while not r1.is_zero:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
    if r0.degree() != 0:
        raise ZeroDivisionError("not invertible modulo m")
    return u0.scale(field.inv(r0.coeffs[0])) % m


def mulmod(a: Poly, b: Poly, m: Poly) -> Poly:
    return (a * b) % m


def reduce_mod(x: RatFunc, m: Modulus) -> Poly:
    """The image of x in F_q[t]/(base**e) by Poly arithmetic and invmod: the
    oracle of the residues of localprobe.  ZeroDivisionError at a pole."""
    return mulmod(x.num, invmod(x.den, m.poly), m.poly)


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


def in_rational_rowspan(rows, width, target) -> bool:
    """Whether target lies in the Q-span of the rows: appending it adds no pivot."""
    rank = len(hnf(rows, width)[1])
    return len(hnf([*rows, target], width)[1]) == rank


def radical_member(x: RatFunc, group: SubgroupPresentation) -> bool:
    """Whether some positive power of x is a member (lattice saturation).

    Torsion never obstructs: once n * exponents(x) lies in the lattice, a
    further (q-1)-th power moves the leftover F_q* constant to 1.
    """
    if x.is_zero:
        raise ValueError("radical membership is asked of nonzero elements")
    target, _, stray = _exponent_target(x, group)
    if stray:
        return False
    return in_rational_rowspan(
        [list(r) for r in group.exponent_matrix], len(group.support), target
    )


def kernel_element_check(x: RatFunc, group: SubgroupPresentation, m: int) -> bool:
    """Whether a member x lies in F_q(t**(p**m)); cross-checked two ways."""
    word = member(x, group)
    if word is None:
        raise ValueError("kernel test is only defined for members of the group")
    by_lattice = all(v == 0 for v in residue_key(group, word, m))
    by_subfield = in_power_subfield(x, m)
    if by_lattice != by_subfield:
        raise InternalCheckError(
            f"kernel tests disagree for {x!r}: lattice {by_lattice}, subfield {by_subfield}"
        )
    return by_lattice

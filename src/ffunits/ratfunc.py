"""The rational function field K = F_q(t): reduced fractions, valuations,
divisor vectors (plain dicts from place to nonzero exponent) and
residue-ring reduction.

Values are canonical: a RatFunc keeps a reduced fraction with monic
denominator, so equality and hashing are structural.  RatFunc is a
slotted immutable class like Poly.  The public constructor checks the
canonical form; everything else builds through the unchecked
``_canonical``, which is used only where the fraction is canonical by
construction.

RatFunc.make reduces num/den by one gcd, skipped when den is constant.
The field operations never take the gcd of a whole product; they cancel
across the factors instead (Henrici, J. ACM 3, 1956), so each result is
reduced because its inputs are:

* a*b and a/b cancel gcd(n1, d2) and gcd(n2, d1), where a/b is a times
  the inverse d2/n2 of b: n1 is coprime to d1 and n2 to d2, so no factor
  is left in common.
* a+b and a-b with g = gcd(d1, d2): when g = 1, n1*d2 + n2*d1 shares no
  factor with d1 (it would divide n1*d2) nor with d2, so the fraction over
  d1*d2 is reduced with no gcd of the sum (and no gcd at all when a
  denominator is 1).  Otherwise the sum n1*(d2/g) + n2*(d1/g) over
  (d1/g)*d2 can share only factors of g with its denominator, and one gcd
  with g cancels them (equal denominators give g = d1 without a gcd).

Denominators stay monic: every gcd is monic, and an inverse is scaled by
the inverse of its leading coefficient.

A place of K over F_q is held as its monic irreducible Poly.  Local
completions are never materialized, only the finite-precision residue
rings F_q[t]/(base**e) described by Modulus.
"""

from dataclasses import dataclass
from functools import cached_property

from .field import GF
from .poly import (
    Poly,
    Value,
    factor,
    is_irreducible,
    poly_gcd,
    poly_invmod,
    poly_mulmod,
)

_new = object.__new__
_setattr = object.__setattr__


class RatFunc(Value):
    """A reduced fraction num/den with monic denominator (zero is 0/1); immutable."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if not den.is_monic:
            raise ValueError("denominator must be monic")
        if num.is_zero and not den.is_one:
            raise ValueError("zero must be represented as 0/1")
        _setattr(self, "num", num)
        _setattr(self, "den", den)

    def __eq__(self, other):
        if other.__class__ is not RatFunc:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # consistent with __eq__, which also requires equal coefficient tuples
        return hash((self.num.coeffs, self.den.coeffs))

    @classmethod
    def make(cls, num: Poly, den: Poly) -> "RatFunc":
        """Build the canonical reduced form of num/den."""
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        f = num.field
        if num.is_zero:
            return _canonical(num, Poly.one(f))
        if den.degree() > 0:
            g = poly_gcd(num, den)
            if g.degree() > 0:
                num, den = num // g, den // g
        lc = den.leading
        if lc != 1:
            inv = f.inv(lc)
            num, den = num.scale(inv), den.scale(inv)
        return _canonical(num, den)

    @classmethod
    def from_poly(cls, p: Poly) -> "RatFunc":
        return cls(p, Poly.one(p.field))

    @classmethod
    def zero(cls, field: GF) -> "RatFunc":
        return cls(Poly.zero(field), Poly.one(field))

    @classmethod
    def one(cls, field: GF) -> "RatFunc":
        return cls(Poly.one(field), Poly.one(field))

    @classmethod
    def constant(cls, field: GF, c: int) -> "RatFunc":
        return cls(Poly.constant(field, c), Poly.one(field))

    @classmethod
    def t(cls, field: GF) -> "RatFunc":
        return cls(Poly.x(field), Poly.one(field))

    @property
    def field(self) -> GF:
        return self.num.field

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_one(self) -> bool:
        return self.num.is_one and self.den.is_one

    def sort_key(self):
        return (self.den.sort_key(), self.num.sort_key())

    def __repr__(self):
        return f"RatFunc({list(self.num.coeffs)} / {list(self.den.coeffs)}, q={self.field.q})"

    # -- field operations --

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return _sum(self.num, self.den, other.num, other.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return _sum(self.num, self.den, -other.num, other.den)

    def __neg__(self) -> "RatFunc":
        return _canonical(-self.num, self.den)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return _product(self.num, self.den, other.num, other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero:
            raise ZeroDivisionError("division by zero")
        n2, d2 = _inverted(other)
        return _product(self.num, self.den, n2, d2)

    def inverse(self) -> "RatFunc":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        return _canonical(*_inverted(self))

    def __pow__(self, e: int) -> "RatFunc":
        if e == 0:
            return RatFunc.one(self.field)
        base = self if e > 0 else self.inverse()
        # num and den stay coprime and the denominator stays monic
        return _canonical(base.num ** abs(e), base.den ** abs(e))


def _canonical(num: Poly, den: Poly) -> RatFunc:
    """The RatFunc num/den without the constructor's checks, for fractions
    that are reduced with monic denominator by construction.
    """
    x = _new(RatFunc)
    _setattr(x, "num", num)
    _setattr(x, "den", den)
    return x


def _inverted(x: RatFunc) -> tuple[Poly, Poly]:
    """den/num of a nonzero x, scaled to a monic denominator."""
    lc = x.num.leading
    if lc == 1:
        return x.den, x.num
    inv = x.field.inv(lc)
    return x.den.scale(inv), x.num.scale(inv)


def _product(n1: Poly, d1: Poly, n2: Poly, d2: Poly) -> RatFunc:
    """(n1/d1) * (n2/d2) for reduced fractions with monic denominators."""
    n1._same_field(n2)
    if not n1.coeffs:
        return _canonical(n1, d1)
    if not n2.coeffs:
        return _canonical(n2, d2)
    if len(n1.coeffs) > 1 and d2.coeffs != (1,):
        g = poly_gcd(n1, d2)
        if len(g.coeffs) > 1:
            n1, d2 = n1 // g, d2 // g
    if len(n2.coeffs) > 1 and d1.coeffs != (1,):
        g = poly_gcd(n2, d1)
        if len(g.coeffs) > 1:
            n2, d1 = n2 // g, d1 // g
    return _canonical(n1 * n2, d1 * d2)


def _sum(n1: Poly, d1: Poly, n2: Poly, d2: Poly) -> RatFunc:
    """n1/d1 + n2/d2 for reduced fractions with monic denominators."""
    n1._same_field(n2)
    if not n1.coeffs:
        return _canonical(n2, d2)
    if not n2.coeffs:
        return _canonical(n1, d1)
    g = None  # what num and den may share: a factor of gcd(d1, d2)
    if d1.coeffs == (1,):
        num, den = (n1 if d2.coeffs == (1,) else n1 * d2) + n2, d2
    elif d2.coeffs == (1,):
        num, den = n1 + n2 * d1, d1
    elif d1 == d2:
        num, den, g = n1 + n2, d1, d1
    else:
        g = poly_gcd(d1, d2)
        if len(g.coeffs) == 1:
            num, den, g = n1 * d2 + n2 * d1, d1 * d2, None
        else:
            e1 = d1 // g
            num, den = n1 * (d2 // g) + n2 * e1, e1 * d2
    if not num.coeffs:
        return _canonical(num, Poly.one(num.field))
    if g is not None:
        h = poly_gcd(num, g)
        if len(h.coeffs) > 1:
            num, den = num // h, den // h
    return _canonical(num, den)


# -- valuations and divisors --


def multiplicity(a: Poly, p: Poly) -> tuple[int, Poly]:
    """(k, a / p**k) for the largest k with p**k dividing the nonzero a,
    found by exact trial division (p of positive degree).
    """
    count = 0
    while True:
        q, r = divmod(a, p)
        if r.coeffs:
            return count, a
        count += 1
        a = q


def valuation(x: RatFunc, place: Poly) -> int:
    """Order of vanishing of x at a place, given as its monic irreducible."""
    if x.is_zero:
        raise ValueError("valuation of zero")
    # the fraction is reduced, so at most one of the two counts is nonzero
    return multiplicity(x.num, place)[0] - multiplicity(x.den, place)[0]


def divisor_vector(x: RatFunc) -> tuple[dict[Poly, int], int]:
    """Exponent map of x over the finite places (monic irreducibles, nonzero
    exponents only, in Poly.sort_key order) plus its leading unit:
    x equals constant * prod(place ** exponent).
    """
    if x.is_zero:
        raise ValueError("divisor of zero")
    fn, fd = factor(x.num), factor(x.den)
    # the fraction is reduced: no place divides both
    exps = dict(fn.factors)
    exps.update((g, -e) for g, e in fd.factors)
    constant = x.field.div(fn.unit, fd.unit)
    return dict(sorted(exps.items(), key=lambda pe: pe[0].sort_key())), constant


# -- finite-precision residue rings --


@dataclass(frozen=True)
class Modulus:
    """The ideal (base**exponent): the finite-precision window on one place."""

    base: Poly
    exponent: int

    def __post_init__(self):
        if self.exponent < 1:
            raise ValueError("modulus exponent must be >= 1")
        base = self.base
        if not base.is_monic or base.degree() < 1 or not is_irreducible(base):
            raise ValueError("modulus base must be monic irreducible")

    @cached_property
    def poly(self) -> Poly:
        return self.base**self.exponent

    def __repr__(self):
        return f"Modulus(base={list(self.base.coeffs)}, e={self.exponent})"


def reduce_mod(x: RatFunc, m: Modulus) -> Poly:
    """Image of x in F_q[t]/(base**e); requires the denominator invertible there.

    A polynomial (denominator 1) is reduced by one division.
    """
    modpoly = m.poly
    if x.den.is_one:
        return x.num % modpoly
    try:
        den_inv = poly_invmod(x.den, modpoly)
    except ZeroDivisionError:
        raise ZeroDivisionError("element has a pole at the modulus place") from None
    return poly_mulmod(x.num, den_inv, modpoly)

"""Higher (divided-power) derivatives on F_q(t) and the subfields F_q(t**(p**m)).

The i-th derivative D(i)(x) is the coefficient of u**i in the expansion of
x(t+u).  In characteristic p this family replaces iterated d/dt: it is
additive, satisfies the Leibniz rule coefficientwise, is iterative
(D(i)D(j) = C(i+j,i) D(i+j) mod p), and for every m >= 1 the joint kernel
of D(1), ..., D(p**m - 1) is exactly the subfield F_q(t**(p**m)).

The coordinates of x over F_q(t**(p**m)) come as one integral row: the
p**m numerator slices of x.num * x.den**(p**m - 1) over the relabeled
den**(p**m), a single monic denominator, with no fraction reduced.  The
elimination kernel in wronskian clears denominators anyway, so reducing
each coordinate first would be work it undoes.  No power is built by
squaring: den**(p**m) is den with its coefficients raised to the p**m-th
power and spread to stride p**m, and den**(p**m - 1) is that divided
exactly by den, in one pass of the division kernel.

Membership in that subfield is always decided twice here, once through the
derivative kernel and once through the exponent pattern of the reduced
fraction; a disagreement raises InternalCheckError since the two routes
are independent.

Each element keeps one memoized jet, grown an order at a time under a
lock only as far as a reader asks.  The memo is transparent, so answers
are identical with or without it.  p**m and every jet order are held to
errors.MAX_PRIME_POWER; the hasse command also charges a jet against
errors.DEFAULT_BOX_LIMIT before it expands it (check_jet_bounds), while
the solver's own jets stop at order p**m - 1 and are not charged.
"""

import itertools
import math
import threading
from functools import lru_cache

from . import errors
from .errors import InternalCheckError
from .field import GF
from .poly import Poly, _divmod_list, _mul_list, _trimmed
from .ratfunc import RatFunc


def prime_power(field: GF, m: int) -> int:
    """p**m with the desk-scale resource guard."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    pm = field.p**m
    if pm > errors.MAX_PRIME_POWER:
        errors.refuse("p**m", pm, errors.MAX_PRIME_POWER)
    return pm


def binom_mod(n: int, k: int, p: int) -> int:
    """Binomial coefficient mod p by Lucas's digit rule."""
    if k < 0 or k > n:
        return 0
    r = 1
    while k and r:
        n, nd = divmod(n, p)
        k, kd = divmod(k, p)
        r = r * math.comb(nd, kd) % p  # comb is 0 when kd > nd
    return r


def poly_jet(a: Poly):
    """D(0)(a), D(1)(a), ...: the coefficients in u of a(t+u), without end."""
    f = a.field
    exp, log, p = f.exp_table, f.log_table, f.p
    la = [log[c] for c in a.coeffs]
    for i in itertools.count():
        coeffs = []
        for k in range(i, len(la)):
            bc = binom_mod(k, i, p) if la[k] is not None else 0
            coeffs.append(exp[la[k] + log[bc]] if bc else 0)
        yield _trimmed(f, coeffs)


def _expand_jet(x: RatFunc):
    """D(0)(x), D(1)(x), ...: powers of u in x(t+u) * den(t+u) = num(t+u), in order."""
    inv0 = RatFunc.make(Poly.one(x.field), x.den)
    den_terms, out = [], []  # (k, D(k)(den)) for k >= 1 and D(k)(den) != 0
    for i, (a, e) in enumerate(zip(poly_jet(x.num), poly_jet(x.den))):
        if i and not e.is_zero:
            den_terms.append((i, RatFunc.from_poly(e)))
        acc = RatFunc.from_poly(a)
        for k, e_k in den_terms:
            acc = acc - e_k * out[i - k]
        out.append(acc * inv0)
        yield out[-1]


@lru_cache(maxsize=4096)
def _jet_coeffs(x: RatFunc):
    """The jet of x: its rows D(0)(x), D(1)(x), ... so far, their generator, its lock."""
    return [], _expand_jet(x), threading.Lock()


def _check_order(order: int, what: str):
    # the solver never needs a jet past p**m - 1 <= MAX_PRIME_POWER - 1
    if order < 0:
        raise ValueError(f"{what} must be nonnegative")
    if order >= errors.MAX_PRIME_POWER:
        errors.refuse(what, order, errors.MAX_PRIME_POWER - 1)


def check_jet_bounds(x: RatFunc, order: int, what: str) -> None:
    """Refuse with ResourceLimitError a jet of x to this order past its
    bounds: the order bound, then a work charge read from the degrees alone.

    Entry i is a fraction of degree at most S(i) = deg(num) + (i + 1) * deg(den),
    found with at most min(i, deg(den)) + 1 products and sums of such
    fractions, each reduced by a gcd of about S(i)**2 operations; so the jet
    is charged (order + 1) * (min(order, deg(den)) + 1) * (S(order) + 1)**2,
    an upper bound on that work, and refused past errors.DEFAULT_BOX_LIMIT.
    """
    _check_order(order, what)
    num, den = x.num.degree(), x.den.degree()
    charge = (order + 1) * (min(order, den) + 1) * (num + (order + 1) * den + 1) ** 2
    if charge > errors.DEFAULT_BOX_LIMIT:
        errors.refuse("jet charge", charge, errors.DEFAULT_BOX_LIMIT)


def taylor_jet(x: RatFunc, order: int) -> tuple[RatFunc, ...]:
    """D(0..order)(x), entry i being D(i)(x), from one truncated expansion."""
    _check_order(order, "jet order")
    hasse_derivative(x, order)  # grows the jet of x to order
    return tuple(_jet_coeffs(x)[0][: order + 1])


def hasse_derivative(x: RatFunc, i: int) -> RatFunc:
    """The i-th higher derivative of x, off the jet of x grown to order i."""
    _check_order(i, "derivative index")
    rows, more, lock = _jet_coeffs(x)
    with lock:
        while len(rows) <= i:
            rows.append(next(more))
    return rows[i]


def subfield_level(x: RatFunc) -> int | None:
    """The largest k with x in F_q(t**(p**k)), or None for a constant x.

    Read from the exponents of the reduced fraction: x lies in that
    subfield iff p**k divides every exponent of its numerator and
    denominator, so k is the p-adic valuation of their gcd.
    """
    g = math.gcd(*(k for a in (x.num, x.den) for k, c in enumerate(a.coeffs) if c))
    if not g:
        return None
    p, level = x.field.p, 0
    while g % p == 0:
        g, level = g // p, level + 1
    return level


def in_power_subfield(x: RatFunc, m: int) -> bool:
    """Whether x lies in F_q(t**(p**m)), decided by two independent routes."""
    pm = prime_power(x.field, m)
    level = subfield_level(x)
    structural = level is None or level >= m
    kernel = all(d.is_zero for d in taylor_jet(x, pm - 1)[1:])
    if structural != kernel:
        raise InternalCheckError(
            f"subfield membership tests disagree for {x!r}, m={m}: "
            f"exponent pattern says {structural}, derivative kernel says {kernel}"
        )
    return structural


def inflate(x: RatFunc, k: int) -> RatFunc:
    """Substitute t -> t**k (the inverse of the coordinate relabeling)."""
    if k < 1:
        raise ValueError("inflation factor must be >= 1")

    def stretch(a: Poly) -> Poly:
        if a.is_zero:
            return a
        out = [0] * (a.degree() * k + 1)
        out[::k] = a.coeffs
        return Poly(a.field, tuple(out))

    # reduced-ness and the monic denominator survive the substitution
    return RatFunc(stretch(x.num), stretch(x.den))


def subfield_coordinates(x: RatFunc, m: int) -> tuple[tuple[Poly, ...], Poly]:
    """Integral coordinates (nums, den_hat) of x in the basis 1, t, ...,
    t**(p**m - 1) over F_q(t**(p**m)).

    Coordinate r is nums[r] / den_hat, relabeled along a(t**(p**m)) -> a(t)
    so that it lives in K and ordinary linear algebra over K applies; the
    defining identity is x = sum(inflate(nums[r] / den_hat, p**m) * t**r).
    The fractions are left unreduced: den_hat is the monic common
    denominator of the row, which the elimination kernel clears anyway.
    """
    pm = prime_power(x.field, m)
    f = x.field
    # in characteristic p, den**pm = sum(c_k**pm * t**(k*pm)), so its
    # relabeling is den with every coefficient raised to the pm-th power
    den_hat = tuple(f.frobenius(c, m) for c in x.den.coeffs)
    # and den**(pm - 1) is den**pm, den_hat laid out at stride pm, over den
    power = [0] * ((len(den_hat) - 1) * pm + 1)
    power[::pm] = den_hat
    cofactor, rem = _divmod_list(f, power, x.den.coeffs)
    if any(rem):
        raise InternalCheckError("non-exact division of den**(p**m) by den")
    coeffs = _mul_list(f, x.num.coeffs, cofactor)  # [] for x = 0, whose den is 1
    return tuple(_trimmed(f, coeffs[r::pm]) for r in range(pm)), Poly(f, den_hat)

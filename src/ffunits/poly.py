"""Dense univariate polynomials over F_q, with complete factorization.

A polynomial is an immutable little-endian tuple of int-encoded F_q
coefficients with no trailing zero; the zero polynomial carries the empty
tuple.  ``Poly`` is a slotted immutable class on the ``Value`` base it
shares with ``ratfunc.RatFunc``: equal polynomials over equal fields
compare equal, and the hash is the hash of the coefficient tuple.
The canonical sort key is (degree, coefficient tuple), which is the order
used for factor lists, place enumeration and every other deterministic
listing in the package.

The arithmetic runs on plain coefficient lists.  ``_add_list``,
``_mul_list`` and ``_divmod_list`` hold the coefficient loops, each with
its field branches written once: over a prime field they accumulate plain
ints and reduce mod p once per output coefficient; over GF(2**s) they
multiply through the log/exp tables and accumulate with XOR; over other
extension fields they add through the Zech table (see ``field``).  They
read the field's tables once per call and make no method call per
coefficient.  A constant operand takes one ``_scale_list`` pass instead:
a product by a nonzero constant scales the other operand (copies it for
1), and a division by a constant scales by its inverse (returns the
dividend for 1) and leaves an empty remainder.  ``+``, ``-``, ``*``,
``scale``, ``poly_divmod``, ``poly_powmod`` and ``poly_gcd`` share them
and build one ``Poly`` per result, except where the operands fix the
answer: ``1 * x`` and ``x * 1``, ``0 + x`` and
``x + 0``, ``x ** 1`` and ``1 ** e`` return an operand itself, which is
safe because a ``Poly`` is never changed after it is built, and a gcd
with a constant operand is 1.  These rules stay, since they also save
building a ``Poly`` (on the solver's traffic most products have the
factor 1: a denominator, a unit pivot, the start of a power), and so do
``x is one`` in ``localprobe._coset_listing``, which also saves a
reduction, the ``d1 = 1`` case of ``ratfunc._sum`` and the zero-entry
guards of the ``wronskian`` echelon, which save whole calls.
``poly_divmod`` leaves a constant divisor to ``_divmod_list``, which
already answers it.  Residue rings have list kernels only:
``_mulmod_list`` (a product reduced in the same pass), which
``poly_powmod``, the table builder of ``field`` and ``localprobe`` call,
and ``_invmod_list`` (an extended Euclid that keeps one cofactor), which
``localprobe`` calls.  The public constructor
checks for a trailing zero; ``_trimmed`` drops trailing zeros itself and
is the one place that builds a ``Poly`` without that check.  Hot loops
outside this module call the list kernels, or ``_trimmed``, directly and
build a ``Poly`` only for what they return: the ``wronskian`` echelon,
the trial division of ``ratfunc.multiplicity``, the ``b . x = 1`` check
of ``solver``, the residues, residue listing and box search of
``localprobe``, the jets and subfield coordinates of ``hasse``, the
evaluator of ``exprio`` and the table builder of ``field``.

Factorization runs the classical pipeline: squarefree split, then
distinct-degree, then equal-degree (Cantor-Zassenhaus) splitting.  The
equal-degree stage draws from a generator seeded with the fixed
DEFAULT_SEED, built only when a split first draws, so the whole run is
reproducible; a monic polynomial of degree 1 is its own factor.  The
returned factor list is canonically sorted and therefore identical for
every seed.  A
factorization is charged an upper bound on its work before it starts and
refused past errors.DEFAULT_BOX_LIMIT.
"""

import functools
import itertools
import random
from dataclasses import FrozenInstanceError, dataclass

from . import errors
from .field import GF

DEFAULT_SEED = 0

_new = object.__new__
_setattr = object.__setattr__


class Value:
    """Base of the slotted immutable value classes (Poly, ratfunc.RatFunc).

    A subclass sets its slots once with object.__setattr__; copying and
    pickling rebuild the value through the public constructor.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Poly(Value):
    """A polynomial over ``field`` with coefficient tuple ``coeffs``; immutable."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: GF, coeffs: tuple[int, ...]):
        if coeffs and coeffs[-1] == 0:
            raise ValueError("trailing zero coefficient")
        _setattr(self, "field", field)
        _setattr(self, "coeffs", coeffs)

    def __eq__(self, other):
        if other.__class__ is not Poly:
            return NotImplemented
        return self.coeffs == other.coeffs and (self.field is other.field or self.field == other.field)

    def __hash__(self):
        # consistent with __eq__, which also requires equal coefficient tuples
        return hash(self.coeffs)

    # -- constructors --

    @classmethod
    def from_coeffs(cls, field: GF, coeffs) -> "Poly":
        cs = [field.check(int(c)) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(field, tuple(cs))

    @classmethod
    def zero(cls, field: GF) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: GF) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def constant(cls, field: GF, c: int) -> "Poly":
        c = field.check(c)
        return cls(field, (c,) if c else ())

    @classmethod
    def x(cls, field: GF) -> "Poly":
        return cls(field, (0, 1))

    # -- basic queries --

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_one(self) -> bool:
        return self.coeffs == (1,)

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def sort_key(self):
        return (len(self.coeffs), self.coeffs)

    def __repr__(self):
        return f"Poly(q={self.field.q}, {list(self.coeffs)})"

    # -- arithmetic --

    def _same_field(self, other: "Poly"):
        if self.field is not other.field and self.field != other.field:
            raise ValueError("mixed-field polynomial arithmetic")

    def __add__(self, other: "Poly") -> "Poly":
        self._same_field(other)
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        f = self.field
        return _trimmed(f, _add_list(f, self.coeffs, other.coeffs))

    def __neg__(self) -> "Poly":
        f = self.field
        if f.p == 2:  # -1 == 1, and a polynomial is immutable
            return self
        return _trimmed(f, _neg_list(f, self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        self._same_field(other)
        f = self.field
        return _trimmed(f, _sub_list(f, self.coeffs, other.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        self._same_field(other)
        a, b = self.coeffs, other.coeffs
        if a == (1,):
            return other
        if b == (1,):
            return self
        f = self.field
        if not a or not b:
            return Poly.zero(f)
        return _trimmed(f, _mul_list(f, a, b))

    def scale(self, c: int) -> "Poly":
        f = self.field
        if c == 0:
            return Poly.zero(f)
        if c == 1:
            return self
        return _trimmed(f, _scale_list(f, self.coeffs, c))

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial power")
        if e == 1 or self.coeffs == (1,):
            return self
        r = Poly.one(self.field)
        b = self
        while e:
            if e & 1:
                r = r * b
            e >>= 1
            if e:
                b = b * b
        return r

    def __divmod__(self, other: "Poly"):
        return poly_divmod(self, other)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return poly_divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return poly_divmod(self, other)[1]

    def monic(self) -> tuple["Poly", int]:
        """Return (monic multiple, leading unit) with self = unit * monic."""
        lc = self.leading
        if lc == 1:
            return self, 1
        return self.scale(self.field.inv(lc)), lc

    def derivative(self) -> "Poly":
        f = self.field
        out = []
        for k in range(1, len(self.coeffs)):
            out.append(f.mul(self.coeffs[k], k % f.p))
        return _trimmed(f, out)


def _trimmed(f: GF, out: list) -> Poly:
    """The polynomial with coefficient list out, trailing zeros dropped (out is consumed).

    The only constructor that skips the trailing-zero check, which the
    trimming makes redundant.
    """
    _trim(out)
    a = _new(Poly)
    _setattr(a, "field", f)
    _setattr(a, "coeffs", tuple(out))
    return a


# -- coefficient-list kernels: inputs are sequences of encoded elements,
# outputs fresh lists that may carry trailing zeros --


def _trim(out: list) -> list:
    while out and out[-1] == 0:
        out.pop()
    return out


def _add_list(f: GF, a, b) -> list:
    if len(a) < len(b):
        a, b = b, a
    p = f.p
    if p == 2:
        out = [x ^ y for x, y in zip(a, b)]
    elif f.s == 1:
        out = [(x + y) % p for x, y in zip(a, b)]
    else:
        exp, log, zech = f.exp_table, f.log_table, f.zech_table
        out = []
        for x, y in zip(a, b):
            if x and y:
                lx = log[x]
                z = zech[log[y] - lx]
                out.append(0 if z < 0 else exp[lx + z])
            else:
                out.append(x or y)
    out += a[len(b):]
    return out


def _neg_list(f: GF, a) -> list:
    if f.p == 2:  # -1 == 1
        return list(a)
    # -1 is g**((q - 1) / 2) for a generator g of the multiplicative group
    exp, log, half = f.exp_table, f.log_table, (f.q - 1) // 2
    return [exp[log[c] + half] if c else 0 for c in a]


def _sub_list(f: GF, a, b) -> list:
    return _add_list(f, a, _neg_list(f, b))


def _scale_list(f: GF, a, c: int) -> list:
    """The coefficients times the nonzero scalar c."""
    exp, log = f.exp_table, f.log_table
    lc = log[c]
    return [exp[log[x] + lc] if x else 0 for x in a]


def _mul_list(f: GF, a, b) -> list:
    """The product's coefficients; a and b nonempty."""
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1 and b[0]:
        return list(a) if b[0] == 1 else _scale_list(f, a, b[0])
    out = [0] * (len(a) + len(b) - 1)
    if f.s == 1:
        for i, x in enumerate(a):
            if x:
                for k, y in enumerate(b, i):
                    out[k] += x * y
        p = f.p
        return [c % p for c in out]
    exp, log, zech = f.exp_table, f.log_table, f.zech_table
    lb = [log[y] for y in b]
    for i, x in enumerate(a):
        if not x:
            continue
        lx = log[x]
        if zech is None:  # p == 2
            for k, ly in enumerate(lb, i):
                if ly is not None:
                    out[k] ^= exp[lx + ly]
            continue
        for k, ly in enumerate(lb, i):
            if ly is not None:
                t = lx + ly
                c = out[k]
                if c:
                    lc = log[c]
                    z = zech[t - lc]
                    out[k] = 0 if z < 0 else exp[lc + z]
                else:
                    out[k] = exp[t]
    return out


def _divmod_list(f: GF, rem: list, b) -> tuple[list, list]:
    """Quotient and remainder of rem by b, whose last coefficient is nonzero.

    rem is consumed; the remainder has deg b entries, or rem's own when
    that is shorter.
    """
    if len(b) == 1:
        return (rem if b[0] == 1 else _scale_list(f, rem, f.inv(b[0]))), []
    *low, lead = b
    db = len(low)
    if len(rem) <= db:
        return [], rem
    quot = [0] * (len(rem) - db)
    if f.s == 1:
        # rem holds unreduced ints; each is reduced when it becomes a leading term
        p = f.p
        inv_lead = f.inv(lead)
        for i in range(len(quot) - 1, -1, -1):
            c = rem[i + db] % p
            if c:
                q_i = c * inv_lead % p
                quot[i] = q_i
                for k, y in enumerate(low, i):
                    rem[k] -= q_i * y
        return quot, [c % p for c in rem[:db]]
    exp, log, zech = f.exp_table, f.log_table, f.zech_table
    n = f.q - 1
    lb = [log[y] for y in low]
    linv = n - log[lead]
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + db]
        if not c:
            continue
        lq = (log[c] + linv) % n
        quot[i] = exp[lq]
        if zech is None:  # p == 2, where subtracting is adding
            for k, ly in enumerate(lb, i):
                if ly is not None:
                    rem[k] ^= exp[lq + ly]
            continue
        lq = (lq + n // 2) % n  # the log of -q_i
        for k, ly in enumerate(lb, i):
            if ly is not None:
                t = lq + ly
                r = rem[k]
                if r:
                    lr = log[r]
                    z = zech[t - lr]
                    rem[k] = 0 if z < 0 else exp[lr + z]
                else:
                    rem[k] = exp[t]
    return quot, rem[:db]


def _mulmod_list(f: GF, a, b, m) -> list:
    """Coefficients of a*b mod m (m with nonzero last coefficient)."""
    if not a or not b:
        return []
    return _divmod_list(f, _mul_list(f, a, b), m)[1]


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Euclidean division: a = q*b + r with deg r < deg b."""
    a._same_field(b)
    f = a.field
    if not b.coeffs:
        raise ZeroDivisionError("division by zero polynomial")
    if len(a.coeffs) < len(b.coeffs):
        return Poly.zero(f), a
    quot, rem = _divmod_list(f, list(a.coeffs), b.coeffs)
    return _trimmed(f, quot), _trimmed(f, rem)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor, by Euclid on coefficient lists."""
    a._same_field(b)
    if not a.coeffs and not b.coeffs:
        raise ValueError("gcd of two zero polynomials")
    f = a.field
    if len(a.coeffs) == 1 or len(b.coeffs) == 1:
        return Poly.one(f)
    x, y = list(a.coeffs), list(b.coeffs)
    while y:
        x, y = y, _trim(_divmod_list(f, x, y)[1])
    if x[-1] != 1:
        x = _scale_list(f, x, f.inv(x[-1]))
    return _trimmed(f, x)


def _invmod_list(f: GF, a, m) -> list:
    """Trimmed coefficients of the inverse of a modulo m (m of degree >= 1);
    raises ZeroDivisionError when gcd(a, m) != 1.

    Extended Euclid on coefficient lists that keeps only the cofactor u_i
    with r_i = u_i * a mod m.
    """
    r0, r1 = list(m), _trim(_divmod_list(f, list(a), m)[1])
    u0, u1 = [], [1]
    while r1:
        q, r = _divmod_list(f, r0, r1)
        r0, r1 = r1, _trim(r)
        u0, u1 = u1, _trim(_sub_list(f, u0, _mul_list(f, q, u1)))
    if len(r0) != 1:
        raise ZeroDivisionError("element is not invertible modulo the given polynomial")
    u = _scale_list(f, u0, f.inv(r0[0]))
    return _trim(_divmod_list(f, u, m)[1])


def poly_powmod(base: Poly, exp: int, modulus: Poly) -> Poly:
    """base**exp reduced mod modulus, by square and multiply on coefficient lists."""
    if modulus.is_zero or modulus.degree() < 1:
        raise ValueError("invalid modulus")
    if exp < 0:
        raise ValueError("negative exponent")
    base._same_field(modulus)
    f, m = base.field, modulus.coeffs
    result = [1]
    b = _divmod_list(f, list(base.coeffs), m)[1]
    while exp:
        if exp & 1:
            result = _mulmod_list(f, result, b, m)
        exp >>= 1
        if exp:
            b = _mulmod_list(f, b, b, m)
    return _trimmed(f, result)


# -- factorization --


@dataclass(frozen=True)
class Factorization:
    """unit * prod(poly**multiplicity); factors monic irreducible, sorted."""

    field: GF
    unit: int
    factors: tuple[tuple[Poly, int], ...]


@functools.lru_cache(maxsize=4096)
def is_irreducible(a: Poly) -> bool:
    """Irreducibility over F_q by the distinct-degree split, memoized per polynomial."""
    if a.is_zero or a.degree() < 1:
        raise ValueError("irreducibility is asked of nonconstant polynomials")
    f = a.monic()[0]
    return _distinct_degree_split(f) == [(f.degree(), f)]


def _pth_root(a: Poly) -> Poly:
    """p-th root of a polynomial all of whose exponents are divisible by p."""
    f = a.field
    p = f.p
    out = []
    for k in range(0, a.degree() + 1, p):
        # the inverse of the p-power Frobenius on F_q is p**(s-1) further powers
        out.append(f.frobenius(a.coeff(k), f.s - 1))
    return Poly.from_coeffs(f, out)


def _squarefree_split(f: Poly) -> list[tuple[Poly, int]]:
    """Monic squarefree parts with multiplicities; f monic nonconstant."""
    field = f.field
    p = field.p
    out = []
    e = 1
    while f.degree() > 0:
        d = f.derivative()
        if d.is_zero:
            f = _pth_root(f)
            e *= p
            continue
        c = poly_gcd(f, d)
        if c.is_one:  # f is squarefree: its one part, with no division by 1
            out.append((f, e))
            break
        w = f // c
        j = 1
        while w.degree() > 0:
            y = poly_gcd(w, c)
            z = w // y
            if z.degree() > 0:
                out.append((z, j * e))
            c = c // y
            w = y
            j += 1
        f = c
    return out


def _distinct_degree_split(f: Poly) -> list[tuple[int, Poly]]:
    """Split monic squarefree f into (degree d, product of degree-d irreducibles).

    On any monic nonconstant f the split is [(deg f, f)] exactly when f is
    irreducible: a reducible f has a monic irreducible factor of degree
    d <= deg f / 2, which divides T**(q**d) - T, so the split finds a
    factor by step d whether or not f is squarefree.
    """
    field = f.field
    x = Poly.x(field)
    out = []
    h = x % f
    d = 0
    while f.degree() > 0:
        d += 1
        if f.degree() < 2 * d:
            out.append((f.degree(), f))
            break
        h = poly_powmod(h, field.q, f)
        g = poly_gcd(h - x, f)
        if g.degree() > 0:
            out.append((d, g))
            f = f // g
            if f.degree() == 0:
                break
            h = h % f
    return out


def _random_poly(rng: random.Random, field: GF, max_deg: int) -> Poly:
    coeffs = [rng.randrange(field.q) for _ in range(max_deg + 1)]
    return Poly.from_coeffs(field, coeffs)


def _equal_degree_split(f: Poly, d: int, rng: random.Random) -> tuple[Poly, Poly]:
    """Split a monic product of two or more distinct degree-d irreducibles
    into two proper monic factors (g, f // g).
    """
    field = f.field
    one = Poly.one(field)
    while True:
        a = _random_poly(rng, field, f.degree() - 1)
        if a.degree() < 1:
            continue
        g = poly_gcd(a, f)
        if 0 < g.degree() < f.degree():
            break
        if field.p == 2:
            # trace map over F_2: a + a^2 + ... + a^(2^(s*d - 1))
            tr = a % f
            acc = a % f
            for _ in range(field.s * d - 1):
                acc = poly_powmod(acc, 2, f)
                tr = tr + acc
            candidate = tr
        else:
            candidate = poly_powmod(a, (field.q**d - 1) // 2, f) - one
        if candidate.is_zero:
            continue
        g = poly_gcd(candidate, f)
        if 0 < g.degree() < f.degree():
            break
    return g, f // g


def factor(a: Poly) -> Factorization:
    """Complete factorization into monic irreducibles over F_q.

    The distinct-degree split takes about deg/2 powerings to the q-th
    power, each of about deg**2 * log2(q) coefficient operations, so a
    factorization is charged deg**3 * q.bit_length(), an upper bound on that
    work, and refused past errors.DEFAULT_BOX_LIMIT before anything is split.
    """
    if a.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    field = a.field
    charge = a.degree() ** 3 * field.q.bit_length()
    if charge > errors.DEFAULT_BOX_LIMIT:
        errors.refuse("factoring charge", charge, errors.DEFAULT_BOX_LIMIT)
    monic, unit = a.monic()
    if monic.degree() <= 1:
        return Factorization(field, unit, ((monic, 1),) if monic.degree() else ())
    rng = None  # built when a split first draws, so the draws stay the same
    found: list[tuple[Poly, int]] = []
    for part, mult in _squarefree_split(monic):
        for d, prod in _distinct_degree_split(part):
            todo = [prod]  # split depth first, g before f // g
            while todo:
                f = todo.pop()
                if f.degree() == d:
                    found.append((f, mult))
                    continue
                if rng is None:
                    rng = random.Random(DEFAULT_SEED)
                g, h = _equal_degree_split(f, d, rng)
                todo += (h, g)
    found.sort(key=lambda fm: fm[0].sort_key())
    return Factorization(field, unit, tuple(found))


@functools.lru_cache(maxsize=64)
def monic_irreducibles(field: GF, degree: int) -> tuple[Poly, ...]:
    """All monic irreducible polynomials of exactly the given degree, sorted;
    memoized, so repeated modulus scans do not re-test the candidates.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    monics = (Poly(field, low + (1,)) for low in itertools.product(range(field.q), repeat=degree))
    return tuple(c for c in monics if degree == 1 or is_irreducible(c))

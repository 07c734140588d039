"""Dense univariate polynomials over F_q, with complete factorization.

A polynomial is an immutable little-endian tuple of int-encoded F_q
coefficients with no trailing zero; the zero polynomial carries the empty
tuple.  The canonical sort key is (degree, coefficient tuple), which is
the order used for factor lists, place enumeration and every other
deterministic listing in the package.

The arithmetic kernels (``+``, unary ``-``, ``*``, ``scale`` and
``poly_divmod``) read the field's tables once per call and make no method
call per coefficient.  Over a prime field they accumulate plain ints and
reduce mod p once per output coefficient; over GF(2**s) they multiply
through the log/exp tables and accumulate with XOR; over other extension
fields they add through the Zech table (see ``field``).

Factorization runs the classical pipeline: squarefree split, then
distinct-degree, then equal-degree (Cantor-Zassenhaus) splitting.  The
equal-degree stage draws from a seeded generator, so a fixed seed makes
the whole run reproducible; the returned factor list is canonically
sorted and therefore identical for every seed.
"""

import functools
import itertools
import random
from dataclasses import dataclass

from .field import GF, prime_factors

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Poly:
    field: GF
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("trailing zero coefficient")

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
        f = self.field
        a, b = self.coeffs, other.coeffs
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
        return _trimmed(f, out)

    def __neg__(self) -> "Poly":
        f = self.field
        if f.p == 2:
            return self
        exp, log, half = f.exp_table, f.log_table, (f.q - 1) // 2
        return Poly(f, tuple(exp[log[c] + half] if c else 0 for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._same_field(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(f)
        out = [0] * (len(a) + len(b) - 1)
        if f.s == 1:
            for i, x in enumerate(a):
                if x:
                    for k, y in enumerate(b, i):
                        out[k] += x * y
            p = f.p
            return _trimmed(f, [c % p for c in out])
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
        return _trimmed(f, out)

    def scale(self, c: int) -> "Poly":
        f = self.field
        if c == 0:
            return Poly.zero(f)
        if c == 1:
            return self
        exp, log = f.exp_table, f.log_table
        lc = log[c]
        return Poly(f, tuple(exp[log[a] + lc] if a else 0 for a in self.coeffs))

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial power")
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

    def evaluate(self, a: int) -> int:
        f = self.field
        f.check(a)
        acc = 0
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, a), c)
        return acc

    def derivative(self) -> "Poly":
        f = self.field
        out = []
        for k in range(1, len(self.coeffs)):
            out.append(f.mul(self.coeffs[k], k % f.p))
        return _trimmed(f, out)


def _trimmed(f: GF, out: list) -> Poly:
    """The polynomial with coefficient list out, trailing zeros dropped (out is consumed)."""
    while out and out[-1] == 0:
        out.pop()
    return Poly(f, tuple(out))


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Euclidean division: a = q*b + r with deg r < deg b."""
    a._same_field(b)
    f = a.field
    if b.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if a.degree() < b.degree():
        return Poly.zero(f), a
    *low, lead = b.coeffs
    db = len(low)
    rem = list(a.coeffs)
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
        return _trimmed(f, quot), _trimmed(f, [c % p for c in rem[:db]])
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
    return _trimmed(f, quot), _trimmed(f, rem[:db])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd of two zero polynomials")
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()[0]


def poly_extgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Return (g, u, v) with g = gcd monic and u*a + v*b = g."""
    f = a.field
    r0, r1 = a, b
    s0, s1 = Poly.one(f), Poly.zero(f)
    t0, t1 = Poly.zero(f), Poly.one(f)
    while not r1.is_zero:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero:
        raise ValueError("gcd of two zero polynomials")
    lc = r0.leading
    if lc != 1:
        inv = f.inv(lc)
        r0, s0, t0 = r0.scale(inv), s0.scale(inv), t0.scale(inv)
    return r0, s0, t0


def poly_invmod(a: Poly, m: Poly) -> Poly:
    """Inverse of a modulo m; raises ZeroDivisionError when gcd(a, m) != 1."""
    if m.degree() < 1:
        raise ValueError("invalid modulus")
    g, u, _ = poly_extgcd(a % m, m)
    if not g.is_one:
        raise ZeroDivisionError("element is not invertible modulo the given polynomial")
    return u % m


def poly_powmod(base: Poly, exp: int, modulus: Poly) -> Poly:
    """base**exp reduced mod modulus, by square and multiply."""
    if modulus.is_zero or modulus.degree() < 1:
        raise ValueError("invalid modulus")
    if exp < 0:
        raise ValueError("negative exponent")
    result = Poly.one(base.field) % modulus
    base = base % modulus
    while exp:
        if exp & 1:
            result = (result * base) % modulus
        exp >>= 1
        if exp:
            base = (base * base) % modulus
    return result


# -- factorization --


@dataclass(frozen=True)
class Factorization:
    """unit * prod(poly**multiplicity); factors monic irreducible, sorted."""

    field: GF
    unit: int
    factors: tuple[tuple[Poly, int], ...]

    def expand(self) -> Poly:
        out = Poly.constant(self.field, self.unit)
        for g, e in self.factors:
            out = out * g**e
        return out


@functools.lru_cache(maxsize=4096)
def is_irreducible(a: Poly) -> bool:
    """Rabin irreducibility test over F_q, memoized so each polynomial is tested once."""
    if a.is_zero or a.degree() < 1:
        raise ValueError("irreducibility is asked of nonconstant polynomials")
    f = a.monic()[0]
    n = f.degree()
    if n == 1:
        return True
    field = a.field
    x = Poly.x(field)
    # frob[k] = t**(q**k) mod f, computed by iterated q-th powering
    frob = [x % f]
    for _ in range(n):
        frob.append(poly_powmod(frob[-1], field.q, f))
    if frob[n] != x % f:
        return False
    for r in prime_factors(n):
        g = poly_gcd(frob[n // r] - x, f)
        if g.degree() != 0:
            return False
    return True


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
    """Split monic squarefree f into (degree d, product of degree-d irreducibles)."""
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


def _equal_degree_split(f: Poly, d: int, rng: random.Random) -> list[Poly]:
    """Split a monic product of distinct degree-d irreducibles into its factors."""
    field = f.field
    if f.degree() == d:
        return [f]
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
    return _equal_degree_split(g, d, rng) + _equal_degree_split(f // g, d, rng)


def factor(a: Poly, seed: int = DEFAULT_SEED) -> Factorization:
    """Complete factorization into monic irreducibles over F_q."""
    if a.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    field = a.field
    monic, unit = a.monic()
    if monic.degree() == 0:
        return Factorization(field, unit, ())
    rng = random.Random(seed)
    found: list[tuple[Poly, int]] = []
    for part, mult in _squarefree_split(monic):
        for d, prod in _distinct_degree_split(part):
            for irr in _equal_degree_split(prod, d, rng):
                found.append((irr, mult))
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

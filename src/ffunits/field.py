"""Arithmetic in a finite field F_q with q = p**s.

Field elements are plain ints in range(q): the integer sum(d_i * p**i)
encodes the element sum(d_i * a**i), where a is the residue of X in
F_p[X]/(modulus).  For s == 1 an element is simply its least nonnegative
residue mod p and no modulus is consulted.  Zero and one are always
encoded as 0 and 1, and this encoding is shared by every module of the
package.

Arithmetic runs on tables indexed by the encoding.  Each field has a
primitive element g (found by its order, since X need not generate the
multiplicative group), ``exp_table[k] = g**k`` for 0 <= k < 2(q-1) and
``log_table[a]`` its inverse on nonzero a (``None`` at 0).  Products,
inverses, powers and the Frobenius map are sums and multiples of logs.
Sums are integer sums mod p for s == 1 and XOR for p == 2; for odd p with
s > 1 they go through the Zech table ``zech_table[k] = log(1 + g**k)``
(-1 where 1 + g**k = 0), since a + b = g**(log a + zech[log b - log a]).
The exp and Zech tables are doubled, so a sum of two logs, or a difference
(a negative one counts from the end of the list), indexes them without
reduction.  The base-p digit rule on the encoding survives only in the
table builder.

One builder (_tables) serves coefficient fields and residue fields: it
takes a coefficient field and a monic irreducible modulus over it, and
multiplies digit vectors as polynomials over that field with the kernels
of ``poly``.  GF(p, s) passes F_p and its modulus (the prime field's own
tables need only products mod p); localprobe's word-box search passes a
field F_q and an irreducible f over it, for the residue field
F_q[T]/(f), whose elements it encodes in base q the same way.

Tables are built once for each distinct (coefficient field, modulus),
after the modulus has passed the irreducibility test, and a bounded
module-level memo keeps those of the most recent fields; equal GF
instances share them.  They are plain attributes, not dataclass fields,
so equality, hashing and repr depend on (p, s, modulus) alone.  A field
with q > errors.MAX_FIELD_ORDER is refused with ResourceLimitError (CLI
exit 4), and a residue field stays within the same bound, which keeps
every table to a few MB.

GF instances are immutable and hashable; every operation is a pure
function of its arguments, so concurrent use needs no locking.
"""

from dataclasses import dataclass
from functools import lru_cache

from . import errors
from .errors import InternalCheckError


def is_prime(n: int) -> bool:
    """Whether n is prime, i.e. its own only prime factor (never for n < 2)."""
    return prime_factors(n) == [n]


def prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=16)
def _tables(base, modulus: tuple[int, ...]):
    """(exp, log, zech) for the field base[X]/(modulus); the modulus must be
    monic irreducible over base.

    base is the coefficient field, a GF of r elements, or the prime p for
    F_p itself, whose tables are the ones being built.  With d = deg
    modulus the field has r**d elements, and sum(c_i * X**i) is encoded as
    sum(c_i * r**i), each digit c_i in base's encoding.  A base-r digit is
    base-p digits, so over F_p this is the encoding of GF(p, d), and over
    any base 1 + x touches base-p digit 0 alone.  Products multiply digit
    vectors as polynomials over base, reduced by the modulus, with the
    polynomial kernels; over F_p itself d is 1 and a product is one
    product mod p.
    """
    if isinstance(base, int):
        p = r = q = base

        def mul(a, b):
            return a * b % p

    else:
        from . import poly  # deferred; poly imports this module

        p, r, d = base.p, base.q, len(modulus) - 1
        q = r**d

        def digits(a):
            out = []
            for _ in range(d):
                a, c = divmod(a, r)
                out.append(c)
            return out

        def mul(a, b):
            out = 0
            for c in reversed(poly._mulmod_list(base, digits(a), digits(b), modulus)):
                out = out * r + c
            return out

    n = q - 1

    def power(a, e):
        acc = 1
        while e:
            if e & 1:
                acc = mul(acc, a)
            a = mul(a, a)
            e >>= 1
        return acc

    cofactors = [n // f for f in prime_factors(n)]
    for g in range(1, q):
        if all(power(g, c) != 1 for c in cofactors):
            break
    else:
        raise InternalCheckError(f"no primitive element modulo {modulus} over F_{r}")
    powers = [1]
    for _ in range(n - 1):
        powers.append(mul(g, powers[-1]))  # g first: the product skips its zero digits
    log = [None] * q
    for k, x in enumerate(powers):
        log[x] = k
    if None in log[1:]:
        raise InternalCheckError(f"powers of {g} miss part of a field of {q} elements")
    zech = None
    if p != 2 and q != p:
        # 1 + x only touches digit 0 of the encoding
        zech = [-1 if x == p - 1 else log[x + 1 if x % p != p - 1 else x + 1 - p] for x in powers]
        zech += zech
    return powers + powers, log, zech


@dataclass(frozen=True)
class GF:
    """The finite field F_q, q = p**s, acting on int-encoded elements.

    ``modulus`` is the monic degree-s defining polynomial over F_p as a
    little-endian coefficient tuple.  For s == 1 it defaults to X itself
    (the identity presentation of F_p).  After construction ``q``,
    ``exp_table``, ``log_table`` and ``zech_table`` (None unless p is odd
    and s > 1) are read-only attributes, described in the module
    docstring; the polynomial kernels read them directly.
    """

    p: int
    s: int = 1
    modulus: tuple[int, ...] = ()

    def __post_init__(self):
        # q >= p, so a huge p is refused before trial division would stall on it
        if self.p > errors.MAX_FIELD_ORDER:
            errors.refuse("characteristic", self.p, errors.MAX_FIELD_ORDER)
        if not is_prime(self.p):
            raise ValueError(f"characteristic {self.p} is not prime")
        if self.s < 1:
            raise ValueError("extension degree must be >= 1")
        mod = self.modulus
        if not mod:
            if self.s != 1:
                raise ValueError("an explicit modulus is required for s > 1")
            mod = (0, 1)
        mod = tuple(int(c) % self.p for c in mod)
        if len(mod) != self.s + 1 or mod[-1] != 1:
            raise ValueError("modulus must be monic of degree s over F_p")
        object.__setattr__(self, "modulus", mod)
        q = self.p**self.s
        if q > errors.MAX_FIELD_ORDER:
            errors.refuse("field order", q, errors.MAX_FIELD_ORDER)
        if self.s > 1:
            from . import poly  # deferred; poly imports this module

            if not poly.is_irreducible(poly.Poly(GF(self.p), mod)):
                raise ValueError("modulus is reducible over F_p")
        exp, log, zech = _tables(GF(self.p) if self.s > 1 else self.p, mod)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "exp_table", exp)
        object.__setattr__(self, "log_table", log)
        object.__setattr__(self, "zech_table", zech)

    def check(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not an element of GF({self.q})")
        return a

    # -- ring operations --

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.s == 1:
            return (a + b) % self.p
        if not a or not b:
            return a or b
        log = self.log_table
        la = log[a]
        z = self.zech_table[log[b] - la]
        return 0 if z < 0 else self.exp_table[la + z]

    def mul(self, a: int, b: int) -> int:
        if not a or not b:
            return 0
        log = self.log_table
        return self.exp_table[log[a] + log[b]]

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        return self.exp_table[self.q - 1 - self.log_table[a]]

    def div(self, a: int, b: int) -> int:
        if not b:
            raise ZeroDivisionError("inverse of zero field element")
        if not a:
            return 0
        log = self.log_table
        return self.exp_table[log[a] - log[b] + self.q - 1]

    def power(self, a: int, e: int) -> int:
        if not a:
            if e < 0:
                raise ZeroDivisionError("inverse of zero field element")
            return 0 if e else 1
        return self.exp_table[self.log_table[a] * e % (self.q - 1)]

    def frobenius(self, a: int, times: int = 1) -> int:
        """Apply the p-power Frobenius ``times`` times (identity when s | times)."""
        return self.power(a, self.p ** (times % self.s))

import pytest

from ffunits import GF, errors, field
from ffunits.errors import InternalCheckError, ResourceLimitError
from ffunits.poly import _neg_list, _sub_list


def test_prime_field_tables():
    f = GF(5)
    assert f.q == 5
    assert f.add(3, 4) == 2
    assert _sub_list(f, [1], [3]) == [3]
    assert f.mul(3, 4) == 2
    assert _neg_list(f, [0]) == [0]
    for a in range(1, 5):
        assert f.mul(a, f.inv(a)) == 1
    assert f.power(2, 4) == 1
    assert f.power(2, -1) == 3


def test_invalid_parameters():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(2, 2)  # missing modulus
    with pytest.raises(ValueError):
        GF(2, 2, (0, 0, 1))  # X**2 is reducible
    with pytest.raises(ValueError):
        GF(2, 0)


def test_gf4_structure():
    f = GF(2, 2, (1, 1, 1))  # F_4 = F_2[X]/(X^2+X+1)
    assert f.q == 4
    # the class of X is the element encoded 2; X^2 = X + 1
    assert f.mul(2, 2) == 3
    assert f.mul(2, 3) == 1  # X * (X+1) = X^2 + X = 1
    for a in range(f.q):
        for b in range(f.q):
            for c in range(f.q):
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in range(f.q):
        assert f.power(a, 4) == a  # Frobenius fixed field is everything
        if a:
            assert f.mul(a, f.inv(a)) == 1


def test_gf9_and_frobenius():
    f = GF(3, 2, (1, 0, 1))  # X^2 = -1
    x = 3  # the class of X
    assert f.mul(x, x) == 2
    for a in range(f.q):
        assert f.frobenius(a) == f.power(a, 3)
        assert f.frobenius(f.frobenius(a)) == a
    assert f.inv(x) == f.power(x, f.q - 2)


def test_zero_division():
    with pytest.raises(ZeroDivisionError):
        GF(3).inv(0)


class DigitRule:
    """F_q by the base-p digit rule on the int encoding.

    This is the arithmetic GF ran before it was table-driven, kept as the
    reference the tables are checked against.
    """

    def __init__(self, p, s=1, modulus=(0, 1)):
        self.p, self.s, self.modulus, self.q = p, s, tuple(modulus), p**s

    def _digits(self, a):
        p = self.p
        out = []
        for _ in range(self.s):
            a, r = divmod(a, p)
            out.append(r)
        return out

    def _from_digits(self, digits):
        out = 0
        for d in reversed(digits):
            out = out * self.p + d
        return out

    def add(self, a, b):
        if self.s == 1:
            return (a + b) % self.p
        p = self.p
        da, db = self._digits(a), self._digits(b)
        return self._from_digits([(x + y) % p for x, y in zip(da, db)])

    def neg(self, a):
        if self.s == 1:
            return -a % self.p
        return self._from_digits([-x % self.p for x in self._digits(a)])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.s == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        p, s = self.p, self.s
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * s - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        mod = self.modulus
        for k in range(len(prod) - 1, s - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for j in range(s):
                    prod[k - s + j] = (prod[k - s + j] - c * mod[j]) % p
        return self._from_digits(prod[:s])

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self.s == 1:
            return pow(a, self.p - 2, self.p)
        return self.power(a, self.q - 2)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def power(self, a, e):
        if e < 0:
            a, e = self.inv(a), -e
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def frobenius(self, a, times=1):
        for _ in range(times % self.s):
            a = self.power(a, self.p)
        return a


# prime fields, then GF(4), GF(8), GF(16) (X has order 5), GF(9) (X has
# order 4), GF(25) and GF(27)
ORACLE_FIELDS = [
    (2, 1, ()),
    (3, 1, ()),
    (5, 1, ()),
    (7, 1, ()),
    (2, 2, (1, 1, 1)),
    (2, 3, (1, 1, 0, 1)),
    (2, 4, (1, 1, 1, 1, 1)),
    (3, 2, (1, 0, 1)),
    (5, 2, (2, 0, 1)),
    (3, 3, (1, 2, 0, 1)),
]


@pytest.mark.parametrize("p, s, modulus", ORACLE_FIELDS)
def test_tables_match_digit_rule(p, s, modulus):
    f = GF(p, s, modulus)
    ref = DigitRule(p, s, f.modulus)
    q = f.q
    assert q == ref.q == p**s
    # exp_table starts at a generator of the whole multiplicative group
    assert sorted(f.exp_table[: q - 1]) == list(range(1, q))
    elements = range(q)
    for a in elements:
        assert _neg_list(f, [a]) == [ref.neg(a)]
        for t in range(2 * s + 1):
            assert f.frobenius(a, t) == ref.frobenius(a, t)
        for e in range(-q, q + 2):
            if a == 0 and e < 0:
                with pytest.raises(ZeroDivisionError):
                    f.power(a, e)
            else:
                assert f.power(a, e) == ref.power(a, e)
        if a:
            assert f.inv(a) == ref.inv(a)
        for b in elements:
            assert f.add(a, b) == ref.add(a, b)
            assert _sub_list(f, [a], [b]) == [ref.sub(a, b)]
            assert f.mul(a, b) == ref.mul(a, b)
            if b:
                assert f.div(a, b) == ref.div(a, b)
            else:
                with pytest.raises(ZeroDivisionError):
                    f.div(a, b)


def test_x_need_not_be_primitive():
    # the class of X (encoded p) has order 5 in GF(16) and 4 in GF(9)
    for p, s, modulus, order in ((2, 4, (1, 1, 1, 1, 1), 5), (3, 2, (1, 0, 1), 4)):
        f = GF(p, s, modulus)
        assert f.power(p, order) == 1
        assert all(f.power(p, k) != 1 for k in range(1, order))
        assert f.exp_table[1] != p


def test_tables_are_shared_and_not_fields():
    f, g = GF(3, 2, (1, 0, 1)), GF(3, 2, (1, 0, 1))
    assert f == g and hash(f) == hash(g)
    assert f.exp_table is g.exp_table and f.zech_table is g.zech_table
    assert repr(f) == "GF(p=3, s=2, modulus=(1, 0, 1))"
    assert f != GF(3, 2, (2, 2, 1))
    assert GF(2, 2, (1, 1, 1)).zech_table is None and GF(5).zech_table is None


def test_reducible_modulus_is_refused_before_tables(monkeypatch):
    reducible = [
        (2, 2, (0, 0, 1)),  # X^2
        (3, 2, (2, 0, 1)),  # (X - 1)(X + 1)
        (2, 4, (1, 0, 1, 0, 1)),  # (X^2 + X + 1)^2
        (5, 2, (1, 2, 1)),  # (X + 1)^2
    ]
    GF(2), GF(3), GF(5)  # base fields for the irreducibility test
    built = []
    real = field._tables
    monkeypatch.setattr(field, "_tables", lambda *key: built.append(key) or real(*key))
    for p, s, modulus in reducible:
        with pytest.raises(ValueError, match="reducible"):
            GF(p, s, modulus)
    assert all(s == 1 for _, s, _ in built)
    # the builder itself stops, with no primitive element to find
    for p, s, modulus in reducible:
        with pytest.raises(InternalCheckError):
            real(p, s, modulus)


def test_field_order_bound(monkeypatch):
    def refuse(*key):
        raise AssertionError(f"tables built for {key}")

    monkeypatch.setattr(field, "_tables", refuse)
    modulus = (1, 0, 0, 1) + (0,) * 13 + (1,)  # X^17 + X^3 + 1
    with pytest.raises(ResourceLimitError):
        GF(2, 17, modulus)
    with pytest.raises(ResourceLimitError):
        GF(65537)
    assert errors.MAX_FIELD_ORDER == 1 << 16


def test_huge_characteristic_is_refused_before_primality(monkeypatch):
    # trial division on a huge p would stall; q >= p refuses it first
    monkeypatch.setattr(field, "is_prime", lambda n: pytest.fail(f"primality tested for {n}"))
    with pytest.raises(ResourceLimitError, match="characteristic"):
        GF(10**18 + 3)


def test_is_prime_matches_sieve():
    n = 10_000
    sieve = [False, False] + [True] * (n - 2)
    for d in range(2, int(n**0.5) + 1):
        if sieve[d]:
            sieve[d * d :: d] = [False] * len(sieve[d * d :: d])
    assert [k for k in range(n) if field.is_prime(k)] == [k for k in range(n) if sieve[k]]
    assert not any(field.is_prime(k) for k in (-1, -2, -7, -10_007))

"""The coefficient-list echelon of wronskian against its Poly-level form.

``_PolyEchelon`` is the fraction-free elimination as it was written on
``Poly`` values, one ``Poly`` per product, difference and exact quotient;
it is kept here as the oracle of ``wronskian._Echelon``, which runs the
same steps on coefficient lists.  The rows are random integral rows with
planted rank drops, constant pivots and zero entries, and the determinant
of ``wronskian._det`` is checked against Laplace expansion.
"""

import itertools
import random

import pytest

from ffunits import GF, Poly, RatFunc
from ffunits.errors import InternalCheckError
from ffunits.poly import poly_divmod
from ffunits.wronskian import _det, _Echelon

from conftest import pl, rand_poly

FIELDS = (GF(2), GF(3), GF(2, 2, (1, 1, 1)), GF(3, 2, (1, 0, 1)))


class _PolyEchelon(_Echelon):
    """_Echelon with the Poly-level push; counts its kinds of division."""

    def __init__(self, field, slots: int = 0):
        super().__init__(field, slots)
        self.divisions = {"constant": 0, "polynomial": 0}

    def push(self, row) -> bool:
        nums, den = row
        zero, one = Poly.zero(self.field), Poly.one(self.field)
        self.dens.append(den)
        width = len(nums)
        x = [*nums, *(one if k == len(self.dens) - 1 else zero for k in range(self.slots))]
        prev = one
        for col, prow in self.pivots:
            p, c = prow[col], x[col]
            reduced = []
            for a, r in zip(x, prow):
                num = p * a if c.is_zero else p * a - c * r
                if not (num.is_zero or prev.is_one):
                    self.divisions["constant" if prev.degree() == 0 else "polynomial"] += 1
                    num, rem = poly_divmod(num, prev)
                    if not rem.is_zero:
                        raise InternalCheckError("non-exact division in Bareiss elimination")
                reduced.append(num)
            x, prev = reduced, p
        for col in range(width):
            if not x[col].is_zero:
                self.pivots.append((col, x))
                return True
        self.kernel = x[width:]
        return False


def _entry(rng, field) -> Poly:
    """Zero, a nonzero constant or a polynomial of degree at most 3."""
    kind = rng.randrange(4)
    if kind == 0:
        return Poly.zero(field)
    if kind == 1:
        return Poly.constant(field, rng.randrange(1, field.q))
    return rand_poly(rng, field, 3)


def _rows(rng, field, width: int, count: int):
    """count integral rows (nums, den) of the given width; about one in three
    is a polynomial combination of the rows before it, a planted rank drop.
    """
    rows = []
    for _ in range(count):
        if rows and rng.randrange(3) == 0:
            nums = [Poly.zero(field)] * width
            for earlier, _ in rng.sample(rows, rng.randrange(1, len(rows) + 1)):
                c = _entry(rng, field)
                nums = [a + c * e for a, e in zip(nums, earlier)]
        else:
            nums = [_entry(rng, field) for _ in range(width)]
        rows.append((tuple(nums), rand_poly(rng, field, 2, nonzero=True).monic()[0]))
    return rows


def _laplace(matrix) -> RatFunc:
    """Determinant by cofactor expansion along the first row."""
    if len(matrix) == 1:
        return matrix[0][0]
    total = RatFunc.zero(matrix[0][0].field)
    for j, a in enumerate(matrix[0]):
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = a * _laplace(minor)
        total = total - term if j % 2 else total + term
    return total


def test_list_echelon_matches_the_poly_echelon():
    rng = random.Random(2203)
    seen = {"pushes": 0, "dependent": 0, "constant": 0, "polynomial": 0, "zero": 0}
    for field, width, slots, trial in itertools.product(FIELDS, (1, 2, 3, 4), (False, True), range(10)):
        rows = _rows(rng, field, width, rng.randrange(1, width + 3))
        n = len(rows) if slots else 0
        lists, oracle = _Echelon(field, n), _PolyEchelon(field, n)
        for row in rows:
            grew = lists.push(row)
            assert grew == oracle.push(row)
            seen["pushes"] += 1
            assert [col for col, _ in lists.pivots] == [col for col, _ in oracle.pivots]
            for (_, ours), (_, theirs) in zip(lists.pivots, oracle.pivots):
                assert ours == [list(a.coeffs) for a in theirs]
            if not grew:
                seen["dependent"] += 1
                assert lists.kernel == oracle.kernel
                if slots:
                    assert lists.relation() == oracle.relation()
        seen["constant"] += oracle.divisions["constant"]
        seen["polynomial"] += oracle.divisions["polynomial"]
        seen["zero"] += sum(a.is_zero for nums, _ in rows for a in nums)
    assert min(seen.values()) > 50, seen


def test_det_matches_laplace_expansion():
    rng = random.Random(2207)
    verdicts = {True: 0, False: 0}
    for field, n, trial in itertools.product(FIELDS, (1, 2, 3), range(12)):
        matrix = [[RatFunc.make(a, den) for a in nums] for nums, den in _rows(rng, field, n, n)]
        det = _det(matrix)
        assert det == _laplace(matrix)
        verdicts[det.is_zero] += 1
    assert min(verdicts.values()) > 20, verdicts


def test_tampered_pivot_is_a_non_exact_division(F3):
    # (T, 1, 0) and (1, T, 1) leave the pivots T and T^2 - 1, the second
    # with T in column 2; (1, 0, 0) reaches that entry through the division
    # by the first pivot T, which is exact only while the entry is untouched
    def echelon():
        e = _Echelon(F3)
        for row in ("T, 1, 0", "1, T, 1"):
            assert e.push((tuple(pl(F3, a) for a in row.split(",")), Poly.one(F3)))
        return e

    third = ((Poly.one(F3), Poly.zero(F3), Poly.zero(F3)), Poly.one(F3))
    assert echelon().push(third)
    tampered = echelon()
    col, prow = tampered.pivots[-1]
    assert col == 1 and prow[2] == [0, 1]
    prow[2] = [1, 1]  # T + 1
    with pytest.raises(InternalCheckError, match="non-exact division"):
        tampered.push(third)

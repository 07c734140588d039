import random
from fractions import Fraction

from ffunits.intlattice import solve_left

from conftest import in_rational_rowspan


def fraction_in_rowspan(rows, width, target) -> bool:
    """Reference: Gauss-Jordan elimination over Q, with no Hermite form."""
    basis = []  # (pivot column, row scaled to 1 there)

    def reduce(vec):
        v = [Fraction(x) for x in vec]
        for c, b in basis:
            if v[c]:
                k = v[c]
                v = [x - k * y for x, y in zip(v, b)]
        return v

    for row in rows:
        v = reduce(row)
        c = next((j for j in range(width) if v[j]), None)
        if c is not None:
            basis.append((c, [x / v[c] for x in v]))
    return not any(reduce(target))


def test_rational_rowspan_examples():
    # rational but not integral combinations of the rows
    assert in_rational_rowspan([[2, 0]], 2, [1, 0])
    assert solve_left([[2, 0]], 2, [1, 0])[0] is None
    assert in_rational_rowspan([[2, 4], [0, 3]], 2, [1, 1])
    assert not in_rational_rowspan([[2, 4]], 2, [1, 1])
    assert in_rational_rowspan([], 3, [0, 0, 0])
    assert not in_rational_rowspan([], 3, [0, 1, 0])
    assert not in_rational_rowspan([[0, 0], [0, 0]], 2, [0, 5])


def test_rational_rowspan_matches_fraction_elimination():
    rng = random.Random(2011)
    kinds = {"outside": 0, "integral": 0, "rational only": 0}
    for _ in range(2000):
        width = rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(width)] for _ in range(rng.randint(0, 4))]
        draw = rng.random()
        if draw < 0.4 or not rows:
            target = [rng.randint(-6, 6) for _ in range(width)]
        else:
            # an integer combination of the rows, divided by d where that stays
            # integral: in the Q-span, and often outside the Z-span
            coeffs = [rng.randint(-3, 3) for _ in rows]
            target = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(width)]
            d = rng.choice([2, 3])
            if all(v % d == 0 for v in target):
                target = [v // d for v in target]
        expect = fraction_in_rowspan(rows, width, target)
        assert in_rational_rowspan(rows, width, target) == expect, (rows, target)
        if not expect:
            kinds["outside"] += 1
        elif solve_left(rows, width, target)[0] is None:
            kinds["rational only"] += 1
        else:
            kinds["integral"] += 1
    assert min(kinds.values()) > 100, kinds

"""Derandomized properties: element texts never fault the command line, the
certified decision agrees with the word-box search that shares only the
arithmetic with it, the word-box search on residues agrees with the plain
exact search kept here as its oracle, and the obstruction scan agrees with
a breadth-first scan kept here as its oracle.
"""

import io
import itertools

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ffunits import GF, Equation, Modulus, Poly, RatFunc, build_presentation, decide, member  # noqa: E402
from ffunits.cli import run_cli  # noqa: E402
from ffunits import localprobe  # noqa: E402
from ffunits.localprobe import _residue_bases, find_local_obstruction, residue_group, sg_search  # noqa: E402
from ffunits.poly import monic_irreducibles, poly_mulmod, poly_powmod  # noqa: E402
from ffunits.ratfunc import divisor_vector, reduce_mod  # noqa: E402
from ffunits.solver import SolutionPoint  # noqa: E402
from ffunits.unitgroup import closure  # noqa: E402
from test_localprobe import _sorted_moduli  # noqa: E402

SETTINGS = dict(deadline=None, derandomize=True, database=None)

# the tokens of the grammar, with exponents below 20 and a space
TOKENS = st.one_of(
    st.sampled_from(["T", "+", "-", "*", "/", "(", ")", " "]),
    st.integers(0, 99).map(str),
    st.tuples(st.sampled_from(["^", "^-"]), st.integers(0, 19)).map(lambda t: f"{t[0]}{t[1]}"),
)


@st.composite
def element_texts(draw):
    text = "".join(draw(st.lists(TOKENS, max_size=20)))
    if draw(st.booleans()):
        depth = draw(st.integers(0, 300))
        return "(" * depth + text + ")" * depth
    return "-" * draw(st.integers(0, 2000)) + text


def exit_code(argv):
    return run_cli(argv, stdout=io.StringIO(), stderr=io.StringIO())


@settings(max_examples=150, **SETTINGS)
@given(element_texts())
def test_element_texts_never_fault(text):
    assert exit_code(["factor", "--p", "2", f"--poly={text}"]) in (0, 2, 3, 4)
    argv = ["solve", "--p", "3", "--gens", "T+1", f"--b={text}, 1", "--rhs", "0", "--m", "1"]
    assert exit_code(argv) in (0, 2, 3, 4)


# GF(2), GF(3), GF(4) = F_2[X]/(X^2+X+1) and GF(9) = F_3[X]/(X^2+1)
FIELDS = (GF(2), GF(3), GF(2, 2, (1, 1, 1)), GF(3, 2, (1, 0, 1)))


def polys(field, nonzero=False):
    coeffs = st.lists(st.integers(0, field.q - 1), min_size=1, max_size=3)
    if nonzero:
        coeffs = coeffs.filter(any)
    return coeffs.map(lambda cs: Poly.from_coeffs(field, cs))


def units(field):
    """Nonzero elements of degree at most 2, as conftest.rand_ratfunc draws them."""
    return st.tuples(polys(field, True), polys(field, True)).map(lambda nd: RatFunc.make(*nd))


@st.composite
def instances(draw):
    field = draw(st.sampled_from(FIELDS))
    gens = draw(st.lists(units(field), min_size=1, max_size=2))
    arity = draw(st.sampled_from((2, 3)))
    b = tuple(draw(st.lists(units(field), min_size=arity, max_size=arity)))
    # p**m < M leaves every instance inapplicable, so GF(2) and GF(4) take m = 2 at M = 3
    m = 2 if field.p == 2 and arity == 3 else 1
    return build_presentation(gens), Equation(b, draw(st.sampled_from((0, 1)))), m


def planted(draw, group, eq, bound):
    """eq with b_M set, where the draw allows it, so that a point of the
    word box of the given bound solves it."""
    word = st.tuples(*[st.integers(-bound, bound)] * len(group.generators))
    xs = [group.word_product(draw(word)) for _ in eq.b]
    rest = RatFunc.constant(group.field, eq.rhs)
    for bi, xi in zip(eq.b, xs[:-1]):
        rest = rest - bi * xi
    if rest.is_zero:
        return eq
    return Equation(eq.b[:-1] + (rest / xs[-1],), eq.rhs)


@st.composite
def decisions(draw):
    """An instance; for about half of those with rhs 1, b_M is set so that a
    point of words up to 2, inside the searched box, solves the equation."""
    group, eq, m = draw(instances())
    if eq.rhs and draw(st.booleans()):
        eq = planted(draw, group, eq, 2)
    return group, eq, m


@settings(max_examples=100, **SETTINGS)
@given(decisions())
def test_decide_agrees_with_sg_search(instance):
    group, eq, m = instance
    report = decide(eq, group, m)  # an InternalCheckError fails the example
    if report.outcome == "inapplicable":
        return
    brute = sg_search(eq, group, 8 if eq.arity == 2 else 3)
    if report.outcome == "certified-empty":
        assert brute == ()
        return
    got = {s.coords for s in report.solutions}
    assert {s.coords for s in brute} <= got
    for s in report.solutions:
        acc = RatFunc.zero(group.field)
        for bb, x in zip(eq.b, s.coords):
            acc = acc + bb * x
        assert acc.is_one
        assert all(member(x, group).member for x in s.coords)
    assert len(got) <= report.bound


def plain_sg_search(eq, group, word_bound):
    """The word-box search in exact arithmetic alone: the value of every word,
    the first word of each value in itertools.product order, and the last
    coordinate solved for and looked up in that table."""
    powers = [
        {e: g**e for e in range(-word_bound, word_bound + 1)} for g in group.generators
    ]
    table = {}
    for word in itertools.product(range(-word_bound, word_bound + 1), repeat=len(group.generators)):
        value = RatFunc.one(group.field)
        for i, e in enumerate(word):
            if e:
                value = value * powers[i][e]
        table.setdefault(value, word)
    target = RatFunc.constant(group.field, eq.rhs)
    found = {}
    for prefix in itertools.product(table.items(), repeat=eq.arity - 1):
        acc = RatFunc.zero(group.field)
        for bi, (xi, _) in zip(eq.b, prefix):
            acc = acc + bi * xi
        need = (target - acc) / eq.b[-1]
        if need.is_zero:
            continue
        w = table.get(need)
        if w is not None:
            point = tuple(x for x, _ in prefix) + (need,)
            words = tuple(wd for _, wd in prefix) + (w,)
            found.setdefault(point, SolutionPoint(point, words))
    return tuple(found.values())


def _low_degree_bases(field):
    """Residue bases of degree 1 to 3 first, a residue field of q to q**3
    elements, so that values share buckets; then the default bases."""
    low = (monic_irreducibles(field, d) for d in (1, 2, 3))
    return itertools.chain(*low, _residue_bases(field))


@st.composite
def searches(draw):
    """An instance and a word bound; for half of them b_M is set so that a
    point of the word box solves the equation."""
    group, eq, _ = draw(instances())
    bound = draw(st.integers(1, 3 if eq.arity == 2 else 2))
    if draw(st.booleans()):
        eq = planted(draw, group, eq, bound)
    return group, eq, bound


@pytest.mark.parametrize("low_degree", [False, True], ids=["default-base", "low-degree-base"])
@settings(max_examples=100, **SETTINGS)
@given(searches())
def test_sg_search_agrees_with_plain_search(low_degree, search):
    group, eq, bound = search
    with pytest.MonkeyPatch.context() as mp:
        if low_degree:
            mp.setattr(localprobe, "_residue_bases", _low_degree_bases)
            mp.setattr(localprobe, "_first_residue_modulus", lambda f: Modulus(next(_low_degree_bases(f)), 1))
        got = sg_search(eq, group, bound)
    assert got == plain_sg_search(eq, group, bound)


def _oracle_image(group, m):
    """The residue image by the breadth-first closure over poly_mulmod."""
    steps = [reduce_mod(g, m) for g in group.generators]
    return closure(Poly.one(group.field), steps, lambda a, b: poly_mulmod(a, b, m.poly))


def _oracle_solvable(eq, m, image):
    """The box search with M products per point: the last coordinate is
    (rhs - sum(b_i * x_i)) / b_M, looked up in the image."""
    mod = m.poly
    b = [reduce_mod(x, m) for x in eq.b]
    inv_last = reduce_mod(eq.b[-1].inverse(), m)
    target = Poly.constant(m.base.field, eq.rhs)
    for prefix in itertools.product(image, repeat=eq.arity - 1):
        partial = Poly.zero(m.base.field)
        for bi, xi in zip(b, prefix):
            partial = partial + poly_mulmod(bi, xi, mod)
        if poly_mulmod(target - partial, inv_last, mod) in image:
            return True
    return False


@st.composite
def scans(draw):
    field = draw(st.sampled_from(FIELDS))
    gens = draw(st.lists(units(field), min_size=1, max_size=3))
    arity = draw(st.sampled_from((2, 3)))
    b = tuple(draw(st.lists(units(field), min_size=arity, max_size=arity)))
    deg_bound, e_bound = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    if field.q == 9 and deg_bound == e_bound == 2:
        # up to 36 residue groups of 6,480 elements: past the scan charge
        e_bound = 1
    return build_presentation(gens), Equation(b, draw(st.sampled_from((0, 1)))), deg_bound, e_bound


@settings(max_examples=150, **SETTINGS)
@given(scans())
def test_obstruction_scan_agrees_with_breadth_first_scan(scan):
    group, eq, deg_bound, e_bound = scan
    excluded = set(group.support)
    for x in eq.b:
        excluded.update(divisor_vector(x)[0])
    expected = None
    for base, e in _sorted_moduli(group.field, excluded, deg_bound, e_bound):
        m = Modulus(base, e)
        image = _oracle_image(group, m)
        listed = residue_group(group, m)
        assert set(listed) == set(image)
        steps = [reduce_mod(g, m) for g in group.generators]
        for res, word in listed.items():
            assert min(word) >= 0
            rebuilt = Poly.one(group.field)
            for step, k in zip(steps, word):
                rebuilt = poly_mulmod(rebuilt, poly_powmod(step, k, m.poly), m.poly)
            assert rebuilt == res
        if not _oracle_solvable(eq, m, image):
            expected = (m, len(image))
            break
    witness = find_local_obstruction(eq, group, deg_bound, e_bound)
    assert (None if witness is None else (witness.modulus, witness.group_size)) == expected

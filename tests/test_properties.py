"""Derandomized properties: element texts never fault the command line, the
tokenizer agrees with the hand-written scanner kept here as its oracle, the
certified decision agrees with the word-box search that shares only the
arithmetic with it, no listed solution meets a local obstruction, the
word-box search on residues agrees with the plain
exact search kept here as its oracle, the obstruction scan agrees with
a breadth-first scan kept here as its oracle, the scan's list-level
inputs agree with the RatFunc reduction kept here as their oracle, the
congruence search's first solution solves the congruence and is missing
exactly when the box search kept here as its oracle finds none, and the Hermite form that
carries its transform agrees with the two-matrix form kept here as its
oracle.
"""

import io
import itertools

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ffunits import GF, Equation, Modulus, Poly, RatFunc, build_presentation, decide, member  # noqa: E402
from ffunits.cli import run_cli  # noqa: E402
from ffunits import localprobe  # noqa: E402
from ffunits.exprio import ParseError, _tokenize  # noqa: E402
from ffunits.intlattice import hnf, solve_left  # noqa: E402
from ffunits.localprobe import (  # noqa: E402
    _residue_bases,
    find_local_obstruction,
    residue_group,
    sg_search,
    sl_search,
)
from ffunits.poly import monic_irreducibles, poly_powmod  # noqa: E402
from ffunits.ratfunc import divisor_vector  # noqa: E402
from ffunits.solver import SolutionPoint  # noqa: E402
from ffunits.unitgroup import closure  # noqa: E402
from conftest import mulmod, reduce_mod  # noqa: E402
from test_localprobe import _first_solution_at, _sorted_moduli  # noqa: E402

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


def scanner_tokens(text):
    """The tokens of text by a character-by-character scan: the oracle of
    _tokenize's compiled pattern.
    """
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise ParseError("integer literal too long", i) from None
            tokens.append(("int", value, i))
            i = j
            continue
        if ch == "T":
            tokens.append(("var", None, i))
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append((ch, None, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, len(text)))
    return tokens


# grammar symbols, Unicode digits and whitespace, stray characters, any short
# text, and literals around the default limit of 4,300 digits on int()
SCANNER_PIECES = st.one_of(
    st.sampled_from(["T", "+", "-", "*", "/", "^", "(", ")", " ", "\t", "\n"]),
    st.sampled_from(["\u00a0", "\u3000", "\u2028", "\u00b2", "\u0663", "\uff11", "t", ",", "."]),
    st.text(max_size=3),
    st.integers(0, 10**30).map(str),
    st.integers(4290, 5000).map(lambda n: "7" * n),
)


def _scan(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return str(exc), exc.position


@settings(max_examples=300, **SETTINGS)
@given(st.lists(SCANNER_PIECES, max_size=12).map("".join))
def test_tokenize_matches_the_scanner(text):
    assert _scan(_tokenize, text) == _scan(scanner_tokens, text)


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
        assert all(member(x, group) is not None for x in s.coords)
    assert len(got) <= report.bound


@st.composite
def unit_equations(draw):
    """A two-term instance with rhs 1; for about half of them b_2 is set so
    that a point of words up to 2 solves the equation.  (Three terms over
    GF(4) at m = 2 take about 0.4 s a decision.)"""
    group, eq, m = draw(instances().filter(lambda inst: inst[1].arity == 2))
    eq = Equation(eq.b, 1)
    if draw(st.booleans()):
        eq = planted(draw, group, eq, 2)
    return group, eq, m


@settings(max_examples=300, **SETTINGS)
@given(unit_equations())
def test_listed_solutions_and_local_obstructions_exclude_each_other(instance):
    # a solution in the group solves the equation modulo every base**e, so
    # no modulus obstructs it: a report that lists a solution comes with no
    # obstruction, and an obstruction with an empty solution list.  The
    # first reading catches a spurious solution, the second a false
    # obstruction
    group, eq, m = instance
    report = decide(eq, group, m)
    obstruction = find_local_obstruction(eq, group, 2, 1)
    assert not (report.solutions and obstruction is not None)


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
            mp.setattr(localprobe, "_first_residue_base", lambda f: next(_low_degree_bases(f)).coeffs)
        got = sg_search(eq, group, bound)
    assert got == plain_sg_search(eq, group, bound)


def _oracle_image(group, m):
    """The residue image by the breadth-first closure over mulmod."""
    steps = [reduce_mod(g, m) for g in group.generators]
    return closure(Poly.one(group.field), steps, lambda a, b: mulmod(a, b, m.poly))


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
            partial = partial + mulmod(bi, xi, mod)
        if mulmod(target - partial, inv_last, mod) in image:
            return True
    return False


@st.composite
def scans(draw):
    field = draw(st.sampled_from(FIELDS))
    gens = draw(st.lists(units(field), min_size=1, max_size=3))
    arity = draw(st.sampled_from((1, 2, 3)))  # arity 1 searches the empty prefix alone
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
                rebuilt = mulmod(rebuilt, poly_powmod(step, k, m.poly), m.poly)
            assert rebuilt == res
        if not _oracle_solvable(eq, m, image):
            expected = (m, len(image))
            break
    witness = find_local_obstruction(eq, group, deg_bound, e_bound)
    assert (None if witness is None else (witness.modulus, witness.group_size)) == expected


def _divides_none(base, elements):
    """Whether base divides no numerator or denominator of the elements, by
    Poly %: the oracle of localprobe._unit_residues's unit test."""
    return all((p % base).coeffs for x in elements for p in (x.num, x.den))


def _oracle_inputs(eq, group, m):
    """The search's inputs modulo m by RatFunc arithmetic and reduce_mod:
    the generator residues, -b_i/b_M for the first M - 1 coordinates and
    rhs/b_M, each as a coefficient tuple; the oracle of
    localprobe._search_inputs."""
    rhs = RatFunc.constant(group.field, eq.rhs)
    return (
        [reduce_mod(g, m).coeffs for g in group.generators],
        [reduce_mod(-x / eq.b[-1], m).coeffs for x in eq.b[:-1]],
        reduce_mod(rhs / eq.b[-1], m).coeffs,
    )


@st.composite
def set_ups(draw):
    """Generators and coefficients, about half of them with a denominator
    of degree 1 or 2, and the degree of the bases to scan."""
    field = draw(st.sampled_from(FIELDS))
    fractions = st.one_of(units(field), units(field).filter(lambda x: x.den.degree() > 0))
    gens = draw(st.lists(fractions, min_size=1, max_size=3))
    arity = draw(st.sampled_from((1, 2, 3)))
    b = tuple(draw(st.lists(fractions, min_size=arity, max_size=arity)))
    return build_presentation(gens), Equation(b, draw(st.sampled_from((0, 1)))), draw(st.integers(1, 2))


@settings(max_examples=150, **SETTINGS)
@given(set_ups())
def test_scan_inputs_agree_with_ratfunc_reduction(set_up):
    """Each base of the degree is kept exactly when Poly % finds that it
    divides no input, and at every modulus base**e, e <= 3, of a scan made
    to pass every modulus, the scan's list-level inputs equal those of
    RatFunc arithmetic and the Poly-level oracle reduce_mod."""
    group, eq, d = set_up
    field = group.field
    elements = group.generators + eq.b
    for base in monic_irreducibles(field, d):
        pairs = localprobe._unit_residues(field, elements, base.coeffs)
        assert (pairs is not None) == _divides_none(base, elements)
    seen = []

    def solved(field, steps, scaled, target, mod):
        seen.append((mod, ([tuple(x) for x in steps], [tuple(x) for x in scaled], tuple(target))))
        return (), 0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(localprobe, "_first_solution", solved)
        assert find_local_obstruction(eq, group, d, 3) is None
    moduli = [
        Modulus(base, e)
        for degree, e in localprobe._moduli(d, 3)
        for base in monic_irreducibles(field, degree)
        if _divides_none(base, elements)
    ]
    assert [mod for mod, _ in seen] == [m.poly.coeffs for m in moduli]
    for (_, got), m in zip(seen, moduli):
        assert got == _oracle_inputs(eq, group, m)


@st.composite
def congruences(draw):
    """A scan's instance with one modulus base**e that divides none of its
    inputs, of at most 81 residues, so that the oracle's box stays small."""
    group, eq, _, _ = draw(scans())
    field = group.field
    d, e = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    if field.q ** (d * e) > 81:
        e = 1
    inputs = group.generators + eq.b
    bases = [x for x in monic_irreducibles(field, d) if _divides_none(x, inputs)]
    assume(bases)
    return group, eq, Modulus(draw(st.sampled_from(bases)), e)


@settings(max_examples=200, **SETTINGS)
@given(congruences())
def test_sl_search_witness_solves_the_congruence(congruence):
    group, eq, m = congruence
    witness = sl_search(eq, group, m)
    image = _oracle_image(group, m)
    assert (witness is None) == (not _oracle_solvable(eq, m, image))
    listed = _first_solution_at(eq, group, m)[1]
    if witness is None:
        assert listed == len(image)
        return
    assert listed <= len(image)
    assert witness.modulus == m and len(witness.residues) == len(witness.words) == eq.arity
    steps = [reduce_mod(g, m) for g in group.generators]
    acc = Poly.zero(group.field)
    for bi, res, word in zip(eq.b, witness.residues, witness.words):
        rebuilt = Poly.one(group.field)
        for step, k in zip(steps, word):
            rebuilt = mulmod(rebuilt, poly_powmod(step, k, m.poly), m.poly)
        assert rebuilt == res and res in image
        acc = acc + mulmod(reduce_mod(bi, m), res, m.poly)
    assert acc == Poly.constant(group.field, eq.rhs) % m.poly


def _oracle_row_addmul(mat, aux, dst, src, c):
    if c:
        mrow, srow = mat[dst], mat[src]
        for j in range(len(mrow)):
            mrow[j] += c * srow[j]
        arow, brow = aux[dst], aux[src]
        for j in range(len(arow)):
            arow[j] += c * brow[j]


def _oracle_hnf_with_transform(rows, width):
    """Row Hermite form with the transform kept as a second matrix: returns
    (H, U, pivot_cols) with U unimodular, U*A = H."""
    m = len(rows)
    H = [list(map(int, r)) for r in rows]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    pivots = []
    r = 0
    for c in range(width):
        while True:
            nz = [i for i in range(r, m) if H[i][c]]
            if len(nz) <= 1:
                break
            i0 = min(nz, key=lambda i: (abs(H[i][c]), i))
            for i in nz:
                if i != i0:
                    _oracle_row_addmul(H, U, i, i0, -(H[i][c] // H[i0][c]))
        if not nz:
            continue
        i0 = nz[0]
        H[r], H[i0] = H[i0], H[r]
        U[r], U[i0] = U[i0], U[r]
        if H[r][c] < 0:
            H[r] = [-v for v in H[r]]
            U[r] = [-v for v in U[r]]
        for k in range(r):
            _oracle_row_addmul(H, U, k, r, -(H[k][c] // H[r][c]))
        pivots.append(c)
        r += 1
    return H, U, pivots


def _oracle_solve_left(rows, width, target):
    """w * A = target solved from the two-matrix form: (word or None, kernel)."""
    m = len(rows)
    H, U, pivots = _oracle_hnf_with_transform(rows, width)
    rank = len(pivots)
    kernel = [tuple(U[i]) for i in range(rank, m)]
    resid = list(map(int, target))
    y = [0] * m
    for i, c in enumerate(pivots):
        piv = H[i][c]
        if resid[c] % piv:
            return None, kernel
        k = resid[c] // piv
        if k:
            y[i] = k
            for j in range(width):
                resid[j] -= k * H[i][j]
    if any(resid):
        return None, kernel
    word = [0] * m
    for i in range(rank):
        if y[i]:
            for j in range(m):
                word[j] += y[i] * U[i][j]
    return tuple(word), kernel


def _times(w, rows, width):
    return [sum(c * r[j] for c, r in zip(w, rows)) for j in range(width)]


@st.composite
def lattice_problems(draw):
    """Rows A, their width and a target; half the targets are planted as w*A."""
    width = draw(st.integers(1, 4))
    entries = st.integers(-6, 6)
    rows = draw(st.lists(st.lists(entries, min_size=width, max_size=width), max_size=5))
    if draw(st.booleans()):
        w = draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
        return rows, width, _times(w, rows, width), True
    return rows, width, draw(st.lists(entries, min_size=width, max_size=width)), False


@settings(max_examples=300, **SETTINGS)
@given(lattice_problems())
def test_hermite_form_carries_the_transform_of_the_two_matrix_form(problem):
    rows, width, target, planted = problem
    H0, U0, pivots0 = _oracle_hnf_with_transform(rows, width)
    assert hnf(rows, width) == (H0, pivots0)
    augmented = [[*r, *(int(i == j) for j in range(len(rows)))] for i, r in enumerate(rows)]
    H, pivots = hnf(augmented, width)
    assert pivots == pivots0
    assert [h[:width] for h in H] == H0 and [h[width:] for h in H] == U0
    word, kernel = solve_left(rows, width, target)
    assert (word, kernel) == _oracle_solve_left(rows, width, target)
    if word is not None:
        assert _times(word, rows, width) == target
    assert word is not None or not planted
    assert all(_times(k, rows, width) == [0] * width for k in kernel)
    assert len(kernel) == len(rows) - len(pivots)

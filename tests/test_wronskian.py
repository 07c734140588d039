import io
import itertools
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffunits import (
    GF,
    Poly,
    RatFunc,
    build_presentation,
    candidate_solution,
    coordinate_matrix,
    hasse_derivative,
    in_power_subfield,
    independence_test,
    wronskian_det_adj,
)
from ffunits import hasse, wronskian
from ffunits.cli import run_cli
from ffunits.errors import InternalCheckError
from ffunits.hasse import inflate
from ffunits.wronskian import (
    IndependenceCertificate,
    _cleared,
    _Echelon,
    _first_dependence,
    _witness,
    independence_verdict,
    psi,
    psi_rows,
    unit_substitution_verdicts,
    verify_certificate,
    wronskian_matrix,
)

from conftest import coordinate_fractions, el, rand_poly, rand_ratfunc, sympy_element, sympy_matrix
from test_properties import FIELDS, units


def test_coordinate_matrix_examples(F2):
    one, t = RatFunc.one(F2), RatFunc.t(F2)
    m = coordinate_fractions(coordinate_matrix((one, t), 1))
    assert m == [[one, RatFunc.zero(F2)], [RatFunc.zero(F2), one]]
    m = coordinate_fractions(coordinate_matrix((el(F2, "1+T^2"), t), 1))
    assert m == [[el(F2, "1+T"), RatFunc.zero(F2)], [RatFunc.zero(F2), one]]
    # oracle: T + T^2 = 1*(T^2) + (T^2)^0... re-expansion check is in test_hasse;
    # here the frozen matrix from re-deriving the coordinates by hand
    m = coordinate_fractions(coordinate_matrix((el(F2, "T+T^2"), el(F2, "1+T")), 1))
    assert m == [[t, one], [one, one]]
    # the integral row is left unreduced: 1/(1+T^2) lies in F_2(T^2), and its
    # 0-th coordinate 1/(1+T) comes as (1+T)/(1+T^2)
    [(nums, den)] = coordinate_matrix((el(F2, "1/(1+T^2)"),), 1)
    assert nums == (el(F2, "1+T").num, el(F2, "0").num) and den == el(F2, "1+T^2").num


def test_independence_examples(F2):
    one, t = RatFunc.one(F2), RatFunc.t(F2)
    cert = independence_test((one, one), 1)
    assert not cert.independent
    assert verify_certificate((one, one), 1, cert)
    acc = cert.relation[0] * one + cert.relation[1] * one
    assert acc.is_zero and not all(r.is_zero for r in cert.relation)

    cert = independence_test((t, one), 1)
    assert cert.independent and cert.index_set == (0, 1)
    # oracle: rows (t, 1) and (1, 0) have determinant -1 != 0
    rows = wronskian_matrix((t, one), (0, 1))
    det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    assert det == -one

    for r in (el(F2, "1+T"), el(F2, "T"), el(F2, "(1+T)^2")):
        scaled = (t * r, el(F2, "1+T") * r)
        cert = independence_test(scaled, 1)
        assert cert.independent  # the ratio T/(1+T) has odd exponents
        assert verify_certificate(scaled, 1, cert)


def test_dependence_when_size_exceeds_dimension(F2):
    b = (RatFunc.one(F2), RatFunc.t(F2), el(F2, "1+T"))
    cert = independence_test(b, 1)  # 3 components over a degree-2 extension
    assert not cert.independent
    assert verify_certificate(b, 1, cert)


def test_relation_entries_live_in_subfield(F3):
    rng = random.Random(67)
    found = 0
    while found < 20:
        b = (rand_ratfunc(rng, F3, 3, True), rand_ratfunc(rng, F3, 3, True))
        cert = independence_test(b, 1)
        if cert.independent:
            continue
        found += 1
        assert all(in_power_subfield(r, 1) for r in cert.relation)
        acc = RatFunc.zero(F3)
        for r, x in zip(cert.relation, b):
            acc = acc + r * x
        assert acc.is_zero


def test_oracle_equivalence_sample(F2, F3):
    rng = random.Random(71)
    for _ in range(40):
        field = rng.choice((F2, F3))
        m = rng.choice((1, 2))
        M = rng.choice((2, 3))
        b = tuple(rand_ratfunc(rng, field, 4, True) for _ in range(M))
        cert = independence_test(b, m)
        rank = sympy_matrix(coordinate_fractions(coordinate_matrix(b, m))).rank()
        assert cert.independent == (rank == M)
        assert verify_certificate(b, m, cert)


def test_det_adj_examples(F2):
    one, t = RatFunc.one(F2), RatFunc.t(F2)
    det, adj = wronskian_det_adj((t, el(F2, "1+T")), (0, 1), 1)
    assert det == one
    det, adj = wronskian_det_adj((el(F2, "T+T^2"), el(F2, "1+T")), (0, 1), 1)
    assert det == el(F2, "1+T^2")
    # singular: rows (1, 1) and (0, 0); the adjugate is still the true one
    det, adj = wronskian_det_adj((one, one), (0, 1), 1)
    assert det == RatFunc.zero(F2)
    assert adj == ((RatFunc.zero(F2), one), (RatFunc.zero(F2), one))


def test_adjugate_identity(F2, F3):
    rng = random.Random(73)
    for _ in range(25):
        field = rng.choice((F2, F3))
        m = 2 if field.p == 2 else 1
        pm = field.p**m
        M = rng.choice((2, 3))
        if M > pm:
            continue
        b = tuple(rand_ratfunc(rng, field, 3, True) for _ in range(M))
        index_set = (0,) + tuple(sorted(rng.sample(range(1, pm), M - 1)))
        det, adj = wronskian_det_adj(b, index_set, m)
        T = wronskian_matrix(b, index_set)
        # sympy keeps a unit factor in num and den, so compare the difference
        assert sympy_matrix(T).det() - sympy_element(det) == 0
        for i in range(M):
            for j in range(M):
                acc = RatFunc.zero(field)
                for k in range(M):
                    acc = acc + T[i][k] * adj[k][j]
                assert acc == (det if i == j else RatFunc.zero(field))


def test_adjugate_first_column_is_unit_substituted_det(F2):
    # the j-th entry of adj * e1 equals the determinant after replacing
    # column j by the derivatives of 1
    b = (el(F2, "T+T^2"), el(F2, "1+T"))
    det, adj = wronskian_det_adj(b, (0, 1), 1)
    for j in range(2):
        dj, _ = wronskian_det_adj(psi(j + 1, b), (0, 1), 1)
        assert adj[j][0] == dj


def test_candidate_examples(F2):
    one, t = RatFunc.one(F2), RatFunc.t(F2)
    c = candidate_solution((t, el(F2, "1+T")), 1)
    assert c == (one, one)
    assert t * c[0] + el(F2, "1+T") * c[1] == one

    c = candidate_solution((el(F2, "T+T^2"), el(F2, "1+T")), 1)
    assert c == (el(F2, "1/(1+T^2)"), el(F2, "1/(1+T^2)"))
    assert el(F2, "T+T^2") * c[0] + el(F2, "1+T") * c[1] == one

    assert candidate_solution((t, one), 1) is None  # solves to a zero coordinate


def test_candidate_at_m_zero(F2, F3):
    # K_0 = K, so a single nonzero b solves b . c = 1 with c = 1/b
    for field in (F2, F3):
        t = RatFunc.t(field)
        b = (t,)
        assert candidate_solution(b, 0) == (el(field, "1/T"),)
        cert, psi_certs, c = unit_substitution_verdicts(b, 0, coordinate_matrix(b, 0))
        assert cert.independent and c == (el(field, "1/T"),)
        assert psi_certs == (independence_test(psi(1, b), 0),)


def test_candidate_requires_independence(F2):
    with pytest.raises(ValueError):
        candidate_solution((RatFunc.one(F2), RatFunc.one(F2)), 1)


def test_candidate_satisfies_equation(F2, F3):
    rng = random.Random(79)
    produced = 0
    for _ in range(150):
        field = rng.choice((F2, F3))
        m = rng.choice((1, 2))
        M = 2
        b = tuple(rand_ratfunc(rng, field, 3, True) for _ in range(M))
        cert = independence_test(b, m)
        if not cert.independent:
            continue
        c = candidate_solution(b, m)
        if c is None:
            continue
        produced += 1
        acc = RatFunc.zero(field)
        for x, y in zip(b, c):
            acc = acc + x * y
        assert acc.is_one
    assert produced > 10


def _all_witnesses(b, m):
    field = b[0].field
    pm = field.p**m
    out = []
    for rest in itertools.combinations(range(1, pm), len(b) - 1):
        I = (0,) + rest
        det, _ = wronskian_det_adj(b, I, m)
        if not det.is_zero:
            out.append(I)
    return out


def _witness_candidate(b, m, I):
    """The witness-system route to the candidate, kept as a reference.

    Solves T c = e_1 for the derivative matrix T at the index set I, as the
    left-kernel vector (c, -1) of the columns of T stacked over e_1, and
    keeps c only when every coordinate is nonzero and every derivative row
    D(i)(b) . c = D(i)(1), 0 <= i < p**m, holds.
    """
    field = b[0].field
    one, zero = RatFunc.one(field), RatFunc.zero(field)
    echelon = _Echelon(field, slots=len(b) + 1)
    for x in b:
        assert echelon.push(_cleared([hasse_derivative(x, i) for i in I]))
    assert not echelon.push(_cleared([one] + [zero] * (len(b) - 1)))
    c = tuple(-w for w in echelon.relation()[:-1])
    if any(cj.is_zero for cj in c):
        return None
    for i in range(field.p**m):
        acc = zero
        for x, cj in zip(b, c):
            acc = acc + hasse_derivative(x, i) * cj
        if acc != (one if i == 0 else zero):
            return None
    return c


def test_candidate_is_witness_independent(F2, F3):
    rng = random.Random(83)
    checked = 0
    for _ in range(60):
        field = rng.choice((F2, F3))
        m = 2 if field.p == 2 else 1
        b = (rand_ratfunc(rng, field, 3, True), rand_ratfunc(rng, field, 3, True))
        cert = independence_test(b, m)
        if not cert.independent:
            continue
        witnesses = _all_witnesses(b, m)
        assert cert.index_set in witnesses
        assert cert.index_set == witnesses[0]  # greedy = lexicographically first
        baseline = candidate_solution(b, m)
        for I in witnesses:
            assert _witness_candidate(b, m, I) == baseline
            checked += 1
    assert checked > 10


def test_candidate_matches_witness_solve(F2, F3):
    # the subfield relation of (b, 1) against the witness-system solve at
    # every nonsingular index set; half the vectors are planted solvable
    # (b_M solved from a subfield c), so that candidates do occur
    fields = (F2, F3, GF(2, 2, (1, 1, 1)), GF(3, 2, (1, 0, 1)))
    rng = random.Random(97)
    compared = produced = planted_found = 0
    for field, m, M in itertools.product(fields, (1, 2), (1, 2, 3)):
        pm = field.p**m
        one = RatFunc.one(field)
        for trial in range(6):
            b = [rand_ratfunc(rng, field, 2, True) for _ in range(M)]
            planted = None
            if trial % 2:
                planted = tuple(rand_ratfunc(rng, field, 1, True) ** pm for _ in range(M))
                rest = one
                for x, cj in zip(b[:-1], planted[:-1]):
                    rest = rest - x * cj
                if rest.is_zero:
                    continue
                b[-1] = rest / planted[-1]
            b = tuple(b)
            if not independence_test(b, m).independent:
                with pytest.raises(ValueError):
                    candidate_solution(b, m)
                continue
            c = candidate_solution(b, m)
            for I in _all_witnesses(b, m):
                assert _witness_candidate(b, m, I) == c
                compared += 1
            if planted is not None:
                assert c == planted
                planted_found += 1
            produced += c is not None
    assert compared > 100 and produced > 20 and planted_found > 20


def test_unit_substitution_verdicts_match_separate_tests(F2, F3):
    # the one elimination of the rows of b without their first column gives
    # what a separate independence test of every psi(j, b) and the stacked
    # candidate solve give; b_1 = 1 makes psi(j, b) dependent for j > 1;
    # a dependent b (planted, or any b with M > p**m) gets one test per
    # psi(j, b)
    fields = (F2, F3, GF(2, 2, (1, 1, 1)), GF(3, 2, (1, 0, 1)))
    rng = random.Random(131)
    lemma = dependent_psi = candidates = dependent_b = dependent_b_psi = 0
    for field, m, M in itertools.product(fields, (1, 2), (1, 2, 3)):
        pm = field.p**m
        for trial in range(8):
            b = [rand_ratfunc(rng, field, 2, True) for _ in range(M)]
            if trial % 4 == 1:
                b[0] = RatFunc.one(field)
            if trial % 4 == 2 and M > 1:
                # planted: b . c = 1 for a c with subfield entries
                c = [rand_ratfunc(rng, field, 1, True) ** pm for _ in range(M)]
                rest = RatFunc.one(field)
                for x, cj in zip(b[:-1], c[:-1]):
                    rest = rest - x * cj
                if rest.is_zero:
                    continue
                b[-1] = rest / c[-1]
            if trial % 4 == 3 and M > 1:
                # planted dependence: b_2 is b_1 times a subfield element
                b[1] = b[0] * rand_ratfunc(rng, field, 1, True) ** pm
            b = tuple(b)
            rows = coordinate_matrix(b, m)
            cert = independence_test(b, m)
            assert independence_test(b, m, rows=rows) == cert
            psi_certs = tuple(independence_test(psi(j, b), m) for j in range(1, M + 1))
            if not cert.independent:
                assert unit_substitution_verdicts(b, m, rows) == (cert, psi_certs, None)
                dependent_b += 1
                dependent_b_psi += any(c.independent for c in psi_certs)
                continue
            want = (cert, psi_certs, candidate_solution(b, m))
            assert unit_substitution_verdicts(b, m, rows) == want
            lemma += 1
            dependent_psi += not all(c.independent for c in psi_certs)
            candidates += want[2] is not None
    assert lemma > 100 and dependent_psi > 10 and candidates > 10
    assert dependent_b > 30 and dependent_b_psi > 10


def _random_battery(seed: int):
    """(b, m) over GF(2), GF(3), GF(4), GF(9): random vectors, vectors with
    b_1 = 1, and vectors with a planted subfield dependence b_2 = b_1 * s.
    """
    fields = (GF(2), GF(3), GF(2, 2, (1, 1, 1)), GF(3, 2, (1, 0, 1)))
    rng = random.Random(seed)
    for field, m, M in itertools.product(fields, (0, 1, 2), (1, 2, 3)):
        pm = field.p**m
        for trial in range(6):
            b = [rand_ratfunc(rng, field, 2, True) for _ in range(M)]
            if trial % 3 == 1:
                b[0] = RatFunc.one(field)
            if trial % 3 == 2 and M > 1:
                b[1] = b[0] * rand_ratfunc(rng, field, 1, True) ** pm
            yield tuple(b), m


def test_integral_rows_eliminate_as_their_cleared_fractions():
    # the RatFunc row nums/den, cleared over the lcm of its reduced
    # denominators, is (nums, den) over another common denominator: the
    # pivots differ, the verdicts and relations over K do not
    pushes = relations = 0
    for b, m in _random_battery(1291):
        rows = coordinate_matrix(b, m)
        integral = _Echelon(b[0].field, slots=len(rows))
        cleared = _Echelon(b[0].field, slots=len(rows))
        for row, fractions in zip(rows, coordinate_fractions(rows)):
            grew = integral.push(row)
            assert cleared.push(_cleared(fractions)) == grew
            pushes += 1
            if not grew:
                assert integral.relation() == cleared.relation()
                relations += 1
                break
    assert pushes > 300 and relations > 50


def test_rows_scaled_by_a_polynomial_eliminate_alike():
    # rows are eliminated as given, content and all: (nums * f, den * f)
    # stands for the same K-row as (nums, den), so it must give the same
    # verdicts and the same relations
    rng = random.Random(1297)
    pushes = relations = 0
    for b, m in _random_battery(1291):
        field = b[0].field
        plain = _Echelon(field, slots=len(b))
        scaled = _Echelon(field, slots=len(b))
        for nums, den in coordinate_matrix(b, m):
            f = rand_poly(rng, field, 3, nonzero=True).monic()[0]
            grew = plain.push((nums, den))
            assert scaled.push((tuple(a * f for a in nums), den * f)) == grew
            pushes += 1
            if not grew:
                assert scaled.relation() == plain.relation()
                relations += 1
                break
    assert pushes > 300 and relations > 50


def test_independence_verdict_matches_the_certificates():
    # the rank-only verdict of the re-tests agrees with independence_test on
    # b and with every psi_j verdict of unit_substitution_verdicts
    verdicts = {True: 0, False: 0}
    for b, m in _random_battery(1301):
        rows = coordinate_matrix(b, m)
        cert, psi_certs, _ = unit_substitution_verdicts(b, m, rows)
        assert independence_verdict(rows) == cert.independent == independence_test(b, m).independent
        verdicts[cert.independent] += 1
        for j, c in enumerate(psi_certs, 1):
            assert independence_verdict(psi_rows(rows, j)) == c.independent
            verdicts[c.independent] += 1
    assert min(verdicts.values()) > 100


def _greedy_witness(b, pm):
    """The plain greedy witness of b, the oracle of _witness: every
    derivative row D(i)(b), 0 <= i < pm, that grows the rank, until there
    are len(b) of them; None when the rows run out first.
    """
    echelon, indices = _Echelon(b[0].field), []
    for i in range(pm):
        if echelon.push(_cleared([hasse_derivative(x, i) for x in b])):
            indices.append(i)
            if len(indices) == len(b):
                return tuple(indices)
    return None


def test_psi_witness_is_the_greedy_witness_of_psi(F2, F3):
    # row 0 is the only derivative row of psi(j, b) with a nonzero entry in
    # column j, so the greedy scan over the rows of b without column j gives
    # the rest of the witness
    fields = (F2, F3, GF(2, 2, (1, 1, 1)), GF(3, 2, (1, 0, 1)))
    rng = random.Random(977)
    compared = 0
    for field, m, M in itertools.product(fields, (1, 2), (1, 2, 3)):
        pm = field.p**m
        for trial in range(6):
            b = [rand_ratfunc(rng, field, 2, True) for _ in range(M)]
            if trial % 3 == 1:
                b[0] = RatFunc.one(field)
            b = tuple(b)
            for j in range(1, M + 1):
                if independence_test(psi(j, b), m).independent:
                    assert _witness((*b[: j - 1], *b[j:]), pm) == _greedy_witness(psi(j, b), pm)
                    compared += 1
    assert compared > 150


@st.composite
def two_term_vectors(draw):
    """(b, m, k) with b = (b_1, b_1 * y) for y a p**k-th power pattern
    z(t**(p**k)), k < m and k <= 2; or y in K_m (k = m), so that b is
    dependent; or b planted to solve b . c = 1 with c in K_m**2 (k = 0).
    """
    field = draw(st.sampled_from(FIELDS))
    m = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("pattern", "dependent", "planted")))
    b_1, z = draw(units(field)), draw(units(field))
    if kind == "planted":
        c_1, c_2 = (inflate(draw(units(field)), field.p**m) for _ in range(2))
        b_2 = (RatFunc.one(field) - b_1 * c_1) / c_2
        return (b_1, b_2 if not b_2.is_zero else z), m, 0
    k = m if kind == "dependent" else draw(st.integers(0, min(2, m - 1)))
    return (b_1, b_1 * inflate(z, field.p**k)), m, k


def _eliminated_test(b, pm, rows):
    """independence_test by the general route: the relation of the first
    coordinate row that adds no rank, else the plain greedy witness.
    """
    echelon = _first_dependence(rows, b[0].field)
    if echelon is None:
        return IndependenceCertificate(True, _greedy_witness(b, pm), None)
    return IndependenceCertificate(False, None, tuple(inflate(c, pm) for c in echelon.relation()))


def _eliminated_verdicts(b, m, rows):
    """unit_substitution_verdicts by the general elimination route, the
    oracle of the two-term rule: each test by _eliminated_test, and the
    candidate from the relation of the coordinate rows of b stacked over
    the row of 1.
    """
    field = b[0].field
    pm = field.p**m
    cert = _eliminated_test(b, pm, rows)
    psi_certs = tuple(
        _eliminated_test(psi(j, b), pm, psi_rows(rows, j)) for j in range(1, len(b) + 1)
    )
    if not cert.independent:
        return cert, psi_certs, None
    echelon = _first_dependence([*rows, psi_rows(rows, 1)[0]], field)
    if echelon is None:
        return cert, psi_certs, None
    candidate = tuple(-inflate(w, pm) for w in echelon.relation()[:-1])
    return cert, psi_certs, None if any(c.is_zero for c in candidate) else candidate


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(two_term_vectors())
def test_two_term_rule_matches_elimination(draw):
    b, m, k = draw
    rows = coordinate_matrix(b, m)
    want = _eliminated_verdicts(b, m, rows)
    cert = independence_test(b, m)
    assert cert == independence_test(b, m, rows=rows) == want[0]
    assert unit_substitution_verdicts(b, m, rows) == want
    assert unit_substitution_verdicts(b, m, rows, cert) == want
    if k >= m:
        assert not cert.independent
    elif cert.independent:
        # the quotient has level at least k, so D(i) vanishes on it below p**k
        assert cert.index_set[1] >= b[0].field.p**k


@st.composite
def tail_vectors(draw):
    """(b, m) with three or four terms: components z(t**(p**k)) for k <= 2,
    so that witnesses reach past row 1, and at times b_1 = 1 or b_2 planted
    in b_1 * K_m, so that b is dependent and psi(j, b) may not be.
    """
    field = draw(st.sampled_from(FIELDS))
    m = draw(st.integers(1, 3))
    size = draw(st.sampled_from((3, 4)))
    b = [inflate(draw(units(field)), field.p ** draw(st.integers(0, 2))) for _ in range(size)]
    kind = draw(st.sampled_from(("plain", "one", "dependent")))
    if kind == "one":
        b[0] = RatFunc.one(field)
    elif kind == "dependent":
        b[1] = b[0] * inflate(draw(units(field)), field.p**m)
    return tuple(b), m


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(tail_vectors())
def test_witness_is_the_plain_greedy_witness(draw):
    # every witness is 0 followed by the greedy rows of a tail: that of b is
    # read off b / b_1 and that of psi(j, b) off b without its column j, and
    # both must be the plain greedy witness of the vector itself
    b, m = draw
    pm = b[0].field.p**m
    cert, psi_certs, _ = unit_substitution_verdicts(b, m, coordinate_matrix(b, m))
    assert cert == independence_test(b, m)
    for c, v in ((cert, b), *((c, psi(j, b)) for j, c in enumerate(psi_certs, 1))):
        if c.independent:
            assert c.index_set == _greedy_witness(v, pm)


def test_witness_scan_starts_one_jet_per_tail_component(F2):
    # (1, T, T^4) at m = 3 has the witness (0, 1, 4): the scan grows the
    # jets of T and T^4 order by order up to 4, and starts no jet per row
    one, t = RatFunc.one(F2), RatFunc.t(F2)
    hasse._jet_coeffs.cache_clear()
    assert independence_test((one, t, t**4), 3).index_set == (0, 1, 4)
    assert hasse._jet_coeffs.cache_info().misses == 2
    assert [len(hasse._jet_coeffs(x)[0]) for x in (t, t**4)] == [5, 5]


def test_two_term_rule_refuses_a_level_that_disagrees(F2, monkeypatch):
    # the two-term verdict is confirmed by the coordinate rank: a level that
    # puts every quotient in K_m leaves an independent pair without a
    # witness, and one that puts none there contradicts a dependent pair
    one, t = RatFunc.one(F2), RatFunc.t(F2)
    for level, b, argv in (
        (lambda y: None, (t, one), ["indep", "--p", "2", "--b", "T, 1", "--m", "1"]),
        (lambda y: 0, (one, one), ["indep", "--p", "2", "--b", "1, 1", "--m", "1"]),
        (lambda y: None, (t, one),
         ["solve", "--p", "2", "--gens", "1+T", "--b", "T, 1", "--rhs", "0", "--m", "1"]),
    ):
        assert run_cli(argv, stdout=io.StringIO(), stderr=io.StringIO()) == 0
        with monkeypatch.context() as mp:
            mp.setattr(wronskian, "subfield_level", level)
            with pytest.raises(InternalCheckError):
                independence_test(b, 1)
            err = io.StringIO()
            assert run_cli(argv, stdout=io.StringIO(), stderr=err) == 1
            assert "internal check failed" in err.getvalue()


def test_relation_of_an_independent_vector_is_an_internal_fault(F2, monkeypatch):
    # the relation of the stack (b, 1) must weigh the row of 1: a kernel
    # vector that does not, here the zero vector, would be a relation of
    # the independent b alone
    b = (RatFunc.t(F2), el(F2, "1+T"))
    argv = ["solve", "--p", "2", "--gens", "1+T", "--b", "T, 1", "--rhs", "1", "--m", "1"]
    assert candidate_solution(b, 1) == (RatFunc.one(F2), RatFunc.one(F2))
    assert run_cli(argv, stdout=io.StringIO(), stderr=io.StringIO()) == 0
    original = wronskian._first_dependence

    def zero_kernel(rows, field):
        echelon = original(rows, field)
        return echelon and types.SimpleNamespace(kernel=[Poly.zero(field)] * len(echelon.kernel))

    monkeypatch.setattr(wronskian, "_first_dependence", zero_kernel)
    with pytest.raises(InternalCheckError, match="relation of the coordinate rows of an independent vector"):
        candidate_solution(b, 1)
    out, err = io.StringIO(), io.StringIO()
    assert run_cli(argv, stdout=out, stderr=err) == 1
    assert out.getvalue() == "" and "internal check failed: relation of the coordinate rows" in err.getvalue()


def test_psi_witness_keeps_the_internal_check(F2):
    # psi(1, (T, T^2)) = (1, T^2) is dependent at m = 1: no witness exists,
    # and D(1)(T^2) = 0 leaves the scan without a second row; so is
    # (1, T^2, T^4) at m = 2, whose only row past 0 that grows the rank is 2
    t = RatFunc.t(F2)
    for rest, m in (((t**2,), 1), ((t**2, t**4), 2)):
        assert _greedy_witness((RatFunc.one(F2), *rest), 2**m) is None
        with pytest.raises(InternalCheckError):
            _witness(rest, 2**m)


def test_certificate_is_shared_by_the_orbit():
    # Leibniz: rows 0..i of the derivative matrix of f*v are rows 0..i of
    # that of v times a lower-triangular matrix with f on the diagonal, and
    # a subfield factor s_j scales column j; so v and (f v_j s_j)_j have
    # the same verdict and the same greedy witness
    fields = (GF(2), GF(3), GF(2, 2, (1, 1, 1)), GF(3, 2, (1, 0, 1)))
    rng = random.Random(1811)
    independent = dependent = 0
    for field, m, M in itertools.product(fields, (1, 2), (2, 3)):
        pm = field.p**m
        gens = tuple(rand_ratfunc(rng, field, 2, True) for _ in range(2))
        try:
            group = build_presentation(gens)
        except ValueError:
            continue
        for trial in range(4):
            v = [rand_ratfunc(rng, field, 2, True) for _ in range(M)]
            if trial % 2:
                # planted dependence: v_2 is v_1 times a subfield element
                v[1] = v[0] * rand_ratfunc(rng, field, 1, True) ** pm
            word = [rng.randrange(-2, 3) for _ in gens]
            f = group.word_product(word)
            s = [rand_ratfunc(rng, field, 1, True) ** pm for _ in range(M)]
            moved = tuple(f * x * y for x, y in zip(v, s))
            a, b = independence_test(tuple(v), m), independence_test(moved, m)
            assert a.independent == b.independent
            assert a.index_set == b.index_set
            independent += a.independent
            dependent += not a.independent
    assert independent > 20 and dependent > 20


def test_candidate_scaling_by_subfield_units(F2):
    # scaling by p**m-th powers (subfield units) divides the candidate exactly
    rng = random.Random(89)
    for _ in range(30):
        b = (rand_ratfunc(rng, F2, 2, True), rand_ratfunc(rng, F2, 2, True))
        cert = independence_test(b, 1)
        if not cert.independent:
            continue
        gamma = (rand_ratfunc(rng, F2, 2, True) ** 2, rand_ratfunc(rng, F2, 2, True) ** 2)
        scaled = tuple(x * g for x, g in zip(b, gamma))
        base = candidate_solution(b, 1)
        other = candidate_solution(scaled, 1)
        if base is None:
            assert other is None
        else:
            assert other == tuple(c / g for c, g in zip(base, gamma))


def test_index_set_validation(F2):
    b = (RatFunc.t(F2), RatFunc.one(F2))
    with pytest.raises(ValueError):
        wronskian_det_adj(b, (1, 2), 2)  # must start at 0
    with pytest.raises(ValueError):
        wronskian_det_adj(b, (0, 2), 1)  # 2 >= p**m
    with pytest.raises(ValueError):
        wronskian_det_adj(b, (0,), 1)  # wrong size


def test_zero_component_rejected(F2):
    with pytest.raises(ValueError):
        independence_test((RatFunc.zero(F2), RatFunc.one(F2)), 1)


def test_verify_rejects_relation_of_wrong_length(F2):
    b = (RatFunc.one(F2), RatFunc.t(F2))
    assert independence_test(b, 1).independent
    zero, one = RatFunc.zero(F2), RatFunc.one(F2)
    # zip would drop the third weight and see only 0*1 + 0*T = 0
    forged = IndependenceCertificate(False, None, (zero, zero, one))
    assert not verify_certificate(b, 1, forged)
    assert not verify_certificate(b, 1, IndependenceCertificate(False, None, (one,)))


def test_verify_rejects_relation_outside_the_subfield(F2):
    # T * 1 + 1 * T = 0 over F_2, but the weight T is not in F_2(T^2)
    b = (RatFunc.t(F2), RatFunc.one(F2))
    rel = (RatFunc.one(F2), RatFunc.t(F2))
    assert (rel[0] * b[0] + rel[1] * b[1]).is_zero
    assert not verify_certificate(b, 1, IndependenceCertificate(False, None, rel))


def test_verify_rejects_malformed_index_set(F2):
    b = (RatFunc.one(F2), RatFunc.t(F2))
    assert verify_certificate(b, 1, IndependenceCertificate(True, (0, 1), None))
    for index_set in ((1, 0), (0,), (0, 0), (0, 5), (0, 1, 2)):
        assert not verify_certificate(b, 1, IndependenceCertificate(True, index_set, None))


def test_verify_rejects_independent_certificate_without_index_set(F2):
    b = (RatFunc.one(F2), RatFunc.t(F2))
    assert not verify_certificate(b, 1, IndependenceCertificate(True, None, None))

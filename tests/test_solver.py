import io
import itertools
import json
import os
import random
from dataclasses import dataclass

import pytest

from ffunits import (
    GF,
    Equation,
    RatFunc,
    auto_m,
    build_presentation,
    candidate_solution,
    decide,
    independence_test,
    member,
    psi,
    representatives,
)
from ffunits.cli import run_cli
from ffunits.errors import InternalCheckError
from ffunits.localprobe import sg_search
from ffunits.unitgroup import SubgroupPresentation
from ffunits.wronskian import verify_certificate

from conftest import el, radical_member, rand_ratfunc


def phi(i: int, a):
    """Drop the i-th component (1-indexed) and divide the rest by -a_i."""
    if len(a) < 2:
        raise ValueError("phi needs at least two components")
    if not 1 <= i <= len(a):
        raise IndexError("component index out of range")
    pivot = a[i - 1]
    if pivot.is_zero:
        raise ZeroDivisionError("pivot component is zero")
    return tuple(-(x / pivot) for k, x in enumerate(a) if k != i - 1)


@dataclass(frozen=True)
class ShortcutReport:
    """Radical-membership reading of the two-term criteria (advisory only)."""

    ratio_in_radical: bool
    first_in_radical: bool
    second_in_radical: bool

    @property
    def homogeneous_hypothesis_implied(self) -> bool:
        return not self.ratio_in_radical

    @property
    def inhomogeneous_hypothesis_implied(self) -> bool:
        return not (self.first_in_radical and self.second_in_radical)


def m2_shortcut(b, group: SubgroupPresentation) -> ShortcutReport:
    """For two-term equations, test the radical shortcuts for both criteria."""
    b = tuple(b)
    if len(b) != 2:
        raise ValueError("the shortcut applies to two-term equations only")
    if b[0].is_zero or b[1].is_zero:
        raise ValueError("coefficients must be nonzero")
    return ShortcutReport(
        ratio_in_radical=radical_member(b[0] / b[1], group),
        first_in_radical=radical_member(b[0], group),
        second_in_radical=radical_member(b[1], group),
    )


def test_psi_phi_examples(F2):
    t, one = RatFunc.t(F2), RatFunc.one(F2)
    a = (t, el(F2, "1+T"))
    assert psi(1, a) == (one, el(F2, "1+T"))
    assert psi(2, a) == (t, one)
    assert psi(1, psi(1, a)) == psi(1, a)
    assert phi(2, (t, one)) == (-t,)
    assert phi(1, (t, one)) == (-(one / t),)
    assert phi(2, (t, el(F2, "1+T"))) == (el(F2, "T/(1+T)"),)  # -1 = 1 in char 2
    with pytest.raises(IndexError):
        psi(3, a)
    with pytest.raises(IndexError):
        phi(0, a)


def test_equation_validation(F2):
    with pytest.raises(ValueError):
        Equation((RatFunc.t(F2),), 2)
    with pytest.raises(ValueError):
        Equation((RatFunc.zero(F2),), 0)
    with pytest.raises(ValueError):
        Equation((), 0)


@pytest.fixture(scope="module")
def worked(F2):
    group = build_presentation((el(F2, "1+T"),))
    return group, Equation((RatFunc.t(F2), RatFunc.one(F2)), 0), Equation(
        (RatFunc.t(F2), RatFunc.one(F2)), 1
    )


def test_homogeneous_certified_empty(worked, F2):
    group, eq0, _ = worked
    report = decide(eq0, group, 1)
    assert report.outcome == "certified-empty"
    assert report.repset_size == 2
    assert len(report.records) == 4
    for rec in report.records:
        assert rec.certificate.independent
        br = tuple(x * y for x, y in zip(eq0.b, rec.r))
        assert verify_certificate(br, 1, rec.certificate)


def test_homogeneous_inapplicable_fixed_point(F3):
    group = build_presentation((el(F3, "T"), el(F3, "-T"), el(F3, "1-T")))
    eq = Equation((RatFunc.one(F3), RatFunc.one(F3)), 0)
    report = decide(eq, group, 1)
    assert report.outcome == "inapplicable"
    assert report.failure.r == (RatFunc.one(F3), RatFunc.one(F3))
    rel = report.failure.certificate.relation
    acc = RatFunc.zero(F3)
    for c, x in zip(rel, report.failure.r):
        acc = acc + c * x
    assert acc.is_zero


def test_homogeneous_inapplicable_power_classes(F2):
    group = build_presentation((el(F2, "T"), el(F2, "1+T")))
    eq = Equation((RatFunc.t(F2), el(F2, "1+T")), 0)
    for m in (1, 2, 3):
        report = decide(eq, group, m)
        assert report.outcome == "inapplicable"
        assert not report.failure.certificate.independent


def test_inhomogeneous_worked_instance(worked, F2):
    group, _, eq1 = worked
    report = decide(eq1, group, 1)
    assert report.outcome == "certified-solutions"
    assert report.bound == 2
    points = {s.coords for s in report.solutions}
    assert points == {
        (RatFunc.one(F2), el(F2, "1+T")),
        (el(F2, "1/(1+T)"), el(F2, "1/(1+T)")),
    }
    for s in report.solutions:
        acc = RatFunc.zero(F2)
        for b, x in zip(eq1.b, s.coords):
            acc = acc + b * x
        assert acc.is_one
        for x, w in zip(s.coords, s.words):
            assert group.word_product(w) == x
    assert len(report.solutions) <= report.bound


def test_inhomogeneous_inapplicable(F3):
    group = build_presentation((el(F3, "T"), el(F3, "-T"), el(F3, "1-T")))
    eq = Equation((RatFunc.one(F3), RatFunc.one(F3)), 1)
    report = decide(eq, group, 1)
    assert report.outcome == "inapplicable"
    assert report.failure.r == (RatFunc.one(F3), RatFunc.one(F3))
    assert all(not c.independent for c in report.failure.psi_certificates)


@pytest.mark.parametrize("m", (1, 2))
def test_wrong_candidate_is_an_internal_fault(worked, F2, m, monkeypatch):
    # a candidate entry scaled by T**(p**m) stays in K_m, so only the exact
    # substitution b . x = 1 can tell that it is wrong
    import ffunits.solver

    group, _, eq1 = worked
    assert decide(eq1, group, m).outcome == "certified-solutions"
    real = ffunits.solver.unit_substitution_verdicts
    scale = RatFunc.t(F2) ** 2**m
    scaled = []

    def wrong(*args):
        cert, psi_certs, candidate = real(*args)
        if candidate is not None:
            scaled.append(candidate)
            candidate = (candidate[0] * scale, *candidate[1:])
        return cert, psi_certs, candidate

    monkeypatch.setattr(ffunits.solver, "unit_substitution_verdicts", wrong)
    with pytest.raises(InternalCheckError, match=r"candidate does not satisfy b \. x = 1"):
        decide(eq1, group, m)
    assert scaled
    out, err = io.StringIO(), io.StringIO()
    argv = ["solve", "--p", "2", "--gens", "1+T", "--b", "T, 1", "--rhs", "1", "--m", str(m)]
    assert run_cli(argv, stdout=out, stderr=err) == 1
    assert out.getvalue() == "" and "internal check failed: candidate" in err.getvalue()


@pytest.mark.parametrize("rhs", (0, 1))
def test_retest_that_disagrees_is_an_internal_fault(F3, rhs, monkeypatch):
    # the scaled re-tests of the first failing tuple are the only callers of
    # solver.independence_verdict; make it answer independent
    import ffunits.solver

    group = build_presentation((el(F3, "T"), el(F3, "-T"), el(F3, "1-T")))
    eq = Equation((RatFunc.one(F3), RatFunc.one(F3)), rhs)
    assert decide(eq, group, 1).outcome == "inapplicable"
    monkeypatch.setattr(ffunits.solver, "independence_verdict", lambda rows: True)
    with pytest.raises(InternalCheckError, match="dependence verdict changed"):
        decide(eq, group, 1)
    out, err = io.StringIO(), io.StringIO()
    argv = ["solve", "--p", "3", "--gens", "T, -T, 1-T", "--b", "1, 1", "--rhs", str(rhs), "--m", "1"]
    assert run_cli(argv, stdout=out, stderr=err) == 1
    assert out.getvalue() == "" and "internal check failed" in err.getvalue()


@pytest.mark.parametrize("n, verdicts", ((1, 1), (3, 3), (8, 8), (9, 8)))
def test_retests_cover_each_distinct_scaling_once(F3, n, verdicts, monkeypatch):
    # the k-th re-test scales b*r by a rotation of the n generator powers, so
    # scaling k + n repeats scaling k: min(n, 8) re-tests cover all 8 scalings
    import ffunits.solver

    calls = []
    original = ffunits.solver.independence_verdict

    def counted(rows):
        calls.append(rows)
        return original(rows)

    monkeypatch.setattr(ffunits.solver, "independence_verdict", counted)
    group = build_presentation(tuple(el(F3, f"T^{i}") for i in range(1, n + 1)))
    report = decide(Equation((RatFunc.one(F3), RatFunc.one(F3)), 0), group, 1)
    assert report.outcome == "inapplicable"
    assert len(calls) == verdicts


def test_retests_of_a_rational_generator_keep_the_denominators(F2, monkeypatch):
    # scaling by g**(p**m) would multiply the denominators by
    # den(g)**(p**m), which subfield_coordinates raises to the power
    # p**m - 1: the re-tests of this instance would run for 15-19 s; the
    # alarm turns such a run into a failure
    import signal

    import ffunits.solver

    scaled = []
    original = ffunits.solver.coordinate_matrix

    def recorded(b, m):
        scaled.append(b)
        return original(b, m)

    def hang(signum, frame):
        raise TimeoutError("the re-tests did not end")

    monkeypatch.setattr(ffunits.solver, "coordinate_matrix", recorded)
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        gens = "T^3/(T^2+T+1)^5"
        eq = Equation((RatFunc.one(F2), RatFunc.one(F2)), 0)
        report = decide(eq, build_presentation((el(F2, gens),)), 8)
        argv = ["solve", "--p", "2", "--gens", gens, "--b", "1, 1", "--m", "8", "--rhs", "0"]
        assert run_cli(argv, stdout=io.StringIO(), stderr=io.StringIO()) == 2
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert report.outcome == "inapplicable" and scaled
    br = [b * r for b, r in zip(eq.b, report.failure.r)]
    for vector in scaled:
        for x, y in zip(vector, br):
            assert (y.den % x.den).is_zero


def test_candidate_that_misses_the_right_hand_side_is_an_internal_fault(monkeypatch):
    # the candidate is read off a relation with weight 1 on the row of 1, so
    # b . x = 1 holds by construction; a corrupted candidate must stop the
    # run, not be dropped from a certified solution set
    import ffunits.solver

    verdicts = ffunits.solver.unit_substitution_verdicts

    def corrupted(b, m, rows, cert=None):
        cert, psi_certs, c = verdicts(b, m, rows, cert)
        if c is not None:
            c = (c[0] * RatFunc.t(b[0].field) ** b[0].field.p**m, *c[1:])
        return cert, psi_certs, c

    path = os.path.join(os.path.dirname(__file__), "..", "instances", "p2-certified.toy")
    argv = ["solve", "--instance", path]
    out = io.StringIO()
    assert run_cli(argv, stdout=out, stderr=io.StringIO()) == 0
    assert len(json.loads(out.getvalue())["solutions"]) == 2
    monkeypatch.setattr(ffunits.solver, "unit_substitution_verdicts", corrupted)
    out, err = io.StringIO(), io.StringIO()
    assert run_cli(argv, stdout=out, stderr=err) == 1
    assert out.getvalue() == "" and "internal check failed" in err.getvalue()


def test_single_term_equations(F2):
    group = build_presentation((el(F2, "1+T"),))
    # 1/b is a member: the unique solution is found
    eq = Equation((el(F2, "1/(1+T)"),), 1)
    report = decide(eq, group, 1)
    assert report.outcome == "certified-solutions"
    assert {s.coords for s in report.solutions} == {(el(F2, "1+T"),)}
    # 1/b is not a member: certified-solutions with the empty set
    eq = Equation((RatFunc.t(F2),), 1)
    report = decide(eq, group, 1)
    assert report.outcome == "certified-solutions"
    assert report.solutions == ()
    # homogeneous single-term equations are always certified empty
    eq = Equation((RatFunc.t(F2),), 0)
    assert decide(eq, group, 1).outcome == "certified-empty"


def test_auto_m(worked, F2, F3):
    group, eq0, _ = worked
    report = auto_m(eq0, group, 2)
    assert report.outcome == "certified-empty" and report.m == 1

    g3 = build_presentation((el(F3, "T"), el(F3, "-T"), el(F3, "1-T")))
    eq = Equation((RatFunc.one(F3), RatFunc.one(F3)), 0)
    report = auto_m(eq, g3, 3)
    assert report.outcome == "inapplicable"
    assert [m for m, _ in report.auto_failures] == [1, 2, 3]
    for _, failure in report.auto_failures:
        assert failure.r == (RatFunc.one(F3), RatFunc.one(F3))

    with pytest.raises(ValueError):
        auto_m(eq0, group, 0)


def test_decide_dispatch(worked):
    group, eq0, eq1 = worked
    assert decide(eq0, group, 1).outcome == "certified-empty"
    assert decide(eq1, group, 1).outcome == "certified-solutions"


def test_solution_equivariance(worked, F2):
    group, _, eq1 = worked
    gamma = (el(F2, "1+T"), el(F2, "(1+T)^-1"))
    scaled = Equation(tuple(b * g for b, g in zip(eq1.b, gamma)), 1)
    base = decide(eq1, group, 1)
    other = decide(scaled, group, 1)
    assert other.outcome == "certified-solutions"
    expected = {tuple(x / g for x, g in zip(s.coords, gamma)) for s in base.solutions}
    assert {s.coords for s in other.solutions} == expected


def test_certified_empty_matches_brute_force(worked):
    group, eq0, _ = worked
    assert decide(eq0, group, 1).outcome == "certified-empty"
    assert sg_search(eq0, group, 6) == ()


def test_certified_solutions_match_brute_force(worked):
    group, _, eq1 = worked
    report = decide(eq1, group, 1)
    brute = sg_search(eq1, group, 8)
    assert {s.coords for s in report.solutions} == {s.coords for s in brute}


def test_random_instances_against_brute_force(F2, F3):
    rng = random.Random(109)
    checked_empty = checked_solutions = 0
    for _ in range(40):
        field = rng.choice((F2, F3))
        gens = tuple(rand_ratfunc(rng, field, 2, True) for _ in range(rng.choice((1, 2))))
        try:
            group = build_presentation(gens)
        except ValueError:
            continue
        b = tuple(rand_ratfunc(rng, field, 2, True) for _ in range(2))
        for rhs in (0, 1):
            eq = Equation(b, rhs)
            report = decide(eq, group, 1)
            if report.outcome == "inapplicable":
                continue
            brute = sg_search(eq, group, 4)
            if rhs == 0:
                assert report.outcome == "certified-empty"
                assert brute == ()
                checked_empty += 1
            else:
                got = {s.coords for s in report.solutions}
                assert {s.coords for s in brute} <= got
                # every certified point is an exact member solution
                for s in report.solutions:
                    acc = RatFunc.zero(field)
                    for bb, x in zip(eq.b, s.coords):
                        acc = acc + bb * x
                    assert acc.is_one
                    assert all(member(x, group) is not None for x in s.coords)
                assert len(got) <= report.bound
                checked_solutions += 1
    assert checked_empty > 3 and checked_solutions > 3


def test_phi_psi_translation_on_solutions(F3):
    # two-term homogeneous solutions correspond to rhs-1 solutions of the
    # pivot-divided equation through x -> (x_j / x_i)
    group = build_presentation((el(F3, "T"), el(F3, "-T"), el(F3, "1-T")))
    eq = Equation((RatFunc.one(F3), RatFunc.one(F3)), 0)
    sols = sg_search(eq, group, 2)
    assert sols
    for i in (1, 2):
        eq_phi = Equation(phi(i, eq.b), 1)
        for s in sols:
            pivot = s.coords[i - 1]
            image = tuple(x / pivot for k, x in enumerate(s.coords) if k != i - 1)
            acc = RatFunc.zero(F3)
            for bb, x in zip(eq_phi.b, image):
                acc = acc + bb * x
            assert acc.is_one
            assert all(member(x, group) is not None for x in image)


def test_m2_shortcut_examples(F2):
    g1 = build_presentation((el(F2, "1+T"),))
    sc = m2_shortcut((RatFunc.t(F2), RatFunc.one(F2)), g1)
    assert sc.homogeneous_hypothesis_implied
    assert sc.inhomogeneous_hypothesis_implied

    g2 = build_presentation((el(F2, "T"), el(F2, "1+T")))
    sc = m2_shortcut((el(F2, "T"), el(F2, "1+T")), g2)
    assert not sc.homogeneous_hypothesis_implied
    assert not sc.inhomogeneous_hypothesis_implied

    sc = m2_shortcut((RatFunc.one(F2), RatFunc.one(F2)), g1)
    assert not sc.homogeneous_hypothesis_implied

    with pytest.raises(ValueError):
        m2_shortcut((RatFunc.one(F2),), g1)


def test_extension_field_instance():
    from ffunits import GF, sg_search

    f4 = GF(2, 2, (1, 1, 1))
    t, one = RatFunc.t(f4), RatFunc.one(f4)
    gen = t + RatFunc.constant(f4, 2)  # T + a with a generating F_4*
    group = build_presentation((gen,))
    for rhs in (0, 1):
        eq = Equation((t, one), rhs)
        report = decide(eq, group, 1)
        assert report.outcome in ("certified-empty", "certified-solutions")
        brute = {s.coords for s in sg_search(eq, group, 6)}
        certified = {s.coords for s in (report.solutions or ())}
        assert certified == brute


def test_verbose_collects_all_records(F3):
    group = build_presentation((el(F3, "T"), el(F3, "-T"), el(F3, "1-T")))
    eq = Equation((RatFunc.one(F3), RatFunc.one(F3)), 0)
    short = decide(eq, group, 1)
    full = decide(eq, group, 1, exhaustive=True)
    assert len(short.records) == 1  # stops at the first failing tuple
    assert len(full.records) == 81
    assert full.outcome == short.outcome == "inapplicable"
    assert full.failure.r == short.failure.r


def _lemma_cases():
    """Seeded rhs-1 equations over GF(2), GF(3), GF(4) and GF(9).

    GF(2) with M = 3 and m = 1 has more components than the subfield
    degree, so every b*r is dependent there; equations with b_1 = 1 give
    tuples whose (b*r, 1) relation has a zero weight.
    """
    f4 = GF(2, 2, (1, 1, 1))  # T^2 + T + 1
    f9 = GF(3, 2, (1, 0, 1))  # T^2 + 1
    rng = random.Random(2011)
    for field, arity, m in (
        (GF(2), 2, 1), (GF(2), 3, 1), (GF(2), 2, 2), (GF(2), 3, 2),
        (GF(3), 2, 1), (GF(3), 3, 1), (GF(3), 2, 2),
        (f4, 2, 1), (f4, 3, 1), (f4, 2, 2),
        (f9, 2, 1), (f9, 3, 1), (f9, 2, 2),
    ):
        for unit_first in (False, True):
            gens = (rand_ratfunc(rng, field, 2, True),)
            try:
                group = build_presentation(gens)
            except ValueError:
                continue
            b = [rand_ratfunc(rng, field, 2, True) for _ in range(arity)]
            if unit_first:
                b[0] = RatFunc.one(field)
            yield Equation(tuple(b), 1), group, m


def test_one_elimination_matches_separate_tests():
    # every verdict, relation and candidate of the tuple loop (b*r's own
    # test, then one elimination for all unit substitutions, or one per
    # psi_j when b*r is dependent) equals what the separate routes give
    fallback = zero_weight = lemma = 0
    for eq, group, m in _lemma_cases():
        report = decide(eq, group, m, exhaustive=True)
        for rec in report.records:
            br = tuple(x * y for x, y in zip(eq.b, rec.r))
            psi_certs = tuple(independence_test(psi(j, br), m) for j in range(1, eq.arity + 1))
            assert rec.psi_certificates == psi_certs
            if rec.certificate is None:
                assert not any(c.independent for c in psi_certs)
                fallback += 1
                continue
            cert = independence_test(br, m)
            assert rec.certificate == cert
            if not cert.independent:
                fallback += 1
                assert rec.candidate is None
                continue
            lemma += 1
            zero_weight += not all(c.independent for c in psi_certs)
            if all(c.independent for c in psi_certs):
                assert rec.candidate == candidate_solution(br, m)
            else:
                assert rec.candidate is None
    assert fallback > 20 and lemma > 100 and zero_weight > 5


def test_coordinate_rows_are_built_once_per_component_and_representative(F2, monkeypatch):
    import ffunits.solver
    import ffunits.wronskian

    calls = []
    for module in (ffunits.solver, ffunits.wronskian):
        original = module.subfield_coordinates

        def counted(x, m, original=original):
            calls.append(x)
            return original(x, m)

        monkeypatch.setattr(module, "subfield_coordinates", counted)
    group = build_presentation((el(F2, "1+T"), el(F2, "1+T+T^2")))
    b = (RatFunc.t(F2), RatFunc.one(F2))
    m = 2
    report = decide(Equation(b, 1), group, m)
    assert report.outcome == "certified-solutions"
    assert len(report.records) == report.repset_size ** 2
    assert len(calls) <= 2 * report.repset_size + 1
    calls.clear()
    report = decide(Equation(b, 0), group, m)
    assert report.outcome == "certified-empty"
    assert len(calls) <= 2 * report.repset_size


def test_representatives_are_multiplied_out_when_a_tuple_reads_them(F2, monkeypatch):
    from ffunits.unitgroup import SubgroupPresentation

    calls = []
    original = SubgroupPresentation.word_product

    def counted(self, word):
        calls.append(word)
        return original(self, word)

    monkeypatch.setattr(SubgroupPresentation, "word_product", counted)
    group = build_presentation((el(F2, "1+T"), el(F2, "1+T+T^2")))
    t = RatFunc.t(F2)
    report = decide(Equation((t, t), 0), group, 3)
    assert report.outcome == "inapplicable" and len(report.records) == 1
    assert report.repset_size >= 64
    assert len(calls) <= 2
    calls.clear()
    report = decide(Equation((t, RatFunc.one(F2)), 0), group, 2)
    assert report.outcome == "certified-empty"
    assert len(calls) <= report.repset_size


def _orbit_cases():
    """Seeded equations over GF(2), GF(3), GF(4) and GF(9) with M in {2, 3}.

    A planted b_2 = b_1 * g with g in the group makes b*r dependent on the
    orbits with r_2 / r_1 in g**-1 * K_m, and independent elsewhere.
    """
    f4 = GF(2, 2, (1, 1, 1))  # T^2 + T + 1
    f9 = GF(3, 2, (1, 0, 1))  # T^2 + 1
    rng = random.Random(4099)
    for field, arity, m in (
        (GF(2), 2, 1), (GF(2), 2, 2), (GF(2), 3, 2),
        (GF(3), 2, 1), (GF(3), 3, 1),
        (f4, 2, 1), (f4, 3, 1),
        (f9, 2, 1), (f9, 3, 1),
    ):
        for planted in (False, True):
            gens = (rand_ratfunc(rng, field, 2, True),)
            try:
                group = build_presentation(gens)
            except ValueError:
                continue
            b = [rand_ratfunc(rng, field, 2, True) for _ in range(arity)]
            if planted:
                b[1] = b[0] * group.word_product((rng.randrange(1, 3),))
            yield tuple(b), group, m


def _per_tuple_records(eq, group, m):
    """(words, certificate, psi certificates, candidate) of every tuple, each
    tuple decided on its own with no rows, memo or orbit shared.
    """
    out = []
    for words in itertools.product(representatives(group, m), repeat=eq.arity):
        br = tuple(x * group.word_product(w) for x, w in zip(eq.b, words))
        cert = independence_test(br, m)
        if eq.rhs == 0:
            out.append((words, cert, None, None))
            continue
        psi_certs = tuple(independence_test(psi(j, br), m) for j in range(1, eq.arity + 1))
        if not any(c.independent for c in psi_certs):
            cert = None
        candidate = candidate_solution(br, m) if cert is not None and cert.independent else None
        out.append((words, cert, psi_certs, candidate))
    return out


def test_orbit_memo_matches_per_tuple_decisions():
    # every record of an exhaustive decide equals the per-tuple reference,
    # whether its certificate came from its own elimination or from its
    # orbit, and every certificate checks against its own vector
    independent = dependent = 0
    for b, group, m in _orbit_cases():
        for rhs in (0, 1):
            eq = Equation(b, rhs)
            report = decide(eq, group, m, exhaustive=True)
            got = [
                (rec.r_words, rec.certificate, rec.psi_certificates, rec.candidate)
                for rec in report.records
            ]
            assert got == _per_tuple_records(eq, group, m)
            for rec in report.records:
                br = tuple(x * y for x, y in zip(b, rec.r))
                if rec.certificate is not None:
                    assert verify_certificate(br, m, rec.certificate)
                    independent += rec.certificate.independent
                    dependent += not rec.certificate.independent
                for j, c in enumerate(rec.psi_certificates or (), start=1):
                    assert verify_certificate(psi(j, br), m, c)
    assert independent > 300 and dependent > 50


@pytest.mark.parametrize(
    "p, gens, b, m",
    (
        (2, "1+T, 1+T+T^2", "T, 1", 2),
        (3, "T + 2", "2*T + 2, T^2 + T, 2*T^3 + 2*T^2", 1),
    ),
    ids=("p2-M2", "p3-M3"),
)
def test_certified_rhs0_tests_one_tuple_per_orbit(p, gens, b, m, monkeypatch):
    import ffunits.solver

    calls = []
    original = ffunits.solver.independence_test

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(ffunits.solver, "independence_test", counted)
    field = GF(p)
    group = build_presentation(tuple(el(field, g) for g in gens.split(", ")))
    eq = Equation(tuple(el(field, x) for x in b.split(", ")), 0)
    report = decide(eq, group, m)
    assert report.outcome == "certified-empty"
    assert len(report.records) == report.repset_size**eq.arity >= 27
    assert 0 < len(calls) <= report.repset_size ** (eq.arity - 1)

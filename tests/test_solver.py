import io
import random

import pytest

from ffunits import (
    GF,
    Equation,
    IndependenceCertificate,
    RatFunc,
    auto_m,
    build_presentation,
    candidate_solution,
    decide,
    independence_test,
    m2_shortcut,
    member,
    phi,
    psi,
    with_unit_rhs,
)
from ffunits.cli import run_cli
from ffunits.errors import InternalCheckError
from ffunits.localprobe import sg_search
from ffunits.solver import MAX_DEPENDENCE_RETRIES
from ffunits.wronskian import verify_certificate

from conftest import el, rand_ratfunc


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


def test_with_unit_rhs(F2):
    t = RatFunc.t(F2)
    eq = with_unit_rhs((t, RatFunc.one(F2)), t)
    assert eq.rhs == 1
    assert eq.b == (RatFunc.one(F2), t.inverse())


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
    assert report.failure.retries == 8
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
    assert report.failure.reason == "all-unit-substitutions-dependent"
    assert report.failure.retries == MAX_DEPENDENCE_RETRIES
    assert all(not c.independent for c in report.failure.psi_certificates)


@pytest.mark.parametrize("rhs", (0, 1))
def test_retest_that_disagrees_is_an_internal_fault(F3, rhs, monkeypatch):
    # the scaled re-test of the first failing tuple is the only caller of
    # solver.independence_test without rows; make it answer independent
    import ffunits.solver

    original = ffunits.solver.independence_test

    def disagreeing(b, m, rows=None):
        if rows is None:
            return IndependenceCertificate(True, None, None)
        return original(b, m, rows=rows)

    group = build_presentation((el(F3, "T"), el(F3, "-T"), el(F3, "1-T")))
    eq = Equation((RatFunc.one(F3), RatFunc.one(F3)), rhs)
    assert decide(eq, group, 1).outcome == "inapplicable"
    monkeypatch.setattr(ffunits.solver, "independence_test", disagreeing)
    with pytest.raises(InternalCheckError, match="dependence verdict changed"):
        decide(eq, group, 1)
    out, err = io.StringIO(), io.StringIO()
    argv = ["solve", "--p", "3", "--gens", "T, -T, 1-T", "--b", "1, 1", "--rhs", str(rhs), "--m", "1"]
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
                    assert all(member(x, group).member for x in s.coords)
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
            assert all(member(x, group).member for x in image)


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

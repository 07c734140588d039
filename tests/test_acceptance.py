"""Acceptance suite: one test per criterion, exact tolerances, one line each.

Run `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import io
import json
import math
import os
import random
import time

import pytest

from ffunits import (
    Equation,
    Modulus,
    RatFunc,
    auto_m,
    build_presentation,
    closure_probe,
    decide,
    find_local_obstruction,
    poly_powmod,
    representatives,
    residue_group,
    sg_search,
    taylor_jet,
)
from ffunits.cli import run_cli
from ffunits.hasse import binom_mod, hasse_derivative
from ffunits.localprobe import verify_obstruction
from ffunits.unitgroup import residue_key
from ffunits.wronskian import (
    candidate_solution,
    coordinate_matrix,
    independence_test,
    verify_certificate,
)

from conftest import (
    coordinate_fractions,
    el,
    kernel_element_check,
    pl,
    rand_ratfunc,
    reduce_mod,
    sympy_matrix,
)


def _report(n, detail):
    print(f"\n[acceptance] criterion {n}: PASS  ({detail})")


@pytest.fixture(scope="module")
def worked(F2):
    group = build_presentation((el(F2, "1+T"),))
    b = (RatFunc.t(F2), RatFunc.one(F2))
    return group, b


@pytest.fixture(scope="module")
def gap(F3):
    group = build_presentation((el(F3, "T"), el(F3, "-T"), el(F3, "1-T")))
    b = (RatFunc.one(F3), RatFunc.one(F3))
    return group, b


def test_criterion_1_worked_certified_instance(worked, F2):
    group, b = worked
    start = time.perf_counter()

    rep0 = auto_m(Equation(b, 0), group, 2)
    assert rep0.outcome == "certified-empty" and rep0.m == 1
    assert len(rep0.records) == 4
    assert all(r.certificate.independent for r in rep0.records)

    rep1 = auto_m(Equation(b, 1), group, 2)
    assert rep1.outcome == "certified-solutions" and rep1.m == 1
    assert rep1.bound == 2
    expected = {
        (RatFunc.one(F2), el(F2, "1+T")),
        (el(F2, "1/(1+T)"), el(F2, "1/(1+T)")),
    }
    assert {s.coords for s in rep1.solutions} == expected

    brute1 = {s.coords for s in sg_search(Equation(b, 1), group, 8)}
    brute0 = {s.coords for s in sg_search(Equation(b, 0), group, 8)}
    assert brute1 == expected and brute0 == set()

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"certified-empty + 2 exact solutions, brute force agrees, {elapsed * 1000:.0f} ms")


def test_criterion_2_local_global_witness(worked, F2):
    group, b = worked
    eq = Equation(b, 0)
    start = time.perf_counter()

    witness = find_local_obstruction(eq, group, 2, 2)
    assert witness is not None
    assert witness.modulus == Modulus(pl(F2, "T^2+T+1"), 2)

    rg = residue_group(group, witness.modulus)
    assert len(rg) == 6
    assert pl(F2, "T") not in rg

    # exhaustive 36-pair recheck
    checked = 0
    modpoly = witness.modulus.poly
    b_res = [reduce_mod(x, witness.modulus) for x in b]
    for x1 in rg:
        for x2 in rg:
            acc = (b_res[0] * x1 + b_res[1] * x2) % modpoly
            assert not acc.is_zero
            checked += 1
    assert checked == 36
    assert verify_obstruction(witness, eq, group)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, f"witness (T^2+T+1)^2, 6-element group, 36 pairs rechecked, {elapsed * 1000:.0f} ms")


def test_criterion_3_failing_instance(gap, F3):
    group, b = gap
    ones = (RatFunc.one(F3), RatFunc.one(F3))

    outcomes = []
    for m in (1, 2, 3):
        report = decide(Equation(b, 0), group, m)
        outcomes.append(report.outcome)
        assert report.failure.r == ones
    assert outcomes == ["inapplicable"] * 3
    rep1 = auto_m(Equation(b, 1), group, 3)
    assert rep1.outcome == "inapplicable" and rep1.failure.r == ones

    sols0 = {s.coords for s in sg_search(Equation(b, 0), group, 2)}
    sols1 = {s.coords for s in sg_search(Equation(b, 1), group, 2)}
    assert (el(F3, "T"), el(F3, "-T")) in sols0
    assert (el(F3, "T"), el(F3, "1-T")) in sols1

    assert find_local_obstruction(Equation(b, 0), group, 3, 2) is None

    _report(3, "inapplicable at m=1..3 with r=(1,1); exact solutions exist; no obstruction up to (3,2)")


def test_criterion_4_representative_finiteness(worked, gap, F2, F3):
    import itertools

    g2, _ = worked
    g3, _ = gap
    assert len(representatives(g2, 1)) == 2
    assert len(representatives(g3, 1)) == 9

    for group, p in ((g2, 2), (g3, 3)):
        rank = len(group.support)
        for m in (1, 2):
            size = len(representatives(group, m))
            exponent = round(math.log(size, p))
            assert p**exponent == size
            assert exponent <= m * rank

    # completeness on words in [-2, 2]
    for group in (g2, g3):
        reps = representatives(group, 1)
        keys = [residue_key(group, w, 1) for w in reps]
        for word in itertools.product(range(-2, 3), repeat=len(group.generators)):
            key = residue_key(group, word, 1)
            assert keys.count(key) == 1
            quotient = group.word_product(word) / group.word_product(reps[keys.index(key)])
            assert kernel_element_check(quotient, group, 1)

    _report(4, "|R_1| = 2 and 9; sizes are p-powers within rank bound; completeness on [-2,2] words")


def _leibniz_case(rng, field):
    x = rand_ratfunc(rng, field, 6)
    y = rand_ratfunc(rng, field, 6)
    jx = taylor_jet(x, 8)
    jy = taylor_jet(y, 8)
    jxy = taylor_jet(x * y, 8)
    for i in range(9):
        acc = RatFunc.zero(field)
        for j in range(i + 1):
            acc = acc + jx[j] * jy[i - j]
        if acc != jxy[i]:
            return False
    return True


def _iterativity_case(rng, field):
    x = rand_ratfunc(rng, field, 5)
    i, j = rng.randrange(5), rng.randrange(4)
    lhs = hasse_derivative(hasse_derivative(x, j), i)
    rhs = hasse_derivative(x, i + j) * RatFunc.constant(field, binom_mod(i + j, i, field.p))
    return lhs == rhs


def _additivity_case(rng, field):
    x = rand_ratfunc(rng, field, 6)
    y = rand_ratfunc(rng, field, 6)
    i = rng.randrange(9)
    return hasse_derivative(x + y, i) == hasse_derivative(x, i) + hasse_derivative(y, i)


def _linearity_case(rng, field, m):
    pm = field.p**m
    a = rand_ratfunc(rng, field, 2, nonzero=True) ** pm
    x = rand_ratfunc(rng, field, 4)
    return all(hasse_derivative(a * x, i) == a * hasse_derivative(x, i) for i in range(pm))


def test_criterion_5_derivation_properties(F2, F3):
    configs = ((F2, 1), (F2, 2), (F3, 1))
    cases_per_config = 35  # >= 100 per property over the three configs
    counts = {}
    for name, case in (
        ("leibniz", lambda rng, f, m: _leibniz_case(rng, f)),
        ("iterativity", lambda rng, f, m: _iterativity_case(rng, f)),
        ("additivity", lambda rng, f, m: _additivity_case(rng, f)),
        ("linearity", _linearity_case),
    ):
        rng = random.Random(2024)
        total = failures = 0
        for field, m in configs:
            for _ in range(cases_per_config):
                total += 1
                if not case(rng, field, m):
                    failures += 1
        assert failures == 0, f"{name}: {failures} failures"
        assert total >= 100
        counts[name] = total
    _report(5, "; ".join(f"{k}: {v} cases, 0 failures" for k, v in counts.items()))


def test_criterion_6_wronskian_oracle_equivalence(F2, F3):
    rng = random.Random(4096)
    produced = 0
    for _ in range(200):
        field = rng.choice((F2, F3))
        m = rng.choice((1, 2))
        M = rng.choice((2, 3))
        b = tuple(rand_ratfunc(rng, field, 4, True) for _ in range(M))
        cert = independence_test(b, m)
        rank = sympy_matrix(coordinate_fractions(coordinate_matrix(b, m))).rank()
        assert cert.independent == (rank == M)
        assert verify_certificate(b, m, cert)
        if cert.independent:
            c = candidate_solution(b, m)
            if c is not None:
                produced += 1
                acc = RatFunc.zero(field)
                for x, y in zip(b, c):
                    acc = acc + x * y
                assert acc.is_one
    _report(6, f"200 vectors agree with the rank oracle; {produced} candidates all satisfy b.c = 1")


def test_criterion_7_closure_probe(F3):
    t = RatFunc.t(F3)
    details = []
    for base, e in ((pl(F3, "T+1"), 1), (pl(F3, "T+1"), 2), (pl(F3, "T^2+1"), 1)):
        m = Modulus(base, e)
        report = closure_probe(t, base, e, 6)
        assert report.settled
        assert report.stable_index <= 3
        d = base.degree()
        order = (3**d - 1) * 3 ** (d * (e - 1))
        exp = pow(3, math.factorial(6), order)
        assert poly_powmod(reduce_mod(t, m), exp, m.poly) == report.stable_value
        details.append(f"n0={report.stable_index}")
    _report(7, f"stabilization indices {', '.join(details)}, values match direct powmod")


def _battery_commands(instance_dir):
    return [
        ["solve", "--instance", f"{instance_dir}/p2-certified.toy"],
        ["solve", "--instance", f"{instance_dir}/p2-certified.toy", "--rhs", "0"],
        ["solve", "--instance", f"{instance_dir}/p3-closure-gap.toy"],
        ["solve", "--instance", f"{instance_dir}/p3-closure-gap.toy", "--m", "1", "--verbose"],
        ["skolem", "--instance", f"{instance_dir}/p2-certified.toy", "--rhs", "0",
         "--deg-bound", "2", "--e-bound", "2"],
        ["skolem", "--instance", f"{instance_dir}/p3-closure-gap.toy",
         "--deg-bound", "3", "--e-bound", "2"],
        ["probe", "--p", "3", "--g", "T", "--base", "T^2+1", "--n-max", "6"],
        ["repset", "--p", "3", "--gens", "T, -T, 1-T", "--m", "2"],
        ["factor", "--p", "3", "--poly", "T^6+2*T^3+T"],
        ["indep", "--b", "T, 1+T", "--m", "2", "--p", "2"],
    ]


def _run_report_battery(instance_dir):
    chunks = []
    for argv in _battery_commands(instance_dir):
        out = io.StringIO()
        run_cli(argv, stdout=out, stderr=io.StringIO())
        chunks.append(out.getvalue())
    return "".join(chunks)


# sha256 of the report battery; a change that alters reports on purpose
# updates it and says why
REPORT_BATTERY_SHA256 = "231158441d93956e6f6f98b89ed2f59d6da87deeb3f98923774e4a79cc593a3b"


def test_criterion_8_determinism():
    import hashlib

    instance_dir = os.path.join(os.path.dirname(__file__), "..", "instances")
    first = _run_report_battery(instance_dir)
    second = _run_report_battery(instance_dir)
    assert first and first == second
    assert hashlib.sha256(first.encode()).hexdigest() == REPORT_BATTERY_SHA256
    _report(8, f"two full report batteries are byte-identical ({len(first)} bytes)")


# sha256 of the run_cli output of solves with many tuples per orbit, pinned
# before an orbit shared one certificate among its tuples: 256 tuples for
# each rhs, 81 tuples of which 9 dependent (each printed by --verbose with
# its own relation), and 27 tuples with M = 3.  The extension-field solves
# were pinned while the elimination kernel still stripped each row's
# content: over GF(9), 81 tuples for each rhs; over GF(4), 256 for each rhs;
# and one --verbose solve over each, with 9 and 4 dependent relations.
# Two rhs-1 solves over prime fields were pinned while membership still
# factored every candidate: their candidates are members, strays and (over
# F_3) constant mismatches
_PAIR = ("solve", "--p", "2", "--gens", "1+T, 1+T+T^2", "--b", "T, 1", "--m", "2")
_GF9 = ("solve", "--p", "3", "--s", "2", "--modulus", "T^2+1")
_GF4 = ("solve", "--p", "2", "--s", "2", "--modulus", "T^2+T+1")
_GF9_PAIR = (*_GF9, "--gens", "T+1, T^2+T+2", "--b", "T, 1", "--m", "1")
_GF4_PAIR = (*_GF4, "--gens", "T+1, T^2+T+2", "--b", "T, 1", "--m", "2")
ORBIT_REPORTS = (
    ((*_PAIR, "--rhs", "0"), 0,
     "acdea19308abaf52e256bb0e0881447e92e352ba410c5de6f61137a53dddce98"),
    ((*_PAIR, "--rhs", "1"), 0,
     "f6e740030b9f0e6bf322ccf1e39e4fbaa612c0f5824c7a5d8a2c4b3ff6d38b80"),
    (("solve", "--p", "3", "--gens", "T, -T, 1-T", "--b", "1, 1", "--m", "1", "--verbose"), 2,
     "7a1b92ee2bd5cf2ff5d4b7595d98134086fe6447e14c25e1a896bfcbe5c4b1a3"),
    (("solve", "--p", "3", "--s", "1", "--gens", "T + 2",
      "--b", "2*T + 2, T^2 + T, 2*T^3 + 2*T^2", "--rhs", "0", "--m", "1"), 0,
     "82700ec3871fc0b3b5ab9b96740f1f70f23f7b40bc4186db6f6717c70a1fe432"),
    ((*_GF9_PAIR, "--rhs", "0"), 0,
     "0555769f68a3e136d2d11c47c8701c58e19142da5c5ba5d14d9d40f46f2ea27a"),
    ((*_GF9_PAIR, "--rhs", "1"), 0,
     "dd5fda5e0d202cf946bc7e3d5245f3d66ae9be482e591179abccf22d23cb15a0"),
    ((*_GF4_PAIR, "--rhs", "0"), 0,
     "0c7203b00ade77fc179e5eeedd2d60e24e2b0f0ee55b7e49757d0a8d82d77036"),
    ((*_GF4_PAIR, "--rhs", "1"), 0,
     "4e09ec449a800dad5e3a0a79ffabe173b40ac563b764584da5bb161ff74e27c6"),
    ((*_GF9, "--gens", "T, T+1", "--b", "1, 1", "--m", "1", "--verbose"), 2,
     "b5bb9b19e83f80002d7c94b2b1decd27a59d8ed66e3fdf43926db57fee0bbef0"),
    ((*_GF4, "--gens", "T, T+1", "--b", "1, 1", "--m", "1", "--verbose"), 2,
     "5ecfe56f3d0a3a11c6967c3d8a760d80ffbae8b386dfb0c669c4fa21fa2e47f9"),
    (("solve", "--p", "3", "--gens", "T+1, T^2+1", "--b", "T, 2", "--m", "1", "--rhs", "1"), 0,
     "d4332b90008af8e2ea43b738401a9c02172c2422a8572a501fa7f567b5ed5b3c"),
    (("solve", "--p", "2", "--gens", "1+T, 1+T+T^2", "--b", "T^2, 1+T", "--m", "2", "--rhs", "1"), 0,
     "455bca46740b3fd2fbfd9e01e6a16941c5cbcdc8bc335c276f3ea14d863aa8f9"),
)


@pytest.mark.parametrize(
    "argv, code, digest", ORBIT_REPORTS, ids=(
        "p2-rhs0", "p2-rhs1", "p3-verbose", "p3-M3",
        "gf9-rhs0", "gf9-rhs1", "gf4-rhs0", "gf4-rhs1", "gf9-verbose", "gf4-verbose",
        "p3-members", "p2-members",
    ),
)
def test_orbit_heavy_reports_are_pinned(argv, code, digest):
    import hashlib

    out = io.StringIO()
    assert run_cli(list(argv), stdout=out, stderr=io.StringIO()) == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


# every subcommand's report against json itself, which shares no code with
# the report writer: the battery, both hasse shapes (which the pinned battery
# leaves out), a timed solve and an inapplicable --verbose solve
_INSTANCES = os.path.join(os.path.dirname(__file__), "..", "instances")
_ORACLE_COMMANDS = (
    *_battery_commands(_INSTANCES),
    ["hasse", "--p", "3", "--x", "T^2", "--order", "2"],
    ["hasse", "--p", "2", "--x", "1/(1+T)", "--i", "1"],
    ["solve", "--instance", f"{_INSTANCES}/p2-certified.toy", "--timing"],
    list(ORBIT_REPORTS[2][0]),
)


@pytest.mark.parametrize("argv", _ORACLE_COMMANDS, ids=(
    "solve-certified", "solve-certified-rhs0", "solve-gap", "solve-gap-verbose",
    "skolem-certified", "skolem-gap", "probe", "repset", "factor", "indep",
    "hasse-order", "hasse-i", "solve-timing", "solve-inapplicable-verbose",
))
def test_reports_match_json_dumps(argv):
    out, err = io.StringIO(), io.StringIO()
    assert run_cli(argv, stdout=out, stderr=err) in (0, 2), err.getvalue()
    text = out.getvalue()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_reports_are_streamed():
    # the 256-tuple rhs-1 solve, written one top-level value or one witness
    # entry at a time
    import hashlib

    argv, code, digest = ORBIT_REPORTS[1]
    writes = []

    class Recorder:
        write = writes.append

    assert run_cli(list(argv), stdout=Recorder(), stderr=io.StringIO()) == code
    text = "".join(writes)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert text.count('"r_words"') == 256
    assert max(map(len, writes)) < len(text) / 10
    assert all(w.count('"r_words"') <= 1 for w in writes)

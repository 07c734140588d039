import io
import itertools
import json
import math
import random

import pytest

from ffunits import (
    GF,
    Equation,
    Modulus,
    Poly,
    RatFunc,
    build_presentation,
    closure_probe,
    find_local_obstruction,
    member,
    poly_powmod,
    residue_group,
    sg_search,
    sl_search,
)
from ffunits import localprobe
from ffunits.errors import ResourceLimitError
from ffunits.cli import run_cli
from ffunits.localprobe import verify_obstruction
from ffunits.poly import monic_irreducibles
from ffunits.ratfunc import reduce_mod, valuation

from conftest import el, pl, rand_ratfunc


def test_residue_group_examples(F2, F3):
    g2 = build_presentation((el(F2, "1+T"),))
    rg = residue_group(g2, Modulus(pl(F2, "T^2+T+1"), 1))
    assert len(rg) == 3  # 1+T has order 3 in the 4-element field

    m2 = Modulus(pl(F2, "T^2+T+1"), 2)
    rg = residue_group(g2, m2)
    # oracle: the successive powers of 1+T modulo (T^2+T+1)^2
    powers = {Poly.one(F2)}
    acc = Poly.one(F2)
    for _ in range(5):
        acc = (acc * pl(F2, "1+T")) % m2.poly
        powers.add(acc)
    expected = {
        pl(F2, "1"),
        pl(F2, "1+T"),
        pl(F2, "1+T^2"),
        pl(F2, "1+T+T^2+T^3"),
        pl(F2, "T^2"),
        pl(F2, "T^2+T^3"),
    }
    assert powers == expected
    assert set(rg.elements) == expected
    assert pl(F2, "T") not in rg.elements
    for res, word in zip(rg.elements, rg.words):
        assert reduce_mod(g2.word_product(word), m2) == res

    g3 = build_presentation((el(F3, "T"),))
    rg = residue_group(g3, Modulus(pl(F3, "T+1"), 1))
    assert set(rg.elements) == {pl(F3, "1"), pl(F3, "2")}


def _residue_image_with_inverses(group, m):
    """Reference image: close {1} under the reduced generators and their inverses."""
    steps = [reduce_mod(h, m) for g in group.generators for h in (g, g.inverse())]
    image = [Poly.one(group.field)]
    seen = set(image)
    for cur in image:
        for step in steps:
            nxt = (cur * step) % m.poly
            if nxt not in seen:
                seen.add(nxt)
                image.append(nxt)
    return seen


def test_residue_group_matches_search_with_inverses(F2, F3):
    rng = random.Random(113)
    F4, F9 = GF(2, 2, (1, 1, 1)), GF(3, 2, (1, 0, 1))
    checked = 0
    for field in (F2, F3, F4, F9):
        bases = list(monic_irreducibles(field, 1))[:2] + list(monic_irreducibles(field, 2))[:1]
        for base, e, n in itertools.product(bases, (1, 2), (1, 2, 3)):
            m = Modulus(base, e)
            gens = []
            while len(gens) < n:
                g = rand_ratfunc(rng, field, 2, nonzero=True)
                if valuation(g, m.place) == 0:
                    gens.append(g)
            group = build_presentation(gens)
            rg = residue_group(group, m)
            reference = _residue_image_with_inverses(group, m)
            assert set(rg.elements) == reference and len(rg) == len(reference)
            for res, word in zip(rg.elements, rg.words):
                assert len(word) == n and min(word) >= 0
                assert reduce_mod(group.word_product(word), m) == res
            checked += len(rg) > n + 1
    assert checked > 40  # most images are larger than their generator steps


def test_residue_group_rejects_bad_place(F2):
    g = build_presentation((el(F2, "1+T"),))
    with pytest.raises(ValueError):
        residue_group(g, Modulus(pl(F2, "T+1"), 1))  # generator vanishes there


def test_sl_search_examples(F2, F3):
    g2 = build_presentation((el(F2, "1+T"),))
    eq0 = Equation((RatFunc.t(F2), RatFunc.one(F2)), 0)
    m1 = Modulus(pl(F2, "T^2+T+1"), 1)
    witness = sl_search(eq0, g2, m1)
    assert witness is not None
    acc = Poly.zero(F2)
    for b, res in zip(eq0.b, witness.residues):
        acc = (acc + reduce_mod(b, m1) * res) % m1.poly
    assert acc.is_zero
    # the witness words reproduce the residues
    for res, word in zip(witness.residues, witness.words):
        assert reduce_mod(g2.word_product(word), m1) == res

    m2 = Modulus(pl(F2, "T^2+T+1"), 2)
    assert sl_search(eq0, g2, m2) is None

    g3 = build_presentation((el(F3, "T"), el(F3, "-T"), el(F3, "1-T")))
    eq = Equation((RatFunc.one(F3), RatFunc.one(F3)), 0)
    for base, e in ((pl(F3, "T+1"), 1), (pl(F3, "T^2+1"), 1), (pl(F3, "T+1"), 2)):
        assert sl_search(eq, g3, Modulus(base, e)) is not None


def test_find_local_obstruction(F2, F3):
    g2 = build_presentation((el(F2, "1+T"),))
    eq0 = Equation((RatFunc.t(F2), RatFunc.one(F2)), 0)
    witness = find_local_obstruction(eq0, g2, 2, 2)
    assert witness is not None
    assert witness.modulus == Modulus(pl(F2, "T^2+T+1"), 2)
    assert witness.group_size == 6
    assert verify_obstruction(witness, eq0, g2)

    g3 = build_presentation((el(F3, "T"), el(F3, "-T"), el(F3, "1-T")))
    eq = Equation((RatFunc.one(F3), RatFunc.one(F3)), 0)
    assert find_local_obstruction(eq, g3, 3, 2) is None

    # trivial group: over F_3 the congruence 1 + 1 = 0 fails at once
    gt = build_presentation((RatFunc.one(F3),))
    eq3 = Equation((RatFunc.one(F3), RatFunc.one(F3)), 0)
    w = find_local_obstruction(eq3, gt, 1, 1)
    assert w is not None and w.modulus == Modulus(pl(F3, "T"), 1)
    # over F_2 the same equation is solvable everywhere (1 + 1 = 0)
    gt2 = build_presentation((RatFunc.one(F2),))
    eq2 = Equation((RatFunc.one(F2), RatFunc.one(F2)), 0)
    assert find_local_obstruction(eq2, gt2, 1, 1) is None

    with pytest.raises(ValueError):
        find_local_obstruction(eq0, g2, 0, 1)


def _sorted_moduli(field, excluded, deg_bound, e_bound):
    """Reference scan order: every candidate listed, then sorted by (deg*e, deg, base, e)."""
    candidates = []
    for d in range(1, deg_bound + 1):
        for base in monic_irreducibles(field, d):
            if base not in excluded:
                for e in range(1, e_bound + 1):
                    candidates.append((d * e, d, base.sort_key(), e, base))
    candidates.sort(key=lambda c: c[:4])
    return [(base, e) for *_, e, base in candidates]


def test_modulus_walk_matches_sorted_candidates():
    for field in (GF(2), GF(3), GF(2, 2, (1, 1, 1)), GF(3, 2, (1, 0, 1))):
        excluded = {monic_irreducibles(field, 1)[-1], monic_irreducibles(field, 2)[0]}
        for deg_bound in (1, 2, 3):
            for e_bound in (1, 2, 3):
                walk = list(localprobe._moduli(field, excluded, deg_bound, e_bound))
                assert walk == _sorted_moduli(field, excluded, deg_bound, e_bound)


def test_obstruction_scan_tests_bases_lazily(monkeypatch):
    """An obstruction at degree 2 is found without listing the bases of degree 3..8."""
    from ffunits import poly, ratfunc

    calls = []
    for module in (poly, ratfunc):
        original = module.is_irreducible
        monkeypatch.setattr(
            module, "is_irreducible", lambda a, original=original: calls.append(a) or original(a)
        )
    poly.monic_irreducibles.cache_clear()
    out = io.StringIO()
    argv = ["skolem", "--p", "3", "--gens", "T+1", "--b", "T, 1", "--rhs", "0"]
    assert run_cli(argv + ["--deg-bound", "8", "--e-bound", "1"], stdout=out) == 0
    assert json.loads(out.getvalue())["modulus"] == {"base": "T^2 + 2*T + 2", "exponent": 1}
    assert len(calls) < 100


def test_obstruction_scan_builds_each_residue_group_once(F2, F3, monkeypatch):
    built = []
    original = localprobe.residue_group
    monkeypatch.setattr(
        localprobe, "residue_group", lambda group, m, *a: built.append(m) or original(group, m, *a)
    )
    g2 = build_presentation((el(F2, "1+T"),))
    eq0 = Equation((RatFunc.t(F2), RatFunc.one(F2)), 0)
    witness = find_local_obstruction(eq0, g2, 2, 2)
    assert len(built) > 1 and len(set(built)) == len(built)
    assert built[-1] == witness.modulus and witness.group_size == 6

    built.clear()
    g3 = build_presentation((el(F3, "T"), el(F3, "-T"), el(F3, "1-T")))
    assert find_local_obstruction(Equation((RatFunc.one(F3),) * 2, 0), g3, 2, 2) is None
    assert len(built) > 1 and len(set(built)) == len(built)


def test_sg_search_examples(F2):
    g2 = build_presentation((el(F2, "1+T"),))
    eq1 = Equation((RatFunc.t(F2), RatFunc.one(F2)), 1)
    sols = sg_search(eq1, g2, 8)
    assert {s.coords for s in sols} == {
        (RatFunc.one(F2), el(F2, "1+T")),
        (el(F2, "1/(1+T)"), el(F2, "1/(1+T)")),
    }
    for s in sols:
        acc = RatFunc.zero(F2)
        for b, x in zip(eq1.b, s.coords):
            acc = acc + b * x
        assert acc.is_one
        for x, w in zip(s.coords, s.words):
            assert g2.word_product(w) == x
            assert member(x, g2).member

    eq0 = Equation((RatFunc.t(F2), RatFunc.one(F2)), 0)
    assert sg_search(eq0, g2, 8) == ()


def test_sg_search_x_plus_y(F3):
    g3 = build_presentation((el(F3, "T"), el(F3, "-T"), el(F3, "1-T")))
    sols0 = sg_search(Equation((RatFunc.one(F3), RatFunc.one(F3)), 0), g3, 2)
    assert (el(F3, "T"), el(F3, "-T")) in {s.coords for s in sols0}
    sols1 = sg_search(Equation((RatFunc.one(F3), RatFunc.one(F3)), 1), g3, 2)
    assert (el(F3, "T"), el(F3, "1-T")) in {s.coords for s in sols1}


def test_sg_search_resource_guard(F3, monkeypatch):
    g3 = build_presentation((el(F3, "T"), el(F3, "-T"), el(F3, "1-T")))
    monkeypatch.setattr(localprobe, "DEFAULT_BOX_LIMIT", 100)
    with pytest.raises(ResourceLimitError):
        sg_search(Equation((RatFunc.one(F3), RatFunc.one(F3)), 0), g3, 8)


def test_closure_probe_examples(F3):
    t = RatFunc.t(F3)
    pr = closure_probe(t, Modulus(pl(F3, "T+1"), 1), 6)
    assert pr.residues == (pl(F3, "2"),) * 6
    assert pr.stable_index == 1 and pr.settled

    pr = closure_probe(t, Modulus(pl(F3, "T+1"), 2), 6)
    assert pr.stable_index == 1
    assert pr.stable_value == pl(F3, "2")

    pr = closure_probe(t, Modulus(pl(F3, "T^2+1"), 1), 6)
    assert pr.stable_index == 2
    assert pr.residues[0] == pl(F3, "2*T")
    assert pr.stable_value == pl(F3, "T")


def test_closure_probe_matches_direct_powering(F3):
    # oracle: materialize p**(n!) for a late n and reduce the exponent only
    # through the unit-group order
    t = RatFunc.t(F3)
    for base, e in ((pl(F3, "T+1"), 1), (pl(F3, "T+1"), 2), (pl(F3, "T^2+1"), 1)):
        m = Modulus(base, e)
        pr = closure_probe(t, m, 6)
        d = base.degree()
        order = (3**d - 1) * 3 ** (d * (e - 1))
        exp = pow(3, math.factorial(6), order)
        assert poly_powmod(reduce_mod(t, m), exp, m.poly) == pr.residues[-1]
        assert pr.residues[-1] == pr.stable_value


def test_closure_probe_monotone_in_precision(F3):
    t = RatFunc.t(F3)
    for base in (pl(F3, "T+1"), pl(F3, "T^2+1")):
        indices = [closure_probe(t, Modulus(base, e), 6).stable_index for e in (1, 2, 3)]
        assert indices == sorted(indices)


def test_closure_probe_rejects_pole(F3):
    with pytest.raises(ValueError):
        closure_probe(el(F3, "1/(T+1)"), Modulus(pl(F3, "T+1"), 1), 3)
    with pytest.raises(ValueError):
        closure_probe(el(F3, "T+1"), Modulus(pl(F3, "T+1"), 1), 3)
    with pytest.raises(ValueError):
        closure_probe(RatFunc.t(F3), Modulus(pl(F3, "T+1"), 1), 0)

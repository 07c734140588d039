import io
import itertools
import random
import types
from collections import deque

import pytest

from ffunits import (
    GF,
    RatFunc,
    divisor_vector,
    build_presentation,
    in_power_subfield,
    member,
    representatives,
)
from ffunits import errors, poly, ratfunc, unitgroup
from ffunits.cli import run_cli
from ffunits.errors import InternalCheckError, ResourceLimitError
from ffunits.hasse import prime_power
from ffunits.intlattice import solve_left
from ffunits.unitgroup import SubgroupPresentation, residue_key

from conftest import el, in_rational_rowspan, kernel_element_check, pl, radical_member, rand_ratfunc


def test_build_presentation_examples(F2, F3):
    g = build_presentation((el(F3, "T"), el(F3, "-T"), el(F3, "1-T")))
    assert g.support == (pl(F3, "T"), pl(F3, "T+2"))
    assert g.exponent_matrix == ((1, 0), (1, 0), (0, 1))
    assert g.constants == (1, 2, 2)

    g = build_presentation((el(F2, "1+T"),))
    assert g.support == (pl(F2, "T+1"),)
    assert g.exponent_matrix == ((1,),)
    assert g.constants == (1,)

    g = build_presentation((el(F3, "2"),))
    assert g.support == ()
    assert g.exponent_matrix == ((),)
    assert g.constants == (2,)

    with pytest.raises(ValueError):
        build_presentation((RatFunc.zero(F2),))
    with pytest.raises(ValueError):
        build_presentation(())


def test_member_examples(F2, F3):
    g3 = build_presentation((el(F3, "T"), el(F3, "-T"), el(F3, "1-T")))
    word = member(el(F3, "T-1"), g3)
    assert word is not None
    assert g3.word_product(word) == el(F3, "T-1")

    g2 = build_presentation((el(F2, "1+T"),))
    assert member(el(F2, "T"), g2) is None
    assert member(el(F2, "(1+T)^-1"), g2) == (-1,)


def test_member_constant_coset(F3):
    # exponents solvable but the F_q* constant unreachable
    g = build_presentation((el(F3, "T^2"),))
    assert member(el(F3, "-T^2"), g) is None

    g = build_presentation((el(F3, "-T"),))
    assert member(el(F3, "T"), g) is None
    assert member(el(F3, "T^2"), g) == (2,)  # (-T)^2 = T^2

    # the coset becomes reachable through a kernel word
    g = build_presentation((el(F3, "T"), el(F3, "-T"), el(F3, "1-T")))
    word = member(el(F3, "-1"), g)  # (-T) / T
    assert word is not None and g.word_product(word) == el(F3, "-1")


def test_member_reconstruction_roundtrip(F2, F3):
    rng = random.Random(97)
    groups = [
        build_presentation((el(F3, "T"), el(F3, "-T"), el(F3, "1-T"))),
        build_presentation((el(F2, "1+T"), el(F2, "T"))),
        build_presentation((el(F2, "T^2+T"), el(F2, "T^3"))),
    ]
    for g in groups:
        n = len(g.generators)
        for _ in range(34):
            word = tuple(rng.randrange(-4, 5) for _ in range(n))
            x = g.word_product(word)
            assert g.word_product(member(x, g)) == x


def _factoring_exponent_target(x, group):
    """Reference for the exponent reading: the one member used before trial
    division, which factors x completely and maps its places onto the
    support.  Returns (target, constant, None), or (None, constant, the
    least stray place in place order).
    """
    dv, const = divisor_vector(x)
    index = {place: i for i, place in enumerate(group.support)}
    target = [0] * len(group.support)
    for place, e in dv.items():
        idx = index.get(place)
        if idx is None:
            return None, const, place
        target[idx] = e
    return target, const, None


def _member_word_by_queue_search(x, group):
    """Reference for member's word: the factoring exponent reading, the
    lattice solve, then the F_q* constant reached from the kernel words by
    the queue search member used before closure; None for a non-member."""
    target, const, _ = _factoring_exponent_target(x, group)
    if target is None:
        return None
    word0, kernel = solve_left([list(r) for r in group.exponent_matrix], len(group.support), target)
    if word0 is None:
        return None
    f = group.field
    kernel_constants = [group.word_constant(w) for w in kernel]
    reached = {1: [0] * len(kernel)}
    queue = deque([1])
    while queue:
        val = queue.popleft()
        for idx, kc in enumerate(kernel_constants):
            nv = f.mul(val, kc)
            if nv not in reached:
                combo = list(reached[val])
                combo[idx] += 1
                reached[nv] = combo
                queue.append(nv)
    combo = reached.get(f.div(const, group.word_constant(word0)))
    if combo is None:
        return None
    word = list(word0)
    for c, krow in zip(combo, kernel):
        for j in range(len(word)):
            word[j] += c * krow[j]
    return tuple(word)


def test_member_words_match_queue_search(F3):
    rng = random.Random(131)
    F5, F9 = GF(5), GF(3, 2, (1, 0, 1))
    groups = [
        build_presentation((el(F3, "T"), el(F3, "-T"), el(F3, "1-T"))),
        build_presentation((el(F5, "T"), el(F5, "2*T"), el(F5, "3*T^2"), el(F5, "1+T"))),
        build_presentation((el(F5, "T^2"), el(F5, "4*T^2"), el(F5, "1+T"))),  # constants 1, 4 only
        build_presentation(tuple(RatFunc.constant(F9, c) * el(F9, "T") for c in (1, 3, 5))),
    ]
    outcomes = set()
    for g in groups:
        _, kernel = solve_left([list(r) for r in g.exponent_matrix], len(g.support), [0] * len(g.support))
        assert kernel  # a nontrivial kernel, so the constant search has steps
        for _ in range(30):
            c = RatFunc.constant(g.field, rng.randrange(1, g.field.q))
            x = c * g.word_product(tuple(rng.randrange(-3, 4) for _ in g.generators))
            word = member(x, g)
            assert word == _member_word_by_queue_search(x, g)
            outcomes.add(word is not None)
    assert outcomes == {True, False}


def _oracle_candidates(rng, group):
    """Elements to ask membership of: members with high exponents, their
    F_q* multiples (constant mismatches), products of support places
    (lattice failures), strays (times an off-support place or a random
    fraction), and p-th powers of all of these.
    """
    f = group.field
    word = tuple(rng.randrange(-9, 10) for _ in group.generators)
    x = group.word_product(word)
    c = RatFunc.constant(f, rng.randrange(1, f.q))
    on_support = RatFunc.one(f)
    for place in group.support:
        on_support = on_support * RatFunc.from_poly(place) ** rng.randrange(-12, 13)
    others = [g for d in (1, 2, 3) for g in poly.monic_irreducibles(f, d)
              if g not in group.support]
    other = RatFunc.from_poly(rng.choice(others))
    strays = (x * other ** rng.choice((-3, -1, 1, 2)),
              x / rand_ratfunc(rng, f, 3, nonzero=True))
    base = (x, c * x, c * on_support, *strays)
    return base + tuple(y**f.p for y in base)


def test_member_matches_factoring_oracle():
    """member, which reads exponents by trial division, against the factoring
    exponent reading: the verdict and the word, for each kind of candidate.
    """
    fields = (GF(2), GF(3), GF(2, 2, (1, 1, 1)), GF(3, 2, (1, 0, 1)))
    rng = random.Random(151)
    outcomes = {}
    for _ in range(48):
        field = rng.choice(fields)
        group = build_presentation(_random_generators(rng, field, rng.randint(1, 4)))
        matrix = [list(r) for r in group.exponent_matrix]
        for x in _oracle_candidates(rng, group):
            if x.is_zero:
                continue
            word = member(x, group)
            target, const, stray = _factoring_exponent_target(x, group)
            assert word == _member_word_by_queue_search(x, group)
            if stray is not None:
                kind = "stray"
                assert word is None
            elif solve_left(matrix, len(group.support), target)[0] is None:
                kind = "lattice"
                assert word is None
            else:
                kind = "constant" if word is None else "member"
            outcomes[kind] = outcomes.get(kind, 0) + 1
            assert radical_member(x, group) == (stray is None and in_rational_rowspan(
                matrix, len(group.support), target))
    assert set(outcomes) == {"member", "constant", "lattice", "stray"}
    assert min(outcomes.values()) >= 20, outcomes


def test_member_factors_nothing(F3, monkeypatch):
    calls = []
    original = ratfunc.factor

    def counted(a, *args):
        calls.append(a)
        return original(a, *args)

    monkeypatch.setattr(poly, "factor", counted)
    monkeypatch.setattr(ratfunc, "factor", counted)
    g = build_presentation((el(F3, "T^2"), el(F3, "(1+T)^3/T")))
    calls.clear()
    assert member(el(F3, "(1+T)^9/T^7"), g) == (-2, 3)
    assert member(el(F3, "(1+T)^3*(T^2+1)/(T*(T+2)^4)"), g) is None
    assert calls == []
    # the counter is live: a factorization through ratfunc is seen
    divisor_vector(el(F3, "(T^2+1)/(T+2)^4"))
    assert calls


def test_member_rejects_zero(F2):
    g = build_presentation((el(F2, "1+T"),))
    with pytest.raises(ValueError):
        member(RatFunc.zero(F2), g)


def test_radical_examples(F2, F3):
    assert radical_member(el(F2, "T"), build_presentation((el(F2, "T^2"),)))
    assert not radical_member(el(F2, "T"), build_presentation((el(F2, "1+T"),)))
    assert radical_member(el(F3, "-1"), build_presentation((el(F3, "T"),)))


def test_radical_is_power_stable(F3):
    rng = random.Random(103)
    g = build_presentation((el(F3, "T^2"), el(F3, "(1+T)^3")))
    candidates = [el(F3, "T"), el(F3, "1+T"), el(F3, "T*(1+T)"), el(F3, "T+2"), el(F3, "2*T^3")]
    for x in candidates:
        base = radical_member(x, g)
        for n in (1, 2, 3):
            assert radical_member(x**n, g) == base


def test_representatives_examples(F2, F3):
    g2 = build_presentation((el(F2, "1+T"),))
    reps = representatives(g2, 1)
    assert reps == ((0,), (1,))
    assert [g2.word_product(w) for w in reps] == [RatFunc.one(F2), el(F2, "1+T")]

    g3 = build_presentation((el(F3, "T"), el(F3, "-T"), el(F3, "1-T")))
    reps3 = representatives(g3, 1)
    assert len(reps3) == 9
    assert reps3[0] == (0, 0, 0)
    assert g3.word_product(reps3[0]) == RatFunc.one(F3)


def test_representative_sizes_are_p_powers(F2, F3):
    for gens, p in (
        ((el(F2, "1+T"),), 2),
        ((el(F2, "1+T"), el(F2, "T")), 2),
        ((el(F3, "T"), el(F3, "-T"), el(F3, "1-T")), 3),
    ):
        g = build_presentation(gens)
        sizes = [len(representatives(g, m)) for m in (1, 2)]
        rank = len(g.support)
        for m, size in zip((1, 2), sizes):
            k = 0
            while p**k < size:
                k += 1
            assert p**k == size  # a power of p
            assert size <= p ** (m * rank)
        assert sizes[1] % sizes[0] == 0


def test_representative_completeness(F2, F3):
    import itertools

    for gens in (((el(F2, "1+T"),)), (el(F3, "T"), el(F3, "-T"), el(F3, "1-T"))):
        g = build_presentation(tuple(gens))
        m = 1
        reps = representatives(g, m)
        keys = [residue_key(g, w, m) for w in reps]
        for word in itertools.product(range(-2, 3), repeat=len(g.generators)):
            key = residue_key(g, word, m)
            assert key in keys  # exists
            x = g.word_product(word)
            quotient = x / g.word_product(reps[keys.index(key)])
            assert kernel_element_check(quotient, g, m)
            # and no other representative shares the key
            assert keys.count(key) == 1


def test_representatives_resource_guard(F2, monkeypatch):
    g = build_presentation((el(F2, "1+T"), el(F2, "T")))
    monkeypatch.setattr(errors, "DEFAULT_GROUP_LIMIT", 2)
    with pytest.raises(ResourceLimitError):
        representatives(g, 2)


def test_representatives_bound_counts_classes_not_words(F3, monkeypatch):
    # 27**5 words in the box, but only 27 classes: the key is sum(i * w_i) mod 27,
    # and T^5 alone reaches every class since 5 is a unit mod 27
    g = build_presentation(tuple(el(F3, f"T^{i}") for i in range(1, 6)))
    monkeypatch.setattr(errors, "DEFAULT_GROUP_LIMIT", 27)
    reps = representatives(g, 3)
    assert reps == tuple((0, 0, 0, 0, j) for j in range(27))
    assert [residue_key(g, w, 3) for w in reps] == [(5 * j % 27,) for j in range(27)]
    monkeypatch.setattr(errors, "DEFAULT_GROUP_LIMIT", 26)
    with pytest.raises(ResourceLimitError, match="exceeds the configured bound 26"):
        representatives(g, 3)


def _scan_representatives(group, m):
    """Reference listing: scan all p**(m*n) words in lex order, keep the first per key."""
    pm = prime_power(group.field, m)
    found = {}
    for word in itertools.product(range(pm), repeat=len(group.generators)):
        key = residue_key(group, word, m)
        if key not in found:
            found[key] = word
    return tuple(found.values())


def _random_generators(rng, field, n):
    gens = []
    while len(gens) < n:
        kind = rng.randrange(6)
        if kind == 0:
            gens.append(RatFunc.constant(field, rng.randrange(1, field.q)))
        elif kind == 1 and gens:
            gens.append(rng.choice(gens))
        elif kind == 2 and gens:
            gens.append(RatFunc.one(field) / rng.choice(gens))
        else:
            gens.append(rand_ratfunc(rng, field, 2, nonzero=True))
    return tuple(gens)


def test_representatives_match_word_scan(monkeypatch):
    """The Hermite-form listing equals the word scan, and it neither keys nor
    multiplies out a word: its readers do that for the words they use.
    """
    fields = (GF(2), GF(3), GF(2, 2, (1, 1, 1)), GF(3, 2, (1, 0, 1)))
    calls = []

    def refuse(*args):
        calls.append(args)
        raise AssertionError("representatives keys or multiplies out a word")

    monkeypatch.setattr(unitgroup, "residue_key", refuse)
    monkeypatch.setattr(SubgroupPresentation, "word_product", refuse)
    rng = random.Random(113)
    compared = 0
    for _ in range(60):
        field = rng.choice(fields)
        n = rng.randint(1, 4)
        group = build_presentation(_random_generators(rng, field, n))
        for m in (1, 2, 3):
            if field.p ** (m * n) > 1500:
                break
            assert representatives(group, m) == _scan_representatives(group, m)
            compared += 1
    assert compared >= 100 and not calls


def test_kernel_element_examples(F2, F3):
    g2 = build_presentation((el(F2, "1+T"),))
    assert kernel_element_check(el(F2, "(1+T)^2"), g2, 1)
    assert not kernel_element_check(el(F2, "1+T"), g2, 1)

    g3 = build_presentation((el(F3, "T"), el(F3, "-T"), el(F3, "1-T")))
    assert kernel_element_check(el(F3, "-T^3"), g3, 1)

    with pytest.raises(ValueError):
        kernel_element_check(el(F2, "T"), g2, 1)


def test_kernel_check_matches_subfield_test(F3):
    rng = random.Random(107)
    g = build_presentation((el(F3, "T"), el(F3, "-T"), el(F3, "1-T")))
    for _ in range(60):
        word = tuple(rng.randrange(-3, 4) for _ in range(3))
        x = g.word_product(word)
        assert kernel_element_check(x, g, 1) == in_power_subfield(x, 1)


def test_member_word_that_misses_is_an_internal_fault(F3, monkeypatch):
    # 1+T and -1-T differ by the constant -1, so the kernel word (-1, 1)
    # moves the constant; a closure that picks it for every need leaves a
    # word that rebuilds -1-T, not 1+T
    group = build_presentation((el(F3, "1+T"), el(F3, "-1-T")))
    argv = ["solve", "--p", "3", "--gens", "1+T, -1-T", "--b", "T, 1", "--rhs", "1", "--m", "1"]
    assert member(el(F3, "1+T"), group) is not None
    assert run_cli(argv, stdout=io.StringIO(), stderr=io.StringIO()) == 0
    def closure(one, steps, mul):
        return types.SimpleNamespace(get=lambda need: (1,) * len(steps))

    monkeypatch.setattr(unitgroup, "closure", closure)
    with pytest.raises(InternalCheckError, match="membership word failed to reconstruct the element"):
        member(el(F3, "1+T"), group)
    out, err = io.StringIO(), io.StringIO()
    assert run_cli(argv, stdout=out, stderr=err) == 1
    assert out.getvalue() == "" and "internal check failed: membership word" in err.getvalue()

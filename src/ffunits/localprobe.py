"""Brute-force congruence probes complementing the certified solver.

These routines exercise the local side of the local-global picture at
finite precision: the image of the group in a residue ring
F_q[t]/(base**e) is enumerated exhaustively, congruence solvability of
b . x = rhs is searched over that image, moduli are scanned for one that
obstructs solvability, and an exact word-bounded global search doubles as
an oracle for the certified results.  The probe of iterated-factorial
Frobenius powers watches a canonical convergent sequence stabilize at
finite precision.

The global search runs its word box on residues modulo one auxiliary
irreducible base that divides no input, and confirms each hit in exact
arithmetic, so it returns exactly what the plain exact search returns.
As an oracle it still shares with the solver the field, polynomial and
rational-function arithmetic (RatFunc products and quotients, reduce_mod,
the memoized irreducibility test) and the generator list of the
presentation; it uses no derivative, elimination, representative set or
membership test.

The image is listed by cosets of the subgroups generated step by step,
with the products on coefficient tuples, and kept as an element-to-word
dict.  The words are coset words: nonnegative, each rebuilding its
residue, but not in general the first word a breadth-first search finds.
The unit group of the residue ring is finite, so the powers of each
generator reach its inverse and no inverse steps are taken.  A residue
group, a probe's terms and a scan's running total are held to
errors.DEFAULT_GROUP_LIMIT; the word box of sg_search and a probe's
powering charge to errors.DEFAULT_BOX_LIMIT.
"""

import functools
import itertools
from dataclasses import dataclass

from . import errors
from .field import GF
from .poly import (
    Poly,
    _add_list,
    _mulmod_list,
    _neg_list,
    _trim,
    _trimmed,
    is_irreducible,
    monic_irreducibles,
    poly_mulmod,
    poly_powmod,
)
from .ratfunc import Modulus, RatFunc, divisor_vector, reduce_mod, valuation
from .solver import Equation, SolutionPoint
from .unitgroup import SubgroupPresentation

# the auxiliary residue field of sg_search has at least this many elements
_RESIDUE_FIELD_SIZE = 2**10


@dataclass(frozen=True)
class SLWitness:
    """A congruence solution: residues and words, one per coordinate."""

    modulus: Modulus
    residues: tuple[Poly, ...]
    words: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ObstructionWitness:
    """A modulus at which no group tuple satisfies the congruence."""

    modulus: Modulus
    group_size: int


@dataclass(frozen=True)
class StabilizationReport:
    """Iterated-factorial Frobenius powers of g, observed at one modulus."""

    element: RatFunc
    modulus: Modulus
    residues: tuple[Poly, ...]
    stable_index: int  # least 1-based n with all later observed terms equal
    stable_value: Poly

    @property
    def settled(self) -> bool:
        return self.stable_index < len(self.residues)


def _require_unit(x: RatFunc, m: Modulus, what: str):
    if x.is_zero or valuation(x, m.base) != 0:
        raise ValueError(f"{what} is not a unit at the modulus place")


def residue_group(group: SubgroupPresentation, m: Modulus) -> dict[Poly, tuple[int, ...]]:
    """The full image of the group in a residue ring: each element with its
    coset word, which is nonnegative and rebuilds the residue.

    The image is listed by cosets, as in Dimino's enumeration for an abelian
    group: for each reduced generator g not yet in the listed subgroup H,
    the cosets H*g, H*g**2, ... are appended until a power of g lands in H.
    The cosets are disjoint, so each product is a new element, and the
    listing takes |H| - 1 modular products on coefficient tuples in all.
    The element h*g_i**k gets the word of h with k at position i, which is
    not in general the first word a breadth-first search finds.  The image
    is finite, so the powers of a generator reach its inverse and no
    inverse steps are taken.  The size is checked after each insert, so a
    refusal names the first size past the bound.
    """
    field = group.field
    mod = m.poly.coeffs
    steps = []
    for g in group.generators:
        _require_unit(g, m, "generator")
        steps.append(reduce_mod(g, m).coeffs)
    limit = errors.DEFAULT_GROUP_LIMIT
    one = (1,)
    found = {one: (0,) * len(steps)}
    for i, g in enumerate(steps):
        subgroup = list(found.items())
        power, k = g, 1
        while power not in found:
            for x, w in subgroup:  # the identity comes first, and one * power is power
                y = power if x is one else tuple(_trim(_mulmod_list(field, x, power, mod)))
                found[y] = w[:i] + (k,) + w[i + 1 :]
                if len(found) > limit:
                    errors.refuse("listed group size", len(found), limit)
            power = tuple(_trim(_mulmod_list(field, power, g, mod)))
            k += 1
    return {Poly(field, x): w for x, w in found.items()}


def sl_search(eq: Equation, group: SubgroupPresentation, m: Modulus) -> SLWitness | None:
    """Exhaustive search for b . x = rhs in the residue ring, over group images.

    The box over the first arity-1 coordinates is enumerated and the last
    coordinate is solved for and looked up, which visits exactly the
    solutions the full product enumeration would.
    """
    for x in eq.b:
        _require_unit(x, m, "equation coefficient")
    return _search_residues(eq, m, residue_group(group, m))


def _search_residues(eq: Equation, m: Modulus, words: dict) -> SLWitness | None:
    """The box search of sl_search over an already built residue group.

    The witness words are those of the residue group, coset words.
    """
    for prefix, need in _box_needs(eq, m, words.items()):
        w = words.get(need)
        if w is not None:
            residues = tuple(x for x, _ in prefix) + (need,)
            found = tuple(wd for _, wd in prefix) + (w,)
            return SLWitness(m, residues, found)
    return None


def _box_needs(eq: Equation, m: Modulus, entries):
    """Each point of the box over the first M - 1 coordinates, with the
    residue its last coordinate needs.

    entries are (residue, payload) pairs, the residues reduced modulo m and
    the points drawn in itertools.product order.  The equation is divided
    by b_M once per call: the last coordinate is rhs/b_M + sum(-b_i/b_M * x_i),
    so a point costs M - 1 modular products on coefficient tuples.
    """
    field = m.base.field
    mod = m.poly.coeffs
    inv_last = reduce_mod(eq.b[-1].inverse(), m).coeffs
    neg_inv = _neg_list(field, inv_last)
    scaled = [_trim(_mulmod_list(field, reduce_mod(x, m).coeffs, neg_inv, mod)) for x in eq.b[:-1]]
    target = list(inv_last) if eq.rhs else []
    for prefix in itertools.product(entries, repeat=eq.arity - 1):
        # each term is reduced, so their sum is too
        need = target
        for c, (x, _) in zip(scaled, prefix):
            need = _add_list(field, need, _mulmod_list(field, c, x.coeffs, mod))
        yield prefix, _trimmed(field, need)


def verify_obstruction(
    witness: ObstructionWitness, eq: Equation, group: SubgroupPresentation
) -> bool:
    """Re-check an obstruction by full enumeration of the residue tuples."""
    rg = residue_group(group, witness.modulus)
    modpoly = witness.modulus.poly
    field = group.field
    b_res = [reduce_mod(x, witness.modulus) for x in eq.b]
    target = Poly.constant(field, eq.rhs) % modpoly
    for combo in itertools.product(rg, repeat=eq.arity):
        acc = Poly.zero(field)
        for bi, xi in zip(b_res, combo):
            acc = acc + poly_mulmod(bi, xi, modpoly)
        if acc == target:
            return False
    return True


def _moduli(deg_bound: int, e_bound: int):
    """(deg, e) pairs in (deg*e, deg) order; each deg first comes with e == 1.

    Each weight deg*e fixes e once deg is chosen, so the walk needs no sort.
    """
    for weight in range(1, deg_bound * e_bound + 1):
        for d in range(1, min(weight, deg_bound) + 1):
            e, rem = divmod(weight, d)
            if rem == 0 and e <= e_bound:
                yield d, e


def find_local_obstruction(
    eq: Equation,
    group: SubgroupPresentation,
    deg_bound: int,
    e_bound: int,
) -> ObstructionWitness | None:
    """First modulus (by (deg*e, deg, base, e)) where the congruence has no solution.

    Moduli run over monic irreducibles outside the support of the equation
    and the group, up to the given degree, with exponents up to e_bound.
    A running total counts the residue elements searched without an
    obstruction and, before a degree's bases are first listed, deg for each
    of the q**deg candidates that listing tests for irreducibility (a test
    takes at most deg modular powerings); past errors.DEFAULT_GROUP_LIMIT
    the scan stops with ResourceLimitError.
    """
    if deg_bound < 1 or e_bound < 1:
        raise ValueError("bounds must be >= 1")
    field = group.field
    excluded = set(group.support)
    for x in eq.b:
        excluded.update(divisor_vector(x)[0])
    searched, limit = 0, errors.DEFAULT_GROUP_LIMIT

    def charge(count: int) -> None:
        nonlocal searched
        searched += count
        if searched > limit:
            errors.refuse("scan charge", searched, limit)

    for d, e in _moduli(deg_bound, e_bound):
        if e == 1:
            charge(d * field.q**d)
        # bases in sort-key order, tested once per degree (memoized)
        for base in monic_irreducibles(field, d):
            if base in excluded:
                continue
            # bases outside the support keep every coefficient a unit
            m = Modulus(base, e)
            rg = residue_group(group, m)
            if _search_residues(eq, m, rg) is None:
                return ObstructionWitness(m, len(rg))
            charge(len(rg))
    return None


def _residue_bases(field: GF):
    """Monic irreducibles with a nonzero constant term, degree by degree from
    the least d with q**d >= _RESIDUE_FIELD_SIZE, each degree in sort-key order.
    """
    q = field.q
    d = 1
    while q**d < _RESIDUE_FIELD_SIZE:
        d += 1
    for degree in itertools.count(d):
        for low in itertools.product(range(1, q), *[range(q)] * (degree - 1)):
            base = Poly(field, low + (1,))
            if is_irreducible(base):
                yield base


@functools.lru_cache(maxsize=64)
def _first_residue_modulus(field: GF) -> Modulus:
    """The first residue base as a modulus, memoized per field."""
    return Modulus(next(_residue_bases(field)), 1)


def _residue_modulus(field: GF, elements) -> Modulus:
    """The first residue base that divides no numerator or denominator of
    the elements, as a modulus of exponent 1.

    Reduction modulo such a base is a ring homomorphism on every fraction
    built from the elements and their inverses, so equal values have equal
    residues.  The memoized first base almost always qualifies; past it
    the scan resumes, and it ends because the elements have finitely many
    places.
    """
    first = _first_residue_modulus(field)
    for base in itertools.chain([first.base], _residue_bases(field)):
        if all((p % base).coeffs for x in elements for p in (x.num, x.den)):
            return first if base is first.base else Modulus(base, 1)


def sg_search(
    eq: Equation, group: SubgroupPresentation, word_bound: int
) -> tuple[SolutionPoint, ...]:
    """All exact solutions with per-coordinate words in [-B, B]**generators.

    This is the independent oracle for the certified solver: plain word
    enumeration, no derivatives, no elimination and no membership test.
    The last coordinate is solved for and looked up among the values of
    the word box, which finds exactly the solutions of the full box
    enumeration.  Each value of the box appears once, with its first word
    in itertools.product order, and the points come in itertools.product
    order over those values.

    The box is searched on residues modulo one auxiliary irreducible base
    f (see _residue_modulus) and each hit is confirmed exactly.  The words
    are bucketed by residue, and exact values are built only to tell apart
    the words of one bucket.  A box point whose last coordinate needs a
    residue that lands in a bucket is rebuilt in exact arithmetic and
    compared with that bucket's values.  Equal values have equal residues,
    so no solution is lost.  The word box is charged before any of this
    work.
    """
    if word_bound < 1:
        raise ValueError("word bound must be >= 1")
    n = len(group.generators)
    box = (2 * word_bound + 1) ** (n * eq.arity)
    if box > errors.DEFAULT_BOX_LIMIT:
        errors.refuse("word box", box, errors.DEFAULT_BOX_LIMIT)
    field = group.field
    m = _residue_modulus(field, group.generators + eq.b)
    mod = m.poly.coeffs
    exponents = range(-word_bound, word_bound + 1)
    # each word with its residue, in itertools.product order
    table = [((), Poly.one(field))]
    for g in group.generators:
        powers = {}
        for sign, h in ((1, g), (-1, g.inverse())):
            step = reduce_mod(h, m).coeffs
            power = (1,)
            for e in range(1, word_bound + 1):
                power = tuple(_trim(_mulmod_list(field, power, step, mod)))
                powers[sign * e] = power
        table = [
            (w + (e,), x if e == 0 else _trimmed(field, _mulmod_list(field, x.coeffs, powers[e], mod)))
            for w, x in table
            for e in exponents
        ]

    exact: dict[tuple[int, ...], RatFunc] = {}

    def value(word: tuple[int, ...]) -> RatFunc:
        if word not in exact:
            x = RatFunc.one(field)
            for g, e in zip(group.generators, word):
                if e:
                    x = x * g**e
            exact[word] = x
        return exact[word]

    # the first word of each distinct value, bucketed by residue
    buckets: dict[Poly, list[tuple[int, ...]]] = {}
    entries = []
    for word, x in table:
        bucket = buckets.setdefault(x, [])
        if not any(value(w) == value(word) for w in bucket):
            bucket.append(word)
            entries.append((x, word))
    target = RatFunc.constant(field, eq.rhs)
    found = []
    for prefix, need in _box_needs(eq, m, entries):
        bucket = buckets.get(need)
        if bucket is None:
            continue
        coords = tuple(value(w) for _, w in prefix)
        acc = RatFunc.zero(field)
        for bi, xi in zip(eq.b, coords):
            acc = acc + bi * xi
        last = (target - acc) / eq.b[-1]
        for w in bucket:
            if value(w) == last:
                found.append(SolutionPoint(coords + (last,), tuple(wd for _, wd in prefix) + (w,)))
                break
    return tuple(found)


def check_probe_bounds(q: int, degree: int, exponent: int, n_max: int) -> None:
    """Refuse with ResourceLimitError a probe of n_max terms over F_q modulo
    base**exponent, base of the given degree, that is past its bounds.

    One residue is kept per term, so n_max past errors.DEFAULT_GROUP_LIMIT
    is refused, the bound on a listed residue group.  Each term is a powering modulo base**e, of degree
    D = deg(base) * e, to an exponent below the unit group order, which has
    about D * log2(q) bits; so the probe is charged
    n_max * D**3 * q.bit_length(), an upper bound on its powering work, and
    refused past errors.DEFAULT_BOX_LIMIT.  It needs only the degree of the base,
    so a caller can apply it before the base is tested for irreducibility.
    """
    if n_max > errors.DEFAULT_GROUP_LIMIT:
        errors.refuse("n_max", n_max, errors.DEFAULT_GROUP_LIMIT)
    charge = n_max * (degree * exponent) ** 3 * q.bit_length()
    if charge > errors.DEFAULT_BOX_LIMIT:
        errors.refuse("probe charge", charge, errors.DEFAULT_BOX_LIMIT)


def closure_probe(g: RatFunc, m: Modulus, n_max: int) -> StabilizationReport:
    """Residues of g**(p**(n!)) for n = 1..n_max, with the stabilization index.

    The factorial-power exponent is never materialized: it is tracked
    modulo the residue-ring unit group order through the recurrence
    p**(n!) = (p**((n-1)!))**n.  The probe is held to check_probe_bounds
    before any powering.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    field = g.field
    d = m.base.degree()
    check_probe_bounds(field.q, d, m.exponent, n_max)
    _require_unit(g, m, "probe element")
    order = (field.q**d - 1) * field.q ** (d * (m.exponent - 1))
    g_res = reduce_mod(g, m)
    modpoly = m.poly
    residues = []
    exp = field.p % order
    residues.append(poly_powmod(g_res, exp, modpoly))
    for n in range(2, n_max + 1):
        exp = pow(exp, n, order)
        residues.append(poly_powmod(g_res, exp, modpoly))
    stable = residues[-1]
    n0 = len(residues)
    while n0 > 1 and residues[n0 - 2] == stable:
        n0 -= 1
    return StabilizationReport(g, m, tuple(residues), n0, stable)

"""Brute-force congruence probes complementing the certified solver.

These routines exercise the local side of the local-global picture at
finite precision: the image of the group in a residue ring
F_q[t]/(base**e) is enumerated exhaustively, congruence solvability of
b . x = rhs is searched over that image while it is listed, up to the
first solution, moduli are scanned for one that obstructs solvability,
and an exact word-bounded global search doubles as an oracle for the
certified results.  The probe of iterated-factorial Frobenius powers
watches a canonical convergent sequence stabilize at finite precision.

The global search runs its word box in the residue field modulo one
auxiliary irreducible base that divides no input, on that field's exp
and log tables, and confirms each hit in exact arithmetic, so it returns
exactly what the plain exact search returns.  As an oracle it still
shares with the solver the field, polynomial and rational-function
arithmetic (the coefficient-list kernels, RatFunc products and
quotients, the memoized irreducibility test), the field's table builder,
which builds its residue field's tables as it builds those of GF(p, s),
and the generators and word_product of the group; it uses no derivative,
elimination, representative set or membership test.

Nothing here factors, and every residue takes one route on coefficient
lists.  A base is tested by dividing each numerator and denominator of
the inputs by it (_unit_residues): a zero remainder means the base
divides one, and otherwise the remainders are the residue pairs
(num, den) at exponent 1.  At a higher exponent e each numerator and
denominator is reduced modulo base**e instead.  Every input of a search
is then one quotient step num * den**-1 (_quotients, the inverse an
extended Euclid on coefficient lists): the generators' steps; 1/b_M,
which is rhs/b_M when rhs is 1, since b_M enters as its reciprocal pair
(den, num); and each -b_i/b_M, formed as -b_i times 1/b_M
(_search_inputs), so no inverse of b_M's denominator is ever taken.
residue_group, sl_search, verify_obstruction and closure_probe take their
residues at a Modulus this way (_modulus_residues); the obstruction scan
keeps the pairs of each base's test for e = 1 and builds each base**e
from base**(e-1) by one product, and it keeps the inverses each base's
search divided by, lifting them from base**(e-1) to base**e by one
Newton step each (_lift_inverse) instead of a new extended Euclid.  The
global search takes its residues from the pairs of the test that kept
its auxiliary base, as logs.  No RatFunc or Poly is built per modulus,
and the scan's search returns raw residues, which only sl_search turns
into a witness.

The image is listed by cosets of the subgroups generated step by step,
with the products on coefficient tuples, and kept as an element-to-word
dict.  The words are coset words: nonnegative, each rebuilding its
residue, but not in general the first word a breadth-first search finds.
The unit group of the residue ring is finite, so the powers of each
generator reach its inverse and no inverse steps are taken.  A residue
group, a probe's terms and a scan's running total are held to
errors.DEFAULT_GROUP_LIMIT; the running total charges the residue elements
a scan has listed, which at a modulus with a solution stops at the first
one.  The word box of sg_search and a probe's powering charge to
errors.DEFAULT_BOX_LIMIT.
"""

import functools
import itertools
import operator
from dataclasses import dataclass

from . import errors
from .field import GF, _tables
from .poly import (
    Poly,
    _add_list,
    _divmod_list,
    _invmod_list,
    _mul_list,
    _mulmod_list,
    _neg_list,
    _sub_list,
    _trim,
    is_irreducible,
    monic_irreducibles,
    poly_powmod,
)
from .ratfunc import Modulus, RatFunc
from .solver import Equation, SolutionPoint
from .unitgroup import GeneratedGroup

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

    residues: tuple[Poly, ...]
    stable_index: int  # least 1-based n with all later observed terms equal
    stable_value: Poly

    @property
    def settled(self) -> bool:
        return self.stable_index < len(self.residues)


def _coset_listing(field: GF, steps, mod):
    """The image of the group in a residue ring, element by element: each
    residue as a coefficient tuple, with its coset word, yielded as soon as
    it is found.

    The image is listed by cosets, as in Dimino's enumeration for an abelian
    group: for each generator residue g not yet in the listed subgroup H,
    the cosets H*g, H*g**2, ... are appended until a power of g lands in H.
    The cosets are disjoint, so each product is a new element, and the
    listing takes |H| - 1 modular products on coefficient tuples in all.
    The element h*g_i**k gets the word of h with k at position i, which is
    not in general the first word a breadth-first search finds.  The image
    is finite, so the powers of a generator reach its inverse and no
    inverse steps are taken.  The size is checked after each insert, so a
    refusal names the first size past the bound, before that element is
    yielded.  The steps are the generators' residues modulo mod, as
    coefficient tuples (_search_inputs), and must be units there.
    """
    limit = errors.DEFAULT_GROUP_LIMIT
    one = (1,)
    found = {one: (0,) * len(steps)}
    yield one, found[one]
    for i, g in enumerate(steps):
        subgroup = list(found.items())
        power, k = g, 1
        while power not in found:
            for x, w in subgroup:  # the identity comes first, and one * power is power
                y = power if x is one else tuple(_trim(_mulmod_list(field, x, power, mod)))
                found[y] = word = w[:i] + (k,) + w[i + 1 :]
                if len(found) > limit:
                    errors.refuse("listed group size", len(found), limit)
                yield y, word
            power = tuple(_trim(_mulmod_list(field, power, g, mod)))
            k += 1


def _unit_residues(field: GF, elements, mod) -> list | None:
    """The residues modulo mod of each element's numerator and denominator,
    as trimmed (num, den) coefficient lists, or None at the first zero one.

    Modulo an irreducible base a zero residue means that the base divides
    the numerator or denominator, so this is the unit test of a base, and
    the remainders it leaves are the residues at exponent 1.  Modulo a
    power of a base that passed the test, no residue is zero.
    """
    pairs = []
    for x in elements:
        num = _trim(_divmod_list(field, list(x.num.coeffs), mod)[1])
        den = _trim(_divmod_list(field, list(x.den.coeffs), mod)[1])
        if not num or not den:
            return None
        pairs.append((num, den))
    return pairs


def _modulus_residues(field: GF, m: Modulus, elements, what: str) -> list:
    """The residue pairs (num, den) of the elements modulo m.poly, as
    trimmed coefficient lists; InputError (a ValueError) naming what when
    an element is zero or not a unit at the modulus place.

    The unit test at m.base (_unit_residues) leaves the pairs at e = 1; at
    e >= 2 each numerator and denominator is reduced modulo m.poly.
    """
    pairs = _unit_residues(field, elements, m.base.coeffs)
    if pairs is None:
        raise errors.InputError(f"{what} is not a unit at the modulus place")
    return pairs if m.exponent == 1 else _unit_residues(field, elements, m.poly.coeffs)


def _lift_inverse(field: GF, a, u, mod) -> list:
    """The inverse of a modulo mod, trimmed, from its inverse u modulo a
    divisor m of mod with mod | m**2, by one Newton step u * (2 - a*u):
    1 - a*u is a multiple of m, and 1 - a*u*(2 - a*u) = (1 - a*u)**2.
    """
    au = _mulmod_list(field, a, u, mod)
    return _trim(_mulmod_list(field, u, _sub_list(field, [2 % field.p], au), mod))


def _quotients(field: GF, pairs, mod, lift=None) -> tuple[list, list]:
    """The residues num/den modulo mod of residue pairs (num, den), trimmed,
    with the inverses of their dens.  The residue 1 is its own inverse and
    leaves num as it is; every other inverse is an extended Euclid on
    coefficient lists (_invmod_list), or, given lift, the same inverses
    modulo base**(e-1) where mod is base**e with e >= 2, a Newton step
    from each of them (_lift_inverse).
    """
    dens = [den for _, den in pairs]
    if lift is None:
        inverses = [a if a == [1] else _invmod_list(field, a, mod) for a in dens]
    else:
        inverses = [a if a == [1] else _lift_inverse(field, a, u, mod) for a, u in zip(dens, lift)]
    quotients = [
        num if u == [1] else _trim(_mulmod_list(field, num, u, mod)) for (num, _), u in zip(pairs, inverses)
    ]
    return quotients, inverses


def _search_inputs(field: GF, pairs, n: int, rhs: int, mod, lift=None) -> tuple[tuple, list]:
    """The search's inputs modulo mod, from the residue pairs (num, den) of
    the n generators and then of b_1..b_M, with the inverses they divided by
    (_quotients, which takes lift): the generator steps num/den as
    coefficient tuples, the lists c_i of -b_i/b_M for the first M - 1
    coordinates, and t of rhs/b_M, so that the last coordinate is
    t + sum(c_i * x_i).  b_M enters as its reciprocal pair (den, num), so
    its quotient is 1/b_M, which is t when rhs is 1, and each c_i is -b_i
    times it.  With no coefficients, c and t are empty.
    """
    if len(pairs) > n:
        pairs = pairs[:-1] + [pairs[-1][::-1]]
    residues, inverses = _quotients(field, pairs, mod, lift)
    steps = [tuple(x) for x in residues[:n]]
    if len(pairs) == n:
        return (steps, [], []), inverses
    inv_last = residues[-1]
    neg_inv = _neg_list(field, inv_last)
    scaled = [_trim(_mulmod_list(field, x, neg_inv, mod)) for x in residues[n:-1]]
    return (steps, scaled, inv_last if rhs else []), inverses


def residue_group(group: GeneratedGroup, m: Modulus) -> dict[Poly, tuple[int, ...]]:
    """The full image of the group in a residue ring: each element with its
    coset word, which is nonnegative and rebuilds the residue, in the order
    and with the refusal of _coset_listing.  The generators must be units
    at the modulus place (_modulus_residues).
    """
    field, mod = group.field, m.poly.coeffs
    pairs = _modulus_residues(field, m, group.generators, "generator")
    steps = [tuple(x) for x in _quotients(field, pairs, mod)[0]]
    return {Poly(field, x): w for x, w in _coset_listing(field, steps, mod)}


def sl_search(eq: Equation, group: GeneratedGroup, m: Modulus) -> SLWitness | None:
    """Exhaustive search for b . x = rhs in the residue ring, over group images.

    The residue group is searched while it is listed (_first_solution), and
    the first solution found is returned, with coset words.  The
    coefficients, then the generators, must be units at the modulus place
    (_modulus_residues).
    """
    field, mod, n = group.field, m.poly.coeffs, len(group.generators)
    b_pairs = _modulus_residues(field, m, eq.b, "equation coefficient")
    pairs = _modulus_residues(field, m, group.generators, "generator") + b_pairs
    hit = _first_solution(field, *_search_inputs(field, pairs, n, eq.rhs, mod)[0], mod)[0]
    if hit is None:
        return None
    residues, words = hit
    return SLWitness(m, tuple(Poly(field, x) for x in residues), words)


def _first_solution(field: GF, steps, scaled, target, mod) -> tuple[tuple | None, int]:
    """The first solution of b . x = rhs over the residue group, searched
    while the group is listed, as its residues (coefficient tuples) and
    their coset words, or None; with the number of elements listed.  The
    inputs come from _search_inputs.

    When an element y is listed, every tuple whose latest-listed coordinate
    is y is checked: y is looked up among the last coordinates that the
    earlier prefixes of the first M - 1 coordinates need; then each prefix
    that holds y, drawn from the elements listed so far, has its need
    looked up among them.  Needs are ring elements, so their dict holds at
    most q**(deg*e) entries.  The listing stops at the first hit; with no
    hit it runs to the end, and the count is |H|.  Each element costs
    M - 1 modular products on coefficient tuples, and each prefix M - 1
    additions.
    """
    k = len(scaled)
    listed = {}  # residue -> word, for the elements listed so far
    terms = []  # per listed element, in order: its residue and the products c_i * x
    needs = {tuple(target): ()} if k == 0 else {}  # need -> the first prefix that needed it

    def hit(prefix, last):
        residues = tuple(terms[i][0] for i in prefix) + (last,)
        return residues, tuple(listed[x] for x in residues)

    for y, w in _coset_listing(field, steps, mod):
        n = len(terms)
        listed[y] = w
        prefix = needs.get(y)
        if prefix is not None:
            return hit(prefix, y), n + 1
        # the identity comes first, and c * 1 is c
        terms.append((y, [_mulmod_list(field, c, y, mod) for c in scaled] if n else scaled))
        # each prefix that holds y, first at position j: earlier elements
        # before it, any listed element after it
        for j in range(k):
            for prefix in itertools.product(*[range(n)] * j, (n,), *[range(n + 1)] * (k - 1 - j)):
                need = target
                for i, x in enumerate(prefix):
                    need = _add_list(field, need, terms[x][1][i])
                need = tuple(_trim(need))
                if need in listed:
                    return hit(prefix, need), n + 1
                needs.setdefault(need, prefix)
    return None, len(terms)


def verify_obstruction(
    witness: ObstructionWitness, eq: Equation, group: GeneratedGroup
) -> bool:
    """Re-check an obstruction by full enumeration of the residue tuples:
    b . x is summed modulo the modulus over every tuple of the residue
    group.  The generators, then the coefficients, must be units at the
    modulus place (_modulus_residues).
    """
    m, field = witness.modulus, group.field
    mod = m.poly.coeffs
    image = [x.coeffs for x in residue_group(group, m)]
    pairs = _modulus_residues(field, m, eq.b, "equation coefficient")
    b_res = _quotients(field, pairs, mod)[0]
    target = [1] if eq.rhs else []
    for combo in itertools.product(image, repeat=eq.arity):
        acc = []
        for bi, xi in zip(b_res, combo):
            acc = _add_list(field, acc, _mulmod_list(field, bi, xi, mod))
        if _trim(acc) == target:
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
    group: GeneratedGroup,
    deg_bound: int,
    e_bound: int,
) -> ObstructionWitness | None:
    """First modulus (by (deg*e, deg, base, e)) where the congruence has no solution.

    Moduli run over monic irreducibles up to the given degree, with
    exponents up to e_bound, that divide no numerator or denominator of a
    generator or coefficient (_unit_residues, so nothing is factored).  The
    remainders of that test are the residue pairs at e = 1; at e >= 2 each
    numerator and denominator is reduced modulo base**e, built from
    base**(e-1) by one product when the scan reaches it, and the inverses
    the search's inputs divide by (_search_inputs) are lifted from
    base**(e-1) by one Newton step each.
    Each residue group is searched while it is listed (_first_solution), so
    a modulus with a solution stops at the first one, and an obstruction's
    group_size is the full count |H|.  A running total counts the residue
    elements listed at moduli with a solution; before a degree's bases are
    first listed, deg for each of the q**deg candidates that listing tests
    for irreducibility (a test takes at most deg modular powerings); and
    before each modulus base**e is built, its degree deg*e.  Past
    errors.DEFAULT_GROUP_LIMIT the scan stops with ResourceLimitError.
    """
    if deg_bound < 1 or e_bound < 1:
        raise ValueError("bounds must be >= 1")
    field, n = group.field, len(group.generators)
    elements = group.generators + eq.b
    searched, limit = 0, errors.DEFAULT_GROUP_LIMIT

    def charge(count: int) -> None:
        nonlocal searched
        searched += count
        if searched > limit:
            errors.refuse("scan charge", searched, limit)

    # degree -> its bases that keep every generator and coefficient a unit,
    # each as [base, base**e at the last exponent e scanned, the residue
    # pairs of its unit test, the inverses its search divided by there]
    kept = {}
    for d, e in _moduli(deg_bound, e_bound):
        if e == 1:
            charge(d * field.q**d)
            # bases in sort-key order, tested once per degree (memoized)
            kept[d] = []
            for base in monic_irreducibles(field, d):
                pairs = _unit_residues(field, elements, base.coeffs)
                if pairs is not None:
                    kept[d].append([base, base.coeffs, pairs, None])
        for entry in kept[d]:
            base, mod, pairs, inverses = entry
            charge(d * e)
            if e > 1:
                mod = entry[1] = tuple(_mul_list(field, mod, base.coeffs))
                pairs = _unit_residues(field, elements, mod)
            # the inverses are lifted from base**(e-1) for e >= 2
            args, entry[3] = _search_inputs(field, pairs, n, eq.rhs, mod, inverses)
            hit, listed = _first_solution(field, *args, mod)
            if hit is None:
                return ObstructionWitness(Modulus(base, e), listed)
            charge(listed)
    return None


def _residue_bases(field: GF):
    """Monic irreducibles with a nonzero constant term, degree by degree from
    the least d with q**d >= _RESIDUE_FIELD_SIZE, each degree in sort-key
    order.  Where that q**d would pass errors.MAX_FIELD_ORDER, d is 1 and
    the residue field is F_q itself; a degree whose residue field would
    pass the bound is refused with ResourceLimitError when the scan reaches
    it, so every residue field's tables keep the bound of every GF table.
    """
    q, bound = field.q, errors.MAX_FIELD_ORDER
    d = 1
    while q**d < _RESIDUE_FIELD_SIZE:
        d += 1
    if q**d > bound:
        d = 1
    for degree in itertools.count(d):
        if q**degree > bound:
            errors.refuse("residue field order", q**degree, bound)
        for low in itertools.product(range(1, q), *[range(q)] * (degree - 1)):
            base = Poly(field, low + (1,))
            if is_irreducible(base):
                yield base


@functools.lru_cache(maxsize=64)
def _first_residue_base(field: GF) -> tuple:
    """The first residue base as a coefficient tuple, memoized per field."""
    return next(_residue_bases(field)).coeffs


def _residue_field(field: GF, mod) -> tuple:
    """The exp and log tables of the residue field F_q[T]/(mod) at a residue
    base mod, and its sum, on residues encoded as sum(c_i * q**i).

    At a degree-1 base the residue field is F_q, and the field's own tables
    and sum serve.  Otherwise the tables are the field table builder's
    (field._tables, which memoizes them per (field, mod)), and sums are XOR
    for p == 2 and Zech sums for odd p.
    """
    if len(mod) == 2:
        return field.exp_table, field.log_table, field.add
    exp, log, zech = _tables(field, tuple(mod))
    if zech is None:  # p == 2
        return exp, log, operator.xor

    def add(a, b):
        if not a or not b:
            return a or b
        la = log[a]
        z = zech[log[b] - la]
        return 0 if z < 0 else exp[la + z]

    return exp, log, add


def _residue_modulus(field: GF, elements) -> tuple[tuple, list]:
    """The first residue base that divides no numerator or denominator of
    the elements, as a coefficient tuple, with the residue pairs of the
    unit test that kept it (_unit_residues).

    Reduction modulo such a base is a ring homomorphism on every fraction
    built from the elements and their inverses, so equal values have equal
    residues.  The memoized first base almost always qualifies; past it
    the scan resumes at the next base, each base tested once, and it ends
    because the elements have finitely many places (or is refused at a
    residue field past the bound, _residue_bases).
    """
    first = _first_residue_base(field)
    for mod in itertools.chain([first], (b.coeffs for b in _residue_bases(field) if b.coeffs != first)):
        pairs = _unit_residues(field, elements, mod)
        if pairs is not None:
            return mod, pairs


def sg_search(
    eq: Equation, group: GeneratedGroup, word_bound: int
) -> tuple[SolutionPoint, ...]:
    """All exact solutions with per-coordinate words in [-B, B]**generators.

    This is the independent oracle for the certified solver: plain word
    enumeration, which shares the field's arithmetic and table builder
    with the solver but uses no derivative, elimination, representative
    set or membership test.
    The last coordinate is solved for and looked up among the values of
    the word box, which finds exactly the solutions of the full box
    enumeration.  Each value of the box appears once, with its first word
    in itertools.product order, and the points come in itertools.product
    order over those values.

    The box is searched in the residue field modulo one auxiliary
    irreducible base f (see _residue_modulus), on its exp and log tables
    (_residue_field), and each hit is confirmed exactly.  The residues
    that f's unit test left become logs: a generator's is l_i, a word's
    residue is sum(e_i * l_i) mod N, and the coefficients give the logs of
    c_i = -b_i/b_M and the encoded t = rhs/b_M, so that the last coordinate
    is t + sum(c_i * x_i).  The words are bucketed by encoded residue, and
    exact values (word_product, memoized) are built only to tell apart the
    words of one bucket.  A box point over the first M - 1 coordinates
    costs M - 1 table products c_i * x_i = exp[log c_i + log x_i] and as
    many sums; one whose need lands in a bucket is rebuilt in exact
    arithmetic and compared with that bucket's values.  Equal values have
    equal residues, so no solution is lost.  The word box is charged
    before any of this work.
    """
    if word_bound < 1:
        raise ValueError("word bound must be >= 1")
    n = len(group.generators)
    box = (2 * word_bound + 1) ** (n * eq.arity)
    if box > errors.DEFAULT_BOX_LIMIT:
        errors.refuse("word box", box, errors.DEFAULT_BOX_LIMIT)
    field = group.field
    q = field.q
    mod, pairs = _residue_modulus(field, group.generators + eq.b)
    exp, log, add = _residue_field(field, mod)
    order = len(log) - 1

    def log_of(residue):
        code = 0
        for c in reversed(residue):
            code = code * q + c
        return log[code]

    logs = [(log_of(num) - log_of(den)) % order for num, den in pairs]
    lb = logs[-1]  # of b_M
    # -1 is g**(N/2) for odd p, and 1 for p == 2
    minus = order // 2 if field.p != 2 else 0
    scaled = [(x - lb + minus) % order for x in logs[n:-1]]
    target = exp[order - lb] if eq.rhs else 0
    exponents = range(-word_bound, word_bound + 1)
    # each word with the log of its residue, in itertools.product order
    table = [((), 0)]
    for step in logs[:n]:
        table = [(w + (e,), (x + e * step) % order) for w, x in table for e in exponents]

    value = functools.cache(group.word_product)
    # the first word of each distinct value, bucketed by encoded residue
    buckets: dict[int, list[tuple[int, ...]]] = {}
    entries = []
    for word, x in table:
        bucket = buckets.setdefault(exp[x], [])
        if not any(value(w) == value(word) for w in bucket):
            bucket.append(word)
            entries.append((x, word))
    rhs = RatFunc.constant(field, eq.rhs)
    found = []
    for prefix in itertools.product(entries, repeat=len(scaled)):
        need = target
        for c, (x, _) in zip(scaled, prefix):
            need = add(need, exp[c + x])
        bucket = buckets.get(need)
        if bucket is None:
            continue
        coords = tuple(value(w) for _, w in prefix)
        acc = RatFunc.zero(field)
        for bi, xi in zip(eq.b, coords):
            acc = acc + bi * xi
        last = (rhs - acc) / eq.b[-1]
        for w in bucket:
            if value(w) == last:
                found.append(SolutionPoint(coords + (last,), tuple(wd for _, wd in prefix) + (w,)))
                break
    return tuple(found)


def closure_probe(g: RatFunc, base: Poly, exponent: int, n_max: int) -> StabilizationReport:
    """Residues of g**(p**(n!)) for n = 1..n_max modulo base**exponent, with
    the stabilization index.

    The factorial-power exponent is never materialized: it is tracked
    modulo the residue-ring unit group order through the recurrence
    p**(n!) = (p**((n-1)!))**n.  Each input is checked once, before any
    powering, in this order.  First n_max >= 1.  Then the bounds, which
    need only deg(base), so a base too large to probe is refused before
    its irreducibility test: one residue is kept per term, so n_max past
    errors.DEFAULT_GROUP_LIMIT is refused, the bound on a listed residue
    group; and each term is a powering modulo base**exponent, of degree
    D = deg(base) * exponent, to an exponent below the unit group order,
    which has about D * log2(q) bits, so the probe is charged
    n_max * D**3 * q.bit_length(), an upper bound on its powering work, and
    refused past errors.DEFAULT_BOX_LIMIT.  Then the modulus (Modulus: the
    exponent >= 1 and the base monic irreducible), and last g, which must
    be a unit at the base (_modulus_residues).  The bounds refuse with
    ResourceLimitError; a bad n_max, exponent, base or g with InputError
    (a ValueError).
    """
    if n_max < 1:
        raise errors.InputError("n_max must be >= 1")
    field, d = g.field, base.degree()
    if n_max > errors.DEFAULT_GROUP_LIMIT:
        errors.refuse("n_max", n_max, errors.DEFAULT_GROUP_LIMIT)
    charge = n_max * (d * exponent) ** 3 * field.q.bit_length()
    if charge > errors.DEFAULT_BOX_LIMIT:
        errors.refuse("probe charge", charge, errors.DEFAULT_BOX_LIMIT)
    try:
        m = Modulus(base, exponent)
    except ValueError as exc:
        raise errors.InputError(str(exc)) from None
    modpoly = m.poly
    pairs = _modulus_residues(field, m, (g,), "probe element")
    g_res = Poly(field, tuple(_quotients(field, pairs, modpoly.coeffs)[0][0]))
    order = (field.q**d - 1) * field.q ** (d * (exponent - 1))
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
    return StabilizationReport(tuple(residues), n0, stable)

"""Brute-force congruence probes complementing the certified solver.

These routines exercise the local side of the local-global picture at
finite precision: the image of the group in a residue ring
F_q[t]/(base**e) is enumerated exhaustively, congruence solvability of
b . x = rhs is searched over that image, moduli are scanned for one that
obstructs solvability, and an exact word-bounded global search doubles as
an oracle for the certified results.  The probe of iterated-factorial
Frobenius powers watches a canonical convergent sequence stabilize at
finite precision.

The image is the closure of the reduced generators under multiplication,
listed with nonnegative generator words.  The unit group of the residue
ring is finite, so the powers of each generator reach its inverse and no
inverse steps are taken.
"""

import itertools
from dataclasses import dataclass
from functools import cached_property

from .errors import ResourceLimitError
from .poly import Poly, monic_irreducibles, poly_powmod
from .ratfunc import Modulus, RatFunc, finite_support, reduce_mod, valuation
from .solver import Equation, SolutionPoint
from .unitgroup import SubgroupPresentation, closure

DEFAULT_BOX_LIMIT = 10**8


@dataclass(frozen=True)
class ResidueGroup:
    """The full image of the group in a residue ring, with generator words.

    The words are nonnegative: the image is finite, so no inverse steps.
    """

    modulus: Modulus
    elements: tuple[Poly, ...]
    words: tuple[tuple[int, ...], ...]

    def __len__(self):
        return len(self.elements)

    @cached_property
    def index(self) -> dict[Poly, int]:
        return {e: i for i, e in enumerate(self.elements)}


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
    if x.is_zero or valuation(x, m.place) != 0:
        raise ValueError(f"{what} is not a unit at the modulus place")


def residue_group(group: SubgroupPresentation, m: Modulus) -> ResidueGroup:
    """Close the reduced generators under multiplication.

    The image is finite, so the powers of a generator reach its inverse.
    """
    modpoly = m.poly
    gen_res = []
    for g in group.generators:
        _require_unit(g, m, "generator")
        gen_res.append(reduce_mod(g, m))
    one = Poly.one(group.field) % modpoly
    found = closure(one, gen_res, lambda a, b: (a * b) % modpoly)
    return ResidueGroup(m, tuple(found), tuple(found.values()))


def sl_search(eq: Equation, group: SubgroupPresentation, m: Modulus) -> SLWitness | None:
    """Exhaustive search for b . x = rhs in the residue ring, over group images.

    The box over the first arity-1 coordinates is enumerated and the last
    coordinate is solved for and looked up, which visits exactly the
    solutions the full product enumeration would.
    """
    for x in eq.b:
        _require_unit(x, m, "equation coefficient")
    return _search_residues(eq, residue_group(group, m))


def _search_residues(eq: Equation, rg: ResidueGroup) -> SLWitness | None:
    """The box search of sl_search over an already built residue group."""
    m = rg.modulus
    modpoly = m.poly
    field = m.base.field
    b_res = [reduce_mod(x, m) for x in eq.b]
    inv_last = reduce_mod(eq.b[-1].inverse(), m)
    target = Poly.constant(field, eq.rhs) % modpoly
    arity = eq.arity
    for prefix in itertools.product(range(len(rg.elements)), repeat=arity - 1):
        partial = Poly.zero(field)
        for bi, xi in zip(b_res, prefix):
            partial = (partial + bi * rg.elements[xi]) % modpoly
        need = ((target - partial) * inv_last) % modpoly
        j = rg.index.get(need)
        if j is not None:
            residues = tuple(rg.elements[i] for i in prefix) + (rg.elements[j],)
            words = tuple(rg.words[i] for i in prefix) + (rg.words[j],)
            return SLWitness(m, residues, words)
    return None


def verify_obstruction(
    witness: ObstructionWitness, eq: Equation, group: SubgroupPresentation
) -> bool:
    """Re-check an obstruction by full enumeration of the residue tuples."""
    rg = residue_group(group, witness.modulus)
    modpoly = witness.modulus.poly
    field = group.field
    b_res = [reduce_mod(x, witness.modulus) for x in eq.b]
    target = Poly.constant(field, eq.rhs) % modpoly
    for combo in itertools.product(rg.elements, repeat=eq.arity):
        acc = Poly.zero(field)
        for bi, xi in zip(b_res, combo):
            acc = (acc + bi * xi) % modpoly
        if acc == target:
            return False
    return True


def _moduli(field, excluded, deg_bound: int, e_bound: int):
    """(base, e) in (deg*e, deg, base, e) order, with bases outside excluded.

    Each weight deg*e fixes e once deg is chosen, and monic_irreducibles
    lists bases in sort-key order, so the walk needs no sort; a degree's
    bases are listed only once the walk reaches it.
    """
    for weight in range(1, deg_bound * e_bound + 1):
        for d in range(1, min(weight, deg_bound) + 1):
            e, rem = divmod(weight, d)
            if rem == 0 and e <= e_bound:
                for base in monic_irreducibles(field, d):
                    if base not in excluded:
                        yield base, e


def find_local_obstruction(
    eq: Equation,
    group: SubgroupPresentation,
    deg_bound: int,
    e_bound: int,
) -> ObstructionWitness | None:
    """First modulus (by (deg*e, deg, base, e)) where the congruence has no solution.

    Moduli run over monic irreducibles outside the support of the equation
    and the group, up to the given degree, with exponents up to e_bound.
    """
    if deg_bound < 1 or e_bound < 1:
        raise ValueError("bounds must be >= 1")
    excluded = {pl.poly for pl in group.support}
    for x in eq.b:
        excluded.update(pl.poly for pl in finite_support(x))
    for base, e in _moduli(group.field, excluded, deg_bound, e_bound):
        # bases outside the support keep every coefficient a unit
        m = Modulus(base, e)
        rg = residue_group(group, m)
        if _search_residues(eq, rg) is None:
            return ObstructionWitness(m, len(rg))
    return None


def sg_search(
    eq: Equation, group: SubgroupPresentation, word_bound: int
) -> tuple[SolutionPoint, ...]:
    """All exact solutions with per-coordinate words in [-B, B]**generators.

    This is the independent oracle for the certified solver: plain word
    enumeration and exact arithmetic, no derivatives anywhere.  The last
    coordinate is solved for and looked up in the word-box value table,
    which finds exactly the solutions of the full box enumeration.
    """
    if word_bound < 1:
        raise ValueError("word bound must be >= 1")
    n = len(group.generators)
    if (2 * word_bound + 1) ** (n * eq.arity) > DEFAULT_BOX_LIMIT:
        raise ResourceLimitError("word box exceeds the configured bound")
    powers = [
        {e: g**e for e in range(-word_bound, word_bound + 1)} for g in group.generators
    ]
    table: dict[RatFunc, tuple[int, ...]] = {}
    for word in itertools.product(range(-word_bound, word_bound + 1), repeat=n):
        value = RatFunc.one(group.field)
        for i, e in enumerate(word):
            if e:
                value = value * powers[i][e]
        table.setdefault(value, word)
    values = list(table.items())
    field = group.field
    target = RatFunc.constant(field, eq.rhs)
    b_last = eq.b[-1]
    found: dict[tuple[RatFunc, ...], SolutionPoint] = {}
    for prefix in itertools.product(values, repeat=eq.arity - 1):
        acc = RatFunc.zero(field)
        for bi, (xi, _) in zip(eq.b, prefix):
            acc = acc + bi * xi
        need = (target - acc) / b_last
        if need.is_zero:
            continue
        w = table.get(need)
        if w is not None:
            point = tuple(x for x, _ in prefix) + (need,)
            words = tuple(wd for _, wd in prefix) + (w,)
            found.setdefault(point, SolutionPoint(point, words))
    return tuple(found.values())


def closure_probe(g: RatFunc, m: Modulus, n_max: int) -> StabilizationReport:
    """Residues of g**(p**(n!)) for n = 1..n_max, with the stabilization index.

    The factorial-power exponent is never materialized: it is tracked
    modulo the residue-ring unit group order through the recurrence
    p**(n!) = (p**((n-1)!))**n.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    _require_unit(g, m, "probe element")
    field = g.field
    d = m.base.degree()
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

"""Finitely generated subgroups of the unit group of F_q(t), given by generators.

A presentation records, for each generator, its exponent vector over the
places supporting the group (monic irreducible polynomials, in
Poly.sort_key order) and its leading unit in F_q*.

Every element of the group is a unit away from its support, so membership
factors nothing: the exponents of x at the support places are read by
trial division, and x has a stray place exactly when what the divisions
leave of it is not constant.  The witness keeps that leftover part
(off_support) and names no stray place; nothing in the package reads one.
Otherwise membership reduces to an integer-lattice solve (Hermite normal
form) plus an exact coset computation for the F_q* constants, so witnesses
always reconstruct the queried element exactly; the coset search is
closure, the breadth-first closure of a finite group.  closure serves
membership only: residue images (``localprobe.residue_group``) are listed
by cosets, and solution words depend on closure's breadth-first words.

Representative sets of the quotient by the subgroup of elements lying in
F_q(t**(p**m)) are read off the Hermite form of the lattice of words whose
exponents vanish mod p**m, with no scan over words: each residue class is
listed once, by its lexicographically smallest nonnegative generator word,
so the listing is deterministic.  A representative set is that list of
words: a reader multiplies out (word_product) or keys (residue_key) only
the words it uses.  A representative set and a closure each list at most
errors.DEFAULT_GROUP_LIMIT elements.
"""

import itertools
import math
from dataclasses import dataclass

from . import errors
from .errors import InternalCheckError
from .field import GF
from .hasse import prime_power
from .intlattice import hnf_with_transform, solve_left
from .poly import Poly
from .ratfunc import RatFunc, divisor_vector, multiplicity


@dataclass(frozen=True)
class SubgroupPresentation:
    field: GF
    generators: tuple[RatFunc, ...]
    support: tuple[Poly, ...]
    exponent_matrix: tuple[tuple[int, ...], ...]
    constants: tuple[int, ...]

    def word_product(self, word) -> RatFunc:
        """The exact element prod(generator**exponent)."""
        out = RatFunc.one(self.field)
        for g, e in zip(self.generators, word):
            if e:
                out = out * g**e
        return out

    def word_constant(self, word) -> int:
        f = self.field
        out = 1
        for c, e in zip(self.constants, word):
            if e:
                out = f.mul(out, f.power(c, e))
        return out


@dataclass(frozen=True)
class MembershipWitness:
    """A member's reconstructing word, or why x is not a member: a support
    place where the exponent lattice fails (lattice_place), the part of x
    off the group's support (off_support), or an unreachable F_q* constant.
    """

    member: bool
    word: tuple[int, ...] | None = None
    lattice_place: Poly | None = None
    constant_mismatch: bool = False
    off_support: RatFunc | None = None


def build_presentation(gens) -> SubgroupPresentation:
    """Compute support, exponent matrix and constants from the generators."""
    gens = tuple(gens)
    if not gens:
        raise ValueError("at least one generator is required")
    field = gens[0].field
    divisors = []
    constants = []
    support: set[Poly] = set()
    for g in gens:
        if g.is_zero:
            raise ValueError("generators must be nonzero")
        dv, const = divisor_vector(g)
        divisors.append(dv)
        constants.append(const)
        support.update(dv)
    places = tuple(sorted(support, key=Poly.sort_key))
    matrix = tuple(tuple(dv.get(pl, 0) for pl in places) for dv in divisors)
    return SubgroupPresentation(field, gens, places, matrix, tuple(constants))


def _exponent_target(x: RatFunc, group: SubgroupPresentation):
    """Exponents of x over the group support, its leading unit, and the part
    of x off the support (None when that part is constant).

    The exponents are read by trial division at the support places.  The
    denominator and every place are monic, so the leading unit is that of
    the numerator, and what the divisions leave of x is its part at the
    other finite places.
    """
    num, den = x.num, x.den
    target = []
    for pl in group.support:
        k, num = multiplicity(num, pl)
        if not k:  # the fraction is reduced: a place divides num or den, not both
            k, den = multiplicity(den, pl)
            k = -k
        target.append(k)
    off = None if len(num.coeffs) == 1 and len(den.coeffs) == 1 else RatFunc(num, den)
    return target, x.num.leading, off


def closure(one, steps, mul) -> dict:
    """The subgroup of a finite group generated by steps, each element with
    the first nonnegative word (one exponent per step) that a breadth-first
    search trying the steps in order finds.  The powers of a step reach its
    inverse, so no inverse steps are needed.  Membership reads its F_q*
    constants here, and solution words depend on these words.
    """
    limit = errors.DEFAULT_GROUP_LIMIT
    found = {one: (0,) * len(steps)}
    queue = [one]
    for cur in queue:  # the loop also visits elements appended during it
        word = found[cur]
        for i, step in enumerate(steps):
            nxt = mul(cur, step)
            if nxt not in found:
                found[nxt] = word[:i] + (word[i] + 1,) + word[i + 1 :]
                queue.append(nxt)
                if len(found) > limit:
                    errors.refuse("listed group size", len(found), limit)
    return found


def member(x: RatFunc, group: SubgroupPresentation) -> MembershipWitness:
    """Exact membership with a reconstructing word or a concrete obstruction."""
    if x.is_zero:
        raise ValueError("membership is asked of nonzero elements")
    target, const, off = _exponent_target(x, group)
    if off is not None:
        return MembershipWitness(False, off_support=off)
    word0, kernel, failing = solve_left(
        [list(r) for r in group.exponent_matrix], len(group.support), target
    )
    if word0 is None:
        return MembershipWitness(False, lattice_place=group.support[failing])
    f = group.field
    need = f.div(const, group.word_constant(word0))
    combo = closure(1, [group.word_constant(w) for w in kernel], f.mul).get(need)
    if combo is None:
        return MembershipWitness(False, constant_mismatch=True)
    word = list(word0)
    for c, krow in zip(combo, kernel):
        if c:
            for j in range(len(word)):
                word[j] += c * krow[j]
    word = tuple(word)
    if group.word_product(word) != x:
        raise InternalCheckError("membership word failed to reconstruct the element")
    return MembershipWitness(True, word=word)


def representatives(group: SubgroupPresentation, m: int) -> tuple[tuple[int, ...], ...]:
    """Deterministic representatives of the quotient mod F_q(t**(p**m))-members,
    as generator words in lexicographic order.

    The words of residue key 0 form a lattice L containing p**m * Z**n; the
    Hermite form of [A | I] over [p**m * I | 0] gives L an upper-triangular
    basis with pivots d_1..d_n.  Each class of Z**n / L then holds exactly one
    word with 0 <= w_i < d_i, its lexicographically smallest nonnegative word.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    pm = prime_power(group.field, m)
    k, n = len(group.support), len(group.generators)
    rows = [list(a) + [int(i == j) for j in range(n)] for i, a in enumerate(group.exponent_matrix)]
    rows += [[pm * (i == j) for j in range(k + n)] for i in range(k)]
    H, _, pivots = hnf_with_transform(rows, k + n)
    sizes = [H[i][c] for i, c in enumerate(pivots) if c >= k]
    size = math.prod(sizes)
    if size > errors.DEFAULT_GROUP_LIMIT:
        errors.refuse("representative set size", size, errors.DEFAULT_GROUP_LIMIT)
    return tuple(itertools.product(*map(range, sizes)))


def residue_key(group: SubgroupPresentation, word, m: int) -> tuple[int, ...]:
    pm = prime_power(group.field, m)
    return tuple(
        sum(w * group.exponent_matrix[g][c] for g, w in enumerate(word)) % pm
        for c in range(len(group.support))
    )

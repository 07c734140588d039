"""Finitely generated subgroups of the unit group of F_q(t), given by generators.

A presentation records, for each generator, its exponent vector over the
finite places supporting the group and its leading unit in F_q*.  The
infinite place is deliberately excluded from the exponent lattice: the
degree-zero identity of principal divisors makes it redundant.

Membership reduces to an integer-lattice solve (Hermite normal form) plus
an exact coset computation for the F_q* constants, so witnesses always
reconstruct the queried element exactly; the coset search is closure, the
breadth-first closure of a finite group that also lists residue images.
Radical membership is lattice saturation; the torsion part is automatic
because F_q* is finite.

Representative sets of the quotient by the subgroup of elements lying in
F_q(t**(p**m)) are read off the Hermite form of the lattice of words whose
exponents vanish mod p**m, with no scan over words: each residue class is
listed once, by its lexicographically smallest nonnegative generator word,
so the listing is deterministic.  A representative set is that list of
words: a reader multiplies out (word_product) or keys (residue_key) only
the words it uses.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .errors import InternalCheckError, ResourceLimitError
from .field import GF
from .hasse import in_power_subfield, prime_power
from .intlattice import hnf_with_transform, in_rational_rowspan, solve_left
from .ratfunc import Place, RatFunc, divisor_vector

DEFAULT_REPSET_LIMIT = 100_000
DEFAULT_GROUP_LIMIT = 100_000


@dataclass(frozen=True)
class SubgroupPresentation:
    field: GF
    generators: tuple[RatFunc, ...]
    support: tuple[Place, ...]
    exponent_matrix: tuple[tuple[int, ...], ...]
    constants: tuple[int, ...]

    @cached_property
    def place_index(self) -> dict[Place, int]:
        return {pl: i for i, pl in enumerate(self.support)}

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
    member: bool
    word: tuple[int, ...] | None = None
    obstruction_place: Place | None = None
    constant_mismatch: bool = False

    @property
    def verdict(self) -> str:
        return "member" if self.member else "non-member"


def build_presentation(gens) -> SubgroupPresentation:
    """Compute support, exponent matrix and constants from the generators."""
    gens = tuple(gens)
    if not gens:
        raise ValueError("at least one generator is required")
    field = gens[0].field
    divisors = []
    constants = []
    support: set[Place] = set()
    for g in gens:
        if g.is_zero:
            raise ValueError("generators must be nonzero")
        dv, const = divisor_vector(g)
        divisors.append(dv)
        constants.append(const)
        support.update(dv.finite_support())
    places = tuple(sorted(support, key=lambda pl: pl.sort_key()))
    matrix = tuple(
        tuple(dv.get(pl) for pl in places) for dv in divisors
    )
    return SubgroupPresentation(field, gens, places, matrix, tuple(constants))


def _exponent_target(x: RatFunc, group: SubgroupPresentation):
    """Exponents of x over the group support, or the first stray place."""
    dv, const = divisor_vector(x)
    target = [0] * len(group.support)
    for pl, e in dv.entries:
        if pl.is_infinite:
            continue
        idx = group.place_index.get(pl)
        if idx is None:
            return None, const, pl
        target[idx] = e
    return target, const, None


def closure(one, steps, mul) -> dict:
    """The subgroup of a finite group generated by steps, each element with
    the first nonnegative word (one exponent per step) that a breadth-first
    search trying the steps in order finds.  The powers of a step reach its
    inverse, so no inverse steps are needed.
    """
    found = {one: (0,) * len(steps)}
    queue = [one]
    for cur in queue:  # the loop also visits elements appended during it
        word = found[cur]
        for i, step in enumerate(steps):
            nxt = mul(cur, step)
            if nxt not in found:
                found[nxt] = word[:i] + (word[i] + 1,) + word[i + 1 :]
                queue.append(nxt)
                if len(found) > DEFAULT_GROUP_LIMIT:
                    raise ResourceLimitError(
                        f"finite group exceeds the configured bound {DEFAULT_GROUP_LIMIT}"
                    )
    return found


def member(x: RatFunc, group: SubgroupPresentation) -> MembershipWitness:
    """Exact membership with a reconstructing word or a concrete obstruction."""
    if x.is_zero:
        raise ValueError("membership is asked of nonzero elements")
    target, const, stray = _exponent_target(x, group)
    if stray is not None:
        return MembershipWitness(False, obstruction_place=stray)
    word0, kernel, failing = solve_left(
        [list(r) for r in group.exponent_matrix], len(group.support), target
    )
    if word0 is None:
        return MembershipWitness(False, obstruction_place=group.support[failing])
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


def radical_member(x: RatFunc, group: SubgroupPresentation) -> bool:
    """Whether some positive power of x is a member (lattice saturation).

    Torsion never obstructs: once n * exponents(x) lies in the lattice, a
    further (q-1)-th power moves the leftover F_q* constant to 1.
    """
    if x.is_zero:
        raise ValueError("radical membership is asked of nonzero elements")
    target, _, stray = _exponent_target(x, group)
    if stray is not None:
        return False
    return in_rational_rowspan(
        [list(r) for r in group.exponent_matrix], len(group.support), target
    )


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
    if math.prod(sizes) > DEFAULT_REPSET_LIMIT:
        raise ResourceLimitError(
            f"representative set exceeds the configured bound {DEFAULT_REPSET_LIMIT}"
        )
    return tuple(itertools.product(*map(range, sizes)))


def residue_key(group: SubgroupPresentation, word, m: int) -> tuple[int, ...]:
    pm = prime_power(group.field, m)
    return tuple(
        sum(w * group.exponent_matrix[g][c] for g, w in enumerate(word)) % pm
        for c in range(len(group.support))
    )


def kernel_element_check(x: RatFunc, group: SubgroupPresentation, m: int) -> bool:
    """Whether a member x lies in F_q(t**(p**m)); cross-checked two ways."""
    witness = member(x, group)
    if not witness.member:
        raise ValueError("kernel test is only defined for members of the group")
    by_lattice = all(v == 0 for v in residue_key(group, witness.word, m))
    by_subfield = in_power_subfield(x, m)
    if by_lattice != by_subfield:
        raise InternalCheckError(
            f"kernel tests disagree for {x!r}: lattice {by_lattice}, subfield {by_subfield}"
        )
    return by_lattice

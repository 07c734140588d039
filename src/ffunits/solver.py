"""Certified decision procedure for b . x = 0 and b . x = 1 over the closure
of a finitely generated unit subgroup.

For a chosen precision m the procedure enumerates every tuple r drawn from
the representative set of the group modulo its F_q(t**(p**m)) part and
tests linear independence of the componentwise products b*r over that
subfield:

* homogeneous (rhs 0): if every tuple is independent, the equation has no
  solution with coordinates in the group or in its closure, and the per-r
  witness index sets certify it.  A single dependent tuple makes the
  criterion inapplicable and is reported with its exact relation.

* inhomogeneous (rhs 1): the criterion requires, for every tuple, some
  unit-substituted variant to be independent.  When it applies, each tuple
  whose products and all unit-substituted variants are independent yields
  at most one candidate point, read off the subfield relation of
  (b*r, 1); candidates surviving exact substitution and coordinatewise
  membership form the complete solution set over both the group and its
  closure, bounded in size by the number of such tuples.

Both criteria run in one tuple loop (decide); only the record of a tuple
differs.  For rhs 1 it comes from one call to
wronskian.unit_substitution_verdicts, which returns the verdict of b*r,
those of every psi_j and the candidate.  The point x read off a candidate
is checked by exact substitution, which shares nothing with the
elimination: b . x = 1 holds iff sum_j N_j * prod_{k != j} D_k equals
prod_k D_k, with N_j and D_j the products of the numerators and of the
denominators of b_j and x_j, an identity of polynomials tested on
coefficient lists with no gcd.  A miss raises InternalCheckError.

The representative set is a list of generator words, and row j of the
coordinate matrix of b*r depends only on (j, r_j).  So each decision
multiplies out a word, and builds a row, the first time a tuple reads it,
and every elimination of the tuple loop reads the rows from there.  The
|R|**M tuples are held to errors.DEFAULT_TUPLE_LIMIT before the loop starts.

The verdict of b*r and its witness index set depend only on the orbit of r
under r_j -> r0 * r_j * s_j, with r0 in the group and s_j in F_q(t**(p**m))
(see wronskian).  Two tuples lie in one orbit iff their words have the same
orbit key ((key(w_j) - key(w_1)) mod p**m for j >= 2, componentwise, with
key = residue_key), so there are |R|**(M-1) orbits.  The first independent
certificate of an orbit serves every later tuple of it, with no elimination,
for b*r itself on both right-hand sides.  A dependent tuple still runs its
own elimination, since its relation differs from tuple to tuple; the psi_j
verdicts and the candidate of rhs 1 are not orbit invariant and stay per
tuple.

Inapplicable is a first-class outcome: the criterion is sufficient, not
necessary, and nothing is escalated silently.  A failing tuple is retried
with components scaled by the subfield polynomials
(num(g) * den(g))**(p**m) of the generators g purely to catch arithmetic
bugs.  Each re-test recomputes the coordinate rows of its scaled vector
(for rhs 1, once, shared by its psi_j stacks) and decides rank only
(wronskian.independence_verdict): the verdict is all it compares, so it
reads no relation and builds no witness.
"""

import dataclasses
import functools
import itertools
from dataclasses import dataclass

from . import errors
from .errors import InternalCheckError
from .hasse import prime_power, subfield_coordinates
from .poly import _add_list, _mul_list, _trim
from .ratfunc import RatFunc
from .unitgroup import SubgroupPresentation, member, representatives, residue_key
from .wronskian import (
    IndependenceCertificate,
    coordinate_matrix,
    independence_test,
    independence_verdict,
    psi_rows,
    unit_substitution_verdicts,
)

MAX_DEPENDENCE_RETRIES = 8
# why the first failing tuple fails, by rhs
FAILURE_REASONS = ("dependent-products", "all-unit-substitutions-dependent")


@dataclass(frozen=True)
class Equation:
    """b . X = rhs with rhs restricted to 0 or 1."""

    b: tuple[RatFunc, ...]
    rhs: int

    def __post_init__(self):
        if len(self.b) < 1:
            raise ValueError("the coefficient vector must have at least one entry")
        for x in self.b:
            if x.is_zero:
                raise ValueError("coefficients must be nonzero")
        if self.rhs not in (0, 1):
            raise ValueError("rhs must be 0 or 1")

    @property
    def arity(self) -> int:
        return len(self.b)


@dataclass(frozen=True)
class SolutionPoint:
    coords: tuple[RatFunc, ...]
    words: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class TupleRecord:
    r: tuple[RatFunc, ...]
    r_words: tuple[tuple[int, ...], ...]
    certificate: IndependenceCertificate | None
    psi_certificates: tuple[IndependenceCertificate, ...] | None = None
    candidate: tuple[RatFunc, ...] | None = None
    point: tuple[RatFunc, ...] | None = None
    kept: bool = False
    member_words: tuple[tuple[int, ...] | None, ...] | None = None

    @property
    def fails(self) -> bool:
        """No verdict the criterion reads is independent: that of b*r for
        rhs 0, those of the psi_j for rhs 1.
        """
        return not any(c.independent for c in self.psi_certificates or (self.certificate,))


@dataclass(frozen=True)
class CertifiedReport:
    outcome: str  # certified-empty | certified-solutions | inapplicable
    m: int
    equation: Equation
    repset_size: int
    records: tuple[TupleRecord, ...]
    solutions: tuple[SolutionPoint, ...] | None = None
    bound: int | None = None
    failure: TupleRecord | None = None
    auto_failures: tuple[tuple[int, TupleRecord], ...] = ()


def _tuple_space(reps, arity: int):
    total = len(reps) ** arity
    if total > errors.DEFAULT_TUPLE_LIMIT:
        errors.refuse("representative tuple count", total, errors.DEFAULT_TUPLE_LIMIT)
    return itertools.product(reps, repeat=arity)


def _scaled(br, gen_powers, k: int):
    n = len(gen_powers)
    return tuple(x * gen_powers[(j + k) % n] for j, x in enumerate(br))


def _confirm_failure(rhs: int, br, m: int, generators) -> None:
    """Re-test a failing tuple under scalings by (num(g) * den(g))**(p**m)
    for the generators g; bugs surface here.

    A subfield polynomial cannot change dependence and, unlike g**(p**m),
    adds no denominator for subfield_coordinates to raise to the power
    p**m - 1.  _scaled has period len(gen_powers) in k and the re-test is
    deterministic, so scaling k + n gives the verdict of scaling k: each
    distinct scaled vector is re-tested once, and the re-tests cover all
    MAX_DEPENDENCE_RETRIES scalings.
    """
    pm = prime_power(br[0].field, m)
    gen_powers = [RatFunc.from_poly((g.num * g.den) ** pm) for g in generators]
    for k in range(min(len(gen_powers), MAX_DEPENDENCE_RETRIES)):
        rows = coordinate_matrix(_scaled(br, gen_powers, k), m)
        stacks = (rows,) if rhs == 0 else (psi_rows(rows, j) for j in range(1, len(rows) + 1))
        if any(independence_verdict(s) for s in stacks):
            raise InternalCheckError(
                "dependence verdict changed under a p**m-th power scaling"
            )


def _sums_to_one(b, x) -> bool:
    """Whether b . x = 1, as the polynomial identity
    sum_j N_j * prod_{k != j} D_k == prod_k D_k with N_j = b_j.num * x_j.num
    and D_j = b_j.den * x_j.den: exact, on coefficient lists, with no gcd.
    """
    f = b[0].field
    num, den = [], [1]  # sum_{j < J} N_j / D_j as num / prod_{j < J} D_j
    for u, v in zip(b, x):
        n_j = _mul_list(f, u.num.coeffs, v.num.coeffs)
        d_j = _mul_list(f, u.den.coeffs, v.den.coeffs)
        num = _trim(_add_list(f, _mul_list(f, num, d_j) if num else [], _mul_list(f, n_j, den)))
        den = _mul_list(f, den, d_j)
    return num == den


def _inhomogeneous_record(eq, group, m, r, words, br, rows, known) -> TupleRecord:
    """The rhs-1 record of one tuple: a failing tuple keeps only its psi_j
    verdicts, and a candidate (only an eligible tuple has one) is checked by
    exact substitution, which must give 1, and kept on coordinatewise
    membership.  known is the certificate of b*r when its orbit already
    holds one, else None.
    """
    cert, psi_certs, candidate = unit_substitution_verdicts(br, m, rows, known)
    if not any(c.independent for c in psi_certs):
        return TupleRecord(r, words, None, psi_certs)
    if candidate is None:
        return TupleRecord(r, words, cert, psi_certs)
    point = tuple(x * y for x, y in zip(r, candidate))
    if not _sums_to_one(eq.b, point):
        # the candidate is read off a relation with weight 1 on the row of 1
        raise InternalCheckError("candidate does not satisfy b . x = 1")
    member_words = tuple(member(x, group) for x in point)
    kept = None not in member_words
    return TupleRecord(r, words, cert, psi_certs, candidate, point, kept, member_words)


def decide(
    eq: Equation, group: SubgroupPresentation, m: int, exhaustive: bool = False
) -> CertifiedReport:
    """Decide b . x = rhs at precision m: certify emptiness (rhs 0) or the
    complete solution set (rhs 1), or report the first failing tuple.
    """
    pm = prime_power(group.field, m)
    reps = representatives(group, m)
    element = functools.cache(group.word_product)
    key = functools.cache(lambda word: residue_key(group, word, m))

    @functools.cache
    def product_row(j: int, word):
        x = eq.b[j] * element(word)
        return x, subfield_coordinates(x, m)

    records = []
    failure = None
    independent = {}  # orbit -> the independent certificate of its first tuple
    for words in _tuple_space(reps, eq.arity):
        r = tuple(map(element, words))
        br, rows = zip(*(product_row(j, w) for j, w in enumerate(words)))
        first = key(words[0])
        orbit = tuple(tuple((a - b) % pm for a, b in zip(key(w), first)) for w in words[1:])
        known = independent.get(orbit)
        if eq.rhs == 0:
            rec = TupleRecord(r, words, known or independence_test(br, m, rows=rows))
        else:
            rec = _inhomogeneous_record(eq, group, m, r, words, br, rows, known)
        if rec.certificate is not None and rec.certificate.independent:
            independent.setdefault(orbit, rec.certificate)
        records.append(rec)
        if rec.fails and failure is None:
            _confirm_failure(eq.rhs, br, m, group.generators)
            failure = rec
            if not exhaustive:
                break
    outcome = ("certified-empty", "certified-solutions")[eq.rhs]
    solutions = bound = None
    if failure is not None:
        outcome = "inapplicable"
    elif eq.rhs == 1:
        kept = {rec.point: rec.member_words for rec in records if rec.kept}
        solutions = tuple(SolutionPoint(p, ws) for p, ws in kept.items())
        bound = sum(
            rec.certificate.independent and all(c.independent for c in rec.psi_certificates)
            for rec in records
        )
    return CertifiedReport(outcome, m, eq, len(reps), tuple(records), solutions, bound, failure)


def auto_m(
    eq: Equation, group: SubgroupPresentation, m_max: int, exhaustive: bool = False
) -> CertifiedReport:
    """Scan m = 1..m_max and return the first applicable report.

    When every precision fails, the last report is returned annotated with
    the failing witness of every attempted m.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    failures = []
    report = None
    for m in range(1, m_max + 1):
        report = decide(eq, group, m, exhaustive)
        if report.outcome != "inapplicable":
            return report
        failures.append((m, report.failure))
    return dataclasses.replace(report, auto_failures=tuple(failures))

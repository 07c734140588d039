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
those of every psi_j and the candidate.

The representative set is a list of generator words, and row j of the
coordinate matrix of b*r depends only on (j, r_j).  So each decision
multiplies out a word, and builds a row, the first time a tuple reads it,
and every elimination of the tuple loop reads the rows from there.

Inapplicable is a first-class outcome: the criterion is sufficient, not
necessary, and nothing is escalated silently.  A failing tuple is retried
with components scaled by p**m-th generator powers (which cannot change
dependence over the subfield) purely to catch arithmetic bugs.
"""

import dataclasses
import functools
import itertools
from dataclasses import dataclass

from .errors import InternalCheckError, ResourceLimitError
from .hasse import prime_power, subfield_coordinates
from .ratfunc import RatFunc
from .unitgroup import (
    MembershipWitness,
    SubgroupPresentation,
    member,
    radical_member,
    representatives,
)
from .wronskian import (
    IndependenceCertificate,
    independence_test,
    psi,
    unit_substitution_verdicts,
)

DEFAULT_TUPLE_LIMIT = 1_000_000
MAX_DEPENDENCE_RETRIES = 8


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


def with_unit_rhs(b, c: RatFunc) -> Equation:
    """Normalize b . x = c (c nonzero) to an rhs-1 equation by scaling b."""
    if c.is_zero:
        return Equation(tuple(b), 0)
    inv = c.inverse()
    return Equation(tuple(x * inv for x in b), 1)


def phi(i: int, a):
    """Drop the i-th component (1-indexed) and divide the rest by -a_i."""
    if len(a) < 2:
        raise ValueError("phi needs at least two components")
    if not 1 <= i <= len(a):
        raise IndexError("component index out of range")
    pivot = a[i - 1]
    if pivot.is_zero:
        raise ZeroDivisionError("pivot component is zero")
    return tuple(-(x / pivot) for k, x in enumerate(a) if k != i - 1)


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
    member_witnesses: tuple[MembershipWitness, ...] | None = None

    @property
    def fails(self) -> bool:
        """No verdict the criterion reads is independent: that of b*r for
        rhs 0, those of the psi_j for rhs 1.
        """
        return not any(c.independent for c in self.psi_certificates or (self.certificate,))


@dataclass(frozen=True)
class FailureRecord:
    r: tuple[RatFunc, ...]
    r_words: tuple[tuple[int, ...], ...]
    reason: str
    certificate: IndependenceCertificate | None
    psi_certificates: tuple[IndependenceCertificate, ...] | None
    retries: int


@dataclass(frozen=True)
class CertifiedReport:
    outcome: str  # certified-empty | certified-solutions | inapplicable
    m: int
    equation: Equation
    repset_size: int
    records: tuple[TupleRecord, ...]
    solutions: tuple[SolutionPoint, ...] | None = None
    bound: int | None = None
    failure: FailureRecord | None = None
    auto_failures: tuple[tuple[int, FailureRecord], ...] = ()


def _tuple_space(reps, arity: int):
    total = len(reps) ** arity
    if total > DEFAULT_TUPLE_LIMIT:
        raise ResourceLimitError(
            f"{total} representative tuples exceed the configured bound {DEFAULT_TUPLE_LIMIT}"
        )
    return itertools.product(reps, repeat=arity)


def _scaled(br, gen_powers, k: int):
    n = len(gen_powers)
    return tuple(x * gen_powers[(j + k) % n] for j, x in enumerate(br))


def _confirm_failure(rhs: int, br, m: int, gen_powers) -> int:
    """Re-test a failing tuple under subfield-unit scalings; bugs surface here."""
    if not gen_powers:
        return 0
    for k in range(MAX_DEPENDENCE_RETRIES):
        v = _scaled(br, gen_powers, k)
        tested = (v,) if rhs == 0 else (psi(j, v) for j in range(1, len(v) + 1))
        if any(independence_test(u, m).independent for u in tested):
            raise InternalCheckError(
                "dependence verdict changed under a p**m-th power scaling"
            )
    return MAX_DEPENDENCE_RETRIES


def _inhomogeneous_record(eq, group, m, r, words, br, rows) -> TupleRecord:
    """The rhs-1 record of one tuple: a failing tuple keeps only its psi_j
    verdicts, and a candidate (only an eligible tuple has one) is checked by
    exact substitution and coordinatewise membership.
    """
    cert, psi_certs, candidate = unit_substitution_verdicts(br, m, rows)
    if not any(c.independent for c in psi_certs):
        return TupleRecord(r, words, None, psi_certs)
    if candidate is None:
        return TupleRecord(r, words, cert, psi_certs)
    point = tuple(x * y for x, y in zip(r, candidate))
    acc = RatFunc.zero(group.field)
    for x, y in zip(eq.b, point):
        acc = acc + x * y
    witnesses = tuple(member(x, group) for x in point)
    kept = acc.is_one and all(w.member for w in witnesses)
    return TupleRecord(r, words, cert, psi_certs, candidate, point, kept, witnesses)


def decide(
    eq: Equation, group: SubgroupPresentation, m: int, exhaustive: bool = False
) -> CertifiedReport:
    """Decide b . x = rhs at precision m: certify emptiness (rhs 0) or the
    complete solution set (rhs 1), or report the first failing tuple.
    """
    pm = prime_power(group.field, m)
    gen_powers = [g**pm for g in group.generators]
    reps = representatives(group, m)
    element = functools.cache(group.word_product)

    @functools.cache
    def product_row(j: int, word):
        x = eq.b[j] * element(word)
        return x, subfield_coordinates(x, m)

    records = []
    failure = None
    for words in _tuple_space(reps, eq.arity):
        r = tuple(map(element, words))
        br, rows = zip(*(product_row(j, w) for j, w in enumerate(words)))
        if eq.rhs == 0:
            rec = TupleRecord(r, words, independence_test(br, m, rows=rows))
        else:
            rec = _inhomogeneous_record(eq, group, m, r, words, br, rows)
        records.append(rec)
        if rec.fails and failure is None:
            retries = _confirm_failure(eq.rhs, br, m, gen_powers)
            reason = ("dependent-products", "all-unit-substitutions-dependent")[eq.rhs]
            failure = FailureRecord(
                r, words, reason, rec.certificate, rec.psi_certificates, retries
            )
            if not exhaustive:
                break
    outcome = ("certified-empty", "certified-solutions")[eq.rhs]
    solutions = bound = None
    if failure is not None:
        outcome = "inapplicable"
    elif eq.rhs == 1:
        kept = {rec.point: rec.member_witnesses for rec in records if rec.kept}
        solutions = tuple(SolutionPoint(p, tuple(w.word for w in ws)) for p, ws in kept.items())
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


@dataclass(frozen=True)
class ShortcutReport:
    """Radical-membership reading of the two-term criteria (advisory only)."""

    ratio_in_radical: bool
    first_in_radical: bool
    second_in_radical: bool

    @property
    def homogeneous_hypothesis_implied(self) -> bool:
        return not self.ratio_in_radical

    @property
    def inhomogeneous_hypothesis_implied(self) -> bool:
        return not (self.first_in_radical and self.second_in_radical)


def m2_shortcut(b, group: SubgroupPresentation) -> ShortcutReport:
    """For two-term equations, test the radical shortcuts for both criteria."""
    b = tuple(b)
    if len(b) != 2:
        raise ValueError("the shortcut applies to two-term equations only")
    if b[0].is_zero or b[1].is_zero:
        raise ValueError("coefficients must be nonzero")
    return ShortcutReport(
        ratio_in_radical=radical_member(b[0] / b[1], group),
        first_in_radical=radical_member(b[0], group),
        second_in_radical=radical_member(b[1], group),
    )

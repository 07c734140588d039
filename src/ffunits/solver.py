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

  A tuple with b*r independent gets every unit-substitution verdict and
  its candidate from one more elimination, by the lemma stated in
  wronskian; only a dependent b*r needs an elimination per psi_j.

Row j of the coordinate matrix of b*r depends only on (j, r_j), so each
decision builds those rows once, on first use, and every elimination of
the tuple loop reads them from there.

Inapplicable is a first-class outcome: the criterion is sufficient, not
necessary, and nothing is escalated silently.  A failing tuple is retried
with components scaled by p**m-th generator powers (which cannot change
dependence over the subfield) purely to catch arithmetic bugs.
"""

import dataclasses
import itertools
from dataclasses import dataclass

from .errors import InternalCheckError, ResourceLimitError
from .hasse import prime_power, subfield_coordinates
from .ratfunc import RatFunc
from .unitgroup import (
    MembershipWitness,
    RepSet,
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


def _tuple_space(reps: RepSet, arity: int):
    total = len(reps) ** arity
    if total > DEFAULT_TUPLE_LIMIT:
        raise ResourceLimitError(
            f"{total} representative tuples exceed the configured bound {DEFAULT_TUPLE_LIMIT}"
        )
    return itertools.product(range(len(reps)), repeat=arity)


def _scaled(br, gen_powers, k: int):
    n = len(gen_powers)
    return tuple(x * gen_powers[(j + k) % n] for j, x in enumerate(br))


def _product_rows(b, reps: RepSet, m: int):
    """(j, i) -> (b[j] * reps.elements[i], its coordinate row), each built on
    first use: row j of the coordinate matrix of b*r depends only on (j, r_j).
    """
    memo = {}

    def product_row(j: int, i: int):
        if (j, i) not in memo:
            x = b[j] * reps.elements[i]
            memo[j, i] = (x, subfield_coordinates(x, m))
        return memo[j, i]

    return product_row


def _confirm_dependent(still_dependent, br, gen_powers) -> int:
    """Re-test a dependent tuple under subfield-unit scalings; bugs surface here."""
    if not gen_powers:
        return 0
    retries = 0
    for k in range(MAX_DEPENDENCE_RETRIES):
        retries += 1
        if not still_dependent(_scaled(br, gen_powers, k)):
            raise InternalCheckError(
                "dependence verdict changed under a p**m-th power scaling"
            )
    return retries


def decide_homogeneous(
    eq: Equation, group: SubgroupPresentation, m: int, exhaustive: bool = False
) -> CertifiedReport:
    """Certify emptiness of b . x = 0 over the group closure at precision m."""
    if eq.rhs != 0:
        raise ValueError("decide_homogeneous expects an rhs-0 equation")
    pm = prime_power(group.field, m)
    gen_powers = [g**pm for g in group.generators]
    reps = representatives(group, m)
    product_row = _product_rows(eq.b, reps, m)
    records = []
    failure = None
    for combo in _tuple_space(reps, eq.arity):
        r = tuple(reps.elements[i] for i in combo)
        words = tuple(reps.words[i] for i in combo)
        br, rows = zip(*(product_row(j, i) for j, i in enumerate(combo)))
        cert = independence_test(br, m, rows=rows)
        records.append(TupleRecord(r, words, cert))
        if not cert.independent and failure is None:
            retries = _confirm_dependent(
                lambda v: not independence_test(v, m).independent, br, gen_powers
            )
            failure = FailureRecord(r, words, "dependent-products", cert, None, retries)
            if not exhaustive:
                break
    if failure is not None:
        return CertifiedReport(
            "inapplicable", m, eq, len(reps), tuple(records), failure=failure
        )
    return CertifiedReport("certified-empty", m, eq, len(reps), tuple(records))


def decide_inhomogeneous(
    eq: Equation, group: SubgroupPresentation, m: int, exhaustive: bool = False
) -> CertifiedReport:
    """Compute the certified, complete solution set of b . x = 1 at precision m."""
    if eq.rhs != 1:
        raise ValueError("decide_inhomogeneous expects an rhs-1 equation")
    field = group.field
    pm = prime_power(field, m)
    gen_powers = [g**pm for g in group.generators]
    reps = representatives(group, m)
    product_row = _product_rows(eq.b, reps, m)
    one_row = subfield_coordinates(RatFunc.one(field), m)
    records = []
    failure = None
    solutions: dict[tuple[RatFunc, ...], SolutionPoint] = {}
    bound = 0
    for combo in _tuple_space(reps, eq.arity):
        r = tuple(reps.elements[i] for i in combo)
        words = tuple(reps.words[i] for i in combo)
        br, rows = zip(*(product_row(j, i) for j, i in enumerate(combo)))
        cert = independence_test(br, m, rows=rows)
        candidate = None
        if cert.independent:
            psi_certs, candidate = unit_substitution_verdicts(br, m, rows)
        else:
            psi_certs = tuple(
                independence_test(psi(j, br), m, rows=(*rows[: j - 1], one_row, *rows[j:]))
                for j in range(1, eq.arity + 1)
            )
        if not any(c.independent for c in psi_certs):
            records.append(TupleRecord(r, words, None, psi_certs))
            if failure is None:
                retries = _confirm_dependent(
                    lambda v: not any(
                        independence_test(psi(j, v), m).independent
                        for j in range(1, eq.arity + 1)
                    ),
                    br,
                    gen_powers,
                )
                failure = FailureRecord(
                    r, words, "all-unit-substitutions-dependent", None, psi_certs, retries
                )
                if not exhaustive:
                    break
            continue
        in_bound_set = cert.independent and all(c.independent for c in psi_certs)
        point = None
        kept = False
        witnesses = None
        if in_bound_set:
            bound += 1
            if candidate is not None:
                point = tuple(x * y for x, y in zip(r, candidate))
                acc = RatFunc.zero(field)
                for x, y in zip(eq.b, point):
                    acc = acc + x * y
                witnesses = tuple(member(x, group) for x in point)
                kept = acc.is_one and all(w.member for w in witnesses)
                if kept and point not in solutions:
                    solutions[point] = SolutionPoint(
                        point, tuple(w.word for w in witnesses)
                    )
        records.append(
            TupleRecord(r, words, cert, psi_certs, candidate, point, kept, witnesses)
        )
    if failure is not None:
        return CertifiedReport(
            "inapplicable", m, eq, len(reps), tuple(records), failure=failure
        )
    return CertifiedReport(
        "certified-solutions",
        m,
        eq,
        len(reps),
        tuple(records),
        solutions=tuple(solutions.values()),
        bound=bound,
    )


def decide(
    eq: Equation, group: SubgroupPresentation, m: int, exhaustive: bool = False
) -> CertifiedReport:
    if eq.rhs == 0:
        return decide_homogeneous(eq, group, m, exhaustive)
    return decide_inhomogeneous(eq, group, m, exhaustive)


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

"""Linear independence over F_q(t**(p**m)) with two-sided certificates.

Every linear-algebra question here goes through one fraction-free echelon
kernel over F_q[t] (Bareiss elimination, one row at a time) on integral
rows: polynomial entries over one common denominator.  A row is reduced as
given against the stored pivot rows, with every division checked for
exactness, on coefficient lists through the list kernels of poly; a Poly
is built only for the kernel vector and the determinant.  Coordinate rows
arrive integral from hasse.subfield_coordinates; derivative rows are
RatFunc rows, cleared over the lcm of their denominators first.  A row
written over another common denominator changes the pivots, not the
answers: relations and determinants are values over K, rescaled by the
row denominators and put in lowest terms by RatFunc.make, so they do not
depend on it.

The decision eliminates the coordinate matrix of the vector in the basis
1, t, ..., t**(p**m - 1); a row that adds no rank yields the exact
relation vector of the dependent case.  A two-term vector b = (b_1, b_2)
takes the rank alone (independence_verdict): it is dependent over K_m iff
y = b_2 / b_1 lies in K_m, with relation (-y, 1).  Callers that test many
vectors sharing components may pass the coordinate rows they already
hold, and independence_verdict decides rank alone, with no relation or
witness.

Verdict and witness are shared by a whole orbit: for f nonzero and s_j in
K_m = F_q(t**(p**m)), v and (f * v_j * s_j)_j have the same verdict and the
same greedy witness index set.  By Leibniz, D(i)(f v) = sum_{k<=i} D(k)(f)
D(i-k)(v), so rows 0..i of the derivative matrix of f*v are rows 0..i of
that of v times an invertible lower-triangular matrix with f on the
diagonal; and D(i)(s x) = s D(i)(x) for s in K_m and i < p**m, so s_j scales
column j.  Every prefix of rows keeps its rank, so the greedy scan keeps
the same rows, and independence is the case of all p**m rows.

The witness of an independent vector is its greedy index set
I = {0 = i_1 < ... < i_M < p**m}: the higher-derivative rows D(i), taken
in increasing i, that grow the rank, so that the matrix of the D(i_l)
applied to the vector has nonzero determinant, the checkable certificate.
Every witness here is that of a vector (1, *rest), found by one rule
(_witness): 0, followed by the greedy rows i >= 1 of the tail rest, since
D(i)(1) = 0 for i > 0 leaves row 0 the only row that reaches the column
of 1.  b itself is (1, b_2 / b_1, ..., b_M / b_1) up to the orbit
argument, and psi(j, b) below is (1, b without its column j) up to the
order of columns, so its witness builds no psi(j, b) and divides nothing.
A longer tail grows one memoized jet per component, an order at a time
(hasse.hasse_derivative), up to the last row it keeps.  A one-component tail x is
read off its subfield level k, the largest k with x in K_k, which the
exponents of its reduced numerator and denominator give
(hasse.subfield_level).
Writing x = g(t**(p**k)) with g' != 0, x(t+u) = g(t**(p**k) + u**(p**k)),
so D(i)(x) = 0 for 0 < i < p**k and D(p**k)(x) = g'(t**(p**k)) != 0: the
witness is (0, p**k), and k < m.  For b = (b_1, b_2) that level confirms
the coordinate rank: a dependent rank with k < m, or an independent one
with k >= m, raises InternalCheckError.

unit_substitution_verdicts answers, for any b, its own test, every unit
substitution psi(j, b) (b with its j-th entry replaced by 1) and the
candidate for b . c = 1.  For an independent b one more elimination
decides all of the psi(j, b) and gives the unique candidate.  The
coordinate row of 1 is (1, 0, ..., 0), so the relations w of the stack
(b, 1) are those of the rows of b without their first column, completed
by w_{M+1} = -sum_k w_k * row_k[0].  The elimination of the integral tail
rows (nums_k[1:], d_k) ends in a polynomial kernel vector v, which puts
weight v_k d_k on the K-row nums_k / d_k and so -S on the 1 row, with
S = sum_k v_k * nums_k[0].  Scaled to weight 1 on the 1 row,
w_k = -v_k d_k / S, one RatFunc.make per weight (S = 0 would be a
relation among the rows of b).  Then psi(j, b) is independent iff
w_j != 0, a dependent psi(j, b) has the relation w with w_{M+1} moved into
slot j, and the candidate is -w[:M].  Proof: b is independent, so w is,
up to scale, the only relation among b and 1, and psi(j, b) is dependent
iff some relation among b and 1 puts no weight on b_j.
"""

import math
from dataclasses import dataclass

from .errors import InternalCheckError
from .hasse import (
    hasse_derivative,
    in_power_subfield,
    inflate,
    prime_power,
    subfield_coordinates,
    subfield_level,
)
from .poly import (
    Poly,
    _add_list,
    _divmod_list,
    _mul_list,
    _neg_list,
    _trim,
    _trimmed,
    poly_gcd,
)
from .ratfunc import RatFunc


@dataclass(frozen=True)
class IndependenceCertificate:
    independent: bool
    index_set: tuple[int, ...] | None
    relation: tuple[RatFunc, ...] | None

    @property
    def verdict(self) -> str:
        return "independent" if self.independent else "dependent"


def _check_components(b) -> RatFunc:
    if not b:
        raise ValueError("empty vector")
    for x in b:
        if x.is_zero:
            raise ValueError("vector components must be nonzero")
    return b[0]


def coordinate_matrix(b, m: int) -> list[tuple[tuple[Poly, ...], Poly]]:
    """Row j is the integral row (nums, den) of the relabeled coordinates
    of b[j] over F_q(t**(p**m)), coordinate r being nums[r] / den.
    """
    _check_components(b)
    return [subfield_coordinates(x, m) for x in b]


def psi_rows(rows, j: int):
    """The coordinate rows of psi(j, b) from those of b: row j becomes the
    row of 1, which is (1, 0, ..., 0) over 1.
    """
    nums, den = rows[0]
    zero, one = Poly.zero(den.field), Poly.one(den.field)
    one_row = ((one, *(zero,) * (len(nums) - 1)), one)
    return (*rows[: j - 1], one_row, *rows[j:])


def _cleared(row) -> tuple[list[Poly], Poly]:
    """The integral form (entries times den, den) of a RatFunc row, den
    being the lcm of its denominators.
    """
    lcm = Poly.one(row[0].field)
    for d in dict.fromkeys(x.den for x in row):
        if not d.is_one:
            lcm = lcm * (d // poly_gcd(lcm, d))
    return [a.num if a.den == lcm else a.num * (lcm // a.den) for a in row], lcm


class _Echelon:
    """Fraction-free row echelon form over F_q[t], grown one row at a time.

    A pushed row is integral: polynomial entries nums with the monic
    polynomial den they stand over, for the K-row nums / den.  nums is
    reduced as given against the stored pivot rows, and den is kept for
    relation() and _det to scale back to the K-rows.  After the step with
    pivot k every entry is the (k+1)-minor on the pivot columns so far plus
    its own column, so the division by the previous pivot is exact
    (Sylvester's identity) for any polynomial rows; a remainder raises
    InternalCheckError.  The row's content is not stripped: that takes a
    gcd per entry, and on the benchmark's traffic the gcds cost more than
    the smaller entries save.  With slots > 0, row i carries trailing
    combination slots starting as the unit vector e_i; they are never
    pivots, and a row that adds no rank ends up holding there a left-kernel
    vector of the rows pushed so far.

    The elimination runs on coefficient lists through the list kernels of
    poly, with no Poly built per entry: each entry p*a - c*r takes at most
    two products and a sum, and its division by the previous pivot one
    _divmod_list call.  Stored pivot rows are lists; a Poly is built only
    for the kernel vector and, in _det, for the last pivot.
    """

    def __init__(self, field, slots: int = 0):
        self.field = field
        self.slots = slots
        self.pivots: list[tuple[int, list[list[int]]]] = []
        self.dens: list[Poly] = []
        self.kernel: list[Poly] | None = None

    def push(self, row) -> bool:
        """Reduce the integral row (nums, den); store it and return True
        when it grows the rank.
        """
        nums, den = row
        f = self.field
        self.dens.append(den)
        width = len(nums)
        i = len(self.dens) - 1
        x = [list(a.coeffs) for a in nums]
        x += ([1] if k == i else [] for k in range(self.slots))
        prev = [1]
        for col, prow in self.pivots:
            p, c = prow[col], x[col]
            neg_c, divide = _neg_list(f, c), prev != [1]
            reduced = []
            for a, r in zip(x, prow):
                # num = p*a - c*r
                num = _mul_list(f, p, a) if a else []
                if c and r:
                    num = _trim(_add_list(f, num, _mul_list(f, neg_c, r)))
                if num and divide:
                    num, rem = _divmod_list(f, num, prev)
                    if any(rem):
                        raise InternalCheckError("non-exact division in Bareiss elimination")
                reduced.append(num)
            x, prev = reduced, p
        for col in range(width):
            if x[col]:
                self.pivots.append((col, x))
                return True
        self.kernel = [_trimmed(f, w) for w in x[width:]]
        return False

    def relation(self) -> tuple[RatFunc, ...]:
        """The last pushed row's left-kernel vector over the K-rows nums / den.

        Its weight on that row is 1; rows never pushed get weight 0.
        """
        w, d_i = self.kernel, self.dens[-1]
        w_i = w[len(self.dens) - 1]
        out = [RatFunc.make(w_j * d_j, w_i * d_i) for w_j, d_j in zip(w, self.dens)]
        return tuple(out) + (RatFunc.zero(self.field),) * (self.slots - len(out))


def _det(rows) -> RatFunc:
    """Exact determinant of a square RatFunc matrix."""
    echelon = _Echelon(rows[0][0].field)
    if not all(echelon.push(_cleared(row)) for row in rows):
        return RatFunc.zero(echelon.field)
    # the last pivot is the determinant of the cleared rows with the columns
    # taken in pivot order
    cols = [col for col, _ in echelon.pivots]
    inversions = sum(a > b for k, a in enumerate(cols) for b in cols[k + 1 :])
    num = _trimmed(echelon.field, echelon.pivots[-1][1][cols[-1]])
    den = math.prod(echelon.dens, start=Poly.one(echelon.field))
    return RatFunc.make(-num if inversions % 2 else num, den)


def _first_dependence(rows, field) -> _Echelon | None:
    """The echelon of rows with combination slots, stopped at the first row
    that adds no rank, whose left-kernel vector it then holds; None when
    the rows are independent.  The rows may have no columns, as the tail
    rows of _unit_relation do at m = 0.
    """
    echelon = _Echelon(field, slots=len(rows))
    for row in rows:
        if not echelon.push(row):
            return echelon
    return None


_NO_WITNESS = "coordinate rank is full but no nonsingular derivative index set was found"


def _witness(rest, pm: int) -> tuple[int, ...]:
    """The greedy witness of (1, *rest), for it independent over K_m.

    Row 0 is kept, and no later row reaches the column of 1, since
    D(i)(1) = 0 for i > 0: the witness is 0 followed by every derivative
    row D(i)(rest), 0 < i < pm, that grows the rank, until there are
    len(rest) of them; hasse_derivative grows one jet per component, an
    order at a time.  One component x is read off its subfield level k
    instead: its first nonzero derivative row is p**k, which must be below
    pm.
    """
    if not rest:
        return (0,)
    if len(rest) == 1:
        k = subfield_level(rest[0])
        if k is None or rest[0].field.p**k >= pm:
            raise InternalCheckError(_NO_WITNESS)
        return 0, rest[0].field.p**k
    echelon, indices = _Echelon(rest[0].field), [0]
    for i in range(1, pm):
        if echelon.push(_cleared([hasse_derivative(x, i) for x in rest])):
            indices.append(i)
            if len(indices) > len(rest):
                return tuple(indices)
    raise InternalCheckError(_NO_WITNESS)


def independence_test(b, m: int, rows=None) -> IndependenceCertificate:
    """Decide linear independence of b over F_q(t**(p**m)), with certificate.

    Independent verdicts carry a witness index set whose derivative matrix
    is nonsingular; dependent verdicts carry an exact annihilating relation
    with entries in the subfield.  rows, when given, must be
    coordinate_matrix(b, m).
    """
    field = _check_components(b).field
    pm = prime_power(field, m)
    if rows is None:
        rows = coordinate_matrix(b, m)
    if len(b) == 2:
        y = b[1] / b[0]
        if not independence_verdict(rows):
            k = subfield_level(y)
            if k is not None and field.p**k < pm:
                raise InternalCheckError("coordinate rank and subfield level of b_2 / b_1 disagree")
            return IndependenceCertificate(False, None, (-y, RatFunc.one(field)))
        rest = (y,)
    else:
        echelon = _first_dependence(rows, field)
        if echelon is not None:
            relation = tuple(inflate(c, pm) for c in echelon.relation())
            return IndependenceCertificate(False, None, relation)
        rest = tuple(x / b[0] for x in b[1:])
    return IndependenceCertificate(True, _witness(rest, pm), None)


def independence_verdict(rows) -> bool:
    """Whether the integral coordinate rows have full row rank: the verdict
    of independence_test alone, from an elimination that keeps no
    combination slots and builds no relation or witness.
    """
    echelon = _Echelon(rows[0][1].field)
    return all(echelon.push(row) for row in rows)


def psi(j: int, a):
    """Replace the j-th component (1-indexed) by 1, keep the others."""
    if not 1 <= j <= len(a):
        raise IndexError("component index out of range")
    one = RatFunc.one(a[0].field)
    return tuple(one if i == j - 1 else x for i, x in enumerate(a))


def _unit_relation(rows, field, pm: int) -> tuple[RatFunc, ...] | None:
    """The relation of the stack (b, 1), weight 1 on the 1 row, for b
    independent with coordinate rows rows; None when the stack is
    independent.
    """
    echelon = _first_dependence([(nums[1:], den) for nums, den in rows], field)
    if echelon is None:
        return None
    v = echelon.kernel
    s = Poly.zero(field)
    for v_k, (nums, _) in zip(v, rows):
        s = s + v_k * nums[0]
    if s.is_zero:
        raise InternalCheckError("relation of the coordinate rows of an independent vector")
    weights = (inflate(RatFunc.make(-v_k * den, s), pm) for v_k, (_, den) in zip(v, rows))
    return (*weights, RatFunc.one(field))


def _candidate(w):
    if w is None:
        return None
    c = tuple(-x for x in w[:-1])
    return None if any(x.is_zero for x in c) else c


def unit_substitution_verdicts(b, m: int, rows, cert=None):
    """(independence_test(b, m), independence_test(psi(j, b), m) for every j,
    the candidate for b . c = 1) for b with coordinate rows rows.

    cert, when given, is taken as independence_test(b, m) without testing b
    again.  An independent b takes one more elimination, and its candidate is
    candidate_solution(b, m); a dependent b has no candidate and takes one
    test per psi(j, b), over rows with the row of 1 in slot j.
    """
    if cert is None:
        cert = independence_test(b, m, rows=rows)
    field = b[0].field
    if not cert.independent:
        psi_certs = tuple(
            independence_test(psi(j, b), m, rows=psi_rows(rows, j)) for j in range(1, len(b) + 1)
        )
        return cert, psi_certs, None
    pm = prime_power(field, m)
    w = _unit_relation(rows, field, pm)
    certs = []
    for j in range(1, len(b) + 1):
        if w is None or not w[j - 1].is_zero:
            rest = (*b[: j - 1], *b[j:])  # psi(j, b) without its column of 1
            certs.append(IndependenceCertificate(True, _witness(rest, pm), None))
            continue
        u = (*w[: j - 1], w[-1], *w[j:-1])
        last = next(x for x in reversed(u) if not x.is_zero)
        certs.append(IndependenceCertificate(False, None, tuple(x / last for x in u)))
    return cert, tuple(certs), _candidate(w)


def _is_index_set(I, size: int, pm: int) -> bool:
    """Whether I is 0 = i_1 < ... < i_size < pm."""
    return len(I) == size and list(I) == sorted(set(I)) and I[0] == 0 and I[-1] < pm


def wronskian_matrix(b, index_set) -> list[list[RatFunc]]:
    """Entry (l, j) is D(i_l) applied to b[j]."""
    _check_components(b)
    return [[hasse_derivative(x, i) for x in b] for i in index_set]


def wronskian_det_adj(b, index_set, m: int) -> tuple[RatFunc, tuple[tuple[RatFunc, ...], ...]]:
    """Exact determinant and adjugate of the derivative matrix at index_set."""
    _check_components(b)
    pm = prime_power(b[0].field, m)
    I = tuple(index_set)
    if not _is_index_set(I, len(b), pm):
        raise ValueError("index set must satisfy 0 = i_1 < ... < i_M < p**m")
    T = wronskian_matrix(b, I)
    n = len(T)
    det = _det(T)
    if n == 1:
        return det, ((RatFunc.one(b[0].field),),)
    adj = []
    for i in range(n):
        adj_row = []
        for j in range(n):
            minor = [
                [T[r][c] for c in range(n) if c != i] for r in range(n) if r != j
            ]
            d = _det(minor)
            adj_row.append(d if (i + j) % 2 == 0 else -d)
        adj.append(tuple(adj_row))
    return det, tuple(adj)


def candidate_solution(b, m: int):
    """The unique c in K_m**M with b . c = 1, where K_m = F_q(t**(p**m)), or None.

    Requires b independent over K_m.  Then c exists iff (b, 1) is dependent,
    and it is minus the first M weights of that relation (last weight 1);
    None is also returned when some c_j is zero.  No other c in K**M meets
    every derivative row D(i)(b) . c = D(i)(1), i < p**m: with
    J(y) = sum D(i)(y) u**i, x (x) y -> x * J(y) is an isomorphism from
    K (x)_{K_m} K onto K[u]/(u**(p**m)), so expanding c in the basis t**r
    over K_m forces every component with r > 0 to vanish.
    """
    field = _check_components(b).field
    pm = prime_power(field, m)
    rows = coordinate_matrix(b, m)
    if not independence_verdict(rows):
        raise ValueError("candidate solve requires independent components")
    return _candidate(_unit_relation(rows, field, pm))


def verify_certificate(b, m: int, cert: IndependenceCertificate) -> bool:
    """Re-check a certificate directly, without repeating the decision."""
    field = b[0].field
    pm = prime_power(field, m)
    if cert.independent:
        I = cert.index_set
        if I is None or not _is_index_set(tuple(I), len(b), pm):
            return False
        return not _det(wronskian_matrix(b, I)).is_zero
    rel = cert.relation
    if rel is None or len(rel) != len(b) or all(r.is_zero for r in rel):
        return False
    if not all(in_power_subfield(r, m) for r in rel):
        return False
    acc = RatFunc.zero(field)
    for r, x in zip(rel, b):
        acc = acc + r * x
    return acc.is_zero

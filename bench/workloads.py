"""Seeded instance generator for the three benchmark workloads.

Every generated instance is built so that its outcome is known from the
construction, which lets the correctness gate compare outcomes as well as
certificates:

* ``empty``: rhs 0 with ``b_j = T**(j-1) * u_j``, where ``u_j(0) != 0`` and
  the generators are irreducibles other than ``T``.  At every ``m`` with
  ``p**m >= M`` the products ``b_j r_j`` have pairwise distinct valuations
  mod ``p**m`` at ``T``, so every tuple is independent: certified-empty.
* ``planted0`` / ``planted1``: a point ``x`` of the group is drawn first and
  ``b_M`` is solved for so that ``b . x = rhs``.  For rhs 0 the criterion is
  then inapplicable at every ``m``; for rhs 1 the valuation argument above
  (with ``b_j = T**j * u_j`` for ``j < M``) makes it applicable, and ``x`` is
  one of the certified solutions.
* ``const1``: rhs 1 with constant coefficients.  The first tuple ``(1, ..., 1)``
  makes every unit substitution dependent, so the criterion is inapplicable.
* ``solvable`` / ``obstructed`` (local-global): a planted global point rules
  out any congruence obstruction; irreducible generators scaled to be 1 at
  ``T = 0``, with constant coefficients summing to something other than rhs,
  are obstructed at the first modulus scanned, ``T``.

Within a rung every instance has one shape: the degrees are fixed by the
rung, and a draw is made again when its solved-for ``b_M`` cancels against
``x_M``, when a certified-empty coefficient (or a certified-solutions one
over a field larger than GF(2)) shares a factor with a generator, or when a
solvable local-global coefficient shares a factor with a generator or has a
repeated factor.  The instances of a rung then cost
about the same at every seed, and so do the median and the tail, which the
layout below places inside rungs.

``ffunits`` is imported inside ``generate`` and ``equation_of``, so the
harness can time the package import as part of its set-up.
"""

import random
from dataclasses import dataclass
from pathlib import Path

FIELDS = {
    # name: (p, s, modulus of the extension)
    "F2": (2, 1, None),
    "F3": (3, 1, None),
    "F4": (2, 2, "T^2 + T + 1"),
    "F9": (3, 2, "T^2 + 1"),
}

WORKLOADS = ("certify-rhs0", "solve-rhs1", "local-global")

SKOLEM_FLAGS = ("--deg-bound", "2", "--e-bound", "2")

# Draws a rung may reject (as duplicates, or as not generic) before giving up.
# Only constant-coefficient rungs grow the generators' degree, by one every 4
# rejections, so that small fields still find enough distinct instances.
MAX_CLASHES = 256


@dataclass(frozen=True)
class Instance:
    """One request: the command, its equation and what the construction guarantees."""

    name: str
    command: str  # "solve", "skolem" or "sg_search"
    field: str
    p: int
    s: int
    modulus: str | None
    gens: tuple[str, ...]
    b: tuple[str, ...]
    rhs: int
    m: int | None
    m_max: int | None
    word_bound: int
    tuple_space: int | None  # |R|**M at the precision the outcome is reached
    outcome: str  # the outcome the construction guarantees
    planted: tuple[str, ...] | None = None  # a solution inside the group
    path: str | None = None  # shipped instance file, passed to the CLI as is

    @property
    def M(self) -> int:
        return len(self.b)

    @property
    def key(self):
        return (self.command, self.p, self.s, self.gens, self.b, self.rhs, self.m, self.m_max)

    def argv(self) -> list[str]:
        if self.command == "sg_search":
            raise ValueError("sg_search requests are library calls, not CLI calls")
        if self.path is not None:
            return [self.command, "--instance", self.path]
        out = [self.command, "--p", str(self.p), "--s", str(self.s)]
        if self.modulus is not None:
            out += ["--modulus", self.modulus]
        out += ["--gens", ", ".join(self.gens), "--b", ", ".join(self.b), "--rhs", str(self.rhs)]
        if self.command == "skolem":
            return out + list(SKOLEM_FLAGS)
        if self.m is not None:
            return out + ["--m", str(self.m)]
        return out + ["--m-max", str(self.m_max)]

    def record(self) -> dict:
        """The fields a result file breaks results down by."""
        return {
            "name": self.name,
            "command": self.command,
            "field": self.field,
            "p": self.p,
            "s": self.s,
            "M": self.M,
            "n_gens": len(self.gens),
            "m": self.m,
            "m_max": self.m_max,
            "tuple_space": self.tuple_space,
            "outcome": self.outcome,
        }


# Rungs: (field, kind, M, n_gens, m, auto, deg, count).  ``auto`` passes m as
# --m-max instead of --m; ``deg`` is the degree of the random factors of b
# (of the generators, for constant b).  |R|**M = p**(m*n*M) at the precision
# where the outcome is reached; the ladders run from 4 to about 4k tuples,
# the largest through inapplicable instances that stop at their first
# failing tuple.  Each workload has 50 requests in cost groups, laid out so
# that the median (ranks 24-25) and the tail percentile (p80, rank 39) each
# fall near the middle of a group of one cost class.
_CERTIFY_RHS0 = (
    # ranks 0-15: under ~10 ms each
    ("F2", "empty", 2, 1, 1, False, 4, 4),     # 4
    ("F2", "planted0", 2, 2, 1, False, 3, 2),  # 16
    ("F3", "planted0", 2, 2, 1, True, 1, 2),   # 81
    ("F3", "empty", 2, 1, 1, False, 1, 4),     # 9
    ("F3", "planted0", 2, 4, 1, True, 1, 2),   # 6561
    ("F2", "planted0", 2, 6, 1, False, 3, 2),  # 4096
    # ranks 16-33, the median: ~13 ms each
    ("F4", "empty", 2, 1, 1, False, 1, 6),     # 4
    ("F4", "empty", 2, 1, 1, True, 1, 12),     # 4
    # ranks 34-35: ~18 ms each
    ("F2", "empty", 2, 2, 1, True, 4, 2),      # 16
    # ranks 36-44, the tail: ~25 ms each
    ("F9", "planted0", 2, 3, 1, False, 1, 9),  # 729
    # ranks 45-49 (with the shipped gap instance): 35-130 ms each
    ("F9", "empty", 2, 1, 1, False, 1, 1),     # 9
    ("F4", "planted0", 2, 6, 1, False, 1, 1),  # 4096
    ("F3", "empty", 3, 1, 1, False, 1, 1),     # 27
    ("F2", "empty", 2, 3, 1, False, 4, 1),     # 64
)

_SOLVE_RHS1 = (
    # ranks 0-16: under ~18 ms each
    ("F2", "planted1", 2, 1, 1, False, 5, 4),   # 4
    ("F2", "const1", 2, 2, 1, True, 1, 2),      # 16
    ("F2", "const1", 2, 6, 1, False, 1, 2),     # 4096
    ("F3", "const1", 2, 4, 1, False, 1, 2),     # 6561
    ("F9", "const1", 2, 1, 1, False, 1, 2),     # 9
    ("F9", "const1", 2, 3, 1, False, 1, 2),     # 729
    ("F4", "const1", 3, 1, 1, False, 1, 2),     # 8
    # ranks 17-31, the median: ~25 ms each
    ("F3", "planted1", 2, 1, 1, False, 2, 13),  # 9
    ("F4", "const1", 2, 6, 1, False, 1, 2),     # 4096
    # ranks 32-46, the tail: ~40 ms each
    ("F4", "planted1", 2, 1, 1, False, 1, 15),  # 4
    # ranks 47-49: ~50 ms each
    ("F2", "planted1", 2, 2, 1, True, 3, 3),    # 16
)

# Local-global rungs: (field, kind, M, n_gens, word_bound, deg, count); each
# instance is sent once to skolem and once to sg_search.  ``deg`` is the
# degree of the random coefficients (of the generators, when obstructed).
# The 18 requests of the small obstructed and F2 equations come first; the
# median falls in the middle of the 14 GF(4) oracle searches after them
# (ranks 18-31), and the 14 GF(4) scans with a planted solution are the
# slowest (ranks 36-49).
_LOCAL_GLOBAL = (
    ("F2", "solvable", 2, 2, 3, 5, 3),
    ("F2", "obstructed", 3, 2, 1, 1, 3),
    ("F3", "obstructed", 3, 2, 1, 1, 3),
    ("F4", "solvable", 2, 2, 2, 1, 14),
    ("F9", "obstructed", 2, 2, 3, 1, 1),
    ("F9", "obstructed", 3, 1, 3, 1, 1),
)


class _Builder:
    """Random elements over one field, printed in the canonical syntax."""

    def __init__(self, ff, name: str, rng: random.Random):
        self.ff = ff
        self.name = name
        self.rng = rng
        self.p, self.s, self.modulus = FIELDS[name]
        self.F = ff.GF(self.p, self.s, self._modulus_coeffs())
        self.one = ff.RatFunc.one(self.F)
        self.t = ff.RatFunc.t(self.F)
        self._irreducibles = {}

    def _modulus_coeffs(self):
        if self.modulus is None:
            return ()
        value = self.ff.parse_element(self.modulus, self.ff.GF(self.p))
        return value.num.coeffs

    def irreducibles(self, degree: int):
        if degree not in self._irreducibles:
            polys = [q for q in self.ff.poly.monic_irreducibles(self.F, degree) if q.coeffs != (0, 1)]
            self._irreducibles[degree] = polys
        return self._irreducibles[degree]

    def unit(self) -> int:
        return self.rng.randrange(1, self.F.q)

    def poly(self, degree: int, unit_at_zero: bool):
        coeffs = [self.rng.randrange(self.F.q) for _ in range(degree)] + [self.unit()]
        if unit_at_zero:
            coeffs[0] = self.unit()
        return self.ff.RatFunc.from_poly(self.ff.Poly.from_coeffs(self.F, coeffs))

    def generators(self, n: int, degree: int = 1, monic: bool = False):
        """n distinct irreducibles other than T, smallest degrees first, each times a unit."""
        out = []
        while len(out) < n:
            pool = [q for q in self.irreducibles(degree) if q not in out]
            if not pool:
                degree += 1
                continue
            out.append(self.rng.choice(pool))
        return [self.ff.RatFunc.from_poly(q if monic else q.scale(self.unit())) for q in out]

    def text(self, x) -> str:
        return self.ff.print_expr(x)


def _coprime(fb: _Builder, xs, polys) -> bool:
    """No numerator among xs shares a factor with any of polys."""
    return all(fb.ff.poly_gcd(x.num, q).degree() == 0 for x in xs for q in polys)


def _first_certifying_m(p: int, M: int) -> int:
    m = 1
    while p**m < M:
        m += 1
    return m


def _solve_instance(fb: _Builder, kind: str, M: int, n: int, m: int, auto: bool, deg: int,
                    clashes: int):
    """One solve instance of the rung, or None for a draw that is not generic."""
    rng, T = fb.rng, fb.t
    planted = None
    if kind == "const1":
        # constant coefficients leave only the generators to vary; over small
        # fields their degrees must grow to give enough distinct instances
        gens = fb.generators(n, deg + clashes // 4)
        b = [fb.ff.RatFunc.constant(fb.F, fb.unit()) for _ in range(M)]
    else:
        gens = fb.generators(n)
        shift = 1 if kind == "planted1" else 0
        b = [T ** (j + shift) * fb.poly(deg, True) for j in range(M - 1)]
        if kind == "empty":
            b.append(T ** (M - 1) * fb.poly(deg, True))
            # a factor shared with a generator cancels in some products b_j r_j
            if not _coprime(fb, b, [g.num for g in gens]):
                return None
        else:
            # one generator per coordinate keeps the cost of a rung steady across
            # seeds; for rhs 0 the last one puts the failing tuple second
            pick = (lambda: gens[-1]) if kind == "planted0" else (lambda: rng.choice(gens))
            x = [fb.one] + [pick() for _ in range(M - 1)]
            acc = fb.one if kind == "planted1" else fb.ff.RatFunc.zero(fb.F)
            for bj, xj in zip(b, x):
                acc = acc - bj * xj
            if acc.is_zero:
                return None
            last = acc / x[-1]
            if last.den.degree() != x[-1].num.degree():
                return None
            b.append(last)
            # for rhs 1 a factor shared with a generator makes a request up
            # to a third cheaper; over GF(2) too few draws avoid one
            if kind == "planted1" and fb.F.q > 2 and not _coprime(fb, b, [g.num for g in gens]):
                return None
            planted = x
    rhs = 1 if kind in ("planted1", "const1") else 0
    certifies = kind in ("empty", "planted1")
    m_end = m
    if certifies:
        m_end = _first_certifying_m(fb.p, M)
        if m < m_end:
            raise ValueError(f"rung m={m} cannot reach p**m >= M={M}")
        if not auto:
            m_end = m
    outcome = {"empty": "certified-empty", "planted1": "certified-solutions"}.get(kind, "inapplicable")
    return dict(
        gens=tuple(fb.text(g) for g in gens),
        b=tuple(fb.text(x) for x in b),
        rhs=rhs,
        m=None if auto else m,
        m_max=m if auto else None,
        word_bound=1,
        tuple_space=(fb.p**m_end) ** (n * M),
        outcome=outcome,
        planted=None if planted is None else tuple(fb.text(x) for x in planted),
    )


def _local_instance(fb: _Builder, kind: str, M: int, n: int, deg: int, clashes: int):
    rng = fb.rng
    if kind == "solvable":
        # monic generators: scaled ones change the residue groups a scan builds
        gens = fb.generators(n, monic=True)
        rhs = 1  # the rhs-0 scans cost about a fifth more; one rhs keeps a rung steady
        x = [rng.choice(gens) for _ in range(M)]
        b = [fb.poly(deg, False) for _ in range(M - 1)]
        acc = fb.ff.RatFunc.constant(fb.F, rhs)
        for bj, xj in zip(b, x):
            acc = acc - bj * xj
        last = None if acc.is_zero else acc / x[-1]
        if last is None or last.den.degree() != x[-1].num.degree():
            return None  # not generic, as in _solve_instance
        b.append(last)
        # coefficients sharing a factor with a generator, or with a repeated
        # factor, make scans up to a third slower
        if not _coprime(fb, b, [g.num for g in gens]) or not all(
            e == 1 for x in b if x.num.degree() > 0 for _, e in fb.ff.factor(x.num).factors
        ):
            return None
        outcome, planted = "none-found", x
    else:  # obstructed: every generator is 1 mod T, so T sees only the constants;
        # the scan stops at T, so the generators' degree may grow for variety
        gens = [g / fb.ff.RatFunc.constant(fb.F, g.num.coeffs[0])
                for g in fb.generators(n, deg + clashes // 4)]
        rhs = rng.randrange(2)
        consts = [fb.unit() for _ in range(M)]
        total = 0
        for c in consts:
            total = fb.F.add(total, c)
        if total == rhs:
            return None
        b = [fb.ff.RatFunc.constant(fb.F, c) for c in consts]
        outcome, planted = "obstruction-found", None
    return dict(
        gens=tuple(fb.text(g) for g in gens),
        b=tuple(fb.text(x) for x in b),
        rhs=rhs,
        outcome=outcome,
        planted=None if planted is None else tuple(fb.text(v) for v in planted),
    )


def _shipped(ff, root: Path, filename: str, name: str, outcome: str, tuple_space: int):
    path = root / "instances" / filename
    cfg = ff.cli.parse_instance_text(path.read_text(encoding="utf-8"))
    fname = next(k for k, (p, s, _) in FIELDS.items() if (p, s) == (cfg["p"], cfg.get("s", 1)))
    return Instance(
        name=name,
        command="solve",
        field=fname,
        p=cfg["p"],
        s=cfg.get("s", 1),
        modulus=cfg.get("modulus"),
        gens=tuple(ff.exprio.split_exprs(cfg["gens"])),
        b=tuple(ff.exprio.split_exprs(cfg["b"])),
        rhs=cfg["rhs"],
        m=cfg.get("m"),
        m_max=cfg.get("m_max"),
        word_bound=cfg["word_bound"],
        tuple_space=tuple_space,
        outcome=outcome,
        path=str(path),
    )


def equation_of(ff, inst: Instance):
    """(field, group, equation) built from the instance text alone."""
    if inst.modulus is None:
        field = ff.GF(inst.p)
    else:
        field = ff.GF(inst.p, inst.s, ff.parse_element(inst.modulus, ff.GF(inst.p)).num.coeffs)
    group = ff.build_presentation(tuple(ff.parse_element(g, field) for g in inst.gens))
    eq = ff.Equation(tuple(ff.parse_element(x, field) for x in inst.b), inst.rhs)
    return field, group, eq


def _clash(clashes: int, count: int, fname: str, kind: str) -> int:
    if clashes >= MAX_CLASHES:
        raise RuntimeError(f"cannot draw {count} distinct {fname} {kind} instances")
    return clashes + 1


def generate(workload: str, seed: int, root: Path) -> list[Instance]:
    """The workload's requests for this seed, in the order they are sent."""
    import ffunits as ff
    import ffunits.cli  # noqa: F401  (parse_instance_text for shipped files)

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    builders = {name: _Builder(ff, name, rng) for name in FIELDS}
    seen = set()
    out: list[Instance] = []

    def add(inst: Instance) -> bool:
        if inst.key in seen:
            return False
        seen.add(inst.key)
        out.append(inst)
        return True

    if workload == "local-global":
        for fname, kind, M, n, bound, deg, count in _LOCAL_GLOBAL:
            fb = builders[fname]
            made = clashes = 0
            while made < count:
                fields = _local_instance(fb, kind, M, n, deg, clashes)
                base = f"{workload}/{fname}-{kind}-M{M}-n{n}-B{bound}-{made}"
                common = dict(field=fname, p=fb.p, s=fb.s, modulus=fb.modulus, m=None,
                              m_max=None, word_bound=bound, tuple_space=None)
                if fields is not None and add(
                    Instance(name=base + "/skolem", command="skolem", **common, **fields)
                ):
                    add(Instance(name=base + "/sg_search", command="sg_search", **common, **fields))
                    made += 1
                else:
                    clashes = _clash(clashes, count, fname, kind)
        # keep each skolem/sg_search pair adjacent so the requests alternate
        pairs = [out[i:i + 2] for i in range(0, len(out), 2)]
        rng.shuffle(pairs)
        return [inst for pair in pairs for inst in pair]

    rungs = _CERTIFY_RHS0 if workload == "certify-rhs0" else _SOLVE_RHS1
    for fname, kind, M, n, m, auto, deg, count in rungs:
        fb = builders[fname]
        made = clashes = 0
        while made < count:
            fields = _solve_instance(fb, kind, M, n, m, auto, deg, clashes)
            name = f"{workload}/{fname}-{kind}-M{M}-n{n}-{'mmax' if auto else 'm'}{m}-{made}"
            if fields is not None and add(Instance(name=name, command="solve", field=fname,
                                                   p=fb.p, s=fb.s, modulus=fb.modulus, **fields)):
                made += 1
            else:
                clashes = _clash(clashes, count, fname, kind)
    if workload == "certify-rhs0":
        add(_shipped(ff, root, "p3-closure-gap.toy", "certify-rhs0/p3-closure-gap",
                     "inapplicable", 729**2))
    else:
        add(_shipped(ff, root, "p2-certified.toy", "solve-rhs1/p2-certified",
                     "certified-solutions", 2**2))
    rng.shuffle(out)
    return out

"""Command-line interface: instance files, subcommands, JSON certificate reports.

Subcommands: factor, hasse, indep, repset, solve, skolem, probe; only solve
and skolem take --timing.  run_cli fills each setting no flag gave from the
instance file (flag, then file, then default; m and m_max are one choice of
precision, so a flag for either overrides both), builds the field once
(equal fields of later runs are one memoized GF) and hands it to the
subcommand.  Every run writes one JSON report to stdout and diagnostics to
stderr.  The report is streamed one top-level element at a time (a
non-empty top-level list one entry at a time) in the exact bytes of
json.dump(doc, stdout, indent=2), so no report-sized string is built, and
solve renders each distinct element once per report.  Exit codes: 0
success or certified answer, 1 internal fault, 2 sound non-answer
(inapplicable or nothing found), 3 input error, 4 resource limit.  Input
errors are raised only while parsing and validating (probe's checks of
its n_max, charge, exponent and base, each made once, and its unit test
of its element are closure_probe's own), so any other exception reaching
run_cli, also one raised while the report is written (which may then be
cut short), is a fault in this package.  A reader
that closes stdout before the report ends (as ``| head`` does) is none:
the report is cut short, nothing is written to stderr, and the run exits
with the report's own code, 0 or 2; main sends what is still buffered to
os.devnull, so the interpreter's final flush stays quiet too.
"""

import argparse
import functools
import os
import sys
import time
import traceback
from json.encoder import encode_basestring_ascii as _escape

from . import hasse as hassemod
from . import localprobe, solver, unitgroup, wronskian
from .errors import InputError, InternalCheckError, ResourceLimitError
from .exprio import parse_element, poly_text, print_expr, split_exprs
from .field import GF
from .poly import factor
from .ratfunc import RatFunc

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_NEGATIVE = 2
EXIT_INPUT = 3
EXIT_RESOURCE = 4

_INT_KEYS = {"p", "s", "rhs", "m", "m_max", "word_bound", "deg_bound", "e_bound"}
_STR_KEYS = {"modulus", "gens", "b"}
_PRECISION_KEYS = {"m", "m_max"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 3
        raise InputError(message)


def parse_instance_text(text: str) -> dict:
    """key = value lines; '#' starts a comment; keys as in the README."""
    out: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"instance line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key in _INT_KEYS:
            try:
                out[key] = int(value)
            except ValueError:
                raise InputError(f"instance line {lineno}: {key} must be an integer") from None
        elif key in _STR_KEYS:
            out[key] = value
        else:
            raise InputError(f"instance line {lineno}: unknown key {key!r}")
    return out


def _load_instance(args) -> dict:
    if args.instance is None:
        return {}
    try:
        with open(args.instance, "r", encoding="utf-8") as handle:
            return parse_instance_text(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read instance file: {exc}") from None


def _setting(args, key, default=None, required=False):
    value = getattr(args, key, None)
    if value is None:
        if required:
            raise InputError(f"missing required setting {key!r}")
        value = default
    return value


def _at_least(name: str, value, low: int):
    if value is not None and int(value) < low:
        raise InputError(f"{name} must be >= {low}")
    return value


@functools.lru_cache(maxsize=16)
def _field(p, s: int, modulus_text) -> GF:
    """The field of the settings p, s and --modulus (read only for s > 1).

    Memoized on the settings, so a repeated request neither parses its
    modulus nor builds its field again; a refused setting raises afresh on
    every request, since lru_cache keeps no exception.
    """
    try:
        if s == 1:
            return GF(int(p))
        if modulus_text is None:
            raise InputError("s > 1 requires a modulus polynomial")
        modulus = parse_element(str(modulus_text), GF(int(p)))
        if not modulus.den.is_one:
            raise InputError("the field modulus must be a polynomial")
        return GF(int(p), s, modulus.num.coeffs)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _build_field(args) -> GF:
    p = _setting(args, "p", required=True)
    s = int(_at_least("s", _setting(args, "s", default=1), 1))
    return _field(p, s, None if s == 1 else _setting(args, "modulus"))


def _elements(text: str, field: GF, what: str) -> tuple[RatFunc, ...]:
    out = []
    for part in split_exprs(str(text)):
        value = parse_element(part, field)
        if value.is_zero:
            raise InputError(f"{what} {part!r} evaluates to zero")
        out.append(value)
    return tuple(out)


def _generators(args, field: GF) -> tuple[RatFunc, ...]:
    return _elements(_setting(args, "gens", required=True), field, "generator")


def _group(args, field: GF) -> unitgroup.SubgroupPresentation:
    return unitgroup.build_presentation(_generators(args, field))


def _equation(args, field: GF) -> solver.Equation:
    b_text = _setting(args, "b", required=True)
    rhs = _setting(args, "rhs", default=0)
    try:
        return solver.Equation(_elements(b_text, field, "coefficient"), int(rhs))
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _json_text(value, pad: str) -> str:
    """value as json.dumps writes it with indent=2, nested at indentation pad."""
    kind = type(value)
    if kind is str:
        return _escape(value)
    if kind is list:
        if not value:
            return "[]"
        inner = pad + "  "
        items = ",\n" + inner
        return f"[\n{inner}{items.join([_json_text(v, inner) for v in value])}\n{pad}]"
    if kind is dict:
        if not value:
            return "{}"
        inner = pad + "  "
        items = ",\n" + inner
        body = items.join([f"{_escape(k)}: {_json_text(v, inner)}" for k, v in value.items()])
        return f"{{\n{inner}{body}\n{pad}}}"
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _write_json(doc, write) -> None:
    """Pass the bytes of json.dump(doc, fp, indent=2) to write, one value of
    the top-level dict, or one entry of such a value that is a non-empty
    list, per call."""
    if type(doc) is not dict or not doc:
        write(_json_text(doc, ""))
        return
    lead = "{\n  "
    for key, value in doc.items():
        write(f"{lead}{_escape(key)}: ")
        if type(value) is list and value:
            item_lead = "[\n    "
            for item in value:
                write(item_lead + _json_text(item, "    "))
                item_lead = ",\n    "
            write("\n  ]")
        else:
            write(_json_text(value, "  "))
        lead = ",\n  "
    write("\n}")


def _cert_json(cert: wronskian.IndependenceCertificate | None, text):
    if cert is None:
        return None
    if cert.independent:
        return {"verdict": "independent", "index_set": list(cert.index_set)}
    return {"verdict": "dependent", "relation": [text(r) for r in cert.relation]}


def _certs_json(certs, text):
    return None if certs is None else [_cert_json(c, text) for c in certs]


def _tuple_json(rec: solver.TupleRecord, text, **rest):
    return {
        "r": [text(x) for x in rec.r],
        "r_words": [list(w) for w in rec.r_words],
        **rest,
    }


def _witness_json(rec: solver.TupleRecord, text):
    entry = _tuple_json(rec, text, certificate={
        "products": _cert_json(rec.certificate, text),
        "unit_substitutions": _certs_json(rec.psi_certificates, text),
    })
    if rec.candidate is not None:
        entry["candidate"] = [text(x) for x in rec.candidate]
        entry["point"] = [text(x) for x in rec.point]
        entry["kept"] = rec.kept
    return entry


def _failure_json(failure: solver.TupleRecord | None, rhs: int, text):
    if failure is None:
        return None
    return _tuple_json(
        failure,
        text,
        reason=solver.FAILURE_REASONS[rhs],
        certificate=_cert_json(failure.certificate, text),
        unit_substitutions=_certs_json(failure.psi_certificates, text),
        retries=solver.MAX_DEPENDENCE_RETRIES,
    )


def _field_json(field: GF):
    return {"p": field.p, "s": field.s}


def _cmd_solve(args, field: GF) -> tuple[dict, int]:
    group = _group(args, field)
    eq = _equation(args, field)
    m = _at_least("m", _setting(args, "m"), 1)
    m_max = _at_least("m_max", _setting(args, "m_max"), 1)
    start = time.perf_counter()
    if m is not None:
        report = solver.decide(eq, group, int(m), exhaustive=args.verbose)
    else:
        report = solver.auto_m(eq, group, int(m_max) if m_max is not None else 3,
                               exhaustive=args.verbose)
    timing = int((time.perf_counter() - start) * 1000) if args.timing else None
    # equal elements recur across tuples; render each once per report
    text = functools.cache(print_expr)
    doc = {
        "outcome": report.outcome,
        "m": report.m,
        "equation": {"b": [text(x) for x in report.equation.b], "rhs": report.equation.rhs},
        "field": _field_json(field),
        "solutions": (
            None
            if report.solutions is None
            else [
                {"coords": [text(x) for x in s.coords], "words": [list(w) for w in s.words]}
                for s in report.solutions
            ]
        ),
        "bound": report.bound,
        "witnesses": [_witness_json(rec, text) for rec in report.records],
        "timing_ms": timing,
        "command": "solve",
        "generators": [text(g) for g in group.generators],
        "repset_size": report.repset_size,
        "failure": _failure_json(report.failure, eq.rhs, text),
        "auto_failures": [
            {"m": m, "failure": _failure_json(f, eq.rhs, text)} for m, f in report.auto_failures
        ],
    }
    return doc, EXIT_OK if report.outcome != "inapplicable" else EXIT_NEGATIVE


def _cmd_skolem(args, field: GF) -> tuple[dict, int]:
    # the scan reads the generators alone, so none is factored
    group = unitgroup.generated_group(_generators(args, field))
    eq = _equation(args, field)
    deg_bound = int(_at_least("deg_bound", _setting(args, "deg_bound", default=2), 1))
    e_bound = int(_at_least("e_bound", _setting(args, "e_bound", default=2), 1))
    start = time.perf_counter()
    witness = localprobe.find_local_obstruction(eq, group, deg_bound, e_bound)
    timing = int((time.perf_counter() - start) * 1000) if args.timing else None
    doc = {
        "outcome": "obstruction-found" if witness else "none-found",
        "equation": {"b": [print_expr(x) for x in eq.b], "rhs": eq.rhs},
        "field": _field_json(field),
        "modulus": (
            None
            if witness is None
            else {"base": poly_text(witness.modulus.base), "exponent": witness.modulus.exponent}
        ),
        "group_size": None if witness is None else witness.group_size,
        "bounds": {"deg_bound": deg_bound, "e_bound": e_bound},
        "timing_ms": timing,
        "command": "skolem",
    }
    return doc, EXIT_OK if witness else EXIT_NEGATIVE


def _cmd_probe(args, field: GF) -> tuple[dict, int]:
    if args.g is None or args.base is None:
        raise InputError("probe requires --g and --base")
    g = parse_element(args.g, field)
    base = parse_element(args.base, field)
    if not base.den.is_one:
        raise InputError("the modulus base must be a polynomial")
    if base.is_zero:
        raise InputError("the modulus base must be a nonzero polynomial")
    base = base.num.monic()[0]
    report = localprobe.closure_probe(g, base, args.e, args.n_max)
    doc = {
        "outcome": "stabilized" if report.settled else "undetermined",
        "field": _field_json(field),
        "element": print_expr(g),
        "modulus": {"base": poly_text(base), "exponent": args.e},
        "residues": [poly_text(r) for r in report.residues],
        "stable_index": report.stable_index,
        "stable_value": poly_text(report.stable_value),
        "command": "probe",
    }
    return doc, EXIT_OK if report.settled else EXIT_NEGATIVE


def _cmd_factor(args, field: GF) -> tuple[dict, int]:
    if args.poly is None:
        raise InputError("factor requires --poly")
    value = parse_element(args.poly, field)
    if not value.den.is_one:
        raise InputError("factor expects a polynomial, not a proper fraction")
    if value.is_zero:
        raise InputError("cannot factor the zero polynomial")
    decomposition = factor(value.num)
    doc = {
        "outcome": "ok",
        "field": _field_json(field),
        "input": poly_text(value.num),
        "unit": decomposition.unit,
        "factors": [
            {"poly": poly_text(g), "multiplicity": e} for g, e in decomposition.factors
        ],
        "command": "factor",
    }
    return doc, EXIT_OK


def _cmd_hasse(args, field: GF) -> tuple[dict, int]:
    if args.x is None:
        raise InputError("hasse requires --x")
    x = parse_element(args.x, field)
    _at_least("order", args.order, 0)
    _at_least("i", args.i, 0)
    doc = {"outcome": "ok", "field": _field_json(field), "input": print_expr(x)}
    if args.order is not None:
        doc["order"] = args.order
        hassemod.check_jet_bounds(x, args.order, "jet order")
        doc["derivatives"] = [print_expr(c) for c in hassemod.taylor_jet(x, args.order)]
    else:
        doc["index"] = args.i if args.i is not None else 1
        hassemod.check_jet_bounds(x, doc["index"], "derivative index")
        doc["derivative"] = print_expr(hassemod.hasse_derivative(x, doc["index"]))
    doc["command"] = "hasse"
    return doc, EXIT_OK


def _cmd_indep(args, field: GF) -> tuple[dict, int]:
    b_text = _setting(args, "b", required=True)
    vector = _elements(b_text, field, "component")
    m = _at_least("m", _setting(args, "m", required=True), 0)
    cert = wronskian.independence_test(vector, int(m))
    doc = {
        "outcome": cert.verdict,
        "m": int(m),
        "field": _field_json(field),
        "b": [print_expr(x) for x in vector],
        "index_set": None if cert.index_set is None else list(cert.index_set),
        "relation": (
            None if cert.relation is None else [print_expr(r) for r in cert.relation]
        ),
        "command": "indep",
    }
    return doc, EXIT_OK


def _cmd_repset(args, field: GF) -> tuple[dict, int]:
    group = _group(args, field)
    m = int(_at_least("m", _setting(args, "m", required=True), 1))
    reps = unitgroup.representatives(group, m)
    doc = {
        "outcome": "ok",
        "m": m,
        "field": _field_json(field),
        "generators": [print_expr(g) for g in group.generators],
        "size": len(reps),
        "elements": [print_expr(group.word_product(w)) for w in reps],
        "words": [list(w) for w in reps],
        "keys": [list(unitgroup.residue_key(group, w, m)) for w in reps],
        "command": "repset",
    }
    return doc, EXIT_OK


def _add_common(sub):
    sub.add_argument("--instance", help="instance file (key = value lines, # comments)")
    sub.add_argument("--p", type=int, help="field characteristic")
    sub.add_argument("--s", type=int, help="extension degree (default 1)")
    sub.add_argument("--modulus", help="defining polynomial over F_p when s > 1")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ffunits", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    parser.commands = subs.choices  # name -> subcommand parser, for _arguments

    sp = subs.add_parser("solve", help="certified decision for b.x = rhs over the group closure")
    _add_common(sp)
    sp.add_argument("--gens", help="comma-separated group generators")
    sp.add_argument("--b", help="comma-separated equation coefficients")
    sp.add_argument("--rhs", type=int, help="0 or 1")
    sp.add_argument("--m", type=int, help="fixed subfield precision")
    sp.add_argument("--m-max", dest="m_max", type=int, help="scan m = 1..m_max (default 3)")
    sp.add_argument("--verbose", action="store_true", help="evaluate every tuple even after a failure")
    sp.add_argument("--timing", action="store_true", help="include timing_ms in the report")
    sp.set_defaults(handler=_cmd_solve)

    sp = subs.add_parser("skolem", help="search for a congruence obstruction")
    _add_common(sp)
    sp.add_argument("--gens", help="comma-separated group generators")
    sp.add_argument("--b", help="comma-separated equation coefficients")
    sp.add_argument("--rhs", type=int, help="0 or 1")
    sp.add_argument("--deg-bound", dest="deg_bound", type=int, help="max modulus base degree")
    sp.add_argument("--e-bound", dest="e_bound", type=int, help="max modulus exponent")
    sp.add_argument("--timing", action="store_true", help="include timing_ms in the report")
    sp.set_defaults(handler=_cmd_skolem)

    sp = subs.add_parser("probe", help="watch g**(p**(n!)) stabilize in a residue ring")
    _add_common(sp)
    sp.add_argument("--g", help="probed element")
    sp.add_argument("--base", help="monic irreducible modulus base")
    sp.add_argument("--e", type=int, default=1, help="modulus exponent (default 1)")
    sp.add_argument("--n-max", dest="n_max", type=int, default=6, help="terms to compute (default 6)")
    sp.set_defaults(handler=_cmd_probe)

    sp = subs.add_parser("factor", help="factor a polynomial into monic irreducibles")
    _add_common(sp)
    sp.add_argument("--poly", help="polynomial to factor")
    sp.set_defaults(handler=_cmd_factor)

    sp = subs.add_parser("hasse", help="higher derivatives of a field element")
    _add_common(sp)
    sp.add_argument("--x", help="element to differentiate")
    sp.add_argument("--i", type=int, help="derivative index (default 1)")
    sp.add_argument("--order", type=int, help="emit the whole jet up to this order")
    sp.set_defaults(handler=_cmd_hasse)

    sp = subs.add_parser("indep", help="independence certificate over F_q(t^(p^m))")
    _add_common(sp)
    sp.add_argument("--b", help="comma-separated components")
    sp.add_argument("--m", type=int, help="subfield precision")
    sp.set_defaults(handler=_cmd_indep)

    sp = subs.add_parser("repset", help="representatives mod the F_q(t^(p^m)) part")
    _add_common(sp)
    sp.add_argument("--gens", help="comma-separated group generators")
    sp.add_argument("--m", type=int, help="subfield precision")
    sp.set_defaults(handler=_cmd_repset)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # building the parser costs about 30 parse_args calls; reuse it per process
    return build_parser()


def _arguments(argv) -> argparse.Namespace:
    """The namespace that _parser().parse_args(argv) returns, read at less cost.

    The full parser matches every flag against its own options before it
    hands them all to the subcommand's parser; an argv that starts with a
    subcommand goes straight to that parser instead.  No argv, an unknown
    command or a top-level -h still goes to the full parser, for its error
    and help texts.
    """
    parser = _parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args = sub.parse_args(argv[1:])
    args.command = argv[0]
    return args


def run_cli(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        args = _arguments(sys.argv[1:] if argv is None else list(argv))
        flags = {key for key in _INT_KEYS | _STR_KEYS if getattr(args, key, None) is not None}
        if flags & _PRECISION_KEYS:  # one choice: a flag for either overrides both
            flags |= _PRECISION_KEYS
        for key, value in _load_instance(args).items():
            if key not in flags:  # a flag overrides the file
                setattr(args, key, value)
        doc, code = args.handler(args, _build_field(args))
        try:
            _write_json(doc, stdout.write)
            stdout.write("\n")
        except BrokenPipeError:  # the reader closed the pipe early: no fault
            pass
    except InputError as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_INPUT
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=stderr)
        return EXIT_RESOURCE
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # not an input error, so a fault in this package
        traceback.print_exc(file=stderr)
        print(f"internal error: {type(exc).__name__}: {exc}", file=stderr)
        return EXIT_INTERNAL
    return code


def main():
    code = run_cli()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe before the last of the report; send what
        # is still buffered to os.devnull so the final flush stays quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()

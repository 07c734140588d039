"""Every resource bound lives in ``ffunits.errors`` and refuses through
``errors.refuse``, so one patch of that module moves every check."""

import ast
import io
from pathlib import Path

import pytest

from ffunits import Equation, GF, RatFunc, build_presentation, errors, sg_search
from ffunits.cli import run_cli
from ffunits.errors import ResourceLimitError
from ffunits.exprio import parse_element

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ffunits"
BOUNDS = {
    "MAX_FIELD_ORDER",
    "MAX_PRIME_POWER",
    "DEFAULT_BOX_LIMIT",
    "DEFAULT_TUPLE_LIMIT",
    "DEFAULT_GROUP_LIMIT",
}


def _named(node, names):
    return (isinstance(node, ast.Name) and node.id in names) or (
        isinstance(node, ast.Attribute) and node.attr in names
    )


def _copies(value):
    """Whether an expression evaluated once reads a bound."""
    return any(_named(sub, BOUNDS) for sub in ast.walk(value))


def offences():
    """module:line of each refusal or bound binding outside errors.py."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _named(node.func, {"ResourceLimitError"}):
                out.append((path.stem, node.lineno, "constructs ResourceLimitError"))
            elif isinstance(node, ast.Raise) and _named(node.exc, {"ResourceLimitError"}):
                out.append((path.stem, node.lineno, "raises ResourceLimitError"))
            elif isinstance(node, ast.ImportFrom):
                if any(alias.name in BOUNDS for alias in node.names):
                    out.append((path.stem, node.lineno, "imports a bound by value"))
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any(_named(sub, BOUNDS) for t in targets for sub in ast.walk(t)):
                    out.append((path.stem, node.lineno, "binds a bound"))
            elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
                # a default is evaluated once, at definition
                if any(_copies(d) for d in node.args.defaults + node.args.kw_defaults if d):
                    out.append((path.stem, node.lineno, "copies a bound into a default"))
        for node in tree.body:  # module level runs once, at import
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value and _copies(node.value):
                out.append((path.stem, node.lineno, "copies a bound at import"))
    return [f"{mod}:{line} {what}" for mod, line, what in sorted(out)]


def test_bounds_and_refusals_live_in_errors():
    assert offences() == []


def test_one_patch_moves_every_work_check(monkeypatch):
    F3 = GF(3)
    group = build_presentation((RatFunc.t(F3),))  # factors T, so before the patch
    # each input parses with no operator, so only the command's own charge is met
    monkeypatch.setattr(errors, "DEFAULT_BOX_LIMIT", 1)
    for argv, charge in (
        (["factor", "--p", "3", "--poly", "T"], "factoring charge 2 "),
        (["hasse", "--p", "3", "--x", "T", "--order", "1"], "jet charge 8 "),
        (["probe", "--p", "3", "--g", "2", "--base", "T", "--n-max", "1"], "probe charge 2 "),
    ):
        out, err = io.StringIO(), io.StringIO()
        assert run_cli(argv, stdout=out, stderr=err) == 4, argv
        assert out.getvalue() == "" and charge + "exceeds the configured bound 1" in err.getvalue()
    with pytest.raises(ResourceLimitError, match="word box 9 exceeds the configured bound 1"):
        sg_search(Equation((RatFunc.one(F3), RatFunc.one(F3)), 0), group, 1)
    with pytest.raises(ResourceLimitError, match="parse charge 4 exceeds the configured bound 1"):
        parse_element("1+T", F3)


def test_solve_refuses_a_tuple_space_past_its_bound():
    # 4 generators at m = 3 leave 4096 representatives, so pairs number 4096**2
    argv = "solve --p 2 --gens 1+T,1+T+T^2,1+T+T^3,1+T^2+T^3 --b T,1 --m 3 --rhs 0".split()
    out, err = io.StringIO(), io.StringIO()
    assert run_cli(argv, stdout=out, stderr=err) == 4
    assert out.getvalue() == ""
    assert "representative tuple count 16777216 exceeds the configured bound 1000000" in err.getvalue()

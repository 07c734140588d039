import io
import json
import os
import time

import pytest

from ffunits import GF, RatFunc, exprio
from ffunits.cli import parse_instance_text, run_cli

INSTANCES = os.path.join(os.path.dirname(__file__), "..", "instances")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run(argv)
    assert out, f"no report produced; stderr: {err}"
    return code, json.loads(out)


def test_parse_instance_text():
    cfg = parse_instance_text("# demo\np = 2\ngens = 1 + T\nb = T, 1\nrhs = 1\n")
    assert cfg == {"p": 2, "gens": "1 + T", "b": "T, 1", "rhs": 1}
    with pytest.raises(Exception):
        parse_instance_text("nonsense")
    with pytest.raises(Exception):
        parse_instance_text("unknown_key = 3")
    with pytest.raises(Exception):
        parse_instance_text("p = x")


def test_solve_worked_instance():
    path = os.path.join(INSTANCES, "p2-certified.toy")
    code, doc = run_json(["solve", "--instance", path])
    assert code == 0
    assert doc["outcome"] == "certified-solutions"
    assert doc["m"] == 1
    assert doc["bound"] == 2
    assert doc["field"] == {"p": 2, "s": 1}
    assert doc["equation"] == {"b": ["T", "1"], "rhs": 1}
    coords = {tuple(s["coords"]) for s in doc["solutions"]}
    assert coords == {("1", "T + 1"), ("1/(T + 1)", "1/(T + 1)")}
    assert doc["timing_ms"] is None

    code, doc = run_json(["solve", "--instance", path, "--rhs", "0"])
    assert code == 0
    assert doc["outcome"] == "certified-empty"
    assert len(doc["witnesses"]) == 4
    assert all(
        w["certificate"]["products"]["verdict"] == "independent" for w in doc["witnesses"]
    )


def test_solve_gap_instance():
    path = os.path.join(INSTANCES, "p3-closure-gap.toy")
    code, doc = run_json(["solve", "--instance", path])
    assert code == 2
    assert doc["outcome"] == "inapplicable"
    assert doc["failure"]["r"] == ["1", "1"]
    assert [a["m"] for a in doc["auto_failures"]] == [1, 2, 3]


def test_skolem_subcommand():
    path = os.path.join(INSTANCES, "p2-certified.toy")
    code, doc = run_json(
        ["skolem", "--instance", path, "--rhs", "0", "--deg-bound", "2", "--e-bound", "2"]
    )
    assert code == 0
    assert doc["outcome"] == "obstruction-found"
    assert doc["modulus"] == {"base": "T^2 + T + 1", "exponent": 2}
    assert doc["group_size"] == 6

    gap = os.path.join(INSTANCES, "p3-closure-gap.toy")
    code, doc = run_json(["skolem", "--instance", gap, "--deg-bound", "3", "--e-bound", "2"])
    assert code == 2
    assert doc["outcome"] == "none-found"
    assert doc["modulus"] is None


def test_timing_flag_adds_only_timing():
    path = os.path.join(INSTANCES, "p2-certified.toy")
    for argv in (
        ["solve", "--instance", path],
        ["skolem", "--instance", path, "--rhs", "0", "--deg-bound", "2", "--e-bound", "2"],
    ):
        code, doc = run_json(argv)
        timed_code, timed = run_json(argv + ["--timing"])
        assert timed_code == code == 0
        assert doc["timing_ms"] is None
        assert type(timed["timing_ms"]) is int and timed["timing_ms"] >= 0
        assert {**timed, "timing_ms": None} == doc


def test_timing_is_a_flag_of_solve_and_skolem_only():
    for argv in (
        ["factor", "--p", "3", "--poly", "T"],
        ["hasse", "--p", "2", "--x", "T"],
        ["indep", "--p", "2", "--b", "T, 1+T", "--m", "1"],
        ["repset", "--p", "3", "--gens", "T", "--m", "1"],
        ["probe", "--p", "3", "--g", "T", "--base", "T^2+1"],
    ):
        assert run(argv)[0] == 0, argv
        code, out, err = run(argv + ["--timing"])
        assert code == 3 and "--timing" in err and not out, argv


def test_nesting_is_bounded():
    nested = "(" * exprio.MAX_NESTING + "T" + ")" * exprio.MAX_NESTING
    assert run_json(["factor", "--p", "2", f"--poly={nested}"])[1]["input"] == "T"
    code, out, err = run(["factor", "--p", "2", f"--poly=({nested})"])
    assert code == 3 and not out
    assert f"nest deeper than {exprio.MAX_NESTING} (at position {exprio.MAX_NESTING})" in err
    # a run of unary minus signs takes no stack
    assert run_json(["factor", "--p", "3", "--poly=" + "-" * 10_000 + "T"])[1]["input"] == "T"


def test_probe_subcommand():
    code, doc = run_json(
        ["probe", "--p", "3", "--g", "T", "--base", "T^2+1", "--e", "1", "--n-max", "6"]
    )
    assert code == 0
    assert doc["outcome"] == "stabilized"
    assert doc["stable_index"] == 2
    assert doc["stable_value"] == "T"
    assert doc["residues"][0] == "2*T"


def test_factor_subcommand():
    code, doc = run_json(["factor", "--p", "3", "--poly", "2*T^2+2"])
    assert code == 0
    assert doc["unit"] == 2
    assert doc["factors"] == [{"poly": "T^2 + 1", "multiplicity": 1}]


def test_hasse_subcommand():
    code, doc = run_json(["hasse", "--p", "2", "--x", "1/(1+T)", "--i", "1"])
    assert code == 0
    assert doc["derivative"] == "1/(T^2 + 1)"
    code, doc = run_json(["hasse", "--p", "3", "--x", "T^2", "--order", "2"])
    assert doc["derivatives"] == ["T^2", "2*T", "1"]


def test_hasse_reports_are_pinned():
    # the whole report, byte for byte, for each of the two report shapes
    code, out, err = run(["hasse", "--p", "2", "--x", "1/(1+T)", "--i", "1"])
    assert code == 0 and err == ""
    assert out == (
        '{\n  "outcome": "ok",\n  "field": {\n    "p": 2,\n    "s": 1\n  },\n'
        '  "input": "1/(T + 1)",\n  "index": 1,\n  "derivative": "1/(T^2 + 1)",\n'
        '  "command": "hasse"\n}\n'
    )
    code, out, err = run(["hasse", "--p", "3", "--x", "T^2", "--order", "2"])
    assert code == 0 and err == ""
    assert out == (
        '{\n  "outcome": "ok",\n  "field": {\n    "p": 3,\n    "s": 1\n  },\n'
        '  "input": "T^2",\n  "order": 2,\n  "derivatives": [\n    "T^2",\n'
        '    "2*T",\n    "1"\n  ],\n  "command": "hasse"\n}\n'
    )


def test_instance_file_drives_every_command(tmp_path):
    # (command, instance text, the same settings as flags, the command's own flags)
    cases = [
        ("indep", "p = 2\nb = T, 1+T\nm = 1\n", ["--p", "2", "--b", "T, 1+T", "--m", "1"], []),
        ("repset", "p = 3\ngens = T, -T, 1-T\nm = 1\n",
         ["--p", "3", "--gens", "T, -T, 1-T", "--m", "1"], []),
        ("hasse", "p = 2\n", ["--p", "2"], ["--x", "1/(1+T)", "--order", "3"]),
        ("probe", "p = 3\n", ["--p", "3"], ["--g", "T", "--base", "T^2+1", "--n-max", "4"]),
        ("factor", "p = 3\ns = 2\nmodulus = T^2+1\n",
         ["--p", "3", "--s", "2", "--modulus", "T^2+1"], ["--poly", "T^4-1"]),
    ]
    for command, text, settings, own in cases:
        path = tmp_path / f"{command}.toy"
        path.write_text(text)
        from_flags = run([command, *settings, *own])
        assert from_flags[0] == 0 and from_flags[1], command
        assert run([command, "--instance", str(path), *own]) == from_flags, command
    # a flag beats the file outside solve too
    path = tmp_path / "indep.toy"
    path.write_text("p = 3\nb = 1, 1\nm = 2\n")
    argv = ["indep", "--instance", str(path), "--p", "2", "--b", "T, 1+T", "--m", "1"]
    assert run(argv) == run(["indep", "--p", "2", "--b", "T, 1+T", "--m", "1"])
    code, doc = run_json(["indep", "--instance", str(path), "--b", "T, 1+T"])
    assert (doc["field"], doc["m"], doc["b"]) == ({"p": 3, "s": 1}, 2, ["T", "T + 1"])


def test_indep_subcommand():
    code, doc = run_json(["indep", "--b", "T, 1+T", "--m", "1", "--p", "2"])
    assert code == 0
    assert doc["outcome"] == "independent"
    assert doc["index_set"] == [0, 1]
    code, doc = run_json(["indep", "--b", "1, 1", "--m", "1", "--p", "2"])
    assert code == 0
    assert doc["outcome"] == "dependent"
    assert doc["relation"] is not None


def test_repset_subcommand():
    code, doc = run_json(["repset", "--p", "3", "--gens", "T, -T, 1-T", "--m", "1"])
    assert code == 0
    assert doc["size"] == 9
    assert doc["elements"][0] == "1"
    assert doc["words"][0] == [0, 0, 0]
    # 27**5 words but 27 classes: the bound counts representatives, not words
    code, doc = run_json(["repset", "--p", "3", "--gens", "T, T^2, T^3, T^4, T^5", "--m", "3"])
    assert code == 0
    assert doc["size"] == 27


def test_input_errors():
    code, out, err = run(["solve", "--p", "2", "--gens", "1+T", "--b", "T, 0"])
    assert code == 3 and "zero" in err
    code, out, err = run(["solve", "--p", "2", "--gens", "1+T"])
    assert code == 3
    code, out, err = run(["probe", "--p", "3", "--g", "1/(T+1)", "--base", "T+1"])
    assert code == 3
    code, out, err = run(["probe", "--p", "2", "--g", "T", "--base", "T^2+1"])
    assert code == 3 and "modulus base must be monic irreducible" in err
    code, out, err = run(["probe", "--p", "2", "--g", "T", "--base", "1"])
    assert code == 3 and "modulus base must be monic irreducible" in err
    code, out, err = run(["probe", "--p", "2", "--g", "T", "--base", "2*T^2+2"])
    assert code == 3 and "the modulus base must be a nonzero polynomial" in err
    code, out, err = run(["indep", "--b", "T^2^3", "--m", "1", "--p", "2"])
    assert code == 3 and "position" in err
    # a superscript two passes str.isdigit but is not a literal
    for argv in (
        ["solve", "--p", "2", "--gens", "T\u00b2", "--b", "T,1"],
        ["hasse", "--p", "2", "--x", "T\u00b2", "--i", "1"],
        ["factor", "--p", "3", "--poly", "T\u00b2"],
        ["probe", "--p", "3", "--g", "T\u00b2", "--base", "T^2+1", "--e", "1", "--n-max", "6"],
        ["indep", "--b", "T\u00b2, 1", "--m", "1", "--p", "2"],
    ):
        code, out, err = run(argv)
        assert code == 3 and "position 1" in err, argv
    code, out, err = run(["solve", "--instance", "/nonexistent.toy"])
    assert code == 3
    code, out, err = run(["solve", "--p", "2", "--gens", "1+T", "--b", "T, 1", "--m", "0"])
    assert code == 3 and "m must be >= 1" in err
    for s in ("0", "-1"):
        code, out, err = run(["solve", "--p", "2", "--s", s, "--gens", "1+T", "--b", "T, 1"])
        assert code == 3 and "s must be >= 1" in err
    # the parser is shared across calls, and a rejected call leaves no trace in it
    indep = ["indep", "--b", "T, 1+T", "--m", "1", "--p", "2"]
    code, before, _ = run(indep)
    assert code == 0
    code, out, err = run(indep + ["--no-such-flag"])
    assert code == 3 and "no-such-flag" in err
    assert run(indep) == (0, before, "")


def test_internal_fault_exit_code(monkeypatch):
    # a ValueError from inside the solver is a fault, not bad input
    from ffunits import solver

    def broken(*args, **kwargs):
        raise ValueError("simulated fault")

    monkeypatch.setattr(solver, "decide", broken)
    code, out, err = run(["solve", "--p", "2", "--gens", "1+T", "--b", "T, 1", "--m", "1"])
    assert code == 1 and out == "" and "simulated fault" in err


def test_resource_limit_exit_code(monkeypatch):
    code, out, err = run(["repset", "--p", "2", "--gens", "1+T", "--m", "17"])
    assert code == 4
    # GF(2^17) is past the field-order bound of the arithmetic tables
    code, out, err = run(["solve", "--p", "2", "--s", "17", "--modulus", "T^17+T^3+1",
                          "--gens", "1+T", "--b", "T, 1"])
    assert code == 4 and "field order" in err
    # a huge characteristic is refused before trial division could stall on it
    start = time.perf_counter()
    code, out, err = run(["factor", "--p", "1000000000000000003", "--poly", "T+1"])
    assert code == 4 and "characteristic" in err
    assert time.perf_counter() - start < 1.0
    # derivative and jet orders are bounded before any expansion starts
    from ffunits import hasse

    monkeypatch.setattr(hasse, "_jet_coeffs", lambda *a: pytest.fail("jet expanded"))
    for flag in ("--i", "--order"):
        start = time.perf_counter()
        code, out, err = run(["hasse", "--p", "2", "--x", "1/(1+T)", flag, "70000"])
        assert code == 4 and "65535" in err
        assert time.perf_counter() - start < 1.0
    # so are the residue images of the obstruction scan
    from ffunits import errors

    monkeypatch.setattr(errors, "DEFAULT_GROUP_LIMIT", 5)
    code, out, err = run(["skolem", "--instance", os.path.join(INSTANCES, "p2-certified.toy"),
                          "--rhs", "0", "--deg-bound", "2", "--e-bound", "2"])
    assert code == 4 and "exceeds the configured bound 5" in err


def test_probe_terms_are_bounded(monkeypatch):
    # one residue is kept per term, so n_max is held to the residue-group bound
    start = time.perf_counter()
    code, out, err = run(["probe", "--p", "3", "--g", "T", "--base", "T^2+1", "--n-max", "100001"])
    assert code == 4 and out == "" and "exceeds the configured bound 100000" in err
    assert time.perf_counter() - start < 1.0
    from ffunits import errors

    monkeypatch.setattr(errors, "DEFAULT_GROUP_LIMIT", 10)
    code, doc = run_json(["probe", "--p", "3", "--g", "T", "--base", "T^2+1", "--n-max", "10"])
    assert code in (0, 2) and len(doc["residues"]) == 10
    code, out, err = run(["probe", "--p", "3", "--g", "T", "--base", "T^2+1", "--n-max", "11"])
    assert code == 4 and "exceeds the configured bound 10" in err


def test_probe_modulus_degree_is_bounded(monkeypatch):
    # every term is a powering modulo base**e to an exponent of about
    # deg(base) * e * log2(q) bits, so n_max * (deg(base) * e)**3 * bits of q
    # is held to errors.DEFAULT_BOX_LIMIT before anything is powered
    start = time.perf_counter()
    code, out, err = run(["probe", "--p", "3", "--g", "T+2", "--base", "T^2+T+2", "--e", "40000"])
    assert code == 4 and out == "" and "exceeds the configured bound 100000000" in err
    code, out, err = run(["probe", "--p", "3", "--g", "T+2", "--base", "T^2+T+2", "--e", "32769"])
    assert code == 4 and f"probe charge {6 * 65538**3 * 2} " in err
    assert time.perf_counter() - start < 1.0
    from ffunits import errors

    argv = ["probe", "--p", "3", "--g", "T+2", "--base", "T^2+T+2", "--n-max", "3", "--e", "4"]
    charge = 3 * 8**3 * 2
    monkeypatch.setattr(errors, "DEFAULT_BOX_LIMIT", charge)
    code, doc = run_json(argv)
    assert code in (0, 2) and doc["modulus"]["exponent"] == 4 and len(doc["residues"]) == 3
    monkeypatch.setattr(errors, "DEFAULT_BOX_LIMIT", charge - 1)
    code, out, err = run(argv)
    assert code == 4 and f"probe charge {charge} " in err and f"bound {charge - 1}" in err


def test_probe_at_the_default_length_is_bounded():
    # a modulus of degree 800 is far below 2**16, but its six terms would
    # take tens of seconds of powering, the last ones about D**3 each
    start = time.perf_counter()
    code, out, err = run(["probe", "--p", "3", "--g", "T+2", "--base", "T^2+T+2", "--e", "400"])
    assert code == 4 and out == "" and f"probe charge {6 * 800**3 * 2} " in err
    assert time.perf_counter() - start < 1.0


def test_probe_charge_comes_before_the_base_test(monkeypatch):
    # the charge needs only deg(base), so a base of degree 400 (charge
    # 6 * 400**3 * 2) is refused before its irreducibility test, which took
    # seconds; a base of degree 200 is within the charge and still tested
    from ffunits import ratfunc

    tested = []
    original = ratfunc.is_irreducible

    def recorded(a):
        tested.append(a.degree())
        if a.degree() > 200:
            raise AssertionError("the base was tested before the probe was charged")
        return original(a)

    monkeypatch.setattr(ratfunc, "is_irreducible", recorded)
    start = time.perf_counter()
    code, out, err = run(["probe", "--p", "3", "--g", "T+2", "--base", "T^400+T+2"])
    assert code == 4 and out == "" and f"probe charge {6 * 400**3 * 2} " in err
    assert time.perf_counter() - start < 1.0 and tested == []
    code, out, err = run(["probe", "--p", "3", "--g", "T+2", "--base", "T^200+T+2"])
    assert code == 3 and "modulus base must be monic irreducible" in err and tested == [200]


def test_hasse_jet_work_is_bounded(monkeypatch):
    # the jet is charged (order + 1) * (min(order, deg den) + 1) *
    # (deg num + (order + 1) * deg den + 1)**2 before any expansion: order
    # 1000 of 1/(1+T+T^2) took 20 s and order 2000 ran past two minutes
    from ffunits import errors, hasse

    monkeypatch.setattr(hasse, "_jet_coeffs", lambda *a: pytest.fail("jet expanded"))
    start = time.perf_counter()
    for flag in ("--order", "--i"):
        code, out, err = run(["hasse", "--p", "2", "--x", "1/(1+T+T^2)", flag, "2000"])
        assert code == 4 and out == "" and f"jet charge {2001 * 3 * 4003**2} " in err
    assert time.perf_counter() - start < 1.0
    monkeypatch.undo()
    # a polynomial has deg den = 0, so even a long jet of it is cheap and allowed
    code, doc = run_json(["hasse", "--p", "2", "--x", "T", "--order", "8000"])
    assert code == 0 and doc["derivatives"][:3] == ["T", "1", "0"]
    argv = ["hasse", "--p", "3", "--x", "T/(1+T^2)", "--order", "5"]
    charge = 6 * 3 * (1 + 6 * 2 + 1) ** 2
    monkeypatch.setattr(errors, "DEFAULT_BOX_LIMIT", charge)
    code, doc = run_json(argv)
    assert code == 0 and len(doc["derivatives"]) == 6
    monkeypatch.setattr(errors, "DEFAULT_BOX_LIMIT", charge - 1)
    code, out, err = run(argv)
    assert code == 4 and f"jet charge {charge} " in err and f"bound {charge - 1}" in err
    # only the command is charged: the library and the solver's scans are not
    monkeypatch.setattr(hasse, "check_jet_bounds", lambda *a: pytest.fail("jet charged"))
    x = RatFunc.t(GF(3)).inverse()
    assert hasse.taylor_jet(x, 8)[8] == x**9
    code, doc = run_json(["solve", "--instance", os.path.join(INSTANCES, "p2-certified.toy")])
    assert code == 0 and doc["outcome"] == "certified-solutions"


def test_factor_work_is_bounded(monkeypatch):
    # factoring is charged deg**3 * bits of q before any split: T^1000+T+1
    # took 41 s, and repset on it did not finish in 200 s
    from ffunits import errors, poly

    monkeypatch.setattr(poly, "_squarefree_split", lambda *a: pytest.fail("factoring started"))
    start = time.perf_counter()
    charge = f"factoring charge {1000**3 * 2} "
    code, out, err = run(["factor", "--p", "2", "--poly", "T^1000+T+1"])
    assert code == 4 and out == "" and charge in err
    # the one check covers the factoring of every command
    for argv in (
        ["repset", "--p", "2", "--gens", "T^1000+T+1", "--m", "16"],
        ["solve", "--p", "2", "--gens", "T^1000+T+1", "--b", "T, 1", "--m", "1"],
        ["skolem", "--p", "2", "--gens", "T^1000+T+1", "--b", "T, 1", "--rhs", "0"],
    ):
        code, out, err = run(argv)
        assert code == 4 and out == "" and charge in err, argv
    assert time.perf_counter() - start < 1.0
    monkeypatch.undo()
    argv = ["factor", "--p", "3", "--poly", "T^5+2*T+1"]
    charge = 5**3 * 2
    monkeypatch.setattr(errors, "DEFAULT_BOX_LIMIT", charge)
    code, doc = run_json(argv)
    assert code == 0 and doc["factors"]
    monkeypatch.setattr(errors, "DEFAULT_BOX_LIMIT", charge - 1)
    code, out, err = run(argv)
    assert code == 4 and f"factoring charge {charge} " in err and f"bound {charge - 1}" in err


def test_parse_work_is_bounded(monkeypatch):
    # each operator is charged before its arithmetic: this power parsed for
    # 3.8 s at exponent 4,000, and the sum spent 4.5 s in the gcd of its
    # denominators before the jet charge refused it
    from ffunits import ratfunc

    original_pow, original_sum = ratfunc.RatFunc.__pow__, ratfunc._sum

    def power(x, e):
        if abs(e) * max(x.num.degree(), x.den.degree()) > 1000:
            pytest.fail("power built before the parse was charged")
        return original_pow(x, e)

    def summed(n1, d1, n2, d2):
        if max(a.degree() for a in (n1, d1, n2, d2)) > 1000:
            pytest.fail("sum built before the parse was charged")
        return original_sum(n1, d1, n2, d2)

    for target, name, patch, argv in (
        (ratfunc.RatFunc, "__pow__", power, ["factor", "--p", "65521", "--poly", "(1+T+T^2)^20000"]),
        (ratfunc, "_sum", summed,
         ["hasse", "--p", "65521", "--x", "1/T^100000 + 1/(T+1)^300", "--i", "0"]),
    ):
        monkeypatch.setattr(target, name, patch)
        start = time.perf_counter()
        code, out, err = run(argv)
        assert code == 4 and out == "" and "parse charge" in err, argv
        assert time.perf_counter() - start < 1.0
        monkeypatch.undo()
    # a single term powers to a single term, so it is charged its degree only
    code, out, err = run(["factor", "--p", "2", "--poly", "T^1000+T+1"])
    assert code == 4 and "factoring charge" in err
    code, doc = run_json(["hasse", "--p", "2", "--x", "T", "--order", "8000"])
    assert code == 0 and doc["derivatives"][:3] == ["T", "1", "0"]


def test_seed_is_not_an_option(tmp_path):
    # factor's seed cannot change a report, so it is neither a flag nor an instance key
    code, out, err = run(["solve", "--p", "2", "--gens", "1+T", "--b", "T, 1", "--m", "1",
                          "--seed", "0"])
    assert code == 3 and out == "" and "--seed" in err
    path = tmp_path / "inst.toy"
    path.write_text("p = 2\ngens = 1 + T\nb = T, 1\nm = 1\nseed = 0\n")
    code, out, err = run(["solve", "--instance", str(path)])
    assert code == 3 and out == "" and "unknown key 'seed'" in err


def test_flag_overrides_instance(tmp_path):
    path = tmp_path / "inst.toy"
    path.write_text("p = 2\ngens = 1 + T\nb = T, 1\nrhs = 1\nm = 1\n")
    code, doc = run_json(["solve", "--instance", str(path), "--rhs", "0"])
    assert doc["outcome"] == "certified-empty"
    # m and m_max are one choice of precision: a flag for either overrides both
    gap = os.path.join(INSTANCES, "p3-closure-gap.toy")
    with open(gap, encoding="utf-8") as handle:
        path.write_text(handle.read() + "m = 1\n")
    code, doc = run_json(["solve", "--instance", str(path), "--m-max", "2"])
    assert code == 2 and [f["m"] for f in doc["auto_failures"]] == [1, 2]
    assert run(["solve", "--instance", str(path), "--m-max", "2"]) == run(
        ["solve", "--instance", gap, "--m-max", "2"])
    code, doc = run_json(["solve", "--instance", gap, "--m", "1"])
    assert code == 2 and doc["m"] == 1 and doc["auto_failures"] == []


def test_reports_are_deterministic():
    path = os.path.join(INSTANCES, "p2-certified.toy")
    outputs = []
    for _ in range(2):
        _, out, _ = run(["solve", "--instance", path, "--verbose"])
        outputs.append(out)
    assert outputs[0] == outputs[1]

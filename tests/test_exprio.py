import random
import sys

import pytest

from ffunits import GF, RatFunc, exprio
from ffunits.errors import InputError
from ffunits.exprio import (
    Expr,
    ParseError,
    parse_element,
    parse_expr,
    print_expr,
    split_exprs,
)

from conftest import el, rand_ratfunc


def test_parse_structure(F3):
    ast = parse_expr("1 - T")
    assert ast == Expr("sub", (Expr("const", (), 1), Expr("var")))
    assert parse_element("1 - T", F3) == el(F3, "2*T + 1")

    ast = parse_expr("T^-1 * (1+T)")
    assert ast.op == "mul"
    assert ast.args[0] == Expr("pow", (Expr("var"),), -1)
    assert ast.args[1] == Expr("add", (Expr("const", (), 1), Expr("var")))

    ast = parse_expr("(T^2+T+1)/(T-1)")
    assert ast.op == "div"


def test_precedence(F2, F3):
    assert parse_expr("1+T*T") == Expr(
        "add", (Expr("const", (), 1), Expr("mul", (Expr("var"), Expr("var"))))
    )
    assert parse_expr("-T^2") == Expr("neg", (Expr("pow", (Expr("var"),), 2),))
    assert parse_element("-T^2", F3) == -el(F3, "T^2")
    assert parse_element("1-T^2", F3) == el(F3, "1") - el(F3, "T^2")
    with pytest.raises(ParseError):
        parse_expr("T^2^3")
    with pytest.raises(ParseError):
        parse_expr("2T")
    with pytest.raises(ParseError):
        parse_expr("")
    with pytest.raises(ParseError):
        parse_expr("(1+T")
    with pytest.raises(ParseError):
        parse_expr("T^")


def test_bad_literals_are_parse_errors():
    # str.isdigit also accepts superscripts, which int() rejects, and other
    # scripts' digits, which int() reads as numbers; int() also rejects a
    # literal longer than the interpreter's digit limit
    for text, position in (("T\u00b2", 1), ("1+\u00b2", 2), ("T^\u00b2", 2), ("\u0663", 0)):
        with pytest.raises(ParseError) as excinfo:
            parse_expr(text)
        assert excinfo.value.position == position
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:  # int() refuses longer digit strings; 0 means no limit
        text = "T + " + "1" * (limit + 1)
        with pytest.raises(ParseError, match="too long") as excinfo:
            parse_expr(text)
        assert excinfo.value.position == 4


def test_literals_reduce_mod_p(F3):
    assert parse_element("13", F3) == el(F3, "1")
    assert parse_element("-1", F3) == el(F3, "2")


def test_literaccording_extension_field():
    f4 = GF(2, 2, (1, 1, 1))
    x = parse_element("2", f4)  # digit encoding: the class of X
    assert x.num.coeffs == (2,)
    with pytest.raises(InputError):
        parse_element("4", f4)


def test_eval_examples(F3):
    assert parse_element("T + (1 - T)", F3) == RatFunc.one(F3)
    assert parse_element("T/T", F3) == RatFunc.one(F3)
    with pytest.raises(InputError):
        parse_element("1/(T-T)", F3)
    with pytest.raises(InputError):
        parse_element("(T-T)^-2", F3)


def test_exponent_bound(monkeypatch):
    with pytest.raises(ParseError):
        parse_expr("T^10000000")
    monkeypatch.setattr(exprio, "MAX_EXPONENT", 3)
    assert parse_expr("T^3") is not None
    with pytest.raises(ParseError):
        parse_expr("T^4")


def test_print_examples(F2):
    assert print_expr(el(F2, "T+1")) == "T + 1"
    assert print_expr(el(F2, "1/(T^2+1)")) == "1/(T^2 + 1)"
    assert print_expr(RatFunc.zero(F2)) == "0"
    assert print_expr(el(F2, "T/(T^2+T+1)")) == "T/(T^2 + T + 1)"
    assert print_expr(el(F2, "(T+1)/T^2")) == "(T + 1)/T^2"


def test_print_coefficients(F3):
    assert print_expr(el(F3, "2*T^2 + 2")) == "2*T^2 + 2"
    assert print_expr(el(F3, "1/(2+T)")) == "1/(T + 2)"
    assert print_expr(el(F3, "1/(2*T+2)")) == "2/(T + 1)"  # monic denominator


def test_round_trip(F2, F3, F5):
    rng = random.Random(113)
    for field in (F2, F3, F5):
        for _ in range(67):
            x = rand_ratfunc(rng, field, 6)
            assert parse_element(print_expr(x), field) == x


def test_round_trip_extension_field():
    rng = random.Random(127)
    f4 = GF(2, 2, (1, 1, 1))
    for _ in range(50):
        x = rand_ratfunc(rng, f4, 4)
        assert parse_element(print_expr(x), f4) == x


def test_split_exprs():
    assert split_exprs("T, 1+T") == ["T", "1+T"]
    assert split_exprs("(T, 1), T") == ["(T, 1)", "T"]
    assert split_exprs("T") == ["T"]

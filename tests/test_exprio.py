import random
import sys

import pytest

from ffunits import GF, Poly, RatFunc, errors, exprio
from ffunits.errors import InputError, ResourceLimitError
from ffunits.exprio import ParseError, parse_element, print_expr, split_exprs

from conftest import el, rand_ratfunc


def poly(field, coeffs):
    """The polynomial with the given coefficients, lowest degree first."""
    return RatFunc.from_poly(Poly.from_coeffs(field, coeffs))


def test_parse_structure(F3):
    assert parse_element("1 - T", F3) == poly(F3, (1, 2))
    assert parse_element("T^-1 * (1+T)", F3) == RatFunc.make(
        Poly.from_coeffs(F3, (1, 1)), Poly.x(F3)
    )
    assert parse_element("(T^2+T+1)/(T-1)", F3) == RatFunc.make(
        Poly.from_coeffs(F3, (1, 1, 1)), Poly.from_coeffs(F3, (2, 1))
    )


def test_precedence(F3):
    # left associativity: (1-T)-T = 1+T over GF(3), where 1-(T-T) would be 1
    assert parse_element("1-T-T", F3) == poly(F3, (1, 1))
    # (T/T)/T = 1/T, where T/(T/T) would be T
    assert parse_element("T/T/T", F3) == RatFunc.t(F3).inverse()
    # 1+(T*T) = T^2+1, where (1+T)*T would be T^2+T
    assert parse_element("1+T*T", F3) == poly(F3, (1, 0, 1))
    # -(T^2) = 2*T^2, where (-T)^2 would be T^2
    assert parse_element("-T^2", F3) == poly(F3, (0, 0, 2))
    assert parse_element("1-T^2", F3) == poly(F3, (1, 0, 2))
    assert parse_element("2*T^-1", F3) == RatFunc.make(Poly.constant(F3, 2), Poly.x(F3))
    for text, position in (("T^2^3", 3), ("2T", 1), ("", 0), ("(1+T", 4), ("T^", 2)):
        with pytest.raises(ParseError) as excinfo:
            parse_element(text, F3)
        assert excinfo.value.position == position


def test_bad_literals_are_parse_errors(F3):
    # str.isdigit also accepts superscripts, which int() rejects, and other
    # scripts' digits, which int() reads as numbers; int() also rejects a
    # literal longer than the interpreter's digit limit
    for text, position in (("T\u00b2", 1), ("1+\u00b2", 2), ("T^\u00b2", 2), ("\u0663", 0)):
        with pytest.raises(ParseError) as excinfo:
            parse_element(text, F3)
        assert excinfo.value.position == position
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:  # int() refuses longer digit strings; 0 means no limit
        text = "T + " + "1" * (limit + 1)
        with pytest.raises(ParseError, match="too long") as excinfo:
            parse_element(text, F3)
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
    # values are built as the text is read, so an evaluation error comes
    # before a later syntax error
    with pytest.raises(InputError, match="division by zero") as excinfo:
        parse_element("1/(T-T) )", F3)
    assert not isinstance(excinfo.value, ParseError)


def test_exponent_bound(F3, monkeypatch):
    with pytest.raises(ParseError) as excinfo:
        parse_element("T^10000000", F3)
    assert excinfo.value.position == 2
    monkeypatch.setattr(exprio, "MAX_EXPONENT", 3)
    assert parse_element("T^3", F3) == poly(F3, (0, 0, 0, 1))
    with pytest.raises(ParseError) as excinfo:
        parse_element("T^4", F3)
    assert excinfo.value.position == 2


def test_degree_bound(F3, monkeypatch):
    """No operator may build a value past the degree bound: refused at the
    operator, although every exponent literal is within it.
    """
    monkeypatch.setattr(exprio, "MAX_EXPONENT", 3)
    assert parse_element("T^3", F3) == poly(F3, (0, 0, 0, 1))
    assert parse_element("T^2*T", F3) == poly(F3, (0, 0, 0, 1))
    assert parse_element("(T+1)^3", F3) == poly(F3, (1, 0, 0, 1))
    assert parse_element("T^-3", F3) == RatFunc.make(Poly.one(F3), Poly.x(F3) ** 3)
    for text, position in (
        ("(T^2)^2", 5),
        ("T^2*T^2", 3),
        ("1/T^2 + 1/(T+1)^2", 6),
        ("(T^2)^-2", 5),
        ("T^2-T^2", 3),
        ("T^2/T^2", 3),
    ):
        with pytest.raises(ParseError, match="exceeds the bound 3") as excinfo:
            parse_element(text, F3)
        assert excinfo.value.position == position


def test_parse_charge(F3, monkeypatch):
    """Every operator is charged before it runs, times bits(q) = 2 over F_3:
    a parse whose largest charge is the bound runs, and one unit less
    refuses it.
    """
    for text, charge in (
        ("T^3", 4 * 2),  # a power of a single term: D + 1
        ("(1+T)^3", 4**2 * 2),  # a power of any other value: (D + 1)**2
        ("T^3 + T^3", 4 * 4 * 2),  # (d1 + 1) * (d2 + 1)
    ):
        monkeypatch.setattr(errors, "DEFAULT_BOX_LIMIT", charge)
        parse_element(text, F3)
        monkeypatch.setattr(errors, "DEFAULT_BOX_LIMIT", charge - 1)
        with pytest.raises(ResourceLimitError, match=f"parse charge {charge} "):
            parse_element(text, F3)
    # the degree bound is an input error, and comes first
    monkeypatch.setattr(exprio, "MAX_EXPONENT", 3)
    monkeypatch.setattr(errors, "DEFAULT_BOX_LIMIT", 0)
    with pytest.raises(ParseError, match="exceeds the bound 3"):
        parse_element("T^4", F3)


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

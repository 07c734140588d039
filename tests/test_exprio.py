import random
import sys

import pytest

from ffunits import GF, Poly, RatFunc, errors, exprio
from ffunits.errors import InputError, ResourceLimitError
from ffunits.exprio import (
    MAX_EXPONENT,
    MAX_NESTING,
    ParseError,
    _literal,
    _tokenize,
    parse_element,
    print_expr,
    split_exprs,
)

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
    operator, although every exponent literal is within it.  Degrees are
    read on reduced values: T/T is 1, of degree 0, and T^2/T is T.
    """
    assert parse_element("(T/T)^1000000", F3) == RatFunc.one(F3)
    monkeypatch.setattr(exprio, "MAX_EXPONENT", 3)
    assert parse_element("T^3", F3) == poly(F3, (0, 0, 0, 1))
    assert parse_element("T^2*T", F3) == poly(F3, (0, 0, 0, 1))
    assert parse_element("(T^2/T)^3", F3) == poly(F3, (0, 0, 0, 1))
    assert parse_element("T^2/T * T^2", F3) == poly(F3, (0, 0, 0, 1))
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
        # the fraction is charged 2 * 2 * 2 and reduces to 1, so the sum is
        # charged 1 * 4 * 2, where the unreduced degree 1 would charge 16
        ("(T+1)/(T+1) + T^3", 8),
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


def _stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_nesting_fits_five_frames_a_level(F3):
    """MAX_NESTING is half of Python's default recursion limit because a
    level of parentheses costs 5 frames (atom, expr, term, unary, factor):
    the deepest nesting parses within 5 * MAX_NESTING frames and a small
    margin, where one more frame a level would need MAX_NESTING more."""
    nested = "(" * MAX_NESTING + "T" + ")" * MAX_NESTING
    t = RatFunc.t(F3)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 5 * MAX_NESTING + 20)
    try:
        assert parse_element(nested, F3) == t
    finally:
        sys.setrecursionlimit(limit)


def test_split_exprs():
    assert split_exprs("T, 1+T") == ["T", "1+T"]
    assert split_exprs("(T, 1), T") == ["(T, 1)", "T"]
    assert split_exprs("T") == ["T"]


# -- the evaluator on RatFunc values, as the oracle of the list evaluator --
#
# ``_Parser`` below is exprio's evaluator as it was written on RatFunc
# values, one RatFunc operation per operator, with its tokenizer, bounds
# and charges shared with exprio.  parse_element now evaluates on
# coefficient lists, and must agree with it on every text: the same value,
# or the same exception with the same message and position.


class _Parser:
    def __init__(self, text: str, field: GF):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.field = field
        self.bits = field.q.bit_length()

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        self.pos += 1
        return tok

    def parse_expr(self) -> RatFunc:
        value = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.take()
            rhs = self.parse_term()
            d1, d2 = _degree(value), _degree(rhs)
            self.check(d1 + d2, (d1 + 1) * (d2 + 1), pos)
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self) -> RatFunc:
        value = self.parse_unary()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.take()
            rhs = self.parse_unary()
            d1, d2 = _degree(value), _degree(rhs)
            self.check(d1 + d2, (d1 + 1) * (d2 + 1), pos)
            if op == "*":
                value = value * rhs
            elif rhs.is_zero:
                raise InputError("division by zero in expression")
            else:
                value = value / rhs
        return value

    def parse_unary(self) -> RatFunc:
        negate = False
        while self.peek()[0] == "-":  # a loop, so a run of signs takes no stack
            self.take()
            negate = not negate
        value = self.parse_factor()
        return -value if negate else value

    def parse_factor(self) -> RatFunc:
        value = self.parse_atom()
        if self.peek()[0] == "^":
            pos = self.take()[2]
            sign = 1
            if self.peek()[0] == "-":
                self.take()
                sign = -1
            tok = self.take("int")
            exponent = sign * tok[1]
            if abs(exponent) > MAX_EXPONENT:
                raise ParseError(f"exponent exceeds the bound {MAX_EXPONENT}", tok[2])
            degree = abs(exponent) * _degree(value)
            # a power of a single term is a single term
            self.check(degree, degree + 1 if _is_term(value) else (degree + 1) ** 2, pos)
            if value.is_zero and exponent < 0:
                raise InputError("zero raised to a negative power")
            value = value**exponent
        return value

    def check(self, degree: int, work: int, position: int) -> None:
        """Refuse a result degree past MAX_EXPONENT, then charge the work."""
        if degree > MAX_EXPONENT:
            raise ParseError(f"degree {degree} exceeds the bound {MAX_EXPONENT}", position)
        work *= self.bits
        if work > errors.DEFAULT_BOX_LIMIT:
            errors.refuse("parse charge", work, errors.DEFAULT_BOX_LIMIT)

    def parse_atom(self) -> RatFunc:
        kind, value, pos = self.peek()
        if kind == "int":
            self.take()
            return RatFunc.constant(self.field, _literal(self.field, value))
        if kind == "var":
            self.take()
            return RatFunc.t(self.field)
        if kind == "(":
            self.take()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", pos)
            value = self.parse_expr()
            self.take(")")
            self.depth -= 1
            return value
        raise ParseError(f"expected a value, found {kind!r}", pos)


def _degree(x: RatFunc) -> int:
    return max(x.num.degree(), x.den.degree())


def _is_term(x: RatFunc) -> bool:
    return not any(x.num.coeffs[:-1]) and not any(x.den.coeffs[:-1])


def _oracle_parse(text: str, field: GF) -> RatFunc:
    if not text.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(text, field)
    value = parser.parse_expr()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing {kind!r}", pos)
    return value


ORACLE_FIELDS = (GF(2), GF(3), GF(5), GF(2, 2, (1, 1, 1)), GF(3, 2, (1, 0, 1)))


def _random_text(rng: random.Random, q: int, depth: int = 0) -> str:
    """An expression with fractions, powers (^0, ^-0, ^-k), zero
    subexpressions, runs of unary minus and nesting, spaced at random."""

    def space():
        return rng.choice(("", "", " "))

    def atom():
        roll = rng.random()
        if roll < 0.15 and depth < 3:
            return f"({space()}{_random_text(rng, q, depth + 1)}{space()})"
        if roll < 0.2:
            return rng.choice(("(T-T)", "(1 - 1)", "0", "(T^2 - T*T)"))
        if roll < 0.6:
            return "T"
        return str(rng.randrange(1, q + 1 if rng.random() < 0.05 else q))

    def factor():
        text = atom()
        if rng.random() < 0.3:
            text += "^" + rng.choice(("0", "-0", "1", "2", "3", "-1", "-2", "-3"))
        return text

    def unary():
        return "-" * rng.choice((0, 0, 0, 1, 2, 3)) + factor()

    def chain(item, ops, most):
        text = item()
        for _ in range(rng.randrange(most)):
            text += f"{space()}{rng.choice(ops)}{space()}{item()}"
        return text

    return chain(lambda: chain(unary, "*/", 3), "+-", 4)


def _malformed(rng: random.Random, text: str) -> str:
    """text with one character dropped, inserted or replaced, or cut short."""
    i = rng.randrange(len(text) + 1)
    junk = rng.choice("T+-*/^()0123 x,")
    return rng.choice((
        text[:i] + text[i + 1:],
        text[:i] + junk + text[i:],
        text[:i] + junk + text[i + 1:],
        text[:i],
    ))


def _outcome(parse, text: str, field: GF):
    try:
        return parse(text, field)
    except Exception as exc:  # compared by class, message and position
        return type(exc), str(exc), getattr(exc, "position", None)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: f"GF{f.q}")
def test_list_evaluator_agrees_with_ratfunc_evaluator(field, monkeypatch):
    """400 seeded texts per field, one in five malformed, each parsed once
    at the default bounds and once under a parse-charge bound of 32, which
    refuses 7-32% of them: parse_element returns the oracle's value or
    raises its error, position and charge included.
    """
    rng = random.Random(1009 * field.q)
    seen = {"fraction": 0, "error": 0, "value": 0, "charge": 0}
    for _ in range(400):
        text = _random_text(rng, field.q)
        if rng.random() < 0.2:
            text = _malformed(rng, text)
        want = _outcome(_oracle_parse, text, field)
        assert _outcome(parse_element, text, field) == want, text
        if isinstance(want, RatFunc):
            seen["value"] += 1
            seen["fraction"] += not want.den.is_one
        else:
            seen["error"] += 1
        with monkeypatch.context() as patched:
            patched.setattr(errors, "DEFAULT_BOX_LIMIT", 32)
            want = _outcome(_oracle_parse, text, field)
            assert _outcome(parse_element, text, field) == want, text
        seen["charge"] += not isinstance(want, RatFunc) and want[0] is ResourceLimitError
    assert min(seen.values()) >= 20, seen

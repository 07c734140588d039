"""Text syntax for field elements: an evaluating parser and a canonical printer.

Grammar (the indeterminate is spelled T):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | factor
    factor := atom ('^' integer)?
    atom   := 'T' | integer | '(' expr ')'

'^' takes an optionally signed integer literal and binds tighter than
unary minus, so -T^2 parses as -(T^2); chained '^' needs parentheses.
Integer literals are reduced into the field: the least nonnegative
residue mod p when s == 1, and the base-p digit encoding (which must lie
in range(q)) for proper extensions.  The text is split into tokens by one
compiled pattern (_TOKEN): a literal is a run of ASCII digits, whitespace
is any Unicode whitespace, and any other character is refused at its
position.

The parser evaluates as it reads, so each rule returns the exact value of
its text, held as a pair (num, den) of coefficient lists: the reduced
fraction with monic den, and zero as ([], [1]).  expr and term each read
their operands in one loop and hand every binary operator, once its right
operand is read, to one step (_Parser.apply): it checks and charges the
operator at its position, refuses a zero divisor, then adds, subtracts or
multiplies two polynomials by the poly list kernels.  A positive power of a single term
is placed directly; a '/', any other power, or an operand with a
denominator goes through the RatFunc operators, so every fraction is
reduced by the ratfunc rules.
parse_element builds one RatFunc, at the end.  The degree of a value is
the larger of its numerator's and denominator's, read on the reduced
value; no operation may build a value whose degree could pass
MAX_EXPONENT.  A binary operator is refused when its operands' degrees sum
past it, and '^' when |exponent| times the base's degree does; either is a
ParseError at the operator, raised before the arithmetic runs.  Each
operator is then charged, also before it runs, times bits(q): (d1 + 1) *
(d2 + 1) for operands of degrees d1 and d2 (a product, or the gcd of a
sum's denominators), and (D + 1)**2 for a power of degree D, or D + 1 when
the base is a single term; past errors.DEFAULT_BOX_LIMIT, the parse stops
with ResourceLimitError.  The parser recurses once per parenthesis, so
parentheses may nest at most MAX_NESTING deep, a ParseError at the one
past it; a run of unary minus signs is read in a loop.

The printer emits the canonical form "num/(den)" with terms in decreasing
degree and coefficients as canonical field integers; printing then parsing
returns the identical value.
"""

import operator
import re

from . import errors
from .errors import InputError
from .field import GF
from .poly import Poly, _add_list, _mul_list, _neg_list, _sub_list, _trim, _trimmed
from .ratfunc import RatFunc, _canonical

MAX_EXPONENT = 10**6
MAX_NESTING = 100  # 5 frames a level: half of Python's default recursion limit


class ParseError(InputError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# a token: an ASCII digit run, a symbol, or any other character but
# whitespace, which the tokenizer refuses
_TOKEN = re.compile(r"([0-9]+)|([T+*/^()-])|(\S)")


def _tokenize(text: str):
    tokens = []
    for match in _TOKEN.finditer(text):  # finditer skips the whitespace between tokens
        digits, symbol, other = match.groups()
        i = match.start(match.lastindex)
        if other is not None:
            raise ParseError(f"unexpected character {other!r}", i)
        if symbol is not None:
            tokens.append(("var" if symbol == "T" else symbol, None, i))
            continue
        try:
            value = int(digits)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise ParseError("integer literal too long", i) from None
        tokens.append(("int", value, i))
    tokens.append(("end", None, len(text)))
    return tokens


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

    def parse_expr(self):
        value = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            token = self.take()
            value = self.apply(value, token, self.parse_term())
        return value

    def parse_term(self):
        value = self.parse_unary()
        while self.peek()[0] in ("*", "/"):
            token = self.take()
            value = self.apply(value, token, self.parse_unary())
        return value

    def apply(self, value, token, rhs):
        """value op rhs for the binary operator token, checked and charged at
        its position: +, - and * of two polynomials on the list kernels, any
        other case through the RatFunc operators."""
        op, _, pos = token
        d1, d2 = _degree(value), _degree(rhs)
        self.check(d1 + d2, (d1 + 1) * (d2 + 1), pos)
        f = self.field
        if op == "/":
            if not rhs[0]:
                raise InputError("division by zero in expression")
        elif len(value[1]) == 1 and len(rhs[1]) == 1:  # two polynomials
            a, b = value[0], rhs[0]
            if op == "*":
                # leading coefficients multiply to a nonzero one: no trim
                return (_mul_list(f, a, b) if a and b else []), [1]
            return _trim((_add_list if op == "+" else _sub_list)(f, a, b)), [1]
        return _coeffs(_RATFUNC_OPS[op](_ratfunc(f, value), _ratfunc(f, rhs)))

    def parse_unary(self):
        negate = False
        while self.peek()[0] == "-":  # a loop, so a run of signs takes no stack
            self.take()
            negate = not negate
        value = self.parse_factor()
        return (_neg_list(self.field, value[0]), value[1]) if negate else value

    def parse_factor(self):
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
            term = _is_term(value)
            # a power of a single term is a single term
            self.check(degree, degree + 1 if term else (degree + 1) ** 2, pos)
            if not value[0] and exponent < 0:
                raise InputError("zero raised to a negative power")
            value = _power(self.field, value, exponent, term)
        return value

    def check(self, degree: int, work: int, position: int) -> None:
        """Refuse a result degree past MAX_EXPONENT, then charge the work."""
        if degree > MAX_EXPONENT:
            raise ParseError(f"degree {degree} exceeds the bound {MAX_EXPONENT}", position)
        work *= self.bits
        if work > errors.DEFAULT_BOX_LIMIT:
            errors.refuse("parse charge", work, errors.DEFAULT_BOX_LIMIT)

    def parse_atom(self):
        kind, value, pos = self.peek()
        if kind == "int":
            self.take()
            c = _literal(self.field, value)
            return ([c] if c else []), [1]
        if kind == "var":
            self.take()
            return [0, 1], [1]
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


_RATFUNC_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _degree(value) -> int:
    return max(len(value[0]), len(value[1])) - 1


def _is_term(value) -> bool:
    num, den = value
    return not any(num[:-1]) and not any(den[:-1])


def _ratfunc(f: GF, value) -> RatFunc:
    num, den = value
    return _canonical(_trimmed(f, num), _trimmed(f, den))


def _coeffs(x: RatFunc):
    return list(x.num.coeffs), list(x.den.coeffs)


def _power(f: GF, value, e: int, term: bool):
    """value**e, for a nonzero value when e < 0."""
    if e == 0:
        return [1], [1]
    if term and e > 0:  # c*T^k to the e is c^e*T^(k*e), placed directly
        num, den = value
        if num:
            num = [0] * ((len(num) - 1) * e) + [f.power(num[-1], e)]
        return num, [0] * ((len(den) - 1) * e) + [1]
    return _coeffs(_ratfunc(f, value) ** e)


def _literal(field: GF, value: int) -> int:
    if field.s == 1:
        return value % field.p
    if not 0 <= value < field.q:
        raise InputError(
            f"literal {value} is out of range for GF({field.q}); "
            "use the base-p digit encoding in range(q)"
        )
    return value


def parse_element(text: str, field: GF) -> RatFunc:
    """The exact value of one expression; the whole input must be consumed."""
    if not text.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(text, field)
    value = parser.parse_expr()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing {kind!r}", pos)
    return _ratfunc(field, value)


def split_exprs(text: str) -> list[str]:
    """Split on top-level commas (commas inside parentheses stay put)."""
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p.strip() for p in parts]


def poly_text(a: Poly) -> str:
    """Terms in decreasing degree; canonical coefficient integers."""
    if a.is_zero:
        return "0"
    parts = []
    for k in range(a.degree(), -1, -1):
        c = a.coeff(k)
        if not c:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            base = "T" if k == 1 else f"T^{k}"
            parts.append(base if c == 1 else f"{c}*{base}")
    return " + ".join(parts)


def print_expr(x: RatFunc) -> str:
    """Canonical text; parse_element(print_expr(x)) == x."""
    num = poly_text(x.num)
    if x.den.is_one:
        return num
    den = poly_text(x.den)
    if " " in num:
        num = f"({num})"
    if " " in den or "*" in den:
        den = f"({den})"
    return f"{num}/{den}"

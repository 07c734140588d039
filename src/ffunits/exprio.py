"""Text syntax for field elements: parser, evaluator, canonical printer.

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
in range(q)) for proper extensions.

The printer emits the canonical form "num/(den)" with terms in decreasing
degree and coefficients as canonical field integers; printing then parsing
returns the identical value.
"""

from dataclasses import dataclass

from .errors import InputError
from .field import GF
from .ratfunc import RatFunc
from .poly import Poly

MAX_EXPONENT = 10**6


class ParseError(InputError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Expr:
    op: str  # const | var | add | sub | mul | div | neg | pow
    args: tuple["Expr", ...] = ()
    value: int | None = None


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise ParseError("integer literal too long", i) from None
            tokens.append(("int", value, i))
            i = j
            continue
        if ch == "T":
            tokens.append(("var", None, i))
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append((ch, None, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        self.pos += 1
        return tok

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.parse_term()
            node = Expr("add" if op == "+" else "sub", (node, rhs))
        return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            rhs = self.parse_unary()
            node = Expr("mul" if op == "*" else "div", (node, rhs))
        return node

    def parse_unary(self) -> Expr:
        if self.peek()[0] == "-":
            self.take()
            return Expr("neg", (self.parse_unary(),))
        return self.parse_factor()

    def parse_factor(self) -> Expr:
        node = self.parse_atom()
        if self.peek()[0] == "^":
            self.take()
            sign = 1
            if self.peek()[0] == "-":
                self.take()
                sign = -1
            tok = self.take("int")
            exponent = sign * tok[1]
            if abs(exponent) > MAX_EXPONENT:
                raise ParseError(f"exponent exceeds the bound {MAX_EXPONENT}", tok[2])
            node = Expr("pow", (node,), exponent)
        return node

    def parse_atom(self) -> Expr:
        kind, value, pos = self.peek()
        if kind == "int":
            self.take()
            return Expr("const", (), value)
        if kind == "var":
            self.take()
            return Expr("var")
        if kind == "(":
            self.take()
            node = self.parse_expr()
            self.take(")")
            return node
        raise ParseError(f"expected a value, found {kind!r}", pos)


def parse_expr(text: str) -> Expr:
    """Parse one expression; the whole input must be consumed."""
    if not text.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing {kind!r}", pos)
    return node


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


def _literal(field: GF, value: int) -> int:
    if field.s == 1:
        return value % field.p
    if not 0 <= value < field.q:
        raise InputError(
            f"literal {value} is out of range for GF({field.q}); "
            "use the base-p digit encoding in range(q)"
        )
    return value


def eval_expr(ast: Expr, field: GF) -> RatFunc:
    """Exact evaluation to a canonical field element."""
    if ast.op == "const":
        return RatFunc.constant(field, _literal(field, ast.value))
    if ast.op == "var":
        return RatFunc.t(field)
    if ast.op == "neg":
        return -eval_expr(ast.args[0], field)
    if ast.op == "pow":
        base = eval_expr(ast.args[0], field)
        if base.is_zero and ast.value < 0:
            raise InputError("zero raised to a negative power")
        return base**ast.value
    lhs = eval_expr(ast.args[0], field)
    rhs = eval_expr(ast.args[1], field)
    if ast.op == "add":
        return lhs + rhs
    if ast.op == "sub":
        return lhs - rhs
    if ast.op == "mul":
        return lhs * rhs
    if ast.op == "div":
        if rhs.is_zero:
            raise InputError("division by zero in expression")
        return lhs / rhs
    raise InputError(f"unknown expression node {ast.op!r}")


def parse_element(text: str, field: GF) -> RatFunc:
    return eval_expr(parse_expr(text), field)


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

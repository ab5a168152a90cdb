"""Text grammar for ring specifications and algebraic expressions.

Expression grammar (whitespace-insensitive, left-associative, ``^`` binds
tightest, negative exponents on names only)::

    expr     := term (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := '-' unary | power
    power    := atom ('^' exponent)?
    exponent := '-'? INT
    atom     := INT | NAME | '(' expr ')' | 'O' '(' NAME ('^' '-'? INT)? ')'

Ring specifications are ``F<q>`` for a prime or Galois field of ``q``
elements and ``F<q>[e]/e^<m>`` for the truncated polynomial extension with
``e^m = 0``.

Names resolve against the evaluation domain: ``e`` is the nilpotent
generator, ``g`` the Galois field generator, ``t`` the series or curve
variable.  Iterated series of depth two use inner variable ``t1`` (alias
``t``) and outer variable ``t2`` (alias ``s``); bivariate rational
expressions use ``t1`` and ``t2``.  An ``O(var^N)`` tail truncates a series
expression at absolute precision ``N`` and must use the outermost variable.

``format_series`` (the canonical printer) and ``parse_expression`` are
mutually inverse on series: parse-print-parse equals parse.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import (DivisionByNonUnit, ExpressionSyntaxError, UnknownSymbol,
                     UnsupportedArgument)
from .geometry import BivarRational, RationalFunction
from .laurent import LaurentRing, LaurentSeries
from .rings import ArtinianLocal, GaloisField, PrimeField, _is_prime, embed


# ---------------------------------------------------------------------------
# ring specifications

_RING_RE = re.compile(r"F(\d+)(?:\[e\]/e\^(\d+))?$")


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, by integer Newton steps from above."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _prime_power(q: int):
    """(p, d) with q = p^d and p prime, or None.  With k the largest exponent
    for which q is a perfect k-th power, q is a prime power iff its k-th root
    is prime."""
    for k in range(q.bit_length(), 1, -1):
        r = _iroot(q, k)
        if r > 1 and r ** k == q:
            return (r, k) if _is_prime(r) else None
    return (q, 1) if _is_prime(q) else None


def parse_ring(spec: str):
    """Parse ``"F5"``, ``"F9"`` or ``"F5[e]/e^2"`` into a ring descriptor."""
    text = "".join(spec.split())
    m = _RING_RE.match(text)
    if not m:
        raise ExpressionSyntaxError(f"bad ring spec {spec!r}", 1, 1)
    q = int(m.group(1))
    if q < 2:
        raise ExpressionSyntaxError(f"bad ring spec {spec!r}: need q >= 2", 1, 1)
    pd = _prime_power(q)
    if pd is None:
        raise ExpressionSyntaxError(
            f"bad ring spec {spec!r}: {q} is not a prime power", 1, 1)
    p, d = pd
    field = PrimeField(p) if d == 1 else GaloisField(p, d)
    if m.group(2) is None:
        return field
    length = int(m.group(2))
    if length < 2:
        raise ExpressionSyntaxError(
            f"bad ring spec {spec!r}: nilpotency length must be >= 2", 1, 1)
    return ArtinianLocal(field, length)


def ring_label(ring) -> str:
    """Canonical spec string for a coefficient-ring descriptor: its repr."""
    if isinstance(ring, (PrimeField, GaloisField, ArtinianLocal)):
        return repr(ring)
    raise ExpressionSyntaxError(f"no spec string for {ring!r}", 1, 1)


# ---------------------------------------------------------------------------
# lexer

@dataclass(frozen=True)
class Token:
    kind: str  # "int" | "name" | one of "+-*/^()" | "end"
    text: str
    line: int
    column: int


_INT_RE = re.compile(r"\d+")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def tokenize(src: str) -> list:
    tokens = []
    for lineno, line in enumerate(src.splitlines() or [""], start=1):
        col = 0
        while col < len(line):
            ch = line[col]
            if ch.isspace():
                col += 1
            elif ch.isdigit():
                text = _INT_RE.match(line, col).group()
                tokens.append(Token("int", text, lineno, col + 1))
                col += len(text)
            elif ch.isalpha() or ch == "_":
                text = _NAME_RE.match(line, col).group()
                tokens.append(Token("name", text, lineno, col + 1))
                col += len(text)
            elif ch in "+-*/^()":
                tokens.append(Token(ch, ch, lineno, col + 1))
                col += 1
            else:
                raise ExpressionSyntaxError(f"unexpected character {ch!r}",
                                            lineno, col + 1)
    if tokens:
        last = tokens[-1]
        tokens.append(Token("end", "", last.line, last.column + len(last.text)))
    else:
        tokens.append(Token("end", "", 1, 1))
    return tokens


# ---------------------------------------------------------------------------
# syntax tree

@dataclass(frozen=True)
class Num:
    value: int
    line: int
    column: int


@dataclass(frozen=True)
class Name:
    name: str
    line: int
    column: int


@dataclass(frozen=True)
class Neg:
    operand: object
    line: int
    column: int


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object
    line: int
    column: int


@dataclass(frozen=True)
class Power:
    base: object
    exponent: int
    line: int
    column: int


@dataclass(frozen=True)
class Tail:
    var: str
    prec: int
    line: int
    column: int


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            found = tok.text if tok.kind != "end" else "end of input"
            raise ExpressionSyntaxError(f"expected {kind!r}, found {found!r}",
                                        tok.line, tok.column)
        return self.advance()

    def expr(self):
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            node = BinOp(op.kind, node, self.term(), op.line, op.column)
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            node = BinOp(op.kind, node, self.unary(), op.line, op.column)
        return node

    def unary(self):
        if self.peek().kind == "-":
            tok = self.advance()
            return Neg(self.unary(), tok.line, tok.column)
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek().kind != "^":
            return base
        caret = self.advance()
        exponent, negative = self.signed_int()
        if negative and not isinstance(base, Name):
            raise ExpressionSyntaxError(
                "negative exponents are allowed on variables only",
                caret.line, caret.column)
        return Power(base, exponent, caret.line, caret.column)

    def signed_int(self):
        """An INT after an optional '-': (its value, whether '-' was read)."""
        negative = self.peek().kind == "-"
        if negative:
            self.advance()
        value = int(self.expect("int").text)
        return (-value if negative else value), negative

    def atom(self):
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return Num(int(tok.text), tok.line, tok.column)
        if tok.kind == "name":
            self.advance()
            if tok.text == "O" and self.peek().kind == "(":
                return self.tail(tok)
            return Name(tok.text, tok.line, tok.column)
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        found = tok.text if tok.kind != "end" else "end of input"
        raise ExpressionSyntaxError(f"unexpected {found!r}", tok.line, tok.column)

    def tail(self, otok: Token):
        self.expect("(")
        var = self.expect("name")
        prec = 1
        if self.peek().kind == "^":
            self.advance()
            prec = self.signed_int()[0]
        self.expect(")")
        return Tail(var.text, prec, otok.line, otok.column)


def parse_tree(src: str):
    """Parse an expression into a syntax tree without evaluating it."""
    parser = _Parser(tokenize(src))
    node = parser.expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ExpressionSyntaxError(f"unexpected trailing {tok.text!r}",
                                    tok.line, tok.column)
    return node


# ---------------------------------------------------------------------------
# evaluation domains

@dataclass
class Domain:
    """Value domain an expression tree is lowered into."""

    kind: str          # "series" | "rational" | "bivariate"
    ring: object       # coefficient-ring descriptor
    names: dict        # identifier -> domain value
    from_int: object   # int -> domain value
    tail_vars: tuple = ()   # names accepted inside O(...)
    precision: int = None   # absolute working precision for series division


def _scalar_names(ring) -> dict:
    names = {}
    base = ring
    if isinstance(base, ArtinianLocal):
        names["e"] = base.eps()
        base = base.base
    if isinstance(base, GaloisField):
        gen = base.generator()
        names["g"] = gen if base is ring else embed(gen, ring)
    return names


def series_domain(ring, depth: int = 1, precision: int = None) -> Domain:
    """Laurent series over ``ring``; depth > 1 builds an iterated tower with
    variables ``t1 .. t<depth>`` (innermost first)."""
    if depth == 1:
        variables = ("t",)
    else:
        variables = tuple(f"t{i}" for i in range(1, depth + 1))
    tower = []
    structure = ring
    for var in variables:
        structure = LaurentRing(structure, var)
        tower.append(structure)
    names = {}
    for i, var in enumerate(variables):
        value = tower[i].gen()
        for outer in tower[i + 1:]:
            value = outer.constant(value)
        names[var] = value
    tail_vars = (variables[-1],)
    if depth == 2:
        names.setdefault("t", names["t1"])
        names.setdefault("s", names["t2"])
        tail_vars += ("s",)
    for key, value in _scalar_names(ring).items():
        for level in tower:
            value = level.constant(value)
        names[key] = value
    return Domain("series", ring, names, tower[-1].from_int, tail_vars, precision)


def _function_domain(kind: str, ring, cls, names: dict) -> Domain:
    for key, value in _scalar_names(ring).items():
        names[key] = cls.constant(value)
    return Domain(kind, ring, names, lambda n: cls.constant(ring.from_int(n)))


def rational_domain(ring) -> Domain:
    return _function_domain("rational", ring, RationalFunction,
                            {"t": RationalFunction.variable(ring)})


def bivariate_domain(ring) -> Domain:
    return _function_domain("bivariate", ring, BivarRational,
                            {"t1": BivarRational.t1(ring),
                             "t2": BivarRational.t2(ring)})


def scalar_domain(ring) -> Domain:
    return Domain("scalar", ring, _scalar_names(ring), ring.from_int)


# ---------------------------------------------------------------------------
# evaluation

def _apply_tail(value, tail: Tail, dom: Domain):
    if dom.kind != "series":
        raise ExpressionSyntaxError("O(...) tails apply to series only",
                                    tail.line, tail.column)
    if tail.var not in dom.tail_vars:
        raise ExpressionSyntaxError(
            f"O(...) must use the outermost series variable, not {tail.var!r}",
            tail.line, tail.column)
    return value.truncate(tail.prec)


def _divide(left, right, node: BinOp, dom: Domain):
    if dom.kind == "series":
        if not right.coeffs and right.prec is None:
            raise DivisionByNonUnit("division by the zero series")
        if dom.precision is not None:
            shift = left.low if left.low is not None else 0
            return left * right.inv(dom.precision - shift)
        return left / right
    if right.is_zero():
        raise DivisionByNonUnit("division by zero" if dom.kind == "scalar"
                                else "division by the zero function")
    return left / right


def _evaluate(node, dom: Domain):
    if isinstance(node, Num):
        return dom.from_int(node.value)
    if isinstance(node, Name):
        try:
            return dom.names[node.name]
        except KeyError:
            raise UnknownSymbol(f"unknown symbol {node.name!r}",
                                node.line, node.column) from None
    if isinstance(node, Neg):
        return -_evaluate(node.operand, dom)
    if isinstance(node, Power):
        return _evaluate(node.base, dom) ** node.exponent
    if isinstance(node, Tail):
        # A bare O(t^N): the zero series known to precision N.
        return _apply_tail(dom.from_int(0), node, dom)
    if isinstance(node, BinOp):
        if node.op == "+" and isinstance(node.right, Tail):
            return _apply_tail(_evaluate(node.left, dom), node.right, dom)
        if isinstance(node.right, Tail) or isinstance(node.left, Tail):
            tail = node.right if isinstance(node.right, Tail) else node.left
            raise ExpressionSyntaxError("O(...) may only end a sum",
                                        tail.line, tail.column)
        left = _evaluate(node.left, dom)
        right = _evaluate(node.right, dom)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        return _divide(left, right, node, dom)
    raise ExpressionSyntaxError(f"cannot evaluate {node!r}", 1, 1)


def _wants_series(node) -> bool:
    if isinstance(node, Tail):
        return True
    if isinstance(node, Power):
        return node.exponent < 0 or _wants_series(node.base)
    if isinstance(node, Neg):
        return _wants_series(node.operand)
    if isinstance(node, BinOp):
        return _wants_series(node.left) or _wants_series(node.right)
    return False


def parse_expression(src: str, ring, domain: str = "auto", depth: int = 1,
                     precision: int = None):
    """Parse and evaluate ``src`` over the given coefficient ring.

    ``domain`` selects the value domain: ``"series"`` (Laurent series, depth
    many iterated variables), ``"rational"`` (one-variable rational
    function), ``"bivariate"`` (two-variable rational function), or
    ``"auto"`` which picks series when the expression carries an ``O(...)``
    tail or a negative exponent and rational otherwise.
    """
    tree = parse_tree(src)
    if domain == "auto":
        domain = "series" if _wants_series(tree) else "rational"
    if domain == "series":
        dom = series_domain(ring, depth=depth, precision=precision)
    elif domain == "rational":
        dom = rational_domain(ring)
    elif domain == "bivariate":
        dom = bivariate_domain(ring)
    else:
        raise ExpressionSyntaxError(f"unknown domain {domain!r}", 1, 1)
    value = _evaluate(tree, dom)
    if domain == "series" and precision is not None and isinstance(value, LaurentSeries):
        value = value.truncate(precision)
    return value


def parse_scalar(src: str, ring):
    """Parse an expression with no series/curve variables into a ring value."""
    return _evaluate(parse_tree(src), scalar_domain(ring))


def parse_polynomial(src: str, ring, var: str = "t"):
    """Parse a polynomial expression in one named variable.

    Division is allowed as long as it cancels: the result must have trivial
    denominator.
    """
    dom = rational_domain(ring)
    dom.names[var] = dom.names.pop("t")
    value = _evaluate(parse_tree(src), dom)
    if not value.den.is_one():
        raise UnsupportedArgument(
            f"{src!r} is not polynomial in {var!r} (denominator {value.den!r})")
    return value.num

"""Text grammar for ring specifications and algebraic expressions.

Expression grammar (whitespace-insensitive, left-associative, ``^`` binds
tightest, negative exponents on names only)::

    expr     := term (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := '-' unary | power
    power    := atom ('^' exponent)?
    exponent := '-'? INT
    atom     := INT | NAME | '(' expr ')' | 'O' '(' NAME ('^' '-'? INT)? ')'

Parentheses may nest ``MAX_NESTING`` deep; deeper input is a syntax error.
Chains of ``+``/``-`` and of ``*``/``/`` and runs of unary minus are read and
evaluated in loops, so their length is not limited.

Ring specifications are ``F<q>`` for a prime or Galois field of ``q``
elements and ``F<q>[e]/e^<m>`` for the truncated polynomial extension with
``e^m = 0``.

Names resolve against the evaluation domain: ``e`` is the nilpotent
generator, ``g`` the Galois field generator, ``t`` the series or curve
variable.  Iterated series of depth two use inner variable ``t1`` (alias
``t``) and outer variable ``t2`` (alias ``s``); bivariate rational
expressions use ``t1`` and ``t2``.  An ``O(var^N)`` tail truncates a series
expression at absolute precision ``N`` and must use the outermost variable.

Lowering: an exact polynomial subtree (integers, names, ``+ - *`` and
``^n`` with n >= 0) evaluates to a payload dict over the coefficient ring,
``{exponent: payload}`` on the line, for series and for scalars and
``{(i, j): payload}`` on the plane, through the series kernel
(``laurent._product``, ``laurent._add_into``; ``geometry._pair_product`` on
the plane).  A negative power of a series name with a unit coefficient
(``t^-2``, ``g^-1``) stays a payload dict.  The dict becomes a domain value
(series, line or plane function, scalar) once: at the end, or when an
operation needs the domain's own arithmetic: division, an ``O(...)`` tail,
any other negative power, or an operand that is already a domain value.
Both ways give the same value.

``format_series`` (the canonical printer) and ``parse_expression`` are
mutually inverse on series: parse-print-parse equals parse.
"""

from __future__ import annotations

import functools
import re
import sys

from .errors import (DivisionByNonUnit, ExpressionSyntaxError, UnknownSymbol,
                     UnsupportedArgument)
from .geometry import (BivarPoly, BivarRational, RationalFunction,
                       _pair_product)
from .laurent import LaurentRing, _add_into, _product, _series
from .poly import Poly
from .rings import (ArtinianLocal, GaloisField, PrimeField, RingValue,
                    _composite, _embed_raw, _finite_field, _fmt_poly,
                    _is_prime, _power, _signed_power)


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


def _integer(text: str, line: int, column: int) -> int:
    """The value of a decimal literal.  One with more digits than the
    interpreter converts (sys.get_int_max_str_digits) is a syntax error."""
    try:
        return int(text)
    except ValueError:
        raise ExpressionSyntaxError(
            f"integer literal of {len(text)} digits exceeds the limit of "
            f"{sys.get_int_max_str_digits()} digits", line, column) from None


def parse_ring(spec: str):
    """Parse ``"F5"``, ``"F9"`` or ``"F5[e]/e^2"`` into a ring descriptor."""
    text = "".join(spec.split())
    m = _RING_RE.match(text)
    if not m:
        raise ExpressionSyntaxError(f"bad ring spec {spec!r}", 1, 1)
    q = _integer(m.group(1), 1, 1)
    if q < 2:
        raise ExpressionSyntaxError(f"bad ring spec {spec!r}: need q >= 2", 1, 1)
    pd = _prime_power(q)
    if pd is None:
        raise ExpressionSyntaxError(
            f"bad ring spec {spec!r}: {q} is not a prime power", 1, 1)
    p, d = pd
    field = _finite_field(p, d)
    if m.group(2) is None:
        return field
    length = _integer(m.group(2), 1, 1)
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

class Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind = kind      # "int" | "name" | one of "+-*/^()" | "end"
        self.text = text
        self.line = line
        self.column = column


# one token per match, whitespace skipped between matches: groups 1-3 are
# the token kinds, group 4 a character no token starts with
_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()])|(\S)")
_GROUP_KIND = (None, "int", "name", None)


def tokenize(src: str) -> list:
    tokens = []
    append = tokens.append
    for lineno, line in enumerate(src.splitlines() or [""], start=1):
        for m in _TOKEN_RE.finditer(line):
            group, text = m.lastindex, m.group()
            if group == 4:
                raise ExpressionSyntaxError(f"unexpected character {text!r}",
                                            lineno, m.start() + 1)
            append(Token(_GROUP_KIND[group] or text, text, lineno, m.start() + 1))
    if tokens:
        last = tokens[-1]
        append(Token("end", "", last.line, last.column + len(last.text)))
    else:
        append(Token("end", "", 1, 1))
    return tokens


# ---------------------------------------------------------------------------
# syntax tree

class Num:
    __slots__ = ("value", "line", "column")

    def __init__(self, value: int, line: int, column: int):
        self.value, self.line, self.column = value, line, column


class Name:
    __slots__ = ("name", "line", "column")

    def __init__(self, name: str, line: int, column: int):
        self.name, self.line, self.column = name, line, column


class Neg:
    __slots__ = ("operand", "line", "column")

    def __init__(self, operand, line: int, column: int):
        self.operand, self.line, self.column = operand, line, column


class BinOp:
    __slots__ = ("op", "left", "right", "line", "column")

    def __init__(self, op: str, left, right, line: int, column: int):
        self.op, self.left, self.right = op, left, right
        self.line, self.column = line, column


class Power:
    __slots__ = ("base", "exponent", "line", "column")

    def __init__(self, base, exponent: int, line: int, column: int):
        self.base, self.exponent = base, exponent
        self.line, self.column = line, column


class Tail:
    __slots__ = ("var", "prec", "line", "column")

    def __init__(self, var: str, prec: int, line: int, column: int):
        self.var, self.prec, self.line, self.column = var, prec, line, column


#: deepest parenthesis nesting an expression may have
MAX_NESTING = 100


class _Parser:
    """Recursive descent; only parentheses recurse (three frames a level)."""

    __slots__ = ("tokens", "pos", "depth")

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def expect(self, kind: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            found = tok.text if tok.kind != "end" else "end of input"
            raise ExpressionSyntaxError(f"expected {kind!r}, found {found!r}",
                                        tok.line, tok.column)
        self.pos += 1
        return tok

    def expr(self):
        node = self.term()
        tok = self.tokens[self.pos]
        while tok.kind == "+" or tok.kind == "-":
            self.pos += 1
            node = BinOp(tok.kind, node, self.term(), tok.line, tok.column)
            tok = self.tokens[self.pos]
        return node

    def term(self):
        node = self.unary()
        tok = self.tokens[self.pos]
        while tok.kind == "*" or tok.kind == "/":
            self.pos += 1
            node = BinOp(tok.kind, node, self.unary(), tok.line, tok.column)
            tok = self.tokens[self.pos]
        return node

    def unary(self):
        """unary, power and atom in one: leading minus signs are read in a
        loop and wrap the power innermost first."""
        tokens = self.tokens
        tok = tokens[self.pos]
        signs = []
        while tok.kind == "-":
            signs.append(tok)
            self.pos += 1
            tok = tokens[self.pos]
        kind = tok.kind
        self.pos += 1
        if kind == "int":
            node = Num(_integer(tok.text, tok.line, tok.column), tok.line,
                       tok.column)
        elif kind == "name":
            if tok.text == "O" and tokens[self.pos].kind == "(":
                node = self.tail(tok)
            else:
                node = Name(tok.text, tok.line, tok.column)
        elif kind == "(":
            if self.depth == MAX_NESTING:
                raise ExpressionSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING} levels",
                    tok.line, tok.column)
            self.depth += 1
            node = self.expr()
            self.expect(")")
            self.depth -= 1
        else:
            found = tok.text if kind != "end" else "end of input"
            raise ExpressionSyntaxError(f"unexpected {found!r}", tok.line,
                                        tok.column)
        tok = tokens[self.pos]
        if tok.kind == "^":
            self.pos += 1
            exponent, negative = self.signed_int()
            if negative and type(node) is not Name:
                raise ExpressionSyntaxError(
                    "negative exponents are allowed on variables only",
                    tok.line, tok.column)
            node = Power(node, exponent, tok.line, tok.column)
        for sign in reversed(signs):
            node = Neg(node, sign.line, sign.column)
        return node

    def signed_int(self):
        """An INT after an optional '-': (its value, whether '-' was read)."""
        negative = self.tokens[self.pos].kind == "-"
        if negative:
            self.pos += 1
        tok = self.expect("int")
        value = _integer(tok.text, tok.line, tok.column)
        return (-value if negative else value), negative

    def tail(self, otok: Token):
        self.expect("(")
        var = self.expect("name")
        prec = 1
        if self.tokens[self.pos].kind == "^":
            self.pos += 1
            prec = self.signed_int()[0]
        self.expect(")")
        return Tail(var.text, prec, otok.line, otok.column)


def parse_tree(src: str):
    """Parse an expression into a syntax tree without evaluating it."""
    parser = _Parser(tokenize(src))
    node = parser.expr()
    tok = parser.tokens[parser.pos]
    if tok.kind != "end":
        raise ExpressionSyntaxError(f"unexpected trailing {tok.text!r}",
                                    tok.line, tok.column)
    return node


# ---------------------------------------------------------------------------
# evaluation domains

class Domain:
    """Value domain an expression tree is lowered into.

    `laurent` is a LaurentRing over the domain's coefficients whose
    coefficient operations run the payload dicts of polynomial subtrees;
    `leaves` maps each name to its payload dict, `origin` is the key of the
    constant term, `product` multiplies two dicts and `wrap` turns a dict
    into the domain value.
    """

    __slots__ = ("kind", "laurent", "leaves", "origin", "product", "wrap",
                 "tail_vars", "precision")

    def __init__(self, kind, laurent, leaves, origin, product, wrap,
                 tail_vars=(), precision=None):
        self.kind = kind              # "series" | "rational" | "bivariate" | "scalar"
        self.laurent = laurent
        self.leaves = leaves
        self.origin = origin
        self.product = product
        self.wrap = wrap
        self.tail_vars = tail_vars    # names accepted inside O(...)
        self.precision = precision    # absolute working precision for series division

    def constant(self, n: int) -> dict:
        c = self.laurent.base._from_int_raw(n)
        return {self.origin: c} if self.laurent._coeff_ops.nonzero(c) else {}

    def one(self) -> dict:
        return {self.origin: self.laurent.base._one_raw()}

    def negate(self, value):
        if type(value) is dict:
            neg = self.laurent._coeff_ops.neg
            return {k: neg(c) for k, c in value.items()}
        return -value

    def value(self, value):
        """The domain value of an evaluation result."""
        return self.wrap(value) if type(value) is dict else value


def _domain(kind: str, ring, var: str = "t", depth: int = 1,
            precision: int = None) -> Domain:
    """The evaluation domain `kind` over ``ring``: "series" (Laurent series
    in ``t``, or for depth > 1 an iterated tower in ``t1 .. t<depth>``,
    innermost first), "rational" (rational functions in `var`), "bivariate"
    (rational functions in ``t1`` and ``t2``, kept unreduced) or "scalar".
    ``e`` and ``g`` name the ring's nilpotent and Galois field generators."""
    series = kind == "series"
    origin = (0, 0) if kind == "bivariate" else 0
    leaves = {}
    field = ring.base if isinstance(ring, ArtinianLocal) else ring
    if field is not ring:
        leaves["e"] = {origin: ring.eps().raw}
    if isinstance(field, GaloisField):
        leaves["g"] = {origin: _embed_raw(field.generator().raw, field, ring)}
    if series and depth > 1:
        variables = tuple(f"t{i}" for i in range(1, depth + 1))
    else:
        variables = ("t",)
    top = ring
    for v in variables:
        if top is not ring:     # one level up, every leaf so far is a constant
            leaves = {k: {0: _series(top, raw)} for k, raw in leaves.items()}
        top = LaurentRing(top, v)
        if series:
            leaves[v] = {1: top.base._one_raw()}
    product = functools.partial(_product, top)
    if series:
        tail_vars = (variables[-1],)
        if depth == 2:
            leaves["t"] = leaves["t1"]
            leaves["s"] = leaves["t2"]
            tail_vars += ("s",)
        return Domain(kind, top, leaves, 0, product,
                      functools.partial(_series, top), tail_vars, precision)
    one, zero = ring._one_raw(), ring._zero_raw()
    if kind == "rational":
        leaves[var] = {1: one}

        def wrap(raw):
            coeffs = [raw.get(i, zero) for i in range(max(raw, default=-1) + 1)]
            return RationalFunction(Poly._of(ring, coeffs))
    elif kind == "bivariate":
        leaves["t1"] = {(1, 0): one}
        leaves["t2"] = {(0, 1): one}
        product = functools.partial(_pair_product, ring)

        def wrap(raw):
            return BivarRational(BivarPoly._of(ring, raw))
    else:
        def wrap(raw):
            return RingValue(ring, raw.get(0, zero))
    return Domain(kind, top, leaves, origin, product, wrap)


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
    """The value of a syntax tree: a payload dict while the subtree is an
    exact polynomial, a domain value once an operation needs the domain's
    arithmetic.  Errors come in the order of a left-to-right walk."""
    cls = type(node)
    if cls is BinOp:
        return _chain(node, dom)
    if cls is Num:
        return dom.constant(node.value)
    if cls is Name:
        leaf = dom.leaves.get(node.name)
        if leaf is None:
            raise UnknownSymbol(f"unknown symbol {node.name!r}",
                                node.line, node.column)
        return leaf
    if cls is Power:
        return _power_of(node, dom)
    if cls is Neg:
        count = 0
        while type(node) is Neg:
            node, count = node.operand, count + 1
        value = _evaluate(node, dom)
        for _ in range(count):
            value = dom.negate(value)
        return value
    if cls is Tail:
        # A bare O(t^N): the zero series known to precision N.
        return _apply_tail(dom.wrap({}), node, dom)
    raise ExpressionSyntaxError(f"cannot evaluate {node!r}", 1, 1)


def _power_of(node: Power, dom: Domain):
    base, e = _evaluate(node.base, dom), node.exponent
    if type(base) is dict:
        if len(base) == 1 and dom.origin == 0:     # a monomial c*t^k
            ((k, c),) = base.items()
            coeffs = dom.laurent.base
            # a negative power inverts a unit c, as laurent_inv inverts it
            if e >= 0 or dom.kind == "series" and coeffs._is_unit(c):
                c = _signed_power(coeffs, c, e)
                return {k * e: c} if dom.laurent._coeff_ops.nonzero(c) else {}
        elif e >= 0:
            return _power(base, e, dom.one(), dom.product)
    return dom.value(base) ** e


def _chain(node: BinOp, dom: Domain):
    """A left-deep chain of '+'/'-' or of '*'/'/', evaluated in a loop from
    its leftmost operand.  Like a recursive walk, it checks the O(...)
    placement at every link, from the top, before evaluating anything."""
    ops = ("+", "-") if node.op in ("+", "-") else ("*", "/")
    links = []
    while type(node) is BinOp and node.op in ops:
        right = node.right
        if not (node.op == "+" and type(right) is Tail):
            tail = right if type(right) is Tail else node.left
            if type(tail) is Tail:
                raise ExpressionSyntaxError("O(...) may only end a sum",
                                            tail.line, tail.column)
        links.append(node)
        node = node.left
    acc = _evaluate(node, dom)
    owned = False              # whether acc is a dict this chain may mutate
    for link in reversed(links):
        right, op = link.right, link.op
        if type(right) is Tail:
            acc = _apply_tail(dom.value(acc), right, dom)
            continue
        value = _evaluate(right, dom)
        if type(acc) is dict and type(value) is dict and op != "/":
            if op == "*":
                acc = dom.product(acc, value)
                continue
            if not owned:
                acc, owned = dict(acc), True
            _add_into(dom.laurent, acc, value if op == "+" else dom.negate(value))
            continue
        left, value = dom.value(acc), dom.value(value)
        if op == "+":
            acc = left + value
        elif op == "-":
            acc = left - value
        elif op == "*":
            acc = left * value
        else:
            acc = _divide(left, value, link, dom)
    return acc


def _wants_series(node) -> bool:
    stack = [node]
    while stack:
        node = stack.pop()
        cls = type(node)
        if cls is Tail:
            return True
        if cls is Power:
            if node.exponent < 0:
                return True
            stack.append(node.base)
        elif cls is Neg:
            stack.append(node.operand)
        elif cls is BinOp:
            stack += (node.left, node.right)
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
    if domain not in ("series", "rational", "bivariate"):
        raise ExpressionSyntaxError(f"unknown domain {domain!r}", 1, 1)
    if domain == "series" and depth < 1:
        raise ExpressionSyntaxError(
            f"series depth must be at least 1, not {depth}", 1, 1)
    dom = _domain(domain, ring, depth=depth, precision=precision)
    value = dom.value(_evaluate(tree, dom))
    if domain == "series" and precision is not None:
        value = value.truncate(precision)
    return value


def parse_scalar(src: str, ring):
    """Parse an expression with no series/curve variables into a ring value."""
    dom = _domain("scalar", ring)
    return dom.value(_evaluate(parse_tree(src), dom))


def parse_polynomial(src: str, ring, var: str = "t"):
    """Parse a polynomial expression in one named variable.

    Division is allowed as long as it cancels: the result must have trivial
    denominator.
    """
    dom = _domain("rational", ring, var)
    value = dom.value(_evaluate(parse_tree(src), dom))
    if not value.den.is_one():
        den = _fmt_poly(enumerate(value.den.coeffs), var, str, _composite)
        raise UnsupportedArgument(
            f"{src!r} is not polynomial in {var!r} (denominator {den})")
    return value.num

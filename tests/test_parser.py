"""Expression and ring-spec parsing: grammar, lowering, canonical-printer
round trips."""

import random
import re
import sys
import time
from dataclasses import dataclass

import pytest

from ccsym.errors import (AlgebraError, DivisionByNonUnit,
                          ExpressionSyntaxError, UnknownSymbol,
                          UnsupportedArgument)
from ccsym.geometry import BivarRational, RationalFunction, support_places
from ccsym.laurent import LaurentRing, LaurentSeries, format_series
from ccsym.parser import (MAX_NESTING, parse_expression, parse_polynomial,
                          parse_ring, parse_scalar, parse_tree, ring_label,
                          tokenize)
from ccsym.poly import Poly
from ccsym.rings import (ArtinianLocal, GaloisField, PrimeField, RingValue,
                         _composite, _fmt_poly, embed)

F5 = PrimeField(5)
F7 = PrimeField(7)
F9 = GaloisField(3, 2)
A32 = ArtinianLocal(PrimeField(3), 2)


# -- ring specs ----------------------------------------------------------------

def test_parse_ring_field():
    assert parse_ring("F5") == F5
    assert parse_ring("F2") == PrimeField(2)
    assert parse_ring("F9") == F9
    assert parse_ring("F8") == GaloisField(2, 3)


def test_parse_ring_artinian():
    ring = parse_ring("F3[e]/e^2")
    assert ring == A32
    assert parse_ring("F9[e]/e^3") == ArtinianLocal(F9, 3)


def test_parse_ring_whitespace_insensitive():
    assert parse_ring(" F5 [e] / e^2 ") == ArtinianLocal(F5, 2)


def test_parse_ring_prime_powers():
    assert parse_ring("F1024") == GaloisField(2, 10)
    assert parse_ring("F2401") == GaloisField(7, 4)
    assert parse_ring("F2305843009213693951") == PrimeField(2 ** 61 - 1)
    # 2^89 - 1 is prime, but above the range where Miller-Rabin is proven
    with pytest.raises(AlgebraError):
        parse_ring(f"F{2 ** 89 - 1}")


@pytest.mark.parametrize("bad", ["F6", "F1", "F0", "G5", "F5[x]/x^2",
                                 "F5[e]/e^1", "F5[e]", "", "5", "F36",
                                 "F3317044064679887385961982"])
def test_parse_ring_rejects(bad):
    with pytest.raises(ExpressionSyntaxError):
        parse_ring(bad)


def test_integer_literals_over_the_digit_limit_are_syntax_errors():
    # int() refuses a literal of more digits than sys.get_int_max_str_digits()
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    long = "1" * 5000
    try:
        for call, column in [
                (lambda: parse_ring("F" + long), 1),
                (lambda: parse_ring("F5[e]/e^" + long), 1),
                (lambda: parse_expression("1 + " + long, F5), 5),
                (lambda: parse_expression("t^-" + long, F5, "series"), 4),
                (lambda: parse_expression(f"t + O(t^{long})", F5, "series"),
                 9)]:
            with pytest.raises(ExpressionSyntaxError,
                               match="integer literal of 5000 digits exceeds"
                                     " the limit of 4300 digits") as err:
                call()
            assert (err.value.line, err.value.column) == (1, column)
    finally:
        sys.set_int_max_str_digits(limit)


def test_ring_label_round_trip():
    for spec in ["F2", "F5", "F9", "F8", "F3[e]/e^2", "F9[e]/e^3"]:
        assert ring_label(parse_ring(spec)) == spec


# -- lexer ---------------------------------------------------------------------

def test_tokenize_positions():
    tokens = tokenize("t1 + 42")
    assert [(t.kind, t.text, t.column) for t in tokens] == [
        ("name", "t1", 1), ("+", "+", 4), ("int", "42", 6), ("end", "", 8)]


def test_tokenize_rejects_stray_character():
    with pytest.raises(ExpressionSyntaxError) as err:
        tokenize("t + %")
    assert err.value.line == 1 and err.value.column == 5


def test_tokenize_rejects_letters_and_digits_outside_the_grammar():
    # letters and digit signs that str.isalpha/isdigit accept but no token
    # starts with
    for src in ("t + \u00e9", "t + \u00b2"):
        with pytest.raises(ExpressionSyntaxError) as err:
            tokenize(src)
        assert (err.value.line, err.value.column) == (1, 5)


def test_tokenize_counts_lines_and_columns():
    tokens = tokenize("t +\n  (1)")
    assert [(t.kind, t.line, t.column) for t in tokens] == [
        ("name", 1, 1), ("+", 1, 3), ("(", 2, 3), ("int", 2, 4), (")", 2, 5),
        ("end", 2, 6)]


# -- grammar -------------------------------------------------------------------

def _scalar(src, ring=F7):
    return parse_scalar(src, ring)


def test_precedence_and_associativity():
    assert _scalar("1 + 2*3").raw == 0          # 7 mod 7
    assert _scalar("2^3*2").raw == 2            # (2^3)*2 = 16
    assert _scalar("2 - 3 - 4").raw == 2        # (2-3)-4 = -5
    assert _scalar("6/3/2").raw == 1            # (6/3)/2
    assert _scalar("-2^2").raw == 3             # -(2^2) = -4
    assert _scalar("(2 - 3) * 4").raw == 3      # -4


def test_whitespace_insensitive():
    F = PrimeField(5)
    assert parse_expression("1-2*t", F, domain="series") == \
        parse_expression(" 1 - 2 * t ", F, domain="series")


def test_negative_exponent_on_variable_only():
    s = parse_expression("t^-3", F5, domain="series")
    assert s.valuation() == -3
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_tree("(1+t)^-1")
    assert "variables only" in str(err.value)
    with pytest.raises(ExpressionSyntaxError):
        parse_tree("2^-1")


def test_power_is_not_chainable():
    with pytest.raises(ExpressionSyntaxError):
        parse_tree("t^2^3")


@pytest.mark.parametrize("bad", ["", "t +", "(t", "t)", "*t", "t t", "^2"])
def test_syntax_rejects(bad):
    with pytest.raises(ExpressionSyntaxError):
        parse_tree(bad)


def test_nesting_limit():
    deepest = "(" * MAX_NESTING + "1+t" + ")" * MAX_NESTING
    assert parse_expression(deepest, F5, domain="series") == \
        parse_expression("1+t", F5, domain="series")
    towers = "t"                          # every level a sum under a power
    for _ in range(MAX_NESTING):
        towers = f"({towers}+1)^1"
    assert parse_expression(towers, F5, domain="series") == \
        parse_expression(f"t+{MAX_NESTING}", F5, domain="series")
    for depth in (MAX_NESTING + 1, 3000):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression("(" * depth + "t" + ")" * depth, F5)
        assert "nested deeper than" in str(err.value)
        assert (err.value.line, err.value.column) == (1, MAX_NESTING + 1)


def test_long_chains_evaluate_in_loops():
    n = 3001
    total = parse_expression("+".join(["t"] * n), F7, domain="series")
    assert total == parse_expression(f"{n % 7}*t", F7, domain="series")
    assert parse_expression("-".join(["t"] * n), F7, domain="rational") == \
        parse_expression(f"{(2 - n) % 7}*t", F7, domain="rational")
    assert parse_expression("*".join(["t"] * n), F5, domain="series") == \
        parse_expression(f"t^{n}", F5, domain="series")
    assert parse_expression("-" * n + "t1", F5, domain="bivariate") == \
        parse_expression("-t1", F5, domain="bivariate")
    assert parse_scalar("/".join(["2"] * n), F5) == parse_scalar(f"2^{2 - n % 4}", F5)


def test_large_sparse_powers_stay_sparse():
    # (1+t)^(5^6 + 5^2) = (1 + t^15625)(1 + t^25) over F5
    f = parse_expression("(1+t)^15650", F5, domain="series")
    assert sorted(f.coeffs) == [0, 25, 15625, 15650]
    assert parse_polynomial("(1+t)^15650", F5).coeffs[15650] == F5.one()


def test_unknown_symbols():
    with pytest.raises(UnknownSymbol):
        parse_expression("t + q", F5, domain="series")
    with pytest.raises(UnknownSymbol):
        parse_expression("e", F5, domain="series")   # no nilpotent over a field
    with pytest.raises(UnknownSymbol):
        parse_expression("g", F5, domain="series")   # no Galois generator
    with pytest.raises(UnknownSymbol):
        parse_expression("s", F5, domain="series")   # univariate: t only


# -- lowering ------------------------------------------------------------------

def test_series_example_with_tail():
    s = parse_expression("1 - e*t^-1 + O(t^6)", A32)
    assert isinstance(s, LaurentSeries)
    assert s.low == -1 and s.prec == 6
    assert s.coeff(-1) == -A32.eps()
    assert s.coeff(0) == A32.one()


def test_rational_example_support():
    r = parse_expression("t*(1-t)", F5)
    assert isinstance(r, RationalFunction)
    labels = {p.label() for p in support_places(r)}
    assert labels == {"t", "4 + t", "infinity"}


def test_auto_domain_picks_series_on_negative_power():
    assert isinstance(parse_expression("1 - 2*t^-1", F5), LaurentSeries)
    assert isinstance(parse_expression("1 - 2*t", F5), RationalFunction)


def test_division_by_zero():
    with pytest.raises(DivisionByNonUnit):
        parse_expression("1/(t-t)", F5)
    with pytest.raises(DivisionByNonUnit):
        parse_expression("1/(t-t)", F5, domain="series")
    with pytest.raises(DivisionByNonUnit):
        parse_scalar("1/0", F5)


def test_galois_generator():
    s = parse_expression("g^2 + g*t", F9, domain="series")
    g = F9.generator()
    assert s.coeff(0) == g * g and s.coeff(1) == g


def test_artinian_scalars_in_rational_domain():
    r = parse_expression("(t - e)/(1 - t)", A32, domain="rational")
    assert isinstance(r, RationalFunction)
    num = parse_polynomial("t - e", A32)
    den = parse_polynomial("1 - t", A32)
    assert r.num * den == num * r.den


def test_bivariate_domain():
    v = parse_expression("t1*t2 + 1", F5, domain="bivariate")
    assert isinstance(v, BivarRational)
    assert v.num.coeffs[(1, 1)] == F5.one()


def test_iterated_series_aliases():
    a = parse_expression("t1 + t2 + t1*t2^-1", F5, domain="series", depth=2)
    b = parse_expression("t + s + t*s^-1", F5, domain="series", depth=2)
    assert a == b
    assert a.ring.var == "t2" and a.ring.base.var == "t1"


@pytest.mark.parametrize("depth", [0, -1])
def test_series_depth_below_one_is_refused(depth):
    with pytest.raises(ExpressionSyntaxError) as info:
        parse_expression("1+t", F5, domain="series", depth=depth)
    assert str(info.value) == \
        f"series depth must be at least 1, not {depth} (line 1, column 1)"


def test_tail_rules():
    z = parse_expression("O(t^3)", F5, domain="series")
    assert z.prec == 3 and not z.coeffs
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("O(t^3)*2", F5, domain="series")
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("2 - O(t^3)", F5, domain="series")
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("1 + O(s^3)", F5, domain="series")
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("t1 + O(t1^3)", F5, domain="series", depth=2)
    nested = parse_expression("t1 + O(t2^4)", F5, domain="series", depth=2)
    assert nested.prec == 4


def test_tail_on_rational_domain_rejected():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("t + O(t^3)", F5, domain="rational")


def test_precision_controls_series_division():
    s = parse_expression("1/(1-t)", F5, domain="series", precision=5)
    assert s.prec == 5
    assert all(s.coeff(i) == F5.one() for i in range(5))


def test_precision_stops_at_a_truncated_divisor():
    # the completion 1+t+t^3 of the divisor puts 3*t^3 in the quotient, so
    # nothing from t^3 on is determined, whatever precision is asked for
    s = parse_expression("1/(1+t+O(t^3))", F5, domain="series", precision=10)
    assert format_series(s) == "1 + 4*t + t^2 + O(t^3)"


@pytest.mark.parametrize("ring, num, den", [
    (F5, "1", "1-t-t^2"), (ArtinianLocal(F5, 2), "1+e*t^-1", "1-t+2*t^2")],
    ids=["F5", "F5[e]/e^2"])
def test_series_division_at_a_large_precision_stays_fast(ring, num, den):
    start = time.perf_counter()
    s = parse_expression(f"({num})/({den})", ring, domain="series",
                         precision=20000)
    assert time.perf_counter() - start < 2
    num_s, den_s = (parse_expression(x, ring, domain="series") for x in (num, den))
    assert s.prec == 20000 and (s * den_s).agrees_with(num_s)


def test_scalar_and_polynomial_helpers():
    assert parse_scalar("1/2", F7).raw == 4
    g = F9.generator()
    assert parse_scalar("g + 1", F9) == g + F9.one()
    p = parse_polynomial("t1^2 + 1", F5, var="t1")
    assert p.degree() == 2
    cancelled = parse_polynomial("(t^2 - 1)/(t - 1)", F5)
    assert cancelled.degree() == 1 and cancelled.coeff(0) == F5.one()
    with pytest.raises(UnsupportedArgument):
        parse_polynomial("1/t", F5)


# -- canonical printer round trips ----------------------------------------------

RINGS = [F5, F9, A32, ArtinianLocal(F5, 3), ArtinianLocal(GaloisField(2, 2), 2)]


def test_parse_print_parse_is_parse():
    sources = [
        "1 - e*t^-1 + O(t^6)" if not r.is_field else "1 - 2*t^-1 + O(t^6)"
        for r in RINGS
    ] + ["3*t^-2 + 1", "t^5", "0", "O(t^2)", "(1+t)*(1-t)/(1-t^3+O(t^9))"]
    for src in sources:
        for ring in RINGS:
            try:
                first = parse_expression(src, ring, domain="series")
            except UnknownSymbol:
                continue
            second = parse_expression(format_series(first), ring, domain="series")
            assert second == first, (src, ring)


def test_random_series_round_trip(rng):
    for ring in RINGS:
        sring = LaurentRing(ring, "t")
        for _ in range(25):
            f = sring.random(rng, low=-3, high=4)
            if rng.random() < 0.5:
                f = f.truncate(rng.randrange(2, 7))
            assert parse_expression(format_series(f), ring, domain="series") == f


def test_nested_series_round_trip(rng):
    tower = LaurentRing(LaurentRing(F5, "t1"), "t2")
    for _ in range(15):
        f = tower.random(rng, low=-2, high=3)
        back = parse_expression(format_series(f), F5, domain="series", depth=2)
        assert back == f


# -- printed forms of parsed functions and polynomials ----------------------------

# Recorded from the printers before line and plane functions shared one
# fraction class and polynomials printed through the scalar term formatter:
# composite coefficients over F9 and artinian rings, interior zeros,
# negative powers and a constant denominator other than 1 on the plane.
PINNED_REPRS = [
    ('F5', 'rational', '(((t)-(t^-2))*(t+4))-((4/2)*(3))', '(1 + 4*t + 4*t^2 + 4*t^3 + t^4)/(t^2)'),
    ('F5', 'rational', '(t^-2-1*(t)/(3))*(((t^-2)/(3))+(3+t^2))', '(2 + 3*t^2 + t^3 + t^4 + 4*t^5 + 3*t^7)/(t^4)'),
    ('F5', 'rational', '(1)/(t^2)/t^-1-((t^-1)-(t))*((1)-(1))', '(1)/(t)'),
    ('F5', 'rational', '((t)+(t^2))/(t^3)/t^-1', '(1 + t)/(t)'),
    ('F5', 'rational', '((t^-1)+(t))+((t)/(t^3))/2', '(3 + t + t^3)/(t^2)'),
    ('F9', 'rational', '((t^-1*t^-1)/((t^3)*(g)))*(t^2)', '(1 + g)/(t^3)'),
    ('F9', 'rational', '(t^2)/((t^-1)*(3)+(1+g)+(t^-2))', '(g*t^4)/(g + t^2)'),
    ('F9', 'rational', '(4/t^-2-t^-1)*((t^-2-2)*(t*t))', '(2 + 2*t^2 + t^3 + t^5)/(t)'),
    ('F9', 'rational', '(t)-(1+t^3)/t^-2-(t^-1)+(3)', '(2 + t^2 + 2*t^3 + 2*t^6)/(t)'),
    ('F9', 'rational', '(t^-1*2)+(4/t^-1)*(t^-1)*(1)+(1+g)/(t)', '(g + t)/(t)'),
    ('F3[e]/e^2', 'rational', '(t^-2/1+t^3*t^2)-((4*1)*(t^-2/t^-2))', '(t^2 + 2*t^4 + t^9)/(t^4)'),
    ('F3[e]/e^2', 'rational', 't^2/(t^-1)/(1)/(t^3)-(t)*(2*e)*(t^3)', '(t^3 + e*t^7)/(t^3)'),
    ('F3[e]/e^2', 'rational', '((t^-1/t)-(4-t^2))-((t^-2)-(e/t))', '(e*t^4 + 2*t^5 + t^7)/(t^5)'),
    ('F3[e]/e^2', 'rational', '(e-t^3*t^-2/e)*((t^2/t^-1)*(2*e+1))', '((2 + e)*t^6)/(e*t^2)'),
    ('F3[e]/e^2', 'rational', '((t)*(2*e)-(t^-2)/(t^-2))-(t^3)', '(2*t^2 + (2*e)*t^3 + 2*t^5)/(t^2)'),
    ('F9[e]/e^2', 'rational', '((g)/(t))/(g)+(1+g)*((e)-(t^-2))', '((2 + 2*g)*t + t^2 + ((1 + g)*e)*t^3)/(t^3)'),
    ('F9[e]/e^2', 'rational', '((t^-2/e)/(t^2/t^2))*(t^-2+g)', '(t^2 + g*t^4)/(e*t^6)'),
    ('F9[e]/e^2', 'rational', '(g)-(1)-(t^-1)*(1)-(t^-2)/(2*e*g)', '(2*t + (g*e)*t^2 + ((2 + 2*g)*e)*t^3)/((2*g*e)*t^3)'),
    ('F9[e]/e^2', 'rational', '((t^-2*g)-(3))*((t)*(t)-(t)/(t^3))', '((2*g)*t + g*t^5)/(t^5)'),
    ('F9[e]/e^2', 'rational', 'e*t^-1*(2*e)/(t^2)-((t^2)*(1+g))*(t/4)', '((2 + 2*g)*t^6)/(t^3)'),
    ('F5', 'bivariate', '((t2)/(3))*(t1^-2/4)/t1^-2/(t1^3)+(t2^-2)', '(t1^2*t2^3 + 2*t1^5)/(2*t1^5*t2^2)'),
    ('F5', 'bivariate', '((4/4)*(3/2))/((1)-(t1)-(t1)/(t2^-2))', '(2)/(3 + 2*t1 + 2*t1*t2^2)'),
    ('F5', 'bivariate', '((4)-(t1^-1)/(2)-(4))*((4-1)-((2)*(t1^2)))', '(2 + 2*t1^2)/(2*t1)'),
    ('F5', 'bivariate', '(((t2^3)*(t2^3))/(t2*4))/((t1^-1-4)/(1))', '(t1*t2^6)/(4*t2 + 4*t1*t2)'),
    ('F5', 'bivariate', '((3/t2^2)-(t1/t1^3))-(4*3+4+t1^-1)', '(4*t1^2*t2^2 + 4*t1^3*t2^2 + 3*t1^4 + 4*t1^4*t2^2)/(t1^4*t2^2)'),
    ('F7', 'bivariate', '((t2^2)/(3)+(3)+(t2))+(t1^-2/t1/(4)*(2))', '(6 + t1^3 + 5*t1^3*t2 + 4*t1^3*t2^2)/(5*t1^3)'),
    ('F7', 'bivariate', '(1*t2-(t1)-(t2))+(((t2^-2)*(1))+(t1/1))', '(1)/(t2^2)'),
    ('F7', 'bivariate', 't2^-2/3*t1*(4)*(2)', '(t1)/(3*t2^2)'),
    ('F7', 'bivariate', 't2^-1/((3)/(t2))+(t1+t2^2)', '(t2 + 3*t2^3 + 3*t1*t2)/(3*t2)'),
    ('F7', 'bivariate', '(t1/2*t2^-2-3)*(((t2)+(4))+((3)+(4)))', '(4*t2^2 + t2^3 + 4*t1 + t1*t2)/(2*t2^2)'),
    ('F9', 'polynomial', '(1+g)*t^4 + g*t^2 + 2', '2 + g*t^2 + (1 + g)*t^4'),
    ('F9', 'polynomial', 'g + (2+2*g)*t + t^5', 'g + (2 + 2*g)*t + t^5'),
    ('F3[e]/e^2', 'polynomial', '(1+e)*t^3 + 2*e*t + 1 + e', '1 + e + (2*e)*t + (1 + e)*t^3'),
    ('F9[e]/e^2', 'polynomial', '(g+e)*t^2 + g*e + t^6', 'g*e + (g + e)*t^2 + t^6'),
    ('F9[e]/e^2', 'polynomial', '(1+g+(2+g)*e)*t + g*e*t^3', '(1 + g + (2 + g)*e)*t + (g*e)*t^3'),
    ('F3[e]/e^3', 'polynomial', 'e^2*t^4 + (1+e+e^2)*t^2', '(1 + e + e^2)*t^2 + (e^2)*t^4'),
    ('F5', 'bivariate', '(t1 + 3*t2)/2', '(3*t2 + t1)/(2)'),
    ('F7', 'bivariate', '(t1^2 - t2)/(3*t2 + 4*t1)', '(6*t2 + t1^2)/(3*t2 + 4*t1)'),
    ('F7', 'bivariate', 't2^-1/5', '(1)/(5*t2)'),
]


@pytest.mark.parametrize("spec,domain,src,expected", PINNED_REPRS)
def test_printed_forms_are_pinned(spec, domain, src, expected):
    ring = parse_ring(spec)
    if domain == "polynomial":
        value = parse_polynomial(src, ring)
    else:
        value = parse_expression(src, ring, domain=domain)
    assert repr(value) == expected


# -- differential oracle ------------------------------------------------------------
# The front end and evaluator as they were before expressions were lowered to
# payload dicts: a per-character lexer, frozen-dataclass tokens and nodes, and
# a recursive evaluator running the domain arithmetic on every node.  The
# parser must give the same values and the same errors on every input.

# ------------------------------------------------------------
# lexer

@dataclass(frozen=True)
class _OToken:
    kind: str  # "int" | "name" | one of "+-*/^()" | "end"
    text: str
    line: int
    column: int


_o_INT_RE = re.compile(r"\d+")
_o_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _o_tokenize(src: str) -> list:
    tokens = []
    for lineno, line in enumerate(src.splitlines() or [""], start=1):
        col = 0
        while col < len(line):
            ch = line[col]
            if ch.isspace():
                col += 1
            elif ch.isdigit():
                text = _o_INT_RE.match(line, col).group()
                tokens.append(_OToken("int", text, lineno, col + 1))
                col += len(text)
            elif ch.isalpha() or ch == "_":
                text = _o_NAME_RE.match(line, col).group()
                tokens.append(_OToken("name", text, lineno, col + 1))
                col += len(text)
            elif ch in "+-*/^()":
                tokens.append(_OToken(ch, ch, lineno, col + 1))
                col += 1
            else:
                raise ExpressionSyntaxError(f"unexpected character {ch!r}",
                                            lineno, col + 1)
    if tokens:
        last = tokens[-1]
        tokens.append(_OToken("end", "", last.line, last.column + len(last.text)))
    else:
        tokens.append(_OToken("end", "", 1, 1))
    return tokens


# ------------------------------------------------------------
# syntax tree

@dataclass(frozen=True)
class _ONum:
    value: int
    line: int
    column: int


@dataclass(frozen=True)
class _OName:
    name: str
    line: int
    column: int


@dataclass(frozen=True)
class _ONeg:
    operand: object
    line: int
    column: int


@dataclass(frozen=True)
class _OBinOp:
    op: str
    left: object
    right: object
    line: int
    column: int


@dataclass(frozen=True)
class _OPower:
    base: object
    exponent: int
    line: int
    column: int


@dataclass(frozen=True)
class _OTail:
    var: str
    prec: int
    line: int
    column: int


class _OParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _OToken:
        return self.tokens[self.pos]

    def advance(self) -> _OToken:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _OToken:
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
            node = _OBinOp(op.kind, node, self.term(), op.line, op.column)
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            node = _OBinOp(op.kind, node, self.unary(), op.line, op.column)
        return node

    def unary(self):
        if self.peek().kind == "-":
            tok = self.advance()
            return _ONeg(self.unary(), tok.line, tok.column)
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek().kind != "^":
            return base
        caret = self.advance()
        exponent, negative = self.signed_int()
        if negative and not isinstance(base, _OName):
            raise ExpressionSyntaxError(
                "negative exponents are allowed on variables only",
                caret.line, caret.column)
        return _OPower(base, exponent, caret.line, caret.column)

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
            return _ONum(int(tok.text), tok.line, tok.column)
        if tok.kind == "name":
            self.advance()
            if tok.text == "O" and self.peek().kind == "(":
                return self.tail(tok)
            return _OName(tok.text, tok.line, tok.column)
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        found = tok.text if tok.kind != "end" else "end of input"
        raise ExpressionSyntaxError(f"unexpected {found!r}", tok.line, tok.column)

    def tail(self, otok: _OToken):
        self.expect("(")
        var = self.expect("name")
        prec = 1
        if self.peek().kind == "^":
            self.advance()
            prec = self.signed_int()[0]
        self.expect(")")
        return _OTail(var.text, prec, otok.line, otok.column)


def _o_parse_tree(src: str):
    """Parse an expression into a syntax tree without evaluating it."""
    parser = _OParser(_o_tokenize(src))
    node = parser.expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ExpressionSyntaxError(f"unexpected trailing {tok.text!r}",
                                    tok.line, tok.column)
    return node


# ------------------------------------------------------------
# evaluation domains

@dataclass
class _ODomain:
    """Value domain an expression tree is lowered into."""

    kind: str          # "series" | "rational" | "bivariate"
    ring: object       # coefficient-ring descriptor
    names: dict        # identifier -> domain value
    from_int: object   # int -> domain value
    tail_vars: tuple = ()   # names accepted inside O(...)
    precision: int = None   # absolute working precision for series division


def _o_scalar_names(ring) -> dict:
    names = {}
    base = ring
    if isinstance(base, ArtinianLocal):
        names["e"] = base.eps()
        base = base.base
    if isinstance(base, GaloisField):
        gen = base.generator()
        names["g"] = gen if base is ring else embed(gen, ring)
    return names


def _o_series_domain(ring, depth: int = 1, precision: int = None) -> _ODomain:
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
    for key, value in _o_scalar_names(ring).items():
        for level in tower:
            value = level.constant(value)
        names[key] = value
    return _ODomain("series", ring, names, tower[-1].from_int, tail_vars, precision)


def _o_function_domain(kind: str, ring, cls, names: dict) -> _ODomain:
    for key, value in _o_scalar_names(ring).items():
        names[key] = cls.constant(value)
    return _ODomain(kind, ring, names, lambda n: cls.constant(ring.from_int(n)))


def _o_rational_domain(ring) -> _ODomain:
    return _o_function_domain("rational", ring, RationalFunction,
                            {"t": RationalFunction.variable(ring)})


def _o_bivariate_domain(ring) -> _ODomain:
    return _o_function_domain("bivariate", ring, BivarRational,
                            {"t1": BivarRational.t1(ring),
                             "t2": BivarRational.t2(ring)})


def _o_scalar_domain(ring) -> _ODomain:
    return _ODomain("scalar", ring, _o_scalar_names(ring), ring.from_int)


# ------------------------------------------------------------
# evaluation

def _o_apply_tail(value, tail: _OTail, dom: _ODomain):
    if dom.kind != "series":
        raise ExpressionSyntaxError("O(...) tails apply to series only",
                                    tail.line, tail.column)
    if tail.var not in dom.tail_vars:
        raise ExpressionSyntaxError(
            f"O(...) must use the outermost series variable, not {tail.var!r}",
            tail.line, tail.column)
    return value.truncate(tail.prec)


def _o_divide(left, right, node: _OBinOp, dom: _ODomain):
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


def _o_evaluate(node, dom: _ODomain):
    if isinstance(node, _ONum):
        return dom.from_int(node.value)
    if isinstance(node, _OName):
        try:
            return dom.names[node.name]
        except KeyError:
            raise UnknownSymbol(f"unknown symbol {node.name!r}",
                                node.line, node.column) from None
    if isinstance(node, _ONeg):
        return -_o_evaluate(node.operand, dom)
    if isinstance(node, _OPower):
        return _o_evaluate(node.base, dom) ** node.exponent
    if isinstance(node, _OTail):
        # A bare O(t^N): the zero series known to precision N.
        return _o_apply_tail(dom.from_int(0), node, dom)
    if isinstance(node, _OBinOp):
        if node.op == "+" and isinstance(node.right, _OTail):
            return _o_apply_tail(_o_evaluate(node.left, dom), node.right, dom)
        if isinstance(node.right, _OTail) or isinstance(node.left, _OTail):
            tail = node.right if isinstance(node.right, _OTail) else node.left
            raise ExpressionSyntaxError("O(...) may only end a sum",
                                        tail.line, tail.column)
        left = _o_evaluate(node.left, dom)
        right = _o_evaluate(node.right, dom)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        return _o_divide(left, right, node, dom)
    raise ExpressionSyntaxError(f"cannot evaluate {node!r}", 1, 1)


def _o_wants_series(node) -> bool:
    if isinstance(node, _OTail):
        return True
    if isinstance(node, _OPower):
        return node.exponent < 0 or _o_wants_series(node.base)
    if isinstance(node, _ONeg):
        return _o_wants_series(node.operand)
    if isinstance(node, _OBinOp):
        return _o_wants_series(node.left) or _o_wants_series(node.right)
    return False


def _o_parse_expression(src: str, ring, domain: str = "auto", depth: int = 1,
                     precision: int = None):
    """Parse and evaluate ``src`` over the given coefficient ring.

    ``domain`` selects the value domain: ``"series"`` (Laurent series, depth
    many iterated variables), ``"rational"`` (one-variable rational
    function), ``"bivariate"`` (two-variable rational function), or
    ``"auto"`` which picks series when the expression carries an ``O(...)``
    tail or a negative exponent and rational otherwise.
    """
    tree = _o_parse_tree(src)
    if domain == "auto":
        domain = "series" if _o_wants_series(tree) else "rational"
    if domain == "series":
        dom = _o_series_domain(ring, depth=depth, precision=precision)
    elif domain == "rational":
        dom = _o_rational_domain(ring)
    elif domain == "bivariate":
        dom = _o_bivariate_domain(ring)
    else:
        raise ExpressionSyntaxError(f"unknown domain {domain!r}", 1, 1)
    value = _o_evaluate(tree, dom)
    if domain == "series" and precision is not None and isinstance(value, LaurentSeries):
        value = value.truncate(precision)
    return value


def _o_parse_scalar(src: str, ring):
    """Parse an expression with no series/curve variables into a ring value."""
    return _o_evaluate(_o_parse_tree(src), _o_scalar_domain(ring))


def _o_parse_polynomial(src: str, ring, var: str = "t"):
    """Parse a polynomial expression in one named variable.

    Division is allowed as long as it cancels: the result must have trivial
    denominator.
    """
    dom = _o_rational_domain(ring)
    dom.names[var] = dom.names.pop("t")
    value = _o_evaluate(_o_parse_tree(src), dom)
    if not value.den.is_one():
        den = _fmt_poly(enumerate(value.den.coeffs), var, str, _composite)
        raise UnsupportedArgument(
            f"{src!r} is not polynomial in {var!r} (denominator {den})")
    return value.num


# -- the differential corpus ----------------------------------------------------------
# A ring is (spec, p, d, m): F_{p^d}[e]/e^m, m = 1 for a field.  The text
# shapes follow the seeded generators of the benchmark workloads.

FIELD_SPECS = [("F2", 2, 1, 1), ("F3", 3, 1, 1), ("F5", 5, 1, 1),
               ("F7", 7, 1, 1), ("F9", 3, 2, 1)]
ARTINIAN_SPECS = [("F3[e]/e^2", 3, 1, 2), ("F5[e]/e^2", 5, 1, 2),
                  ("F7[e]/e^2", 7, 1, 2), ("F3[e]/e^3", 3, 1, 3),
                  ("F5[e]/e^3", 5, 1, 3), ("F9[e]/e^2", 3, 2, 2)]
ALL_SPECS = FIELD_SPECS + ARTINIAN_SPECS


def _field_text(rng, p, d, nonzero):
    while True:
        coords = [rng.randrange(p) for _ in range(d)]
        if any(coords) or not nonzero:
            break
    terms = [str(coords[0])] if coords[0] else []
    if d > 1 and coords[1]:
        terms.append(f"{coords[1]}*g" if coords[1] > 1 else "g")
    return "+".join(terms) or "0"


def _scalar_text(rng, R, unit=False, nilpotent=False):
    _, p, d, m = R
    parts = [] if nilpotent else [_field_text(rng, p, d, unit)]
    for i in range(1, m):
        c = _field_text(rng, p, d, nilpotent and i == 1)
        if c != "0":
            parts.append(f"({c})*e^{i}" if i > 1 else f"({c})*e")
    parts = [x for x in parts if x != "0"]
    return "(" + ("+".join(parts) or "0") + ")"


def _terms_text(terms, var="t"):
    return "(" + "+".join(c if e == 0 else f"{c}*{var}" if e == 1 else
                          f"{c}*{var}^{e}" for e, c in sorted(terms.items())) + ")"


def _unit_text(rng, R, span=4, max_shift=3, tail_depth=2, var="t", pole=None):
    """A unit Laurent polynomial with nilpotent poles, shifted by var^k."""
    terms = {0: _scalar_text(rng, R, unit=True)}
    for e in range(1, span):
        if pole is not None or rng.random() < 0.6:
            terms[e] = _scalar_text(rng, R, unit=pole is not None)
    if R[3] > 1:
        for e in range(-(tail_depth if pole is None else pole), 0):
            if pole is not None or rng.random() < 0.35:
                terms[e] = _scalar_text(rng, R, nilpotent=True)
    shift = rng.randrange(-max_shift, max_shift + 1)
    return _terms_text(terms, var) + (f"*{var}^{shift}" if shift else "")


def _poly_text(rng, R, degree, monic=False, var="t"):
    terms = {degree: "1" if monic else _scalar_text(rng, R, unit=True)}
    for e in range(degree):
        terms[e] = _scalar_text(rng, R)
    return _terms_text(terms, var)


def _nested_text(rng, R):
    text = "(" + _unit_text(rng, R, span=2, max_shift=1, var="t1")
    if rng.random() < 0.5:
        c = {e: _scalar_text(rng, R) for e in (-1, 0, 1)}
        text += f"+{_terms_text(c, 't1')}*t2"
    shift = rng.randrange(-1, 2)
    return text + ")" + (f"*t2^{shift}" if shift else "")


def _bench_cases(rng):
    """(parse, src, spec, options) in the shapes the four workloads parse."""
    series = ("expr", {"domain": "series"})
    cases = []
    for _ in range(250):                       # symbols and torsion pairs
        R = rng.choice(ALL_SPECS)
        f, g = _unit_text(rng, R), _unit_text(rng, R, span=3, pole=2)
        if rng.random() < 0.3:                 # a ratio pair at precision 36
            f += "/" + _unit_text(rng, R, span=3, max_shift=0, tail_depth=1)
            cases.append(("expr", f, R, {"domain": "series", "precision": 36}))
        else:
            cases.append(("expr", f, R, series[1]))
        cases.append(("expr", g, R, series[1]))
    for J in (25, 50, 75, 100):                # deep nilpotent poles
        for R in ARTINIAN_SPECS[:2]:
            nil = _scalar_text(rng, R, nilpotent=True)
            cases.append(("expr", f"1-{nil}*t^-{J}", R, series[1]))
    for _ in range(150):                       # depth-2 higher symbols
        R = rng.choice(FIELD_SPECS[1:4])
        cases.append(("expr", _nested_text(rng, R), R,
                      {"domain": "series", "depth": 2}))
    for _ in range(150):                       # line reciprocity, sym verify
        R = rng.choice(ALL_SPECS)
        f = _poly_text(rng, R, rng.randrange(1, 5))
        if rng.random() < 0.5:
            f += "/" + _poly_text(rng, R, rng.randrange(1, 3))
        if R[0] == "F9" and rng.random() < 0.3:   # a place after t -> c*t + b
            c, b = _field_text(rng, 3, 2, True), _field_text(rng, 3, 2, False)
            f = _poly_text(rng, R, 4, monic=True, var="X").replace(
                "X", f"(({c})*t+({b}))") + "*" + _poly_text(rng, R, 1, monic=True)
        cases.append(("expr", f, R, {"domain": "rational"}))
        cases.append(("poly", _poly_text(rng, R, rng.randrange(0, 5)), R, {}))
    for _ in range(100):                       # sym expand and sym toeplitz
        R = rng.choice(ALL_SPECS)
        cases.append(("expr", f"{_poly_text(rng, R, 2)}/{_poly_text(rng, R, 1)}",
                      R, {"domain": "series", "precision": 8}))
        cases.append(("expr", _unit_text(rng, R, span=2, max_shift=1), R,
                      series[1]))
    for R in FIELD_SPECS:                      # Parshin forms and flags
        for form in ("t1", "t2", "t1+t2", "t1-t2"):
            cases.append(("expr", form, R, {"domain": "bivariate"}))
        for phi in ("0", "-t1", "t1"):
            cases.append(("poly", phi, R, {"var": "t1"}))
        cases.append(("scalar", "0", R, {}))
    return cases


# the expressions of the README and CI commands, with the domain each uses
DOCUMENTED = [
    ("F5[e]/e^2", "series", ["1-e*t^-1", "1-2*t", "(1+e*t^-1)/(1-t+2*t^2)"]),
    ("F7", "series", ["t"]),
    ("F5", "rational", ["t*(1-t)", "1-t", "t", "t-1", "t+2"]),
    ("F9", "rational", ["t^4+t+g", "1+2*t", "t^10+2*t^9+2*t^7+2*t^6+(2+2*g)*t^5"
                        "+2*g*t^4+g*t^3+2*g*t^2+(1+g)*t+1+2*g"]),
    ("F3[e]/e^3", "rational", ["(t+1)/(t^2+e*t+e)", "(t-1)/(t+e)"]),
    ("F5", "bivariate", ["t1", "t2", "t1+t2"]),
    ("F1048583", "bivariate", ["t1", "t2", "t1+t2"]),
    ("F5", "series", ["1/(1-t)", "t", "q", "0", "1+t", "1/(1+t+O(t^3))"]),
    ("F3[e]/e^2", "series", ["e", "t", "e+O(t^3)", "1+t"]),
    ("F3[e]/e^2", "rational", ["t", "1-t"]),
    ("F7", "series", ["0", "1+t", "-t"]),
    ("F3[e]/e^2", "series", ["1+e*t2^-1", "1+t1", "t2", "e+O(t2^3)"]),
]

ERROR_INPUTS = [
    "t + q", "s", "e", "g", "x1*t", "O(t^3)*2", "2 - O(t^3)", "O(t^2) + t",
    "1 + O(s^3)", "t*O(t)", "(1+O(t))*t", "O(t)^2", "1/(t-t)", "1/0", "t/(e-e)",
    "e^-1", "g^-1", "t^-1", "(e)^2", "t^-0", "0^0", "1 + O(t^-2)", "O(t^2)+O(t)",
    "O(u)", "t +", "(t", "t)", "*t", "t t", "^2", "", "t + %", "t +\n 1 %",
    "1 +\n\n  t\n)", "(1+t)^-1", "2^-1", "t^2^3", "O(t^", "O(", "O + t", "O*t",
    "- - t", "-(-(1-t))", "t^-2*e - -e*t", "  t\t+ 1 ", "t1*t2 - t2^-1",
]


def _random_expr(rng, names, depth):
    if depth == 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.3:
            return str(rng.choice((0, 1, 2, 3, 4, 6, 10, 25)))
        name = rng.choice(names) if r < 0.95 else "q"
        k = rng.random()
        if k < 0.15:
            return f"{name}^{rng.randrange(0, 4)}"
        if k < 0.25:
            return f"{name}^-{rng.randrange(1, 3)}"
        return name
    r = rng.random()
    if r < 0.1:
        return "-" + _random_expr(rng, names, depth - 1)
    if r < 0.2:
        return f"({_random_expr(rng, names, depth - 1)})^{rng.randrange(0, 3)}"
    op = rng.choice("++--***/")
    left, right = (_random_expr(rng, names, depth - 1) for _ in range(2))
    if rng.random() < 0.5:
        left, right = f"({left})", f"({right})"
    space = rng.choice(("", " ", "  "))
    return f"{left}{space}{op}{space}{right}"


_RANDOM_DOMAINS = [
    ("expr", {"domain": "series"}, ("t", "e", "g")),
    ("expr", {"domain": "series", "precision": 6}, ("t", "e", "g")),
    ("expr", {"domain": "series", "depth": 2}, ("t1", "t2", "t", "s", "e")),
    ("expr", {"domain": "series", "depth": 2}, ("t1", "t2", "t", "s", "g")),
    ("expr", {"domain": "series", "depth": 2, "precision": 6},
     ("t1", "t2", "s", "e", "g")),
    ("expr", {"domain": "series", "depth": 3}, ("t1", "t2", "t3", "e", "g")),
    ("expr", {"domain": "rational"}, ("t", "e", "g")),
    ("expr", {"domain": "bivariate"}, ("t1", "t2", "e", "g")),
    ("expr", {}, ("t", "e", "g")),
    ("scalar", {}, ("e", "g", "t")),
    ("poly", {}, ("t", "e", "g")),
    ("poly", {"var": "t1"}, ("t1", "e", "t")),
]


def _corpus(seed):
    rng = random.Random(seed)
    cases = _bench_cases(rng)
    for spec, domain, sources in DOCUMENTED:
        R = (spec, 0, 0, 0)
        for src in sources:
            cases.append(("expr", src, R, {"domain": domain}))
    for src in ERROR_INPUTS:
        for R in (FIELD_SPECS[2], FIELD_SPECS[4], ARTINIAN_SPECS[0],
                  ARTINIAN_SPECS[5]):
            for kind, options, _ in _RANDOM_DOMAINS:
                cases.append((kind, src, R, options))
    for _ in range(2200):
        kind, options, names = rng.choice(_RANDOM_DOMAINS)
        R = rng.choice(ALL_SPECS)
        names = [n for n in names if (n != "e" or R[3] > 1) and (n != "g" or R[2] > 1)]
        src = _random_expr(rng, names, rng.randrange(1, 4))
        if kind == "expr" and options.get("domain", "series") == "series" \
                and rng.random() < 0.3:
            depth = options.get("depth", 1)
            var = f"t{depth}" if depth > 1 else "t"
            src += f" + O({var}^{rng.randrange(-2, 6)})"
        cases.append((kind, src, R, options))
    return cases


_PARSERS = {
    "expr": (parse_expression, _o_parse_expression),
    "scalar": (parse_scalar, _o_parse_scalar),
    "poly": (parse_polynomial, _o_parse_polynomial),
}


def _describe(value):
    """Type, printed form, precision and payloads of a parsed value."""
    if isinstance(value, LaurentSeries):
        return ("series", repr(value.ring), value.prec, repr(value),
                sorted((e, _describe(c) if isinstance(c, LaurentSeries) else c)
                       for e, c in value._raw.items()))
    if isinstance(value, RationalFunction):
        return ("line", repr(value), [c.raw for c in value.num.coeffs],
                [c.raw for c in value.den.coeffs])
    if isinstance(value, BivarRational):
        return ("plane", repr(value), sorted((k, c.raw) for k, c in value.num.coeffs.items()),
                sorted((k, c.raw) for k, c in value.den.coeffs.items()))
    if isinstance(value, Poly):
        return ("poly", repr(value), [c.raw for c in value.coeffs])
    assert isinstance(value, RingValue), type(value)
    return ("scalar", repr(value.ring), repr(value), value.raw)


def _outcome(parse, src, ring, options):
    try:
        return _describe(parse(src, ring, **options))
    except (AlgebraError, ExpressionSyntaxError) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))


def _tree(node):
    """A syntax tree as nested tuples: node class, fields, line, column."""
    fields = [getattr(node, f) for f in
              ("op", "value", "name", "var", "prec", "exponent") if hasattr(node, f)]
    children = [_tree(getattr(node, f)) for f in ("left", "right", "operand", "base")
                if hasattr(node, f)]
    return (type(node).__name__.removeprefix("_O"), *fields, node.line,
            node.column, *children)


def _parsed_tree(parse, src):
    try:
        return _tree(parse(src))
    except ExpressionSyntaxError as exc:
        return (str(exc), exc.line, exc.column)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_parser_matches_the_recursive_evaluator(seed):
    cases = _corpus(seed)
    assert len(cases) >= 1700
    rings = {}
    for kind, src, (spec, *_), options in cases:
        ring = rings.get(spec) or rings.setdefault(spec, parse_ring(spec))
        new, old = _PARSERS[kind]
        assert _outcome(new, src, ring, options) == \
            _outcome(old, src, ring, options), (kind, src, spec, options)
        assert _parsed_tree(parse_tree, src) == _parsed_tree(_o_parse_tree, src)


def test_corpus_covers_every_domain_and_both_outcomes():
    outcomes = {"value": 0, "error": 0}
    kinds = set()
    for kind, src, (spec, *_), options in _corpus(1)[::7]:
        kinds.add((kind, options.get("domain"), options.get("depth")))
        result = _outcome(_PARSERS[kind][0], src, parse_ring(spec), options)
        outcomes["error" if result[0][0].isupper() else "value"] += 1
    assert len(_corpus(1)) + len(_corpus(2)) + len(_corpus(3)) >= 5000
    assert {("expr", "series", None), ("expr", "series", 2),
            ("expr", "series", 3), ("expr", "rational", None),
            ("expr", "bivariate", None),
            ("expr", None, None), ("scalar", None, None),
            ("poly", None, None)} <= kinds
    assert min(outcomes.values()) > 100, outcomes

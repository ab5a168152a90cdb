"""Expression and ring-spec parsing: grammar, lowering, canonical-printer
round trips."""

import pytest

from ccsym.errors import (AlgebraError, DivisionByNonUnit,
                          ExpressionSyntaxError, UnknownSymbol,
                          UnsupportedArgument)
from ccsym.geometry import BivarRational, RationalFunction, support_places
from ccsym.laurent import LaurentRing, LaurentSeries, format_series
from ccsym.parser import (parse_expression, parse_polynomial, parse_ring,
                          parse_scalar, parse_tree, ring_label, tokenize)
from ccsym.rings import ArtinianLocal, GaloisField, PrimeField

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

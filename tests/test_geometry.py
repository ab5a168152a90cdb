"""Places, local expansions, plane functions and flag expansions."""

import random

import pytest

from ccsym import geometry
from ccsym.errors import (NonUnitLeadingCoefficient, ZeroFunction, ZeroOnCurve)
from ccsym.geometry import (BivarPoly, BivarRational, Place, RationalFunction,
                            SurfaceFlag, flag_expand, flag_leading_term,
                            flag_payloads, flag_ring, leading_unit_guard,
                            local_expand, residue_extension, support_places)
from ccsym.laurent import LaurentRing, LaurentSeries, format_series, laurent_inv
from ccsym.parser import parse_expression
from ccsym.poly import Poly, is_irreducible, random_poly, roots_in
from ccsym.rings import (ArtinianLocal, GaloisField, PrimeField, embed,
                         residue_field)

F3 = PrimeField(3)
F5 = PrimeField(5)
F9 = GaloisField(3, 2)
A52 = ArtinianLocal(F5, 2)


def rf(ring, num, den=None):
    return RationalFunction(Poly(ring, num),
                            Poly(ring, den) if den is not None else None)


# -- rational functions ---------------------------------------------------------

def test_rational_function_reduces_over_field():
    f = rf(F5, [0, 1, 1], [0, 1])        # t(t+1)/t
    assert f.num == Poly(F5, [1, 1])
    assert f.den.is_one()


def test_rational_function_keeps_artinian_fraction():
    eps = A52.eps()
    f = RationalFunction(Poly(A52, [eps, A52.one()]) * Poly.x(A52), Poly.x(A52))
    # no gcd cancellation over the artinian ring
    assert f.num.degree() == 2
    assert f.den.degree() == 1


def test_rational_arithmetic():
    t = RationalFunction.variable(F5)
    one = RationalFunction.constant(F5.one())
    expr = (t + one) * (t - one) / t
    assert expr.num == Poly(F5, [-1, 0, 1])
    assert expr.den == Poly(F5, [0, 1])
    assert expr * expr.inv() == one
    assert (t ** -2).den == Poly(F5, [0, 0, 1])


def test_zero_denominator_rejected():
    with pytest.raises(ZeroFunction):
        RationalFunction(Poly.one(F5), Poly.zero(F5))
    with pytest.raises(ZeroFunction):
        RationalFunction(Poly.zero(F5)).inv()


# -- places and support ----------------------------------------------------------

def test_support_places_field():
    f = rf(F5, [0, 1])          # t
    g = rf(F5, [1, -1])         # 1 - t
    places = support_places(f, g)
    labels = [p.label() for p in places]
    assert labels == ["t", "4 + t", "infinity"]
    assert [p.degree() for p in places] == [1, 1, 1]


def test_support_includes_degree_two_place():
    f = rf(F5, [2, 0, 1])       # t^2 + 2 irreducible
    places = support_places(f)
    assert [p.label() for p in places] == ["2 + t^2", "infinity"]
    assert places[0].degree() == 2


def test_support_keeps_shared_residue_factor():
    # num and den share the residue factor t: it must stay in the support,
    # the nilpotent discrepancy pairs nontrivially there
    eps = A52.eps()
    f = RationalFunction(Poly(A52, [eps, A52.one()]),        # t + eps
                         Poly(A52, [A52.zero(), A52.one()]))  # t
    labels = [p.label() for p in support_places(f)]
    assert "t" in labels


def test_support_rejects_zero():
    with pytest.raises(ZeroFunction):
        support_places(RationalFunction(Poly.zero(F5)))


def test_residue_extension_rings():
    assert residue_extension(F5, 1) == F5
    assert residue_extension(F5, 2) == GaloisField(5, 2)
    assert residue_extension(F9, 2) == GaloisField(3, 4)
    assert residue_extension(A52, 3) == ArtinianLocal(GaloisField(5, 3), 2)


# -- local expansion --------------------------------------------------------------

def test_expand_at_rational_place():
    f = rf(F5, [0, 1])                       # t at place t - 1
    place = Place(Poly(F5, [-1, 1]))
    s = local_expand(f, place)
    assert s.coeff(0) == F5.one()
    assert s.coeff(1) == F5.one()


def test_expand_at_degree_two_place_uses_pinned_root():
    f = rf(F5, [2, 0, 1])
    place = support_places(f)[0]
    s = local_expand(f, place)
    B = s.ring.base
    assert B == GaloisField(5, 2)
    assert s.valuation() == 1
    # t^2 + 2 = 2 alpha u + u^2 at the pinned root alpha (encoding-smallest)
    alpha = None
    from ccsym.poly import roots_in
    alpha = roots_in(Poly(F5, [2, 0, 1]).map_coefficients(
        lambda c: __import__("ccsym.rings", fromlist=["embed"]).embed(c, B), B), B)[0]
    assert s.coeff(1) == alpha + alpha
    assert s.coeff(2) == B.one()


def test_expand_at_infinity():
    f = rf(F5, [0, 0, 1], [1, 1])            # t^2/(1+t)
    s = local_expand(f, Place(None))
    assert s.valuation() == -1               # ord_infinity = deg den - deg num
    assert s.coeff(-1) == F5.one()


def test_expand_artinian_keeps_nilpotent_shift():
    eps = A52.eps()
    f = RationalFunction(Poly(A52, [-eps, A52.one()]))   # t - eps
    s = local_expand(f, Place(Poly(F5, [0, 1])))
    assert s.coeff(0) == -eps
    assert s.coeff(1) == A52.one()
    assert s.valuation() == 1                # unit part starts at u


def test_expand_zero_function_rejected():
    with pytest.raises(ZeroFunction):
        local_expand(RationalFunction(Poly.zero(F5)), Place(None))


def test_leading_unit_guard():
    eps = A52.eps()
    good = RationalFunction(Poly(A52, [eps, A52.one()]))
    bad = RationalFunction(Poly(A52, [A52.one(), eps]))
    leading_unit_guard(good)
    with pytest.raises(NonUnitLeadingCoefficient):
        leading_unit_guard(good, bad)


# -- plane functions and flags -----------------------------------------------------

def test_bivar_poly_arithmetic():
    p = BivarPoly(F5, {(1, 0): 1, (0, 1): 1})      # t1 + t2
    q = BivarPoly(F5, {(1, 0): 1, (0, 1): -1})     # t1 - t2
    prod = p * q
    assert prod == BivarPoly(F5, {(2, 0): 1, (0, 2): -1})
    assert (p + q) == BivarPoly(F5, {(1, 0): 2})
    assert p.evaluate(F5.from_int(2), F5.from_int(3)).raw == 0
    assert (p ** 2).coeffs[(1, 1)] == F5.from_int(2)


@pytest.mark.parametrize("ring", [F9, ArtinianLocal(F3, 2)], ids=repr)
def test_bivar_poly_prints_what_parses_back(ring):
    # a coefficient whose text is a sum is parenthesized next to a monomial
    rng = random.Random(f"bivar print {ring!r}")
    for _ in range(40):
        poly = BivarPoly(ring, {(rng.randrange(3), rng.randrange(3)):
                                ring.random(rng) for _ in range(4)})
        back = parse_expression(repr(poly), ring, domain="bivariate")
        assert back.den.is_one() and back.num == poly, repr(poly)
    g = F9.generator() if ring is F9 else ring.eps()
    one = ring.one()
    poly = BivarPoly(ring, {(1, 1): one + g, (0, 0): g, (2, 0): g + g})
    name = "g" if ring is F9 else "e"
    assert repr(poly) == f"{name} + (1 + {name})*t1*t2 + 2*{name}*t1^2"


def test_bivar_substitutions():
    p = BivarPoly(F5, {(1, 1): 1, (0, 0): 3})      # t1 t2 + 3
    phi = Poly(F5, [0, 2])                          # t2 = 2 t1
    assert p.substitute_t2(phi) == Poly(F5, [3, 0, 2])
    assert p.substitute_t1(F5.from_int(2)) == Poly(F5, [3, 2])


def test_flag_valuation_is_the_curve_multiplicity(rng):
    # the least z2 exponent of poly * eq^k in the flag's coordinates is the
    # curve's multiplicity in poly plus k; the oracle divides by the curve
    # equation until a remainder is nonzero
    from test_reciprocity import _wrapped_divide_out
    for _ in range(25):
        poly = BivarPoly(F5, {(rng.randrange(3), rng.randrange(3)):
                              rng.randrange(5) for _ in range(4)})
        for flag in (SurfaceFlag.vertical(F5.from_int(2), F5.zero()),
                     SurfaceFlag.vertical(F5.zero(), F5.one()),
                     SurfaceFlag.graph(Poly(F5, [1, 3]), F5.zero()),
                     SurfaceFlag.graph(Poly(F5, [0, 0, 1]), F5.one())):
            eq = flag.curve_equation()
            mult = _wrapped_divide_out(poly, flag)[0]
            for k in range(3):
                (payloads,) = flag_payloads([poly * eq ** k], flag)
                if poly.is_zero():
                    assert payloads == {}
                    continue
                assert min(j for _, j in payloads) == mult + k
                assert flag_leading_term(payloads)[0][1] == mult + k
                assert _wrapped_divide_out(poly * eq ** k, flag)[0] == mult + k


def test_plane_functions_compare_as_fractions():
    t1, t2 = BivarRational.t1(F5), BivarRational.t2(F5)
    assert t1 == BivarRational.t1(F5)
    assert t1 * t2 / t2 == t1                 # kept unreduced, equal anyway
    assert (t1 * t2 / t2).den != t1.den
    assert t1 != t2 and t1 != BivarRational.t1(F3)
    assert t1 != RationalFunction(Poly(F5, [0, 1]))
    for f in (t1, RationalFunction(Poly(F5, [0, 1]))):
        with pytest.raises(TypeError):
            hash(f)


def test_flag_expand_coordinates():
    N2 = flag_ring(F5)
    t1 = BivarRational.t1(F5)
    t2 = BivarRational.t2(F5)
    diag = SurfaceFlag.graph(Poly(F5, [0, 1]), F5.zero())   # t2 = t1 at origin
    e1 = flag_expand(t1, diag)
    e2 = flag_expand(t2, diag)
    # t1 = z1 (inner variable), t2 = z1 + z2
    assert e1.ring == N2
    assert format_series(e1) == "z1"
    assert format_series(e2) == "z1 + z2"
    vert = SurfaceFlag.vertical(F5.zero(), F5.zero())
    assert format_series(flag_expand(t1, vert)) == "z2"
    assert format_series(flag_expand(t2, vert)) == "z1"


def test_flag_expand_divides():
    f = BivarRational.t1(F5) / BivarRational.t2(F5)
    diag = SurfaceFlag.graph(Poly(F5, [0, 1]), F5.zero())
    s = flag_expand(f, diag)
    # t1/t2 = z1/(z1+z2): valuation 0 in z2, leading z2-coefficient 1 + O(z1)
    assert s.valuation() == 0
    inner = s.coeff(0)
    assert inner.coeff(0).is_one()


def test_flag_expand_zero_rejected():
    with pytest.raises(ZeroOnCurve):
        flag_expand(BivarRational(BivarPoly.zero(F5)),
                    SurfaceFlag.vertical(F5.zero(), F5.zero()))


def test_flag_labels():
    fl = SurfaceFlag.graph(Poly(F5, [0, 1]), F5.zero())
    assert "t2" in fl.label() and "point" in fl.label()


# -- expansions against public series arithmetic ------------------------------------
# The reference substitutes by Horner's rule on LaurentSeries, inverts the
# denominator with laurent_inv and multiplies, with the default precisions
# written out; local_expand and flag_expand must agree with it byte for byte.

A32 = ArtinianLocal(F3, 2)
A33 = ArtinianLocal(F3, 3)
EXPAND_RINGS = [F5, F9, A32, A33, A52]


def _horner_series(coeffs, sub, lift):
    acc = sub.ring.zero()
    for c in reversed(coeffs):
        acc = acc * sub + lift(c)
    return acc


def _reference_local_expand(f, place, prec):
    B = residue_extension(f.ring, place.degree())
    R = LaurentRing(B, "u")

    def lift(c):
        return R.constant(embed(c, B))

    if place.is_infinity:
        def at(p):
            return LaurentSeries(R, {-i: embed(c, B)
                                     for i, c in enumerate(p.coeffs)}, None)
    else:
        alpha = embed(roots_in(place.poly, residue_field(B))[0], B)
        sub = R.constant(alpha) + R.gen()

        def at(p):
            return _horner_series(p.coeffs, sub, lift)
    num_s, den_s = at(f.num), at(f.den)
    if den_s.is_one():
        return num_s if prec is None else num_s.truncate(prec)
    if prec is None:
        nu_n, nu_d = num_s.valuation(), den_s.valuation()
        tail = (nu_n - num_s.low) + (nu_d - den_s.low)
        prec = (abs(nu_n - nu_d) + tail) * B.nil_bound + 8
    return (num_s * laurent_inv(den_s, prec - num_s.low)).truncate(prec)


def _irreducible(k, degree, rng):
    while True:
        p = random_poly(k, rng, degree, monic=True)
        if is_irreducible(p):
            return p


def _expansion_cases(ring, rng):
    """Seeded (function, place) pairs: places of degree 1-3 and infinity,
    some denominators with nilpotent terms below their valuation there."""
    k = residue_field(ring)
    cases = []
    for _ in range(6):
        places = [Place(_irreducible(k, d, rng)) for d in (1, 2, 3)]
        places.append(Place(None))
        for place in places:
            num = random_poly(ring, rng, rng.randrange(0, 4))
            den = random_poly(ring, rng, rng.randrange(0, 3), monic=True)
            if not ring.is_field and not place.is_infinity and rng.random() < 0.6:
                # residue of den vanishes at the place, den itself does not
                pi = place.poly.map_coefficients(lambda c: embed(c, ring), ring)
                eps = ring.eps()
                den = pi ** rng.randrange(1, 3) + Poly(ring, [eps * ring.random(rng),
                                                             eps])
            if num.is_zero():
                num = Poly.one(ring)
            cases.append((RationalFunction(num, den), place))
    return cases


@pytest.mark.parametrize("ring", EXPAND_RINGS, ids=repr)
def test_local_expand_matches_public_series_arithmetic(ring):
    rng = random.Random(f"local expand {ring!r}")
    nilpotent_below = 0
    for f, place in _expansion_cases(ring, rng):
        for prec in (None, 0, 1, 2, 5, 40, 200):
            got = local_expand(f, place, prec)
            want = _reference_local_expand(f, place, prec)
            assert (repr(got), got.prec, got.ring) == \
                   (repr(want), want.prec, want.ring), (f, place, prec)
            assert got == want
        den_s = _reference_local_expand(RationalFunction(f.den), place, None)
        if den_s.low < den_s.valuation():
            nilpotent_below += 1
    assert (nilpotent_below > 0) == (not ring.is_field)


@pytest.mark.parametrize("ring", EXPAND_RINGS, ids=repr)
def test_local_expand_times_denominator_is_numerator(ring):
    # an oracle independent of the reference: f * den = num below prec
    rng = random.Random(f"expand oracle {ring!r}")
    for f, place in _expansion_cases(ring, rng):
        num_s = local_expand(RationalFunction(f.num), place)
        den_s = local_expand(RationalFunction(f.den), place)
        for prec in (None, 3, 17):
            fu = local_expand(f, place, prec)
            assert (fu * den_s).agrees_with(num_s, fu.prec), (f, place, prec)


# -- the truncated Taylor shift against the bivariate substitution ---------------
# A place expansion shifts payload lists (`_taylor_shift`); the bivariate
# `_substitute` the flags use, fed t = alpha + u as a payload dict, is the
# oracle.

SHIFT_RINGS = [PrimeField(2), F5, F9, GaloisField(3, 8), A32,
               ArtinianLocal(F9, 2)]


def _substituted_shift(ring, coeffs, alpha, order):
    """sum_i coeffs[i] (alpha + u)^i below u^order by the bivariate route."""
    one, nonzero = ring._one_raw(), ring._nonzero_test()
    poly = {(i, 0): c for i, c in enumerate(coeffs) if nonzero(c)}
    shift = {k: c for k, c in (((0, 0), alpha), ((1, 0), one)) if nonzero(c)}
    out = geometry._substitute(ring, poly, shift, {(0, 1): one})
    return {i: c for (i, _), c in out.items() if order is None or i < order}


@pytest.mark.parametrize("ring", SHIFT_RINGS, ids=repr)
def test_taylor_shift_matches_the_bivariate_substitution(ring):
    rng = random.Random(f"taylor shift {ring!r}")
    zero = ring._zero_raw()
    # the zero polynomial, a constant, then seeded polynomials; unreduced
    # payload lists carry zero entries inside and trailing zeros
    cases = [[], [ring.random_unit(rng).raw]]
    for _ in range(30):
        cases.append([ring.random(rng).raw for _ in range(rng.randrange(1, 9))]
                     + [zero] * rng.randrange(3))
    cut = 0
    for coeffs in cases:
        deg = max((i for i, c in enumerate(coeffs) if c != zero), default=-1)
        for alpha in (zero, ring.random_unit(rng).raw, ring.random(rng).raw):
            for order in (None, 0, 1, deg + 1):
                got = geometry._taylor_shift(ring, coeffs, alpha, order)
                want = _substituted_shift(ring, coeffs, alpha, order)
                assert got.keys() == want.keys() and got == want, \
                    (coeffs, alpha, order)
                cut += order is not None and order - 1 in want
    # some case holds a term just below its order, so a shift cut one
    # short fails
    assert cut


def _reference_flag_expand(f, flag, prec, inner_prec):
    N2 = flag_ring(f.ring)
    N1 = N2.base

    def lift(c):
        return N2.constant(N1.constant(c))

    z1, z2 = N2.constant(N1.gen()), N2.gen()
    if flag.kind == "graph":
        t1 = lift(flag.point[0]) + z1
        t2 = _horner_series(flag.data[0].coeffs, t1, lift) + z2
    else:
        c, b = flag.point
        t1, t2 = lift(c) + z2, lift(b) + z1

    def at(p):
        out = N2.zero()
        for (i, j), c in p.coeffs.items():
            out = out + lift(c) * t1 ** i * t2 ** j
        return out
    num_s, den_s = at(f.num), at(f.den)
    if den_s.is_one():
        out = num_s if prec is None else num_s.truncate(prec)
    else:
        if prec is None:
            prec = 2 * max(1, abs(den_s.valuation()), abs(num_s.valuation())) + 6
        out = (num_s * laurent_inv(den_s, prec - num_s.low)).truncate(prec)
    if inner_prec is not None:
        out = LaurentSeries(N2, {e: c.truncate(inner_prec)
                                 for e, c in out.coeffs.items()}, out.prec)
    return out


@pytest.mark.parametrize("ring", [F5, F9], ids=repr)
def test_flag_expand_matches_public_series_arithmetic(ring):
    rng = random.Random(f"flag expand {ring!r}")

    def bivar(terms):
        return BivarPoly(ring, {(rng.randrange(3), rng.randrange(3)):
                                ring.random(rng) for _ in range(terms)})

    for _ in range(25):
        num, den = bivar(3), bivar(2) + BivarPoly.one(ring)
        if num.is_zero() or den.is_zero():
            continue
        a, b = ring.random(rng), ring.random(rng)
        phi = Poly(ring, [ring.random(rng) for _ in range(rng.randrange(4))])
        for f in (BivarRational(num), BivarRational(num, den)):
            for flag in (SurfaceFlag.graph(phi, a), SurfaceFlag.vertical(a, b)):
                for prec, inner in ((None, None), (4, None), (None, 3), (2, 2)):
                    got = flag_expand(f, flag, prec, inner)
                    want = _reference_flag_expand(f, flag, prec, inner)
                    assert (repr(got), got.prec) == (repr(want), want.prec)
                    assert got == want


@pytest.mark.parametrize("ring", [F5, F9, ArtinianLocal(F3, 2)], ids=repr)
def test_monomial_substitution_matches_horner(ring, monkeypatch):
    # single monomials with coefficient one (the identity and the swap of the
    # origin flags and points, and other exponent maps, some not injective)
    # are reindexed; payloads and key sets equal the Horner path's
    rng = random.Random(f"monomial substitution {ring!r}")
    one = ring._one_raw()
    maps = [((1, 0), (0, 1)), ((0, 1), (1, 0)), ((2, 0), (0, 1)),
            ((1, 1), (0, 1)), ((1, 0), (1, 0)), ((0, 2), (1, 1))]
    cases = []
    for _ in range(40):
        poly = {(rng.randrange(4), rng.randrange(4)): ring.random_unit(rng).raw
                for _ in range(rng.randrange(1, 7))}
        m1, m2 = rng.choice(maps)
        cases.append((poly, {m1: one}, {m2: one}))
    want = [geometry._substitute_horner(ring, *case) for case in cases]

    def no_horner(*args):
        raise AssertionError("monomial substitution ran Horner's rule")

    monkeypatch.setattr(geometry, "_substitute_horner", no_horner)
    for case, expected in zip(cases, want):
        got = geometry._substitute(ring, *case)
        assert got.keys() == expected.keys() and got == expected, case
    # a coefficient other than one, or two terms, is no monomial substitution
    two = ring._add(one, one)
    for s1 in ({(1, 0): two}, {(1, 0): one, (0, 0): one}):
        with pytest.raises(AssertionError, match="Horner"):
            geometry._substitute(ring, {(1, 0): one}, s1, {(0, 1): one})

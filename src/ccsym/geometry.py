"""Rational functions on the projective line and on the affine plane, local
expansions at places and at surface flags.  Line and plane functions share
one fraction arithmetic (`_Fraction`); only their constructors differ: a line
function is normalized, a plane function is kept as given.

A finite place of the line over a finite field k is a monic irreducible
polynomial pi; its residue field is the extension of k of degree deg(pi),
realized as the pinned GaloisField of that degree with the root of pi of
smallest integer encoding (see `poly.roots_in`) as the expansion point.  The
place at infinity expands in u = 1/t.  Over an artinian coefficient ring A = k[e]/e^m places are read off
the residue reduction and the expansions live over B = K[e]/e^m with K the
residue field of the place.

A surface flag is a curve through a marked point: either the graph
t2 = phi(t1) with point t1 = a, or the vertical line t1 = c with point
t2 = b.  Expansion at a flag produces an iterated series in
k((z1))((z2)) with z2 the transverse coordinate of the curve (outer
variable) and z1 the coordinate along the curve at the point.

Numerator and denominator are substituted exactly and wrapped into series
once: at a place by a 1-D Taylor shift on payload lists, cut below the order a
caller needs (`_place_payloads`; a reindexing at infinity), at a flag on
payload dicts keyed by exponent pairs (`_substitute`), where single monomials
with coefficient one (an identity or a swap) only move exponents.  Plane
polynomials (`BivarPoly`) hold such dicts and run on the same pair kernel.
At a flag the coordinates take the curve to z2 = 0, so the least z2 exponent
of a substituted polynomial (`flag_payloads`) is the curve's multiplicity in it;
the Parshin check reads multiplicities and leading terms (`flag_leading_term`)
there without expanding.  `local_expand` and `flag_expand` divide alike
(`_series_quotient`), through the denominator's `laurent_inv`: a linear
recurrence at a place, a geometric window over a flag's tower, exact in
every stored coefficient; the line reciprocity laws divide nothing.
The default precisions of `local_expand` and `flag_expand` stay heuristic,
read off the valuations (and at a place the nilpotent tails and nil_bound).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import (AlgebraError, NonUnitLeadingCoefficient, UnsupportedArgument,
                     ZeroFunction, ZeroOnCurve)
from .laurent import LaurentRing, LaurentSeries, _series, laurent_inv
from .poly import Poly, factor, poly_gcd, roots_in
from .rings import (ArtinianLocal, RingValue, _coded, _finite_field, _fmt_poly,
                    _power, embed, residue_field, residue_raw)


# -- fractions, and rational functions on the line ------------------------------

class _Fraction:
    """num/den with the arithmetic shared by line and plane functions; every
    result goes through the subclass constructor, which decides how far the
    fraction is normalized."""

    __slots__ = ("ring", "num", "den")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        """Equality as fractions: num * den' = num' * den."""
        return (type(other) is type(self) and self.ring is other.ring
                and self.num * other.den == other.num * self.den)

    def __hash__(self):
        raise TypeError("rational functions are not hashable")

    def __repr__(self):
        if self.den.is_one():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"

    def __add__(self, other):
        return type(self)(self.num * other.den + other.num * self.den,
                          self.den * other.den)

    def __neg__(self):
        return type(self)(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return type(self)(self.num * other.num, self.den * other.den)

    def inv(self):
        if self.is_zero():
            raise ZeroFunction("cannot invert the zero function")
        return type(self)(self.den, self.num)

    def __truediv__(self, other):
        return self * other.inv()

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        return type(self)(self.num ** e, self.den ** e)


class RationalFunction(_Fraction):
    """Quotient of polynomials over a field or artinian local ring.

    Over a field the representation is reduced (gcd cancelled, denominator
    monic); over an artinian ring the denominator is normalized monic when
    its leading coefficient is a unit and the fraction is kept as given.
    """

    __slots__ = ()

    def __init__(self, num: Poly, den: Poly = None):
        ring = num.ring
        if den is None:                 # num/1 is reduced and monic already
            self.ring, self.num, self.den = ring, num, Poly.one(ring)
            return
        if den.ring is not ring:
            raise AlgebraError("numerator and denominator rings differ")
        if den.is_zero():
            raise ZeroFunction("denominator is the zero polynomial")
        if ring.is_field and not num.is_zero():
            g = poly_gcd(num, den)
            if g.degree() > 0:
                num, den = num // g, den // g
        if den.lead().is_unit():
            c = den.lead().inv()
            num, den = num.scale(c), den.scale(c)
        self.ring = ring
        self.num = num
        self.den = den

    @classmethod
    def variable(cls, ring):
        return cls(Poly.x(ring))

    @classmethod
    def constant(cls, value: RingValue):
        return cls(Poly.constant(value))


# -- places ----------------------------------------------------------------------

@dataclass(frozen=True)
class Place:
    """A closed point of the projective line: a monic irreducible polynomial
    over the residue field, or the point at infinity (poly None)."""

    poly: Poly | None

    @property
    def is_infinity(self) -> bool:
        return self.poly is None

    def degree(self) -> int:
        return 1 if self.poly is None else self.poly.degree()

    def label(self) -> str:
        return "infinity" if self.poly is None else repr(self.poly)

    def __repr__(self):
        return f"Place({self.label()})"


def _residue_pair(f: RationalFunction) -> tuple[Poly, Poly]:
    """Residue-field reductions of numerator and denominator, kept unreduced.

    Cancelling a shared factor here would be wrong over an artinian ring: at
    a place dividing both reductions the function still carries nilpotent
    pole atoms that pair nontrivially under the Contou-Carrere symbol.
    """
    if f.ring.is_field:
        return f.num, f.den
    k = residue_field(f.ring)
    num, den = (Poly._of(k, [residue_raw(f.ring, c) for c in p._raw])
                for p in (f.num, f.den))
    if num.is_zero():
        raise ZeroFunction("numerator vanishes modulo the maximal ideal")
    return num, den


def support_places(*functions: RationalFunction) -> list[Place]:
    """Places where some of the functions can contribute to a symbol product:
    the irreducible factors of all numerator/denominator residue reductions,
    plus infinity when some degree mismatch makes it relevant.  Everywhere
    else every function expands to a regular series with unit constant term,
    and such series pair trivially."""
    seen = {}
    include_infinity = False
    for f in functions:
        if f.is_zero():
            raise ZeroFunction("the zero function has no divisor")
        num, den = _residue_pair(f)
        for poly in (num, den):
            if poly.degree() > 0:
                for irr, _ in factor(poly)[1]:
                    seen.setdefault(irr.encoding(), irr)
        if num.degree() != den.degree():
            include_infinity = True
    places = [Place(p) for _, p in sorted(seen.items())]
    if include_infinity:
        places.append(Place(None))
    return places


def residue_extension(scalar_ring, degree: int):
    """The coefficient ring of expansions at a place of the given degree."""
    k = residue_field(scalar_ring)
    big = k if degree == 1 else _finite_field(k.char, k.degree * degree)
    if isinstance(scalar_ring, ArtinianLocal):
        return ArtinianLocal(big, scalar_ring.m)
    return big


def local_expand(f: RationalFunction, place: Place, prec: int = None,
                 var: str = "u") -> LaurentSeries:
    """Laurent expansion of f at the place, over its residue ring.

    At a finite place pi the substitution is t = alpha + u with alpha the
    pinned (smallest-encoding) root of pi in the residue field; at infinity
    it is t = 1/u.  `prec` is the absolute output precision (defaulted from
    the pole depth and the nilpotency bound).
    """
    if f.is_zero():
        raise ZeroFunction("cannot expand the zero function")
    B, num, den = _place_payloads(f, place)
    R = LaurentRing(B, var)
    num_s, den_s = _series(R, num), _series(R, den)
    if prec is None:
        if den_s.is_one():
            return num_s
        nu_n, nu_d = num_s.valuation(), den_s.valuation()
        tail = (nu_n - num_s.low) + (nu_d - den_s.low)
        prec = (abs(nu_n - nu_d) + tail) * R.base.nil_bound + 8
    return _series_quotient(num_s, den_s, prec)


def _series_quotient(num: LaurentSeries, den: LaurentSeries, prec: int):
    """num/den below t^prec, for exact series and num nonzero: the product
    of num and 1/den below t^(prec - low(num)) ends at t^prec."""
    return num * laurent_inv(den, prec - num.low)


def _place_payloads(f: RationalFunction, place: Place, order: int = None):
    """The coefficient ring at the place, and f's numerator and denominator
    there as {exponent: payload}, zeros dropped: the Taylor shift to the
    pinned root, below u^order if given, or at infinity the reindex
    t^i -> u^-i."""
    B = residue_extension(f.ring, place.degree())
    zero = B._zero_raw()
    num, den = (p._raw if B is f.ring else
                [zero if c.is_zero() else embed(c, B).raw for c in p.coeffs]
                for p in (f.num, f.den))
    if place.is_infinity:
        return B, *({-i: c for i, c in enumerate(p) if c != zero} for p in (num, den))
    roots = roots_in(place.poly, residue_field(B))
    if not roots:
        raise AlgebraError(f"{place.label()} has no root in the residue field"
                           " (is it irreducible over the right field?)")
    alpha = embed(roots[0], B).raw
    return B, *(_taylor_shift(B, p, alpha, order) for p in (num, den))


def _taylor_shift(ring, coeffs: list, alpha, order) -> dict:
    """sum_i coeffs[i] (alpha + u)^i below u^order as {exponent: payload},
    zeros dropped: Horner's rule with each step cut below u^order, as alpha +
    u never lowers an exponent (von zur Gathen-Gerhard, ISSAC 1997)."""
    k, (coeffs, (alpha,)) = _coded(ring, coeffs, [alpha])
    mul, add, zero = k._mul, k._add, k._zero_raw()
    top = len(coeffs) if order is None else max(0, min(len(coeffs), order))
    acc = []
    for c in reversed(coeffs):                  # acc * (alpha + u) + c
        acc = [add(x, mul(alpha, y)) for x, y in zip([c] + acc, acc + [zero])][:top]
    return {i: k._decode(c) for i, c in enumerate(acc) if c != zero}


def _lifted(coeffs, B) -> dict:
    """{(i, 0): payload} of the nonzero coefficients, embedded into B."""
    return {(i, 0): embed(c, B).raw for i, c in enumerate(coeffs) if not c.is_zero()}


def _substitute(ring, poly: dict, s1: dict, s2: dict) -> dict:
    """poly(s1, s2) for payload dicts over the scalar ring keyed by exponent
    pairs, zeros dropped.  Single monomials with coefficient one (the
    identity, a swap) only move the exponents; anything else goes through
    `_substitute_horner`."""
    one = ring._one_raw()
    if (len(s1) == len(s2) == 1
            and one == next(iter(s1.values())) == next(iter(s2.values()))):
        ((a1, b1),), ((a2, b2),) = s1, s2
        add, nonzero = ring._add, ring._nonzero_test()
        out: dict = {}
        for (i, j), c in poly.items():
            k = (a1 * i + a2 * j, b1 * i + b2 * j)
            q = out.get(k)
            out[k] = c if q is None else add(q, c)
        return {k: c for k, c in out.items() if nonzero(c)}
    return _substitute_horner(ring, poly, s1, s2)


def _pair_sum(ring, x: dict, y: dict) -> dict:
    """x + y, zeros dropped, for payload dicts over the scalar ring keyed by
    exponent pairs."""
    add, nonzero, out = ring._add, ring._nonzero_test(), dict(x)
    for k, c in y.items():
        q = out.get(k)
        out[k] = c if q is None else add(q, c)
    return {k: c for k, c in out.items() if nonzero(c)}


def _pair_product(ring, x: dict, y: dict) -> dict:
    """x*y, zeros dropped, for payload dicts over the scalar ring keyed by
    exponent pairs."""
    mul, add, nonzero, acc = ring._mul, ring._add, ring._nonzero_test(), {}
    for (a1, b1), c1 in x.items():
        for (a2, b2), c2 in y.items():
            k, p = (a1 + a2, b1 + b2), mul(c1, c2)
            q = acc.get(k)
            acc[k] = p if q is None else add(q, p)
    return {k: c for k, c in acc.items() if nonzero(c)}


def _substitute_horner(ring, poly: dict, s1: dict, s2: dict) -> dict:
    """poly(s1, s2) by Horner in s2 over rows that are Horner in s1."""
    def horner(coeffs: dict, s: dict) -> dict:     # sum_e coeffs[e] * s^e
        acc: dict = {}
        for e in range(max(coeffs, default=-1), -1, -1):
            acc = _pair_sum(ring, coeffs.get(e, {}), _pair_product(ring, acc, s))
        return acc

    rows: dict = {}
    for (i, j), c in poly.items():
        rows.setdefault(j, {})[i] = {(0, 0): c}
    return horner({j: horner(row, s1) for j, row in rows.items()}, s2)


def leading_unit_guard(*functions: RationalFunction):
    """Reciprocity over an artinian ring needs unit leading coefficients so
    that degrees and places are read off the residue reduction faithfully."""
    for f in functions:
        for poly, role in ((f.num, "numerator"), (f.den, "denominator")):
            if poly.is_zero():
                continue
            if not poly.lead().is_unit():
                raise NonUnitLeadingCoefficient(
                    f"{role} {poly!r} has a non-unit leading coefficient")


# -- the affine plane: bivariate functions and flags ------------------------------

def _monomial(ij) -> str:
    """t1^i*t2^j as text, "" for the constant monomial."""
    return "*".join(v if e == 1 else f"{v}^{e}"
                    for v, e in zip(("t1", "t2"), ij) if e)


class BivarPoly:
    """Polynomial in two variables t1, t2; sparse {(i, j): coefficient}, held
    as a dict `_raw` of nonzero payloads that no operation mutates."""

    __slots__ = ("ring", "_raw", "_coeffs")

    def __init__(self, ring, coeffs: dict):
        nonzero = ring._nonzero_test()
        raw = {ij: ring.coerce(c).raw for ij, c in coeffs.items()}
        self.ring, self._coeffs = ring, None
        self._raw = {ij: c for ij, c in raw.items() if nonzero(c)}

    @classmethod
    def _of(cls, ring, raw: dict) -> "BivarPoly":
        """The polynomial with nonzero payloads `raw`, a dict it keeps."""
        poly = cls.__new__(cls)
        poly.ring, poly._raw, poly._coeffs = ring, raw, None
        return poly

    @property
    def coeffs(self) -> dict:
        """{(i, j): coefficient} of the nonzero terms; never mutate it."""
        if self._coeffs is None:
            wrap = self.ring._wrapper()
            self._coeffs = {ij: wrap(c) for ij, c in self._raw.items()}
        return self._coeffs

    @classmethod
    def zero(cls, ring):
        return cls(ring, {})

    @classmethod
    def one(cls, ring):
        return cls(ring, {(0, 0): ring.one()})

    @classmethod
    def constant(cls, value: RingValue):
        return cls(value.ring, {(0, 0): value})

    @classmethod
    def t1(cls, ring):
        return cls(ring, {(1, 0): ring.one()})

    @classmethod
    def t2(cls, ring):
        return cls(ring, {(0, 1): ring.one()})

    def is_zero(self) -> bool:
        return not self._raw

    def is_constant(self) -> bool:
        return set(self._raw) <= {(0, 0)}

    def is_one(self) -> bool:
        return self._raw == {(0, 0): self.ring._one_raw()}

    def __eq__(self, other):
        return (isinstance(other, BivarPoly) and self.ring is other.ring
                and self._raw == other._raw)

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self._raw.items()))))

    def __repr__(self):
        return _fmt_poly(sorted(self.coeffs.items()), _monomial, str,
                         lambda body: " + " in body)

    def __add__(self, other):
        return BivarPoly._of(self.ring, _pair_sum(self.ring, self._raw, other._raw))

    def __neg__(self):
        neg = self.ring._neg
        return BivarPoly._of(self.ring, {ij: neg(c) for ij, c in self._raw.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RingValue):
            other = BivarPoly(self.ring, {(0, 0): other})
        return BivarPoly._of(self.ring, _pair_product(self.ring, self._raw, other._raw))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise UnsupportedArgument("negative power of a polynomial")
        return _power(self, e, BivarPoly.one(self.ring), operator.mul)

    def evaluate(self, a: RingValue, b: RingValue) -> RingValue:
        ring = self.ring
        out = _substitute(ring, self._raw, {(0, 0): ring.coerce(a).raw},
                          {(0, 0): ring.coerce(b).raw})
        return RingValue(ring, out.get((0, 0), ring._zero_raw()))

    def substitute_t2(self, phi: Poly) -> Poly:
        """The univariate polynomial self(t1, phi(t1))."""
        zero = self.ring._zero_raw()
        return self._in_t1({(1, 0): self.ring._one_raw()},
                           {(i, 0): c for i, c in enumerate(phi._raw) if c != zero})

    def substitute_t1(self, value: RingValue) -> Poly:
        """The univariate polynomial self(value, t2)."""
        return self._in_t1({(0, 0): self.ring.coerce(value).raw},
                           {(1, 0): self.ring._one_raw()})

    def _in_t1(self, s1: dict, s2: dict) -> Poly:
        """self(s1, s2), for substitutes in t1 alone, as a polynomial."""
        raw, zero = _substitute(self.ring, self._raw, s1, s2), self.ring._zero_raw()
        top = max((i for i, _ in raw), default=-1)
        return Poly._of(self.ring, [raw.get((i, 0), zero) for i in range(top + 1)])


class BivarRational(_Fraction):
    """Quotient of bivariate polynomials (kept unreduced)."""

    __slots__ = ()

    def __init__(self, num: BivarPoly, den: BivarPoly = None):
        ring = num.ring
        if den is None:
            den = BivarPoly.one(ring)
        if den.is_zero():
            raise ZeroFunction("denominator is the zero polynomial")
        self.ring = ring
        self.num = num
        self.den = den

    @classmethod
    def t1(cls, ring):
        return cls(BivarPoly.t1(ring))

    @classmethod
    def t2(cls, ring):
        return cls(BivarPoly.t2(ring))

    @classmethod
    def constant(cls, value):
        return cls(BivarPoly.constant(value))


@dataclass(frozen=True)
class SurfaceFlag:
    """A curve through a marked point on the affine plane.

    kind "graph":    curve t2 = phi(t1), point at t1 = a;
    kind "vertical": curve t1 = c,       point at t2 = b.

    Local coordinates: z1 along the curve at the point, z2 transverse
    (z2 = t2 - phi(t1), resp. z2 = t1 - c); expansions are iterated series
    with z2 as the outer variable.
    """

    kind: str
    data: tuple
    point: tuple

    @classmethod
    def graph(cls, phi: Poly, a: RingValue):
        return cls("graph", (phi,), (a, phi.evaluate(a)))

    @classmethod
    def vertical(cls, c: RingValue, b: RingValue):
        return cls("vertical", (c,), (c, b))

    def curve_equation(self) -> BivarPoly:
        ring = self.point[0].ring
        if self.kind == "vertical":                                 # t1 - c
            return BivarPoly(ring, {(1, 0): ring.one(), (0, 0): -self.data[0]})
        phi = self.data[0]                                          # t2 - phi(t1)
        return BivarPoly(ring, {(0, 1): ring.one(),
                                **{(i, 0): -c for i, c in enumerate(phi.coeffs)}})

    def label(self) -> str:
        a, b = self.point
        return f"({self.curve_equation()!r} = 0; point ({a}, {b}))"


def flag_ring(scalar_ring) -> LaurentRing:
    return LaurentRing(LaurentRing(scalar_ring, "z1"), "z2")


def _flag_coordinates(ring, flag: SurfaceFlag):
    """t1 and t2 at the flag as payload dicts keyed by (z1, z2) exponents."""
    a, b = flag.point
    if flag.kind == "graph":
        t1 = _lifted([a, ring.one()], ring)                     # a + z1
        t2 = {**_substitute(ring, _lifted(flag.data[0].coeffs, ring), t1,
                            {(0, 1): ring._one_raw()}),
              (0, 1): ring._one_raw()}                         # phi(t1) + z2
    elif flag.kind == "vertical":
        t1 = {**_lifted([a], ring), (0, 1): ring._one_raw()}    # a + z2
        t2 = _lifted([b, ring.one()], ring)                     # b + z1
    else:  # pragma: no cover
        raise UnsupportedArgument(f"unknown flag kind {flag.kind!r}")
    return t1, t2


def flag_payloads(polys, flag: SurfaceFlag) -> list:
    """Each polynomial's payloads in the flag's coordinates, keyed by (z1, z2)
    exponents.  The coordinates are a polynomial automorphism of k[t1, t2]
    taking the flag's curve to z2 = 0, so the least z2 exponent is the
    curve's multiplicity in the polynomial."""
    ring = flag.point[0].ring
    t1, t2 = _flag_coordinates(ring, flag)
    return [_substitute(ring, p._raw, t1, t2) for p in polys]


def flag_leading_term(payloads: dict) -> tuple:
    """The (z1, z2) exponents and payload of the least z2, then least z1
    term: the leading term of the polynomial's expansion at the flag."""
    ij = min(payloads, key=lambda e: e[::-1])
    return ij, payloads[ij]


def flag_expand(f: BivarRational, flag: SurfaceFlag, prec: int = None,
                inner_prec: int = None) -> LaurentSeries:
    """Iterated expansion of f at the flag, in k((z1))((z2)) (z2 outer)."""
    if f.num.is_zero():
        raise ZeroOnCurve("the zero function has no expansion along a curve")
    N2 = flag_ring(f.ring)
    num_s, den_s = (_tower(N2, p) for p in flag_payloads((f.num, f.den), flag))
    if den_s.is_one():
        out = num_s if prec is None else num_s.truncate(prec)
    else:
        if prec is None:
            prec = 2 * max(1, abs(den_s.valuation()), abs(num_s.valuation())) + 6
        out = _series_quotient(num_s, den_s, prec)
    if inner_prec is not None:
        out = LaurentSeries(N2, {e: c.truncate(inner_prec)
                                 for e, c in out.coeffs.items()}, out.prec)
    return out


def _tower(N2: LaurentRing, raw: dict) -> LaurentSeries:
    """The exact element of base((z1))((z2)) with payload c at z1^i z2^j."""
    rows: dict = {}
    for (i, j), c in raw.items():
        rows.setdefault(j, {})[i] = c
    return _series(N2, {j: _series(N2.base, row) for j, row in rows.items()})

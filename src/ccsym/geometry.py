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

Expansions run on payload dicts keyed by exponent pairs: numerator and
denominator are substituted exactly (`_substitute`: a Taylor shift at a place,
t1 and t2 as polynomials in z1, z2 at a flag, a reindexing at infinity) and
wrapped into series once; a substitution by single monomials with
coefficient one (an identity or a swap) only moves exponents.  At a place the
quotient is the denominator's linear recurrence (`laurent._quotient`, at most
nil_bound passes), exact in every stored coefficient; a flag's tower
denominator goes through `laurent_inv`.  The default precisions of
`local_expand` and `flag_expand` stay heuristic, read off the valuations (and
at a place the nilpotent tails and nil_bound); the line reciprocity laws do
not use them but pass the precision each local symbol needs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import (AlgebraError, NonUnitLeadingCoefficient, UnsupportedArgument,
                     ZeroFunction, ZeroOnCurve)
from .laurent import (LaurentRing, LaurentSeries, _quotient, _series,
                      laurent_inv)
from .poly import Poly, factor, poly_gcd, roots_in
from .rings import (ArtinianLocal, RingValue, _finite_field, _power, embed,
                    residue_field, residue_value)


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
        return (type(other) is type(self) and self.ring == other.ring
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
        if den.ring != ring:
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
    num = f.num.map_coefficients(residue_value, k)
    den = f.den.map_coefficients(residue_value, k)
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
    B = residue_extension(f.ring, place.degree())
    R = LaurentRing(B, var)
    num, den = (_lifted(p.coeffs, B) for p in (f.num, f.den))
    if not place.is_infinity:
        roots = roots_in(place.poly, residue_field(B))
        if not roots:
            raise AlgebraError(f"{place.label()} has no root in the residue field"
                               " (is it irreducible over the right field?)")
        shift = _lifted([roots[0], B.one()], B)              # alpha + u
        num, den = (_substitute(B, p, shift, {(0, 1): B._one_raw()})
                    for p in (num, den))
    sign = -1 if place.is_infinity else 1
    num, den = ({sign * i: c for (i, _), c in p.items()} for p in (num, den))
    num_s, den_s = _series(R, num), _series(R, den)
    if den_s.is_one():
        return num_s if prec is None else num_s.truncate(prec)
    if prec is None:
        nil = B.nil_bound
        nu_n, nu_d = num_s.valuation(), den_s.valuation()
        tail = (nu_n - num_s.low) + (nu_d - den_s.low)
        prec = (abs(nu_n - nu_d) + tail) * nil + 8
    return _series(R, _quotient(R, num, den, prec), prec)


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


def _pair_product(ring, x: dict, y: dict, acc: dict) -> dict:
    """acc + x*y, into acc, for payload dicts over the scalar ring keyed by
    exponent pairs; sums that vanish are kept."""
    mul, add = ring._mul, ring._add
    for (a1, b1), c1 in x.items():
        for (a2, b2), c2 in y.items():
            k, p = (a1 + a2, b1 + b2), mul(c1, c2)
            q = acc.get(k)
            acc[k] = p if q is None else add(q, p)
    return acc


def _substitute_horner(ring, poly: dict, s1: dict, s2: dict) -> dict:
    """poly(s1, s2) by Horner in s2 over rows that are Horner in s1."""
    nonzero = ring._nonzero_test()

    def horner(coeffs: dict, s: dict) -> dict:     # sum_e coeffs[e] * s^e
        acc: dict = {}
        for e in range(max(coeffs, default=-1), -1, -1):
            acc = _pair_product(ring, acc, s, dict(coeffs.get(e, {})))
        return {k: c for k, c in acc.items() if nonzero(c)}

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

class BivarPoly:
    """Polynomial in two variables t1, t2; sparse {(i, j): coefficient}."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs: dict):
        self.ring = ring
        self.coeffs = {ij: (c if isinstance(c, RingValue) else ring.from_int(c))
                       for ij, c in coeffs.items()}
        self.coeffs = {ij: c for ij, c in self.coeffs.items() if not c.is_zero()}

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
        return not self.coeffs

    def is_constant(self) -> bool:
        return set(self.coeffs) <= {(0, 0)}

    def is_one(self) -> bool:
        return self.coeffs.keys() == {(0, 0)} and self.coeffs[(0, 0)].is_one()

    def __eq__(self, other):
        return (isinstance(other, BivarPoly) and self.ring == other.ring
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ring, tuple(sorted((ij, c.raw)
                                             for ij, c in self.coeffs.items()))))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (i, j), c in sorted(self.coeffs.items()):
            factors = []
            if not c.is_one() or (i, j) == (0, 0):
                factors.append(str(c))
            if i:
                factors.append("t1" if i == 1 else f"t1^{i}")
            if j:
                factors.append("t2" if j == 1 else f"t2^{j}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __add__(self, other):
        out = dict(self.coeffs)
        for ij, c in other.coeffs.items():
            s = out.get(ij)
            out[ij] = c if s is None else s + c
        return BivarPoly(self.ring, out)

    def __neg__(self):
        return BivarPoly(self.ring, {ij: -c for ij, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RingValue):
            return BivarPoly(self.ring, {ij: c * other
                                         for ij, c in self.coeffs.items()})
        out = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                ij = (i1 + i2, j1 + j2)
                p = c1 * c2
                s = out.get(ij)
                out[ij] = p if s is None else s + p
        return BivarPoly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise UnsupportedArgument("negative power of a polynomial")
        return _power(self, e, BivarPoly.one(self.ring), operator.mul)

    def evaluate(self, a: RingValue, b: RingValue) -> RingValue:
        acc = self.ring.zero()
        for (i, j), c in self.coeffs.items():
            acc = acc + c * a ** i * b ** j
        return acc

    def substitute_t2(self, phi: Poly) -> Poly:
        """The univariate polynomial self(t1, phi(t1))."""
        out = Poly.zero(self.ring)
        for (i, j), c in self.coeffs.items():
            out = out + (Poly.constant(c).shift_up(i)) * phi ** j
        return out

    def substitute_t1(self, value: RingValue) -> Poly:
        """The univariate polynomial self(value, t2)."""
        out = Poly.zero(self.ring)
        for (i, j), c in self.coeffs.items():
            term = Poly.constant(c * value ** i).shift_up(j)
            out = out + term
        return out


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


def flag_leading_terms(functions, flag: SurfaceFlag):
    """Per function, its (z1, z2) valuations and leading coefficient at the
    flag, read off the least z2, then least z1 exponent of the substituted
    numerator and denominator: the leading term of every `flag_expand`."""
    ring = functions[0].ring
    t1, t2 = _flag_coordinates(ring, flag)
    rows, leads = [], []
    for f in functions:
        num, den = (_substitute(ring, {ij: c.raw for ij, c in p.coeffs.items()},
                                t1, t2) for p in (f.num, f.den))
        (i, j), (k, l) = (min(p, key=lambda e: e[::-1]) for p in (num, den))
        rows.append((i - k, j - l))
        leads.append(RingValue(ring, ring._mul(num[i, j], ring._inv(den[k, l]))))
    return tuple(rows), leads


def flag_expand(f: BivarRational, flag: SurfaceFlag, prec: int = None,
                inner_prec: int = None) -> LaurentSeries:
    """Iterated expansion of f at the flag, in k((z1))((z2)) (z2 outer)."""
    if f.num.is_zero():
        raise ZeroOnCurve("the zero function has no expansion along a curve")
    ring = f.ring
    t1, t2 = _flag_coordinates(ring, flag)
    N2 = flag_ring(ring)
    num_s, den_s = (_tower(N2, _substitute(ring, {ij: c.raw for ij, c in
                                                  p.coeffs.items()}, t1, t2))
                    for p in (f.num, f.den))
    if den_s.is_one():
        out = num_s if prec is None else num_s.truncate(prec)
    else:
        if prec is None:
            prec = 2 * max(1, abs(den_s.valuation()), abs(num_s.valuation())) + 6
        inv_den = laurent_inv(den_s, prec - num_s.low)
        out = (num_s * inv_den).truncate(prec)
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

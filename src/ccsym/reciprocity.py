"""Executable reciprocity laws: product formulas for tame, Contou-Carrere and
higher symbols over the projective line and the affine plane, with per-place
reports.

Unless a precision is given, the line laws expand f at each place below u^P,
P = nu_f + (L-1)(J_f + (L-1) J_g) + 1 (nu + 1 over a field), for L the
nilpotency bound and J = nu - low the nilpotent pole depth.  That determines
the symbol: a change at u^P moves f by a factor in 1 + u^M B[[u]] with
M > (L-1)^2 J_g, whose P_i factors pair to 1 with g's N_j (j <= (L-1) J_g).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IncompleteFlagCover, UnsupportedArgument, ZeroFunction
from .geometry import (BivarPoly, RationalFunction, SurfaceFlag, _lifted,
                       _substitute, flag_expand, leading_unit_guard,
                       local_expand, support_places)
from .poly import Poly, _value_encoding, roots_in
from .rings import (RingValue, _raw_add, _raw_mul, format_value, relative_norm,
                    residue_field)
from .symbols import cc_symbol, higher_symbol, tame_symbol


@dataclass(frozen=True)
class LocalFactor:
    """One local contribution to a reciprocity product."""

    label: str
    degree: int
    local_value: RingValue
    contribution: RingValue

    def to_json(self) -> dict:
        return {
            "place": self.label,
            "degree": self.degree,
            "local": format_value(self.local_value),
            "value": format_value(self.contribution),
            "regular": self.contribution.is_one(),
        }


@dataclass(frozen=True)
class ReciprocityReport:
    law: str
    ok: bool
    product: RingValue
    factors: tuple

    def nontrivial_count(self) -> int:
        return sum(1 for f in self.factors if not f.contribution.is_one())

    def to_json(self) -> dict:
        return {
            "law": self.law,
            "verdict": self.ok,
            "product": format_value(self.product),
            "factors": [f.to_json() for f in self.factors],
        }


def weil_check(f: RationalFunction, g: RationalFunction,
               precision: int = None) -> ReciprocityReport:
    """Product of normed tame symbols over the support of f and g on the
    projective line over a finite field; Weil reciprocity says it is 1."""
    ring = f.ring
    if not ring.is_field:
        raise UnsupportedArgument("tame reciprocity needs field coefficients"
                                  " (use the Contou-Carrere law instead)")
    return _line_reciprocity("weil", tame_symbol, f, g, precision)


def cc_check(f: RationalFunction, g: RationalFunction,
             precision: int = None) -> ReciprocityReport:
    """Product of normed Contou-Carrere symbols over the support of f and g,
    with artinian local coefficients."""
    leading_unit_guard(f, g)
    return _line_reciprocity("cc", cc_symbol, f, g, precision)


def _line_reciprocity(law, local_symbol, f, g, precision) -> ReciprocityReport:
    """Normed local symbols over the support of f and g, each from expansions
    exact to the P of the module docstring, or to `precision` if given."""
    ring = f.ring
    if g.ring != ring:
        raise UnsupportedArgument("both functions must share one coefficient ring")
    if f.is_zero() or g.is_zero():
        raise ZeroFunction("reciprocity needs nonzero rational functions")
    e = residue_field(ring).degree
    factors = []
    product = ring.one()
    for place in support_places(f, g):
        if precision is None:
            fu, gu = _symbol_expansions(f, g, place)
        else:
            fu, gu = (local_expand(h, place, precision) for h in (f, g))
        local = local_symbol(fu, gu)
        contribution = relative_norm(local, e)
        factors.append(LocalFactor(place.label(), place.degree(),
                                   local, contribution))
        product = product * contribution
    return ReciprocityReport(law, product.is_one(), product, tuple(factors))


def _symbol_expansions(f, g, place):
    """f and g expanded at the place below the u^P of the module docstring.
    A first expansion to a bound on nu (deg(num) / deg(pi) at a finite place,
    deg(den) - deg(num) at infinity: leading coefficients are units) gives
    nu and J, and over a field it already reaches P."""
    L = f.ring.nil_bound
    out = []
    for h in (f, g):
        if place.is_infinity:
            bound = h.den.degree() - h.num.degree()
        else:
            bound = h.num.degree() // place.degree()
        out.append(local_expand(h, place, bound + 1))
    nu_f, nu_g = out[0].valuation(), out[1].valuation()
    j_f, j_g = nu_f - out[0].low, nu_g - out[1].low
    needs = (nu_f + (L - 1) * (j_f + (L - 1) * j_g) + 1,
             nu_g + (L - 1) * (j_g + (L - 1) * j_f) + 1)
    return [s if s.prec >= need else local_expand(h, place, need)
            for h, s, need in zip((f, g), out, needs)]


# -- Parshin reciprocity on the plane -------------------------------------------

def parshin_check(functions, flags, precision: int = None,
                  inner_precision: int = None) -> ReciprocityReport:
    """Product of higher symbols of three plane functions over a family of
    flags sharing marked points.

    Every curve through a marked point along which some function has a zero
    or pole must appear among the flags; otherwise the family cannot see the
    whole boundary and IncompleteFlagCover is raised.
    """
    functions = tuple(functions)
    if len(functions) != 3:
        raise UnsupportedArgument("the plane reciprocity law pairs 3 functions")
    ring = functions[0].ring
    if not ring.is_field:
        raise UnsupportedArgument("plane reciprocity is implemented over fields")
    for f in functions:
        if f.is_zero():
            raise ZeroFunction("reciprocity needs nonzero functions")
    flags = tuple(flags)
    _check_flag_cover(functions, flags)
    factors = []
    product = ring.one()
    for flag in flags:
        exps = [flag_expand(f, flag, precision, inner_precision)
                for f in functions]
        local = higher_symbol(exps)
        factors.append(LocalFactor(flag.label(), 1, local, local))
        product = product * local
    return ReciprocityReport("parshin", product.is_one(), product, tuple(factors))


def _curve_key(flag: SurfaceFlag):
    if flag.kind == "vertical":
        return ("vertical", flag.data[0].raw)
    return ("graph", flag.data[0].coeffs)


def _divide_out(poly: BivarPoly, flag: SurfaceFlag):
    """(multiplicity, cofactor) of the flag's curve equation in the polynomial.

    The curve is y - h(x): t2 - phi(t1) for a graph, t1 - c for a vertical
    line.  The polynomial is held as raw rows in x by powers of y, and
    synthetic division by y - h repeats until a remainder is nonzero."""
    ring = poly.ring
    if flag.kind == "vertical":
        y, h = 0, Poly.constant(flag.data[0])._raw()
    else:
        y, h = 1, flag.data[0]._raw()
    zero = ring._zero_raw()
    rows = [[] for _ in range(1 + max((ij[y] for ij in poly.coeffs),
                                      default=-1))]
    for ij, c in poly.coeffs.items():
        row, i = rows[ij[y]], ij[1 - y]
        row.extend([zero] * (i + 1 - len(row)))
        row[i] = c.raw
    mult = 0
    while rows:
        carry, quot = [], []
        for row in reversed(rows[1:]):
            carry = _raw_add(carry, row, ring)
            quot.append(carry)
            carry = _raw_mul(carry, h, ring)
        if _raw_add(carry, rows[0], ring):
            break
        rows, mult = quot[::-1], mult + 1
    if mult:
        poly = BivarPoly(ring, {(i, j) if y else (j, i): RingValue(ring, c)
                                for j, row in enumerate(rows)
                                for i, c in enumerate(row)})
    return mult, poly


def _check_flag_cover(functions, flags):
    """Every curve through a marked point carrying a zero or pole of some
    function must be one of the flags (at that point).

    At each point the candidate curves (the flags there, the vertical line
    and the lines through it that can divide a numerator or denominator) are
    divided out of each numerator and denominator in turn, once per pair.
    The candidates are distinct monic irreducibles of degree 1 in t1 or t2,
    so dividing out the earlier ones leaves the multiplicity of the later
    ones unchanged: one pass gives both every multiplicity and the cofactor,
    whose value at the point tells whether some other curve through it
    carries a zero or pole.  The lines come from the tangent cone (Fulton,
    Algebraic Curves, 3.1): in u = t1 - x0, v = t2 - y0 the line v = lam*u
    divides a polynomial only if it divides its least-degree form P_m, that
    is if P_m(1, lam) = 0; the slopes keep the order of `ring.elements()`."""
    if not flags:
        raise IncompleteFlagCover("no flags given")
    ring = functions[0].ring
    points = {}
    for flag in flags:
        points.setdefault(flag.point, set()).add(_curve_key(flag))
    for point, provided in points.items():
        x0, y0 = point
        u, v = (_lifted([c, ring.one()], ring) for c in (x0, y0))
        v = {(j, i): c for (i, j), c in v.items()}      # y0 + v
        slopes = {}
        for poly in (p for f in functions for p in (f.num, f.den)):
            moved = _substitute(ring, {ij: c.raw for ij, c in
                                       poly.coeffs.items()}, u, v)
            m = min(map(sum, moved))
            cone = Poly(ring, [RingValue(ring, moved.get((m - j, j),
                                                         ring._zero_raw()))
                               for j in range(m + 1)])
            slopes.update((lam.raw, lam) for lam in roots_in(cone, ring))
        candidates = [SurfaceFlag.vertical(x0, y0)]
        for lam in sorted(slopes.values(), key=_value_encoding):
            # line t2 = y0 + lam (t1 - x0) through the point
            phi = Poly(ring, [y0 - lam * x0, lam])
            candidates.append(SurfaceFlag.graph(phi, x0))
        candidates.extend(fl for fl in flags if fl.point == point)
        unique = {}   # by curve, first seen first
        for fl in candidates:
            unique.setdefault(_curve_key(fl), fl)
        for f in functions:
            order = dict.fromkeys(unique, 0)   # of f along each curve
            for poly, sign in ((f.num, 1), (f.den, -1)):
                rest = poly
                for key, fl in unique.items():
                    mult, rest = _divide_out(rest, fl)
                    order[key] += sign * mult
                if rest.evaluate(x0, y0).is_zero():
                    raise IncompleteFlagCover(
                        f"a curve through ({x0}, {y0}) outside the flag family"
                        f" carries a zero or pole of {f!r}")
            for key, fl in unique.items():
                if order[key] and key not in provided:
                    raise IncompleteFlagCover(
                        f"function {f!r} has a zero or pole along"
                        f" {fl.label()} which is missing from the flags")

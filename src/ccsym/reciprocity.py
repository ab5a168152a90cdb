"""Executable reciprocity laws: product formulas for tame, Contou-Carrere and
higher symbols over the projective line and the affine plane, with per-place
reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IncompleteFlagCover, UnsupportedArgument, ZeroFunction
from .geometry import (BivarPoly, RationalFunction, SurfaceFlag, flag_expand,
                       leading_unit_guard, local_expand, support_places)
from .poly import Poly
from .rings import RingValue, format_value, relative_norm, residue_field
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
    ring = f.ring
    if g.ring != ring:
        raise UnsupportedArgument("both functions must share one coefficient ring")
    if f.is_zero() or g.is_zero():
        raise ZeroFunction("reciprocity needs nonzero rational functions")
    if precision is None:
        # bounds every local valuation, pole depth and nilpotent interaction
        total = (f.num.degree() + f.den.degree()
                 + g.num.degree() + g.den.degree())
        precision = ring.nil_bound * max(total, 1) + 8
    e = residue_field(ring).degree
    factors = []
    product = ring.one()
    for place in support_places(f, g):
        fu = local_expand(f, place, precision)
        gu = local_expand(g, place, precision)
        local = local_symbol(fu, gu)
        contribution = relative_norm(local, e)
        factors.append(LocalFactor(place.label(), place.degree(),
                                   local, contribution))
        product = product * contribution
    return ReciprocityReport(law, product.is_one(), product, tuple(factors))


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
    """(multiplicity, cofactor) of the flag's curve equation in the polynomial."""
    mult = 0
    while not poly.is_zero():
        quot, rem = _divmod_by_curve(poly, flag)
        if rem is None or not rem.is_zero():
            break
        poly = quot
        mult += 1
    return mult, poly


def _divmod_by_curve(poly: BivarPoly, flag: SurfaceFlag):
    ring = poly.ring
    if flag.kind == "vertical":
        c = flag.data[0]
        # synthetic division by (t1 - c), coefficients in k[t2]
        if not poly.coeffs:
            return poly, BivarPoly.zero(ring)
        top = max(i for i, _ in poly.coeffs)
        quot: dict = {}
        carry: dict[int, RingValue] = {}
        for i in range(top, 0, -1):
            row = {j: v for (ii, j), v in poly.coeffs.items() if ii == i}
            for j, v in row.items():
                carry[j] = carry.get(j, ring.zero()) + v
            for j, v in carry.items():
                if not v.is_zero():
                    quot[(i - 1, j)] = v
            carry = {j: v * c for j, v in carry.items()}
        rem = BivarPoly(ring, {(0, j): v for j, v in carry.items()})
        rem = rem + BivarPoly(ring, {(0, j): v for (ii, j), v in poly.coeffs.items()
                                     if ii == 0})
        return BivarPoly(ring, quot), rem
    phi = flag.data[0]
    # division by (t2 - phi(t1)), coefficients in k[t1]
    if not poly.coeffs:
        return poly, BivarPoly.zero(ring)
    top = max(j for _, j in poly.coeffs)
    quot_rows: dict[int, Poly] = {}
    carry_poly = Poly.zero(ring)
    for j in range(top, 0, -1):
        row = Poly(ring, [poly.coeffs.get((i, j), ring.zero())
                          for i in range(0, 1 + max((i for (i, jj) in poly.coeffs
                                                     if jj == j), default=0))])
        carry_poly = carry_poly + row
        quot_rows[j - 1] = carry_poly
        carry_poly = carry_poly * phi
    row0 = Poly(ring, [poly.coeffs.get((i, 0), ring.zero())
                       for i in range(0, 1 + max((i for (i, jj) in poly.coeffs
                                                  if jj == 0), default=0))])
    rem_poly = carry_poly + row0
    quot = {}
    for j, qp in quot_rows.items():
        for i, cf in enumerate(qp.coeffs):
            if not cf.is_zero():
                quot[(i, j)] = cf
    rem = BivarPoly(ring, {(i, 0): cf for i, cf in enumerate(rem_poly.coeffs)
                           if not cf.is_zero()})
    return BivarPoly(ring, quot), rem


def _check_flag_cover(functions, flags):
    """Every curve through a marked point carrying a zero or pole of some
    function must be one of the flags (at that point)."""
    if not flags:
        raise IncompleteFlagCover("no flags given")
    ring = functions[0].ring
    points = {}
    for flag in flags:
        points.setdefault(flag.point, set()).add(_curve_key(flag))
    for point, provided in points.items():
        x0, y0 = point
        candidates = [SurfaceFlag.vertical(x0, y0)]
        for lam in ring.elements():
            # line t2 = y0 + lam (t1 - x0) through the point
            phi = Poly(ring, [y0 - lam * x0, lam])
            candidates.append(SurfaceFlag.graph(phi, x0))
        candidates.extend(fl for fl in flags if fl.point == point)
        seen = set()
        unique = []
        for fl in candidates:
            key = _curve_key(fl)
            if key not in seen:
                seen.add(key)
                unique.append(fl)
        for f in functions:
            residual_vanishes = False
            for poly in (f.num, f.den):
                rest = poly
                for fl in unique:
                    _, rest = _divide_out(rest, fl)
                if rest.is_zero() or rest.evaluate(x0, y0).is_zero():
                    residual_vanishes = True
            if residual_vanishes:
                raise IncompleteFlagCover(
                    f"a curve through ({x0}, {y0}) outside the flag family"
                    f" carries a zero or pole of {f!r}")
            for fl in unique:
                num_mult, _ = _divide_out(f.num, fl)
                den_mult, _ = _divide_out(f.den, fl)
                if num_mult != den_mult and _curve_key(fl) not in provided:
                    raise IncompleteFlagCover(
                        f"function {f!r} has a zero or pole along"
                        f" {fl.label()} which is missing from the flags")

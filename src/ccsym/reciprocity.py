"""Executable reciprocity laws: product formulas for tame, Contou-Carrere and
higher symbols over the projective line and the affine plane, with per-place
reports.

Unless a precision is given, the line laws shift each function once per place
(`geometry._place_payloads`).  Over a field the `symbols` closed form reads nu
and the leading coefficient off that shift.  Over an artinian ring nothing is
divided: for f = a/b and g = c/d the exact shifts of a, b, c and d are units of
B((u)), and the bimultiplicative symbol is (a, c)(b, d) / ((a, d)(b, c))
(`symbols._cc_product`).

The Parshin law substitutes each numerator and denominator into the flag
coordinates of each candidate curve at each marked point once
(`flag_payloads`).  The flag-cover check reads every curve multiplicity off
those payloads, and each function's leading term at each flag is read off
the same payloads (`flag_leading_term`); the closed form of the `symbols`
docstring evaluates them, with no series arithmetic.  An explicit
`precision` is the z2 precision an expansion would be truncated at: a flag
where some function's z2 valuation reaches it raises PrecisionExhausted, as
the truncated expansions would hold no unit there.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import geometry
from .errors import (IncompleteFlagCover, PrecisionExhausted, UnsupportedArgument,
                     ZeroFunction)
from .geometry import (RationalFunction, SurfaceFlag, flag_leading_term,
                       flag_payloads, leading_unit_guard, local_expand,
                       support_places)
from .laurent import LaurentRing, _series
from .poly import Poly, _value_encoding, roots_in
from .rings import RingValue, format_value, relative_norm, residue_field
from .symbols import _cc_product, _tame_value, cc_symbol, tame_symbol

# local_expand, tame_symbol and cc_symbol serve only an explicit precision,
# flag_expand nothing; bench/tracing.py wraps them all here.
flag_expand = geometry.flag_expand


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
    """Normed local symbols over the support of f and g: by the module
    docstring's route, or from expansions to `precision` if given."""
    ring = f.ring
    if g.ring is not ring:
        raise UnsupportedArgument("both functions must share one coefficient ring")
    if f.is_zero() or g.is_zero():
        raise ZeroFunction("reciprocity needs nonzero rational functions")
    e = residue_field(ring).degree
    factors = []
    product = ring.one()
    for place in support_places(f, g):
        if precision is not None:
            local = local_symbol(*(local_expand(h, place, precision) for h in (f, g)))
        elif ring.is_field:
            local = _field_symbol(f, g, place)
        else:
            local = _artinian_symbol(f, g, place)
        contribution = relative_norm(local, e)
        factors.append(LocalFactor(place.label(), place.degree(),
                                   local, contribution))
        product = product * contribution
    return ReciprocityReport(law, product.is_one(), product, tuple(factors))


def _field_symbol(f, g, place):
    """The closed form on the orders and leading coefficients of f and g over a
    field, shifted below max(deg num, deg den) // deg(pi) + 1, past both orders
    as pi^m | p needs m <= deg(p) / deg(pi)."""
    rows, leads = [], []
    for h in (f, g):
        order = max(h.num.degree(), h.den.degree()) // place.degree() + 1
        B, num, den = geometry._place_payloads(h, place, order)
        o_n, o_d = min(num), min(den)
        rows.append((o_n - o_d,))
        leads.append(B._mul(num[o_n], B._inv(den[o_d])))
    return _tame_value(tuple(rows), leads, B)


def _artinian_symbol(f, g, place):
    """The local symbol of the module docstring over an artinian ring."""
    shifts = [geometry._place_payloads(h, place) for h in (f, g)]
    R = LaurentRing(shifts[0][0], "u")
    return _cc_product(*(((_series(R, num), 1), (_series(R, den), -1))
                         for _, num, den in shifts))


# -- Parshin reciprocity on the plane -------------------------------------------

def parshin_check(functions, flags, precision: int = None) -> ReciprocityReport:
    """Product of higher symbols of three plane functions over a family of
    flags sharing marked points.

    Every curve through a marked point along which some function has a zero
    or pole must appear among the flags; otherwise the family cannot see the
    whole boundary and IncompleteFlagCover is raised.  A flag named twice
    would count its local factor twice and is refused.
    """
    functions, flags = tuple(functions), tuple(flags)
    if len(functions) != 3:
        raise UnsupportedArgument("the plane reciprocity law pairs 3 functions")
    ring = functions[0].ring
    if any(f.ring is not ring for f in functions) or any(
            c.ring is not ring for flag in flags for c in flag.point):
        raise UnsupportedArgument("the functions and flags must share one"
                                  " coefficient ring")
    if not ring.is_field:
        raise UnsupportedArgument("plane reciprocity is implemented over fields")
    if any(f.is_zero() for f in functions):
        raise ZeroFunction("reciprocity needs nonzero functions")
    factors = []
    product = ring.one()
    for flag, terms in zip(flags, _check_flag_cover(functions, flags)):
        rows, leads = [], []
        for ((i, j), a), ((k, l), b) in zip(terms[::2], terms[1::2]):
            rows.append((i - k, j - l))
            leads.append(ring._mul(a, ring._inv(b)))
        if precision is not None and max(v2 for _, v2 in rows) >= precision:
            raise PrecisionExhausted("no unit among the known coefficients "
                                     f"of O(z2^{precision})")
        local = _tame_value(tuple(rows), leads, ring)
        factors.append(LocalFactor(flag.label(), 1, local, local))
        product = product * local
    return ReciprocityReport("parshin", product.is_one(), product, tuple(factors))


def _raw(values) -> tuple:
    return tuple(c.raw for c in values)


def _curve_key(flag: SurfaceFlag):
    if flag.kind == "vertical":
        return ("vertical", flag.data[0].raw)
    return ("graph", tuple(flag.data[0]._raw))


def _check_flag_cover(functions, flags) -> list:
    """Every curve through a marked point carrying a zero or pole of some
    function must be one of the flags (at that point).  Returns, per flag,
    the leading terms (`flag_leading_term`) of the numerators and
    denominators in turn.

    At each point each candidate curve C (the vertical line, the lines
    through the point that can divide a polynomial, the flags there) gets
    every polynomial P substituted into its flag coordinates once; the least
    z2 exponent is the multiplicity m_C of C in P.  Distinct smooth curves
    through the point give P = prod C^(m_C) * R with mult(P) = sum m_C +
    mult(R) (Fulton, Algebraic Curves, 3.1), so another curve through the
    point carries a zero or pole exactly when mult(P) > sum m_C.  The
    vertical line's coordinates (t1 = x0 + z2, t2 = y0 + z1) are the shift
    to the point with the variables swapped: they give mult(P) = m, the
    least total degree, and the tangent cone P_m.  The line
    t2 - y0 = lam (t1 - x0) divides P only if P_m(1, lam) = 0; the slopes
    keep the order of `ring.elements()`."""
    if not flags:
        raise IncompleteFlagCover("no flags given")
    ring = functions[0].ring
    points = {}                             # raw point -> (point, flags there)
    for flag in flags:
        _, provided = points.setdefault(_raw(flag.point), (flag.point, {}))
        if _curve_key(flag) in provided:
            raise UnsupportedArgument(f"the flag {flag.label()} is given twice")
        provided[_curve_key(flag)] = flag
    polys = [p for f in functions for p in (f.num, f.den)]
    found = {}
    for raw_point, ((x0, y0), provided) in points.items():
        vertical = SurfaceFlag.vertical(x0, y0)
        shifted = flag_payloads(polys, vertical)
        degrees = [min(map(sum, p)) for p in shifted]
        slopes = {}
        for p, m in zip(shifted, degrees):
            cone = Poly._of(ring, [p.get((j, m - j), ring._zero_raw())
                                   for j in range(m + 1)])
            slopes.update((lam.raw, lam) for lam in roots_in(cone, ring))
        # line t2 = y0 + lam (t1 - x0) through the point, then the flags there
        candidates = [SurfaceFlag.graph(Poly(ring, [y0 - lam * x0, lam]), x0)
                      for lam in sorted(slopes.values(), key=_value_encoding)]
        unique = {_curve_key(vertical): (vertical, shifted)}  # first seen first
        for fl in candidates + list(provided.values()):
            if _curve_key(fl) not in unique:
                unique[_curve_key(fl)] = (fl, flag_payloads(polys, fl))
        mults = {key: [min(j for _, j in p) for p in payloads]
                 for key, (_, payloads) in unique.items()}
        for n, f in enumerate(functions):
            if any(degrees[s] > sum(m[s] for m in mults.values())
                   for s in (2 * n, 2 * n + 1)):
                raise IncompleteFlagCover(
                    f"a curve through ({x0}, {y0}) outside the flag family"
                    f" carries a zero or pole of {f!r}")
            for key, (fl, _) in unique.items():
                if mults[key][2 * n] != mults[key][2 * n + 1] and key not in provided:
                    raise IncompleteFlagCover(
                        f"function {f!r} has a zero or pole along"
                        f" {fl.label()} which is missing from the flags")
        found[raw_point] = unique
    return [[flag_leading_term(p) for p in found[_raw(fl.point)][_curve_key(fl)][1]]
            for fl in flags]

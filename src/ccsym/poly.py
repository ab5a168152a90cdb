"""Univariate polynomials over the scalar rings, with factorization and root
finding over finite fields.

`Poly` wraps its coefficients as `RingValue`s.  Only the squarefree split
(`squarefree_decomposition`) runs on them; the rest runs on raw payloads in
the one finite-field polynomial kernel in `rings` (which this module imports,
so the kernel cannot live here): `factor` hands each squarefree part to the
distinct-degree split `_raw_ddf` and the Cantor-Zassenhaus equal-degree split
`_raw_edf`, `roots_in` to `_field_roots`, and the pinned minimal polynomials
of `GaloisField` use the same modular powers.  The random choices are seeded
from the polynomial, and factors and roots are sorted by encoding, so no
output depends on them.
"""

from __future__ import annotations

import operator

from .errors import AlgebraError, NotAUnit, UnsupportedArgument
from .rings import (RingDescriptor, RingValue, _field_roots, _power, _raw_ddf,
                    _raw_edf, _raw_encoding, _seeded_rng, embed)


class Poly:
    """Dense univariate polynomial; coefficients low to high, no trailing
    zeros.  The zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: RingDescriptor, coeffs):
        vals = [c if isinstance(c, RingValue) else ring.from_int(c)
                for c in coeffs]
        while vals and vals[-1].is_zero():
            vals.pop()
        self.ring = ring
        self.coeffs = tuple(vals)

    @classmethod
    def zero(cls, ring):
        return cls(ring, ())

    @classmethod
    def one(cls, ring):
        return cls(ring, (ring.one(),))

    @classmethod
    def x(cls, ring):
        return cls(ring, (ring.zero(), ring.one()))

    @classmethod
    def constant(cls, value: RingValue):
        return cls(value.ring, (value,))

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def lead(self) -> RingValue:
        if not self.coeffs:
            raise AlgebraError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> RingValue:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ring.zero()

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0].is_one()

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1].is_one()

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.ring == other.ring
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            ctext = str(c)
            if i == 0:
                parts.append(ctext)
                continue
            power = "t" if i == 1 else f"t^{i}"
            if c.is_one():
                parts.append(power)
            elif any(ch in ctext for ch in " +*/^"):
                parts.append(f"({ctext})*{power}")
            else:
                parts.append(f"{ctext}*{power}")
        return " + ".join(parts)

    # -- arithmetic -----------------------------------------------------------
    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.ring, [self.coeff(i) + other.coeff(i)
                                for i in range(n)])

    def __neg__(self):
        return Poly(self.ring, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RingValue):
            return Poly(self.ring, [c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.ring)
        out = [self.ring.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise UnsupportedArgument("negative power of a polynomial")
        return _power(self, e, Poly.one(self.ring), operator.mul)

    def scale(self, value: RingValue) -> "Poly":
        return Poly(self.ring, [c * value for c in self.coeffs])

    def shift_up(self, k: int) -> "Poly":
        """Multiply by t^k."""
        if self.is_zero():
            return self
        return Poly(self.ring, [self.ring.zero()] * k + list(self.coeffs))

    def divmod(self, other: "Poly"):
        if other.is_zero():
            raise AlgebraError("division by the zero polynomial")
        if not other.lead().is_unit():
            raise NotAUnit("divisor needs a unit leading coefficient")
        inv_lead = other.lead().inv()
        rem = list(self.coeffs)
        dn, dd = len(rem) - 1, other.degree()
        if dn < dd:
            return Poly.zero(self.ring), self
        quot = [self.ring.zero()] * (dn - dd + 1)
        for k in range(dn - dd, -1, -1):
            c = rem[k + dd] * inv_lead
            if c.is_zero():
                continue
            quot[k] = c
            for j, b in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - c * b
        return Poly(self.ring, quot), Poly(self.ring, rem[:dd])

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(self.lead().inv())

    def derivative(self) -> "Poly":
        return Poly(self.ring, [self.coeffs[i] * self.ring.from_int(i)
                                for i in range(1, len(self.coeffs))])

    def evaluate(self, x: RingValue) -> RingValue:
        acc = x.ring.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + embed(c, x.ring)
        return acc

    def map_coefficients(self, fn, target: RingDescriptor) -> "Poly":
        return Poly(target, [fn(c) for c in self.coeffs])

    def encoding(self) -> tuple:
        """Stable integer encoding, used for deterministic seeds and order."""
        return tuple(_value_encoding(c) for c in self.coeffs)


def _value_encoding(c: RingValue) -> int:
    raw = c.raw
    return _raw_encoding(raw, c.ring)


def random_poly(ring, rng, degree: int, monic: bool = False) -> Poly:
    coeffs = [ring.random(rng) for _ in range(degree + 1)]
    if monic:
        coeffs[-1] = ring.one()
    elif degree >= 0:
        coeffs[-1] = ring.random_unit(rng)
    return Poly(ring, coeffs)


# -- gcd and factorization over finite fields ----------------------------------

def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over a field."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def _pth_root(f: Poly) -> Poly:
    """Inverse Frobenius on a polynomial in x^p (over a perfect field)."""
    field = f.ring
    p, e = field.char, field.degree
    coeffs = []
    for i in range(0, f.degree() + 1, p):
        c = f.coeff(i)
        coeffs.append(c ** (p ** (e - 1)))
    return Poly(field, coeffs)


def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Pairs (g_i, m_i) with f monic = prod g_i^{m_i}, the g_i squarefree and
    pairwise coprime."""
    p = f.ring.char
    out: dict[Poly, int] = {}

    def accumulate(g: Poly, mult: int):
        if g.degree() > 0:
            out[g] = out.get(g, 0) + mult

    def run(f: Poly, e: int):
        while f.degree() > 0:
            df = f.derivative()
            if df.is_zero():
                f = _pth_root(f)
                e *= p
                continue
            g = poly_gcd(f, df)
            w = f // g
            i = 1
            while w.degree() > 0:
                y = poly_gcd(w, g)
                accumulate(w // y, i * e)
                w = y
                g = g // y
                i += 1
            if g.degree() > 0:
                run(_pth_root(g), e * p)
            return

    run(f.monic(), 1)
    return sorted(out.items(), key=lambda it: (it[1], it[0].encoding()))


def factor(f: Poly) -> tuple[RingValue, list[tuple[Poly, int]]]:
    """Full factorization over a finite field: leading unit and sorted
    (monic irreducible, multiplicity) pairs."""
    if f.is_zero():
        raise AlgebraError("cannot factor the zero polynomial")
    if not f.ring.is_field:
        raise UnsupportedArgument("factorization needs field coefficients")
    field = f.ring
    rng = _seeded_rng([c.raw for c in f.coeffs], field)
    factors: list[tuple[Poly, int]] = []
    for g, mult in squarefree_decomposition(f):
        for h, d in _raw_ddf([c.raw for c in g.coeffs], field):
            irreducibles: list = []
            _raw_edf(h, d, field, rng, irreducibles)
            factors += [(Poly(field, [RingValue(field, c) for c in irr]), mult)
                        for irr in irreducibles]
    factors.sort(key=lambda it: (it[0].degree(), it[0].encoding()))
    return f.lead(), factors


_ROOTS_CACHE: dict = {}


def roots_in(f: Poly, target_field) -> list[RingValue]:
    """All roots of f in `target_field`, sorted by the pinned integer
    encoding (smallest first).  The coefficients are embedded into the
    target and the roots split off gcd(f, x^Q - x) (see `rings._field_roots`)."""
    key = (f.ring, f.encoding(), target_field)
    cached = _ROOTS_CACHE.get(key)
    if cached is None:
        if f.is_zero():
            raise AlgebraError("every element is a root of the zero polynomial")
        if not target_field.is_field:
            raise UnsupportedArgument("root finding needs a field target")
        raws = _field_roots([embed(c, target_field).raw for c in f.coeffs],
                            target_field)
        roots = sorted((RingValue(target_field, r) for r in raws),
                       key=_value_encoding)
        cached = _ROOTS_CACHE[key] = tuple(roots)
    return list(cached)


def is_irreducible(f: Poly) -> bool:
    if f.degree() <= 0:
        return False
    _, factors = factor(f)
    return len(factors) == 1 and factors[0][1] == 1 and \
        factors[0][0].degree() == f.degree()

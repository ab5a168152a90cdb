"""Univariate polynomials over the scalar rings, with factorization and root
finding over finite fields.

`Poly` shows its coefficients as `RingValue`s, but all its arithmetic (sums,
products, division, monic scaling, derivatives, gcds) runs on raw payloads in
the one polynomial kernel in `rings`, which this module imports, so the
kernel cannot live here.  `factor` splits f into squarefree parts
(`_raw_squarefree`) and hands each to the kernel's distinct-degree split
`_raw_ddf` and Cantor-Zassenhaus equal-degree split `_raw_edf`.
`roots_in` runs `_field_roots` over the coefficient field of f, and the
pinned minimal polynomials of `GaloisField` use the same modular powers.  The
random choices are seeded from the polynomial, and factors and roots are
sorted by encoding, so no output depends on them.
"""

from __future__ import annotations

import operator

from .errors import (AlgebraError, DescriptorMismatch, NotAUnit,
                     UnsupportedArgument)
from .rings import (RingDescriptor, RingValue, _composite, _field_roots,
                    _fmt_poly, _power, _raw_add, _raw_ddf, _raw_derivative,
                    _raw_divmod, _raw_edf, _raw_encoding, _raw_gcd,
                    _raw_monic, _raw_mul, _seeded_rng, embed)


class Poly:
    """Dense univariate polynomial; coefficients low to high, no trailing
    zeros.  The zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: RingDescriptor, coeffs):
        vals = [ring.coerce(c) for c in coeffs]
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
        return (isinstance(other, Poly) and self.ring is other.ring
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __repr__(self):
        return _fmt_poly(enumerate(self.coeffs), "t", str, _composite)

    # -- arithmetic: each operation runs once on raw payloads, in `rings` ------
    @classmethod
    def _of(cls, ring, raw: list) -> "Poly":
        """The polynomial with payloads `raw`, low to high."""
        return cls(ring, [RingValue(ring, c) for c in raw])

    def _raw(self) -> list:
        return [c.raw for c in self.coeffs]

    def __add__(self, other):
        return Poly._of(self.ring, _raw_add(self._raw(), other._raw(), self.ring))

    def __neg__(self):
        return Poly(self.ring, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if isinstance(other, RingValue):
            return self.scale(other)
        if not isinstance(other, Poly):
            raise DescriptorMismatch(f"cannot multiply a polynomial by {other!r}")
        return Poly._of(self.ring, _raw_mul(self._raw(), other._raw(), self.ring))

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
        """(q, r) with self = q * other + r and deg r < deg other: division by
        the monic other / c, c = lead(other), whose quotient is c * q."""
        if other.is_zero():
            raise AlgebraError("division by the zero polynomial")
        if not other.lead().is_unit():
            raise NotAUnit("divisor needs a unit leading coefficient")
        ring = self.ring
        mul, inv = ring._mul, ring._inv(other.lead().raw)
        quot, rem = _raw_divmod(self._raw(), [mul(inv, c) for c in other._raw()],
                                ring)
        return Poly._of(ring, [mul(inv, c) for c in quot]), Poly._of(ring, rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return Poly._of(self.ring, _raw_monic(self._raw(), self.ring))

    def derivative(self) -> "Poly":
        return Poly._of(self.ring, _raw_derivative(self._raw(), self.ring))

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
    if not a.ring.is_field:
        raise UnsupportedArgument("gcds need field coefficients")
    if b.is_zero():
        a, b = b, a
    return Poly._of(a.ring, _raw_gcd(a._raw(), b._raw(), a.ring))


def _raw_squarefree(f: list, field) -> list[tuple[list, int]]:
    """Pairs (g, m), sorted by (m, encoding): the g squarefree, monic and
    pairwise coprime with f = prod g^m, for a monic raw f over a field."""
    p, mul = field.char, field._mul
    out: dict[tuple, int] = {}
    e = 1
    while len(f) > 1:
        df = _raw_derivative(f, field)
        if df:
            g = _raw_gcd(f, df, field)
            w, i = _raw_divmod(f, g, field)[0], 1
            while len(w) > 1:
                y = _raw_gcd(w, g, field)
                part = tuple(_raw_divmod(w, y, field)[0])
                if len(part) > 1:
                    out[part] = out.get(part, 0) + i * e
                w, g, i = y, _raw_divmod(g, y, field)[0], i + 1
            f = g
        if len(f) > 1:
            # f is a polynomial in x^p: inverse Frobenius on its coefficients
            f = [_power(c, p ** (field.degree - 1), field._one_raw(), mul)
                 for c in f[::p]]
            e *= p
    return sorted(((list(g), m) for g, m in out.items()), key=lambda it: (
        it[1], tuple(_raw_encoding(c, field) for c in it[0])))


def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Pairs (g_i, m_i) with f monic = prod g_i^{m_i}, the g_i squarefree and
    pairwise coprime."""
    raw = _raw_monic(f._raw(), f.ring) if f.coeffs else []
    return [(Poly._of(f.ring, g), m) for g, m in _raw_squarefree(raw, f.ring)]


def factor(f: Poly) -> tuple[RingValue, list[tuple[Poly, int]]]:
    """Full factorization over a finite field: leading unit and sorted
    (monic irreducible, multiplicity) pairs."""
    if f.is_zero():
        raise AlgebraError("cannot factor the zero polynomial")
    if not f.ring.is_field:
        raise UnsupportedArgument("factorization needs field coefficients")
    field = f.ring
    raw = f._raw()
    rng = _seeded_rng(raw, field)
    factors: list[tuple[Poly, int]] = []
    for g, mult in _raw_squarefree(_raw_monic(raw, field), field):
        for h, d in _raw_ddf(g, field):
            irreducibles: list = []
            _raw_edf(h, d, field, rng, irreducibles)
            factors += [(Poly._of(field, irr), mult) for irr in irreducibles]
    factors.sort(key=lambda it: (it[0].degree(), it[0].encoding()))
    return f.lead(), factors


# least recently used first; a reciprocity round reads about 30 keys
_ROOTS_CACHE: dict = {}
_ROOTS_CACHE_SIZE = 1024


def roots_in(f: Poly, target_field) -> list[RingValue]:
    """All roots of f in `target_field`, sorted by the pinned integer
    encoding (smallest first).  f's coefficient field must embed into the
    target.  The search runs over that coefficient field: each irreducible
    factor of f with roots in the target gives one root, found in the
    target, and its Frobenius orbit (see `rings._field_roots`)."""
    key = (f.ring, f.encoding(), target_field)
    cached = _ROOTS_CACHE.pop(key, None)
    if cached is None:
        if f.is_zero():
            raise AlgebraError("every element is a root of the zero polynomial")
        if not target_field.is_field:
            raise UnsupportedArgument("root finding needs a field target")
        embed(f.lead(), target_field)   # raises unless the coefficients embed
        raws = _field_roots(f._raw(), f.ring, target_field)
        cached = tuple(sorted((RingValue(target_field, r) for r in raws),
                              key=_value_encoding))
        if len(_ROOTS_CACHE) >= _ROOTS_CACHE_SIZE:
            del _ROOTS_CACHE[next(iter(_ROOTS_CACHE))]
    _ROOTS_CACHE[key] = cached
    return list(cached)


def is_irreducible(f: Poly) -> bool:
    if f.degree() <= 0:
        return False
    _, factors = factor(f)
    return len(factors) == 1 and factors[0][1] == 1 and \
        factors[0][0].degree() == f.degree()

"""Univariate polynomials over the scalar rings, with factorization and root
finding over finite fields.

`Poly` holds its coefficients as a list of payloads, low to high, and wraps
them as `RingValue`s only when `coeffs` is read.  All its arithmetic runs on
those payloads, the larger steps (sums, products, division, derivatives,
gcds) in the one polynomial kernel in `rings`, which this module imports, so
the kernel cannot live here.  `factor` splits f into squarefree parts
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
from .rings import (RingDescriptor, RingValue, _composite, _embed_raw,
                    _field_roots, _fmt_poly, _power, _raw_add, _raw_ddf,
                    _raw_derivative, _raw_divmod, _raw_edf, _raw_encoding,
                    _raw_gcd, _raw_monic, _raw_mul, _raw_trim, _seeded_rng,
                    _signed_power)


class Poly:
    """Dense univariate polynomial; coefficients low to high, no trailing
    zeros.  The zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("ring", "_raw", "_coeffs")

    def __init__(self, ring: RingDescriptor, coeffs):
        self.ring, self._coeffs = ring, None
        self._raw = _raw_trim([ring.coerce(c).raw for c in coeffs],
                              ring._zero_raw())

    @classmethod
    def _of(cls, ring, raw: list) -> "Poly":
        """The polynomial with payloads `raw`, low to high: a list it keeps
        as `_raw`, which no operation mutates."""
        poly = cls.__new__(cls)
        poly.ring, poly._coeffs = ring, None
        poly._raw = _raw_trim(raw, ring._zero_raw())
        return poly

    @property
    def coeffs(self) -> tuple:
        """The coefficients as `RingValue`s, low to high."""
        if self._coeffs is None:
            self._coeffs = tuple(map(self.ring._wrapper(), self._raw))
        return self._coeffs

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
        return len(self._raw) - 1

    def lead(self) -> RingValue:
        if not self._raw:
            raise AlgebraError("zero polynomial has no leading coefficient")
        return RingValue(self.ring, self._raw[-1])

    def coeff(self, i: int) -> RingValue:
        if 0 <= i < len(self._raw):
            return RingValue(self.ring, self._raw[i])
        return self.ring.zero()

    def is_zero(self) -> bool:
        return not self._raw

    def is_constant(self) -> bool:
        return len(self._raw) <= 1

    def is_one(self) -> bool:
        return self._raw == [self.ring._one_raw()]

    def is_monic(self) -> bool:
        return bool(self._raw) and self._raw[-1] == self.ring._one_raw()

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.ring is other.ring
                and self._raw == other._raw)

    def __hash__(self):
        return hash((self.ring, tuple(self._raw)))

    def __repr__(self):
        return _fmt_poly(enumerate(self.coeffs), "t", str, _composite)

    # -- arithmetic: each operation runs once on raw payloads -----------------
    def __add__(self, other):
        return Poly._of(self.ring, _raw_add(self._raw, other._raw, self.ring))

    def __neg__(self):
        return Poly._of(self.ring, list(map(self.ring._neg, self._raw)))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if isinstance(other, RingValue):
            return self.scale(other)
        if not isinstance(other, Poly):
            raise DescriptorMismatch(f"cannot multiply a polynomial by {other!r}")
        return Poly._of(self.ring, _raw_mul(self._raw, other._raw, self.ring))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise UnsupportedArgument("negative power of a polynomial")
        return _power(self, e, Poly.one(self.ring), operator.mul)

    def scale(self, value: RingValue) -> "Poly":
        mul, v = self.ring._mul, self.ring.coerce(value).raw
        return Poly._of(self.ring, [mul(c, v) for c in self._raw])

    def shift_up(self, k: int) -> "Poly":
        """Multiply by t^k."""
        if self.is_zero():
            return self
        return Poly._of(self.ring, [self.ring._zero_raw()] * k + self._raw)

    def divmod(self, other: "Poly"):
        """(q, r) with self = q * other + r and deg r < deg other: division by
        the monic other / c, c = lead(other), whose quotient is c * q."""
        if other.is_zero():
            raise AlgebraError("division by the zero polynomial")
        if not other.lead().is_unit():
            raise NotAUnit("divisor needs a unit leading coefficient")
        ring = self.ring
        mul, inv = ring._mul, ring._inv(other._raw[-1])
        quot, rem = _raw_divmod(self._raw, [mul(inv, c) for c in other._raw],
                                ring)
        return Poly._of(ring, [mul(inv, c) for c in quot]), Poly._of(ring, rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return Poly._of(self.ring, _raw_monic(self._raw, self.ring))

    def derivative(self) -> "Poly":
        return Poly._of(self.ring, _raw_derivative(self._raw, self.ring))

    def evaluate(self, x: RingValue) -> RingValue:
        """f(x) in the ring of x, into which f's coefficients embed."""
        A, B, acc = self.ring, x.ring, x.ring._zero_raw()
        for c in reversed(self._raw):
            acc = B._add(B._mul(acc, x.raw), _embed_raw(c, A, B))
        return RingValue(B, acc)

    def map_coefficients(self, fn, target: RingDescriptor) -> "Poly":
        return Poly(target, [fn(c) for c in self.coeffs])

    def encoding(self) -> tuple:
        """Stable integer encoding, used for deterministic seeds and order."""
        return tuple(_raw_encoding(c, self.ring) for c in self._raw)


def _value_encoding(c: RingValue) -> int:
    return _raw_encoding(c.raw, c.ring)


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
    return Poly._of(a.ring, _raw_gcd(a._raw, b._raw, a.ring))


def _raw_squarefree(f: list, field) -> list[tuple[list, int]]:
    """Pairs (g, m), sorted by (m, encoding): the g squarefree, monic and
    pairwise coprime with f = prod g^m, for a monic raw f over a field."""
    p = field.char
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
            f = [_signed_power(field, c, p ** (field.degree - 1)) for c in f[::p]]
            e *= p
    return sorted(((list(g), m) for g, m in out.items()), key=lambda it: (
        it[1], tuple(_raw_encoding(c, field) for c in it[0])))


def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Pairs (g_i, m_i) with f monic = prod g_i^{m_i}, the g_i squarefree and
    pairwise coprime."""
    raw = _raw_monic(f._raw, f.ring) if f._raw else []
    return [(Poly._of(f.ring, g), m) for g, m in _raw_squarefree(raw, f.ring)]


def factor(f: Poly) -> tuple[RingValue, list[tuple[Poly, int]]]:
    """Full factorization over a finite field: leading unit and sorted
    (monic irreducible, multiplicity) pairs."""
    if f.is_zero():
        raise AlgebraError("cannot factor the zero polynomial")
    if not f.ring.is_field:
        raise UnsupportedArgument("factorization needs field coefficients")
    field = f.ring
    raw = f._raw
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
        _embed_raw(f._raw[-1], f.ring, target_field)   # raises unless they embed
        raws = _field_roots(f._raw, f.ring, target_field)
        cached = tuple(RingValue(target_field, r) for r in sorted(
            raws, key=lambda r: _raw_encoding(r, target_field)))
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

"""Differential tests for the payload paths: polynomial arithmetic, the tame
closed form and the descriptor rules against the RingValue arithmetic they
replace, which is kept here as the oracle."""

import itertools
import operator
import random

import pytest

from ccsym.geometry import BivarPoly
from ccsym.laurent import LaurentRing, LaurentSeries
from ccsym.poly import Poly
from ccsym.rings import (ArtinianLocal, GaloisField, PrimeField, RingValue,
                         _finite_field, _is_prime, _power)
from ccsym.symbols import _tame_exponents, _tame_value, cc_symbol, higher_symbol

F3, F5 = PrimeField(3), PrimeField(5)
F9 = GaloisField(3, 2)
RINGS = [F5, F9, ArtinianLocal(F3, 2), ArtinianLocal(PrimeField(2), 3)]


# -- the RingValue oracles ------------------------------------------------------

def _rv_power(a, e):
    """a**e by square-and-multiply on the elements, a negative e through
    their inverse."""
    return _power(a.inv() if e < 0 else a, abs(e), a.ring.one(), operator.mul)


def _rv_add(a: list, b: list, ring) -> list:
    zero = ring.zero()
    return [x + y for x, y in itertools.zip_longest(a, b, fillvalue=zero)]


def _rv_mul(a: list, b: list, ring) -> list:
    out = [ring.zero()] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _old_bivar_add(p, q):
    out = dict(p.coeffs)
    for ij, c in q.coeffs.items():
        s = out.get(ij)
        out[ij] = c if s is None else s + c
    return BivarPoly(p.ring, out)


def _old_bivar_mul(p, q):
    if isinstance(q, RingValue):
        return BivarPoly(p.ring, {ij: c * q for ij, c in p.coeffs.items()})
    out = {}
    for (i1, j1), c1 in p.coeffs.items():
        for (i2, j2), c2 in q.coeffs.items():
            ij = (i1 + i2, j1 + j2)
            prod = c1 * c2
            s = out.get(ij)
            out[ij] = prod if s is None else s + prod
    return BivarPoly(p.ring, out)


def _old_bivar_pow(p, e):
    return _power(p, e, BivarPoly.one(p.ring), _old_bivar_mul)


def _old_evaluate(p, a, b):
    acc = p.ring.zero()
    for (i, j), c in p.coeffs.items():
        acc = acc + c * _rv_power(a, i) * _rv_power(b, j)
    return acc


def _old_substitute_t2(p, phi):
    ring, out = p.ring, []
    for (i, j), c in p.coeffs.items():
        term = [ring.zero()] * i + [c]
        for _ in range(j):
            term = _rv_mul(term, list(phi.coeffs), ring)
        out = _rv_add(out, term, ring)
    return Poly(ring, out)


def _old_substitute_t1(p, value):
    ring, out = p.ring, []
    for (i, j), c in p.coeffs.items():
        out = _rv_add(out, [ring.zero()] * j + [c * _rv_power(value, i)], ring)
    return Poly(ring, out)


def _old_sub(f, g):
    return Poly(f.ring, _rv_add(list(f.coeffs), [-c for c in g.coeffs], f.ring))


def _old_scale(f, value):
    return Poly(f.ring, [c * value for c in f.coeffs])


def _old_shift_up(f, k):
    return f if f.is_zero() else Poly(f.ring, [f.ring.zero()] * k + list(f.coeffs))


def _tame_oracle(rows, leads, base):
    parity, exponents = _tame_exponents(rows)
    out = base.from_int(-1) if parity else base.one()
    for a, e in zip(leads, exponents):
        out = out * _rv_power(a, e)
    return out


# -- inputs ---------------------------------------------------------------------

def _nilpotent(ring):
    """A nonzero element that squares to zero, or None over a field."""
    if not isinstance(ring, ArtinianLocal):
        return None
    return _rv_power(ring.eps(), ring.m - 1)


def _bivar(ring, rng, terms=4):
    """A seeded polynomial with zero coefficients among its draws."""
    return BivarPoly(ring, {(rng.randrange(4), rng.randrange(4)): ring.random(rng)
                            for _ in range(rng.randrange(terms + 1))})


def _poly(ring, rng):
    return Poly(ring, [ring.random(rng) for _ in range(rng.randrange(6))])


def _same_bivar(new, old):
    """Equal payloads and wrapped coefficients, and no stored zero."""
    assert new == old and new.coeffs == old.coeffs
    assert all(not c.is_zero() for c in new.coeffs.values())


def _same_poly(new, old):
    assert new == old and new.coeffs == old.coeffs
    assert not new.coeffs or not new.coeffs[-1].is_zero()


# -- polynomials ------------------------------------------------------------------

@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_bivariate_arithmetic_matches_ringvalue_oracle(ring):
    rng = random.Random(f"bivariate payloads {ring!r}")
    zero = BivarPoly.zero(ring)
    for _ in range(40):
        p, q = _bivar(ring, rng), _bivar(ring, rng)
        c = ring.random(rng)
        _same_bivar(p + q, _old_bivar_add(p, q))
        _same_bivar(p - q, _old_bivar_add(p, _old_bivar_mul(q, ring.from_int(-1))))
        _same_bivar(p * q, _old_bivar_mul(p, q))
        _same_bivar(p * c, _old_bivar_mul(p, c))
        _same_bivar(p ** 3, _old_bivar_pow(p, 3))
        # sums and products that cancel, and the zero polynomial
        assert (p - p).is_zero() and (p + (-p)) == zero
        _same_bivar(p * zero, zero)
        _same_bivar(zero + p, p)
        a, b = ring.random(rng), ring.random(rng)
        assert p.evaluate(a, b) == _old_evaluate(p, a, b)
        assert zero.evaluate(a, b) == ring.zero()
        phi = _poly(ring, rng)
        _same_poly(p.substitute_t2(phi), _old_substitute_t2(p, phi))
        _same_poly(p.substitute_t1(a), _old_substitute_t1(p, a))
        _same_poly(zero.substitute_t2(phi), Poly.zero(ring))
    e = _nilpotent(ring)
    if e is not None:
        # over an artinian ring a product of nonzero polynomials can vanish
        x = BivarPoly(ring, {(1, 0): e, (0, 2): e})
        _same_bivar(x * x, _old_bivar_mul(x, x))
        assert (x * x).is_zero() and (x * e).is_zero()


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_line_arithmetic_matches_ringvalue_oracle(ring):
    rng = random.Random(f"line payloads {ring!r}")
    zero = Poly.zero(ring)
    for _ in range(60):
        f, g = _poly(ring, rng), _poly(ring, rng)
        c, k = ring.random(rng), rng.randrange(4)
        _same_poly(f - g, _old_sub(f, g))
        _same_poly(f - f, zero)
        _same_poly(f.scale(c), _old_scale(f, c))
        _same_poly(f.shift_up(k), _old_shift_up(f, k))
        _same_poly(zero.shift_up(k), zero)
        _same_poly(zero - f, _old_sub(zero, f))
    e = _nilpotent(ring)
    if e is not None:
        # scaling by a nilpotent can clear the leading coefficient
        f = Poly(ring, [1, e, e])
        _same_poly(f.scale(e), _old_scale(f, e))
        assert f.scale(e).degree() == 0


# -- the tame closed form -----------------------------------------------------------

@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("base", [F5, F9, ArtinianLocal(F3, 2)], ids=repr)
def test_tame_value_matches_ringvalue_formula(base, depth):
    rng = random.Random(f"tame value {base!r} {depth}")
    for _ in range(40):
        rows = tuple(tuple(rng.randrange(-3, 4) for _ in range(depth))
                     for _ in range(depth + 1))
        leads = [base.random_unit(rng) for _ in rows]
        got = _tame_value(rows, [a.raw for a in leads], base)
        assert got == _tame_oracle(rows, leads, base)


def _tower_unit(ring, rng):
    """A unit of a field tower with a random valuation in each variable."""
    if not isinstance(ring, LaurentRing):
        return ring.random_unit(rng)
    nu = rng.randrange(-2, 3)
    lead = ring.constant(_tower_unit(ring.base, rng))
    tail = ring.constant(_tower_unit(ring.base, rng))
    return ring.gen(nu) * lead + ring.gen(nu + rng.randrange(1, 3)) * tail


def _leading_oracle(f):
    row = ()
    while isinstance(f, LaurentSeries):
        nu = f.valuation()
        row, f = (nu,) + row, f.coeffs[nu]
    return row, f


@pytest.mark.parametrize("field", [F5, F9], ids=repr)
def test_cc_symbol_on_a_field_tower_matches_ringvalue_formula(field):
    # the base of the outer ring is F((t1)): the leads are series
    ring = LaurentRing(LaurentRing(field, "t1"), "t2")
    rng = random.Random(f"cc on a tower {field!r}")
    for _ in range(15):
        f, g = _tower_unit(ring, rng), _tower_unit(ring, rng)
        nu_f, nu_g = f.valuation(), g.valuation()
        want = _tame_oracle(((nu_f,), (nu_g,)), (f.coeffs[nu_f], g.coeffs[nu_g]),
                            ring.base)
        got = cc_symbol(f, g)
        assert got == want and got.prec == want.prec


@pytest.mark.parametrize("depth", [2, 3])
@pytest.mark.parametrize("field", [F5, F9], ids=repr)
def test_field_higher_symbol_matches_ringvalue_formula(field, depth):
    ring = field
    for i in range(1, depth + 1):
        ring = LaurentRing(ring, f"t{i}")
    rng = random.Random(f"higher on a field {field!r} {depth}")
    for _ in range(10):
        args = [_tower_unit(ring, rng) for _ in range(depth + 1)]
        rows, leads = zip(*map(_leading_oracle, args))
        assert higher_symbol(args) == _tame_oracle(rows, leads, field)


# -- the descriptor rules ----------------------------------------------------------

def _small_rings():
    """Every field and artinian ring here with at most 256 elements."""
    for p in filter(_is_prime, range(2, 257)):
        d = 1
        while p ** d <= 256:
            k, m = _finite_field(p, d), 2
            yield k
            while k.size ** m <= 256:
                yield ArtinianLocal(k, m)
                m += 1
            d += 1


def test_every_small_ring_is_local():
    # a non-unit is nilpotent, so "not a unit" is the nilpotency rule
    count = 0
    for ring in _small_rings():
        one, zero = ring._one_raw(), ring._zero_raw()
        assert one == ring.one().raw and zero == ring.zero().raw
        for x in ring.elements():
            a = x.raw
            unit = ring._is_unit(a)
            assert ring._is_nilpotent(a) == (not unit), (ring, a)
            if unit:
                assert ring._mul(a, ring._inv(a)) == one, (ring, a)
            else:
                assert _power(a, ring.nil_bound, one, ring._mul) == zero, (ring, a)
            count += 1
    assert count > 9000


def test_series_over_an_artinian_ring_are_units_or_nilpotent():
    A = ArtinianLocal(F3, 2)
    R = LaurentRing(A)
    eps = R.constant(A.eps())
    for f, unit in ((eps * R.gen(-1), False), (R.one() + eps * R.gen(-1), True),
                    (R.zero(), False), (R.gen(3), True)):
        assert R._is_unit(f) == unit and R._is_nilpotent(f) == (not unit)
        assert f.is_nilpotent() == (not unit)


def test_descriptor_rules_are_written_once():
    for cls in (PrimeField, GaloisField, ArtinianLocal, LaurentRing):
        assert not {"_is_nilpotent", "_zero_raw", "_one_raw"} & set(vars(cls)), cls

"""Polynomial arithmetic and finite-field factorization."""

import functools
import itertools
import random

import pytest
from hypothesis import given, strategies as st

from ccsym.errors import (AlgebraError, DescriptorMismatch, NotAUnit,
                          UnsupportedArgument)
from ccsym import geometry, poly, rings
from ccsym.geometry import BivarPoly, _taylor_shift, residue_extension
from ccsym.poly import (Poly, _value_encoding, factor, is_irreducible, poly_gcd,
                        random_poly, roots_in, squarefree_decomposition)
from ccsym.rings import ArtinianLocal, GaloisField, PrimeField, RingValue, embed

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F4 = GaloisField(2, 2)
F8 = GaloisField(2, 3)
F9 = GaloisField(3, 2)
ALL_FIELDS = (F2, F3, F5, PrimeField(7), F4, F8, F9)


def test_coefficients_from_another_ring_are_refused():
    with pytest.raises(DescriptorMismatch):
        Poly(F5, [F9.generator(), 1])
    with pytest.raises(DescriptorMismatch):
        BivarPoly(F5, {(1, 0): F9.generator()})
    with pytest.raises(DescriptorMismatch):
        Poly(F5, [1.5])
    assert Poly(F5, [F5.one(), 7]) == Poly(F5, [1, 2])


def test_construction_strips_leading_zeros():
    f = Poly(F5, [1, 2, 0, 0])
    assert f.degree() == 1
    assert Poly(F5, [0, 0]).is_zero()
    assert Poly.zero(F5).degree() == -1


def test_divmod_identity(rng):
    for field in (F5, F9):
        for _ in range(25):
            a = random_poly(field, rng, rng.randrange(0, 7))
            b = random_poly(field, rng, rng.randrange(1, 4))
            q, r = a.divmod(b)
            assert q * b + r == a
            assert r.degree() < b.degree()


def test_divmod_needs_unit_lead():
    A = ArtinianLocal(F5, 2)
    f = Poly(A, [A.one(), A.one()])
    g = Poly(A, [A.one(), A.eps()])
    with pytest.raises(NotAUnit):
        f.divmod(g)
    with pytest.raises(AlgebraError):
        f.divmod(Poly.zero(A))


def test_artinian_division_works_with_unit_lead():
    A = ArtinianLocal(F5, 2)
    f = Poly(A, [A.eps(), A.one(), A.one()])
    g = Poly(A, [A.eps(), A.one()])
    q, r = f.divmod(g)
    assert q * g + r == f


def test_gcd_of_multiples(rng):
    for _ in range(20):
        g = random_poly(F5, rng, rng.randrange(1, 3), monic=True)
        a = g * random_poly(F5, rng, rng.randrange(0, 3))
        b = g * random_poly(F5, rng, rng.randrange(0, 3))
        if a.is_zero() or b.is_zero():
            continue
        d = poly_gcd(a, b)
        assert (a % d).is_zero() and (b % d).is_zero()
        assert d % g == Poly.zero(F5)


def _monics(field, degree):
    elements = list(field.elements())
    for low in itertools.product(elements, repeat=degree):
        yield Poly(field, list(low) + [field.one()])


def _has_no_small_divisor(g):
    """Oracle: g of degree n is irreducible iff no monic of degree <= n/2
    divides it."""
    return g.degree() > 0 and all(
        not (g % h).is_zero()
        for d in range(1, g.degree() // 2 + 1) for h in _monics(g.ring, d))


def _assert_factorization(f):
    lead, factors = factor(f)
    prod = Poly.constant(lead)
    for g, mult in factors:
        assert g.is_monic()
        assert _has_no_small_divisor(g), (f, g)
        prod = prod * g ** mult
    assert prod == f
    assert len({g for g, _ in factors}) == len(factors)


def test_factor_roundtrip_all_fields(rng):
    for field in ALL_FIELDS:
        for _ in range(12):
            _assert_factorization(random_poly(field, rng, rng.randrange(1, 7)))


@pytest.mark.parametrize("field,max_degree", ((F4, 4), (F8, 3), (F9, 3)),
                         ids=str)
def test_factor_every_small_monic_over_extension_fields(field, max_degree):
    for deg in range(1, max_degree + 1):
        for f in _monics(field, deg):
            _assert_factorization(f)


def test_factor_deterministic():
    f = random_poly(F5, random.Random(17), 8)
    assert factor(f) == factor(f)


def test_factor_p_power_multiplicities():
    t = Poly.x(F3)
    f = (t + Poly.one(F3)) ** 3 * t ** 6
    _, factors = factor(f)
    assert {(repr(g), m) for g, m in factors} == {("t", 6), ("1 + t", 3)}


def test_squarefree_decomposition_char2():
    # derivative of t^2 + 1 vanishes identically over F2: the p-th-root path
    t = Poly.x(F2)
    f = (t ** 2 + Poly.one(F2)) * t
    parts = squarefree_decomposition(f)
    prod = Poly.one(F2)
    for g, m in parts:
        prod = prod * g ** m
    assert prod == f.monic()
    assert any(m % 2 == 0 for _, m in parts)


def _poly_level_pth_root(f):
    """Part of the squarefree oracle: inverse Frobenius on a polynomial in
    x^p, on wrapped coefficients."""
    field = f.ring
    p, e = field.char, field.degree
    return Poly(field, [f.coeff(i) ** (p ** (e - 1))
                        for i in range(0, f.degree() + 1, p)])


def _poly_level_squarefree(f):
    """Oracle: the former squarefree_decomposition, on wrapped `Poly`s."""
    p = f.ring.char
    out = {}

    def run(f, e):
        while f.degree() > 0:
            df = f.derivative()
            if df.is_zero():
                f = _poly_level_pth_root(f)
                e *= p
                continue
            g = poly_gcd(f, df)
            w = f // g
            i = 1
            while w.degree() > 0:
                y = poly_gcd(w, g)
                if (w // y).degree() > 0:
                    out[w // y] = out.get(w // y, 0) + i * e
                w = y
                g = g // y
                i += 1
            if g.degree() > 0:
                run(_poly_level_pth_root(g), e * p)
            return

    run(f.monic(), 1)
    return sorted(out.items(), key=lambda it: (it[1], it[0].encoding()))


@pytest.mark.parametrize("field", (F2, F3, F4, F9, GaloisField(5, 2)), ids=str)
def test_squarefree_matches_poly_level_oracle(field):
    rng = random.Random(8 * field.size)
    p = field.char
    for _ in range(40):
        a = random_poly(field, rng, rng.randrange(1, 3), monic=True)
        b = random_poly(field, rng, rng.randrange(0, 3))
        c = random_poly(field, rng, rng.randrange(0, 4))
        for f in (a ** p * b ** 2 * c, a ** (p * p) * c, b * c ** 3, c):
            assert squarefree_decomposition(f) == _poly_level_squarefree(f), f


def test_factor_rejects_zero_and_non_field():
    with pytest.raises(AlgebraError):
        factor(Poly.zero(F5))
    A = ArtinianLocal(F5, 2)
    with pytest.raises(UnsupportedArgument):
        factor(Poly(A, [A.one(), A.one()]))


def test_roots_in_extension_pinned_order():
    f = Poly(F3, [1, 0, 1])  # t^2 + 1, irreducible over F3
    assert roots_in(f, F3) == []
    roots = roots_in(f, F9)
    assert len(roots) == 2
    # pinned: sorted by integer encoding, so the list is reproducible
    assert [r.raw for r in roots] == [(2, 1), (1, 2)]
    for r in roots:
        assert f.evaluate(r).is_zero()


def _scan_roots(f, target):
    """Oracle: the former roots_in, which evaluated f at every element."""
    return sorted((x for x in target.elements() if f.evaluate(x).is_zero()),
                  key=_value_encoding)


@functools.lru_cache(maxsize=None)
def _log_tables(field):
    antilog = [field.one()]
    for _ in range(field.size - 2):
        antilog.append(antilog[-1] * field.generator())
    antilog = [a.raw for a in antilog]
    return antilog, {a: i for i, a in enumerate(antilog)}


def _log_scan_roots(f, target):
    """Oracle for large targets: evaluate f at 0 and at every power g^i of the
    primitive generator, multiplying through discrete logarithms."""
    n = target.size - 1
    antilog, log = _log_tables(target)
    terms = [(k, log[embed(c, target).raw]) for k, c in enumerate(f.coeffs)
             if not c.is_zero()]
    zero, add = target._zero_raw(), target._add
    roots = [zero] if f.coeff(0).is_zero() else []
    for i in range(n):
        acc = zero
        for k, lc in terms:
            acc = add(acc, antilog[(lc + k * i) % n])
        if acc == zero:
            roots.append(antilog[i])
    return sorted((RingValue(target, r) for r in roots), key=_value_encoding)


def _extensions(field, limit=125):
    d = field.degree
    while field.char ** d <= limit:
        yield PrimeField(field.char) if d == 1 else GaloisField(field.char, d)
        d += field.degree


@pytest.mark.parametrize("field", (F2, F3, F4, F5), ids=str)
def test_roots_in_matches_scan_for_every_small_monic(monkeypatch, field):
    monkeypatch.setattr(poly, "_ROOTS_CACHE", {})
    for target in _extensions(field):
        for deg in range(4):
            for f in _monics(field, deg):
                assert roots_in(f, target) == _scan_roots(f, target), (f, target)


def test_roots_cache_evicts_the_least_recently_used_past_its_bound(monkeypatch):
    # more distinct keys than the bound leave at most the bound, the entry
    # read last survives, and evicted roots come back equal
    monkeypatch.setattr(poly, "_ROOTS_CACHE", {})
    monkeypatch.setattr(poly, "_ROOTS_CACHE_SIZE", 8)
    F25 = GaloisField(5, 2)
    quadratics = list(_monics(F5, 2))[:20]
    first = [roots_in(f, F25) for f in quadratics]
    assert len(poly._ROOTS_CACHE) == 8
    assert roots_in(quadratics[12], F25) == first[12]      # the oldest, read
    roots_in(quadratics[0], F5)                             # a new key
    assert (F5, quadratics[12].encoding(), F25) in poly._ROOTS_CACHE
    assert (F5, quadratics[13].encoding(), F25) not in poly._ROOTS_CACHE
    assert [roots_in(f, F25) for f in quadratics] == first
    assert len(poly._ROOTS_CACHE) == 8
    # the embedding memos are bounded the same way, and recompute equal values
    sub, big = GaloisField(3, 2), GaloisField(3, 4)
    generator = rings._pinned_subfield_generator(sub, big)
    for memo in (rings._pinned_subfield_generator, rings._subfield_basis):
        assert memo.cache_info().maxsize == 256
    assert rings._pinned_subfield_generator.__wrapped__(sub, big) == generator


def test_roots_in_matches_scan_for_quartic_places_over_f9(monkeypatch):
    big = GaloisField(3, 8)
    monkeypatch.setattr(poly, "_ROOTS_CACHE", {})
    rng = random.Random(20261018)
    quartics = []
    while len(quartics) < 20:
        f = random_poly(F9, rng, 4, monic=True)
        if is_irreducible(f):
            quartics.append(f)
    for f in quartics:
        roots = roots_in(f, big)
        assert len(roots) == 4
        assert roots == _log_scan_roots(f, big), f


# -- the place kernels on log codes against the payload route ------------------

def _place_kernel_outcomes(field, places, products, shifts):
    """factor and squarefree_decomposition of each product; roots_in, the
    pinned subfield generator and Taylor shifts at each place."""
    out = [(factor(f), squarefree_decomposition(f)) for f in products]
    for pi, (coeffs, order) in zip(places, shifts):
        big = residue_extension(field, pi.degree())
        roots = roots_in(pi, big)
        assert len(roots) == pi.degree()
        out.append((roots, rings._pinned_subfield_generator.__wrapped__(field, big)
                    if big is not field else None))
        for B in (big, ArtinianLocal(big, 2)):
            alpha = embed(roots[0], B).raw
            lifted = [rings._embed_raw(c, big, B) for c in coeffs]
            out.append(_taylor_shift(B, lifted, alpha, order))
    return out


@pytest.mark.parametrize("field", [F9, GaloisField(3, 3)], ids=repr)
def test_place_kernels_on_codes_match_the_payload_route(monkeypatch, field):
    rng = random.Random(f"place kernels {field!r}")
    places = []
    for d in (1, 2, 3, 4, 5):
        while True:
            pi = random_poly(field, rng, d, monic=True)
            if is_irreducible(pi):
                places.append(pi)
                break
    products = [places[1] ** 2 * places[3] * places[0] ** field.p,
                places[2] * places[4] * random_poly(field, rng, 3),
                random_poly(field, rng, 6) * random_poly(field, rng, 2) ** 3]
    shifts = []
    for pi in places:
        big = residue_extension(field, pi.degree())
        coeffs = [big.random(rng).raw for _ in range(rng.randrange(3, 9))]
        shifts.append((coeffs, rng.choice((None, 2, len(coeffs)))))
    # F9's places of degree 2-4 have residue fields of at most 2^13
    # elements, hence codes; F27's stop at degree 2
    coded = [residue_extension(field, pi.degree())._tables is not None
             for pi in places]
    assert coded == ([True] * 4 + [False] if field is F9
                     else [True, True, False, False, False])
    monkeypatch.setattr(poly, "_ROOTS_CACHE", {})
    got = _place_kernel_outcomes(field, places, products, shifts)
    with monkeypatch.context() as m:
        for module in (rings, poly, geometry):
            m.setattr(module, "_coded", lambda ring, *lists: (ring, list(lists)))
        m.setattr(poly, "_ROOTS_CACHE", {})
        rings._pinned_subfield_generator.cache_clear()
        want = _place_kernel_outcomes(field, places, products, shifts)
    rings._pinned_subfield_generator.cache_clear()
    assert got == want
    # the seed and the order of the squarefree parts read payloads, also
    # when the kernel runs on codes
    tables, most = field._tables, 0
    for f in products:
        raw = rings._raw_monic(f._raw, field)
        codes = [tables._code(c) for c in raw]
        assert (rings._seeded_rng(codes, tables).random()
                == rings._seeded_rng(raw, field).random())
        parts = poly._raw_squarefree(raw, field)
        assert [([*map(tables._decode, g)], m)
                for g, m in poly._raw_squarefree(codes, tables)] == parts
        most = max(most, len(parts))
    assert most > 2


def test_roots_in_known_roots_over_a_61_bit_prime():
    big = PrimeField(2 ** 61 - 1)
    rng = random.Random(7)
    for _ in range(5):
        roots = [big.random(rng) for _ in range(4)]
        f = Poly(big, [1])
        for r in roots + roots[:1]:  # one repeated root
            f = f * Poly(big, [-r, big.one()])
        c = big.random_unit(rng)
        while c ** ((big.size - 1) // 2) == big.one():
            c = big.random_unit(rng)
        f = f * Poly(big, [-c, big.zero(), big.one()])  # x^2 - c has no root
        expected = sorted(set(roots), key=_value_encoding)
        assert roots_in(f, big) == expected


def test_roots_in_domain_guards():
    with pytest.raises(AlgebraError):
        roots_in(Poly.zero(F5), F5)
    with pytest.raises(UnsupportedArgument):
        roots_in(Poly(F5, [1, 1]), ArtinianLocal(F5, 2))


def _full_split_roots_in(f, target):
    """Oracle: the former roots_in.  It embeds the coefficients into the
    target, computes x^Q there, takes gcd(f, x^Q - x) and splits that into
    linear factors."""
    if f.is_zero():
        raise AlgebraError("every element is a root of the zero polynomial")
    if not target.is_field:
        raise UnsupportedArgument("root finding needs a field target")
    g = rings._raw_monic([embed(c, target).raw for c in f.coeffs], target)
    zero, one = target._zero_raw(), target._one_raw()
    if len(g) > 2:
        h = rings._raw_powmod([zero, one], target.size, g, target)
        g = rings._raw_gcd(g, rings._raw_add(h, [zero, target._neg(one)],
                                             target), target)
    linear = []
    if len(g) > 1:
        rings._raw_edf(g, 1, target, rings._seeded_rng(g, target), linear)
    return sorted((RingValue(target, target._neg(c[0])) for c in linear),
                  key=_value_encoding)


def _irreducible(field, rng, degree):
    while True:
        f = random_poly(field, rng, degree, monic=True)
        if is_irreducible(f):
            return f


@pytest.mark.parametrize("field", (F2, F3, F4, F9, GaloisField(5, 2)), ids=str)
def test_roots_in_matches_full_split_oracle(monkeypatch, field):
    monkeypatch.setattr(poly, "_ROOTS_CACHE", {})
    rng = random.Random(field.size)
    irr = {m: _irreducible(field, rng, m) for m in range(1, 9)}
    cases = [
        irr[1] ** 2 * irr[2] * irr[3],      # reducible, a repeated root
        irr[2] ** 3 * irr[4],               # repeated factor of degree 2
        irr[5], irr[7],                     # roots in few extensions only
        irr[6] * irr[2],
        irr[8],
        random_poly(field, rng, 8),         # not monic
        random_poly(field, rng, 0),         # a nonzero constant: no roots
    ]
    # every target sees two of the cases in turn, and one polynomial over
    # the target itself: a case above with its coefficients embedded, or a
    # random one
    for r in range(1, 13):
        target = (field if r == 1 else
                  GaloisField(field.char, field.degree * r))
        over_target = (random_poly(target, rng, 3) if r % 3 == 0 else
                       cases[r % 2].map_coefficients(
                           lambda c: embed(c, target), target))
        for f in (cases[r % 8], cases[(r + 3) % 8], over_target):
            assert roots_in(f, target) == _full_split_roots_in(f, target), \
                (f, target)


def _raised(call):
    try:
        call()
    except Exception as exc:    # the type and message are what is compared
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("f, target", [
    (Poly.zero(F5), F5),
    (Poly(F5, [1, 1]), ArtinianLocal(F5, 2)),
    (Poly(F9, [1, 1]), F3),
    (Poly(F9, [1, 0, 1]), GaloisField(3, 3)),
    (Poly(F4, [1, 1]), F9),
    (Poly(ArtinianLocal(F3, 2), [1, 1]), F9),
], ids=repr)
def test_roots_in_guards_raise_as_the_oracle_does(monkeypatch, f, target):
    monkeypatch.setattr(poly, "_ROOTS_CACHE", {})
    expected = _raised(lambda: _full_split_roots_in(f, target))
    assert expected is not None
    assert _raised(lambda: roots_in(f, target)) == expected


def test_evaluate_embeds_coefficients():
    f = Poly(F3, [1, 1])  # 1 + t over F3, evaluated at an F9 point
    x = F9.generator()
    assert f.evaluate(x) == embed(F3.one(), F9) + x


def test_irreducibles_recognized():
    assert is_irreducible(Poly(F5, [2, 0, 1]))      # t^2 + 2
    assert not is_irreducible(Poly(F5, [4, 0, 1]))  # t^2 + 4 = (t+1)(t+4)
    assert not is_irreducible(Poly.one(F5))


@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_mul_degree_additive(da, db, data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    a = random_poly(F5, rng, da)
    b = random_poly(F5, rng, db)
    assert (a * b).degree() == da + db


@given(st.data())
def test_encoding_distinguishes(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    a = random_poly(F9, rng, rng.randrange(0, 4))
    b = random_poly(F9, rng, rng.randrange(0, 4))
    assert (a.encoding() == b.encoding()) == (a == b)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_is_irreducible_matches_sympy(p):
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ
    field = PrimeField(p)
    for deg in range(1, 5):
        for low in itertools.product(range(p), repeat=deg):
            f = Poly(field, list(low) + [1])
            dense = [1] + list(reversed(low))  # sympy lists high to low
            assert is_irreducible(f) == \
                galoistools.gf_irreducible_p(dense, p, ZZ), f


@pytest.mark.parametrize("p", (2, 3, 5))
def test_factor_matches_sympy(p):
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ
    field = PrimeField(p)
    for deg in range(1, 5):
        for f in _monics(field, deg):
            dense = [c.raw for c in reversed(f.coeffs)]  # sympy: high to low
            _, expected = galoistools.gf_factor(dense, p, ZZ)
            _, factors = factor(f)
            assert sorted((tuple(c.raw for c in reversed(g.coeffs)), m)
                          for g, m in factors) == \
                sorted((tuple(int(c) for c in g), m) for g, m in expected), f


# -- the wrapped Poly loops that the raw kernel replaced, kept as oracles ------

def _wrapped_add(a, b):
    n = max(len(a.coeffs), len(b.coeffs))
    return Poly(a.ring, [a.coeff(i) + b.coeff(i) for i in range(n)])


def _wrapped_mul(a, b):
    if a.is_zero() or b.is_zero():
        return Poly.zero(a.ring)
    out = [a.ring.zero()] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if x.is_zero():
            continue
        for j, y in enumerate(b.coeffs):
            out[i + j] = out[i + j] + x * y
    return Poly(a.ring, out)


def _wrapped_divmod(a, b):
    if b.is_zero():
        raise AlgebraError("division by the zero polynomial")
    if not b.lead().is_unit():
        raise NotAUnit("divisor needs a unit leading coefficient")
    inv_lead = b.lead().inv()
    rem = list(a.coeffs)
    dn, dd = len(rem) - 1, b.degree()
    if dn < dd:
        return Poly.zero(a.ring), a
    quot = [a.ring.zero()] * (dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        c = rem[k + dd] * inv_lead
        if c.is_zero():
            continue
        quot[k] = c
        for j, y in enumerate(b.coeffs):
            rem[k + j] = rem[k + j] - c * y
    return Poly(a.ring, quot), Poly(a.ring, rem[:dd])


def _wrapped_monic(a):
    if a.is_zero():
        return a
    return a.scale(a.lead().inv())


def _wrapped_derivative(a):
    return Poly(a.ring, [a.coeffs[i] * a.ring.from_int(i)
                         for i in range(1, len(a.coeffs))])


def _wrapped_gcd(a, b):
    while not b.is_zero():
        a, b = b, _wrapped_divmod(a, b)[1]
    return _wrapped_monic(a) if not a.is_zero() else a


def _outcome(fn, *args):
    """The result's ring and payloads, or the type of the exception raised."""
    try:
        out = fn(*args)
    except AlgebraError as exc:
        return type(exc)
    polys = out if isinstance(out, tuple) else (out,)
    return [(p.ring, tuple(c.raw for c in p.coeffs)) for p in polys]


def _sample_polys(ring, rng, count):
    """Zero, constants (zero-free and not) and seeded random polynomials of
    degree up to 5; over an artinian ring some leads are nilpotent."""
    out = [Poly.zero(ring), Poly.one(ring), Poly.constant(ring.from_int(2))]
    if not ring.is_field:
        out.append(Poly.constant(ring.eps()))
    for _ in range(count):
        coeffs = [ring.random(rng) for _ in range(rng.randrange(1, 7))]
        if rng.random() < 0.7:
            coeffs[-1] = ring.random_unit(rng)
        out.append(Poly(ring, coeffs))
    return out


@pytest.mark.parametrize("ring", [F2, F3, F4, F9, GaloisField(5, 2),
                                  ArtinianLocal(F5, 2), ArtinianLocal(F9, 2)],
                         ids=repr)
def test_poly_ops_match_the_wrapped_loops(ring):
    rng = random.Random(f"poly-ops {ring!r}")
    polys = _sample_polys(ring, rng, 14)
    ops = [(Poly.__add__, _wrapped_add), (Poly.__mul__, _wrapped_mul),
           (Poly.divmod, _wrapped_divmod)]
    if ring.is_field:
        ops.append((poly_gcd, _wrapped_gcd))
    for a, b in itertools.product(polys, repeat=2):
        for new, old in ops:
            assert _outcome(new, a, b) == _outcome(old, a, b), (new, a, b)
        if not ring.is_field:
            # gcds are only defined over a field, so poly_gcd refuses at once
            assert _outcome(poly_gcd, a, b) is UnsupportedArgument, (a, b)
    for a in polys:
        assert _outcome(Poly.monic, a) == _outcome(_wrapped_monic, a), a
        assert _outcome(Poly.derivative, a) == _outcome(_wrapped_derivative, a), a


@pytest.mark.parametrize("ring", [F5, F9, ArtinianLocal(F5, 2)], ids=repr)
def test_int_scales_a_polynomial_from_either_side(ring):
    f = Poly(ring, [1, 2])
    want = f.scale(ring.from_int(2))
    assert 2 * f == want and f * 2 == want
    assert f * 0 == Poly.zero(ring) and -3 * f == f.scale(ring.from_int(-3))
    for other in (2.0, "2", None):
        with pytest.raises(DescriptorMismatch, match="cannot multiply"):
            f * other
        with pytest.raises(DescriptorMismatch, match="cannot multiply"):
            other * f


# -- the raw division kernel against the loop it replaced --------------------

def _dense_divmod(a, b, field):
    """Division by the monic b that multiplies every divisor coefficient,
    zeros included."""
    mul, add, neg = field._mul, field._add, field._neg
    zero = field._zero_raw()
    a = list(a)
    n = len(b) - 1
    quot = [zero] * max(len(a) - n, 0)
    for k in range(len(a) - 1, n - 1, -1):
        c = quot[k - n] = a[k]
        if c != zero:
            c = neg(c)
            for j in range(n):
                a[k - n + j] = add(a[k - n + j], mul(c, b[j]))
    del a[n:]
    return quot, rings._raw_trim(a, zero)


def _divisors(ring, rng):
    """Sparse monic t^J - b for J up to 100, dense monic divisors, and the
    degree-0 divisor [1]."""
    zero, one = ring._zero_raw(), ring._one_raw()
    out = [[one]]
    for J in (1, 2, 5, 17, 64, 100):
        out.append([ring._neg(ring.random(rng).raw)] + [zero] * (J - 1) + [one])
    for n in range(1, 7):
        out.append([ring.random(rng).raw for _ in range(n)] + [one])
    return out


@pytest.mark.parametrize("ring", [F2, F3, F4, F9, GaloisField(3, 10),
                                  ArtinianLocal(F2, 3), ArtinianLocal(F5, 2)],
                         ids=repr)
def test_raw_divmod_matches_the_dense_loop(ring):
    rng = random.Random(f"divmod kernel {ring!r}")
    for b in _divisors(ring, rng):
        for length in (0, 1, len(b) - 1, len(b), len(b) + 3, 2 * len(b) + 5):
            a = [ring.random(rng).raw for _ in range(length)]
            assert (rings._raw_divmod(a, b, ring)
                    == _dense_divmod(a, b, ring)), (a, b)


@pytest.mark.parametrize("field", [F9, GaloisField(3, 10)], ids=repr)
def test_raw_divmod_on_unreduced_payloads_matches_up_to_reduction(field):
    # coordinates raised by multiples of p: the loops may leave different
    # representatives, never different elements
    rng = random.Random(f"divmod unreduced {field!r}")
    p, zero = field.p, field._zero_raw()

    def unreduce(a):
        return tuple(c + p * rng.randrange(0, 3) for c in a)

    def reduced(coeffs):
        return rings._raw_trim([field._add_kernel(c, zero) for c in coeffs], zero)

    for b in _divisors(field, rng):
        b = [unreduce(c) for c in b[:-1]] + b[-1:]
        a = [unreduce(field.random(rng).raw) for _ in range(2 * len(b) + 3)]
        got, want = ([reduced(part) for part in divmod_(a, b, field)]
                     for divmod_ in (rings._raw_divmod, _dense_divmod))
        assert got == want, (a, b)

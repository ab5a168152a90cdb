import copy
import math
import pickle
import random
import time

import pytest
from hypothesis import given, strategies as st

from ccsym import rings
from ccsym.errors import AlgebraError, DivisionByNonUnit, DescriptorMismatch
from ccsym.laurent import LaurentRing
from ccsym.parser import parse_ring
from ccsym.poly import Poly, is_irreducible
from ccsym.rings import (ArtinianLocal, GaloisField, PrimeField, RingValue,
                         embed, format_value, relative_norm)

F2, F3, F5, F7 = PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7)
F4, F8, F9 = GaloisField(2, 2), GaloisField(2, 3), GaloisField(3, 2)


def test_descriptors_are_interned(monkeypatch):
    A = ArtinianLocal(F5, 2)
    assert PrimeField(5) is F5 and GaloisField(3, 2) is F9
    assert ArtinianLocal(PrimeField(5), 2) is A
    assert LaurentRing(A) is LaurentRing(A, "t") is LaurentRing(A, var="t")
    assert rings._finite_field(3, 2) is F9 and rings._finite_field(5, 1) is F5
    assert parse_ring("F9") is F9 and parse_ring("F5[e]/e^2") is A
    # different keys, different objects
    distinct = [F5, F7, F9, GaloisField(5, 2), A, ArtinianLocal(F5, 3),
                ArtinianLocal(GaloisField(5, 2), 2), LaurentRing(A),
                LaurentRing(A, "u"), LaurentRing(F5)]
    assert len(set(map(id, distinct))) == len(distinct)
    assert F5.one() != A.one() and F5.one() == PrimeField(5).one()
    # copies and pickles come back as the registered instance
    for x in (F9.generator(), A.eps() + 1, LaurentRing(A).gen(-1)):
        assert copy.deepcopy(x) == x == pickle.loads(pickle.dumps(x))
        assert copy.copy(x.ring) is x.ring
    # the minpoly search and a refused construction register nothing
    monkeypatch.delitem(rings._RINGS, (GaloisField, (11, 3)), raising=False)
    rings._minpoly(11, 3)
    with pytest.raises(AlgebraError):
        PrimeField(4)
    assert (GaloisField, (11, 3)) not in rings._RINGS
    assert (PrimeField, (4,)) not in rings._RINGS


def test_the_nilpotency_order_is_limited_before_any_payload_is_built():
    # the refusal names the limit and m, and the refused ring is not
    # registered; the limit itself is a ring
    F5 = PrimeField(5)
    assert ArtinianLocal(F5, rings._NILPOTENCY_LIMIT).m == 1024
    for m in (1025, 16384, 10 ** 20):
        with pytest.raises(AlgebraError) as info:
            ArtinianLocal(F5, m)
        assert str(info.value) == f"nilpotency order m must be at most 1024, not {m}"
        assert (ArtinianLocal, (F5, m)) not in rings._RINGS


class TestPinnedMinimalPolynomials:
    """The defining polynomial of F_{p^d} is pinned: the first monic
    irreducible AND primitive polynomial in the integer-encoding order."""

    def test_f4(self):
        assert F4.minpoly == (1, 1)      # x^2 + x + 1

    def test_f8(self):
        assert F8.minpoly == (1, 1, 0)   # x^3 + x + 1

    def test_f9(self):
        assert F9.minpoly == (2, 1)      # x^2 + x + 2

    def test_generator_is_primitive(self):
        for F in (F4, F8, F9, GaloisField(5, 2)):
            g = F.generator()
            order = F.size - 1
            seen = set()
            x = F.one()
            for _ in range(order):
                x = x * g
                seen.add(x.raw)
            assert len(seen) == order


class TestFieldArithmetic:
    @pytest.mark.parametrize("F", [F2, F3, F5, F7, F4, F8, F9])
    def test_every_nonzero_invertible(self, F):
        for x in F.units():
            assert (x * x.inv()).is_one()

    @pytest.mark.parametrize("F", [F3, F9])
    def test_char_additivity(self, F):
        for x in F.elements():
            acc = F.zero()
            for _ in range(F.char):
                acc = acc + x
            assert acc.is_zero()

    def test_division_by_zero(self):
        with pytest.raises(DivisionByNonUnit):
            F5.zero().inv()

    def test_pow_negative(self):
        x = F7.from_int(3)
        assert x ** -1 == x.inv()
        assert (x ** -2) * (x ** 2) == F7.one()

    def test_cross_ring_mixing_rejected(self):
        with pytest.raises(DescriptorMismatch):
            F5.from_int(1) + F7.from_int(1)


class TestArtinianLocal:
    def test_unit_xor_nilpotent(self):
        A = ArtinianLocal(F3, 2)
        for x in A.elements():
            assert x.is_unit() != x.is_nilpotent()

    def test_eps_nilpotency_index(self):
        A = ArtinianLocal(F5, 3)
        e = A.eps()
        assert e.nilpotency_index() == 3
        assert (e * e).nilpotency_index() == 2
        assert A.zero().nilpotency_index() == 1
        assert A.one().nilpotency_index() == math.inf

    def test_inverse_of_one_plus_nilpotent(self):
        A = ArtinianLocal(F3, 2)
        x = A.one() + A.eps() * A.from_int(2)
        assert (x * x.inv()).is_one()

    def test_all_units_invertible(self):
        for A in (ArtinianLocal(F3, 2), ArtinianLocal(F2, 3), ArtinianLocal(F4, 2)):
            for x in A.units():
                assert (x * x.inv()).is_one()

    def test_nested_artinian_over_galois(self):
        A = ArtinianLocal(F9, 2)
        g = embed(F9.generator(), A)
        e = A.eps()
        x = g + e
        assert x.is_unit()
        assert (x * x.inv()).is_one()


class TestEmbeddingsAndNorms:
    def test_prime_into_extension(self):
        x = F3.from_int(2)
        y = embed(x, F9)
        assert y == F9.from_int(2)

    def test_subfield_embedding_respects_ops(self):
        F9b = GaloisField(3, 2)
        F81 = GaloisField(3, 4)
        xs = list(F9b.elements())
        rng = random.Random(1)
        for _ in range(25):
            a, b = rng.choice(xs), rng.choice(xs)
            assert embed(a * b, F81) == embed(a, F81) * embed(b, F81)
            assert embed(a + b, F81) == embed(a, F81) + embed(b, F81)

    def test_field_norm_matches_frobenius_product(self):
        # the oracle multiplies the Galois conjugates inside the big field;
        # the norm answers in the subfield, so embed before comparing
        for F, e in [(F9, 1), (GaloisField(2, 4), 2), (GaloisField(3, 4), 2)]:
            for x in F.units():
                assert embed(relative_norm(x, e), F) == _field_conjugate_product(x, e)

    def test_norm_multiplicative(self):
        F81 = GaloisField(3, 4)
        xs = list(F81.units())
        rng = random.Random(2)
        for _ in range(25):
            a, b = rng.choice(xs), rng.choice(xs)
            assert relative_norm(a * b, 2) == relative_norm(a, 2) * relative_norm(b, 2)

    def test_norm_of_subfield_element_is_power(self):
        # N_{F9/F3}(c) = c^(1+3) = c^2 * c^2 for c in F3
        for c in F3.units():
            lifted = embed(c, F9)
            assert relative_norm(lifted, 1) == c * c

    def test_artinian_norm_restricts_to_field_norm(self):
        A9 = ArtinianLocal(F9, 2)
        for x in F9.units():
            lifted = embed(x, A9)
            n_art = relative_norm(lifted, 1)
            n_fld = relative_norm(x, 1)
            assert n_art == embed(n_fld, ArtinianLocal(F3, 2))

    def test_artinian_norm_multiplicative(self):
        A9 = ArtinianLocal(F9, 2)
        rng = random.Random(3)
        for _ in range(20):
            a, b = A9.random_unit(rng), A9.random_unit(rng)
            assert relative_norm(a * b, 1) == relative_norm(a, 1) * relative_norm(b, 1)

    def test_artinian_norm_conjugates_each_coefficient(self):
        # N(g + g e) = (g + g e)(g^3 + g^3 e) = g^4 (1 + e)^2 = 2 + e over F3,
        # since g^4 = -1; raising the whole value to the third power instead
        # would give g^4 (1 + e)^4 = 2 + 2e
        A9 = ArtinianLocal(F9, 2)
        g = embed(F9.generator(), A9)
        assert format_value(relative_norm(g + g * A9.eps(), 1)) == "2 + e"


def test_embed_refuses_a_field_of_another_characteristic():
    # F4 -> F9: the degrees divide, but no field embeds across characteristics
    with pytest.raises(DescriptorMismatch):
        embed(F4.generator(), F9)


def _old_field_embed(x, dst):
    """Oracle: the former field embedding on RingValues, with the pinned
    image of the generator found by scanning (`_scan_subfield_generator`)."""
    src = x.ring
    if src is dst:
        return x
    if isinstance(src, PrimeField):
        return dst.from_int(x.raw)
    ghat = RingValue(dst, _scan_subfield_generator(src, dst))
    acc, power = dst.zero(), dst.one()
    for c in x.raw:
        acc = acc + power * c
        power = power * ghat
    return acc


def _old_embed(x, dst):
    """Oracle: the former `embed`, coordinate by coordinate into an
    artinian ring."""
    if not isinstance(dst, ArtinianLocal):
        return _old_field_embed(x, dst)
    if isinstance(x.ring, ArtinianLocal):
        return RingValue(dst, tuple(
            _old_field_embed(RingValue(x.ring.base, c), dst.base).raw
            for c in x.raw))
    return RingValue(dst, (_old_field_embed(x, dst.base).raw,)
                     + dst.zero().raw[1:])


F16, F81 = GaloisField(2, 4), GaloisField(3, 4)
# the pairs this module embeds, and two artinian-to-artinian pairs
EMBED_PAIRS = [(F3, F9), (F3, F3), (F9, F81), (F3, F81), (F2, F16), (F4, F16),
               (F8, GaloisField(2, 6)), (F5, GaloisField(5, 2)),
               (F3, ArtinianLocal(F3, 2)), (F9, ArtinianLocal(F9, 2)),
               (ArtinianLocal(F3, 2), ArtinianLocal(F9, 2)),
               (ArtinianLocal(F4, 3), ArtinianLocal(F16, 3))] + [
    (GaloisField(p, D), ArtinianLocal(GaloisField(p, D), m))
    for p, D in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (5, 2), (7, 2)]
    for m in (2, 3)]


@pytest.mark.parametrize("src, dst", EMBED_PAIRS, ids=repr)
def test_embed_raw_matches_the_ring_value_embedding(src, dst):
    rng = random.Random(repr((src, dst)))
    for x in [src.zero(), src.one()] + [src.random(rng) for _ in range(12)]:
        want = _old_embed(x, dst)
        assert rings._embed_raw(x.raw, src, dst) == want.raw, x
        assert embed(x, dst) == want


def _field_conjugate_product(x, sub_degree):
    """Oracle: the product of the Galois conjugates x^(q^i), q = p^sub_degree,
    taken inside the big field."""
    F = x.ring
    q = F.char ** sub_degree
    acc, y = F.one(), x
    for _ in range(F.degree // sub_degree):
        acc, y = acc * y, y ** q
    return acc


def _oracle_fp_solve(matrix, rhs, p):
    """Gauss-Jordan solve of matrix @ x = rhs over F_p, on integers."""
    rows = [list(r) + [v] for r, v in zip(matrix, rhs)]
    n, m = len(rows), len(rows[0]) - 1
    piv_cols = []
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, n) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(v * inv) % p for v in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        piv_cols.append(c)
        r += 1
        if r == n:
            break
    assert all(rows[i][m] % p == 0 for i in range(r, n)), "inconsistent"
    x = [0] * m
    for i, c in enumerate(piv_cols):
        x[c] = rows[i][m]
    return x


def _oracle_cofactor_det(a, ring):
    """Determinant of a raw-payload matrix by cofactor expansion along the
    first row."""
    if not a:
        return ring._one_raw()
    total = ring._zero_raw()
    for j, x in enumerate(a[0]):
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        term = ring._mul(x, _oracle_cofactor_det(minor, ring))
        total = ring._add(total, term if j % 2 == 0 else ring._neg(term))
    return total


def _determinant_norm(x, sub_degree):
    """Oracle: the norm as a determinant, by cofactor expansion, of
    multiplication by x on F_{p^D}[e]/(e^m) as a free module over
    F_{p^s}[e]/(e^m), s = sub_degree, in the basis 1, g, ..., g^(r-1),
    r = D/s, reading coordinates off an F_p-linear solve."""
    ring = x.ring
    big = ring.base
    if sub_degree == big.degree:
        return x
    sub = rings._finite_field(big.char, sub_degree)
    target = ArtinianLocal(sub, ring.m)
    r = big.degree // sub_degree
    basis = [big.generator() ** i for i in range(r)]
    if sub_degree == 1:
        sub_basis = [big.one()]
    else:
        ghat = RingValue(big, rings._pinned_subfield_generator(sub, big))
        sub_basis = [ghat ** j for j in range(sub_degree)]
    cols = [list((s * b).raw) for b in basis for s in sub_basis]
    matrix = [list(row) for row in zip(*cols)]

    def decompose(raw):
        sol = _oracle_fp_solve(matrix, list(raw), big.p)
        chunks = [sol[i * sub_degree:(i + 1) * sub_degree] for i in range(r)]
        return [c[0] if sub_degree == 1 else tuple(c) for c in chunks]

    zero = sub._zero_raw()
    rows = [[[zero] * ring.m for _ in range(r)] for _ in range(r)]
    for j, b in enumerate(basis):
        for k, piece in enumerate((x * embed(b, ring)).raw):
            for slot, coord in enumerate(decompose(piece)):
                rows[slot][j][k] = coord
    return RingValue(target, _oracle_cofactor_det(
        [[tuple(c) for c in row] for row in rows], target))


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("p, D", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3),
                                  (3, 4), (5, 2), (7, 2)])
def test_artinian_norm_matches_determinant_oracle(p, D, m):
    big = GaloisField(p, D)
    A = ArtinianLocal(big, m)
    rng = random.Random(100 * p ** D + m)
    nonunit = A.eps() * embed(big.generator(), A)
    samples = [A.zero(), A.one(), nonunit] + [A.random(rng) for _ in range(12)]
    for s in range(1, D + 1):
        if D % s:
            continue
        for x in samples:
            got, want = relative_norm(x, s), _determinant_norm(x, s)
            assert (got.ring, got.raw) == (want.ring, want.raw), (x, s)


@pytest.mark.parametrize("p, d, s", [(2, 4, 1), (2, 4, 2), (2, 6, 3),
                                     (3, 4, 2), (5, 2, 1)])
def test_subfield_coords_inverts_the_embedding(p, d, s):
    big, sub = GaloisField(p, d), rings._finite_field(p, s)
    for x in sub.elements():
        assert rings._subfield_coords(embed(x, big).raw, big, sub) == x.raw
    # a value outside the subfield fails the check on the other rows
    with pytest.raises(AlgebraError, match="inconsistent linear system"):
        rings._subfield_coords(big.generator().raw, big, sub)


def _scan_subfield_generator(sub, big):
    """Oracle: the former embedding pin, which evaluated sub.minpoly at every
    element of big and kept the root with the smallest payload tuple."""
    coeffs = [big._from_int_raw(c) for c in reversed(sub.minpoly)]
    best = None
    for x in big.elements():
        acc = big._one_raw()
        for c in coeffs:
            acc = big._add(big._mul(acc, x.raw), c)
        if acc == big._zero_raw() and (best is None or x.raw < best):
            best = x.raw
    return best


@pytest.mark.parametrize("p, top", [(2, 8), (3, 8), (5, 4)])
def test_pinned_subfield_generator_matches_scan(p, top):
    rings._pinned_subfield_generator.cache_clear()
    rings._subfield_basis.cache_clear()
    for d in range(2, top + 1):
        big = GaloisField(p, d)
        for e in range(2, d + 1):
            if d % e == 0:
                sub = GaloisField(p, e)
                pinned = rings._pinned_subfield_generator(sub, big)
                assert pinned == _scan_subfield_generator(sub, big), (sub, big)


def _trial_division_is_prime(n):
    return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    for n in range(-3, 20000):
        assert rings._is_prime(n) == _trial_division_is_prime(n), n


def test_is_prime_rejects_strong_pseudoprimes():
    # the least strong pseudoprimes to the first 4, 9 and 12 prime bases
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not rings._is_prime(n)
    assert rings._is_prime(2 ** 61 - 1)
    assert rings._is_prime(2 ** 31 - 1)


def test_is_prime_refuses_unproven_range():
    assert not rings._is_prime(rings._MR_BOUND + 1)  # even: a proof of compositeness
    with pytest.raises(AlgebraError):
        rings._is_prime(2 ** 89 - 1)  # a Mersenne prime above the bound
    with pytest.raises(AlgebraError):
        PrimeField(2 ** 89 - 1)


def _trial_division_factor(n):
    out = {}
    k = 2
    while k * k <= n:
        while n % k == 0:
            out[k] = out.get(k, 0) + 1
            n //= k
        k += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factor_matches_trial_division():
    for n in range(1, 20000):
        assert rings._factor(n) == _trial_division_factor(n), n


def _next_prime(n):
    while not rings._is_prime(n):
        n += 1
    return n


def test_factor_splits_a_semiprime_quickly():
    # two 38-bit primes; rho's cost grows like the square root of the
    # smaller one, and 40-bit pairs take 0.4-1.1 s on a 2-core host
    rng = random.Random(0)
    p, q = (_next_prime(rng.getrandbits(38) | 1 << 37) for _ in range(2))
    start = time.perf_counter()
    assert rings._factor(p * q) == {p: 1, q: 1}
    assert time.perf_counter() - start < 1.0


def test_factor_refuses_past_the_rho_budget(monkeypatch):
    monkeypatch.setattr(rings, "_RHO_BUDGET", 1000)
    p, q = _next_prime(10 ** 12), _next_prime(2 * 10 ** 12)
    with pytest.raises(AlgebraError):
        rings._factor(p * q)


def _scan_minpoly(p, d):
    """Oracle: the pin scanned from encoding 0, binomials included, with
    irreducibility tested by factoring."""
    field = PrimeField(p)
    order = p ** d - 1
    primes = list(_trial_division_factor(order))
    for enc in range(p ** d):
        coeffs = tuple((enc // p ** i) % p for i in range(d))
        if not is_irreducible(Poly(field, list(coeffs) + [1])):
            continue
        modulus = list(coeffs) + [1]
        if all(rings._raw_powmod([0, 1], order // q, modulus, field) != [1]
               for q in primes):
            return coeffs
    return None


def test_minpoly_matches_unskipped_scan():
    for p in range(2, 82):
        if not rings._is_prime(p):
            continue
        d = 2
        while p ** d <= 3 ** 8:
            assert rings._minpoly(p, d) == _scan_minpoly(p, d), (p, d)
            d += 1


# -- the Kronecker-packed GaloisField multiply --------------------------------

def _schoolbook_mul(field, a, b):
    """Oracle: the former GaloisField._mul, coordinate products summed one by
    one, then reduced by the whole minimal polynomial from the top down."""
    p, d, mp = field.p, field.d, field.minpoly
    res = [0] * (2 * d - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    for i in range(2 * d - 2, d - 1, -1):
        c = res[i]
        if c:
            res[i] = 0
            for j in range(d):
                res[i - d + j] = (res[i - d + j] - c * mp[j]) % p
    return tuple(res[:d])


_SMALL_GALOIS = [GaloisField(p, d) for p in (2, 3, 5, 7) for d in range(2, 7)
                 if p ** d <= 81]


@pytest.mark.parametrize("field", _SMALL_GALOIS, ids=repr)
def test_mul_matches_schoolbook_on_every_pair(field):
    elems = [x.raw for x in field.elements()]
    for a in elems:
        for b in elems:
            assert field._mul(a, b) == _schoolbook_mul(field, a, b), (a, b)


# F_{(2^31-1)^2} has slots of 63 bits, wider than one machine word
@pytest.mark.parametrize("p, d", [(3, 8), (3, 16), (3, 24), (2, 16), (2, 20),
                                  (7, 6), (2 ** 31 - 1, 2)])
def test_mul_matches_schoolbook_on_seeded_pairs(p, d):
    field = GaloisField(p, d)
    rng = random.Random(p * 100 + d)
    for _ in range(500):
        a, b = field.random(rng).raw, field.random(rng).raw
        assert field._mul(a, b) == _schoolbook_mul(field, a, b), (a, b)


# -- log and Zech tables of small Galois fields --------------------------------

def _kernel_pow(field, a, e):
    return rings._power(a, e, field._one_raw(), field._mul_kernel)


@pytest.mark.parametrize("field", _SMALL_GALOIS + [GaloisField(3, 8),
                                                   GaloisField(2, 13)], ids=repr)
def test_log_tables_are_powers_of_the_generator(field):
    t, one, g = field._logs, field._one_raw(), field.generator().raw
    n = field.size - 1
    assert t.n == n == len(t.exp) == len(t.log) == len(t.zech)
    x = one
    for i in range(n):
        assert t.exp[i] == x and t.log[x] == i, i
        one_plus = field._add_kernel(one, x)
        assert t.zech[i] == (t.log[one_plus] if any(one_plus) else None), i
        x = field._mul_kernel(x, g)
    assert x == one
    # 1 + g^k = 0 exactly where g^k = -1: k = 0 in characteristic 2, else n/2
    holes = [k for k, z in enumerate(t.zech) if z is None]
    assert holes == [0 if field.p == 2 else n // 2]


@pytest.mark.parametrize("field", _SMALL_GALOIS, ids=repr)
def test_tabled_field_ops_match_the_kernels_on_every_pair(field):
    assert field._logs is not None
    elems = [x.raw for x in field.elements()]
    for a in elems:
        for b in elems:
            assert field._mul(a, b) == field._mul_kernel(a, b), (a, b)
            assert field._add(a, b) == field._add_kernel(a, b), (a, b)
        for e in (0, 1, 2, field.p, field.size - 2, field.size, 3 * field.size + 1):
            assert field._pow(a, e) == _kernel_pow(field, a, e), (a, e)
        if any(a):
            inv = field._inv(a)
            assert inv == _kernel_pow(field, a, field.size - 2), a
            assert field._mul_kernel(a, inv) == field._one_raw(), a
    with pytest.raises(DivisionByNonUnit):
        field._inv(field._zero_raw())


# F_{2^13} sits at the bound; F_{2^14} and F_{3^10} are above it
@pytest.mark.parametrize("p, d, tabled", [(3, 8, True), (2, 13, True),
                                          (2, 14, False), (3, 10, False)])
def test_tabled_field_ops_match_the_kernels_on_seeded_pairs(p, d, tabled):
    field = GaloisField(p, d)
    assert (field._logs is not None) == tabled
    rng = random.Random(p * 1000 + d)
    zero = field._zero_raw()
    for k in range(300):
        a, b = field.random(rng).raw, field.random(rng).raw
        if k % 50 == 0:
            a = zero
        assert field._mul(a, b) == field._mul_kernel(a, b), (a, b)
        assert field._add(a, b) == field._add_kernel(a, b), (a, b)
        e = rng.randrange(3 * field.size)
        assert field._pow(a, e) == _kernel_pow(field, a, e), (a, e)
        if any(a):
            assert field._mul_kernel(a, field._inv(a)) == field._one_raw(), a
    # a + (-a) = 0 and a + a = 2a meet the Zech hole and its neighbour
    a = field.random_unit(rng).raw
    assert field._add(a, field._neg(a)) == zero
    assert field._add(a, a) == field._add_kernel(a, a)


def test_zero_and_unreduced_payloads_bypass_the_tables():
    zero, one, g = F9._zero_raw(), F9._one_raw(), F9.generator().raw
    odd = (4, 1)                            # 4 is not a reduced F3 payload
    assert odd not in F9._logs.log and zero not in F9._logs.log
    assert F9._mul(zero, g) == F9._mul(g, zero) == F9._mul(zero, zero) == zero
    assert F9._add(zero, g) == F9._add(g, zero) == g
    assert F9._add(zero, zero) == zero
    assert F9._pow(zero, 0) == one and F9._pow(zero, 5) == zero
    for x in (zero, one, g):
        assert F9._mul(odd, x) == F9._mul(x, odd) == F9._mul_kernel(odd, x)
        assert F9._add(odd, x) == F9._add(x, odd) == F9._add_kernel(odd, x)
    assert F9._add(odd, zero) == (1, 1)
    for e in range(10):
        assert F9._pow(odd, e) == _kernel_pow(F9, odd, e), e
    assert F9._inv(odd) == _kernel_pow(F9, odd, 7)


@pytest.mark.parametrize("field", [GaloisField(3, 2), GaloisField(3, 10)],
                         ids=repr)
def test_unreduced_payloads_multiply_as_their_reductions(field):
    # F9 has log tables, F_{3^10} has none: both reach the Kronecker kernel
    # with unreduced payloads, whose coordinates must not overflow a slot
    rng = random.Random(f"unreduced {field!r}")
    p = field.p

    def unreduce(a):
        return tuple(c + p * rng.randrange(1, 4) for c in a)

    if field.d == 2:
        assert field._mul_kernel((4, 1), (4, 1)) == (2, 1)
    for _ in range(200):
        a, b = field.random(rng).raw, field.random(rng).raw
        ua, ub = unreduce(a), unreduce(b)
        want = field._mul_kernel(a, b)
        assert field._mul_kernel(ua, ub) == want
        assert field._mul(ua, ub) == field._mul(ua, b) == field._mul(a, b) == want
        if any(a):
            assert field._inv(ua) == field._inv(a)
        else:
            with pytest.raises(DivisionByNonUnit):
                field._inv(ua)
    with pytest.raises(DivisionByNonUnit):
        field._inv(unreduce(field._zero_raw()))


@pytest.mark.parametrize("field", [GaloisField(3, 2), GaloisField(2, 3),
                                   GaloisField(5, 2), GaloisField(3, 10)],
                         ids=repr)
def test_unit_predicates_agree_with_inv_on_unreduced_payloads(field):
    # every payload with coordinates in [-p, 2p): a unit exactly when `_inv`
    # accepts it, nilpotent exactly when it does not
    p, d = field.p, field.d
    if field.size == 9:
        assert not field._is_unit((3, 0)) and field._is_nilpotent((3, 0))
        assert not RingValue(field, (3, 0)).is_unit()
        assert RingValue(field, (4, 0)).is_unit()
    rng = random.Random(f"unit predicates {field!r}")
    for _ in range(300):
        a = tuple(rng.randrange(-p, 2 * p) for _ in range(d))
        if rng.random() < 0.3:
            a = tuple(p * rng.randrange(-1, 2) for _ in range(d))
        try:
            field._inv(a)
            invertible = True
        except DivisionByNonUnit:
            invertible = False
        assert field._is_unit(a) == invertible, a
        assert field._is_nilpotent(a) == (not invertible), a
        reduced = tuple(c % p for c in a)
        assert field._is_unit(reduced) == any(reduced), a


# -- log-tabled fields on element codes ----------------------------------------
# The log tables answer the kernels on codes (code i < q - 1 is g^i, code
# q - 1 is zero); each code op, read back through `_decode`, must be the
# payload op

def _check_codes_against_payloads(field, pairs):
    t = field._tables
    for a, b in pairs:
        i, j = t._code(a), t._code(b)
        assert (t._decode(i), t._decode(j)) == (a, b)
        assert t._decode(t._mul(i, j)) == field._mul(a, b), (a, b)
        assert t._decode(t._add(i, j)) == field._add(a, b), (a, b)
        assert t._decode(t._neg(i)) == field._neg(a), a
        assert t._is_unit(i) == field._is_unit(a), a
        for e in (0, 1, 2, field.p, field.size - 2, field.size, 3 * field.size + 1):
            assert t._decode(t._pow(i, e)) == field._pow(a, e), (a, e)
        if any(a):
            assert t._decode(t._inv(i)) == field._inv(a), a
        else:
            with pytest.raises(DivisionByNonUnit, match=f"^0 is not invertible in {field}$"):
                t._inv(i)


@pytest.mark.parametrize("field", [F4, F8, F9, GaloisField(3, 3),
                                   GaloisField(3, 4)], ids=repr)
def test_code_ops_match_the_payload_ops_on_every_pair(field):
    t = field._tables
    elems = [x.raw for x in field.elements()]
    assert sorted(map(t._code, elems)) == list(range(field.size))
    _check_codes_against_payloads(field, [(a, b) for a in elems for b in elems])
    assert t._decode(t._zero_raw()) == field._zero_raw()
    assert t._decode(t._one_raw()) == field._one_raw()
    for k in range(-field.p, 2 * field.p + 1):
        assert t._decode(t._from_int_raw(k)) == field._from_int_raw(k), k


# F_{3^8} is the residue field of the bench's places; F_{2^13} is the bound,
# where -1 = 1 and 1 + 1 = 0 is the Zech hole at k = 0
@pytest.mark.parametrize("p, d", [(3, 8), (2, 13)])
def test_code_ops_match_the_payload_ops_on_seeded_pairs(p, d):
    field = GaloisField(p, d)
    t, zero, one = field._tables, field._zero_raw(), field._one_raw()
    assert field.size <= rings._LOG_BOUND and t is field._logs
    rng = random.Random(f"codes {p}^{d}")
    pairs = [(field.random(rng).raw, field.random(rng).raw) for _ in range(300)]
    units = [field.random_unit(rng).raw for _ in range(20)]
    pairs += [(a, field._neg(a)) for a in units] + [(a, a) for a in units]
    pairs += [(zero, zero), (zero, one), (one, zero), (one, one)]
    _check_codes_against_payloads(field, pairs)
    i = t._code(one)
    assert t._add(i, t._neg(i)) == t._zero_raw()
    assert (t._add(i, i) == t._zero_raw()) == (p == 2)
    # codes draw from an rng as payloads do
    r1, r2 = random.Random(7), random.Random(7)
    assert [t._decode(t._random_raw(r1)) for _ in range(50)] == [
        field._random_raw(r2) for _ in range(50)]


def test_zero_and_unreduced_payloads_keep_the_payload_route():
    t, zero, g = F9._tables, F9._zero_raw(), F9.generator().raw
    # zero has a code of its own; an unreduced payload (or unreduced zero)
    # has none, so its list stays on payloads
    assert rings._coded(F9, [zero, g, zero]) == (t, [[8, 1, 8]])
    for odd in ((4, 1), (3, 0)):
        assert t._code(odd) is None
        lists = ([g], [zero, odd])
        assert rings._coded(F9, *lists) == (F9, lists)
    above = GaloisField(3, 10)
    assert above._tables is None
    assert rings._coded(above, [above._one_raw()]) == (above, ([above._one_raw()],))


def _fresh_fields_counting_log_tables(monkeypatch, keys):
    """Drop the registered fields F_{p^d}, (p, d) in `keys`, for the test's
    duration, and return the list of fields whose `_LogTables` get built."""
    for key in keys:
        monkeypatch.delitem(rings._RINGS, (GaloisField, key), raising=False)
    built, real = [], rings._LogTables

    def counted(field):
        built.append(field)
        return real(field)

    monkeypatch.setattr(rings, "_LogTables", counted)
    return built


def test_minpoly_candidates_build_no_log_table(monkeypatch):
    built = _fresh_fields_counting_log_tables(monkeypatch, [(3, 4)])
    for p, d in [(2, 5), (3, 4), (3, 8), (7, 3)]:
        rings._minpoly(p, d)
    assert built == []
    field = GaloisField(3, 4)
    assert built == []                       # nor does construction
    field._mul(field.generator().raw, field._one_raw())
    assert built == [field]


def test_equal_descriptors_share_one_log_table(monkeypatch):
    built = _fresh_fields_counting_log_tables(
        monkeypatch, [(3, 2), (2, 13), (2, 14)])
    assert rings._finite_field(3, 2)._logs is GaloisField(3, 2)._logs
    assert GaloisField(2, 13)._logs is GaloisField(2, 13)._logs
    assert GaloisField(2, 14)._logs is None
    assert built == [GaloisField(3, 2), GaloisField(2, 13)]


@pytest.mark.parametrize("ring", [F9, GaloisField(2, 5), ArtinianLocal(F5, 2),
                                  ArtinianLocal(F9, 3)], ids=repr)
def test_constants_are_built_once_per_descriptor(ring):
    zero, one = ring._zero_raw(), ring._one_raw()
    assert ring._zero_raw() is zero and ring._one_raw() is one
    assert ring.zero() == ring.from_int(0) and ring.one() == ring.from_int(1)


class TestFormatting:
    def test_prime_field(self):
        assert format_value(F5.from_int(3)) == "3"

    def test_galois(self):
        g = F9.generator()
        assert format_value(g) == "g"
        assert format_value(g + F9.one()) == "1 + g"

    def test_artinian(self):
        A = ArtinianLocal(F3, 2)
        x = A.one() + A.eps() * A.from_int(2)
        assert format_value(x) == "1 + 2*e"


@given(st.integers(min_value=-30, max_value=30), st.integers(min_value=-30, max_value=30))
def test_from_int_is_ring_hom(a, b):
    for R in (F7, F9, ArtinianLocal(F3, 2)):
        assert R.from_int(a) + R.from_int(b) == R.from_int(a + b)
        assert R.from_int(a) * R.from_int(b) == R.from_int(a * b)


@given(st.integers(min_value=0, max_value=6))
def test_units_closed_under_product(seed):
    rng = random.Random(seed)
    for R in (F8, ArtinianLocal(F5, 2)):
        u, v = R.random_unit(rng), R.random_unit(rng)
        assert (u * v).is_unit()


# -- bounded scalar tables of small artinian rings -----------------------------

def _small_artinian_rings():
    fields = [F2, F3, F4, F5, F7, F8, F9]
    return [ArtinianLocal(k, m) for k in fields for m in range(2, 7)
            if k.size ** m <= 3 ** 4] + [ArtinianLocal(F5, 3)]


@pytest.mark.parametrize("A", _small_artinian_rings(), ids=repr)
def test_tabled_ops_match_the_kernel_on_every_pair(A):
    A.__dict__.pop("_tables", None)
    elems = [x.raw for x in A.elements()]
    for fill in (True, False):      # the first pass fills, the second reads
        for a in elems:
            for b in elems:
                mul, add = A._mul(a, b), A._add(a, b)
                if not fill:
                    assert mul == A._mul_kernel(a, b), (a, b)
                    assert add == A._add_kernel(a, b), (a, b)
    assert all(None not in results for results in A._tables.results)


def _tabled_artinian_rings():
    fields = [F2, F3, F4, F5, F7, F8, F9, PrimeField(11), PrimeField(13),
              GaloisField(2, 4)]
    return [ArtinianLocal(k, m) for k in fields for m in range(2, 9)
            if k.size ** m <= rings._TABLE_BOUND]


def _neumann_inverse(A, a):
    """Oracle: the former artinian inverse, which inverted the constant term
    c and summed the Neumann series of m - 1 full products against the
    nilpotent tail -c (a - a_0)."""
    base = A.base
    c = base._inv(a[0])
    zero = base._zero_raw()
    minus_tail = tuple(base._neg(base._mul(c, x)) if i else zero
                       for i, x in enumerate(a))
    acc = term = A._one_raw()
    for _ in range(A.m - 1):
        term = A._mul_kernel(term, minus_tail)
        acc = A._add_kernel(acc, term)
    return tuple(base._mul(c, x) for x in acc)


@pytest.mark.parametrize("A", _tabled_artinian_rings(), ids=repr)
def test_tabled_inverse_matches_the_neumann_series_on_every_unit(A):
    A.__dict__.pop("_tables", None)
    elems = [x.raw for x in A.elements()]
    for _ in range(2):              # the first pass fills, the second reads
        for a in elems:
            if A._is_unit(a):
                assert A._inv(a) == A._inv_kernel(a) == _neumann_inverse(A, a), a
            else:
                with pytest.raises(DivisionByNonUnit):
                    A._inv(a)
    assert [x is None for x in A._tables.inverses] == [
        not A._is_unit(a) for a in A._tables.elems]


def _unreduced(A, raw, rng):
    """The same element of A with every prime-field coordinate moved by a
    random multiple of p."""
    p = A.char
    if isinstance(A.base, PrimeField):
        return tuple(c + p * rng.randrange(-2, 3) for c in raw)
    return tuple(tuple(x + p * rng.randrange(-2, 3) for x in c) for c in raw)


@pytest.mark.parametrize("k", [F5, F9], ids=repr)
def test_inverse_kernel_matches_the_neumann_series_up_to_order_64(k):
    rng = random.Random(64 * k.size)
    for m in (2, 3, 4, 5, 7, 8, 13, 16, 21, 32, 33, 64):
        A = ArtinianLocal(k, m)
        units = [A.random_unit(rng).raw for _ in range(3)]
        # a unit with one e-term, and one with none
        units += [A.one().raw, (A.one() + A.eps() ** (m - 1)).raw]
        for a in units:
            want = _neumann_inverse(A, a)
            assert A._inv_kernel(a) == want, (m, a)
            assert A._inv_kernel(_unreduced(A, a, rng)) == want, (m, a)
        with pytest.raises(DivisionByNonUnit):
            A._inv_kernel((A.eps() * A.random(rng)).raw)


def test_inverting_a_dense_unit_at_the_nilpotency_limit_is_fast():
    # about 800 of the 1024 coordinates are nonzero: the Neumann series of
    # 1023 full products took 25 s on a 2-core host, the recurrence is
    # O(m * 800)
    A = ArtinianLocal(F5, rings._NILPOTENCY_LIMIT)
    a = A.random_unit(random.Random(1024)).raw
    start = time.perf_counter()
    inverse = A._inv(a)
    assert time.perf_counter() - start < 2.0
    assert sum(1 for c in a if c) > 700
    assert A._mul_kernel(a, inverse) == A._one_raw()


def test_rings_above_the_table_bound_use_the_kernel():
    A = ArtinianLocal(GaloisField(3, 8), 2)
    assert A._tables is None
    rng = random.Random(38)
    for _ in range(200):
        a, b = A.random(rng).raw, A.random(rng).raw
        assert A._mul(a, b) == A._mul_kernel(a, b)
        assert A._add(a, b) == A._add_kernel(a, b)
        if A._is_unit(a):
            assert A._inv(a) == A._inv_kernel(a)
            assert A._mul(a, A._inv(a)) == A._one_raw()


def test_payloads_outside_the_index_use_the_kernel():
    A = ArtinianLocal(F5, 2)
    odd, e = (7, 0), A.eps().raw             # 7 is not a reduced F5 payload
    assert A._mul(odd, e) == A._mul_kernel(odd, e) == (0, 2)
    assert A._add(odd, e) == A._add_kernel(odd, e) == (2, 1)
    assert A._inv(odd) == A._inv_kernel(odd) == A._inv((2, 0)) == (3, 0)
    assert odd not in A._tables.index


def test_equal_descriptors_share_one_table():
    assert ArtinianLocal(PrimeField(5), 2)._tables is ArtinianLocal(F5, 2)._tables
    assert (ArtinianLocal(GaloisField(3, 2), 2)._tables
            is ArtinianLocal(F9, 2)._tables)
    assert ArtinianLocal(F2, 8)._tables.n == 256
    assert ArtinianLocal(F2, 9)._tables is None


@pytest.mark.parametrize("ring", [F9, ArtinianLocal(F5, 2), ArtinianLocal(F9, 2)],
                         ids=repr)
@pytest.mark.parametrize("sub_degree", [0, -1, -2])
def test_relative_norm_rejects_non_positive_sub_degree(ring, sub_degree):
    with pytest.raises(DescriptorMismatch, match=f"no degree-{sub_degree} subfield"):
        relative_norm(ring.from_int(2), sub_degree)

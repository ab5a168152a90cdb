"""Toeplitz compressions: index, Szego ratios, joint torsion."""

import itertools
import random

import pytest

from ccsym import toeplitz
from ccsym.errors import NotAUnit, PrecisionExhausted, SingularCompression
from ccsym.laurent import LaurentRing, LaurentSeries, unit_decompose
from ccsym.rings import ArtinianLocal, GaloisField, PrimeField
from ccsym.symbols import cc_symbol, tame_symbol
from ccsym.toeplitz import (joint_torsion, mat_det, mat_inv, mat_mul,
                            residue_rank, szego_ratio, toeplitz_index,
                            toeplitz_matrix)

F3 = PrimeField(3)
F5 = PrimeField(5)
F9 = GaloisField(3, 2)
A52 = ArtinianLocal(F5, 2)
A32 = ArtinianLocal(F3, 2)
A53 = ArtinianLocal(F5, 3)
A33 = ArtinianLocal(F3, 3)
A72 = ArtinianLocal(PrimeField(7), 2)


def exact(series):
    return LaurentSeries(series.ring, series.coeffs, None)


def series(ring, table):
    base = ring.base
    return LaurentSeries(ring, {e: base.coerce(v) for e, v in table.items()},
                         None)


def random_unit(ring, rng, low=-2, high=3):
    while True:
        f = exact(ring.random(rng, low=low, high=high))
        if f.is_unit():
            return f


# -- matrix layer -------------------------------------------------------------

def test_toeplitz_matrix_entries():
    R = LaurentRing(F5, "t")
    f = series(R, {-1: 2, 0: 1, 1: 3})
    m = toeplitz_matrix(f, 3)
    # entry (i, j) is the coefficient of t^(i-j)
    assert m[0][0] == F5.from_int(1)
    assert m[1][0] == F5.from_int(3)
    assert m[0][1] == F5.from_int(2)
    assert m[2][0].is_zero()


def test_mat_inv_round_trip(rng):
    n = 4
    for ring in (F5, A52, A53):
        for _ in range(5):
            # unit diagonal guarantees invertibility
            m = [[ring.random(rng) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                m[i][i] = ring.random_unit(rng)
                for j in range(i + 1, n):
                    m[i][j] = m[i][j] * ring.eps() if not ring.is_field else ring.zero()
            inv = mat_inv(m, ring)
            prod = mat_mul(m, inv)
            for i in range(n):
                for j in range(n):
                    expected = ring.one() if i == j else ring.zero()
                    assert prod[i][j] == expected


def test_mat_det_multiplicative(rng):
    n = 3
    for _ in range(10):
        a = [[A52.random(rng) for _ in range(n)] for _ in range(n)]
        b = [[A52.random(rng) for _ in range(n)] for _ in range(n)]
        assert mat_det(mat_mul(a, b), A52) == mat_det(a, A52) * mat_det(b, A52)


def test_mat_det_non_unit_column():
    # first column entirely nilpotent: elimination cannot find a unit pivot,
    # the cofactor fallback must still return the exact (nilpotent) value
    e = A52.eps()
    one = A52.one()
    m = [[e, one], [e, one]]
    assert mat_det(m, A52).is_zero()
    m2 = [[e, one], [A52.zero(), one]]
    assert mat_det(m2, A52) == e


def _leibniz_det(a, ring):
    """Oracle: the sum over permutations."""
    n = len(a)
    total = ring.zero()
    for perm in itertools.permutations(range(n)):
        term = ring.one()
        for i, j in enumerate(perm):
            term = term * a[i][j]
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        total = total - term if inversions % 2 else total + term
    return total


def test_mat_det_matches_permutation_expansion(rng):
    for ring in (F5, F9, A52, A33):
        for n in range(1, 5):
            for _ in range(6):
                a = [[ring.random(rng) for _ in range(n)] for _ in range(n)]
                if not ring.is_field and rng.random() < 0.5:
                    # a nilpotent column forces the cofactor fallback
                    col = rng.randrange(n)
                    for row in a:
                        row[col] = row[col] * ring.eps()
                assert mat_det(a, ring) == _leibniz_det(a, ring), a


def test_mat_inv_singular_raises():
    e = A52.eps()
    m = [[e, A52.zero()], [A52.zero(), A52.one()]]
    with pytest.raises(SingularCompression):
        mat_inv(m, A52)


def test_residue_rank_drops_nilpotents():
    e = A52.eps()
    one = A52.one()
    m = [[one, e], [one, e]]  # residue reduction has two equal rows
    assert residue_rank(m, A52) == 1
    m2 = [[e, e], [e, e]]
    assert residue_rank(m2, A52) == 0


# -- index --------------------------------------------------------------------

def test_index_equals_valuation(rng):
    for ring_base in (F5, A52, A53):
        R = LaurentRing(ring_base, "t")
        for _ in range(15):
            f = random_unit(R, rng)
            assert toeplitz_index(f) == f.valuation()


def test_index_ignores_nilpotent_tail():
    R = LaurentRing(A52, "t")
    f = series(R, {0: 1}) + series(R, {-2: 1}).scale(A52.eps())
    assert toeplitz_index(f) == 0


def test_index_rejects_non_unit():
    R = LaurentRing(A52, "t")
    with pytest.raises(NotAUnit):
        toeplitz_index(series(R, {0: 0}))


# -- Szego ratios --------------------------------------------------------------

def test_szego_ratio_is_decomposition_lead(rng):
    # determinant ratios recover the leading unit of the canonical
    # factorization without running the factorization
    for ring_base in (A52, A32, A53):
        R = LaurentRing(ring_base, "t")
        for _ in range(8):
            f = random_unit(R, rng)
            f0 = f.shift(-f.valuation())
            dec = unit_decompose(f0, positive_cutoff=1)
            assert szego_ratio(f0) == dec.lead


def test_szego_ratio_trivial_tail():
    R = LaurentRing(A52, "t")
    f0 = series(R, {0: 1}) + series(R, {-1: 1}).scale(A52.eps())
    assert szego_ratio(f0) == A52.one()
    g0 = series(R, {0: 3, 1: 2})
    assert szego_ratio(g0) == A52.from_int(3)


# -- joint torsion -------------------------------------------------------------

def test_pole_times_regular_closed_form():
    # (1 - eps/t, 1 - c t) must invert the scalar pairing 1 - c*eps
    for p in (3, 5, 7):
        A = ArtinianLocal(PrimeField(p), 2)
        R = LaurentRing(A, "t")
        eps = A.eps()
        f = series(R, {0: 1}) + series(R, {-1: 1}).scale(-eps)
        for c in range(1, p):
            g = series(R, {0: 1, 1: -c})
            expected = (A.one() - A.from_int(c) * eps).inv()
            assert joint_torsion(f, g) == expected


def test_uniformizer_against_constant():
    R = LaurentRing(A52, "t")
    t = R.gen()
    for c in range(2, 5):
        assert joint_torsion(t, R.from_int(c)) == A52.from_int(c).inv()
        assert joint_torsion(R.from_int(c), t) == A52.from_int(c)


def test_self_pairing_is_sign_of_valuation(rng):
    R = LaurentRing(A52, "t")
    for _ in range(10):
        f = random_unit(R, rng)
        expected = A52.one() if f.valuation() % 2 == 0 else -A52.one()
        assert joint_torsion(f, f) == expected


def test_inverse_pairing(rng):
    R = LaurentRing(A32, "t")
    for _ in range(8):
        f = random_unit(R, rng)
        g = random_unit(R, rng)
        assert joint_torsion(f, g) * joint_torsion(g, f) == A32.one()


def test_matches_cc_symbol(rng):
    for ring_base in (A52, A32, A53, ArtinianLocal(GaloisField(2, 2), 2)):
        R = LaurentRing(ring_base, "t")
        for _ in range(10):
            f = random_unit(R, rng)
            g = random_unit(R, rng)
            assert joint_torsion(f, g) == cc_symbol(f, g)


def test_matches_tame_symbol_over_fields(rng):
    for ring_base in (F5, F9):
        R = LaurentRing(ring_base, "t")
        for _ in range(10):
            f = random_unit(R, rng)
            g = random_unit(R, rng)
            assert joint_torsion(f, g) == tame_symbol(f, g)


def test_explicit_window_matches_auto(rng):
    R = LaurentRing(A52, "t")
    for _ in range(5):
        f = random_unit(R, rng)
        g = random_unit(R, rng)
        auto = joint_torsion(f, g)
        assert joint_torsion(f, g, corner=8, size=20) == auto


def test_bimultiplicative(rng):
    R = LaurentRing(A32, "t")
    for _ in range(5):
        f1 = random_unit(R, rng)
        f2 = random_unit(R, rng)
        g = random_unit(R, rng)
        lhs = joint_torsion(f1 * f2, g)
        assert lhs == joint_torsion(f1, g) * joint_torsion(f2, g)


def test_truncated_symbol_exhausts():
    R = LaurentRing(A52, "t")
    f = series(R, {0: 1, 1: 2}).truncate(3)
    g = series(R, {0: 1}) + series(R, {-1: 1}).scale(A52.eps())
    with pytest.raises(PrecisionExhausted):
        joint_torsion(f, g)


# -- the corner-only kernel against the dense product --------------------------

def _dense_corner_det(f0, g0, corner, size):
    """Oracle: both inverses and all three products in full, then the
    determinant of the corner block."""
    base = f0.ring.base
    tf = toeplitz_matrix(f0, size)
    tg = toeplitz_matrix(g0, size)
    d = mat_mul(mat_mul(mat_mul(tf, tg), mat_inv(tf, base)), mat_inv(tg, base))
    return mat_det([row[:corner] for row in d[:corner]], base)


@pytest.mark.parametrize("base", (F5, F9, A32, A33, A72), ids=str)
def test_corner_det_matches_dense_product(monkeypatch, base):
    rng = random.Random(f"corner {base}")
    windows = []
    corner_det = toeplitz._corner_det

    def checked(f0, g0, corner, size):
        value = corner_det(f0, g0, corner, size)
        assert value == _dense_corner_det(f0, g0, corner, size)
        windows.append((corner, size))
        return value

    monkeypatch.setattr(toeplitz, "_corner_det", checked)
    R = LaurentRing(base, "t")
    for _ in range(6):
        f = random_unit(R, rng)
        g = random_unit(R, rng)
        joint_torsion(f, g)
        joint_torsion(f, g, corner=8, size=20)
        joint_torsion(f, g, corner=3)
    assert len(windows) >= 6 * 4


def test_corner_det_singular_compression():
    # joint_torsion normalises both symbols to index 0, whose compressions
    # are triangular with a unit diagonal modulo the maximal ideal; the
    # compression of an index-1 symbol has no unit pivot in its last column
    R = LaurentRing(A52, "t")
    one = series(R, {0: 1})
    shift = series(R, {1: 1})
    with pytest.raises(SingularCompression,
                       match="column 3 has no unit pivot"):
        toeplitz._corner_det(one, shift, 2, 4)
    with pytest.raises(SingularCompression,
                       match="column 3 has no unit pivot"):
        toeplitz._corner_det(shift, one, 2, 4)

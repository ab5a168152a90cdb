"""Toeplitz compressions: index, Szego ratios, joint torsion."""

import collections
import itertools
import random
import time

import pytest

from ccsym import rings, toeplitz
from ccsym.errors import (AlgebraError, NotAUnit, PrecisionExhausted,
                          SingularCompression, UnsupportedArgument)
from ccsym.laurent import (LaurentRing, LaurentSeries, require_units,
                           unit_decompose)
from ccsym.rings import (ArtinianLocal, GaloisField, PrimeField, RingValue,
                         residue_field, residue_raw)
from ccsym.symbols import cc_symbol, tame_symbol
from ccsym.toeplitz import (joint_torsion, mat_det, mat_inv, mat_mul,
                            szego_ratio, toeplitz_index, toeplitz_matrix)

F3 = PrimeField(3)
F5 = PrimeField(5)
F9 = GaloisField(3, 2)
A52 = ArtinianLocal(F5, 2)
A32 = ArtinianLocal(F3, 2)
A53 = ArtinianLocal(F5, 3)
A33 = ArtinianLocal(F3, 3)
A72 = ArtinianLocal(PrimeField(7), 2)
A92 = ArtinianLocal(F9, 2)


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
    # the valuation pivot must still return the exact (nilpotent) value
    e = A52.eps()
    one = A52.one()
    m = [[e, one], [e, one]]
    assert mat_det(m, A52).is_zero()
    m2 = [[e, one], [A52.zero(), one]]
    assert mat_det(m2, A52) == e


def _det_cofactor(a, ring):
    """Oracle: the determinant of a raw-payload matrix by cofactor expansion
    along the first row, skipping zero entries."""
    n = len(a)
    if n == 0:
        return ring._one_raw()
    if n == 1:
        return a[0][0]
    zero = ring._zero_raw()
    total = zero
    for j, x in enumerate(a[0]):
        if x == zero:
            continue
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        term = ring._mul(x, _det_cofactor(minor, ring))
        total = ring._add(total, term if j % 2 == 0 else ring._neg(term))
    return total


def _seeded_matrix(ring, n, kind, rng):
    """An n x n raw-payload matrix: random, with a unit diagonal over
    nilpotent off-diagonal entries, or with one column scaled by e or e^2,
    one zero column, or every entry scaled by e."""
    e = ring.eps()
    a = [[ring.random(rng) for _ in range(n)] for _ in range(n)]
    col = rng.randrange(n)
    for i, row in enumerate(a):
        if kind == "unit pivots":
            row[:] = [ring.random_unit(rng) if i == j else x * e
                      for j, x in enumerate(row)]
        elif kind in ("e", "e^2", "zero"):
            row[col] = row[col] * {"e": e, "e^2": e * e,
                                   "zero": ring.zero()}[kind]
        elif kind == "all e":
            row[:] = [x * e for x in row]
    return [[x.raw for x in row] for row in a]


DET_KINDS = ("random", "unit pivots", "e", "e^2", "zero", "all e")


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("field", [F3, GaloisField(2, 2), F5, F9], ids=str)
def test_det_raw_matches_cofactor_expansion(field, m):
    ring = ArtinianLocal(field, m)
    rng = random.Random(f"det {field} {m}")
    for n in range(1, 8):
        for kind in DET_KINDS:
            a = _seeded_matrix(ring, n, kind, rng)
            assert rings._det_raw(a, ring) == _det_cofactor(a, ring), (kind, a)


def test_det_with_a_nilpotent_first_column_is_fast():
    ring = A52
    rng = random.Random(40)
    a = _seeded_matrix(ring, 40, "random", rng)
    e = ring.eps().raw
    for row in a:
        row[0] = ring._mul(row[0], e)
    began = time.perf_counter()
    det = mat_det(toeplitz._wrap(a, ring), ring)
    assert time.perf_counter() - began < 0.2
    assert det.is_nilpotent()


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
                    # a nilpotent column forces a valuation pivot
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
    def residue_rank(m):
        return rings._rank([[rings.residue_raw(A52, x.raw) for x in row]
                            for row in m], len(m) - 1, residue_field(A52))

    e = A52.eps()
    one = A52.one()
    m = [[one, e], [one, e]]  # residue reduction has two equal rows
    assert residue_rank(m) == 1
    m2 = [[e, e], [e, e]]
    assert residue_rank(m2) == 0


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


def test_index_refuses_a_window_below_one():
    # both symbols have index 0
    R = LaurentRing(F5, "t")
    A = LaurentRing(A52, "t")
    cases = [(series(R, {0: 3, 1: 1}), -2),
             (series(A, {0: 1, 3: 1}) + series(A, {-2: 1}).scale(A52.eps()), 0)]
    for f, window in cases:
        assert toeplitz_index(f) == 0
        with pytest.raises(UnsupportedArgument,
                           match=f"index needs 1 <= window, not window={window}"):
            toeplitz_index(f, window=window)


def test_index_refuses_a_window_below_shift_plus_index():
    # with K the shift into the regular range and v the index, a window
    # below K + v compresses the residue to rank 0, which caps the answer
    R = LaurentRing(F5, "t")
    A = LaurentRing(A52, "t")
    eps = A52.eps()
    cases = [(series(R, {3: 1, 4: 2}), 3, 3),
             (series(A, {0: 1, 3: 1}) + series(A, {-2: 1}).scale(eps), 0, 2),
             (series(A, {2: 2, 3: 1}) + series(A, {-1: 1}).scale(eps), 2, 3)]
    for f, index, least in cases:
        for window in range(1, least):
            with pytest.raises(UnsupportedArgument, match=f"index needs window "
                               f">= {least}, not window={window}$"):
                toeplitz_index(f, window=window)
        for window in range(least, least + 4):
            assert toeplitz_index(f, window=window) == index


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


def test_szego_ratio_singular_minor():
    # joint_torsion only asks for ratios of index-0 symbols, whose minors are
    # units; a direct call on t divides by det T(t, 1) = 0
    R = LaurentRing(A52, "t")
    with pytest.raises(SingularCompression, match="Szego minor is singular"):
        szego_ratio(R.gen())


def test_deep_pole_grows_the_szego_window_from_start(monkeypatch):
    # a nilpotent pole of depth 32 puts the start of the Szego search at
    # k = 34 and its limit at k = 306; the ratio is stable by k = 35, so
    # the eliminated windows stay near the start instead of the limit
    R = LaurentRing(A52, "t")
    eps = A52.eps()
    f = series(R, {0: 1, 1: 2}) + series(R, {-32: 1}).scale(eps)
    g = series(R, {0: 3, 2: 1}) + series(R, {-1: 1}).scale(eps)
    windows = []
    pivots = toeplitz._pivots

    def recorded(f0, n, m):
        windows.append(n)
        return pivots(f0, n, m)

    monkeypatch.setattr(toeplitz, "_pivots", recorded)
    began = time.perf_counter()
    assert joint_torsion(f, g) == cc_symbol(f, g)
    assert time.perf_counter() - began < 5
    assert windows and max(windows) <= 2 * 35


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


@pytest.mark.parametrize("base", (F5, F9, A32, A33, A72, A92), ids=str)
def test_corner_det_matches_dense_product(monkeypatch, base):
    rng = random.Random(f"corner {base}")
    windows = []
    corner_det = toeplitz._corner_det

    def checked(f0, g0, corner, size):
        got = _outcome(corner_det, f0, g0, corner, size)
        assert got == _outcome(_dense_corner_det, f0, g0, corner, size)
        windows.append((corner, size, got))
        return corner_det(f0, g0, corner, size)

    monkeypatch.setattr(toeplitz, "_corner_det", checked)
    R = LaurentRing(base, "t")
    for _ in range(6):
        f = random_unit(R, rng)
        g = random_unit(R, rng)
        joint_torsion(f, g)
        joint_torsion(f, g, corner=8, size=20)
        joint_torsion(f, g, corner=3)
    assert len(windows) >= 6 * 4
    # regular index-0 pairs, whose compressions commute, exact and truncated,
    # at the default window, at explicit ones, at size == corner and size 1
    del windows[:]
    for trial in range(8):
        f, g = (_regular_symbol(R, rng, trial % 2) for _ in range(2))
        for window in ({}, {"corner": 8, "size": 20}, {"corner": 3},
                       {"corner": 4, "size": 4}, {"corner": 1, "size": 1}):
            _outcome(joint_torsion, f, g, **window)
    kinds = {got[0] if isinstance(got, tuple) else "value"
             for *_, got in windows}
    assert {"value", PrecisionExhausted} <= kinds


def test_regular_pairs_need_no_solve(monkeypatch):
    # index-0 compressions with nothing below t^0 are lower triangular with a
    # unit diagonal; they commute, so D = I in every window
    def refuse(*args):
        raise AssertionError("a commuting pair reached the corner solve")

    for name in ("_solve", "_mul_raw", "_det_raw"):
        monkeypatch.setattr(toeplitz, name, refuse)
    rng = random.Random("regular pairs")
    for base in (F5, F9, A32, A33, A92):
        R = LaurentRing(base, "t")
        for _ in range(4):
            f, g = (_regular_symbol(R, rng, False).shift(rng.randrange(-2, 3))
                    for _ in range(2))
            want = cc_symbol(f, g)
            assert joint_torsion(f, g) == want
            assert joint_torsion(f, g, corner=3, size=7) == want
            assert joint_torsion(f, g, corner=1, size=1) == want


def test_non_unit_diagonal_still_solves(monkeypatch):
    # a symbol whose t^0 coefficient is not a unit has a singular
    # compression; the solve finds that, with the message of the old route
    R = LaurentRing(A52, "t")
    one = series(R, {0: 1})
    t = series(R, {1: 1})
    e_plus_t = series(R, {0: A52.eps(), 1: 1})
    solves = []
    solve = toeplitz._solve

    def counted(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(toeplitz, "_solve", counted)
    for f0, g0 in ((one, t), (t, one), (one, e_plus_t), (e_plus_t, one),
                   (t, e_plus_t)):
        for corner, size in ((2, 4), (3, 3), (1, 1)):
            want = _outcome(_oracle_corner_det, f0, g0, corner, size)
            assert want[0] is SingularCompression
            del solves[:]
            assert _outcome(toeplitz._corner_det, f0, g0, corner, size) == want
            assert solves


def test_joint_torsion_refuses_a_window_outside_one_to_size():
    # the CLI's rule for --window M,N is 1 <= M <= N; a size needs a corner
    R = LaurentRing(A52, "t")
    f = series(R, {0: 1, -1: -A52.eps()})
    g = series(R, {0: 1, 1: -2})
    assert joint_torsion(f, g) == A52.one() + A52.from_int(2) * A52.eps()
    assert joint_torsion(f, g, corner=1, size=6) == joint_torsion(f, g)
    for window in ({"size": 20}, {"corner": 0}, {"corner": -1},
                   {"corner": 2, "size": -3}, {"corner": -1, "size": 5},
                   {"corner": 0, "size": 0}, {"corner": 5, "size": 4}):
        with pytest.raises(UnsupportedArgument, match="joint torsion needs"):
            joint_torsion(f, g, **window)


def test_windows_past_the_limit_are_refused_before_any_band(monkeypatch):
    class Reached(Exception):
        pass

    def band(f, n):
        raise Reached(n)

    monkeypatch.setattr(toeplitz, "_band", band)
    limit = toeplitz._WINDOW_LIMIT
    assert limit >= 512
    R = LaurentRing(A52, "t")
    f = series(R, {0: 1, -1: -A52.eps()})
    g = series(R, {0: 1, 1: -2})
    for call, given in (
            (lambda: joint_torsion(f, g, corner=10 ** 12, size=10 ** 12),
             "joint torsion needs windows of at most 4096, "
             "not corner=1000000000000, size=1000000000000"),
            (lambda: joint_torsion(f, g, corner=4, size=limit + 1),
             "joint torsion needs windows of at most 4096, "
             "not corner=4, size=4097"),
            (lambda: joint_torsion(f, g, corner=limit + 1),
             "joint torsion needs windows of at most 4096, "
             "not corner=4097, size=None"),
            (lambda: toeplitz_index(f, window=10 ** 20),
             "index needs windows of at most 4096, "
             "not window=100000000000000000000"),
            (lambda: toeplitz_matrix(f, limit + 1),
             "toeplitz matrix needs windows of at most 4096, not n=4097")):
        with pytest.raises(UnsupportedArgument) as caught:
            call()
        assert str(caught.value) == given
    # windows at the limit pass the check and reach the band
    with pytest.raises(Reached):
        toeplitz_index(f, window=limit)
    with pytest.raises(Reached):
        toeplitz_matrix(f, limit)
    with pytest.raises(Reached):
        joint_torsion(f, g, corner=limit, size=limit)


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


# -- differential check against the dense Gauss-Jordan route -------------------
#
# The oracles below are the route the banded kernels replaced: compressions
# read coefficient by coefficient, a Gauss-Jordan solve that scans every row
# of every column, a dense determinant with row swaps, and a Szego loop that
# forms det T(f0, k) afresh for every k.

def _oracle_matrix(f, n, shift=0):
    """T(t^shift f, n), read coefficient by coefficient from f."""
    coeffs = [f.coeff(k - shift) for k in range(1 - n, n)]
    return [[coeffs[n - 1 + i - j].raw for j in range(n)] for i in range(n)]


def _gauss_jordan_solve(a, b, ring):
    n = len(a)
    zero = ring._zero_raw()
    add, mul, neg, is_unit = ring._add, ring._mul, ring._neg, ring._is_unit
    rows = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if is_unit(rows[r][col])), None)
        if piv is None:
            raise SingularCompression(
                f"column {col} has no unit pivot; the compression is singular")
        rows[col], rows[piv] = rows[piv], rows[col]
        prow = rows[col]
        s = ring._inv(prow[col])
        prow[col:] = [mul(s, x) for x in prow[col:]]
        for r, row in enumerate(rows):
            f = row[col]
            if r != col and f != zero:
                f = neg(f)
                row[col:] = [add(x, mul(f, y))
                             for x, y in zip(row[col:], prow[col:])]
    return [row[n:] for row in rows]


def _dense_det(a, ring):
    a = [list(row) for row in a]
    n = len(a)
    det = ring._one_raw()
    for col in range(n):
        piv = next((r for r in range(col, n) if ring._is_unit(a[r][col])),
                   None)
        if piv is None:
            return ring._mul(det, _det_cofactor(
                [row[col:] for row in a[col:]], ring))
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = ring._neg(det)
        det = ring._mul(det, a[col][col])
        s = ring._neg(ring._inv(a[col][col]))
        for row in a[col + 1:]:
            f = ring._mul(row[col], s)
            row[col:] = [ring._add(x, ring._mul(f, y))
                         for x, y in zip(row[col:], a[col][col:])]
    return det


def _oracle_index(f, window=None):
    require_units("index needs a unit symbol", f)
    shift = max(0, -(f.low if f.low is not None else 0))
    if window is not None and window < shift + f.valuation():
        raise UnsupportedArgument(f"index needs window >= "
                                  f"{shift + f.valuation()}, not window={window}")
    span = (f.degree() if f.coeffs else 0) + shift
    n = window if window is not None else span + 2
    field = residue_field(f.ring.base)
    m = [[residue_raw(f.ring.base, x) for x in row]
         for row in _oracle_matrix(f, n, shift)]
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, n) if field._is_unit(m[r][col])),
                   None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        s = field._neg(field._inv(m[rank][col]))
        for row in m[rank + 1:]:
            g = field._mul(row[col], s)
            row[col:] = [field._add(x, field._mul(g, y))
                         for x, y in zip(row[col:], m[rank][col:])]
        rank += 1
    return (n - rank) - shift


def _oracle_szego(f0, start=None):
    ring = f0.ring
    base = ring.base
    L = ring.nil_bound
    pole = max(0, -(f0.low if f0.low is not None else 0))
    k = start if start is not None else (L - 1) * pole + 2
    limit = k + 4 * L * (pole + 1) + 8
    prev_det = _dense_det(_oracle_matrix(f0, k - 1), base)
    prev_ratio = None
    while k <= limit:
        cur_det = _dense_det(_oracle_matrix(f0, k), base)
        if not base._is_unit(prev_det):
            raise SingularCompression("Szego minor is singular")
        ratio = base._mul(cur_det, base._inv(prev_det))
        if ratio == prev_ratio:
            return RingValue(base, ratio)
        prev_ratio, prev_det = ratio, cur_det
        k += 1
    raise AssertionError("Szego ratios failed to stabilize")


def _oracle_corner_det(f0, g0, corner, size):
    base = f0.ring.base
    corner = min(corner, size)
    tf = _oracle_matrix(f0, size)
    tg = _oracle_matrix(g0, size)
    identity = [[base._one_raw() if i == j else base._zero_raw()
                 for j in range(corner)] for i in range(size)]
    x = _gauss_jordan_solve(tg, identity, base)
    y = _gauss_jordan_solve(tf, x, base)
    block = toeplitz._mul_raw(toeplitz._mul_raw(tf[:corner], tg, base), y,
                              base)
    return RingValue(base, _dense_det(block, base))


def _outcome(fn, *args, **kwargs):
    """The value, or the type and message of the domain error raised."""
    try:
        return fn(*args, **kwargs)
    except AlgebraError as exc:
        return type(exc), str(exc)


def _differential_symbol(R, rng, pole, truncate):
    """t^shift times (a unit constant, up to 3 positive terms and a tail of
    `pole` random coefficients below t^0, nilpotent over an artinian base),
    optionally truncated somewhere inside or just past its terms."""
    base = R.base
    eps = base.one() if base.is_field else base.eps()
    coeffs = {0: base.random_unit(rng)}
    for e in range(1, rng.randrange(1, 4) + 1):
        coeffs[e] = base.random(rng)
    for e in range(-pole, 0):
        coeffs[e] = base.random(rng) * eps
    shift = rng.randrange(-2, 3)
    coeffs = {e + shift: c for e, c in coeffs.items()}
    prec = None
    if truncate:
        prec = rng.randrange(shift + 1, max(coeffs) + 12)
    return LaurentSeries(R, coeffs, prec)


def _regular_symbol(R, rng, truncate):
    """An index-0 symbol with nothing below t^0: a unit constant and up to 3
    positive terms, optionally truncated somewhere inside or past them."""
    coeffs = {0: R.base.random_unit(rng)}
    for e in range(1, rng.randrange(1, 4) + 1):
        coeffs[e] = R.base.random(rng)
    prec = rng.randrange(1, max(coeffs) + 12) if truncate else None
    return LaurentSeries(R, coeffs, prec)


DIFFERENTIAL_RINGS = (F5, F9, A32, A33, A52, A72, A92)


@pytest.mark.parametrize("base", DIFFERENTIAL_RINGS, ids=str)
def test_banded_kernels_match_dense_oracles(monkeypatch, base):
    rng = random.Random(f"differential {base}")
    R = LaurentRing(base, "t")
    oracles = {"szego_ratio": _oracle_szego, "toeplitz_index": _oracle_index,
               "_corner_det": _oracle_corner_det}
    fast = {name: getattr(toeplitz, name) for name in oracles}
    outcomes = collections.Counter()

    def both(name, *args, **kwargs):
        got = _outcome(fast[name], *args, **kwargs)
        want = _outcome(oracles[name], *args, **kwargs)
        assert got == want, (name, args, kwargs)
        outcomes[got[0] if isinstance(got, tuple) else "value"] += 1

    def torsion_both(*args, **kwargs):
        got = _outcome(joint_torsion, *args, **kwargs)
        with monkeypatch.context() as m:
            for name, oracle in oracles.items():
                m.setattr(toeplitz, name, oracle)
            want = _outcome(joint_torsion, *args, **kwargs)
        assert got == want, (args, kwargs)
        outcomes[got[0] if isinstance(got, tuple) else "value"] += 1

    for trial in range(25):
        pole_f, pole_g = trial % 5, rng.randrange(5)
        truncate = trial % 3 == 2
        f = _differential_symbol(R, rng, pole_f, truncate)
        g = _differential_symbol(R, rng, pole_g, truncate)
        both("toeplitz_index", f)
        both("toeplitz_index", f, window=rng.randrange(1, 10))
        both("szego_ratio", f)
        both("szego_ratio", f, start=rng.randrange(0, 8))
        if f.prec is None:
            f0 = f.shift(-f.valuation())
            both("szego_ratio", f0)
        corner = rng.randrange(1, 7)
        size = corner + rng.randrange(0, 10)
        both("_corner_det", f, g, corner, size)
        torsion_both(f, g)
        torsion_both(f, g, corner=corner, size=size)
        torsion_both(f, g, corner=corner)
    # the corpus reaches values and each kind of error
    assert outcomes["value"] and outcomes[PrecisionExhausted]
    assert outcomes[SingularCompression]
    # regular index-0 pairs, whose compressions commute: exact and truncated,
    # at the default window and at explicit ones, size == corner and size 1
    before = outcomes.copy()
    for trial in range(12):
        f, g = (_regular_symbol(R, rng, trial % 2) for _ in range(2))
        corner = rng.randrange(1, 7)
        for c, n in ((corner, corner + rng.randrange(0, 10)),
                     (corner, corner), (1, 1)):
            both("_corner_det", f, g, c, n)
            torsion_both(f, g, corner=c, size=n)
        torsion_both(f, g)
        torsion_both(f, g, corner=corner)
        torsion_both(f.shift(rng.randrange(-2, 3)), g)
    reached = outcomes - before
    assert reached["value"] and reached[PrecisionExhausted]


# -- the matrix kernel on element codes against the payload kernel -------------
#
# The oracle is the payload kernel the code tables replaced: the same
# elimination, written on payloads with the descriptor's `_add` and `_mul`.

def _payload_mul(a, b, ring):
    zero = ring._zero_raw()
    add, mul = ring._add, ring._mul
    out = []
    for row in a:
        acc = [zero] * len(b[0])
        for x, brow in zip(row, b):
            if x != zero:
                acc = [s if y == zero else add(s, mul(x, y))
                       for s, y in zip(acc, brow)]
        out.append(acc)
    return out


def _payload_pivot_row(a, top, col, end, ring):
    is_unit = ring._is_unit
    for r in range(top, end):
        if is_unit(a[r][col]):
            return r, 0
    if ring.is_field:
        return None, None
    unit = ring.base._is_unit
    best, low = None, ring.m
    for r in range(top, end):
        for k, c in enumerate(a[r][col][:low]):
            if unit(c):
                best, low = r, k
                break
    return best, low


def _payload_eliminate_below(a, top, col, end, ring):
    zero = ring._zero_raw()
    prow = a[top]
    nz = [(j, x) for j, x in enumerate(prow[col + 1:], col + 1) if x != zero]
    if not nz:
        return
    add, mul = ring._add, ring._mul
    s = None
    for row in a[top + 1:end]:
        x = row[col]
        if x != zero:
            if s is None:
                s = ring._neg(ring._inv(prow[col]))
            f = mul(x, s)
            for j, y in nz:
                row[j] = add(row[j], mul(f, y))


def _payload_solve(a, b, lower, ring):
    n = len(a)
    zero = ring._zero_raw()
    add, mul, neg = ring._add, ring._mul, ring._neg
    rows = [ra + rb for ra, rb in zip(a, b)]
    for col in range(n):
        end = min(n, col + lower + 1)
        piv, k = _payload_pivot_row(rows, col, col, end, ring)
        if piv is None or k:
            raise SingularCompression(
                f"column {col} has no unit pivot; the compression is singular")
        rows[col], rows[piv] = rows[piv], rows[col]
        _payload_eliminate_below(rows, col, col, end, ring)
    x = [None] * n
    for r in range(n - 1, -1, -1):
        row = rows[r]
        acc = row[n:]
        for j in range(r + 1, n):
            u = row[j]
            if u != zero:
                u = neg(u)
                acc = [s if y == zero else add(s, mul(u, y))
                       for s, y in zip(acc, x[j])]
        s = ring._inv(row[r])
        x[r] = [y if y == zero else mul(s, y) for y in acc]
    return x


def _payload_det(a, ring):
    n, det = len(a), ring._one_raw()
    a = [list(row) for row in a]
    for col in range(n):
        piv, k = _payload_pivot_row(a, col, col, n, ring)
        if piv is None:
            return ring._zero_raw()
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = ring._neg(det)
        det = ring._mul(det, a[col][col])
        if k:
            for row in a[col:]:
                row[col] = row[col][k:] + ring._zero_raw()[:k]
        _payload_eliminate_below(a, col, col, n, ring)
    return det


def _payload_rank(m, lower, field):
    n_rows, n_cols = len(m), len(m[0]) if m else 0
    rank = 0
    for col in range(n_cols):
        end = min(n_rows, col + lower + 1)
        piv, _ = _payload_pivot_row(m, rank, col, end, field)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        _payload_eliminate_below(m, rank, col, end, field)
        rank += 1
        if rank == n_rows:
            break
    return rank


def _unreduced(ring, raw):
    """The same element with its first base-field coordinate raised by p, a
    payload that no code table indexes."""
    if isinstance(ring, ArtinianLocal):
        return (_unreduced(ring.base, raw[0]),) + raw[1:]
    if isinstance(ring, PrimeField):
        return raw + ring.p
    return (raw[0] + ring.p,) + raw[1:]


def _banded_matrix(ring, n, lower, rng):
    """An n x n payload matrix with nothing more than `lower` places below
    the diagonal.  Over an artinian ring some columns are scaled by e, so
    that their pivots are not units; some have a nilpotent diagonal; one in
    five matrices has a zero column."""
    eps = ring.one() if ring.is_field else ring.eps()
    a = [[ring.random(rng) if i - j <= lower else ring.zero()
          for j in range(n)] for i in range(n)]
    for j in range(n):
        kind = rng.randrange(6)
        if kind == 0:
            for row in a:
                row[j] = row[j] * eps
        elif kind == 1 and not ring.is_field:
            a[j][j] = a[j][j] * eps
    if rng.randrange(5) == 0:
        j = rng.randrange(n)
        for row in a:
            row[j] = ring.zero()
    return [[x.raw for x in row] for row in a]


def _decoded(kernel, a):
    return [[kernel._decode(x) for x in row] for row in a]


# tabled (two small, four at the bound), above the bound, fields
CODE_RINGS = (ArtinianLocal(F3, 2), ArtinianLocal(F5, 3),
              ArtinianLocal(PrimeField(2), 8),
              ArtinianLocal(GaloisField(2, 2), 4),
              ArtinianLocal(GaloisField(2, 4), 2), ArtinianLocal(F3, 5),
              ArtinianLocal(F9, 3), ArtinianLocal(GaloisField(5, 2), 2),
              F5, F9, GaloisField(3, 8))


def test_code_rings_sit_where_the_table_bound_puts_them():
    tabled = [ring for ring in CODE_RINGS if ring._tables is not None]
    assert [str(ring) for ring in tabled] == [
        "F3[e]/e^2", "F5[e]/e^3", "F2[e]/e^8", "F4[e]/e^4", "F16[e]/e^2",
        "F3[e]/e^5"]
    assert all(ring.base.size ** ring.m == rings._TABLE_BOUND
               for ring in tabled[2:5])
    # a code is the payload's base-|k| digits, coordinate 0 lowest
    for ring in tabled:
        tables = ring._tables
        assert [rings._raw_encoding(x, ring) for x in tables.elems] == list(
            range(tables.n))


@pytest.mark.parametrize("ring", CODE_RINGS, ids=str)
def test_kernel_on_codes_matches_the_payload_kernel(ring):
    rng = random.Random(f"codes {ring}")
    field = residue_field(ring)
    outcomes = collections.Counter()
    for trial in range(60):
        n = rng.randrange(1, 9)
        lower = rng.randrange(n)
        a = _banded_matrix(ring, n, lower, rng)
        c = rng.randrange(1, 4)
        b = [[ring.random(rng).raw for _ in range(c)] for _ in range(n)]
        if trial % 4 == 3:
            i, j = rng.randrange(n), rng.randrange(n)
            a[i][j] = _unreduced(ring, a[i][j])
        solved = _outcome(_payload_solve, a, b, lower, ring)
        product = _payload_mul(a, b, ring)
        det = _payload_det(a, ring)
        # the kernel on what `_coded` picks (codes for a tabled ring, unless
        # an entry is outside the index), and on payloads
        kernel, rows = rings._coded(ring, *a, *b)
        outcomes["coded"] += kernel is not ring
        for kernel, ca, cb in ((kernel, rows[:n], rows[n:]), (ring, a, b)):
            got = _outcome(rings._solve, ca, cb, lower, kernel)
            if not isinstance(got, tuple):
                got = _decoded(kernel, got)
            assert got == solved, (a, b, lower)
            assert _decoded(kernel, rings._mul_raw(ca, cb, kernel)) == \
                product, (a, b)
            assert kernel._decode(rings._det_raw(ca, kernel)) == det, a
        # ranks run over fields: the matrix's residues
        residues = [[rings.residue_raw(ring, x) for x in row] for row in a]
        assert rings._rank([row[:] for row in residues], lower, field) == \
            _payload_rank([row[:] for row in residues], lower, field), a
        outcomes[solved[0] if isinstance(solved, tuple) else "value"] += 1
        if det != ring._zero_raw() and not ring._is_unit(det):
            outcomes["non-unit det"] += 1
    assert outcomes["coded"] == (45 if ring._tables is not None else 0)
    assert outcomes["value"] and outcomes[SingularCompression]
    assert outcomes["non-unit det"] or ring.is_field


@pytest.mark.parametrize("ring", CODE_RINGS[:8], ids=str)
def test_szego_ratio_on_codes_matches_the_payload_kernel(monkeypatch, ring):
    rng = random.Random(f"szego codes {ring}")
    R = LaurentRing(ring, "t")
    symbols = []
    for trial in range(12):
        f = _differential_symbol(R, rng, trial % 4, trial % 3 == 2)
        symbols.append(f)
        if trial % 4 == 1:
            # a coefficient outside the table index sends the band to the
            # payload kernel
            e = rng.choice(sorted(f.coeffs))
            x = f.coeffs[e]
            symbols.append(LaurentSeries(
                R, {**f.coeffs, e: RingValue(ring, _unreduced(ring, x.raw))},
                f.prec))
    starts = [None, 0, 3, 6]
    got = [_outcome(szego_ratio, f, start=s) for f in symbols for s in starts]
    with monkeypatch.context() as m:
        m.setattr(toeplitz, "_coded", lambda ring, *lists: (ring, list(lists)))
        m.setattr(toeplitz, "_pivot_row", _payload_pivot_row)
        m.setattr(toeplitz, "_eliminate_below", _payload_eliminate_below)
        want = [_outcome(szego_ratio, f, start=s)
                for f in symbols for s in starts]
    assert got == want
    kinds = {x[0] if isinstance(x, tuple) else "value" for x in got}
    assert "value" in kinds and SingularCompression in kinds


def test_joint_torsion_refuses_symbols_over_two_rings():
    f, g = LaurentRing(PrimeField(5)).gen(), LaurentRing(PrimeField(7)).gen()
    with pytest.raises(AlgebraError,
                       match="^joint torsion needs symbols over one ring$"):
        joint_torsion(f, g)

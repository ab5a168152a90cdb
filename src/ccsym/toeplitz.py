"""Joint torsion of Toeplitz compressions, an operator-theoretic route to the
Contou-Carrere symbol.

For a unit symbol f of A((t)) let T(f, n) be the n x n compression of
multiplication by f onto span(1, t, ..., t^(n-1)), with (i, j) entry the
coefficient of t^(i-j).  For symbols that are regular (no negative
exponents) the compression is exactly multiplicative, so after normalizing
both symbols to index zero the commutator matrix

    D = T(f0) T(g0) T(f0)^-1 T(g0)^-1

is the identity plus a perturbation supported near the top-left corner,
created by the nilpotent tails; determinants of corners of D stabilize once
the corner clears the tails' reach.  The joint torsion is

    tau(f, g) = (-1)^(v(f) v(g)) * a0^v(g) * b0^(-v(f)) * det(corner of D)

where v is the index of the compression (computed as a residue-field rank
deficiency) and a0, b0 are the stabilized Szego determinant ratios of the
normalized symbols.  Over a field base D is exactly the identity and the
formula collapses to the tame symbol; in general it reproduces the
Contou-Carrere symbol with global exponent +1.

Only the c x c corner of D is ever built, never D itself or an inverse:

    D[:c, :c] = (T(f0) T(g0))[:c, :] Y,   T(g0) X = E_c,   T(f0) Y = X,

with E_c the first c columns of the identity.  The two solves carry c
right-hand sides and the product takes c rows, and all of it runs on raw
payloads skipping zero entries, so an n x n window costs O(n^2 c) scalar
operations on the banded Toeplitz matrices instead of O(n^3).
"""

from __future__ import annotations

from .errors import AlgebraError, SingularCompression
from .laurent import LaurentSeries, require_units
from .rings import RingValue, residue_field, residue_value


# -- dense matrices over a local scalar ring ---------------------------------
#
# The kernels below work on raw payloads through the descriptor's
# _add/_mul/_neg/_inv/_is_unit and skip zero entries, so banded Toeplitz
# input costs far less than a dense product.  mat_mul, mat_inv and mat_det
# are the RingValue entry points.

def toeplitz_matrix(f: LaurentSeries, n: int):
    """n x n compression of multiplication by f; entry (i, j) = coeff(i-j)."""
    coeffs = [f.coeff(k) for k in range(1 - n, n)]
    return [[coeffs[n - 1 + i - j] for j in range(n)] for i in range(n)]


def _raw(a):
    return [[x.raw for x in row] for row in a]


def _wrap(a, ring):
    return [[RingValue(ring, x) for x in row] for row in a]


def _identity_columns(n: int, c: int, ring):
    """The first c columns of the n x n identity, as raw payloads."""
    one, zero = ring._one_raw(), ring._zero_raw()
    return [[one if i == j else zero for j in range(c)] for i in range(n)]


def _mul_raw(a, b, ring):
    """Product of raw matrices; a's zero entries skip whole rows of b."""
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


def _solve_raw(a, b, ring):
    """X with a X = b by Gauss-Jordan elimination; the pivot of each column
    is its first unit, and a column without one raises SingularCompression."""
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
        nz = [(j, mul(s, x)) for j, x in enumerate(prow[col:], col)
              if x != zero]
        for j, x in nz:
            prow[j] = x
        for r, row in enumerate(rows):
            f = row[col]
            if r == col or f == zero:
                continue
            f = neg(f)
            for j, x in nz:
                row[j] = add(row[j], mul(f, x))
    return [row[n:] for row in rows]


def _eliminate_below(a, top: int, col: int, ring) -> None:
    """Clear column col below row top, whose entry there is a unit.  Only
    the columns right of col are written: callers never read col or the
    columns left of it again."""
    zero = ring._zero_raw()
    add, mul, neg = ring._add, ring._mul, ring._neg
    prow = a[top]
    s = ring._inv(prow[col])
    nz = [(j, x) for j, x in enumerate(prow[col + 1:], col + 1) if x != zero]
    for row in a[top + 1:]:
        if row[col] != zero:
            f = neg(mul(row[col], s))
            for j, x in nz:
                row[j] = add(row[j], mul(f, x))


def _det_cofactor(a, ring):
    """Determinant of a small raw-payload matrix by cofactor expansion along
    the first row, skipping zero entries."""
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


def _det_raw(a, ring):
    """Determinant by elimination with unit pivots.  If some column has no
    unit pivot the determinant is a non-unit; it is still exact, by cofactor
    expansion of the remaining block."""
    n = len(a)
    a = [list(row) for row in a]
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
        _eliminate_below(a, col, col, ring)
    return det


def mat_mul(a, b):
    ring = a[0][0].ring
    return _wrap(_mul_raw(_raw(a), _raw(b), ring), ring)


def mat_inv(a, ring):
    """Inverse over a local ring (pivots must be units)."""
    n = len(a)
    return _wrap(_solve_raw(_raw(a), _identity_columns(n, n, ring), ring),
                 ring)


def mat_det(a, ring):
    """Determinant over a local ring, exact also when it is not a unit."""
    return RingValue(ring, _det_raw(_raw(a), ring))


def residue_rank(a, ring) -> int:
    """Rank of the residue-field reduction of a matrix."""
    field = residue_field(ring)
    zero = field._zero_raw()
    m = [[residue_value(x).raw for x in row] for row in a]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    rank = 0
    for col in range(n_cols):
        piv = next((r for r in range(rank, n_rows) if m[r][col] != zero),
                   None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        _eliminate_below(m, rank, col, field)
        rank += 1
        if rank == n_rows:
            break
    return rank


# -- index, Szego ratio, joint torsion ----------------------------------------

def toeplitz_index(f: LaurentSeries, window: int = None) -> int:
    """Index of the compression of f, as a residue-field rank deficiency.

    Shift f into the regular range first: for h = t^K f with K + low(f) >= 0
    the n x n compression of the residue of h has rank exactly n - (K + v),
    so v is recovered from one rank computation.
    """
    require_units("index needs a unit symbol", f)
    shift = max(0, -(f.low if f.low is not None else 0))
    span = (f.degree() if f.coeffs else 0) + shift
    n = window if window is not None else span + 2
    h = f.shift(shift)
    rank = residue_rank(toeplitz_matrix(h, n), f.ring.base)
    return (n - rank) - shift


def szego_ratio(f0: LaurentSeries, start: int = None):
    """Stabilized ratio det T(f0, k) / det T(f0, k-1) of an index-0 symbol.

    Nilpotency makes the sequence exactly constant once k clears the reach
    of the negative tail; two consecutive equal ratios certify the limit.
    """
    ring = f0.ring
    L = ring.nil_bound
    pole = max(0, -(f0.low if f0.low is not None else 0))
    k = start if start is not None else (L - 1) * pole + 2
    limit = k + 4 * L * (pole + 1) + 8
    prev_det = mat_det(toeplitz_matrix(f0, k - 1), ring.base)
    prev_ratio = None
    while k <= limit:
        cur_det = mat_det(toeplitz_matrix(f0, k), ring.base)
        if not prev_det.is_unit():
            raise SingularCompression("Szego minor is singular")
        ratio = cur_det * prev_det.inv()
        if prev_ratio is not None and ratio == prev_ratio:
            return ratio
        prev_ratio, prev_det = ratio, cur_det
        k += 1
    raise AlgebraError("Szego ratios failed to stabilize")  # pragma: no cover


def _corner_det(f0, g0, corner: int, size: int):
    """det of the corner of D = T(f0) T(g0) T(f0)^-1 T(g0)^-1, built by the
    corner-only solve in the module docstring."""
    base = f0.ring.base
    corner = min(corner, size)
    tf = _raw(toeplitz_matrix(f0, size))
    tg = _raw(toeplitz_matrix(g0, size))
    x = _solve_raw(tg, _identity_columns(size, corner, base), base)
    y = _solve_raw(tf, x, base)
    block = _mul_raw(_mul_raw(tf[:corner], tg, base), y, base)
    return mat_det(_wrap(block, base), base)


def joint_torsion(f: LaurentSeries, g: LaurentSeries,
                  corner: int = None, size: int = None):
    """Joint torsion of the Toeplitz compressions of two unit symbols.

    With explicit `corner` and `size` a single window is used; otherwise the
    corner determinant is grown until two consecutive windows agree.
    """
    ring = f.ring
    if g.ring != ring:
        raise AlgebraError("joint torsion needs symbols over one ring")
    require_units("joint torsion needs unit symbols", f, g)
    v_f = toeplitz_index(f)
    v_g = toeplitz_index(g)
    f0 = f.shift(-v_f)
    g0 = g.shift(-v_g)
    a0 = szego_ratio(f0)
    b0 = szego_ratio(g0)
    base = ring.base
    L = ring.nil_bound
    pole = max(0, -(f0.low if f0.low is not None else 0)) + \
        max(0, -(g0.low if g0.low is not None else 0))
    if corner is not None:
        use_size = size if size is not None else corner + 2 * (L - 1) * pole + 4
        tau = _corner_det(f0, g0, corner, use_size)
    else:
        j = (L - 1) * pole + 1
        span = max((x.degree() if x.coeffs else 0) for x in (f0, g0))
        n = j + (L - 1) * pole + span + 4
        tau = None
        for _ in range(6):
            cur = _corner_det(f0, g0, j, n)
            if tau is not None and cur == tau:
                break
            tau = cur
            j += 1
            n += 2
        else:
            raise AlgebraError("corner determinants failed to stabilize")
    sign = base.from_int(-1) if (v_f * v_g) % 2 else base.one()
    return sign * (a0 ** v_g) * (b0 ** (-v_f)) * tau

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

with E_c the first c columns of the identity.  Everything runs on raw
payloads.  A symbol's coefficients are read once per compression, as the
band of payloads at t^(1-n) ... t^(n-1), and the rows are slices of that
band.  T(f, n) has bandwidth p = deg f below the diagonal and q = pole(f)
above it, so each solve is a forward elimination that looks for pivots and
clears entries only within the p rows below the diagonal, then a back
substitution.  Zero entries are skipped throughout.  An n x n window costs
O(n (p + q) (p + c)) scalar operations instead of O(n^3).  For an index-0
symbol the Szego ratio det T(f0, k) / det T(f0, k-1) is the k-th pivot of
one elimination of T(f0) without row swaps.  The solve, the determinant,
the residue rank and the Szego pivots all clear columns with
`_eliminate_below`.
"""

from __future__ import annotations

from .errors import AlgebraError, SingularCompression
from .laurent import LaurentSeries, require_units
from .rings import RingValue, residue_field, residue_raw


# -- compressions as payload bands --------------------------------------------

def _require_band(f: LaurentSeries, n: int) -> None:
    """Raise PrecisionExhausted, as coeff() does, for the first exponent of
    t^(1-n) ... t^(n-1) past f's truncation."""
    if n > 0 and f.prec is not None and f.prec < n:
        f.coeff(max(1 - n, f.prec))


def _band(f: LaurentSeries, n: int) -> list:
    """Payloads of f at t^(1-n) ... t^(n-1), the band every n x n compression
    of f is sliced from."""
    _require_band(f, n)
    band = [f.ring.base._zero_raw()] * max(0, 2 * n - 1)
    for e, c in f._raw.items():
        if -n < e < n:
            band[n - 1 + e] = c
    return band


def _rows(band: list, n: int) -> list:
    """The n x n compression sliced out of its band: row i holds the
    payloads at t^i, t^(i-1), ..., t^(i-n+1)."""
    return [band[i:i + n][::-1] for i in range(n)]


def _reach(f: LaurentSeries, n: int) -> int:
    """Bandwidth of T(f, n) below the diagonal."""
    return max((e for e in f._raw if 0 < e < n), default=0)


def toeplitz_matrix(f: LaurentSeries, n: int):
    """n x n compression of multiplication by f; entry (i, j) = coeff(i-j)."""
    return _wrap(_rows(_band(f, n), n), f.ring.base)


# -- dense and banded matrices over a local scalar ring ------------------------
#
# The kernels below work on raw payloads through the descriptor's
# _add/_mul/_neg/_inv/_is_unit and skip zero entries.  mat_mul, mat_inv and
# mat_det are the RingValue entry points.

def _raw(a):
    return [[x.raw for x in row] for row in a]


def _wrap(a, ring):
    wrap = ring._wrapper()
    return [[wrap(x) for x in row] for row in a]


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


def _first_unit(a, top: int, col: int, end: int, is_unit):
    """The first of rows top .. end-1 whose entry in column col is a unit."""
    for r in range(top, end):
        if is_unit(a[r][col]):
            return r
    return None


def _eliminate_below(a, top: int, col: int, end: int, ring) -> None:
    """Clear column col in rows top+1 .. end-1 with row top, whose entry
    there is a unit.  Only the columns right of col are written: callers
    never read col or the columns left of it again."""
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


def _solve(a, b, lower: int, ring):
    """X with a X = b for a square a with no entries more than `lower`
    places below the diagonal.  Forward elimination takes as the pivot of
    each column its first unit within the band, and a column without one
    raises SingularCompression; back substitution follows."""
    n = len(a)
    zero = ring._zero_raw()
    add, mul, neg = ring._add, ring._mul, ring._neg
    rows = [ra + rb for ra, rb in zip(a, b)]
    for col in range(n):
        end = min(n, col + lower + 1)
        piv = _first_unit(rows, col, col, end, ring._is_unit)
        if piv is None:
            raise SingularCompression(
                f"column {col} has no unit pivot; the compression is singular")
        rows[col], rows[piv] = rows[piv], rows[col]
        _eliminate_below(rows, col, col, end, ring)
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
        piv = _first_unit(a, col, col, n, ring._is_unit)
        if piv is None:
            return ring._mul(det, _det_cofactor(
                [row[col:] for row in a[col:]], ring))
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = ring._neg(det)
        det = ring._mul(det, a[col][col])
        _eliminate_below(a, col, col, n, ring)
    return det


def _rank(m, lower: int, field) -> int:
    """Rank of a payload matrix over a field whose entries lie at most
    `lower` places below the diagonal; columns without a pivot are
    skipped."""
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    rank = 0
    for col in range(n_cols):
        end = min(n_rows, col + lower + 1)
        piv = _first_unit(m, rank, col, end, field._is_unit)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        _eliminate_below(m, rank, col, end, field)
        rank += 1
        if rank == n_rows:
            break
    return rank


def _pivots(f0: LaurentSeries, n: int, m: int):
    """Pivots of an elimination of T(f0, n) past its leading m x m block,
    up to and including the first that is not a unit; None if that block is
    singular.  The block is eliminated with row swaps inside it, the rest
    without, so the pivot at position k > m is the Schur complement
    det T(f0, k) / det T(f0, k-1), exact while the pivots before it are
    units."""
    base = f0.ring.base
    a = _rows(_band(f0, n), n)
    lower = _reach(f0, n)
    pivots = []
    for col in range(n):
        end = min(n, col + lower + 1)
        if col < m:
            piv = _first_unit(a, col, col, min(m, end), base._is_unit)
            if piv is None:
                return None
            a[col], a[piv] = a[piv], a[col]
        else:
            pivots.append(a[col][col])
            if not base._is_unit(a[col][col]):
                break
        _eliminate_below(a, col, col, end, base)
    return pivots


def mat_mul(a, b):
    ring = a[0][0].ring
    return _wrap(_mul_raw(_raw(a), _raw(b), ring), ring)


def mat_inv(a, ring):
    """Inverse over a local ring (pivots must be units)."""
    n = len(a)
    return _wrap(_solve(_raw(a), _identity_columns(n, n, ring), n - 1, ring),
                 ring)


def mat_det(a, ring):
    """Determinant over a local ring, exact also when it is not a unit."""
    return RingValue(ring, _det_raw(_raw(a), ring))


def residue_rank(a, ring) -> int:
    """Rank of the residue-field reduction of a matrix."""
    return _rank([[residue_raw(ring, x.raw) for x in row] for row in a],
                 len(a) - 1, residue_field(ring))


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
    base = f.ring.base
    residues = [residue_raw(base, x) for x in _band(h, n)]
    rank = _rank(_rows(residues, n), _reach(h, n), residue_field(base))
    return (n - rank) - shift


def szego_ratio(f0: LaurentSeries, start: int = None):
    """Stabilized ratio det T(f0, k) / det T(f0, k-1) of an index-0 symbol.

    Nilpotency makes the sequence exactly constant once k clears the reach
    of the negative tail; two consecutive equal ratios certify the limit.
    The k-th ratio is read as the k-th pivot of one elimination of T(f0),
    so no determinant is formed.  Ratios before `start` are not needed, so
    the leading (start-1) x (start-1) block only has to be invertible: it is
    eliminated with row swaps inside it, and every later row keeps its
    place.  For an index-0 symbol no swap is ever made.  The eliminated
    window starts at start + 1 and doubles when k passes it, up to the
    search limit.  A non-unit pivot that a ratio divides by raises
    SingularCompression.
    """
    ring = f0.ring
    L = ring.nil_bound
    pole = max(0, -(f0.low if f0.low is not None else 0))
    k = start if start is not None else (L - 1) * pole + 2
    limit = k + 4 * L * (pole + 1) + 8
    _require_band(f0, k - 1)
    m = max(0, k - 1)
    one = ring.base._one_raw()
    n, pivots = 0, []
    prev_ratio = None
    while k <= limit:
        _require_band(f0, k)
        if k <= 0:
            ratio = one
        else:
            if k > n:
                n = min(max(2 * n, k + 1), limit)
                if f0.prec is not None:     # k <= f0.prec, as checked above
                    n = min(n, f0.prec)
                pivots = _pivots(f0, n, m)
            if pivots is None or len(pivots) < k - m:
                raise SingularCompression("Szego minor is singular")
            ratio = pivots[k - m - 1]
        if ratio == prev_ratio:
            return RingValue(ring.base, ratio)
        prev_ratio = ratio
        k += 1
    raise AlgebraError("Szego ratios failed to stabilize")  # pragma: no cover


def _corner_det(f0, g0, corner: int, size: int):
    """det of the corner of D = T(f0) T(g0) T(f0)^-1 T(g0)^-1, built by the
    corner-only solve in the module docstring."""
    base = f0.ring.base
    corner = min(corner, size)
    tf = _rows(_band(f0, size), size)
    tg = _rows(_band(g0, size), size)
    x = _solve(tg, _identity_columns(size, corner, base), _reach(g0, size),
               base)
    y = _solve(tf, x, _reach(f0, size), base)
    block = _mul_raw(_mul_raw(tf[:corner], tg, base), y, base)
    return RingValue(base, _det_raw(block, base))


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

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

with E_c the first c columns of the identity.  A symbol's coefficients are
read once per compression, as the band of payloads at t^(1-n) ... t^(n-1),
and each band is encoded once by `rings._coded`: over a ring with code
tables its 2n - 1 payloads become small-int codes, and otherwise stay
payloads.  The rows are slices of the coded band, and only results (the
corner determinant, the Szego pivots) are decoded.  T(f, n) has bandwidth
p = deg f below the diagonal and q = pole(f) above it, so each solve is a
forward elimination that looks for pivots and clears entries only within
the p rows below the diagonal, then a back substitution.  Zero entries are
skipped throughout.  An n x n window costs O(n (p + q) (p + c)) scalar
operations instead of O(n^3); on codes each is two list indexes, where on
a tabled ring's payloads it is two method calls and four payload-keyed
dict lookups.  For an index-0 symbol the Szego ratio
det T(f0, k) / det T(f0, k-1) is the k-th pivot of one elimination of
T(f0) without row swaps.

An explicit window (a corner or size, an index window, a matrix order) is
at most _WINDOW_LIMIT = 4096, checked before any band is allocated; an
n x n compression's rows hold n^2 entries.  Default windows grow with the
symbols and are not limited.

Two bands with zeros below t^0 and a unit at t^0 (every index-0 pair over
a field) give lower triangular compressions with a unit diagonal.  These
are polynomials in the nilpotent shift, so they commute (A[t]/t^n) and
D = I: the corner determinant is 1 with no solve.

The solve, the determinant, the residue rank and the Szego pivots all run
on the one matrix kernel in `rings`, and all clear columns with its
`_eliminate_below`.  Its pivot search takes the first unit of a column;
failing that, the first entry of least e-adic valuation.  Over the chain
ring F_q[e]/e^m that entry divides the rest of its column, so a
determinant stays exact and O(n^3) when it is not a unit.  Solves and
Szego pivots still demand unit pivots, and wherever a unit exists the
search picks the same row as a unit-only search would.
"""

from __future__ import annotations

from .errors import AlgebraError, SingularCompression, UnsupportedArgument
from .laurent import LaurentSeries, require_units
from .rings import (RingValue, _coded, _det_raw, _eliminate_below,
                    _identity_columns, _mul_raw, _pivot_row, _rank, _solve,
                    residue_field, residue_raw)


# the largest explicit window (see the module docstring)
_WINDOW_LIMIT = 4096


def _refuse_windows(what: str, **windows) -> None:
    given = ", ".join(f"{name}={n}" for name, n in windows.items())
    raise UnsupportedArgument(
        f"{what} needs windows of at most {_WINDOW_LIMIT}, not {given}")


# -- compressions as payload bands --------------------------------------------

def _require_band(f: LaurentSeries, n: int, shift: int = 0) -> None:
    """Raise PrecisionExhausted, as coeff() does, for the first exponent of
    t^(1-n) ... t^(n-1) in t^shift f past its truncation, named as an
    exponent of f."""
    if n > 0 and f.prec is not None and f.prec + shift < n:
        f.coeff(max(1 - n, f.prec + shift) - shift)


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
    if n > _WINDOW_LIMIT:
        _refuse_windows("toeplitz matrix", n=n)
    return _wrap(_rows(_band(f, n), n), f.ring.base)


# -- RingValue entry points to the rings matrix kernel ------------------------

def _raw(a):
    return [[x.raw for x in row] for row in a]


def _wrap(a, ring, kernel=None):
    """Elements of `ring` from a matrix of `kernel` entries (payloads when
    there is no kernel)."""
    wrap, decode = ring._wrapper(), (kernel or ring)._decode
    return [[wrap(decode(x)) for x in row] for row in a]


def mat_mul(a, b):
    ring = a[0][0].ring
    kernel, rows = _coded(ring, *_raw(a), *_raw(b))
    return _wrap(_mul_raw(rows[:len(a)], rows[len(a):], kernel), ring, kernel)


def mat_inv(a, ring):
    """Inverse over a local ring (pivots must be units)."""
    n = len(a)
    kernel, a = _coded(ring, *_raw(a))
    return _wrap(_solve(a, _identity_columns(n, n, kernel), n - 1, kernel),
                 ring, kernel)


def mat_det(a, ring):
    """Determinant over a local ring, exact also when it is not a unit: each
    column is pivoted on an entry of least e-adic valuation."""
    kernel, a = _coded(ring, *_raw(a))
    return RingValue(ring, kernel._decode(_det_raw(a, kernel)))


# -- index, Szego ratio, joint torsion ----------------------------------------

def toeplitz_index(f: LaurentSeries, window: int = None) -> int:
    """Index of the compression of f, as a residue-field rank deficiency.

    Shift f into the regular range first: for h = t^K f with K + low(f) >= 0
    the n x n compression of the residue of h has rank exactly n - (K + v),
    so v is recovered from one rank computation.  An explicit `window` needs
    1 <= window and K + v <= window: a smaller compression has rank 0.
    """
    if window is not None and window < 1:
        raise UnsupportedArgument(
            f"index needs 1 <= window, not window={window}")
    if window is not None and window > _WINDOW_LIMIT:
        _refuse_windows("index", window=window)
    require_units("index needs a unit symbol", f)
    shift = max(0, -(f.low if f.low is not None else 0))
    if window is not None and window < shift + f.valuation():
        raise UnsupportedArgument(f"index needs window >= "
                                  f"{shift + f.valuation()}, not window={window}")
    span = (f.degree() if f.coeffs else 0) + shift
    n = window if window is not None else span + 2
    _require_band(f, n, shift)
    h = f.shift(shift)
    base, field = f.ring.base, residue_field(f.ring.base)
    band = _band(h, n)
    if field is not base:
        band = [residue_raw(base, x) for x in band]
    rank = _rank(_rows(band, n), _reach(h, n), field)
    return (n - rank) - shift


def _pivots(f0: LaurentSeries, n: int, m: int):
    """Pivots of an elimination of T(f0, n) past its leading m x m block,
    up to and including the first that is not a unit; None if that block is
    singular.  The block is eliminated with row swaps inside it, the rest
    without, so the pivot at position k > m is the Schur complement
    det T(f0, k) / det T(f0, k-1), exact while the pivots before it are
    units."""
    kernel, (band,) = _coded(f0.ring.base, _band(f0, n))
    a = _rows(band, n)
    lower = _reach(f0, n)
    pivots = []
    for col in range(n):
        end = min(n, col + lower + 1)
        if col < m:
            piv, k = _pivot_row(a, col, col, min(m, end), kernel)
            if piv is None or k:
                return None
            a[col], a[piv] = a[piv], a[col]
        else:
            pivots.append(kernel._decode(a[col][col]))
            if not kernel._is_unit(a[col][col]):
                break
        _eliminate_below(a, col, col, end, kernel)
    return pivots


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
    corner-only solve in the module docstring, or 1 when both compressions
    are lower triangular with a unit diagonal.  Both bands are read first,
    so a truncated symbol runs out as it would on the solving path."""
    base = f0.ring.base
    corner = min(corner, size)
    bands = _band(f0, size), _band(g0, size)
    zeros = [base._zero_raw()] * (size - 1)
    if size >= 1 and all(b[:size - 1] == zeros and base._is_unit(b[size - 1])
                         for b in bands):
        return base.one()
    kernel, bands = _coded(base, *bands)
    tf, tg = (_rows(b, size) for b in bands)
    x = _solve(tg, _identity_columns(size, corner, kernel), _reach(g0, size),
               kernel)
    y = _solve(tf, x, _reach(f0, size), kernel)
    block = _mul_raw(_mul_raw(tf[:corner], tg, kernel), y, kernel)
    return RingValue(base, kernel._decode(_det_raw(block, kernel)))


def joint_torsion(f: LaurentSeries, g: LaurentSeries,
                  corner: int = None, size: int = None):
    """Joint torsion of the Toeplitz compressions of two unit symbols.

    With explicit `corner` and `size` a single window is used; otherwise the
    corner determinant is grown until two consecutive windows agree.  A
    window needs 1 <= corner <= size; a corner alone gets a size.
    """
    if (corner is not None and corner < 1
            or size is not None and (corner is None or size < corner)):
        raise UnsupportedArgument("joint torsion needs 1 <= corner <= size, "
                                  f"not corner={corner}, size={size}")
    if corner is not None and max(corner, size or 0) > _WINDOW_LIMIT:
        _refuse_windows("joint torsion", corner=corner, size=size)
    ring = f.ring
    if g.ring is not ring:
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
    pole = -min(f0.low or 0, 0) - min(g0.low or 0, 0)
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

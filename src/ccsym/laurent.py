"""Truncated Laurent series over local coefficient rings, and iterated towers.

A series is a sparse map {exponent: coefficient} plus a truncation order
`prec`: stored exponents all satisfy exp < prec, and the element is understood
as (stored part) + O(t^prec).  `prec is None` means the element is an exact
Laurent polynomial.  Precision composes conservatively:

    add:  min(Na, Nb)
    mul:  min(low(a) + Nb, low(b) + Na)
    inv:  Nf - 2*nu - 2*(L-1)*(nu - low(f)) for nu = valuation(f) and L
          the nilpotency bound, also under an explicit precision

Inversion splits a unit as f = U + N, U from the first unit coefficient up
and N nilpotent, so 1/f = U^-1 sum_{j<L} (-N U^-1)^j: over a scalar base
the power-series recurrence in `rings`, which also inverts artinian units,
divides by U once per power of N.  A tower base sums the geometric series
of 1/(1 + u), u = f/(lead t^nu) - 1, in a fixed window: an inner coefficient
with no stored terms counts as zero, and the recurrence skips such terms,
so it would drop the inner precisions the window keeps.

Coefficients may be scalars (RingValue) or again LaurentSeries, giving the
iterated rings A((t1))...((tn)) as literal series-of-series.

Inner loops run on payloads: {exponent: payload} dicts driven by the
coefficient descriptor's raw `_mul`/`_add`/`_neg`, its zero test and its unit
inverse.  A result series keeps its payload dict and wraps the values once,
when its `coeffs` are first read.  A scalar payload is `RingValue.raw`; a
series-valued coefficient is its own payload, with `LaurentRing` supplying
the series operations and "no stored terms" as the zero test.  So towers run
the same loops as scalar bases.  The artinian symbol runs them on element
codes too: over a tabled artinian ring (`rings._ScalarTables`) it builds
a series ring whose base is the code tables, and a series there prints as
its payloads, so every message names the series as given.

Over a local coefficient ring every element splits as

    f = prod_{i<0} (1 - a_i t^i) * a_0 t^nu * prod_{i>0} (1 - a_i t^i)

with the negative-index a_i nilpotent; `unit_decompose` computes this.  With
t^-low f = F U, the Weierstrass preparation (F monic, F = t^d mod the maximal
ideal, d = nu - low), F / t^d is the negative product, and the positive stage
keeps r = U / U_0 as one dense list below the cutoff N: a_i = -r[i], and
dividing by (1 - a_i t^i) is the in-place recurrence r[k] += a_i r[k-i] for k
rising from i to N - 1, which costs O(N) per factor.  A decomposition keeps r,
so `extend` reruns only this stage at a larger cutoff.  The symbol evaluators
live in `symbols`; they consume these decompositions.
"""

from __future__ import annotations

import operator
from collections import namedtuple

from .errors import (AlgebraError, DescriptorMismatch, NotAUnit, NotRegular,
                     PrecisionExhausted)
from .rings import (RingDescriptor, _composite, _fmt_poly, _raw_divmod,
                    _raw_series_div, _signed_power, format_value)

#: raw coefficient operations that the kernel loops run on
_CoeffOps = namedtuple("_CoeffOps", "mul add neg nonzero wrap")


class LaurentRing(RingDescriptor):
    """Descriptor for base((var)).  Elements are LaurentSeries instances."""

    kind = "iterated-laurent"

    def __init__(self, base: RingDescriptor, var: str = "t"):
        self.base = base
        self.var = var
        self.char = base.char
        self.is_field = base.is_field
        self.nil_bound = base.nil_bound
        self._coeff_ops = _CoeffOps(base._mul, base._add, base._neg,
                                   base._nonzero_test(), base._wrapper())
        self._zero, self._one = self.zero(), self.one()

    @staticmethod
    def _key(base, var="t"):
        return (base, var)

    def __repr__(self):
        return f"{self.base}(({self.var}))"

    def depth(self) -> int:
        inner = self.base.depth() if isinstance(self.base, LaurentRing) else 0
        return inner + 1

    def zero(self, prec=None):
        return _series(self, {}, prec)

    def one(self):
        return self._monomial(0, self.base._one_raw())

    def from_int(self, n: int):
        return self._monomial(0, self.base._from_int_raw(n))

    def gen(self, power: int = 1):
        """The monomial var^power, exact."""
        return self._monomial(power, self.base._one_raw())

    def constant(self, value):
        return self._monomial(0, self.base.coerce(value).raw)

    def _monomial(self, e: int, payload):
        return _series(self, {e: payload} if self._coeff_ops.nonzero(payload) else {})

    def coerce(self, x):
        if isinstance(x, LaurentSeries):
            if x.ring is not self:
                raise DescriptorMismatch(f"cannot coerce {x.ring} series into {self}")
            return x
        if isinstance(x, int):
            return self.from_int(x)
        return self.constant(self.base.coerce(x))

    def random(self, rng, low=-2, high=5, prec=None):
        coeffs = {}
        for e in range(low, high):
            if rng.random() < 0.6:
                coeffs[e] = self.base.random(rng)
        return LaurentSeries(self, coeffs, prec)

    # -- payload arithmetic, for series-valued coefficients of a tower: a
    # series is its own payload, and it is zero when it stores no terms
    _add = staticmethod(operator.add)
    _neg = staticmethod(operator.neg)
    _mul = staticmethod(operator.mul)

    def _inv(self, a):
        return a.inv()

    def _is_unit(self, a):
        return a.is_unit()

    def _from_int_raw(self, n):
        return self.from_int(n)

    def _nonzero_test(self):
        return _has_terms

    def _wrapper(self):
        return _same


def _has_terms(f) -> bool:
    return bool(f._raw)


def _same(f):
    return f


def _min_exp(coeffs, default):
    return min(coeffs) if coeffs else default


class LaurentSeries:
    """An element of a LaurentRing.  Its nonzero terms are held as a payload
    dict `_raw`, which the kernel reads and never mutates, and are wrapped
    into `coeffs` when that is first read."""

    __slots__ = ("ring", "_coeffs", "_raw", "prec", "low")

    def __init__(self, ring: LaurentRing, coeffs: dict, prec=None):
        nonzero = ring._coeff_ops.nonzero
        if prec is None:
            coeffs = {e: c for e, c in coeffs.items() if nonzero(c.raw)}
        else:
            coeffs = {e: c for e, c in coeffs.items() if e < prec and nonzero(c.raw)}
        self.ring = ring
        self._coeffs = coeffs
        self._raw = {e: c.raw for e, c in coeffs.items()}
        self.prec = prec
        self.low = _min_exp(coeffs, prec)

    @property
    def coeffs(self) -> dict:
        """{exponent: coefficient} of the stored terms; never mutate it."""
        coeffs = self._coeffs
        if coeffs is None:
            wrap = self.ring._coeff_ops.wrap
            coeffs = self._coeffs = {e: wrap(c) for e, c in self._raw.items()}
        return coeffs

    @property
    def raw(self) -> "LaurentSeries":
        """The payload of a series-valued coefficient: the series itself."""
        return self

    # -- basic queries ------------------------------------------------------
    def coeff(self, e: int):
        if self.prec is not None and e >= self.prec:
            raise PrecisionExhausted(f"coefficient of {self.ring.var}^{e} beyond O({self.ring.var}^{self.prec})")
        return self.coeffs.get(e, self.ring.base.zero())

    def is_zero(self) -> bool:
        return not self._raw

    def is_one(self) -> bool:
        return self._raw.keys() == {0} and self.coeffs[0].is_one()

    def is_unit(self) -> bool:
        return any(map(self.ring.base._is_unit, self._raw.values()))

    def is_nilpotent(self) -> bool:
        # trusts the truncation: the unknown tail of a non-unit over a local
        # ring is nilpotent anyway
        return not self.is_unit()

    def valuation(self) -> int:
        """Least exponent carrying a unit coefficient.

        Well defined because the coefficient ring is local: everything below
        the first unit is nilpotent.  NotAUnit if no unit coefficient exists
        in the stored window.
        """
        raw, is_unit = self._raw, self.ring.base._is_unit
        for e in sorted(raw):
            if is_unit(raw[e]):
                return e
        raise NotAUnit(f"no unit coefficient below truncation in {self}")

    def degree(self) -> int:
        if self.is_zero():
            raise AlgebraError("zero series has no degree")
        return max(self._raw)

    # -- arithmetic -----------------------------------------------------------
    def _lift(self, other) -> "LaurentSeries":
        return self.ring.coerce(other)

    def __add__(self, other):
        o = self._lift(other)
        raw = dict(self._raw)
        _add_into(self.ring, raw, o._raw)
        return _build(self.ring, raw, _merge_prec(self.prec, o.prec))

    __radd__ = __add__

    def __neg__(self):
        negate = self.ring._coeff_ops.neg
        return _series(self.ring, {e: negate(c) for e, c in self._raw.items()},
                       self.prec)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        o = self._lift(other)
        prec = _mul_prec(self, o)
        # low(x) + low(y) < prec whenever both are nonzero, so a product never
        # exhausts its precision; one whose terms all cancel is O(t^prec)
        return _series(self.ring, _product(self.ring, self._raw, o._raw, prec),
                       prec)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by var^k (exact reindexing)."""
        prec = None if self.prec is None else self.prec + k
        return _series(self.ring, {e + k: c for e, c in self._raw.items()}, prec)

    def scale(self, scalar) -> "LaurentSeries":
        s = self.ring.base.coerce(scalar).raw
        mul = self.ring._coeff_ops.mul
        return _build(self.ring, {e: mul(c, s) for e, c in self._raw.items()},
                      self.prec)

    def truncate(self, prec: int) -> "LaurentSeries":
        new = prec if self.prec is None else min(self.prec, prec)
        return _series(self.ring, {e: c for e, c in self._raw.items() if e < new}, new)

    def inv(self, prec=None) -> "LaurentSeries":
        return laurent_inv(self, prec)

    def __truediv__(self, other):
        return self * self._lift(other).inv()

    def __pow__(self, e: int):
        return _signed_power(self.ring, self, e)

    # -- structure ------------------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (self.ring is other.ring and self._raw == other._raw
                and self.prec == other.prec)

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.coeffs.items(), key=lambda kv: kv[0])), self.prec))

    def agrees_with(self, other, upto=None) -> bool:
        """Equality of coefficients below min(precisions, upto)."""
        o = self._lift(other)
        bound = _merge_prec(_merge_prec(self.prec, o.prec), upto)
        zero = self.ring.base.zero()
        return all(self.coeffs.get(e, zero) == o.coeffs.get(e, zero)
                   for e in self.coeffs.keys() | o.coeffs.keys()
                   if bound is None or e < bound)

    def __repr__(self):
        return format_series(self)


def format_series(f: LaurentSeries) -> str:
    """Canonical text form: terms by ascending exponent, then O(var^prec).

    Coefficient text is parenthesized when composite, the constant term's
    too; a coefficient of 1 is dropped next to a variable power; bare
    exponent 1 prints as plain var.  The result round-trips through the
    expression parser.
    """
    var = f.ring.var
    tower = isinstance(f.ring.base, LaurentRing)
    body = _fmt_poly(sorted(f.coeffs.items()), var,
                     format_series if tower else format_value, _composite,
                     bracket_constant=True)
    if f.prec is None:
        return body
    tail = f"O({var}^{f.prec})"
    return tail if body == "0" else f"{body} + {tail}"


def _merge_prec(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _mul_prec(x: LaurentSeries, y: LaurentSeries):
    if x.prec is None and y.prec is None:
        return None
    cands = []
    if y.prec is not None:
        lx = x.low if x.low is not None else 0
        cands.append(lx + y.prec)
    if x.prec is not None:
        ly = y.low if y.low is not None else 0
        cands.append(ly + x.prec)
    return min(cands)


def default_precision(*series, pole_hint: int = 0) -> int:
    """Default working order: (max pole depth) * (nilpotency bound) + 8."""
    pole = pole_hint
    bound = 1
    for f in series:
        bound = max(bound, f.ring.nil_bound)
        if not f.is_zero():
            pole = max(pole, -min(f.low, 0))
    return pole * bound + 8


# -- payload kernel ------------------------------------------------------------
# Inner loops run on {exponent: payload} dicts with the coefficient ring's raw
# operations (`_CoeffOps`); payload dicts are pruned of zeros and never
# mutated once a series holds them.


def _series(ring: LaurentRing, raw: dict, prec=None) -> LaurentSeries:
    """Series from a payload dict holding only nonzero payloads below `prec`;
    they are wrapped when `coeffs` is first read."""
    f = object.__new__(LaurentSeries)
    f.ring, f._coeffs, f._raw, f.prec = ring, None, raw, prec
    f.low = _min_exp(raw, prec)
    return f


def _build(ring: LaurentRing, raw: dict, prec=None) -> LaurentSeries:
    """Series from any payload dict: exponents at or past `prec` and zero
    payloads are dropped first."""
    nonzero = ring._coeff_ops.nonzero
    if prec is None:
        raw = {e: c for e, c in raw.items() if nonzero(c)}
    else:
        raw = {e: c for e, c in raw.items() if e < prec and nonzero(c)}
    return _series(ring, raw, prec)


def _product(ring: LaurentRing, x: dict, y: dict, bound=None) -> dict:
    """Schoolbook product of payload dicts below `bound`, zero terms dropped."""
    mul, add, _, nonzero, _ = ring._coeff_ops
    if bound is None:
        bound = max(x, default=0) + max(y, default=0) + 1
    out: dict = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            e = e1 + e2
            if e >= bound:
                continue
            p = mul(c1, c2)
            s = out.get(e)
            out[e] = p if s is None else add(s, p)
    return {e: c for e, c in out.items() if nonzero(c)}


def _add_into(ring: LaurentRing, acc: dict, y: dict) -> None:
    """acc += y in place; a sum that vanishes leaves acc."""
    _, add, _, nonzero, _ = ring._coeff_ops
    for e, c in y.items():
        s = acc.get(e)
        if s is None:
            acc[e] = c
            continue
        s = add(s, c)
        if nonzero(s):
            acc[e] = s
        else:
            del acc[e]


def _unit_inverse(ring: LaurentRing, raw: dict, nu: int, prec: int) -> dict:
    """Payloads of 1/f below t^prec, for f (a payload dict) of valuation nu,
    by the module docstring's rule.  Over a scalar base, dividing by U is the
    causal recurrence of `rings._raw_series_div`, O(prec * len(U)), run on
    x = 1, then on x = -N y of the pass before.  N lowers the first unknown
    exponent by drop = nu - low(N), so pass j runs to prec + (L-1-j) drop,
    and every stored coefficient is exact."""
    mul, _, negate, nonzero, _ = ring._coeff_ops
    L = ring.nil_bound
    inv = ring.base._inv(raw[nu])
    if len(raw) == 1:
        return {-nu: inv} if -nu < prec else {}
    if isinstance(ring.base, LaurentRing):
        # m = -u = 1 - f / (lead t^nu): no constant term; negatives nilpotent
        m = {e - nu: negate(mul(c, inv)) for e, c in raw.items() if e != nu}
        m = {e: c for e, c in m.items() if nonzero(c)}
        rel_prec = prec + nu             # target precision of (1+u)^{-1}
        pole = max(0, -min(m, default=0))
        # fixed working window: anything dropped at >= work would need >= L
        # nilpotent factors to re-enter below rel_prec, so it never does
        work = rel_prec + (L - 1) * pole
        limit = max(0, work) + (L - 1) * (pole + 1) + 1
        # 1 + m + m^2 + ... until a power vanishes in the window
        one = ring.base._one_raw()
        acc, term = {0: one}, {0: one}
        for _ in range(limit):
            term = _product(ring, term, m, work)
            if not term:
                break
            _add_into(ring, acc, term)
        else:  # pragma: no cover
            raise AlgebraError("inverse iteration failed to terminate")
        out = {e - nu: mul(c, inv) for e, c in acc.items() if e < rel_prec}
        return {e: c for e, c in out.items() if nonzero(c)}
    minus_n = {e: negate(c) for e, c in raw.items() if e < nu}
    drop = nu - min(minus_n, default=nu)
    span = prec + nu + (L - 1) * drop   # passes read U below t^(nu + span)
    tail = [(e - nu, negate(raw[e])) for e in sorted(raw) if 0 < e - nu < span]
    out, x = {}, {0: ring.base._one_raw()}
    for passes_left in reversed(range(L)):
        bound = prec + passes_left * drop
        start = min(x) - nu
        y = _raw_series_div(x, start + nu, tail, inv, bound - start, ring.base)
        y = {start + n: c for n, c in enumerate(y) if nonzero(c)}
        _add_into(ring, out, {e: c for e, c in y.items() if e < prec})
        x = _product(ring, minus_n, y, bound - drop + nu)
        if not x:
            break
    return out


def laurent_inv(f: LaurentSeries, prec=None) -> LaurentSeries:
    """Multiplicative inverse of a unit series, exact on the stored part and
    cut below t^prec: by default default_precision(f) - valuation(f) for an
    exact f, and never past what a truncated f determines."""
    nu = f.valuation()
    if f.prec is not None:
        # 1/f starts at t^low or later, and a perturbation of f at t^N moves
        # it at t^(N + 2 low)
        low = -nu - (f.ring.nil_bound - 1) * (nu - f.low)
        bound = f.prec + 2 * low
        if bound <= low:
            raise PrecisionExhausted("inverse has no representable coefficients")
        prec = bound if prec is None else min(prec, bound)
    elif prec is None:
        if len(f._raw) == 1:
            return _series(f.ring, {-nu: f.ring.base._inv(f._raw[nu])})
        prec = default_precision(f) - nu
    return _series(f.ring, _unit_inverse(f.ring, f._raw, nu, prec), prec)


class UnitDecomposition:
    """f = prod_{i<0}(1 - a_i t^i) * lead * t^nu * prod_{i>0}(1 - a_i t^i).

    `neg` and `pos` map exponents i to the coefficients a_i; `cutoff` is the
    exclusive bound on stored positive indices: the product reconstructs the
    source exactly below t^(nu + cutoff).  `rem` holds the payloads of the
    normalised remainder U / U_0 = f / (neg product * lead * t^nu), from
    which `extend` reads the positive factors at another cutoff.
    """

    __slots__ = ("ring", "nu", "lead", "neg", "pos", "cutoff", "rem")

    def __init__(self, ring, nu, lead, neg, pos, cutoff, rem):
        self.ring = ring
        self.nu = nu
        self.lead = lead
        self.neg = neg
        self.pos = pos
        self.cutoff = cutoff
        self.rem = rem

    def extend(self, positive_cutoff: int) -> "UnitDecomposition":
        """The same decomposition with its positive factors below
        `positive_cutoff`, computed from `rem` without redoing the
        negative stages."""
        return UnitDecomposition(
            self.ring, self.nu, self.lead, self.neg,
            _positive_factors(self.ring, self.rem, positive_cutoff),
            positive_cutoff, self.rem)

    def reconstruct(self) -> LaurentSeries:
        ring = self.ring
        out = LaurentSeries(ring, {self.nu: self.lead}, None)
        for i, a in [*self.pos.items(), *self.neg.items()]:
            out = out * LaurentSeries(ring, {0: ring.base.one(), i: -a}, None)
        return out

    def max_pole(self) -> int:
        return -min(self.neg) if self.neg else 0

    def negative_product(self) -> LaurentSeries:
        """The exact expanded product of the negative factors."""
        out = self.ring.one()
        for i, a in self.neg.items():
            out = out * LaurentSeries(self.ring, {0: self.ring.base.one(), i: -a}, None)
        return out

    def reconstruct_bound(self) -> int:
        """reconstruct() agrees with the source strictly below this exponent.

        The positive product is complete below nu + cutoff; its error there
        can be dragged down by the expanded negative product's reach.
        """
        reach = max(0, -(self.negative_product().low or 0))
        return self.nu + self.cutoff - reach

    def __repr__(self):
        return (f"UnitDecomposition(nu={self.nu}, lead={self.lead!r}, "
                f"neg={self.neg!r}, pos={self.pos!r}, cutoff={self.cutoff})")


def require_units(message: str, *series):
    """NotAUnit(message.format(f=f)) for the first exact non-unit f; a non-unit
    truncated at any level of a tower may complete to a unit, so it raises
    PrecisionExhausted.  (`is_unit` and `valuation` read only stored terms.)"""
    missing = [f for f in series if not f.is_unit()]
    for f in missing:
        if not _truncated(f):
            raise NotAUnit(message.format(f=f))
    if missing:
        raise PrecisionExhausted(
            f"no unit among the known coefficients of {missing[0]!r}")


def _truncated(f: LaurentSeries) -> bool:
    return f.prec is not None or any(isinstance(c, LaurentSeries) and _truncated(c)
                                     for c in f._raw.values())


def unit_decompose(f: LaurentSeries, positive_cutoff=None) -> UnitDecomposition:
    """Split a unit series into elementary factors (see UnitDecomposition)
    by the Weierstrass preparation of the module docstring, on the exact
    stored part.  Positive factors stop at `positive_cutoff` (default from
    f.prec), since the positive product rarely terminates."""
    require_units("cannot decompose non-unit {f!r}", f)
    ring, base = f.ring, f.ring.base
    mul, _, negate, nonzero, wrap = ring._coeff_ops
    zero, one = base._zero_raw(), base._one_raw()
    nu, low = f.valuation(), f.low

    # stage 1: each pass lifts F by one power of the ideal.  F divides t^(L d)
    # (1/w, w = F/t^d, has s-degree <= (L-1) d), so p up to degree L d decides
    # F, and f_e t^e past that adds f_e t^(e+d-L d) Q, Q = t^(L d)/F monic, to h
    L, d = ring.nil_bound, nu - low
    p = [f._raw.get(e, zero) for e in range(low, min(max(f._raw), low + L * d) + 1)]
    F = [zero] * d + [one]
    for _ in range(L):
        U, r = _raw_divmod(p, F, base)
        if not base._is_unit(U[0]):     # a truncated tower coefficient lost it
            raise PrecisionExhausted(
                f"the stored terms of {f!r} do not determine its leading coefficient")
        if not any(map(nonzero, r)):
            break
        tail = [(i, negate(U[i])) for i in range(1, min(d, len(U)))]
        # a coefficient without stored terms is zero, so r keeps what F misses
        F = [c if nonzero(c) else zero for c in _raw_series_div(
            f._raw, low, tail, base._inv(U[0]), d, base)] + [one]
    else:
        raise PrecisionExhausted(f"the stored terms of {f!r} do not determine its negative part")
    far = {e: c for e, c in f._raw.items() if e > low + L * d}
    h = {**far, **{nu + i: c for i, c in enumerate(U) if nonzero(c)}}
    if d and far:
        Q = _raw_divmod([zero] * (L * d) + [one], F, base)[0]
        _add_into(ring, h, _product(ring, far, {
            i + d - L * d: q for i, q in enumerate(Q[:-1]) if nonzero(q)}))
    w = {d - j: c for j, c in enumerate(F) if nonzero(c)}

    # stage 2: w = prod (1 - a_e t^e), e < 0, each a_e a sum of products of at
    # least -e/d nilpotent coefficients of F, so -e is at most (L - 1) d
    neg = {-i: a for i, a in _positive_factors(ring, w, (L - 1) * d + 1).items()}

    # stage 3: positive factors up to the cutoff, from rem = h / (U_0 t^nu)
    lead = U[0]
    if positive_cutoff is None:
        positive_cutoff = max(f._raw) - nu + 1 if f.prec is None else f.prec - nu
    lead_inv = base._inv(lead)
    rem = {e - nu: x for e, c in h.items() if nonzero(x := mul(c, lead_inv))}
    return UnitDecomposition(ring, nu, wrap(lead), neg,
                             _positive_factors(ring, rem, positive_cutoff),
                             positive_cutoff, rem)


def _positive_factors(ring: LaurentRing, rem: dict, cutoff: int) -> dict:
    """{i: a_i} for 0 < i < cutoff with rem = prod (1 - a_i t^i) below
    t^cutoff, rem a payload dict with constant term 1.

    Runs on one dense list r of rem below the cutoff: dividing r by
    (1 - a t^i) is the in-place update r[k] += a r[k-i] for k rising from i,
    so r[k-i] is already divided when r[k] reads it."""
    mul, add, negate, nonzero, wrap = ring._coeff_ops
    r = [ring.base._zero_raw()] * cutoff
    for e, c in rem.items():
        if e < cutoff:
            r[e] = c
    pos: dict = {}
    for i in range(1, cutoff):
        if not nonzero(r[i]):
            continue
        a = negate(r[i])
        pos[i] = wrap(a)
        for k in range(i, cutoff):
            x = r[k - i]
            if nonzero(x):
                r[k] = add(r[k], mul(a, x))
    if any(map(nonzero, r[1:])):    # a truncation hid r[0] = 1 from the updates
        k = next(k for k in range(1, cutoff) if nonzero(r[k]))
        raise PrecisionExhausted(f"the stored terms do not determine the coefficient "
                                 f"of the positive factor at {ring.var}^{k}")
    return pos


def reduce_mod_t(f: LaurentSeries):
    """Constant term of a regular series with valuation 0 (else NotRegular)."""
    for e, c in f.coeffs.items():
        if e < 0 and not c.is_zero():
            raise NotRegular(f"{f!r} has negative-exponent terms")
    try:
        nu = f.valuation()
    except NotAUnit:
        raise NotRegular(f"{f!r} has no unit coefficient")
    if nu != 0:
        raise NotRegular(f"{f!r} has positive valuation {nu}")
    return f.coeff(0)


def iterated_ring(base: RingDescriptor, variables) -> LaurentRing:
    """base((v1))((v2))... with v1 innermost."""
    ring = base
    for v in variables:
        ring = LaurentRing(ring, v)
    return ring


def nest(tower: LaurentRing, table: dict, prec=None, inner_prec=None) -> LaurentSeries:
    """Build an element of base((inner))((outer)) from {outer_exp: {inner_exp: c}}.

    Scalars in the table are coerced into the innermost coefficient ring.
    """
    inner_ring = tower.base
    if not isinstance(inner_ring, LaurentRing):
        raise DescriptorMismatch("nest expects a two-level series tower")
    coeffs = {}
    for oe, row in table.items():
        if isinstance(row, dict):
            inner = LaurentSeries(inner_ring, {ie: inner_ring.base.coerce(c)
                                               for ie, c in row.items()}, inner_prec)
        else:
            inner = inner_ring.coerce(row)
            if inner_prec is not None:
                inner = inner.truncate(inner_prec)
        coeffs[oe] = inner
    return LaurentSeries(tower, coeffs, prec)

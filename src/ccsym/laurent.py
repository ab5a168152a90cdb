"""Truncated Laurent series over local coefficient rings, and iterated towers.

A series is a sparse map {exponent: coefficient} plus a truncation order
`prec`: stored exponents all satisfy exp < prec, and the element is understood
as (stored part) + O(t^prec).  `prec is None` means the element is an exact
Laurent polynomial.  Precision composes conservatively:

    add:  min(Na, Nb)
    mul:  min(low(a) + Nb, low(b) + Na)
    inv:  Nf - 2*valuation(f)

Coefficients may be scalars (RingValue) or again LaurentSeries, giving the
iterated rings A((t1))...((tn)) as literal series-of-series.  Both element
kinds expose the same small protocol (add/mul/inv/is_unit/is_nilpotent/...),
so all algorithms below are written once.

Over a local coefficient ring every element splits as

    f = prod_{i<0} (1 - a_i t^i) * a_0 t^nu * prod_{i>0} (1 - a_i t^i)

with the negative-index a_i nilpotent; `unit_decompose` computes this.  The
symbol evaluators live in `symbols`; they consume these decompositions.
"""

from __future__ import annotations

import operator

from .errors import (AlgebraError, DescriptorMismatch, NotAUnit, NotRegular,
                     PrecisionExhausted)
from .rings import RingDescriptor, RingValue, _power


class LaurentRing(RingDescriptor):
    """Descriptor for base((var)).  Elements are LaurentSeries instances."""

    kind = "iterated-laurent"

    def __init__(self, base: RingDescriptor, var: str = "t"):
        self.base = base
        self.var = var
        self.char = base.char
        self.is_field = base.is_field
        self.nil_bound = base.nil_bound

    def _key(self):
        return (self.base, self.var)

    def __repr__(self):
        return f"{self.base}(({self.var}))"

    def depth(self) -> int:
        inner = self.base.depth() if isinstance(self.base, LaurentRing) else 0
        return inner + 1

    def zero(self, prec=None):
        return LaurentSeries(self, {}, prec)

    def one(self):
        return LaurentSeries(self, {0: self.base.one()}, None)

    def from_int(self, n: int):
        return LaurentSeries(self, {0: self.base.from_int(n)}, None)

    def gen(self, power: int = 1):
        """The monomial var^power, exact."""
        return LaurentSeries(self, {power: self.base.one()}, None)

    def constant(self, value):
        return LaurentSeries(self, {0: self.base.coerce(value)}, None)

    def coerce(self, x):
        if isinstance(x, LaurentSeries):
            if x.ring != self:
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


def _min_exp(coeffs, default):
    return min(coeffs) if coeffs else default


class LaurentSeries:
    __slots__ = ("ring", "coeffs", "prec", "low")

    def __init__(self, ring: LaurentRing, coeffs: dict, prec=None):
        if prec is not None:
            coeffs = {e: c for e, c in coeffs.items() if e < prec}
        self.ring = ring
        self.coeffs = {e: c for e, c in coeffs.items() if not c.is_zero()}
        self.prec = prec
        self.low = _min_exp(self.coeffs, prec)

    # -- basic queries ------------------------------------------------------
    def coeff(self, e: int):
        if self.prec is not None and e >= self.prec:
            raise PrecisionExhausted(f"coefficient of {self.ring.var}^{e} beyond O({self.ring.var}^{self.prec})")
        return self.coeffs.get(e, self.ring.base.zero())

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return set(self.coeffs) == {0} and self.coeffs[0].is_one()

    def is_unit(self) -> bool:
        return any(c.is_unit() for c in self.coeffs.values())

    def is_nilpotent(self) -> bool:
        # trusts the truncation: the unknown tail of a non-unit over a local
        # ring is nilpotent anyway
        return all(c.is_nilpotent() for c in self.coeffs.values())

    def valuation(self) -> int:
        """Least exponent carrying a unit coefficient.

        Well defined because the coefficient ring is local: everything below
        the first unit is nilpotent.  NotAUnit if no unit coefficient exists
        in the stored window.
        """
        for e in sorted(self.coeffs):
            if self.coeffs[e].is_unit():
                return e
        raise NotAUnit(f"no unit coefficient below truncation in {self}")

    def degree(self) -> int:
        if not self.coeffs:
            raise AlgebraError("zero series has no degree")
        return max(self.coeffs)

    # -- arithmetic -----------------------------------------------------------
    def _lift(self, other) -> "LaurentSeries":
        return self.ring.coerce(other)

    def __add__(self, other):
        o = self._lift(other)
        prec = _merge_prec(self.prec, o.prec)
        coeffs = dict(self.coeffs)
        for e, c in o.coeffs.items():
            s = coeffs.get(e)
            coeffs[e] = c if s is None else s + c
        return LaurentSeries(self.ring, coeffs, prec)

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries(self.ring, {e: -c for e, c in self.coeffs.items()}, self.prec)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        o = self._lift(other)
        prec = _mul_prec(self, o)
        coeffs: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in o.coeffs.items():
                e = e1 + e2
                if prec is not None and e >= prec:
                    continue
                p = c1 * c2
                s = coeffs.get(e)
                coeffs[e] = p if s is None else s + p
        result = LaurentSeries(self.ring, coeffs, prec)
        if prec is not None and not result.coeffs and (self.coeffs and o.coeffs):
            lowest = self.low + o.low
            if lowest >= prec:
                raise PrecisionExhausted("product has no representable coefficients")
        return result

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by var^k (exact reindexing)."""
        prec = None if self.prec is None else self.prec + k
        return LaurentSeries(self.ring, {e + k: c for e, c in self.coeffs.items()}, prec)

    def scale(self, scalar) -> "LaurentSeries":
        s = self.ring.base.coerce(scalar)
        return LaurentSeries(self.ring, {e: c * s for e, c in self.coeffs.items()}, self.prec)

    def truncate(self, prec: int) -> "LaurentSeries":
        new = prec if self.prec is None else min(self.prec, prec)
        return LaurentSeries(self.ring, self.coeffs, new)

    def inv(self, prec=None) -> "LaurentSeries":
        return laurent_inv(self, prec)

    def __truediv__(self, other):
        return self * self._lift(other).inv()

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        return _power(self, e, self.ring.one(), operator.mul)

    # -- structure ------------------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (self.ring == other.ring and self.coeffs == other.coeffs
                and self.prec == other.prec)

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.coeffs.items(), key=lambda kv: kv[0])), self.prec))

    def agrees_with(self, other, upto=None) -> bool:
        """Equality of coefficients below min(precisions, upto)."""
        o = self._lift(other)
        bound = _merge_prec(self.prec, o.prec)
        bound = _merge_prec(bound, upto)
        for e in set(self.coeffs) | set(o.coeffs):
            if bound is not None and e >= bound:
                continue
            if not (self.coeffs.get(e, self.ring.base.zero())
                    == o.coeffs.get(e, self.ring.base.zero())):
                return False
        return True

    def __repr__(self):
        return format_series(self)


def format_series(f: LaurentSeries) -> str:
    """Canonical text form: terms by ascending exponent, then O(var^prec).

    Coefficient text is parenthesized when composite; a coefficient of 1 is
    dropped next to a variable power; bare exponent 1 prints as plain var.
    The result round-trips through the expression parser.
    """
    from .rings import format_value
    var = f.ring.var
    parts = []
    for e in sorted(f.coeffs):
        c = f.coeffs[e]
        ctext = format_value(c) if isinstance(c, RingValue) else format_series(c)
        composite = any(ch in ctext for ch in " +*/^")
        if e == 0:
            parts.append(f"({ctext})" if composite else ctext)
            continue
        power = var if e == 1 else f"{var}^{e}"
        if ctext == "1":
            parts.append(power)
        elif composite:
            parts.append(f"({ctext})*{power}")
        else:
            parts.append(f"{ctext}*{power}")
    body = " + ".join(parts)
    if f.prec is not None:
        tail = f"O({var}^{f.prec})"
        body = f"{body} + {tail}" if body else tail
    return body or "0"


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
        if f.coeffs:
            pole = max(pole, -min(f.low, 0))
    return pole * bound + 8


def laurent_inv(f: LaurentSeries, prec=None) -> LaurentSeries:
    """Multiplicative inverse of a unit series.

    The stored part is exact, so the inverse is computed exactly on it and
    then truncated: to `prec` if given, to f.prec - 2*valuation(f) otherwise
    (the honest bound on what the truncated input determines).  Nilpotent
    below-valuation coefficients make the geometric series terminate.
    """
    nu = f.valuation()
    L = f.ring.nil_bound
    tail_depth = max(0, nu - f.low)
    if prec is None:
        if f.prec is None:
            if len(f.coeffs) == 1:
                e, c = next(iter(f.coeffs.items()))
                return LaurentSeries(f.ring, {-e: c.inv()}, None)
            prec = default_precision(f) - nu
        else:
            # a perturbation of f at t^N moves 1/f at N - 2nu - 2(L-1)*pole
            prec = f.prec - 2 * nu - 2 * (L - 1) * tail_depth
            if prec <= -nu - (L - 1) * tail_depth:
                raise PrecisionExhausted("inverse has no representable coefficients")
    lead = f.coeffs[nu]
    lead_inv = lead.inv()
    # u = f / (lead * t^nu) - 1: no constant term; negatives nilpotent
    u = LaurentSeries(f.ring,
                      {e - nu: c * lead_inv for e, c in f.coeffs.items() if e != nu},
                      None)
    rel_prec = prec + nu             # target precision of (1+u)^{-1}
    pole = max(0, -(u.low if u.low is not None else 0))
    # fixed working window: anything dropped at >= work would need >= L
    # nilpotent factors to re-enter below rel_prec, so it never does
    work = rel_prec + (L - 1) * pole
    minus_u = -u
    acc = f.ring.one()
    term = f.ring.one()
    limit = max(0, work) + (L - 1) * (pole + 1) + 1
    for _ in range(limit):
        raw = term * minus_u         # both exact: no precision bookkeeping
        term = LaurentSeries(f.ring,
                             {e: c for e, c in raw.coeffs.items() if e < work},
                             None)
        if term.is_zero():
            break
        acc = acc + term
    else:
        if not term.is_zero():  # pragma: no cover
            raise AlgebraError("inverse iteration failed to terminate")
    return LaurentSeries(f.ring, {e - nu: c * lead_inv for e, c in acc.coeffs.items()},
                         None).truncate(prec)


class UnitDecomposition:
    """f = prod_{i<0}(1 - a_i t^i) * lead * t^nu * prod_{i>0}(1 - a_i t^i).

    `neg` and `pos` map exponents i to the coefficients a_i; `cutoff` is the
    exclusive bound on stored positive indices: the product reconstructs the
    source exactly below t^(nu + cutoff).
    """

    __slots__ = ("ring", "nu", "lead", "neg", "pos", "cutoff")

    def __init__(self, ring, nu, lead, neg, pos, cutoff):
        self.ring = ring
        self.nu = nu
        self.lead = lead
        self.neg = neg
        self.pos = pos
        self.cutoff = cutoff

    def reconstruct(self) -> LaurentSeries:
        ring = self.ring
        out = LaurentSeries(ring, {self.nu: self.lead}, None)
        for i, a in self.pos.items():
            out = out * LaurentSeries(ring, {0: ring.base.one(), i: -a}, None)
        for i, a in self.neg.items():
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


def unit_decompose(f: LaurentSeries, positive_cutoff=None) -> UnitDecomposition:
    """Split a unit series into elementary factors (see UnitDecomposition).

    Works on the exact stored part.  The nilpotent below-valuation tail is
    peeled in two stages: first f is divided by 1 + (tail * f_reg^{-1}) style
    correctors until nothing survives below the valuation (the surviving
    order doubles each pass, so nil_bound passes suffice), then the clean
    corrector product is resolved into factors (1 - a_i t^i) one exponent at
    a time from -1 downward, which is triangular and exact.  Positive factors
    are then read off upward; they are truncated at `positive_cutoff` (default
    from f.prec) since the positive product rarely terminates.
    """
    if not f.is_unit():
        raise NotAUnit(f"cannot decompose non-unit {f!r}")
    ring = f.ring
    nu = f.valuation()
    exact = LaurentSeries(ring, f.coeffs, None)

    # stage 1: strip the nilpotent negative tail
    h = exact
    w_acc = ring.one()
    for _ in range(ring.nil_bound + 2):
        tail = LaurentSeries(ring, {e: c for e, c in h.coeffs.items() if e < nu}, None)
        if tail.is_zero():
            break
        regular = h - tail
        depth = nu - tail.low
        r_inv = laurent_inv(regular, prec=depth - nu + 1)
        prod = tail * r_inv
        w = ring.one() + LaurentSeries(
            ring, {e: c for e, c in prod.coeffs.items() if e < 0}, None)
        w_inv = _nilpotent_unit_inverse(w)
        h = h * w_inv
        w_acc = w_acc * w
    else:  # pragma: no cover
        raise AlgebraError("negative-tail elimination failed to converge")

    # stage 2: resolve w_acc into factors, least-negative exponent first;
    # dividing by (1 - a_e t^e) only touches exponents below e, so each a_e
    # is read once and never revisited
    neg: dict = {}
    w_rem = w_acc
    while True:
        tail_exps = [e for e in w_rem.coeffs if e < 0]
        if not tail_exps:
            break
        e = max(tail_exps)
        a = -w_rem.coeffs[e]
        neg[e] = a
        factor = LaurentSeries(ring, {0: ring.base.one(), e: -a}, None)
        w_rem = w_rem * _nilpotent_unit_inverse(factor)
    if not w_rem.is_one():  # pragma: no cover
        raise AlgebraError("negative part did not resolve cleanly")

    # stage 3: positive factors up to the cutoff
    lead = h.coeffs[nu]
    if positive_cutoff is None:
        if f.prec is not None:
            positive_cutoff = f.prec - nu
        else:
            positive_cutoff = (h.degree() - nu) + 1 if h.coeffs else 1
    pos: dict = {}
    lead_inv = lead.inv()
    rem = h.shift(-nu).scale(lead_inv).truncate(positive_cutoff)
    for i in range(1, positive_cutoff):
        c = rem.coeffs.get(i)
        if c is None:
            continue
        a = -c
        pos[i] = a
        inv_factor = _geometric_inverse(ring, i, a, positive_cutoff)
        rem = (rem * inv_factor).truncate(positive_cutoff)
    if not (set(rem.coeffs) <= {0}):  # pragma: no cover
        raise AlgebraError("positive part did not resolve cleanly")
    return UnitDecomposition(ring, nu, lead, neg, pos, positive_cutoff)


def _nilpotent_unit_inverse(w: LaurentSeries) -> LaurentSeries:
    """Exact inverse of 1 + n where n has only negative, nilpotent coefficients."""
    ring = w.ring
    n = LaurentSeries(ring, {e: c for e, c in w.coeffs.items() if e != 0}, None)
    acc = ring.one()
    term = ring.one()
    for _ in range(ring.nil_bound - 1 if ring.nil_bound > 1 else 0):
        term = term * (-n)
        if term.is_zero():
            break
        acc = acc + term
    return acc


def _geometric_inverse(series_ring: LaurentRing, i: int, a, cutoff: int) -> LaurentSeries:
    """(1 - a t^i)^{-1} truncated to the cutoff: 1 + a t^i + a^2 t^{2i} + ..."""
    coeffs = {0: series_ring.base.one()}
    power = a
    e = i
    while e < cutoff:
        coeffs[e] = power
        power = power * a
        e += i
    return LaurentSeries(series_ring, coeffs, cutoff)


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

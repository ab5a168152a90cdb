import random

import pytest
from hypothesis import given, strategies as st

from ccsym.errors import AlgebraError, NotAUnit, NotRegular, PrecisionExhausted
from ccsym.laurent import (LaurentRing, LaurentSeries, UnitDecomposition,
                           _add_into, _merge_prec, _mul_prec,
                           _positive_factors, _product, _unit_inverse,
                           default_precision, format_series, iterated_ring,
                           laurent_inv, nest, reduce_mod_t, require_units,
                           unit_decompose)
from ccsym.rings import (ArtinianLocal, GaloisField, PrimeField, RingValue,
                         format_value)

F3, F5 = PrimeField(3), PrimeField(5)
A32 = ArtinianLocal(F3, 2)
A53 = ArtinianLocal(F5, 3)

BASES = [PrimeField(2), F5, PrimeField(7), GaloisField(2, 2), GaloisField(3, 2),
         A32, A53, ArtinianLocal(GaloisField(3, 2), 2)]


def random_series(base, rng, low=-3, high=5, prec=None):
    ring = LaurentRing(base, "t")
    return ring.random(rng, low=low, high=high, prec=prec)


class TestArithmetic:
    def test_addition_merges_precision(self):
        R = LaurentRing(F5, "t")
        a = (R.one() + R.gen()).truncate(4)
        b = R.gen(2).truncate(7)
        assert (a + b).prec == 4

    def test_multiplication_precision_uses_lowest_terms(self):
        R = LaurentRing(F5, "t")
        a = R.gen(-2) + R.gen(0)          # low -2, exact
        b = (R.one() + R.gen()).truncate(5)
        # min(low(a)+prec(b), low(b)+prec(a)) = min(-2+5, n/a) = 3
        assert (a * b).prec == 3

    def test_exact_times_exact_stays_exact(self):
        R = LaurentRing(F3, "t")
        assert ((R.one() + R.gen()) * R.gen(-4)).prec is None

    def test_coeff_beyond_precision_raises(self):
        R = LaurentRing(F5, "t")
        f = R.one().truncate(3)
        with pytest.raises(PrecisionExhausted):
            f.coeff(3)

    def test_valuation_needs_a_unit_coefficient(self):
        RA = LaurentRing(A32, "t")
        nil = RA.gen(-1).scale(A32.eps())
        with pytest.raises(NotAUnit):
            nil.valuation()

    def test_valuation_skips_nilpotent_tail(self):
        RA = LaurentRing(A32, "t")
        f = RA.one() + RA.gen(-2).scale(A32.eps())
        assert f.valuation() == 0
        assert f.is_unit()

    def test_scale_by_a_nilpotent_drops_vanishing_terms(self):
        RA = LaurentRing(A32, "t")
        eps = A32.eps()
        f = (RA.one() + RA.gen(2).scale(eps)).scale(eps)
        assert f.coeffs == {0: eps} and f.low == 0

    def test_reduce_mod_t(self):
        R = LaurentRing(F5, "t")
        assert reduce_mod_t(R.one() + R.gen(3)) == F5.one()
        with pytest.raises(NotRegular):
            reduce_mod_t(R.gen(1) + R.gen(2))       # positive valuation
        with pytest.raises(NotRegular):
            reduce_mod_t(R.gen(-1) + R.one())       # genuine pole
        RA = LaurentRing(A32, "t")
        with pytest.raises(NotRegular):
            # nilpotent pole still blocks reduction
            reduce_mod_t(RA.one() + RA.gen(-1).scale(A32.eps()))


class TestInverse:
    def test_monomial_inverse_is_exact(self):
        R = LaurentRing(F5, "t")
        m = R.gen(-3).scale(F5.from_int(2))
        assert m.inv().prec is None
        assert (m * m.inv()).agrees_with(1)

    def test_plain_series(self):
        R = LaurentRing(F5, "t")
        f = (R.gen() ** 2) * (1 + R.gen())
        assert (f * f.inv()).agrees_with(1)

    def test_nilpotent_pole_inverse_is_exact_value(self):
        RA = LaurentRing(A32, "t")
        f = RA.one() - RA.gen(-1).scale(A32.eps())
        assert f.inv().agrees_with(RA.one() + RA.gen(-1).scale(A32.eps()))

    def test_truncated_input_honest_output_precision(self):
        RA = LaurentRing(A32, "t")
        f = (RA.one() - RA.gen(-1).scale(A32.eps())).truncate(10)
        fi = f.inv()
        # N - 2*nu - 2*(L-1)*pole = 10 - 0 - 2*1*1
        assert fi.prec == 8
        assert (f * fi).agrees_with(1)

    def test_non_unit_inverse_raises(self):
        RA = LaurentRing(A32, "t")
        with pytest.raises(NotAUnit):
            RA.gen(2).scale(A32.eps()).inv()

    @pytest.mark.parametrize("seed", range(6))
    def test_random_inverses(self, seed):
        rng = random.Random(seed)
        for base in BASES:
            for _ in range(12):
                f = random_series(base, rng)
                if not f.is_unit():
                    continue
                try:
                    fi = f.inv()
                except PrecisionExhausted:
                    continue
                assert (f * fi).agrees_with(1), (base, f, fi)


class TestUnitDecompose:
    def test_nilpotent_tail_example(self):
        RA = LaurentRing(A32, "t")
        eps = A32.eps()
        f = RA.one() - RA.gen(-2).scale(eps)
        d = unit_decompose(f)
        assert d.nu == 0 and d.lead.is_one()
        assert d.neg == {-2: eps} and d.pos == {}

    def test_composite(self):
        A52 = ArtinianLocal(F5, 2)
        R = LaurentRing(A52, "t")
        t, eps = R.gen(), A52.eps()
        f = (t ** 3) * (2 + t) * (R.one() - R.gen(-1).scale(eps))
        d = unit_decompose(f)
        assert d.nu == 3
        assert d.lead == A52.from_int(2)
        assert d.neg == {-1: eps}
        assert d.pos == {1: A52.from_int(2)}   # (2+t) = 2*(1 - 2 t) over F5

    def test_field_coefficients_have_no_negative_factors(self, rng):
        for _ in range(40):
            f = random_series(F5, rng, low=-4, high=4)
            if not f.is_unit():
                continue
            d = unit_decompose(f)
            assert d.neg == {}
            assert min(f.coeffs) == d.nu

    def test_non_unit_rejected(self):
        RA = LaurentRing(A32, "t")
        with pytest.raises(NotAUnit):
            unit_decompose(RA.gen(1).scale(A32.eps()))

    def test_truncated_non_unit_is_undetermined(self):
        # e + O(t^3) has no known unit coefficient, yet e + t^3 + O(t^4)
        # completes it to a unit; the same holds inside a tower
        RA = LaurentRing(A32, "t")
        eps = A32.eps()
        assert (RA.constant(eps) + RA.gen(3)).truncate(4).is_unit()
        tower = iterated_ring(A32, ["t1", "t2"])
        for x in (RA.constant(eps).truncate(3), nest(tower, {0: {0: eps}}, prec=2),
                  nest(tower, {0: {0: eps}}, inner_prec=3)):
            assert not x.is_unit()
            with pytest.raises(PrecisionExhausted, match="no unit among the known"):
                unit_decompose(x)
        with pytest.raises(NotAUnit, match="cannot decompose non-unit"):
            unit_decompose(nest(tower, {0: {0: eps}}))

    @pytest.mark.parametrize("seed", range(8))
    def test_round_trip_below_guaranteed_bound(self, seed):
        rng = random.Random(seed)
        for base in BASES:
            for _ in range(10):
                f = random_series(base, rng)
                if not f.is_unit():
                    continue
                d = unit_decompose(f)
                assert d.reconstruct().agrees_with(f, upto=d.reconstruct_bound()), (base, f, d)

    @pytest.mark.parametrize("seed", range(4))
    def test_factors_stable_under_wider_cutoff(self, seed):
        rng = random.Random(100 + seed)
        for base in BASES:
            f = random_series(base, rng)
            if not f.is_unit():
                continue
            d1 = unit_decompose(f)
            d2 = unit_decompose(f, positive_cutoff=d1.cutoff + 6)
            assert (d1.nu, d1.lead, d1.neg) == (d2.nu, d2.lead, d2.neg)
            assert all(d2.pos.get(i) == a for i, a in d1.pos.items())

    def test_negative_exponents_bounded_by_nilpotency(self, rng):
        # factors below t^-((L-1)*pole) cannot occur
        for _ in range(40):
            f = random_series(A53, rng, low=-3, high=3)
            if not f.is_unit():
                continue
            d = unit_decompose(f)
            pole = max(0, d.nu - min(f.coeffs))
            L = A53.nil_bound
            assert all(-(L - 1) * pole <= i < 0 for i in d.neg), (f, d)
            assert all(a.is_nilpotent() for a in d.neg.values())


class TestNestedTowers:
    def test_two_level_arithmetic(self):
        T = iterated_ring(F3, ["t1", "t2"])
        s = nest(T, {0: {1: 1}, 1: {0: 1}})       # t1 + t2
        assert reduce_mod_t(s) == T.base.gen()
        assert (s * s.inv()).agrees_with(1)

    def test_nested_decomposition(self):
        T = iterated_ring(F5, ["t1", "t2"])
        s = nest(T, {0: {1: 1}, 1: {0: 1}})
        d = unit_decompose(s)
        assert d.nu == 0
        assert d.lead == T.base.gen()             # leading coefficient t1
        assert d.reconstruct().agrees_with(s, upto=d.reconstruct_bound())

    def test_depth(self):
        T = iterated_ring(F3, ["t1", "t2", "t3"])
        assert T.depth() == 3
        assert T.var == "t3"


class TestFormatting:
    def test_ascending_with_tail(self):
        R = LaurentRing(F5, "t")
        f = (R.gen(-2).scale(F5.from_int(3)) + R.one()).truncate(4)
        assert format_series(f) == "3*t^-2 + 1 + O(t^4)"

    def test_composite_coefficients_parenthesized(self):
        RA = LaurentRing(A32, "t")
        f = RA.one() + RA.gen(1).scale(A32.eps())
        assert format_series(f) == "1 + e*t"
        g = RA.gen(1).scale(A32.one() + A32.eps())
        assert format_series(g) == "(1 + e)*t"

    def test_zero(self):
        R = LaurentRing(F5, "t")
        assert format_series(R.zero()) == "0"
        assert format_series(R.zero(prec=3)) == "O(t^3)"

    def test_matches_the_standalone_printer(self):
        # format_series prints through the term formatter that Poly and
        # format_value share; the printer it replaced is the oracle
        rng = random.Random(16)
        rings = [LaurentRing(b, "t") for b in (F5, GaloisField(3, 2),
                                               ArtinianLocal(F3, 3))]
        towers = [iterated_ring(b, ["t1", "t2"])
                  for b in (F5, GaloisField(3, 2), A32)]
        cases = [R.zero() for R in rings + towers]
        cases += [R.zero(prec=p) for R in rings + towers for p in (-2, 0, 3)]
        for R in rings + towers:
            for _ in range(60):
                low = rng.randrange(-4, 2)
                prec = rng.choice([None, None, low + rng.randrange(0, 8)])
                cases.append(R.random(rng, low=low, high=low + 6, prec=prec))
        for T in towers:
            for _ in range(20):
                table = {rng.randrange(-2, 3): {rng.randrange(-2, 3):
                                                T.base.base.random(rng)}
                         for _ in range(3)}
                cases.append(nest(T, table, prec=rng.choice([None, 4]),
                                  inner_prec=rng.choice([None, 3])))
        seen = set()
        for f in cases:
            text = format_series(f)
            assert text == _standalone_format_series(f)
            seen.add(text)
        assert {"0", "O(t^0)", "O(t2^-2)"} <= seen
        assert any(text.startswith("(") for text in seen)
        assert any("^-" in text for text in seen)


def _standalone_format_series(f):
    """The printer format_series replaced, with its own copy of the term
    rules."""
    var = f.ring.var
    parts = []
    for e in sorted(f.coeffs):
        c = f.coeffs[e]
        ctext = (format_value(c) if isinstance(c, RingValue)
                 else _standalone_format_series(c))
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


@given(st.integers(min_value=0, max_value=10_000))
def test_mul_commutes_and_distributes(seed):
    rng = random.Random(seed)
    base = BASES[seed % len(BASES)]
    f = random_series(base, rng)
    g = random_series(base, rng)
    h = random_series(base, rng)
    assert (f * g).agrees_with(g * f)
    lhs = f * (g + h)
    rhs = f * g + f * h
    assert lhs.agrees_with(rhs)


@given(st.integers(min_value=0, max_value=10_000))
def test_valuation_additive_on_units(seed):
    rng = random.Random(seed)
    base = BASES[seed % len(BASES)]
    f, g = random_series(base, rng), random_series(base, rng)
    if not (f.is_unit() and g.is_unit()):
        return
    assert (f * g).valuation() == f.valuation() + g.valuation()


@given(st.integers(min_value=0, max_value=10_000))
def test_default_precision_covers_poles(seed):
    rng = random.Random(seed)
    base = BASES[seed % len(BASES)]
    f = random_series(base, rng, low=-5, high=2)
    n = default_precision(f)
    pole = -min(min(f.coeffs), 0) if f.coeffs else 0
    assert n >= pole * base.nil_bound + 8


# -- oracles: the wrapped algorithms that the payload kernel replaced --------
# Coefficients go through RingValue arithmetic, or recursively through these
# functions when they are series, and results through the public
# LaurentSeries constructor; no oracle runs a kernel loop.

def _c_add(a, b):
    return _o_add(a, b) if isinstance(a, LaurentSeries) else a + b


def _c_neg(a):
    return _o_neg(a) if isinstance(a, LaurentSeries) else -a


def _c_mul(a, b):
    return _o_mul(a, b) if isinstance(a, LaurentSeries) else a * b


def _c_inv(a):
    return _o_inv(a) if isinstance(a, LaurentSeries) else a.inv()


def _o_add(x, y):
    coeffs = dict(x.coeffs)
    for e, c in y.coeffs.items():
        s = coeffs.get(e)
        coeffs[e] = c if s is None else _c_add(s, c)
    return LaurentSeries(x.ring, coeffs, _merge_prec(x.prec, y.prec))


def _o_neg(x):
    return LaurentSeries(x.ring, {e: _c_neg(c) for e, c in x.coeffs.items()}, x.prec)


def _o_mul(x, y):
    """Schoolbook product."""
    prec = _mul_prec(x, y)
    coeffs = {}
    for e1, c1 in x.coeffs.items():
        for e2, c2 in y.coeffs.items():
            e = e1 + e2
            if prec is not None and e >= prec:
                continue
            p = _c_mul(c1, c2)
            s = coeffs.get(e)
            coeffs[e] = p if s is None else _c_add(s, p)
    result = LaurentSeries(x.ring, coeffs, prec)
    if prec is not None and not result.coeffs and (x.coeffs and y.coeffs):
        if x.low + y.low >= prec:
            raise PrecisionExhausted("product has no representable coefficients")
    return result


def _o_inv(f, prec=None):
    """Geometric-iteration inverse, one LaurentSeries per step."""
    ring = f.ring
    nu = f.valuation()
    L = ring.nil_bound
    tail_depth = max(0, nu - f.low)
    if f.prec is not None:
        bound = f.prec - 2 * nu - 2 * (L - 1) * tail_depth
        if bound <= -nu - (L - 1) * tail_depth:
            raise PrecisionExhausted("inverse has no representable coefficients")
        prec = bound if prec is None else min(prec, bound)
    elif prec is None:
        if len(f.coeffs) == 1:
            e, c = next(iter(f.coeffs.items()))
            return LaurentSeries(ring, {-e: _c_inv(c)}, None)
        prec = default_precision(f) - nu
    lead_inv = _c_inv(f.coeffs[nu])
    u = LaurentSeries(ring, {e - nu: _c_mul(c, lead_inv)
                             for e, c in f.coeffs.items() if e != nu}, None)
    rel_prec = prec + nu
    pole = max(0, -(u.low if u.low is not None else 0))
    work = rel_prec + (L - 1) * pole
    minus_u = _o_neg(u)
    acc = term = ring.one()
    for _ in range(max(0, work) + (L - 1) * (pole + 1) + 1):
        raw = _o_mul(term, minus_u)
        term = LaurentSeries(ring, {e: c for e, c in raw.coeffs.items() if e < work}, None)
        if term.is_zero():
            break
        acc = _o_add(acc, term)
    else:
        raise AlgebraError("inverse iteration failed to terminate")
    return LaurentSeries(ring, {e - nu: _c_mul(c, lead_inv) for e, c in acc.coeffs.items()},
                         None).truncate(prec)


def _o_nilpotent_unit_inverse(w):
    ring = w.ring
    minus_n = _o_neg(LaurentSeries(ring, {e: c for e, c in w.coeffs.items() if e != 0}))
    acc = term = ring.one()
    for _ in range(ring.nil_bound - 1):
        term = _o_mul(term, minus_n)
        if term.is_zero():
            break
        acc = _o_add(acc, term)
    return acc


def _o_geometric_inverse(ring, i, a, cutoff):
    """(1 - a t^i)^{-1} truncated to the cutoff."""
    coeffs = {0: ring.base.one()}
    power, e = a, i
    while e < cutoff:
        coeffs[e] = power
        power = _c_mul(power, a)
        e += i
    return LaurentSeries(ring, coeffs, cutoff)


def _o_unit_decompose(f, cutoff=None):
    """(nu, lead, neg, pos, cutoff, exact), stage 3 multiplying by geometric
    inverses; `exact` says that no coefficient entering stage 3 carries a
    precision (always so over a scalar base)."""
    ring = f.ring
    one = ring.base.one()
    nu = f.valuation()
    h = LaurentSeries(ring, f.coeffs)
    w_acc = ring.one()
    for _ in range(ring.nil_bound + 2):
        tail = LaurentSeries(ring, {e: c for e, c in h.coeffs.items() if e < nu})
        if tail.is_zero():
            break
        regular = _o_add(h, _o_neg(tail))
        r_inv = _o_inv(regular, prec=nu - tail.low - nu + 1)
        prod = _o_mul(tail, r_inv)
        w = _o_add(ring.one(), LaurentSeries(ring, {e: c for e, c in prod.coeffs.items()
                                                    if e < 0}))
        h = _o_mul(h, _o_nilpotent_unit_inverse(w))
        w_acc = _o_mul(w_acc, w)
    else:
        raise AlgebraError("negative-tail elimination failed to converge")
    neg = {}
    while True:
        tail_exps = [e for e in w_acc.coeffs if e < 0]
        if not tail_exps:
            break
        e = max(tail_exps)
        a = _c_neg(w_acc.coeffs[e])
        neg[e] = a
        factor = LaurentSeries(ring, {0: one, e: _c_neg(a)})
        w_acc = _o_mul(w_acc, _o_nilpotent_unit_inverse(factor))
    if not w_acc.is_one():
        raise AlgebraError("negative part did not resolve cleanly")
    lead = h.coeffs[nu]
    if not lead.is_unit():
        # lead = f_nu modulo the maximal ideal, so only a truncated inner
        # coefficient loses its unit term
        raise PrecisionExhausted("the leading coefficient is not determined")
    if cutoff is None:
        cutoff = f.prec - nu if f.prec is not None else h.degree() - nu + 1
    lead_inv = _c_inv(lead)
    exact = all(getattr(c, "prec", None) is None
                for c in [lead_inv, *h.coeffs.values()])
    rem = LaurentSeries(ring, {e - nu: _c_mul(c, lead_inv) for e, c in h.coeffs.items()},
                        cutoff)
    pos = {}
    for i in range(1, cutoff):
        c = rem.coeffs.get(i)
        if c is None:
            continue
        a = _c_neg(c)
        pos[i] = a
        rem = _o_mul(rem, _o_geometric_inverse(ring, i, a, cutoff)).truncate(cutoff)
    if not set(rem.coeffs) <= {0}:
        # only a truncation leaves rem without its constant term 1
        raise PrecisionExhausted("positive part did not resolve cleanly")
    return nu, lead, neg, pos, cutoff, exact


# -- the payload kernel against the oracles ----------------------------------

A33 = ArtinianLocal(F3, 3)
A52 = ArtinianLocal(F5, 2)
DIFF_BASES = {"F2": PrimeField(2), "F9": GaloisField(3, 2), "F5[e]/e^2": A52,
              "F3[e]/e^3": A33, "F2[e]/e^4": ArtinianLocal(PrimeField(2), 4)}
# depth-2 towers as (base, inner terms, inner precision): monomial inner
# coefficients keep every inner operation exact, longer truncated ones do
# not; towers over F3[e]/e^2 have nilpotent inner coefficients, hence
# negative factors on the outer variable
TOWERS = {"F5((t1))((t2))": (F5, 1, None), "F5((t1))((t2)) truncated": (F5, 4, 4),
          "F3[e]/e^2((t1))((t2))": (A32, 1, None),
          "F3[e]/e^2((t1))((t2)) truncated": (A32, 3, 5)}
INEXACT = {"F5((t1))((t2)) truncated", "F3[e]/e^2((t1))((t2)) truncated"}
DIFF_RINGS = sorted(DIFF_BASES) + sorted(TOWERS)


PRECISIONS = (None, None, 5, 8)


def _diff_samples(label, seed, count):
    rng = random.Random(f"{label}:{seed}")
    if label in DIFF_BASES:
        ring = LaurentRing(DIFF_BASES[label], "t")
        return [ring.random(rng, low=-3, high=5, prec=rng.choice(PRECISIONS))
                for _ in range(count)]
    base, terms, inner_prec = TOWERS[label]
    tower = iterated_ring(base, ["t1", "t2"])
    out = []
    for _ in range(count):
        table = {oe: {ie: base.random(rng) for ie in rng.sample(range(-1, 3), terms)}
                 for oe in range(-2, 3) if rng.random() < 0.6}
        out.append(nest(tower, table, prec=rng.choice(PRECISIONS), inner_prec=inner_prec))
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PrecisionExhausted as exc:
        return ("PrecisionExhausted", str(exc))


@pytest.mark.parametrize("label", DIFF_RINGS)
def test_product_matches_schoolbook_oracle(label):
    xs = _diff_samples(label, 1, 24)
    ys = _diff_samples(label, 2, 24)
    for x, y in zip(xs, ys):
        assert _outcome(lambda: x * y) == _outcome(_o_mul, x, y), (x, y)
        assert x + y == _o_add(x, y) and -x == _o_neg(x)


def test_product_of_cancelling_terms_is_an_empty_window():
    RA = LaurentRing(A52, "t")
    eps = RA.gen(-1).scale(A52.eps())
    x = (eps + RA.gen(2).scale(A52.eps())).truncate(4)
    product = eps * x                     # every term is a multiple of e^2 = 0
    assert product == _o_mul(eps, x)
    assert not product.coeffs and product.prec == 3


def _tail_samples(label, count):
    """Units over an artinian base with two to four nilpotent terms below
    the valuation, so that the inverse runs its later passes."""
    base = DIFF_BASES[label]
    ring = LaurentRing(base, "t")
    rng = random.Random(f"nilpotent tails {label}")
    out = []
    while len(out) < count:
        nu = rng.randrange(-1, 3)
        coeffs = {e: base.eps() * base.random(rng)
                  for e in rng.sample(range(nu - 4, nu), rng.randrange(2, 5))}
        coeffs[nu] = base.random_unit(rng)
        coeffs.update({e: base.random(rng) for e in range(nu + 1, nu + 6)
                       if rng.random() < 0.6})
        f = LaurentSeries(ring, coeffs, rng.choice((None, None, nu + 30)))
        if sum(e < nu for e in f.coeffs) >= 2:
            out.append(f)
    return out


TAIL_SAMPLES = {"F3[e]/e^3", "F2[e]/e^4"}


@pytest.mark.parametrize("label", DIFF_RINGS)
def test_inverse_matches_geometric_oracle(label):
    units = [f for f in _diff_samples(label, 3, 40) if f.is_unit()]
    assert len(units) >= 10
    if label in TAIL_SAMPLES:
        units += _tail_samples(label, 12)
    for f in units:
        for prec in (None, f.valuation() + 3, -f.valuation(), 25, 60):
            assert (_outcome(laurent_inv, f, prec) == _outcome(_o_inv, f, prec)), (f, prec)


COMPLETION_BASES = {"F5": F5, "F9": GaloisField(3, 2), "F3[e]/e^2": A32,
                    "F5[e]/e^2": A52}


@pytest.mark.parametrize("label", sorted(COMPLETION_BASES))
def test_inverse_of_a_truncated_unit_is_determined_by_it(label):
    # an explicit precision past the default bound fabricates nothing: every
    # stored coefficient is that of the inverse of each random completion
    base = COMPLETION_BASES[label]
    ring = LaurentRing(base, "t")
    rng = random.Random(f"completions {label}")
    checked = 0
    for _ in range(60):
        f = ring.random(rng, low=-2, high=6, prec=rng.randrange(3, 9))
        if not f.is_unit():
            continue
        try:
            bound = laurent_inv(f).prec
        except PrecisionExhausted:
            continue
        completions = [LaurentSeries(ring, {**f.coeffs, **{
            e: base.random(rng) for e in range(f.prec, f.prec + 10)}})
            for _ in range(4)]
        for prec in range(bound, max(bound, f.prec) + 4):
            got = laurent_inv(f, prec)
            assert got.prec == bound, (f, prec)
            for g in completions:
                assert got == laurent_inv(g, bound), (f, prec, g)
            checked += 1
    assert checked >= 40


def test_inverse_over_a_truncated_tower_matches_oracle():
    # a sum of truncated inner series that vanishes must leave the geometric
    # sum, or its precision leaks into later sums
    tower = iterated_ring(A32, ["t1", "t2"])
    e = A32.eps()
    f = nest(tower, {-2: {0: e, 1: 1}, -1: {0: 2 * e, 1: 2 + e, 2: 2 + 2 * e},
                     1: {0: 2 + e}, 2: {0: 2 + e, 1: 1, 2: 2}}, prec=5, inner_prec=5)
    assert _outcome(laurent_inv, f) == _outcome(_o_inv, f)


def test_inverse_of_a_truncated_deep_tail_runs_out_of_precision():
    RA = LaurentRing(A32, "t")
    f = (RA.one() - RA.gen(-3).scale(A32.eps())).truncate(3)
    expected = _outcome(_o_inv, f)
    assert expected[0] == "PrecisionExhausted"
    assert _outcome(laurent_inv, f) == expected
    assert _outcome(laurent_inv, f, 10) == expected


def _decomposition(f, cutoff):
    try:
        d = unit_decompose(f, positive_cutoff=cutoff)
    except AlgebraError as exc:
        return type(exc).__name__
    return d.nu, d.lead, d.neg, d.pos, d.cutoff


@pytest.mark.parametrize("label", DIFF_RINGS)
def test_unit_decompose_matches_oracle(label):
    rng = random.Random(label)
    units = [f for f in _diff_samples(label, 4, 30) if f.is_unit()]
    assert len(units) >= 8
    if label in TAIL_SAMPLES:
        units += _tail_samples(label, 12)
    exact_cases = 0
    for f in units:
        for cutoff in (None, 1, rng.randrange(2, 24)):
            got = _decomposition(f, cutoff)
            try:
                *want, exact = _o_unit_decompose(f, cutoff)
            except AlgebraError as exc:
                assert got == type(exc).__name__, (f, cutoff)
                continue
            if exact or cutoff == 1:
                exact_cases += cutoff != 1
                assert got == tuple(want), (f, cutoff)
            else:
                # inexact inner coefficients: the tower's arithmetic drops
                # O(t1^N) coefficients as zero, and the recurrence does so at
                # other points than the geometric products did, so only the
                # positive factors may differ
                assert got[:3] + got[4:] == tuple(want[:3] + want[4:]), (f, cutoff)
    assert exact_cases >= 8 or label in INEXACT


# -- the corrector-product split that Weierstrass preparation replaced -------

def _geometric(ring, m, bound, steps):
    """1 + m + m^2 + ... on payload dicts, each power cut below `bound`;
    stops at the first zero power or after `steps` powers."""
    one = ring.base._one_raw()
    acc, term = {0: one}, {0: one}
    for _ in range(steps):
        term = _product(ring, term, m, bound)
        if not term:
            break
        _add_into(ring, acc, term)
    return acc, term


def _corrector_unit_decompose(f, positive_cutoff=None):
    """The negative split by corrector products: f is divided by
    1 + (tail * f_reg^-1) correctors until nothing survives below the
    valuation, and their product gives the negative factors."""
    require_units("cannot decompose non-unit {f!r}", f)
    ring = f.ring
    mul, _, negate, nonzero, wrap = ring._coeff_ops
    one = ring.base._one_raw()
    nu = f.valuation()
    h = f._raw
    w_acc = {0: one}
    for _ in range(ring.nil_bound + 2):
        tail = {e: c for e, c in h.items() if e < nu}
        if not tail:
            break
        regular = {e: c for e, c in h.items() if e >= nu}
        r_inv = _unit_inverse(ring, regular, nu, 1 - min(tail))
        n = _product(ring, tail, r_inv, 0)
        n_inv, _ = _geometric(ring, {e: negate(c) for e, c in n.items()}, None,
                              ring.nil_bound - 1)
        h = _product(ring, h, n_inv)
        w_acc = _product(ring, w_acc, {0: one, **n})
    else:
        raise AlgebraError("negative-tail elimination failed to converge")
    neg = {-i: a for i, a in _positive_factors(
        ring, {-e: c for e, c in w_acc.items()},
        (ring.nil_bound - 1) * -min(w_acc) + 1).items()}
    lead = h[nu]
    if positive_cutoff is None:
        if f.prec is not None:
            positive_cutoff = f.prec - nu
        else:
            positive_cutoff = (max(h) - nu) + 1
    lead_inv = ring.base._inv(lead)
    rem = {e - nu: mul(c, lead_inv) for e, c in h.items()}
    rem = {e: c for e, c in rem.items() if nonzero(c)}
    return UnitDecomposition(ring, nu, wrap(lead), neg,
                             _positive_factors(ring, rem, positive_cutoff),
                             positive_cutoff, rem)


def _fields(fn, f, cutoff):
    """All six fields of a decomposition, or the refusal's type and text."""
    try:
        d = fn(f, cutoff)
    except AlgebraError as exc:
        return type(exc).__name__, str(exc)
    return d.nu, d.lead, d.neg, d.pos, d.cutoff, d.rem


def _split_samples(base, count, rng):
    """Units with up to four nilpotent terms, up to six places below the
    valuation, half of them truncated, and some with a term far above the
    rest, past the dense window of the split."""
    ring = LaurentRing(base, "t")
    out = []
    for _ in range(count):
        nu = rng.randrange(-2, 3)
        coeffs = {e: base.eps() * base.random(rng)
                  for e in rng.sample(range(nu - 6, nu), rng.randrange(0, 5))}
        coeffs[nu] = base.random_unit(rng)
        coeffs.update({e: base.random(rng) for e in range(nu + 1, nu + 5)
                       if rng.random() < 0.5})
        if rng.random() < 0.4:
            coeffs[nu + 7 * base.nil_bound + 20] = base.random(rng)
        out.append(LaurentSeries(ring, coeffs,
                                 rng.choice((None, nu + rng.randrange(1, 12)))))
    return out


SPLIT_BASES = [ArtinianLocal(k, m) for k in (PrimeField(2), F3, F5, GaloisField(3, 2))
               for m in range(2, 13)]


@pytest.mark.parametrize("base", SPLIT_BASES, ids=repr)
def test_weierstrass_split_matches_corrector_products(base):
    rng = random.Random(f"split {base!r}")
    for f in _split_samples(base, 5, rng):
        for cutoff in (None, rng.randrange(1, 12)):
            want = _fields(_corrector_unit_decompose, f, cutoff)
            assert len(want) == 6, (f, cutoff)
            assert _fields(unit_decompose, f, cutoff) == want, (f, cutoff)


@pytest.mark.parametrize("label", sorted(set(TOWERS) - INEXACT))
def test_weierstrass_split_matches_corrector_products_on_exact_towers(label):
    rng = random.Random(f"split {label}")
    units = [f for f in _diff_samples(label, 6, 40) if f.is_unit()]
    assert len(units) >= 15
    for f in units:
        for cutoff in (None, rng.randrange(1, 12)):
            want = _fields(_corrector_unit_decompose, f, cutoff)
            assert _fields(unit_decompose, f, cutoff) == want, (f, cutoff)


@pytest.mark.parametrize("label", sorted(INEXACT))
def test_weierstrass_split_never_answers_where_corrector_products_refuse(label):
    # truncated inner coefficients: the two routes drop O(t1^N) terms at
    # different points, so only what both store must agree
    rng = random.Random(f"split {label}")
    units = [f for f in _diff_samples(label, 7, 60) if f.is_unit()]
    answered = 0
    for f in units:
        for cutoff in (None, rng.randrange(1, 12)):
            old = _fields(_corrector_unit_decompose, f, cutoff)
            new = _fields(unit_decompose, f, cutoff)
            if len(old) == 2:
                assert len(new) == 2, (f, cutoff)
                continue
            if len(new) == 2:
                continue
            answered += 1
            assert (new[0], new[4]) == (old[0], old[4]), (f, cutoff)
            assert new[1].agrees_with(old[1]), (f, cutoff)
            # neg, pos and rem: every coefficient both routes store
            for got, want in zip(new[2:4] + new[5:], old[2:4] + old[5:]):
                for e in got.keys() & want.keys():
                    assert got[e].agrees_with(want[e]), (f, cutoff, e)
    assert answered >= 40


def test_a_split_that_leaves_a_term_below_the_valuation_is_refused():
    # 1/c_-1 is known only below t1^-1, so F's low coefficient c_-2 / c_-1
    # comes out as O(t1^-2), with no stored terms, and the remainder keeps
    # c_-2 in every pass.  The corrector products stall on the same unit
    tower = iterated_ring(A32, ["t1", "t2"])
    e = A32.eps()
    f = nest(tower, {-2: {-1: 2 * e, 0: 2 * e, 2: 2 * e},
                     -1: {-1: e, 0: e, 1: 1 + e}}, prec=8, inner_prec=5)
    assert _fields(_corrector_unit_decompose, f, None) == (
        "AlgebraError", "negative-tail elimination failed to converge")
    with pytest.raises(PrecisionExhausted,
                       match="do not determine its negative part$"):
        unit_decompose(f)


def test_an_undetermined_positive_part_is_precision_exhausted():
    # the lead's inverse is known only below t1^-2, so the constant term of
    # rem = h / (U_0 t^nu) stores no terms and no positive factor is
    # determined; the last check of `_positive_factors` sees it
    tower = iterated_ring(A32, ["t1", "t2"])
    e = A32.eps()
    f = nest(tower, {-2: {1: 2 + e, -1: 2 * e, 2: 2 + 2 * e},
                     -1: {0: 2, 2: 1 + e, -1: 2},
                     2: {2: 2, -1: 2 + e, 1: 2 * e}}, inner_prec=5)
    with pytest.raises(PrecisionExhausted, match="^the stored terms do not "
                       "determine the coefficient of the positive factor at t2\\^1$"):
        unit_decompose(f, 8)


def test_a_lead_truncated_below_its_unit_term_is_precision_exhausted():
    # U_0 = f_0 modulo the maximal ideal, but dividing by F leaves it known
    # only below t1^-1, where it stores e*t1^-3 and no unit term
    tower = iterated_ring(A32, ["t1", "t2"])
    e = A32.eps()
    f = nest(tower, {-2: {-1: e, 1: e, 2: 2 * e},
                     -1: {0: 2 * e, 1: 2, 2: 1 + 2 * e},
                     0: {-1: 1 + 2 * e, 0: 2, 1: e}, 2: {0: 2 + e}}, inner_prec=5)
    for cutoff in (None, 8, 1):
        with pytest.raises(PrecisionExhausted,
                           match="do not determine its leading coefficient$"):
            unit_decompose(f, cutoff)


@pytest.mark.parametrize("label", sorted(TOWERS))
def test_towers_refuse_an_open_positive_part_only_when_truncated(label):
    rng = random.Random(f"positive part {label}")
    units = [f for f in _diff_samples(label, 8, 150) if f.is_unit()]
    refused = 0
    for f in units:
        for cutoff in (None, 8, rng.randrange(1, 12)):
            try:
                unit_decompose(f, cutoff)
            except AlgebraError as exc:
                assert label in INEXACT, (f, cutoff, exc)
                assert type(exc) is not AlgebraError, (f, cutoff, exc)
                refused += isinstance(exc, PrecisionExhausted) and \
                    "positive factor" in str(exc)
    # seeded exact towers always decompose; truncated ones over F3[e]/e^2
    # meet the open positive part, and no refusal is a bare AlgebraError
    assert refused or label != "F3[e]/e^2((t1))((t2)) truncated"


@pytest.mark.parametrize("spec,depths", [("F5[e]/e^2", (1, 7, 25, 100, 200)),
                                          ("F3[e]/e^3", (25, 60))])
def test_deep_pole_positive_factors_match_oracle(spec, depths):
    base = A52 if spec == "F5[e]/e^2" else A33
    ring = LaurentRing(base, "t")
    g = ring.one() - ring.gen() + ring.gen(2)
    L = base.nil_bound
    for J in depths:
        cutoff = (L - 1) * J + 1
        d = unit_decompose(g, positive_cutoff=cutoff)
        nu, lead, neg, pos, _, _ = _o_unit_decompose(g, cutoff)
        assert (d.nu, d.lead, d.neg) == (nu, lead, neg)
        assert sorted(d.pos) == sorted(pos)
        for i in pos:
            assert d.pos[i] == pos[i], (J, i)


def _stage_outcome(fn, *args):
    try:
        d = fn(*args)
    except (AlgebraError, PrecisionExhausted) as exc:
        return type(exc).__name__, str(exc)
    return d.nu, d.lead, d.neg, d.pos, d.cutoff


@pytest.mark.parametrize("label", DIFF_RINGS)
def test_extend_matches_decomposing_at_the_cutoff(label):
    # extending a cutoff-1 decomposition reruns only the positive stage
    rng = random.Random(f"extend {label}")
    units = [f for f in _diff_samples(label, 5, 30) if f.is_unit()]
    assert len(units) >= 8
    extended = 0
    for f in units:
        for cutoff in (1, 2, rng.randrange(3, 30)):
            want = _stage_outcome(unit_decompose, f, cutoff)
            got = _stage_outcome(
                lambda: unit_decompose(f, positive_cutoff=1).extend(cutoff))
            assert got == want, (f, cutoff)
            extended += len(want) == 5
    assert extended >= 16

import hashlib
import itertools
import math
import random
import time

import pytest
from hypothesis import given, strategies as st

from ccsym.errors import (DescriptorMismatch, NotAUnit, NotRegular,
                          PrecisionExhausted, UnsupportedArgument)
from ccsym.laurent import (LaurentRing, LaurentSeries, iterated_ring, nest,
                           reduce_mod_t, unit_decompose)
from ccsym.parser import parse_expression, parse_ring
from ccsym.rings import ArtinianLocal, GaloisField, PrimeField, format_value
from ccsym.symbols import (CONVENTION, _cc_product, cc_symbol, higher_symbol,
                           steinberg_expand, tame_symbol)
from ccsym.toeplitz import joint_torsion

F3, F5, F7 = PrimeField(3), PrimeField(5), PrimeField(7)
F9 = GaloisField(3, 2)


def random_unit_series(ring, rng, low=-2, high=4):
    while True:
        f = ring.random(rng, low=low, high=high)
        if f.is_unit():
            return f


class TestTameSymbol:
    def test_uniformizer_pair(self):
        R = LaurentRing(F3, "t")
        t = R.gen()
        assert tame_symbol(t, t) == F3.from_int(-1)

    def test_t_and_one_minus_t(self):
        R = LaurentRing(F5, "t")
        t = R.gen()
        assert tame_symbol(t, 1 - t).is_one()

    def test_leading_coefficient_oracle(self, rng):
        # independent formula: (-1)^(vf*vg) * lead(f)^vg * lead(g)^-vf
        R = LaurentRing(F7, "t")
        for _ in range(60):
            f = random_unit_series(R, rng)
            g = random_unit_series(R, rng)
            vf, vg = f.valuation(), g.valuation()
            sign = F7.from_int(-1 if (vf * vg) % 2 else 1)
            oracle = sign * f.coeffs[vf] ** vg * g.coeffs[vg] ** (-vf)
            assert tame_symbol(f, g) == oracle

    def test_nilpotent_pole_entering_the_product_is_not_tame(self):
        A = ArtinianLocal(F3, 2)
        R = LaurentRing(A, "t")
        f = R.one() - R.gen(-1).scale(A.eps())
        with pytest.raises(NotRegular):
            tame_symbol(f, R.gen())       # f^v(t) = f has a genuine pole

    def test_tame_is_blind_to_nilpotent_tails_where_cc_is_not(self):
        # both valuations are 0, so the tame formula degenerates to 1 while
        # the Contou-Carrere symbol sees the nilpotent pole
        A = ArtinianLocal(F3, 2)
        R = LaurentRing(A, "t")
        f = R.one() - R.gen(-1).scale(A.eps())
        g = R.one() - R.gen(1).scale(A.from_int(2))
        assert tame_symbol(f, g).is_one()
        assert not cc_symbol(f, g).is_one()


def _power_path_tame(f, g):
    """The tame symbol by series powers: (-1)^(v(f)v(g)) times the constant
    term of f^v(g) g^-v(f), the way every base computed it before fields read
    the leading coefficients.  Argument check first: an exact non-unit is
    NotAUnit; a truncated one may complete to a unit, so its symbol is
    undetermined."""
    non_units = [x for x in (f, g) if not x.is_unit()]
    for x in non_units:
        if x.prec is None:
            x.valuation()                           # raises NotAUnit
    if non_units:
        raise PrecisionExhausted(
            f"no unit among the known coefficients of {non_units[0]!r}")
    nu_f, nu_g = f.valuation(), g.valuation()
    value = reduce_mod_t((f ** nu_g) * (g ** (-nu_f)))
    return f.ring.base.from_int(-1 if nu_f * nu_g % 2 else 1) * value


@pytest.mark.parametrize("F", [PrimeField(2), F3, F5, F7, F9, GaloisField(2, 4)],
                         ids=repr)
def test_tame_symbol_matches_the_power_path(F):
    # exact and truncated pairs, units and zero-known series; the value, or
    # the exception type and message, must agree with the power path
    rng = random.Random(f"tame power path {F!r}")
    R = LaurentRing(F, "t")
    raised = 0
    for _ in range(400):
        pair = []
        for _ in range(2):
            low = rng.randrange(-4, 3)
            prec = rng.choice([None, None, low + 1, low + 2, low + 4, low + 7])
            pair.append(R.random(rng, low=low, high=low + rng.randrange(1, 7),
                                 prec=prec))
        got, want = _outcome(tame_symbol, *pair), _outcome(_power_path_tame, *pair)
        assert got == want, pair
        raised += isinstance(got[0], str)
    assert 0 < raised < 400


class TestCCSymbolFieldCase:
    @pytest.mark.parametrize("F", [PrimeField(2), F3, F5, F7, F9])
    def test_agrees_with_tame(self, F):
        rng = random.Random(hash(F.char) & 0xFFFF)
        R = LaurentRing(F, "t")
        for _ in range(50):
            f = random_unit_series(R, rng, low=-3, high=4)
            g = random_unit_series(R, rng, low=-3, high=4)
            assert cc_symbol(f, g) == tame_symbol(f, g)

    def test_non_unit_rejected(self):
        R = LaurentRing(F5, "t")
        with pytest.raises(NotAUnit):
            cc_symbol(R.zero(), R.gen())


class TestCCSymbolArtinian:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_closed_form_family(self, p):
        # (1 - eps t^-1, 1 - c t) = (1 - eps c)^{-1}, checked against an
        # independent term-by-term expansion of the geometric series
        A = ArtinianLocal(PrimeField(p), 2)
        R = LaurentRing(A, "t")
        eps = A.eps()
        f = R.one() - R.gen(-1).scale(eps)
        for cval in range(p):
            c = A.from_int(cval)
            got = cc_symbol(f, R.one() - R.gen(1).scale(c))
            term = A.one()
            expect = A.zero()
            for _ in range(A.m):
                expect = expect + term
                term = term * (eps * c)
            assert got == expect, (p, cval)

    def test_deeper_nilpotency(self):
        # same family over F5[e]/e^3: (1 - e t^-1, 1 - c t) = 1 + ec + e^2c^2
        A = ArtinianLocal(F5, 3)
        R = LaurentRing(A, "t")
        eps = A.eps()
        f = R.one() - R.gen(-1).scale(eps)
        c = A.from_int(3)
        got = cc_symbol(f, R.one() - R.gen(1).scale(c))
        assert got == A.one() + eps * c + (eps * c) ** 2

    def test_gcd_pairing(self):
        # (1 - e t^-2, 1 - c t^2) pairs with d = gcd(2,2) = 2:
        # (1 - e c)^2 inverted
        A = ArtinianLocal(F5, 2)
        R = LaurentRing(A, "t")
        eps, c = A.eps(), A.from_int(2)
        f = R.one() - R.gen(-2).scale(eps)
        g = R.one() - R.gen(2).scale(c)
        got = cc_symbol(f, g)
        expect = ((A.one() - eps * c) ** 2).inv()
        assert got == expect

    def test_precision_exhausted_when_poles_outreach_truncation(self):
        A = ArtinianLocal(F3, 2)
        R = LaurentRing(A, "t")
        g = R.one() - R.gen(-2).scale(A.eps())      # pole depth 2 -> cutoff 3
        f = (R.one() + R.gen()).truncate(2)
        with pytest.raises(PrecisionExhausted):
            cc_symbol(f, g)

    def test_enough_precision_is_accepted(self):
        A = ArtinianLocal(F3, 2)
        R = LaurentRing(A, "t")
        g = R.one() - R.gen(-2).scale(A.eps())
        f = (R.one() + R.gen()).truncate(12)
        cc_symbol(f, g)  # must not raise


ARTINIAN_RINGS = [ArtinianLocal(F3, 2), ArtinianLocal(F5, 3),
                  ArtinianLocal(GaloisField(2, 2), 2)]


@given(st.integers(min_value=0, max_value=10_000))
def test_antisymmetry(seed):
    rng = random.Random(seed)
    A = ARTINIAN_RINGS[seed % len(ARTINIAN_RINGS)]
    R = LaurentRing(A, "t")
    f = random_unit_series(R, rng)
    g = random_unit_series(R, rng)
    assert (cc_symbol(f, g) * cc_symbol(g, f)).is_one()


@given(st.integers(min_value=0, max_value=10_000))
def test_steinberg_complement(seed):
    # {f, -f} = 1 and {f, f} = {f, -1}
    rng = random.Random(seed)
    A = ARTINIAN_RINGS[seed % len(ARTINIAN_RINGS)]
    R = LaurentRing(A, "t")
    f = random_unit_series(R, rng)
    assert cc_symbol(f, -f).is_one()
    assert cc_symbol(f, f) == cc_symbol(f, R.from_int(-1))


@given(st.integers(min_value=0, max_value=10_000))
def test_bimultiplicative(seed):
    rng = random.Random(seed)
    A = ARTINIAN_RINGS[seed % len(ARTINIAN_RINGS)]
    R = LaurentRing(A, "t")
    f = random_unit_series(R, rng, low=-2, high=3)
    h = random_unit_series(R, rng, low=-2, high=3)
    g = random_unit_series(R, rng, low=-2, high=3)
    assert cc_symbol(f * h, g) == cc_symbol(f, g) * cc_symbol(h, g)
    assert cc_symbol(g, f * h) == cc_symbol(g, f) * cc_symbol(g, h)


def random_regular_unit(tower, rng, inner_poles=False):
    """Unit of a depth-2 tower with no nilpotent pole in the outer variable."""
    inner = tower.base
    a, b = rng.randrange(-2, 3), rng.randrange(-2, 3)
    f = tower.gen(b) * tower.constant(inner.gen(a))
    for oe in range(0, 2):
        for ie in range(-1 if inner_poles else 0, 2):
            if rng.random() < 0.4:
                coeff = inner.base.random(rng)
                bump = tower.constant(inner.zero()) + \
                    tower.constant(inner.gen(ie).scale(coeff)).shift(oe + (1 if b >= 0 else 1))
                f = f * (tower.one() + bump.shift(0))
    return f


class TestHigherSymbols:
    def test_inner_uniformizer_constant_outer_uniformizer(self):
        T = iterated_ring(F5, ["t1", "t2"])
        t1 = T.constant(T.base.gen())
        for cval in range(1, 5):
            v = higher_symbol([t1, T.from_int(cval), T.gen()])
            assert v == F5.from_int(cval).inv()

    def test_milnor_merge_both_orders(self):
        T = iterated_ring(F5, ["t1", "t2"])
        t1 = T.constant(T.base.gen())
        t2 = T.gen()
        assert higher_symbol([t1, t1, t2]) == F5.from_int(-1)
        assert higher_symbol([t2, t2, t1]) == F5.from_int(-1)
        assert higher_symbol([t1, t2, t1]) == F5.from_int(-1)

    def test_artinian_reduction_example(self):
        A = ArtinianLocal(F5, 2)
        T = iterated_ring(A, ["t1", "t2"])
        inner, eps = T.base, A.eps()
        f1 = T.constant(inner.one() - inner.gen(-1).scale(eps))
        f2 = T.constant(inner.one() - inner.gen(1).scale(A.from_int(2)))
        assert higher_symbol([f1, f2, T.gen()]) == A.one() + eps * A.from_int(2)

    def test_reduction_identity(self, rng):
        T = iterated_ring(F7, ["t1", "t2"])
        inner = T.base
        for _ in range(20):
            u1 = T.constant(random_unit_series(inner, rng, low=-2, high=3))
            u2 = T.constant(random_unit_series(inner, rng, low=-2, high=3))
            extra = T.gen(1) * T.constant(inner.random(rng, low=0, high=2))
            u1r = u1 + extra
            lhs = higher_symbol([u1r, u2, T.gen()])
            rhs = cc_symbol(reduce_mod_t(u1r), reduce_mod_t(u2))
            assert lhs == rhs

    def test_permutation_signs_arity_3(self, rng):
        import itertools
        T = iterated_ring(F5, ["t1", "t2"])
        inner = T.base
        t1c = T.constant(inner.gen())
        t2 = T.gen()
        mixed = T.constant(inner.gen()) + T.gen()          # t1 + t2
        base_args = [t1c * T.from_int(2), t2, mixed]
        base_val = higher_symbol(base_args)
        for perm in itertools.permutations(range(3)):
            sign = 1
            seen = list(perm)
            # parity by counting inversions
            inv = sum(1 for i in range(3) for j in range(i + 1, 3)
                      if seen[i] > seen[j])
            val = higher_symbol([base_args[i] for i in perm])
            expect = base_val if inv % 2 == 0 else base_val.inv()
            assert val == expect, (perm, val, expect)

    def test_bimultiplicative_in_each_slot(self, rng):
        T = iterated_ring(F5, ["t1", "t2"])
        inner = T.base
        def rand_arg():
            f = T.gen(rng.randrange(-1, 2)) * T.constant(
                random_unit_series(inner, rng, low=-1, high=2))
            if rng.random() < 0.5:
                f = f * (T.one() + T.gen(1) * T.constant(inner.random(rng, low=0, high=2)))
            return f
        for _ in range(10):
            a, b, c, d = rand_arg(), rand_arg(), rand_arg(), rand_arg()
            lhs = higher_symbol([a * b, c, d])
            rhs = higher_symbol([a, c, d]) * higher_symbol([b, c, d])
            assert lhs == rhs

    def test_wrong_arity_rejected(self):
        T = iterated_ring(F5, ["t1", "t2"])
        with pytest.raises(UnsupportedArgument):
            higher_symbol([T.gen(), T.gen()])

    def test_outer_nilpotent_pole_rejected(self):
        A = ArtinianLocal(F3, 2)
        T = iterated_ring(A, ["t1", "t2"])
        bad = T.one() - T.gen(-1).scale(T.base.constant(A.eps()))
        with pytest.raises(UnsupportedArgument):
            higher_symbol([bad, T.one() + T.gen(), T.gen()])

    def test_depth_three(self):
        T = iterated_ring(F5, ["t1", "t2", "t3"])
        d2 = T.base
        t1 = T.constant(d2.constant(d2.base.gen()))
        t2 = T.constant(d2.gen())
        t3 = T.gen()
        # (t1, c, t3, t2): one transposition away from (t1, c, t2, t3)
        c = T.from_int(2)
        v1 = higher_symbol([t1, c, t2, t3])
        v2 = higher_symbol([t1, c, t3, t2])
        assert (v1 * v2).is_one()

    def test_convention_id(self):
        assert CONVENTION == "boundary-composite/v1"


class TestSteinbergExpand:
    def test_surviving_terms_only_mix_uniformizer_and_constant(self):
        T = iterated_ring(F5, ["t1", "t2"])
        args = [T.constant(T.base.gen()) * T.gen(), T.from_int(2), T.gen()]
        for term in steinberg_expand(args):
            kinds = {kind for kind, _ in term.atoms}
            assert kinds <= {"uniformizer", "constant"}
            assert "uniformizer" in kinds

    def test_exponent_is_product_of_multiplicities(self):
        T = iterated_ring(F5, ["t1", "t2"])
        args = [T.gen(3), T.gen(-2), T.constant(T.base.gen())]
        terms = steinberg_expand(args)
        exps = sorted(t.exponent for t in terms
                      if all(k == "uniformizer" for k, _ in t.atoms[:2]))
        assert -6 in exps

    def test_keep_trivial_includes_positive_factors(self):
        T = iterated_ring(F5, ["t1", "t2"])
        args = [T.one() + T.gen(), T.gen(), T.from_int(2)]
        kinds = {kind for term in steinberg_expand(args, keep_trivial=True)
                 for kind, _ in term.atoms}
        assert "positive" in kinds


# -- differential test of the payload pairing against the wrapped one ---------
# The oracle is the former algorithm: two positive_cutoff=1 probes for the
# pole depths, full decompositions at the cutoffs, and the pairing table on
# wrapped elementary factors.

def _o_pair_factors(kind_a, payload_a, kind_b, payload_b, base):
    sign = lambda n: base.from_int(-1) if n % 2 else base.one()
    if kind_a == "uniformizer" and kind_b == "uniformizer":
        return sign(payload_a * payload_b)
    if kind_a == "constant" and kind_b == "uniformizer":
        return payload_a ** payload_b
    if kind_a == "uniformizer" and kind_b == "constant":
        return payload_b ** (-payload_a)
    if kind_a == "positive" and kind_b == "negative":
        (i, a), (j, b) = payload_a, payload_b
        d = math.gcd(i, j)
        return (base.one() - a ** (j // d) * b ** (i // d)) ** d
    if kind_a == "negative" and kind_b == "positive":
        (j, b), (i, a) = payload_a, payload_b
        d = math.gcd(i, j)
        return (base.one() - b ** (i // d) * a ** (j // d)) ** (-d)
    return base.one()


def _o_atoms(dec):
    atoms = []
    if dec.nu:
        atoms.append(("uniformizer", dec.nu))
    if not dec.lead.is_one():
        atoms.append(("constant", dec.lead))
    for i in sorted(dec.pos):
        atoms.append(("positive", (i, dec.pos[i])))
    for i in sorted(dec.neg, reverse=True):
        atoms.append(("negative", (-i, dec.neg[i])))
    return atoms


def _o_cc_symbol(f, g):
    ring = f.ring
    if not f.is_unit() or not g.is_unit():
        raise NotAUnit("Contou-Carrere symbol needs unit arguments")
    base, L = ring.base, ring.nil_bound
    nu_f, nu_g = f.valuation(), g.valuation()
    probe_f = unit_decompose(f, positive_cutoff=1)
    probe_g = unit_decompose(g, positive_cutoff=1)
    cut_f = (L - 1) * probe_g.max_pole() + 1
    cut_g = (L - 1) * probe_f.max_pole() + 1
    for x, nu, cut in ((f, nu_f, cut_f), (g, nu_g, cut_g)):
        if x.prec is not None and nu + cut > x.prec:
            raise PrecisionExhausted(
                f"need {x!r} modulo t^{nu + cut} to pair against the other "
                f"argument's poles")
    out = base.one()
    for kind_a, payload_a in _o_atoms(unit_decompose(f, positive_cutoff=cut_f)):
        for kind_b, payload_b in _o_atoms(unit_decompose(g, positive_cutoff=cut_g)):
            out = out * _o_pair_factors(kind_a, payload_a, kind_b, payload_b, base)
    return out


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except Exception as exc:  # the same exception and message on both sides
        return type(exc).__name__, str(exc)
    return value.ring, value.raw


DIFF_RINGS = {
    "F3[e]/e^2": ArtinianLocal(F3, 2), "F5[e]/e^2": ArtinianLocal(F5, 2),
    "F7[e]/e^2": ArtinianLocal(F7, 2), "F3[e]/e^3": ArtinianLocal(F3, 3),
    "F5[e]/e^3": ArtinianLocal(F5, 3), "F9[e]/e^2": ArtinianLocal(F9, 2),
}


@pytest.mark.parametrize("label", sorted(DIFF_RINGS))
def test_cc_symbol_matches_wrapped_pairing_oracle(label):
    rng = random.Random(f"cc-diff {label}")
    R = LaurentRing(DIFF_RINGS[label], "t")
    for k in range(40):
        low = -1 - k % 5
        f = random_unit_series(R, rng, low=low, high=4)
        g = random_unit_series(R, rng, low=-2, high=5)
        assert _outcome(cc_symbol, f, g) == _outcome(_o_cc_symbol, f, g)
        assert _outcome(cc_symbol, g, f) == _outcome(_o_cc_symbol, g, f)


@pytest.mark.parametrize("label", sorted(DIFF_RINGS))
def test_cc_symbol_on_precision_36_ratios_matches_oracle(label):
    # f = a / den at precision 36, as in the `symbols` workload; deep poles
    # on the other side run out of precision, with the same message
    rng = random.Random(f"cc-ratio {label}")
    A = DIFF_RINGS[label]
    R = LaurentRing(A, "t")
    for k in range(12):
        a = random_unit_series(R, rng, low=-2, high=4)
        den = random_unit_series(R, rng, low=-1, high=3)
        f = parse_expression(f"({a!r})/({den!r})", A, domain="series",
                             precision=36)
        pole = R.gen(-(3 + 12 * (k % 4))).scale(A.eps())
        g = random_unit_series(R, rng, low=-1, high=4) + pole
        assert _outcome(cc_symbol, f, g) == _outcome(_o_cc_symbol, f, g)
        assert _outcome(cc_symbol, g, f) == _outcome(_o_cc_symbol, g, f)


@pytest.mark.parametrize("label", ["F5[e]/e^2", "F3[e]/e^2", "F3[e]/e^3"])
@pytest.mark.parametrize("J", [25, 50, 75, 100])
def test_cc_symbol_deep_pole_matches_oracle(label, J):
    A = DIFF_RINGS[label]
    R = LaurentRing(A, "t")
    t = R.gen()
    f = R.one() - R.gen(-J).scale(A.eps() * A.from_int(2))
    g = R.one() - t + t * t
    assert _outcome(cc_symbol, f, g) == _outcome(_o_cc_symbol, f, g)
    assert _outcome(cc_symbol, g, f) == _outcome(_o_cc_symbol, g, f)


@pytest.mark.parametrize("m,inner_prec", [(2, None), (3, None), (2, 3), (3, 5)])
def test_cc_symbol_over_an_artinian_tower_matches_oracle(m, inner_prec):
    # series-valued payloads, exact and with truncated inner coefficients;
    # a vanishing power must not skip a pair whose other side is inexact
    A = ArtinianLocal(F3, m)
    tower = iterated_ring(A, ["t1", "t2"])
    rng = random.Random(f"cc-tower {m} {inner_prec}")
    units = []
    while len(units) < 60:
        table = {oe: {ie: A.random(rng)
                      for ie in rng.sample(range(-2, 4), rng.randrange(1, 4))}
                 for oe in range(-3, 3) if rng.random() < 0.6}
        f = nest(tower, table, inner_prec=inner_prec)
        if f.is_unit():
            units.append(f)
    for f, g in zip(units, units[1:]):
        assert _outcome(cc_symbol, f, g) == _outcome(_o_cc_symbol, f, g)


def test_cc_symbol_keeps_the_precision_of_a_skipped_tower_pair():
    # the e^2 = 0 power of a pair meets an inexact inner coefficient, whose
    # precision the oracle's product keeps: O(t1^15), not O(t1^16)
    A = ArtinianLocal(F3, 2)
    f, g = (parse_expression(text, A, domain="series", depth=2) for text in (
        "((2*e)*t1)*t2^-1 + (t1^-2)*t2 + (2*t1^3)*t2^2",
        "(e*t1^-2 + e*t1^-1 + (2 + 2*e))*t2^-3 + (e*t1^-2 + (2 + 2*e) "
        "+ (1 + 2*e)*t1)*t2^-2 + ((2*e)*t1^-1)*t2^-1 + ((1 + e) + (2*e)*t1)*t2 "
        "+ ((2*e)*t1^2)*t2^2"))
    value = cc_symbol(f, g)
    assert value.prec == 15
    assert _outcome(cc_symbol, f, g) == _outcome(_o_cc_symbol, f, g)


# -- the symbol on element codes against the symbol on payloads ---------------
# Over an artinian ring of at most 256 elements `_cc_product` encodes its
# arguments once and decomposes and pairs on element codes.  With the code
# tables patched away (`on_payloads`) it runs on payloads: the values, and
# the type and text of every refusal, must be equal.

CODED_RINGS = [ArtinianLocal(k, m) for k, top in (
    (PrimeField(2), 8), (F3, 5), (GaloisField(2, 2), 4), (F5, 3), (F7, 2),
    (GaloisField(2, 3), 2), (F9, 2), (PrimeField(11), 2), (PrimeField(13), 2),
    (GaloisField(2, 4), 2)) for m in range(2, top + 1)]


def test_coded_rings_are_every_tabled_artinian_ring():
    fields = [PrimeField(p) for p in (2, 3, 5, 7, 11, 13, 17)] + [
        GaloisField(2, 2), GaloisField(2, 3), F9, GaloisField(2, 4)]
    tabled = {ArtinianLocal(k, m) for k in fields for m in range(2, 10)
              if ArtinianLocal(k, m)._tables is not None}
    assert tabled == set(CODED_RINGS)


def _coded_samples(A, rng, count):
    """Unit pairs with nilpotent poles up to depth 12, every other f
    truncated (some of them past every unit term, or short of what g's
    poles need), and every third pair with a non-unit second factor for
    the signed pairings."""
    R = LaurentRing(A, "t")
    out = []
    for k in range(count):
        f = random_unit_series(R, rng, low=-1 - k % 4, high=4)
        g = random_unit_series(R, rng, low=-2, high=5)
        if k % 3 == 0:
            g = g + R.gen(-(3 + 3 * (k % 4))).scale(A.eps())
        if k % 2:
            f = f.truncate(rng.randrange(0, 14))
        h = (R.gen(k % 3 - 1).scale(A.eps()) if k % 3 == 2
             else random_unit_series(R, rng, low=-1, high=3))
        out.append((f, g, h))
    return out


def _coded_outcomes(A, count):
    rng = random.Random(f"coded {A!r}")
    out = []
    for f, g, h in _coded_samples(A, rng, count):
        out.append(_outcome(cc_symbol, f, g))
        out.append(_outcome(cc_symbol, g, f))
        # the four signed pairings of the line laws: (f/h, g/f)
        out.append(_outcome(_cc_product, ((f, 1), (h, -1)), ((g, 1), (f, -1))))
    return out


@pytest.mark.parametrize("A", CODED_RINGS, ids=repr)
def test_cc_symbol_on_codes_matches_payloads(A, on_payloads):
    count = 24 if A.nil_bound <= 4 else 12
    coded = _coded_outcomes(A, count)
    with on_payloads():
        assert A._tables is None
        assert _coded_outcomes(A, count) == coded
    assert A._tables is not None
    kinds = {x[0] if isinstance(x[0], str) else "value" for x in coded}
    assert {"value", "PrecisionExhausted", "NotAUnit"} <= kinds, kinds


@pytest.mark.parametrize("A", CODED_RINGS[::2], ids=repr)
def test_cc_symbol_on_codes_matches_joint_torsion(A):
    # an independent oracle: Toeplitz determinants instead of the factors
    rng = random.Random(f"coded torsion {A!r}")
    R = LaurentRing(A, "t")
    for depth in (1, 2):
        f = random_unit_series(R, rng, low=0, high=3) + R.gen(-depth).scale(A.eps())
        g = random_unit_series(R, rng, low=-1, high=3)
        assert cc_symbol(f, g) == joint_torsion(f, g), (f, g)


def test_a_refusal_on_codes_names_the_payload_series():
    A = ArtinianLocal(F5, 2)
    f, g = (parse_expression(text, A, domain="series")
            for text in ("1+e*t^-1+t+O(t^2)", "2+e*t^-3"))
    with pytest.raises(PrecisionExhausted) as exc:
        cc_symbol(f, g)
    assert str(exc.value) == ("need e*t^-1 + 1 + t + O(t^2) modulo t^4 to pair "
                              "against the other argument's poles")
    with pytest.raises(NotAUnit) as exc:
        _cc_product(((g, 1),), ((f.ring.gen(2).scale(A.eps()), 1),))
    assert str(exc.value) == "cannot decompose non-unit e*t^2"


# -- the closed form of field higher symbols against the Steinberg route --------
# Over a field, higher_symbol reads the valuation matrix V and the leading
# coefficients a_i.  The `steinberg_symbol` fixture is the route it replaced;
# at depth 1 the value is pinned against the power path of the tame symbol.

PIN_FIELDS = [PrimeField(2), GaloisField(2, 2), F5, F7, F9]


def _generator(F):
    """A generator of the multiplicative group of F."""
    units = [x for x in F.elements() if not x.is_zero()]
    return next(x for x in units
                if len({(x ** k).raw for k in range(len(units))}) == len(units))


def _monomial(tower, a, alpha):
    """a * t1^alpha[0] * ... * tn^alpha[n-1] in the tower over a's field."""
    levels = []
    while isinstance(tower, LaurentRing):
        levels.append(tower)
        tower = tower.base
    x = a
    for level, e in zip(reversed(levels), alpha):
        x = level._monomial(e, x.raw)
    return x


def _towers(depth):
    return {F: (iterated_ring(F, [f"t{k + 1}" for k in range(depth)]),
                _generator(F)) for F in PIN_FIELDS}


@pytest.mark.parametrize("F", PIN_FIELDS, ids=repr)
def test_closed_form_at_depth_one_is_the_power_path(F):
    R = LaurentRing(F, "t")
    g = _generator(F)
    powers = [g ** k for k in range(F.size - 1)]
    for (u, v), (a, b) in itertools.product(
            itertools.product(range(-3, 4), repeat=2),
            itertools.product(powers, repeat=2)):
        f, h = _monomial(R, a, (u,)), _monomial(R, b, (v,))
        sign = F.from_int(-1) if u * v % 2 else F.one()
        want = sign * reduce_mod_t(f ** v * h ** -u)
        assert higher_symbol([f, h]) == tame_symbol(f, h) == want, (u, v, a, b)


def test_closed_form_at_depth_two_on_every_small_valuation_matrix(steinberg_symbol):
    # entries -1, 0, 1, 2 give every V mod 2 with both signs of each entry;
    # the field cycles, and every V mod 2 meets an odd characteristic
    towers = _towers(2)
    rng = random.Random("closed form depth 2")
    odd = set()
    grid = itertools.product(itertools.product((-1, 0, 1, 2), repeat=2), repeat=3)
    for n, V in enumerate(grid):
        F = PIN_FIELDS[n % len(PIN_FIELDS)]
        T, g = towers[F]
        args = [_monomial(T, g ** rng.randrange(F.size - 1), row) for row in V]
        assert higher_symbol(args) == steinberg_symbol(args), (F, V)
        if F.char != 2:
            odd.add(tuple(x % 2 for row in V for x in row))
    assert len(odd) == 2 ** 6


def test_closed_form_at_depth_three_on_small_valuation_matrices(steinberg_symbol):
    towers = _towers(3)
    rng = random.Random("closed form depth 3")
    grid = list(itertools.product(itertools.product((0, 1), repeat=3), repeat=4))
    grid += [tuple(tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(4))
             for _ in range(500)]
    for n, V in enumerate(grid):
        F = PIN_FIELDS[n % len(PIN_FIELDS)]
        T, g = towers[F]
        args = [_monomial(T, g ** rng.randrange(F.size - 1), row) for row in V]
        assert higher_symbol(args) == steinberg_symbol(args), (F, V)


def _random_tower_element(R, rng, truncate):
    """A sparse element of the tower R; with chance `truncate` each level is
    truncated just past a random exponent of its window."""
    if not isinstance(R, LaurentRing):
        return R.random(rng)
    low = rng.randrange(-2, 3)
    coeffs = {e: _random_tower_element(R.base, rng, truncate)
              for e in range(low, low + 3) if rng.random() < 0.7}
    prec = low + rng.randrange(4) if rng.random() < truncate else None
    return LaurentSeries(R, coeffs, prec)


@pytest.mark.parametrize("F", [F3] + PIN_FIELDS, ids=repr)
def test_field_higher_symbol_matches_the_steinberg_route_on_truncated_towers(
        F, steinberg_symbol):
    # truncated inner (O(t1^k)) and outer (O(t2^k), O(t3^k)) coefficients:
    # the same value, or the same exception and message
    rng = random.Random(f"closed form towers {F!r}")
    seen = set()
    for depth in (2, 3):
        T = iterated_ring(F, [f"t{k + 1}" for k in range(depth)])
        for _ in range(60 if depth == 2 else 25):
            args = [_random_tower_element(T, rng, 0.3) for _ in range(depth + 1)]
            for k, f in enumerate(args):
                if not f.is_unit() and rng.random() < 0.8:
                    args[k] = f + T.gen(rng.randrange(-2, 3))
            want = _outcome(steinberg_symbol, args)
            assert _outcome(higher_symbol, args) == want, args
            seen.add(want[0] if isinstance(want[0], str) else "value")
    assert seen == {"value", "NotAUnit", "PrecisionExhausted"}


def _random_exact_unit(T, rng):
    while True:
        f = _random_tower_element(T, rng, 0)
        if f.is_unit():
            return f


@pytest.mark.parametrize("F", [F5, F9], ids=repr)
def test_depth_three_multilinearity_and_steinberg_relation(F, steinberg_symbol):
    T = iterated_ring(F, ["t1", "t2", "t3"])
    rng = random.Random(f"depth 3 relations {F!r}")
    for _ in range(25):
        args = [_random_exact_unit(T, rng) for _ in range(4)]
        k, b = rng.randrange(4), _random_exact_unit(T, rng)
        with_b = args[:k] + [b] + args[k + 1:]
        product = args[:k] + [args[k] * b] + args[k + 1:]
        assert higher_symbol(product) == higher_symbol(args) * higher_symbol(with_b)
        f = _random_exact_unit(T, rng)
        if (T.one() - f).is_unit():
            i, j = rng.sample(range(4), 2)
            pair = [_random_exact_unit(T, rng) for _ in range(4)]
            pair[i], pair[j] = f, T.one() - f
            assert higher_symbol(pair).is_one()
            assert steinberg_symbol(pair).is_one()


def test_closed_form_at_depth_eight_is_antisymmetric_and_fast():
    # dense valuation matrices: the determinants are eliminated, not
    # expanded over permutations
    T = iterated_ring(F7, [f"t{k + 1}" for k in range(8)])
    rng = random.Random("closed form depth 8")
    start = time.perf_counter()
    for _ in range(5):
        args = [_monomial(T, F7.from_int(rng.randint(1, 6)),
                          [rng.randint(-3, 3) for _ in range(8)])
                for _ in range(9)]
        i, j = rng.sample(range(9), 2)
        swapped = list(args)
        swapped[i], swapped[j] = args[j], args[i]
        assert (higher_symbol(args) * higher_symbol(swapped)).is_one()
    assert time.perf_counter() - start < 2.0


def test_symbols_refuse_two_rings_and_arguments_without_a_series():
    f, g = LaurentRing(F5).gen(), LaurentRing(F7).gen()
    for symbol in (tame_symbol, cc_symbol):
        with pytest.raises(DescriptorMismatch,
                           match="^symbol arguments live in different rings$"):
            symbol(f, g)
        with pytest.raises(DescriptorMismatch, match="^symbol needs at least "
                           "one Laurent series argument$"):
            symbol(2, 3)
    with pytest.raises(DescriptorMismatch,
                       match="^symbol arguments live in different rings$"):
        higher_symbol([f, g])
    with pytest.raises(DescriptorMismatch, match="^symbol needs at least "
                       "one Laurent series argument$"):
        higher_symbol([2, 3])


def test_cc_symbol_with_a_dense_lead_at_the_nilpotency_limit_is_fast():
    # the lead 1 + e + e^2 + e^3 of the first argument is inverted in the
    # ring: by a Neumann series of 1023 full products this took 8 s
    # in-process on a 2-core host
    ring = parse_ring("F5[e]/e^1024")
    start = time.perf_counter()
    f, g = (parse_expression(src, ring, domain="series")
            for src in ("(1+e+e^2+e^3)*t+t^2", "(2+e)*t"))
    value = cc_symbol(f, g)
    assert time.perf_counter() - start < 2.0
    assert format_value(value) == "2 + e + 4*e^2"


@pytest.mark.parametrize("spec,f,g,digest", [
    ("F5[e]/e^64", "1+e*t^-1+t", "(1+e)*t^2+e*t^-3",
     "eebca73bfbd26afc829c01a4efdf96e186a6113681adb1d038fc879dc7cb2944"),
    ("F3[e]/e^32", "1+e*t^-3+2*t+e*t^2", "2+e*t^-2+t^2",
     "840f20902bbd37b528e50ef2c650803d3096ef2f41e2e1a29f31e30d09070e8d")],
    ids=["F5[e]/e^64", "F3[e]/e^32"])
def test_cc_symbol_with_nilpotent_poles_over_a_deep_ring_is_fast(spec, f, g,
                                                                  digest):
    # the negative split is a Weierstrass preparation of at most m passes;
    # by corrector products these took 4.2 s and 2.0 s in-process on a
    # 2-core Xeon host.  The digests pin the values the corrector products
    # printed
    ring = parse_ring(spec)
    start = time.perf_counter()
    f, g = (parse_expression(src, ring, domain="series") for src in (f, g))
    value = format_value(cc_symbol(f, g))
    assert time.perf_counter() - start < 1.0
    assert hashlib.sha256(value.encode()).hexdigest() == digest


def test_cc_symbol_of_terms_far_apart_is_fast():
    # F depends only on the terms below t^(low + L d + 1), and U is read off
    # a sparse product: a dense list up to t^5000000 took 3 s and 250 MiB
    ring = parse_ring("F5[e]/e^2")
    start = time.perf_counter()
    f, g = (parse_expression(src, ring, domain="series")
            for src in ("1+e*t^-1+t^5000000", "1-e*t^-1+t"))
    assert format_value(cc_symbol(f, g)) == "1 + e"
    # f / (1 - 4e t^-1) = 1 + 4e t^4999999 + t^5000000
    one, four_e = ring._one_raw(), (4 * ring.eps()).raw
    assert unit_decompose(f, positive_cutoff=1).rem == {
        0: one, 4999999: four_e, 5000000: one}
    assert time.perf_counter() - start < 1.0

"""Acceptance suite: nine exactness criteria covering the symbol pairings,
the reciprocity laws, Toeplitz joint torsion and 2-cocycle commutators.

Every criterion prints one `[PASS]`/`[FAIL]` line (bypassing pytest capture)
and asserts tolerance-zero equalities throughout.
"""

import itertools
import time

import pytest

from ccsym.cocycle import random_cocycle
from ccsym.geometry import (BivarPoly, BivarRational, RationalFunction,
                            SurfaceFlag)
from ccsym.groups import group_catalog
from ccsym.laurent import LaurentRing, LaurentSeries
from ccsym.poly import Poly, random_poly
from ccsym.reciprocity import cc_check, parshin_check, weil_check
from ccsym.rings import ArtinianLocal, GaloisField, PrimeField
from ccsym.symbols import cc_symbol, higher_symbol, tame_symbol
from ccsym.toeplitz import joint_torsion

F2, F3, F5, F7 = (PrimeField(p) for p in (2, 3, 5, 7))
F4, F8, F9 = GaloisField(2, 2), GaloisField(2, 3), GaloisField(3, 2)


def verdict(capsys, number: int, label: str, ok: bool):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {label}")
    assert ok, f"criterion {number}: {label}"


# -- random generators ----------------------------------------------------------

def nilpotent_scalar(ring, rng):
    return ring.eps() * ring.random(rng)


def unit_laurent_poly(sring, rng, span=4, max_shift=3, tail_depth=2):
    """Exact random unit of base((t)): unit lead, optional nilpotent tail."""
    base = sring.base
    coeffs = {0: base.random_unit(rng)}
    for e in range(1, span):
        if rng.random() < 0.6:
            coeffs[e] = base.random(rng)
    if base.nil_bound > 1:
        for e in range(-tail_depth, 0):
            if rng.random() < 0.35:
                c = nilpotent_scalar(base, rng)
                if not c.is_zero():
                    coeffs[e] = c
    shift = rng.randrange(-max_shift, max_shift + 1)
    return LaurentSeries(sring, coeffs).shift(shift)


def random_unit(sring, rng, span=4, max_shift=3, tail_depth=2, inv_prec=36):
    """Random unit: either an exact Laurent polynomial or a ratio of two,
    the latter expanded to generous absolute precision."""
    f = unit_laurent_poly(sring, rng, span, max_shift, tail_depth)
    if rng.random() < 0.5:
        g = unit_laurent_poly(sring, rng, span=3, max_shift=1,
                              tail_depth=min(tail_depth, 1))
        return f * g.inv(inv_prec)
    return f


def nested_unit(tower, rng, span=2):
    """Random unit of base((t1))((t2)) with a unit leading t1-coefficient."""
    inner = tower.base
    coeffs = {0: unit_laurent_poly(inner, rng, span=2, max_shift=1)}
    for e in range(1, span):
        if rng.random() < 0.5:
            c = inner.random(rng, low=-1, high=2)
            if c.coeffs:
                coeffs[e] = c
    shift = rng.randrange(-1, 2)
    return LaurentSeries(tower, coeffs).shift(shift)


def random_rational(field, rng, max_num=5, max_den=4):
    num = random_poly(field, rng, rng.randrange(1, max_num + 1))
    den = random_poly(field, rng, rng.randrange(0, max_den + 1))
    return RationalFunction(num, den)


def random_artinian_rational(ring, rng, max_degree=3):
    def poly_with_unit_lead(limit):
        d = rng.randrange(1, limit + 1)
        coeffs = [ring.random(rng) for _ in range(d)] + [ring.random_unit(rng)]
        return Poly(ring, coeffs)
    return RationalFunction(poly_with_unit_lead(max_degree),
                            poly_with_unit_lead(max_degree - 1))


# -- criterion 1: tame/Contou-Carrere agreement over finite fields ----------------

def test_criterion_1_tame_cc_agreement(capsys, rng):
    fields = [F2, F3, F5, F7, F9]
    start = time.monotonic()
    checked = 0
    for field in fields:
        sring = LaurentRing(field, "t")
        for _ in range(200):
            f = random_unit(sring, rng)
            g = random_unit(sring, rng)
            assert cc_symbol(f, g) == tame_symbol(f, g), (field, f, g)
            checked += 1
    elapsed = time.monotonic() - start
    assert checked == 1000
    ok = elapsed < 10.0
    verdict(capsys, 1,
            f"cc = tame on 1000 rational unit pairs over F2/F3/F5/F7/F9 "
            f"({elapsed:.1f}s)", ok)


# -- criterion 2: closed-form spot values against a term-by-term oracle -----------

def test_criterion_2_spot_values(capsys):
    for p in (3, 5, 7):
        A = ArtinianLocal(PrimeField(p), 2)
        sring = LaurentRing(A, "t")
        eps = A.eps()
        t = sring.gen()
        for k in range(p):
            c = A.from_int(k)
            f = sring.one() - sring.constant(eps) * t ** -1
            g = sring.one() - sring.constant(c) * t
            # oracle: (1 - eps*c)^{-1} summed term by term; eps^2 = 0 cuts
            # the geometric series after the linear term
            expected = A.one() + eps * c
            assert (A.one() - eps * c) * expected == A.one()
            assert cc_symbol(f, g) == expected, (p, k)
    verdict(capsys, 2,
            "(1 - e*t^-1, 1 - c*t) = (1 - e*c)^{-1} for all c over "
            "F3/F5/F7 with e^2 = 0", True)


# -- criterion 3: algebraic laws of the pairings ----------------------------------

RING_POOL = [F3, F5, F9, ArtinianLocal(F5, 2), ArtinianLocal(F3, 2),
             ArtinianLocal(F7, 3), ArtinianLocal(GaloisField(2, 2), 2)]


def _steinberg_pair(sring, rng):
    while True:
        f = unit_laurent_poly(sring, rng, span=3, max_shift=0)
        complement = sring.one() - f
        try:
            complement.valuation()
        except Exception:
            continue
        return f, complement


def test_criterion_3_symbol_laws(capsys, rng):
    pools = [LaurentRing(ring, "t") for ring in RING_POOL]

    for i in range(500):  # bimultiplicativity
        sring = pools[i % len(pools)]
        f1, f2, g = (random_unit(sring, rng, span=3, max_shift=1, tail_depth=1)
                     for _ in range(3))
        assert cc_symbol(f1 * f2, g) == cc_symbol(f1, g) * cc_symbol(f2, g)

    for i in range(500):  # antisymmetry
        sring = pools[i % len(pools)]
        f = random_unit(sring, rng, span=3, max_shift=2)
        g = random_unit(sring, rng, span=3, max_shift=2)
        assert (cc_symbol(f, g) * cc_symbol(g, f)).is_one()

    for i in range(500):  # Steinberg
        sring = pools[i % len(pools)]
        f, complement = _steinberg_pair(sring, rng)
        assert cc_symbol(f, complement).is_one()

    for i in range(500):  # {a, a} = {a, -1}
        sring = pools[i % len(pools)]
        f = random_unit(sring, rng, span=3, max_shift=2)
        minus_one = -sring.one()
        assert cc_symbol(f, f) == cc_symbol(f, minus_one)

    perms = [p for p in itertools.permutations(range(3))
             if p != (0, 1, 2)]
    for i in range(500):  # arity-3 permutation sign law
        field = (F5, F7)[i % 2]
        tower = LaurentRing(LaurentRing(field, "t1"), "t2")
        args = tuple(nested_unit(tower, rng) for _ in range(3))
        base = higher_symbol(args)
        sigma = perms[i % len(perms)]
        permuted = higher_symbol(tuple(args[j] for j in sigma))
        inversions = sum(1 for a in range(3) for b in range(a + 1, 3)
                         if sigma[a] > sigma[b])
        expected = base if inversions % 2 == 0 else base.inv()
        assert permuted == expected, (sigma, args)

    verdict(capsys, 3,
            "bimultiplicativity, antisymmetry, arity-3 sign law, Steinberg "
            "and {a,a}={a,-1}, 500 random cases each", True)


# -- criterion 4: Weil reciprocity -------------------------------------------------

FACTOR_DEGREE_CAP = {2: 5, 3: 5, 4: 5, 5: 4, 7: 4, 8: 3, 9: 3}


def bounded_rational(field, rng):
    """Random rational function of degree <= 5 whose irreducible factors keep
    the residue-field scans small over the larger base fields."""
    cap = FACTOR_DEGREE_CAP[field.size]

    def build(total):
        target = rng.randrange(1, total + 1)
        poly = None
        while target > 0:
            d = rng.randrange(1, min(cap, target) + 1)
            piece = random_poly(field, rng, d)
            poly = piece if poly is None else poly * piece
            target -= d
        return poly

    return RationalFunction(build(5), build(4) if rng.random() < 0.8 else None)


def test_criterion_4_weil_reciprocity(capsys, rng):
    fields = [F2, F3, F4, F5, F7, F8, F9]
    start = time.monotonic()
    saw_degree_3 = False
    saw_norm_contribution = False
    pairs = 0
    while pairs < 200:
        field = fields[pairs % len(fields)]
        f = bounded_rational(field, rng)
        g = bounded_rational(field, rng)
        report = weil_check(f, g)
        assert report.ok, (field, f, g)
        assert report.product.is_one()
        for factor in report.factors:
            if factor.degree >= 3:
                saw_degree_3 = True
            if factor.degree >= 2 and not factor.contribution.is_one():
                saw_norm_contribution = True
        pairs += 1
    elapsed = time.monotonic() - start
    assert saw_degree_3, "no place of degree 3 appeared in 200 pairs"
    assert saw_norm_contribution, "no nontrivial normed contribution appeared"
    ok = elapsed < 30.0
    verdict(capsys, 4,
            f"Weil product = 1 on 200 random pairs, degrees <= 5, q <= 9, "
            f"with degree-3 places and nontrivial norms ({elapsed:.1f}s)", ok)


# -- criterion 5: Contou-Carrere reciprocity over artinian coefficients ------------

def test_criterion_5_cc_reciprocity(capsys, rng):
    rings = [ArtinianLocal(PrimeField(p), m)
             for p in (3, 5, 7) for m in (2, 3)]
    nontrivial = 0
    for i in range(100):
        ring = rings[i % len(rings)]
        f = random_artinian_rational(ring, rng)
        g = random_artinian_rational(ring, rng)
        report = cc_check(f, g)
        assert report.ok, (ring, f, g)
        assert report.product.is_one()
        if report.nontrivial_count():
            nontrivial += 1
    ok = nontrivial >= 20
    verdict(capsys, 5,
            f"CC product = 1 on 100 random pairs over F_p[e]/e^m (m <= 3), "
            f"{nontrivial} with a nontrivial local factor", ok)


# -- criterion 6: plane reciprocity over the four origin flags ---------------------

def _origin_flags(field):
    zero = field.zero()
    one = field.one()
    return [
        SurfaceFlag.vertical(zero, zero),                      # t1 = 0
        SurfaceFlag.graph(Poly.zero(field), zero),             # t2 = 0
        SurfaceFlag.graph(Poly(field, [zero, -one]), zero),    # t2 = -t1
        SurfaceFlag.graph(Poly(field, [zero, one]), zero),     # t2 = t1
    ]


def _linear_forms(field):
    t1 = BivarRational.t1(field)
    t2 = BivarRational.t2(field)
    return {"t1": t1, "t2": t2, "t1+t2": t1 + t2, "t1-t2": t1 - t2}


def test_criterion_6_parshin_reciprocity(capsys):
    for field in (F5, F7):
        forms = _linear_forms(field)
        flags = _origin_flags(field)
        count = 0
        for names in itertools.permutations(sorted(forms), 3):
            functions = [forms[name] for name in names]
            report = parshin_check(functions, flags)
            assert report.ok, (field.char, names)
            assert report.product.is_one(), (field.char, names)
            count += 1
        assert count == 24
    verdict(capsys, 6,
            "Parshin product over four origin flags = 1 for all 24 ordered "
            "triples of distinct forms from {t1, t2, t1+t2, t1-t2} over "
            "F5 and F7", True)


# -- criterion 7: Toeplitz joint torsion -------------------------------------------

def test_criterion_7_toeplitz_joint_torsion(capsys, rng):
    rings = [F5, ArtinianLocal(F3, 2)]
    observations = []
    for ring in rings:
        sring = LaurentRing(ring, "t")
        length = ring.nil_bound
        for _ in range(50):
            f = unit_laurent_poly(sring, rng, span=3, max_shift=2)
            g = unit_laurent_poly(sring, rng, span=3, max_shift=2)
            value = joint_torsion(f, g)

            def extent(h):
                low = h.low if h.low is not None else 0
                return max(0, -low), h.degree() - low
            pole_f, span_f = extent(f)
            pole_g, span_g = extent(g)
            pole = pole_f + pole_g
            corner = (length - 1) * pole + 4
            size = corner + span_f + span_g + 8
            beyond = joint_torsion(f, g, corner=corner, size=size)
            further = joint_torsion(f, g, corner=corner + 2, size=size + 4)
            assert value == beyond == further, (ring, f, g)
            observations.append((value, cc_symbol(f, g)))

    exponent = None
    for value, cc in observations:
        if cc != cc.inv():
            exponent = 1 if value == cc else (-1 if value == cc.inv() else None)
            break
    assert exponent is not None, "no orientation-revealing pair appeared"
    for value, cc in observations:
        expected = cc if exponent == 1 else cc.inv()
        assert value == expected
    verdict(capsys, 7,
            f"joint torsion stabilizes beyond the static window and equals "
            f"cc_symbol^s with global s = {exponent:+d} on 100 pairs over "
            f"F5 and F3[e]/e^2", True)


# -- criterion 8: precision independence -------------------------------------------

def test_criterion_8_precision_independence(capsys, rng):
    N = 16
    TORSION_N = 48  # Toeplitz windows read further into the series
    rings = [F5, F9, ArtinianLocal(F3, 2), ArtinianLocal(F5, 3)]
    for ring in rings:
        sring = LaurentRing(ring, "t")
        for _ in range(10):
            f = unit_laurent_poly(sring, rng, span=3, max_shift=2)
            g = unit_laurent_poly(sring, rng, span=3, max_shift=2)
            assert cc_symbol(f.truncate(N), g.truncate(N)) == \
                cc_symbol(f.truncate(N + 8), g.truncate(N + 8))
            assert joint_torsion(f.truncate(TORSION_N), g.truncate(TORSION_N)) == \
                joint_torsion(f.truncate(TORSION_N + 8), g.truncate(TORSION_N + 8))

    for ring in rings:
        for _ in range(5):
            if ring.is_field:
                f = random_rational(ring, rng, max_num=3, max_den=2)
                g = random_rational(ring, rng, max_num=3, max_den=2)
                low = weil_check(f, g, precision=N)
                high = weil_check(f, g, precision=N + 8)
            else:
                f = random_artinian_rational(ring, rng)
                g = random_artinian_rational(ring, rng)
                low = cc_check(f, g, precision=N)
                high = cc_check(f, g, precision=N + 8)
            assert low.product == high.product
            assert [x.contribution for x in low.factors] == \
                [x.contribution for x in high.factors]
    verdict(capsys, 8,
            f"symbols, torsion and reciprocity reports identical at "
            f"precision {N} and {N + 8}", True)


# -- criterion 9: cocycle commutator pairings --------------------------------------

def test_criterion_9_cocycle_commutators(capsys, rng):
    coefficient_rings = [F5, F3, GaloisField(2, 2), ArtinianLocal(F5, 2),
                         F7, GaloisField(3, 2)]
    groups = group_catalog(16)
    assert len(groups) == 42
    for k, (name, group) in enumerate(groups):
        ring = coefficient_rings[k % len(coefficient_rings)]
        sigma = random_cocycle(group, ring, rng)
        beta = [ring.random_unit(rng) for _ in range(group.n)]
        shifted = sigma.with_coboundary(beta)
        commuting = [(i, j) for i in group.elements() for j in group.elements()
                     if group.commutes(i, j)]
        for i, j in commuting:  # coboundary invariance, exhaustive
            assert shifted.commutator(i, j) == sigma.commutator(i, j), \
                (name, i, j)
        checked = 0
        for i, j in commuting:  # bilinearity on commuting triples
            ij = group.mul(i, j)
            for l in group.elements():
                if not (group.commutes(i, l) and group.commutes(j, l)
                        and group.commutes(ij, l)):
                    continue
                assert sigma.commutator(ij, l) == \
                    sigma.commutator(i, l) * sigma.commutator(j, l), \
                    (name, i, j, l)
                checked += 1
        assert checked > 0, name
    verdict(capsys, 9,
            "coboundary invariance and commutator bilinearity, exhaustive "
            "over all 42 groups of order <= 16 with random cocycles", True)

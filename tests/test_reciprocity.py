"""Reciprocity laws: Weil, Contou-Carrere and Parshin product formulas."""

import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ccsym import poly, rings
from ccsym.cli import main
from ccsym.errors import (AlgebraError, IncompleteFlagCover,
                          NonUnitLeadingCoefficient, UnsupportedArgument,
                          ZeroFunction)
from ccsym.geometry import (BivarPoly, BivarRational, RationalFunction,
                            SurfaceFlag, flag_expand)
from ccsym.parser import parse_expression
from ccsym.poly import Poly, is_irreducible, random_poly
from ccsym.reciprocity import (LocalFactor, ReciprocityReport,
                               _check_flag_cover, _curve_key, _divide_out,
                               cc_check, parshin_check, weil_check)
from ccsym.rings import ArtinianLocal, GaloisField, PrimeField

F5 = PrimeField(5)
F7 = PrimeField(7)


def rf(ring, num, den=None):
    return RationalFunction(Poly(ring, num),
                            Poly(ring, den) if den is not None else None)


def random_rational(field, rng, max_factor_degree=3, factors=2):
    num = random_poly(field, rng, rng.randrange(1, max_factor_degree + 1))
    for _ in range(rng.randrange(0, factors)):
        num = num * random_poly(field, rng, rng.randrange(1, max_factor_degree + 1))
    den = random_poly(field, rng, rng.randrange(0, max_factor_degree + 1))
    return RationalFunction(num, den)


def random_artinian_rational(ring, rng, max_degree=3):
    def poly_with_unit_lead(limit):
        d = rng.randrange(1, limit + 1)
        coeffs = [ring.random(rng) for _ in range(d)] + [ring.random_unit(rng)]
        return Poly(ring, coeffs)
    return RationalFunction(poly_with_unit_lead(max_degree),
                            poly_with_unit_lead(max_degree - 1))


# -- Weil ---------------------------------------------------------------------

def test_weil_classic_pair():
    t = RationalFunction.variable(F5)
    one = RationalFunction.constant(F5.one())
    report = weil_check(t, one - t)
    assert report.ok
    assert report.law == "weil"
    assert all(f.contribution.is_one() for f in report.factors)


def test_weil_self_pairing():
    t = RationalFunction.variable(F5)
    report = weil_check(t, t)
    assert report.ok
    # the two nontrivial signs at 0 and infinity cancel
    values = [f.contribution for f in report.factors]
    assert sum(1 for v in values if not v.is_one()) == 2


def test_weil_nontrivial_norm_from_degree_two_place():
    f = rf(F5, [2, 0, 1])            # t^2 + 2, zeros at a conjugate pair
    g = rf(F5, [0, 1])               # t
    report = weil_check(f, g)
    assert report.ok
    deg2 = [fac for fac in report.factors if fac.degree == 2]
    assert deg2 and not deg2[0].contribution.is_one()


def test_weil_never_scans_a_field(monkeypatch, capsys):
    """Places of high degree and huge prime fields go through root finding,
    never through enumerating a residue field."""
    def refuse(self):
        raise AssertionError(f"enumerated the elements of {self}")
    monkeypatch.setattr(GaloisField, "elements", refuse)
    monkeypatch.setattr(PrimeField, "elements", refuse)
    monkeypatch.setattr(poly, "_ROOTS_CACHE", {})
    monkeypatch.setattr(rings, "_EMBED_CACHE", {})
    F9 = GaloisField(3, 2)
    rng = random.Random(6)
    pi = random_poly(F9, rng, 6, monic=True)
    while not is_irreducible(pi):
        pi = random_poly(F9, rng, 6, monic=True)
    report = weil_check(RationalFunction(pi), rf(F9, [1, 2]))
    assert report.ok
    assert sorted(f.degree for f in report.factors) == [1, 1, 6]
    assert main(["verify", "weil", "--ring", "F2305843009213693951",
                 "t-1", "t+2"]) == 0
    assert "product 1" in capsys.readouterr().out


def test_weil_random_many_fields(rng):
    for field in (PrimeField(2), PrimeField(3), F5, F7,
                  GaloisField(2, 2), GaloisField(3, 2)):
        for _ in range(8):
            f = random_rational(field, rng)
            g = random_rational(field, rng)
            assert weil_check(f, g).ok


def test_weil_rejects_artinian_and_zero():
    A = ArtinianLocal(F5, 2)
    with pytest.raises(UnsupportedArgument):
        weil_check(RationalFunction.variable(A), RationalFunction.variable(A))
    t = RationalFunction.variable(F5)
    with pytest.raises(ZeroFunction):
        weil_check(t, RationalFunction(Poly.zero(F5)))


# -- Contou-Carrere -----------------------------------------------------------

def test_cc_anchor_shifted_zero():
    A = ArtinianLocal(F5, 2)
    eps = A.eps()
    f = RationalFunction(Poly(A, [-eps, A.one()]))       # t - eps
    g = RationalFunction(Poly(A, [A.one(), -A.one()]))   # 1 - t
    report = cc_check(f, g)
    assert report.ok
    by_label = {fac.label: fac.contribution for fac in report.factors}
    one, m_eps = A.one(), -eps
    assert by_label["t"] == one + A.eps()
    assert by_label["4 + t"] == one + m_eps
    assert by_label["infinity"].is_one()


def test_cc_shared_residue_factor_contributes():
    # f = (t + eps)/t and g = 1 - t: the only nontrivial places are where
    # num and den share the residue factor t, invisible after reduction
    A = ArtinianLocal(F5, 2)
    eps = A.eps()
    f = RationalFunction(Poly(A, [eps, A.one()]), Poly.x(A))
    g = RationalFunction(Poly(A, [A.one(), -A.one()]))
    report = cc_check(f, g)
    assert report.ok
    assert report.nontrivial_count() >= 1


def test_cc_random(rng):
    for p, m in ((5, 2), (3, 3), (7, 2), (2, 2)):
        ring = ArtinianLocal(PrimeField(p), m)
        for _ in range(8):
            f = random_artinian_rational(ring, rng)
            g = random_artinian_rational(ring, rng)
            assert cc_check(f, g).ok


def test_cc_over_galois_base(rng):
    ring = ArtinianLocal(GaloisField(2, 2), 2)
    for _ in range(5):
        f = random_artinian_rational(ring, rng)
        g = random_artinian_rational(ring, rng)
        assert cc_check(f, g).ok


def test_cc_high_degree_place_is_fast(monkeypatch):
    # f is irreducible over F3: one place of degree 10, where the norm from
    # F_{3^10}[e]/e^2 must not cost a determinant of size 10
    monkeypatch.setattr(poly, "_ROOTS_CACHE", {})
    monkeypatch.setattr(rings, "_EMBED_CACHE", {})
    A = ArtinianLocal(PrimeField(3), 2)
    f = rf(A, [1, 1, 1, 0, 2, 2, 1, 2, 0, 0, 1])
    g = RationalFunction(Poly(A, [A.eps(), A.one()]))
    start = time.perf_counter()
    report = cc_check(f, g)
    assert time.perf_counter() - start < 2.0
    assert report.ok
    assert 10 in [fac.degree for fac in report.factors]


def test_weil_high_degree_place_is_fast(monkeypatch):
    # one place of degree 12 over F9, residue field F_{3^24}: one root by
    # halving and its Frobenius orbit, not a full split in F_{3^24}
    monkeypatch.setattr(poly, "_ROOTS_CACHE", {})
    monkeypatch.setattr(rings, "_EMBED_CACHE", {})
    F9 = GaloisField(3, 2)
    text = ("t^12 + (1+2*g)*t^11 + 2*g*t^10 + 2*g*t^6 + (2+2*g)*t^5"
            " + (2+g)*t^4 + 2*t^3 + 2*t + 2*g")
    f = parse_expression(text, F9, domain="rational")
    assert is_irreducible(f.num)
    g = parse_expression("1+2*t", F9, domain="rational")
    start = time.perf_counter()
    report = weil_check(f, g)
    assert time.perf_counter() - start < 2.0
    assert report.ok
    assert 12 in [fac.degree for fac in report.factors]


def _earlier_default(f, g):
    """The expansion precision the line laws used before they read the
    precision off each place: nil_bound * (total degree) + 8."""
    total = (f.num.degree() + f.den.degree()
             + g.num.degree() + g.den.degree())
    return f.ring.nil_bound * max(total, 1) + 8


LINE_RINGS = [ArtinianLocal(PrimeField(3), 2), ArtinianLocal(F5, 2),
              ArtinianLocal(F7, 2), ArtinianLocal(PrimeField(3), 3),
              ArtinianLocal(F5, 3), ArtinianLocal(GaloisField(3, 2), 2),
              ArtinianLocal(PrimeField(2), 4), PrimeField(2), PrimeField(3),
              GaloisField(3, 2), GaloisField(2, 4)]


@pytest.mark.parametrize("ring", LINE_RINGS, ids=repr)
def test_default_precision_reports_match_a_longer_expansion(ring):
    # the default expands each function only as far as its local symbol
    # needs; 16 more coefficients than the earlier default change no report
    rng = random.Random(f"line precision {ring!r}")
    places = set()
    for _ in range(100):
        f, g = (random_artinian_rational(ring, rng, 3) for _ in range(2))
        for check in (weil_check, cc_check) if ring.is_field else (cc_check,):
            report = check(f, g).to_json()
            longer = check(f, g, precision=_earlier_default(f, g) + 16)
            assert report == longer.to_json(), (check, f, g)
            places.update("infinity" if x["place"] == "infinity" else x["degree"]
                          for x in report["factors"])
    assert places >= {1, 2, 3, "infinity"}


def test_cc_guards():
    A = ArtinianLocal(F5, 2)
    bad = RationalFunction(Poly(A, [A.one(), A.eps()]))
    with pytest.raises(NonUnitLeadingCoefficient):
        cc_check(bad, RationalFunction.variable(A))


def test_report_json_shape():
    t = RationalFunction.variable(F5)
    one = RationalFunction.constant(F5.one())
    data = weil_check(t, one - t).to_json()
    assert data["law"] == "weil"
    assert data["verdict"] is True
    assert data["product"] == "1"
    assert {"place", "degree", "local", "value", "regular"} <= set(data["factors"][0])
    assert all(f["regular"] == (f["value"] == "1") for f in data["factors"])


# -- Parshin ------------------------------------------------------------------

def origin_flags(field):
    zero = field.zero()
    return [
        SurfaceFlag.vertical(zero, zero),                 # t1 = 0
        SurfaceFlag.graph(Poly.zero(field), zero),        # t2 = 0
        SurfaceFlag.graph(Poly(field, [0, 1]), zero),     # t2 = t1
        SurfaceFlag.graph(Poly(field, [0, -1]), zero),    # t2 = -t1
    ]


def line_pool(field):
    t1 = BivarRational.t1(field)
    t2 = BivarRational.t2(field)
    return {"t1": t1, "t2": t2, "t1+t2": t1 + t2, "t1-t2": t1 - t2}


def test_parshin_named_triples():
    for field in (F5, F7):
        pool = line_pool(field)
        flags = origin_flags(field)
        for names in (("t1", "t2", "t1+t2"), ("t1", "t1+t2", "t1-t2"),
                      ("t2", "t1+t2", "t1-t2"), ("t1", "t2", "t1-t2")):
            report = parshin_check([pool[n] for n in names], flags)
            assert report.ok, names
            assert report.law == "parshin"


def test_parshin_sample_of_all_triples(rng):
    pool = line_pool(F5)
    flags = origin_flags(F5)
    triples = list(itertools.product(pool, repeat=3))
    for names in rng.sample(triples, 12):
        assert parshin_check([pool[n] for n in names], flags).ok


def test_parshin_missing_flag_detected():
    pool = line_pool(F5)
    flags = origin_flags(F5)[:3]    # drop t2 = -t1, where t1+t2 vanishes
    with pytest.raises(IncompleteFlagCover):
        parshin_check((pool["t1"], pool["t2"], pool["t1+t2"]), flags)
    # a triple avoiding the dropped curve is fine with three flags
    assert parshin_check((pool["t1"], pool["t2"], pool["t1-t2"]), flags).ok


def test_parshin_nonlinear_curve_needs_its_flag():
    parabola = BivarRational(BivarPoly(F5, {(0, 1): 1, (2, 0): -1}))
    pool = line_pool(F5)
    flags = origin_flags(F5)
    with pytest.raises(IncompleteFlagCover):
        parshin_check((pool["t1"], pool["t2"], parabola), flags)
    flags_full = flags + [SurfaceFlag.graph(Poly(F5, [0, 0, 1]), F5.zero())]
    report = parshin_check((pool["t1"], pool["t2"], parabola), flags_full)
    assert report.ok


def test_parshin_arity_and_zero_guards():
    pool = line_pool(F5)
    flags = origin_flags(F5)
    with pytest.raises(UnsupportedArgument):
        parshin_check((pool["t1"], pool["t2"]), flags)
    with pytest.raises(ZeroFunction):
        parshin_check((pool["t1"], pool["t2"],
                       BivarRational(BivarPoly.zero(F5))), flags)
    with pytest.raises(IncompleteFlagCover):
        parshin_check((pool["t1"], pool["t2"], pool["t1+t2"]), [])


def test_parshin_refuses_a_repeated_flag():
    # counted twice, the factor 2 of t1 = 0 made the product 2: a false
    # refutation of the law
    pool = line_pool(F5)
    three = BivarRational.constant(F5.from_int(3))
    vertical, horizontal = origin_flags(F5)[:2]
    with pytest.raises(UnsupportedArgument,
                       match=r"^the flag \(t1 = 0; point \(0, 0\)\) is given twice$"):
        parshin_check((three, pool["t1"], pool["t2"]),
                      [vertical, horizontal, vertical])
    # the same curve at another point is another flag
    elsewhere = SurfaceFlag.vertical(F5.zero(), F5.one())
    assert parshin_check((three, pool["t1"], pool["t2"]),
                         [vertical, horizontal, elsewhere]).ok


# -- the two-pass flag cover check on wrapped polynomials, kept as an oracle ---

def _wrapped_divmod_by_curve(poly, flag):
    ring = poly.ring
    if flag.kind == "vertical":
        c = flag.data[0]
        # synthetic division by (t1 - c), coefficients in k[t2]
        if not poly.coeffs:
            return poly, BivarPoly.zero(ring)
        top = max(i for i, _ in poly.coeffs)
        quot = {}
        carry = {}
        for i in range(top, 0, -1):
            row = {j: v for (ii, j), v in poly.coeffs.items() if ii == i}
            for j, v in row.items():
                carry[j] = carry.get(j, ring.zero()) + v
            for j, v in carry.items():
                if not v.is_zero():
                    quot[(i - 1, j)] = v
            carry = {j: v * c for j, v in carry.items()}
        rem = BivarPoly(ring, {(0, j): v for j, v in carry.items()})
        rem = rem + BivarPoly(ring, {(0, j): v for (ii, j), v in poly.coeffs.items()
                                     if ii == 0})
        return BivarPoly(ring, quot), rem
    phi = flag.data[0]
    # division by (t2 - phi(t1)), coefficients in k[t1]
    if not poly.coeffs:
        return poly, BivarPoly.zero(ring)
    top = max(j for _, j in poly.coeffs)
    quot_rows = {}
    carry_poly = Poly.zero(ring)
    for j in range(top, 0, -1):
        row = Poly(ring, [poly.coeffs.get((i, j), ring.zero())
                          for i in range(0, 1 + max((i for (i, jj) in poly.coeffs
                                                     if jj == j), default=0))])
        carry_poly = carry_poly + row
        quot_rows[j - 1] = carry_poly
        carry_poly = carry_poly * phi
    row0 = Poly(ring, [poly.coeffs.get((i, 0), ring.zero())
                       for i in range(0, 1 + max((i for (i, jj) in poly.coeffs
                                                  if jj == 0), default=0))])
    rem_poly = carry_poly + row0
    quot = {}
    for j, qp in quot_rows.items():
        for i, cf in enumerate(qp.coeffs):
            if not cf.is_zero():
                quot[(i, j)] = cf
    rem = BivarPoly(ring, {(i, 0): cf for i, cf in enumerate(rem_poly.coeffs)
                           if not cf.is_zero()})
    return BivarPoly(ring, quot), rem


def _wrapped_divide_out(poly, flag):
    mult = 0
    while not poly.is_zero():
        quot, rem = _wrapped_divmod_by_curve(poly, flag)
        if not rem.is_zero():
            break
        poly = quot
        mult += 1
    return mult, poly


def _two_pass_flag_cover(functions, flags):
    if not flags:
        raise IncompleteFlagCover("no flags given")
    ring = functions[0].ring
    points = {}
    for flag in flags:
        points.setdefault(flag.point, set()).add(_curve_key(flag))
    for point, provided in points.items():
        x0, y0 = point
        candidates = [SurfaceFlag.vertical(x0, y0)]
        for lam in ring.elements():
            phi = Poly(ring, [y0 - lam * x0, lam])
            candidates.append(SurfaceFlag.graph(phi, x0))
        candidates.extend(fl for fl in flags if fl.point == point)
        seen = set()
        unique = []
        for fl in candidates:
            key = _curve_key(fl)
            if key not in seen:
                seen.add(key)
                unique.append(fl)
        for f in functions:
            residual_vanishes = False
            for poly in (f.num, f.den):
                rest = poly
                for fl in unique:
                    _, rest = _wrapped_divide_out(rest, fl)
                if rest.is_zero() or rest.evaluate(x0, y0).is_zero():
                    residual_vanishes = True
            if residual_vanishes:
                raise IncompleteFlagCover(
                    f"a curve through ({x0}, {y0}) outside the flag family"
                    f" carries a zero or pole of {f!r}")
            for fl in unique:
                num_mult, _ = _wrapped_divide_out(f.num, fl)
                den_mult, _ = _wrapped_divide_out(f.den, fl)
                if num_mult != den_mult and _curve_key(fl) not in provided:
                    raise IncompleteFlagCover(
                        f"function {f!r} has a zero or pole along"
                        f" {fl.label()} which is missing from the flags")


def _cover_outcome(check, functions, flags):
    try:
        check(functions, flags)
    except AlgebraError as exc:
        return type(exc), str(exc)
    return "covered"


def _random_bivar_function(field, rng):
    """A quotient of products of curves through the origin and elsewhere,
    some repeated, and of random polynomials of degree at most 2."""
    def factor():
        kind = rng.randrange(4)
        if kind == 0:       # a line through the origin
            lam = rng.randrange(field.char + 1)
            return BivarPoly(field, {(1, 0): 1} if lam == field.char
                             else {(0, 1): 1, (1, 0): -lam})
        if kind == 1:       # a line or parabola missing the origin
            return BivarPoly(field, {(0, 1): 1, (rng.randrange(1, 3), 0): 1,
                                     (0, 0): rng.randrange(1, field.char)})
        if kind == 2:       # the parabola t2 = c t1^2 through the origin
            return BivarPoly(field, {(0, 1): 1, (2, 0): -rng.randrange(1, 3)})
        return BivarPoly(field, {(i, j): rng.randrange(field.char)
                                 for i in range(3) for j in range(3 - i)})

    def product():
        out = BivarPoly.one(field)
        for _ in range(rng.randrange(3)):
            out = out * factor() ** rng.randrange(1, 3)
        return out

    num, den = product(), product()
    while num.is_zero() or den.is_zero():
        num, den = product(), product()
    return BivarRational(num, den)


@pytest.mark.parametrize("field", [F5, F7], ids=repr)
def test_flag_cover_matches_the_two_pass_check(field):
    rng = random.Random(f"flag cover {field!r}")
    full = origin_flags(field)
    families = [full] + [full[:k] + full[k + 1:] for k in range(len(full))]
    seen = set()
    for _ in range(30):
        functions = [_random_bivar_function(field, rng) for _ in range(3)]
        for flags in families:
            want = _cover_outcome(_two_pass_flag_cover, functions, flags)
            assert _cover_outcome(_check_flag_cover, functions, flags) == want
            seen.add(want if want == "covered" else want[1].split()[0])
    assert seen == {"covered", "a", "function"}   # every outcome was reached


# -- the tangent-cone candidates against the scan of every slope ----------------
# _two_pass_flag_cover above divides out every line through each point


def _random_plane_function(field, point, rng, slopes=None):
    """A quotient of products of lines and conics through `point` with
    slopes anywhere in the field, and of random polynomials.  Given
    `slopes`, only lines of those slopes (None: vertical) and polynomials
    that do not vanish at the point occur."""
    x0, y0 = point

    def factor():
        kind = rng.randrange(4)
        u = BivarPoly(field, {(1, 0): field.one(), (0, 0): -x0})
        v = BivarPoly(field, {(0, 1): field.one(), (0, 0): -y0})
        if slopes is not None:
            if kind < 2:
                lam = rng.choice(slopes)
                return u if lam is None else v - u * lam
            p = BivarPoly(field, {(i, j): field.random(rng)
                                  for i in range(3) for j in range(3 - i)})
            return p + BivarPoly.one(field) if p.evaluate(x0, y0).is_zero() else p
        if kind == 0:       # a line through the point, maybe vertical
            return u if rng.random() < 0.2 else v - u * field.random(rng)
        if kind == 1:       # a conic through the point, tangent to a line
            return v - u * field.random(rng) - u * u * field.random_unit(rng)
        if kind == 2:       # a node or cusp at the point
            return v * v - u * u * u - u * v * field.random(rng)
        return BivarPoly(field, {(i, j): field.random(rng)
                                 for i in range(3) for j in range(3 - i)})

    def product():
        out = BivarPoly.one(field)
        for _ in range(rng.randrange(3)):
            out = out * factor() ** rng.randrange(1, 3)
        return out

    num, den = product(), product()
    while num.is_zero() or den.is_zero():
        num, den = product(), product()
    return BivarRational(num, den)


@pytest.mark.parametrize("field", [F5, F7, GaloisField(3, 2)], ids=repr)
def test_tangent_cone_cover_matches_the_slope_scan(field):
    rng = random.Random(f"tangent cone {field!r}")
    seen = set()
    for trial in range(40):
        point = ((field.zero(), field.zero()) if trial % 2 == 0
                 else (field.random(rng), field.random(rng)))
        x0, y0 = point
        flags = [SurfaceFlag.vertical(x0, y0)]
        lams = rng.sample(list(field.elements()), 3)
        for lam in lams:
            flags.append(SurfaceFlag.graph(Poly(field, [y0 - lam * x0, lam]), x0))
        slopes = [None] + lams if trial % 3 == 0 else None
        functions = [_random_plane_function(field, point, rng, slopes)
                     for _ in range(3)]
        for family in [flags] + [flags[:k] + flags[k + 1:] for k in range(4)]:
            want = _cover_outcome(_two_pass_flag_cover, functions, family)
            assert _cover_outcome(_check_flag_cover, functions, family) == want
            seen.add(want if want == "covered" else want[1].split()[0])
    assert seen == {"covered", "a", "function"}   # every outcome was reached


def test_flag_cover_over_a_huge_prime_is_fast():
    # the slope scan took 10^6 steps here; the tangent cone takes a few roots
    cmd = [sys.executable, "-m", "ccsym.cli", "verify", "parshin",
           "--ring", "F1048583", "--flag", "t1=0@0", "--flag", "t2=0@0",
           "--flag", "t2=-t1@0", "t1", "t2", "t1+t2"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    start = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=10, env=env)
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "parshin reciprocity holds"
    assert elapsed < 2.0, elapsed


# -- the default Parshin route against flag_expand and the Steinberg route ------

def _expanded_parshin(functions, flags, symbol, precision=None):
    """The Parshin report as computed before leading terms: the shared cover
    check, then every function expanded by flag_expand at `precision` (its
    default if None) and evaluated by `symbol`."""
    _check_flag_cover(functions, flags)
    factors, product = [], functions[0].ring.one()
    for flag in flags:
        local = symbol([flag_expand(f, flag, precision) for f in functions])
        factors.append(LocalFactor(flag.label(), 1, local, local))
        product = product * local
    return ReciprocityReport("parshin", product.is_one(), product, tuple(factors))


def _parshin_case(field, rng):
    """Three quotients of curves through a point (lines, a vertical line and
    a parabola, whose graph flags are nonlinear) and of polynomials that do
    not vanish there, with the family of those flags.  Sometimes a flag is
    dropped or repeated, and sometimes a vertical flag at a second point
    joins."""
    x0, y0 = ((field.zero(), field.zero()) if rng.random() < 0.3
              else (field.random(rng), field.random(rng)))
    flags = [SurfaceFlag.vertical(x0, y0)]
    lams = rng.sample(list(field.elements()), 2)
    for lam in lams:
        flags.append(SurfaceFlag.graph(Poly(field, [y0 - lam * x0, lam]), x0))
    c = field.random_unit(rng)       # t2 = y0 + lam (t1 - x0) + c (t1 - x0)^2
    flags.append(SurfaceFlag.graph(
        Poly(field, [y0 - lams[0] * x0 + c * x0 * x0, lams[0] - 2 * c * x0, c]), x0))
    curves = [fl.curve_equation() for fl in flags]

    def side():
        out = BivarPoly.one(field)
        for curve in rng.sample(curves, rng.randrange(3)):
            out = out * curve ** rng.randrange(1, 3)
        p = BivarPoly(field, {(i, j): field.random(rng)
                              for i in range(3) for j in range(3 - i)})
        return out * p if not p.evaluate(x0, y0).is_zero() else out

    functions = tuple(BivarRational(side(), side()) for _ in range(3))
    roll = rng.random()
    if roll < 0.1:
        flags.pop(rng.randrange(len(flags)))
    elif roll < 0.15:
        flags.append(rng.choice(flags))
    elif roll < 0.35:
        flags.append(SurfaceFlag.vertical(x0 + field.one(), y0))
    return functions, flags


def _report_outcome(check, *args):
    try:
        return check(*args).to_json()
    except AlgebraError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), GaloisField(2, 2),
                                   F5, F7, GaloisField(3, 2)], ids=repr)
def test_parshin_leading_terms_match_the_expanded_route(field, steinberg_symbol):
    rng = random.Random(f"parshin leading terms {field!r}")
    seen = set()
    for _ in range(25):
        functions, flags = _parshin_case(field, rng)
        want = _report_outcome(_expanded_parshin, functions, flags,
                               steinberg_symbol)
        assert _report_outcome(parshin_check, functions, flags) == want
        seen.add(want[0] if isinstance(want, tuple) else want["verdict"])
    assert True in seen and "IncompleteFlagCover" in seen
    assert False not in seen


@pytest.mark.parametrize("field", [PrimeField(2), GaloisField(2, 2), F5,
                                   GaloisField(3, 2)], ids=repr)
def test_parshin_precision_matches_the_truncated_expansions(field, steinberg_symbol):
    """An explicit precision gives the report, or the PrecisionExhausted, of
    expansions truncated at that z2 precision."""
    rng = random.Random(f"parshin precision {field!r}")
    seen = set()
    for _ in range(12):
        functions, flags = _parshin_case(field, rng)
        for precision in range(-2, 5):
            want = _report_outcome(_expanded_parshin, functions, flags,
                                   steinberg_symbol, precision)
            assert _report_outcome(parshin_check, functions, flags,
                                   precision) == want
            seen.add(want[0] if isinstance(want, tuple) else want["verdict"])
    assert {True, "PrecisionExhausted", "IncompleteFlagCover"} <= seen

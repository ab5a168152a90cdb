"""Tame, Contou-Carrere, and higher symbols on iterated Laurent rings.

The Contou-Carrere symbol of two units of A((t)) is computed through the
canonical factorization and a finite pairing table on elementary factors
(writing T for the uniformizer t, C_a for a constant unit a, P_i(a) for
1 - a t^i with i > 0, and N_j(b) for 1 - b t^-j with j > 0, b nilpotent):

    (T, T)           = -1
    (C_a, T)         = a            (T, C_b)        = b^-1
    (P_i(a), N_j(b)) = (1 - a^(j/d) b^(i/d))^d,     d = gcd(i, j)
    (N_j(b), P_i(a)) = (1 - b^(i/d) a^(j/d))^-d
    every other combination = 1

extended bimultiplicatively.  Over a field base no N factors exist and the
symbol collapses to the tame symbol.

Higher symbols of n+1 arguments on A((t1))...((tn)) follow the
`boundary-composite/v1` orientation: expand every argument into elementary
factors of the outermost variable, use multilinearity, kill terms with no
uniformizer (an all-units tuple has trivial boundary) or with a P factor
(its reduction is 1), merge repeated uniformizers through (t, t) = (-1, t)
with one sign flip per adjacent transposition, move the surviving uniformizer
last, and recurse on the reduced tuple one level down.  The base case of the
recursion is the Contou-Carrere symbol.  No global sign is applied on top of
the transposition bookkeeping.

Over a field the symbol depends only on the valuation matrix V (row i: the
iterated valuations of f_i, column j for t_j, t1 innermost) and the iterated
leading coefficients a_i (Parshin, "Local class field theory", Trudy MIAN
165, 1984; Fesenko-Vostokov, Local Fields and Their Extensions, ch. IX).
Field bases evaluate, in this orientation,

    (f_0, ..., f_n) = (-1)^K(V) prod_i a_i^((-1)^i det V_i),
    K(V) = sum_{i<k} sum_j v_ij v_kj det V_ik^(j),

with V_i the matrix V without row i and V_ik^(j) without rows i, k and
column j (n = 1 is the tame symbol); it is pinned against the recursion on
every monomial tuple of small exponents at depths 1-3.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import (DescriptorMismatch, NotAUnit, PrecisionExhausted,
                     UnsupportedArgument)
from .laurent import (LaurentRing, LaurentSeries, _series, reduce_mod_t,
                      require_units, unit_decompose)
from .rings import _coded, _signed_power

CONVENTION = "boundary-composite/v1"


def _common_ring(*series):
    ring = None
    for s in series:
        if isinstance(s, LaurentSeries):
            if ring is None:
                ring = s.ring
            elif s.ring is not ring:
                raise DescriptorMismatch("symbol arguments live in different rings")
    if ring is None:
        raise DescriptorMismatch("symbol needs at least one Laurent series argument")
    return ring


def _det(rows) -> int:
    """Determinant of a square integer matrix by Bareiss elimination, whose
    divisions are exact."""
    m, sign, prev = [list(r) for r in rows], 1, 1
    for k in range(len(m)):
        p = next((r for r in range(k, len(m)) if m[r][k]), None)
        if p is None:
            return 0
        if p != k:
            m[k], m[p], sign = m[p], m[k], -sign
        for r in range(k + 1, len(m)):
            m[r] = [(x * m[k][k] - m[r][k] * y) // prev
                    for x, y in zip(m[r], m[k])]
        prev = m[k][k]
    return sign * prev


@functools.lru_cache(maxsize=1024)
def _tame_exponents(rows: tuple) -> tuple:
    """K(V) mod 2 and the exponents (-1)^i det V_i of the module docstring,
    for V as a tuple of row tuples; valuation matrices recur, so they are
    cached."""
    n = len(rows)
    parity = sum(_det([r[:j] + r[j + 1:]
                       for m, r in enumerate(rows) if m not in (i, k)])
                 for i in range(n) for k in range(i + 1, n)
                 for j in range(n - 1) if rows[i][j] * rows[k][j] % 2)
    return parity % 2, tuple((-1) ** i * _det(rows[:i] + rows[i + 1:])
                             for i in range(n))


def _tame_value(rows: tuple, leads, base):
    """(-1)^K(V) prod_i a_i^((-1)^i det V_i) as an element of `base`, for V
    as a tuple of row tuples and the payloads a_i in `leads`."""
    parity, exponents = _tame_exponents(rows)
    out = base._from_int_raw(-1) if parity else base._one_raw()
    for a, e in zip(leads, exponents):
        out = base._mul(out, _signed_power(base, a, e))
    return base._wrapper()(out)


def _leading_terms(f):
    """(row of V, payload of a) of a unit over a field tower, t1 first."""
    row = ()
    while isinstance(f, LaurentSeries):
        nu = f.valuation()
        row, f = (nu,) + row, f._raw[nu]
    return row, f


def _leading_symbol(f, g, nu_f, nu_g):
    """The n = 1 closed form on the leading coefficients of f and g: the tame
    symbol when the base has no nilpotents."""
    return _tame_value(((nu_f,), (nu_g,)), (f._raw[nu_f], g._raw[nu_g]),
                       f.ring.base)


def tame_symbol(f, g):
    """(-1)^(v(f)v(g)) * (f^v(g) / g^v(f)) evaluated at t = 0.

    Defined whenever the quotient is regular at 0 (always over a field base);
    NotRegular signals a nilpotent pole that only the Contou-Carrere symbol
    can absorb.  Over a scalar base without nilpotents the value depends only
    on the leading coefficients and is read off them.
    """
    ring = _common_ring(f, g)
    f, g = ring.coerce(f), ring.coerce(g)
    try:
        nu_f, nu_g = f.valuation(), g.valuation()
    except NotAUnit:        # a truncated argument may still complete to a unit
        require_units("no unit coefficient below truncation in {f}", f, g)
        raise
    if ring.nil_bound == 1 and not isinstance(ring.base, LaurentRing):
        return _leading_symbol(f, g, nu_f, nu_g)
    prod = (f ** nu_g) * (g ** (-nu_f))
    value = reduce_mod_t(prod)
    return -value if nu_f * nu_g % 2 else value


def cc_symbol(f, g):
    """Contou-Carrere symbol of two units of A((t)), valued in A: the tame
    symbol on the leading coefficients over a field base, `_cc_product` on the
    one pair over a base with nilpotents."""
    ring = _common_ring(f, g)
    f, g = ring.coerce(f), ring.coerce(g)
    require_units("Contou-Carrere symbol needs unit arguments", f, g)
    if ring.nil_bound == 1:
        return _leading_symbol(f, g, f.valuation(), g.valuation())
    return _cc_product(((f, 1),), ((g, 1),))


def _cc_product(fs, gs):
    """prod (f, g)^(e k) over (f, e) in fs, (g, k) in gs (e, k = +-1), for
    units of one A((t)) over a base with nilpotents: the symbol of prod f^e
    and prod g^k, as it is bimultiplicative.  Each argument is decomposed once
    and its positive factors extended to (L-1)*J + 1, for L the nilpotency
    bound and J the deepest pole on the other side: past that, P_i(a) pairs
    with N_j(b), j <= J, to 1, as d = gcd(i, j) <= j gives i/d >= L and
    b^(i/d) = 0.  PrecisionExhausted signals that a truncated argument does
    not determine the factors the other side's poles can see.

    Over a tabled artinian A every argument is encoded once, as a series
    over A's element codes (`rings._coded`), the decompositions and the
    pairing run on codes, and only the value is decoded."""
    ring = fs[0][0].ring
    # on payloads (above the bound, towers) `coded` is `ring` itself
    kernel, values = _coded(ring.base, *(x._raw.values() for x, _ in fs + gs))
    coded, values = LaurentRing(kernel, ring.var), iter(values)
    sides = [[(x, e, unit_decompose(_series(coded, dict(zip(x._raw, next(values))),
                                            x.prec), positive_cutoff=1))
              for x, e in side] for side in (fs, gs)]
    extended = []
    for side, other in zip(sides, sides[::-1]):
        pole = max(dec.max_pole() for _, _, dec in other)
        cut = (ring.nil_bound - 1) * pole + 1
        for x, _, dec in side:
            if x.prec is not None and dec.nu + cut > x.prec:
                raise PrecisionExhausted(
                    f"need {x!r} modulo t^{dec.nu + cut} to pair against the "
                    f"other argument's poles")
        extended.append([(e, dec.extend(cut)) for _, e, dec in side])
    out = kernel._one_raw()
    for e, dec_f in extended[0]:
        for k, dec_g in extended[1]:
            out = _pair_decompositions(dec_f, dec_g, kernel, e * k, out)
    return ring._coeff_ops.wrap(kernel._decode(out))


def _pair_decompositions(dec_f, dec_g, base, sign, out):
    """out times the pairing table of the module docstring over every pair of
    elementary factors raised to `sign` (+-1), on payloads: f's factors (T,
    C, P by rising index, N by rising depth) in turn against g's, skipping
    trivial pairs."""
    mul, add, negate, _, _ = dec_f.ring._coeff_ops
    one, zero = base._one_raw(), base._zero_raw()
    # over scalar payloads a zero power absorbs the product; over a tower
    # the product keeps the other factor's precision
    absorbs = not isinstance(base, LaurentRing)

    def pair(i, a, j, b, sign):
        """(1 - a^(j/d) b^(i/d))^(sign*d) for P_i(a) and N_j(b), d = gcd(i, j);
        None when the b power vanishes."""
        d = math.gcd(i, j)
        bp = _signed_power(base, b.raw, i // d)
        if absorbs and bp == zero:
            return None
        return _signed_power(base, add(one, negate(mul(
            _signed_power(base, a.raw, j // d), bp))), sign * d)

    nu_f, nu_g = dec_f.nu, dec_g.nu
    if nu_f:
        if nu_f * nu_g % 2:
            out = mul(out, base._from_int_raw(-1))
        if not dec_g.lead.is_one():
            out = mul(out, _signed_power(base, dec_g.lead.raw, -sign * nu_f))
    if nu_g and not dec_f.lead.is_one():
        out = mul(out, _signed_power(base, dec_f.lead.raw, sign * nu_g))
    for i, a in sorted(dec_f.pos.items()):
        for j, b in sorted(dec_g.neg.items(), reverse=True):
            x = pair(i, a, -j, b, sign)
            if x is not None:
                out = mul(out, x)
    for j, b in sorted(dec_f.neg.items(), reverse=True):
        for i, a in sorted(dec_g.pos.items()):
            x = pair(i, a, -j, b, -sign)
            if x is not None:
                out = mul(out, x)
    return out


@dataclass(frozen=True)
class SymbolTerm:
    """One term of the multilinear expansion of a higher symbol.

    `atoms` holds one elementary factor per argument slot as (kind, payload):
    ("uniformizer", nu), ("constant", lead) or ("positive", (i, a_i)), the
    factors that `_pair_decompositions` pairs for `cc_symbol`; `exponent` is
    the product of the chosen uniformizer multiplicities.
    """
    exponent: int
    atoms: tuple


def steinberg_expand(args, keep_trivial=False):
    """Multilinear expansion of a higher-symbol tuple in its outermost
    variable.

    Every argument is factored as t^nu * lead * prod(1 - a_i t^i); choosing
    one factor per slot and multiplying the choices' multiplicities gives the
    terms.  Terms that provably evaluate to 1 (no uniformizer chosen, or any
    1 - a t^i factor chosen, whose reduction at t = 0 is 1) are dropped
    unless keep_trivial is set.  Negative factors in the expansion variable
    are outside the supported domain of higher symbols.
    """
    ring = _common_ring(*args)
    args = [ring.coerce(a) for a in args]
    decs = []
    for a in args:
        dec = unit_decompose(a, positive_cutoff=1 if not keep_trivial else None)
        if dec.neg:
            raise UnsupportedArgument(
                "argument has a nilpotent pole in a non-innermost variable; "
                "higher symbols are only defined without such poles")
        decs.append(dec)
    choices = []
    for dec in decs:
        opts = []
        if dec.nu:
            opts.append((dec.nu, ("uniformizer", dec.nu)))
        opts.append((1, ("constant", dec.lead)))
        if keep_trivial:
            for i in sorted(dec.pos):
                opts.append((1, ("positive", (i, dec.pos[i]))))
        choices.append(opts)
    terms = []
    stack = [(0, 1, [])]
    while stack:
        k, mult, picked = stack.pop()
        if k == len(choices):
            atoms = tuple(picked)
            has_uniformizer = any(kind == "uniformizer" for kind, _ in atoms)
            has_positive = any(kind == "positive" for kind, _ in atoms)
            if keep_trivial or (has_uniformizer and not has_positive):
                terms.append(SymbolTerm(mult, atoms))
            continue
        for m, atom in choices[k]:
            stack.append((k + 1, mult * m, picked + [atom]))
    return terms


def _evaluate_term(term: SymbolTerm, ring: LaurentRing):
    """Merge uniformizers, move the survivor last, reduce, recurse."""
    atoms = list(term.atoms)
    positions = [k for k, (kind, _) in enumerate(atoms) if kind == "uniformizer"]
    swaps = 0
    lower = ring.base
    while len(positions) >= 2:
        i, j = positions[-2], positions[-1]
        swaps += (j - 1) - i
        atom = atoms.pop(i)
        atoms.insert(j - 1, atom)
        atoms[j - 1] = ("constant", lower.from_int(-1))
        positions = positions[:-2] + [j]
    i = positions[0]
    swaps += (len(atoms) - 1) - i
    atoms.append(atoms.pop(i))
    # the terms carry no positive factors, and every uniformizer but the
    # last one merged into a constant
    reduced = [payload for _, payload in atoms[:-1]]
    sign = -1 if swaps % 2 else 1
    value = higher_symbol(reduced)
    return value ** (sign * term.exponent)


def higher_symbol(args):
    """Higher symbol of n+1 units on an n-fold iterated Laurent ring.

    Orientation: `boundary-composite/v1` (see module docstring).  With two
    arguments this is exactly the Contou-Carrere symbol.
    """
    ring = _common_ring(*args)
    args = [ring.coerce(a) for a in args]
    depth = ring.depth()
    if len(args) != depth + 1:
        raise UnsupportedArgument(
            f"{depth}-fold iterated Laurent ring pairs {depth + 1} arguments, "
            f"got {len(args)}")
    require_units("higher symbol needs unit arguments", *args)
    if depth == 1:
        return cc_symbol(args[0], args[1])
    scalar_ring = ring
    while isinstance(scalar_ring, LaurentRing):
        scalar_ring = scalar_ring.base
    if ring.nil_bound == 1:
        return _tame_value(*zip(*map(_leading_terms, args)), scalar_ring)
    out = scalar_ring.one()
    for term in steinberg_expand(args):
        out = out * _evaluate_term(term, ring)
    return out

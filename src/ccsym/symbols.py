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
from .laurent import (LaurentRing, LaurentSeries, reduce_mod_t, require_units,
                      unit_decompose)
from .rings import _power

CONVENTION = "boundary-composite/v1"


def _common_ring(*series):
    ring = None
    for s in series:
        if isinstance(s, LaurentSeries):
            if ring is None:
                ring = s.ring
            elif s.ring != ring:
                raise DescriptorMismatch("symbol arguments live in different rings")
    if ring is None:
        raise DescriptorMismatch("symbol needs at least one Laurent series argument")
    return ring


def _sign_value(ring_base, parity: int):
    return ring_base.from_int(-1) if parity % 2 else ring_base.one()


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
    """(-1)^K(V) prod_i a_i^((-1)^i det V_i) in `base`, for V as a tuple of
    row tuples and the a_i in `leads`."""
    parity, exponents = _tame_exponents(rows)
    out = _sign_value(base, parity)
    for a, e in zip(leads, exponents):
        out = out * a ** e
    return out


def _leading_terms(f):
    """(row of V, a) of a unit over a field tower, t1 first."""
    row = ()
    while isinstance(f, LaurentSeries):
        nu = f.valuation()
        row, f = (nu,) + row, f.coeffs[nu]
    return row, f


def _leading_symbol(f, g, nu_f, nu_g):
    """The n = 1 closed form on the leading coefficients of f and g: the tame
    symbol when the base has no nilpotents."""
    wrap = f.ring._coeff_ops.wrap
    return _tame_value(((nu_f,), (nu_g,)),
                       (wrap(f._raw[nu_f]), wrap(g._raw[nu_g])), f.ring.base)


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
    return _sign_value(ring.base, nu_f * nu_g) * value


def cc_symbol(f, g):
    """Contou-Carrere symbol of two units of A((t)), valued in A.

    Over a field base this equals the tame symbol and is computed directly
    from leading coefficients.  Over a base with nilpotents the canonical
    factorizations of both arguments are paired factor by factor; positive
    factors are only needed up to (L-1)*J + 1 where L bounds nilpotency and
    J is the deepest pole on the other side, so the computation is finite.
    PrecisionExhausted signals that a truncated argument does not determine
    whether it is a unit, or the factors the other argument's poles can see.
    """
    ring = _common_ring(f, g)
    f, g = ring.coerce(f), ring.coerce(g)
    require_units("Contou-Carrere symbol needs unit arguments", f, g)
    base = ring.base
    L = ring.nil_bound
    nu_f, nu_g = f.valuation(), g.valuation()
    if L == 1:
        # field-like coefficients: no nilpotent tails, symbol = tame formula
        return _leading_symbol(f, g, nu_f, nu_g)
    # decompose each argument once, then extend its positive factors to what
    # the other argument's deepest pole needs
    dec_f = unit_decompose(f, positive_cutoff=1)
    dec_g = unit_decompose(g, positive_cutoff=1)
    cut_f = (L - 1) * dec_g.max_pole() + 1
    cut_g = (L - 1) * dec_f.max_pole() + 1
    for x, nu, cut in ((f, nu_f, cut_f), (g, nu_g, cut_g)):
        if x.prec is not None and nu + cut > x.prec:
            raise PrecisionExhausted(
                f"need {x!r} modulo t^{nu + cut} to pair against the other "
                f"argument's poles")
    return _pair_decompositions(dec_f.extend(cut_f), dec_g.extend(cut_g), base)


def _pair_decompositions(dec_f, dec_g, base):
    """The pairing table of the module docstring over every pair of
    elementary factors, on payloads: f's factors (T, C, P by rising index,
    N by rising depth) in turn against g's, skipping trivial pairs."""
    mul, add, negate, _, wrap = dec_f.ring._coeff_ops
    one, zero, inv = base._one_raw(), base._zero_raw(), base._inv
    # over scalar payloads a zero power absorbs the product; over a tower
    # the product keeps the other factor's precision
    absorbs = not isinstance(base, LaurentRing)

    def power(x, e):
        return _power(x, e, one, mul) if e >= 0 else _power(inv(x), -e, one, mul)

    def pair(i, a, j, b, sign):
        """(1 - a^(j/d) b^(i/d))^(sign*d) for P_i(a) and N_j(b), d = gcd(i, j);
        None when the b power vanishes."""
        d = math.gcd(i, j)
        bp = power(b.raw, i // d)
        if absorbs and bp == zero:
            return None
        return power(add(one, negate(mul(power(a.raw, j // d), bp))), sign * d)

    nu_f, nu_g = dec_f.nu, dec_g.nu
    out = one
    if nu_f:
        if nu_f * nu_g % 2:
            out = mul(out, base._from_int_raw(-1))
        if not dec_g.lead.is_one():
            out = mul(out, power(dec_g.lead.raw, -nu_f))
    if nu_g and not dec_f.lead.is_one():
        out = mul(out, power(dec_f.lead.raw, nu_g))
    for i, a in sorted(dec_f.pos.items()):
        for j, b in sorted(dec_g.neg.items(), reverse=True):
            x = pair(i, a, -j, b, 1)
            if x is not None:
                out = mul(out, x)
    for j, b in sorted(dec_f.neg.items(), reverse=True):
        for i, a in sorted(dec_g.pos.items()):
            x = pair(i, a, -j, b, -1)
            if x is not None:
                out = mul(out, x)
    return wrap(out)


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
    if not isinstance(ring, LaurentRing):
        raise DescriptorMismatch("higher symbols need Laurent series arguments")
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

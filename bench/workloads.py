"""Seeded input streams, timed operations and oracles for the four workloads.

Each workload is an endless stream of rounds.  Round k is drawn from its own
random generator, keyed by (seed, workload, k), as expression strings; the
library only ever sees those strings through its parser.  The same seed
therefore gives the same inputs whatever the run length.  A round has a fixed
composition (which rings, which op kinds, how many ratio units, deep poles,
first-seen and revisited places); only coefficients come from the seed, so two
seeds differ in values but not in the shape of the work.

An op is `Op(label, call, check, canon)`: `call()` is the timed library call,
`check(result)` the untimed oracle and `canon(result)` the canonical text that
goes into the output digest.  Library entry points are looked up on their
modules at call time, so the span recorders of `tracing.py` see every call.
"""

from __future__ import annotations

import json
import random
import shlex

from ccsym import geometry, parser, poly, reciprocity, rings, symbols, toeplitz
from ccsym.laurent import format_series

# Canonical outputs of the first DIGEST_ROUNDS rounds make up the digest, so
# the digest does not depend on how many ops a run managed.
DIGEST_ROUNDS = 2


class Op:
    __slots__ = ("label", "call", "check", "canon")

    def __init__(self, label, call, check, canon=None):
        self.label = label
        self.call = call
        self.check = check
        self.canon = canon or rings.format_value


def round_rng(seed: int, workload: str, k: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{k}")


# -- expression strings ---------------------------------------------------------
# A ring is named by (p, d, m): F_{p^d}[e]/e^m, with m = 1 for a field.

RING_SPECS = {}


def spec(p, d=1, m=1) -> str:
    text = f"F{p ** d}" + (f"[e]/e^{m}" if m > 1 else "")
    RING_SPECS[text] = (p, d, m)
    return text


_RINGS: dict = {}


def ring(text: str):
    """Ring descriptor for a spec, parsed once per process."""
    cached = _RINGS.get(text)
    if cached is None:
        cached = _RINGS[text] = parser.parse_ring(text)
    return cached


def _field_elem(rng, p, d, nonzero) -> str:
    while True:
        coords = [rng.randrange(p) for _ in range(d)]
        if any(coords) or not nonzero:
            break
    terms = []
    if coords[0]:
        terms.append(str(coords[0]))
    if d > 1 and coords[1]:
        terms.append(f"{coords[1]}*g" if coords[1] > 1 else "g")
    return "+".join(terms) or "0"


def scalar(rng, R, unit=False, nilpotent=False) -> str:
    """A ring element as text: a unit, a nilpotent, or anything."""
    p, d, m = R
    parts = [] if nilpotent else [_field_elem(rng, p, d, unit)]
    for i in range(1, m):
        c = _field_elem(rng, p, d, nilpotent and i == 1)
        if c != "0":
            parts.append(f"({c})*e^{i}" if i > 1 else f"({c})*e")
    parts = [x for x in parts if x != "0"]
    return "(" + ("+".join(parts) or "0") + ")"


def _series_text(terms: dict, var="t") -> str:
    out = []
    for e in sorted(terms):
        c = terms[e]
        out.append(c if e == 0 else f"{c}*{var}^{e}" if e != 1 else f"{c}*{var}")
    return "(" + "+".join(out) + ")"


def unit_series(rng, R, span=4, max_shift=3, tail_depth=2, var="t",
                pole=None, shift=None):
    """Unit Laurent polynomial: unit constant term, optional nilpotent poles
    down to t^-tail_depth, shifted by a power of t.  If `pole` is given the
    shape is fixed: every term from t^-pole to t^(span-1) is present, and the
    shift is `shift`.  Returns (text, lowest, highest exponent)."""
    shaped = pole is not None
    terms = {0: scalar(rng, R, unit=True)}
    for e in range(1, span):
        if shaped or rng.random() < 0.6:
            c = scalar(rng, R, unit=shaped)
            if c != "(0)":
                terms[e] = c
    if R[2] > 1:
        for e in range(-(pole if shaped else tail_depth), 0):
            if shaped or rng.random() < 0.35:
                terms[e] = scalar(rng, R, nilpotent=True)
    if shift is None:
        shift = rng.randrange(-max_shift, max_shift + 1)
    text = _series_text(terms, var)
    if shift:
        text += f"*{var}^{shift}"
    return text, min(terms) + shift, max(terms) + shift


def poly_text(rng, R, degree, monic=False, var="t") -> str:
    terms = {degree: "1" if monic else scalar(rng, R, unit=True)}
    for e in range(degree):
        c = scalar(rng, R)
        if c != "(0)":
            terms[e] = c
    return _series_text(terms, var)


# -- symbols ----------------------------------------------------------------------

FIELDS = [spec(2), spec(3), spec(5), spec(7), spec(3, 2)]
ARTINIAN = [spec(3, 1, 2), spec(5, 1, 2), spec(7, 1, 2), spec(3, 1, 3),
            spec(5, 1, 3)]
DEEP_RINGS = [spec(5, 1, 2), spec(3, 1, 2)]
DEEP_POLES = (25, 50, 75, 100)
HIGHER_FIELDS = [spec(3), spec(5), spec(7)]
RATIO_PRECISION = 36


def _series(text, R, precision=None, depth=1):
    return parser.parse_expression(text, ring(R), domain="series",
                                   depth=depth, precision=precision)


def _pair_texts(rng, R, ratio):
    """A unit pair; for a ratio pair f is a quotient of units and both
    valuations stay small, since the tame formula raises the precision-36
    quotient to the other argument's valuation."""
    shift = 1 if ratio else 3
    f = unit_series(rng, RING_SPECS[R], max_shift=shift)[0]
    g = unit_series(rng, RING_SPECS[R], max_shift=shift)[0]
    if ratio:
        den = unit_series(rng, RING_SPECS[R], span=3, max_shift=0,
                          tail_depth=1)[0]
        f = f"{f}/{den}"
    return f, g


def _nested_text(rng, R):
    inner = unit_series(rng, R, span=2, max_shift=1, var="t1")[0]
    text = f"({inner}"
    if rng.random() < 0.5:
        c = {e: scalar(rng, R) for e in (-1, 0, 1)}
        c = {e: v for e, v in c.items() if v != "(0)"}
        if c:
            text += f"+{_series_text(c, 't1')}*t2"
    shift = rng.randrange(-1, 2)
    return text + ")" + (f"*t2^{shift}" if shift else "")


def symbols_round(seed: int, k: int) -> list:
    """20 ops: 10 field symbols (cc and tame on 5 pairs, one a ratio pair),
    6 artinian cc (one ratio pair), 1 deep nilpotent pole, 3 depth-2 higher."""
    rng = round_rng(seed, "symbols", k)
    specs = []
    for i, R in enumerate(FIELDS):
        f, g = _pair_texts(rng, R, ratio=(i == k % len(FIELDS)))
        prec = RATIO_PRECISION if "/" in f else None
        specs.append(("cc", R, (f, g), prec))
        specs.append(("tame", R, (f, g), prec))
    for i in range(6):
        R = ARTINIAN[(k + i) % len(ARTINIAN)]
        f, g = _pair_texts(rng, R, ratio=(i == 0))
        specs.append(("cc", R, (f, g), RATIO_PRECISION if i == 0 else None))
    R = DEEP_RINGS[k % len(DEEP_RINGS)]
    J = DEEP_POLES[k % len(DEEP_POLES)]
    # the partner is fixed so that the cost of a deep pole depends on J alone
    nil = scalar(rng, RING_SPECS[R], nilpotent=True)
    specs.append(("cc", R, (f"1-{nil}*t^-{J}", "1-t+t^2"), None))
    for R in HIGHER_FIELDS:
        args = tuple(_nested_text(rng, RING_SPECS[R]) for _ in range(3))
        specs.append(("higher", R, args, None))
    return [_symbol_op(*s) for s in specs]


def _symbol_op(kind, R, texts, prec) -> Op:
    label = f"{kind} {R} {' '.join(texts)}"
    if kind == "higher":
        a, b, c = (_series(t, R, depth=2) for t in texts)
        return Op(label, lambda: symbols.higher_symbol((a, b, c)),
                  # swapping two arguments inverts the symbol
                  lambda r: (r * symbols.higher_symbol((b, a, c))).is_one())
    f, g = (_series(t, R, prec) for t in texts)
    if kind == "tame":
        return Op(label, lambda: symbols.tame_symbol(f, g),
                  lambda r: r == symbols.cc_symbol(f, g))
    if ring(R).is_field:
        return Op(label, lambda: symbols.cc_symbol(f, g),
                  lambda r: r == symbols.tame_symbol(f, g))
    return Op(label, lambda: symbols.cc_symbol(f, g),
              lambda r: (r * symbols.cc_symbol(g, f)).is_one())


# -- torsion ------------------------------------------------------------------------

# (ring, shapes the pair cycles through by round), a shape being
# ((pole, shift) of f, (pole, shift) of g).  The windows, and so the cost,
# grow with poles and shifts, so fixing the shapes leaves only coefficients
# to the seed.  Two field pairs per artinian pair put the median op inside
# the field ops; the artinian ops, 1 in 3, make the p95 tail.
TORSION_PAIRS = (
    (spec(5), (((0, -1), (0, 1)),)),
    (spec(5), (((0, 2), (0, 0)),)),
    (spec(3, 1, 2), (((1, -1), (1, 0)), ((2, 0), (1, 1)))),
)


class TorsionOrientation:
    """The global exponent s of `joint_torsion = cc_symbol^s`, fixed by the
    first pair whose symbol differs from its inverse."""

    def __init__(self):
        self.s = None

    def holds(self, value, cc) -> bool:
        if self.s is None and cc != cc.inv():
            self.s = 1 if value == cc else -1 if value == cc.inv() else 0
        if self.s == -1:
            cc = cc.inv()
        return self.s != 0 and value == cc


def torsion_round(seed: int, k: int, orientation: TorsionOrientation) -> list:
    """6 ops: criterion-7-shaped pairs, two over F5 and one over F3[e]/e^2,
    each at the default stabilising window and at one explicit wider
    window."""
    rng = round_rng(seed, "torsion", k)
    ops = []
    for R, shapes in TORSION_PAIRS:
        (tf, lf, hf), (tg, lg, hg) = (
            unit_series(rng, RING_SPECS[R], span=3, pole=pole, shift=shift)
            for pole, shift in shapes[k % len(shapes)])
        f, g = _series(tf, R), _series(tg, R)
        L = RING_SPECS[R][2]
        corner = (L - 1) * (max(0, -lf) + max(0, -lg)) + 4
        size = corner + (hf - lf) + (hg - lg) + 8
        check = _torsion_check(f, g, orientation)
        ops.append(Op(f"torsion {R} {tf} {tg}",
                      lambda f=f, g=g: toeplitz.joint_torsion(f, g), check))
        ops.append(Op(f"torsion {R} {tf} {tg} window {corner},{size}",
                      lambda f=f, g=g, c=corner, n=size:
                      toeplitz.joint_torsion(f, g, corner=c, size=n), check))
    return ops


def _torsion_check(f, g, orientation):
    return lambda r: orientation.holds(r, symbols.cc_symbol(f, g))


# -- reciprocity --------------------------------------------------------------------

F9 = spec(3, 2)
# Small Weil checks as (ring, degrees of numerator, denominator and g).  The
# degrees are fixed since the cost grows with them.  Per round, the six
# linear checks are the cheapest ops and the six Parshin checks, whose cost
# barely varies, come next, so the median op lies inside the Parshin group.
SMALL_WEIL = ((spec(3), 4, 2, 3), (spec(5), 3, 1, 2),
              *((R, 1, 0, 1) for R in (spec(3), spec(5), F9, spec(7), spec(5),
                                        spec(3))))
CC_RINGS = [spec(3, 1, 2), spec(5, 1, 2), spec(3, 1, 3)]
PARSHIN_FIELDS = [spec(5), spec(7)]
PARSHIN_PER_ROUND = 6
FORMS = ("t1", "t2", "t1+t2", "t1-t2")
ORIGIN_FLAGS = ("t1=0@0", "t2=0@0", "t2=-t1@0", "t2=t1@0")


def quartic_place(seed: int, j: int) -> str:
    """An irreducible quartic over F9, a place with residue field F_{3^8};
    negative j belong to the warm-up round.  The j-th quartic of one stream
    shared by every seed is found by rejection, then the seed's change of
    variable t -> c*t + b (which keeps it irreducible) is applied.  So the
    search, part of set-up, costs the same on every seed."""
    rng = random.Random(f"place:{j}")
    while True:
        text = poly_text(rng, RING_SPECS[F9], 4, monic=True, var="X")
        if poly.is_irreducible(
                parser.parse_polynomial(text.replace("X", "t"), ring(F9))):
            break
    rng = random.Random(f"{seed}:place")
    c, b = _field_elem(rng, 3, 2, True), _field_elem(rng, 3, 2, False)
    return text.replace("X", f"(({c})*t+({b}))")


def reciprocity_round(seed: int, k: int) -> list:
    """20 ops: Weil checks over F9 at two first-seen degree-4 places and at
    one revisited degree-4 place, 8 small Weil checks over F3/F5/F7/F9,
    3 Contou-Carrere checks and 6 Parshin checks.  The first-seen places
    (1 op in 10) make the p95 tail, at the middle of their group."""
    rng = round_rng(seed, "reciprocity", k)
    R9 = RING_SPECS[F9]
    ops = []
    # the revisit is the previous round's second place; the warm-up round
    # (k = -1) revisits its own
    for j in (2 * k, 2 * k + 1, 2 * k - 1 if k >= 0 else 2 * k + 1):
        place = quartic_place(seed, j)
        f = f"{place}*{poly_text(rng, R9, 1, monic=True)}"
        ops.append(_line_op("weil", F9, f, poly_text(rng, R9, rng.randrange(1, 3))))
    for R, num, den, g in SMALL_WEIL:
        num, den, g = (poly_text(rng, RING_SPECS[R], d) for d in (num, den, g))
        ops.append(_line_op("weil", R, f"{num}/{den}", g))
    for R in CC_RINGS:
        RR = RING_SPECS[R]
        f, g = (f"{poly_text(rng, RR, rng.randrange(1, 4))}/"
                f"{poly_text(rng, RR, rng.randrange(1, 3))}" for _ in range(2))
        ops.append(_line_op("cc", R, f, g))
    for i in range(PARSHIN_PER_ROUND):
        ops.append(_parshin_op(PARSHIN_FIELDS[i % 2], rng.sample(FORMS, 3)))
    return ops


def _report_ok(report) -> bool:
    return report.ok and report.product.is_one()


def _report_canon(report) -> str:
    return json.dumps(report.to_json(), sort_keys=True)


def _line_op(law, R, ftext, gtext) -> Op:
    f, g = (parser.parse_expression(t, ring(R), domain="rational")
            for t in (ftext, gtext))
    if law == "weil":
        call = lambda: reciprocity.weil_check(f, g)  # noqa: E731
    else:
        call = lambda: reciprocity.cc_check(f, g)  # noqa: E731
    return Op(f"{law} {R} {ftext} {gtext}", call, _report_ok, _report_canon)


def origin_flags(R):
    """The flags of ORIGIN_FLAGS, built through the public parser."""
    zero = ring(R).zero()
    flags = [geometry.SurfaceFlag.vertical(zero, zero)]
    for phi in ("0", "-t1", "t1"):
        flags.append(geometry.SurfaceFlag.graph(
            parser.parse_polynomial(phi, ring(R), var="t1"), zero))
    return flags


def _parshin_op(R, forms) -> Op:
    functions = [parser.parse_expression(t, ring(R), domain="bivariate")
                 for t in forms]
    flags = origin_flags(R)
    return Op(f"parshin {R} {' '.join(forms)}",
              lambda: reciprocity.parshin_check(functions, flags),
              _report_ok, _report_canon)


# -- cli_batch ----------------------------------------------------------------------
# A line's `call` is the in-process library computation of the same command:
# `fields(result)` are the reply fields the `sym batch` reply must carry, and
# the call's time is the in-process time the line overhead is measured against.
# Error lines carry the exit code the reply must report instead.

BAD_LINES = ("symbol cc --ring F6 t t",           # 6 is not a prime power
             "symbol tame --ring F5 '1+*t' t",    # syntax error
             "frobnicate --ring F5 t",            # unknown verb
             "symbol cc --ring F5 t")             # wrong arity
DOMAIN_LINES = ("symbol cc --ring F5 0 t",                  # not a unit
                "verify weil --ring 'F5[e]/e^2' t 1-t",     # tame law needs a field
                "verify parshin --ring F5 t1 t2 t1+t2",     # no flags
                "toeplitz --ring F7 0 1+t")                 # not a unit


class CliLine:
    __slots__ = ("line", "call", "fields", "exit")

    def __init__(self, words, call=None, fields=None, exit=0):
        self.line = words if isinstance(words, str) else \
            " ".join(shlex.quote(w) for w in words)
        self.call = call
        self.fields = fields
        self.exit = exit


def _value_fields(r):
    return {"value": rings.format_value(r)}


def _verdict_fields(report):
    return {"verdict": report.ok, "product": rings.format_value(report.product)}


def _parsed(texts, R, domain, depth=1, precision=None):
    return [parser.parse_expression(t, parser.parse_ring(R), domain=domain,
                                    depth=depth, precision=precision)
            for t in texts]


def _symbol_line(kind, R, texts) -> CliLine:
    depth = len(texts) - 1 if kind == "higher" else 1

    def call():
        values = _parsed(texts, R, "series", depth)
        if kind == "higher":
            return symbols.higher_symbol(values)
        if kind == "tame":
            return symbols.tame_symbol(*values)
        return symbols.cc_symbol(*values)
    return CliLine(["symbol", kind, "--ring", R, *texts], call, _value_fields)


def _verify_line(law, R, texts) -> CliLine:
    def call():
        f, g = _parsed(texts, R, "rational")
        if law == "weil":
            return reciprocity.weil_check(f, g)
        return reciprocity.cc_check(f, g)
    return CliLine(["verify", law, "--ring", R, *texts], call, _verdict_fields)


def _parshin_line(R, forms) -> CliLine:
    flags = [w for flag in ORIGIN_FLAGS for w in ("--flag", flag)]
    return CliLine(["verify", "parshin", "--ring", R, *flags, *forms],
                   lambda: reciprocity.parshin_check(
                       _parsed(forms, R, "bivariate"), origin_flags(R)),
                   _verdict_fields)


def _toeplitz_line(R, texts) -> CliLine:
    return CliLine(["toeplitz", "--ring", R, *texts],
                   lambda: toeplitz.joint_torsion(*_parsed(texts, R, "series")),
                   _value_fields)


def _expand_line(R, text) -> CliLine:
    return CliLine(["expand", "--ring", R, "--precision", "8", text],
                   lambda: format_series(_parsed([text], R, "series",
                                                 precision=8)[0]),
                   lambda r: {"series": r})


def cli_round(seed: int, k: int) -> list:
    """19 lines: every verb on cheap inputs, 2 malformed lines (exit 2) and
    2 domain-error lines (exit 3)."""
    rng = round_rng(seed, "cli_batch", k)
    lines = []
    for R in (spec(5), spec(7), spec(3, 2)):
        lines.append(_symbol_line("tame", R, [unit_series(rng, RING_SPECS[R])[0]
                                              for _ in range(2)]))
    for R in (spec(5), spec(5, 1, 2), spec(3, 1, 3), spec(7, 1, 2)):
        lines.append(_symbol_line("cc", R, [unit_series(rng, RING_SPECS[R])[0]
                                            for _ in range(2)]))
    R = HIGHER_FIELDS[k % len(HIGHER_FIELDS)]
    lines.append(_symbol_line("higher", R, [_nested_text(rng, RING_SPECS[R])
                                            for _ in range(3)]))
    for law, R in (("weil", spec(5)), ("weil", spec(3)), ("cc", spec(3, 1, 2))):
        lines.append(_verify_line(law, R, [
            poly_text(rng, RING_SPECS[R], rng.randrange(1, 3)) for _ in range(2)]))
    lines.append(_parshin_line(PARSHIN_FIELDS[k % 2], rng.sample(FORMS, 3)))
    R = spec(5)
    lines.append(_toeplitz_line(R, [unit_series(rng, RING_SPECS[R], span=2,
                                                max_shift=1)[0]
                                    for _ in range(2)]))
    for R in (spec(5, 1, 2), spec(3, 2)):
        RR = RING_SPECS[R]
        lines.append(_expand_line(R, f"{poly_text(rng, RR, 2)}/"
                                     f"{poly_text(rng, RR, 1)}"))
    for i in range(2):
        lines.append(CliLine(BAD_LINES[(2 * k + i) % len(BAD_LINES)], exit=2))
        lines.append(CliLine(DOMAIN_LINES[(2 * k + i) % len(DOMAIN_LINES)], exit=3))
    return lines


ROUNDS = {
    "symbols": symbols_round,
    "reciprocity": reciprocity_round,
    "cli_batch": cli_round,
}


class Stream:
    """The endless round stream of one workload and seed."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.k = 0
        self.orientation = TorsionOrientation()

    def next_round(self) -> list:
        k, self.k = self.k, self.k + 1
        if self.workload == "torsion":
            return torsion_round(self.seed, k, self.orientation)
        return ROUNDS[self.workload](self.seed, k)

"""Command-line front end ``sym``: symbol computation, reciprocity
verification, Toeplitz joint torsion and series expansion.

Verbs::

    sym symbol  {tame|cc|higher} --ring R EXPR EXPR [EXPR ...]
    sym verify  {weil|cc}        --ring R EXPR EXPR
    sym verify  parshin          --ring R EXPR EXPR EXPR --flag SPEC ...
    sym toeplitz                 --ring R [--window M,N] EXPR EXPR
    sym expand                   --ring R [--precision N] EXPR
    sym batch                    (one command line per stdin line, JSON out)

Flag specs for ``verify parshin``: ``t2=EXPR@a`` is the graph curve
``t2 = phi(t1)`` with marked point ``t1 = a``; ``t1=EXPR@b`` is the vertical
line ``t1 = c`` with marked point ``t2 = b``.

Exit codes: 0 success, 2 parse error, 3 domain error, 4 verdict false.
JSON output follows schema ``cc-symbols/1`` and echoes ``--ring`` and
``--precision`` exactly as given.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shlex
import sys

from .errors import AlgebraError, ExpressionSyntaxError
from .geometry import SurfaceFlag
from .laurent import format_series
from .parser import (parse_expression, parse_polynomial, parse_ring,
                     parse_scalar)
from .reciprocity import cc_check, parshin_check, weil_check
from .rings import format_value
from .symbols import CONVENTION, cc_symbol, higher_symbol, tame_symbol
from .toeplitz import joint_torsion

SCHEMA = "cc-symbols/1"


def _window(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected --window M,N")
    try:
        corner, size = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError("expected integers in --window M,N")
    if not 1 <= corner <= size:
        raise argparse.ArgumentTypeError("--window needs 1 <= M <= N")
    return corner, size


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="sym",
        description="Exact tame/Contou-Carrere/higher symbols and "
                    "reciprocity laws over truncated Laurent series.")
    sub = top.add_subparsers(dest="verb", required=True)

    def common(p, nexpr=None):
        p.add_argument("--ring", required=True,
                       help='coefficient ring, e.g. "F5", "F9", "F5[e]/e^2"')
        p.add_argument("--precision", type=int, default=None,
                       help="absolute working precision for series division")
        p.add_argument("--json", action="store_true",
                       help="emit a JSON object instead of plain text")
        p.add_argument("exprs", nargs="+" if nexpr is None else nexpr,
                       metavar="EXPR", help="expression(s) in the CLI grammar")

    p_symbol = sub.add_parser("symbol", help="evaluate a symbol pairing")
    p_symbol.add_argument("kind", choices=("tame", "cc", "higher"))
    common(p_symbol)

    p_verify = sub.add_parser("verify", help="check a reciprocity law")
    p_verify.add_argument("kind", choices=("weil", "cc", "parshin"))
    p_verify.add_argument("--flag", action="append", default=[],
                          metavar="SPEC", dest="flags",
                          help="parshin flag: 't2=EXPR@a' (graph) or "
                               "'t1=EXPR@b' (vertical line)")
    common(p_verify)

    p_toep = sub.add_parser("toeplitz",
                            help="joint torsion of truncated Toeplitz operators")
    p_toep.add_argument("--window", type=_window, default=None,
                        metavar="M,N", help="corner size M and matrix size N")
    common(p_toep, nexpr=None)

    p_expand = sub.add_parser("expand", help="normalize a series expression")
    common(p_expand, nexpr=None)

    sub.add_parser("batch",
                   help="read command lines from stdin, one JSON result per line")
    return top


def _header(verb: str, args) -> dict:
    return {
        "schema": SCHEMA,
        "verb": verb,
        "ring": args.ring,
        "precision": args.precision,
        "convention": CONVENTION,
    }


def _parse_flag(spec: str, ring) -> SurfaceFlag:
    head, sep, point_src = spec.partition("@")
    if not sep:
        raise ExpressionSyntaxError(
            f"bad flag {spec!r}: expected 'VAR=EXPR@POINT'", 1, 1)
    var, sep, rhs = head.partition("=")
    var = var.strip()
    if not sep or var not in ("t1", "t2"):
        raise ExpressionSyntaxError(
            f"bad flag {spec!r}: left side must be 't1=' or 't2='", 1, 1)
    point = parse_scalar(point_src, ring)
    if var == "t2":
        phi = parse_polynomial(rhs, ring, var="t1")
        return SurfaceFlag.graph(phi, point)
    c_poly = parse_polynomial(rhs, ring, var="t1")
    if not c_poly.is_constant():
        raise ExpressionSyntaxError(
            f"bad flag {spec!r}: a vertical line needs a constant right side",
            1, 1)
    c = c_poly.coeff(0)
    return SurfaceFlag.vertical(c, point)


def _report_lines(report) -> list:
    width = max((len(f.label) for f in report.factors), default=4)
    lines = []
    for f in report.factors:
        lines.append(f"{f.label:<{width}}  degree {f.degree}  "
                     f"local {format_value(f.local_value)}  "
                     f"contribution {format_value(f.contribution)}")
    lines.append(f"product {format_value(report.product)}")
    lines.append(f"{report.law} reciprocity "
                 + ("holds" if report.ok else "FAILS"))
    return lines


def _cmd_symbol(args):
    ring = parse_ring(args.ring)
    if args.kind in ("tame", "cc") and len(args.exprs) != 2:
        raise ExpressionSyntaxError(
            f"symbol {args.kind} takes exactly 2 expressions", 1, 1)
    if args.kind == "higher" and len(args.exprs) < 2:
        raise ExpressionSyntaxError(
            "symbol higher takes at least 2 expressions", 1, 1)
    depth = 1 if args.kind in ("tame", "cc") else len(args.exprs) - 1
    values = [parse_expression(src, ring, domain="series", depth=depth,
                               precision=args.precision)
              for src in args.exprs]
    if args.kind == "tame":
        result = tame_symbol(values[0], values[1])
    elif args.kind == "cc":
        result = cc_symbol(values[0], values[1])
    else:
        result = higher_symbol(values)
    text = format_value(result)
    payload = _header("symbol", args)
    payload.update(kind=args.kind, inputs=list(args.exprs), value=text)
    return payload, [text], 0


def _cmd_verify(args):
    ring = parse_ring(args.ring)
    expected = 3 if args.kind == "parshin" else 2
    if len(args.exprs) != expected:
        raise ExpressionSyntaxError(
            f"verify {args.kind} takes exactly {expected} expressions", 1, 1)
    if args.flags and args.kind != "parshin":
        raise ExpressionSyntaxError("--flag only applies to verify parshin", 1, 1)
    if args.kind == "parshin":
        functions = [parse_expression(src, ring, domain="bivariate")
                     for src in args.exprs]
        flags = [_parse_flag(spec, ring) for spec in args.flags]
        report = parshin_check(functions, flags, precision=args.precision)
    else:
        f, g = (parse_expression(src, ring, domain="rational")
                for src in args.exprs)
        check = weil_check if args.kind == "weil" else cc_check
        report = check(f, g, precision=args.precision)
    payload = _header("verify", args)
    payload.update(inputs=list(args.exprs), **report.to_json())
    return payload, _report_lines(report), 0 if report.ok else 4


def _cmd_toeplitz(args):
    ring = parse_ring(args.ring)
    if len(args.exprs) != 2:
        raise ExpressionSyntaxError("toeplitz takes exactly 2 expressions", 1, 1)
    f, g = (parse_expression(src, ring, domain="series",
                             precision=args.precision)
            for src in args.exprs)
    corner, size = args.window or (None, None)
    result = joint_torsion(f, g, corner=corner, size=size)
    window = None if args.window is None else [corner, size]
    text = format_value(result)
    payload = _header("toeplitz", args)
    payload.update(inputs=list(args.exprs), window=window, value=text)
    return payload, [text], 0


def _cmd_expand(args):
    ring = parse_ring(args.ring)
    if len(args.exprs) != 1:
        raise ExpressionSyntaxError("expand takes exactly 1 expression", 1, 1)
    series = parse_expression(args.exprs[0], ring, domain="series",
                              precision=args.precision)
    text = format_series(series)
    payload = _header("expand", args)
    payload.update(inputs=list(args.exprs), series=text)
    return payload, [text], 0


_COMMANDS = {
    "symbol": _cmd_symbol,
    "verify": _cmd_verify,
    "toeplitz": _cmd_toeplitz,
    "expand": _cmd_expand,
}


def _run_single(args, out) -> int:
    payload, lines, status = _COMMANDS[args.verb](args)
    if args.json:
        print(json.dumps(payload), file=out)
    else:
        for line in lines:
            print(line, file=out)
    return status


def _batch_args(parser, line: str):
    """Arguments of one batch line; SystemExit, as argparse raises it, for a
    line that is no command, also one with an unclosed quote."""
    try:
        argv = shlex.split(line)
    except ValueError:
        raise SystemExit(2) from None
    with contextlib.redirect_stderr(io.StringIO()):
        return parser.parse_args(argv)


def _run_batch(parser, stream, out) -> int:
    status = 0
    for raw in stream:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            args = _batch_args(parser, line)
            if args.verb == "batch":
                raise ExpressionSyntaxError("cannot nest batch mode", 1, 1)
            payload, _, code = _COMMANDS[args.verb](args)
        except SystemExit:
            payload, code = {"schema": SCHEMA, "error": f"bad command: {line}",
                             "exit": 2}, 2
        except ExpressionSyntaxError as exc:
            payload, code = {"schema": SCHEMA, "error": str(exc), "exit": 2}, 2
        except AlgebraError as exc:
            payload, code = {"schema": SCHEMA, "error": str(exc), "exit": 3}, 3
        else:
            if code:
                payload["exit"] = code
        print(json.dumps(payload), file=out)
        if code and not status:
            status = code
    return status


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        if args.verb == "batch":
            return _run_batch(parser, sys.stdin, out)
        return _run_single(args, out)
    except ExpressionSyntaxError as exc:
        print(f"sym: parse error: {exc}", file=sys.stderr)
        return 2
    except AlgebraError as exc:
        print(f"sym: domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

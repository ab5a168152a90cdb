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
JSON output follows schema ``cc-symbols/1``; it echoes ``--ring`` exactly as
given and ``--precision`` as the integer it parses to.

A batch line is split by the rules of ``shlex.split``.  A command of the
plain form VERB [KIND] OPTION... EXPR... is read straight off the command
table; argparse parses, or refuses, every other command, so both give the
same arguments and the same errors.  One runner then serves a command alone
and a batch line alike: it parses the ring, checks the expression count and
builds the ``cc-symbols/1`` envelope that the verb's function fills in.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
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


# The command table, read both by build_parser() and by _table_args().  Each
# option maps to its add_argument keywords; every option names its dest and,
# unless required, its default, so that _table_args() need not know
# argparse's rules for them.
_OPTIONS = {
    "--ring": {"dest": "ring", "required": True,
               "help": 'coefficient ring, e.g. "F5", "F9", "F5[e]/e^2"'},
    "--precision": {"dest": "precision", "type": int, "default": None,
                    "help": "absolute working precision for series division"},
    "--json": {"dest": "json", "action": "store_true", "default": False,
               "help": "emit a JSON object instead of plain text"},
    "--flag": {"dest": "flags", "action": "append", "default": [],
               "metavar": "SPEC",
               "help": "parshin flag: 't2=EXPR@a' (graph) or "
                       "'t1=EXPR@b' (vertical line)"},
    "--window": {"dest": "window", "type": _window, "default": None,
                 "metavar": "M,N", "help": "corner size M and matrix size N"},
}
_COMMON = ("--ring", "--precision", "--json")
# verb: (help, choices of the kind argument or None, option names); every verb
# but batch ends in one or more expressions, and batch takes no arguments
_VERBS = {
    "symbol": ("evaluate a symbol pairing", ("tame", "cc", "higher"), _COMMON),
    "verify": ("check a reciprocity law", ("weil", "cc", "parshin"),
               ("--flag",) + _COMMON),
    "toeplitz": ("joint torsion of truncated Toeplitz operators", None,
                 ("--window",) + _COMMON),
    "expand": ("normalize a series expression", None, _COMMON),
    "batch": ("read command lines from stdin, one JSON result per line",
              None, None),
}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="sym",
        description="Exact tame/Contou-Carrere/higher symbols and "
                    "reciprocity laws over truncated Laurent series.")
    sub = top.add_subparsers(dest="verb", required=True)
    for verb, (help_text, kinds, options) in _VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        if options is None:
            continue
        if kinds:
            p.add_argument("kind", choices=kinds)
        for name in options:
            p.add_argument(name, **_OPTIONS[name])
        p.add_argument("exprs", nargs="+", metavar="EXPR",
                       help="expression(s) in the CLI grammar")
    return top


def _table_args(argv):
    """The namespace ``build_parser().parse_args(argv)`` returns, for a
    command of the form VERB [KIND] OPTION... EXPR...: exact option names,
    option values and expressions that do not start with '-', and a valid
    value for every option.  None for any other argv, which argparse then
    parses, or refuses, itself."""
    spec = _VERBS.get(argv[0]) if argv else None
    if spec is None:
        return None
    _, kinds, options = spec
    if options is None:
        return argparse.Namespace(verb=argv[0]) if len(argv) == 1 else None
    args = {"verb": argv[0]}
    i = 1
    if kinds:
        if len(argv) < 2 or argv[1] not in kinds:
            return None
        args["kind"] = argv[1]
        i = 2
    for name in options:
        opt = _OPTIONS[name]
        if "default" in opt:
            args[opt["dest"]] = opt["default"]
    while i < len(argv) and argv[i][:1] == "-":
        if argv[i] not in options:
            return None
        opt = _OPTIONS[argv[i]]
        if opt.get("action") == "store_true":
            args[opt["dest"]] = True
            i += 1
            continue
        if i + 1 == len(argv) or argv[i + 1][:1] == "-":
            return None
        value = argv[i + 1]
        if "type" in opt:
            try:
                value = opt["type"](value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if opt.get("action") == "append":
            value = args[opt["dest"]] + [value]
        args[opt["dest"]] = value
        i += 2
    exprs = argv[i:]
    if not exprs or any(word[:1] == "-" for word in exprs) or \
            any(_OPTIONS[name]["dest"] not in args for name in options):
        return None
    args["exprs"] = exprs
    return argparse.Namespace(**args)


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


def _series(args, ring, depth=1) -> list:
    return [parse_expression(src, ring, domain="series", depth=depth,
                             precision=args.precision)
            for src in args.exprs]


def _cmd_symbol(args, ring, payload):
    depth = len(args.exprs) - 1 if args.kind == "higher" else 1
    values = _series(args, ring, depth)
    if args.kind == "tame":
        result = tame_symbol(*values)
    elif args.kind == "cc":
        result = cc_symbol(*values)
    else:
        result = higher_symbol(values)
    text = format_value(result)
    payload.update(kind=args.kind, inputs=list(args.exprs), value=text)
    return payload, [text], 0


def _cmd_verify(args, ring, payload):
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
    payload.update(inputs=list(args.exprs), **report.to_json())
    return payload, _report_lines(report), 0 if report.ok else 4


def _cmd_toeplitz(args, ring, payload):
    corner, size = args.window or (None, None)
    result = joint_torsion(*_series(args, ring), corner=corner, size=size)
    window = None if args.window is None else [corner, size]
    text = format_value(result)
    payload.update(inputs=list(args.exprs), window=window, value=text)
    return payload, [text], 0


def _cmd_expand(args, ring, payload):
    text = format_series(_series(args, ring)[0])
    payload.update(inputs=list(args.exprs), series=text)
    return payload, [text], 0


_COMMANDS = {"symbol": _cmd_symbol, "verify": _cmd_verify,
             "toeplitz": _cmd_toeplitz, "expand": _cmd_expand}
# expressions per kind or verb: exactly so many, at least so many for higher
_COUNTS = {"tame": 2, "cc": 2, "higher": 2, "weil": 2, "parshin": 3,
           "toeplitz": 2, "expand": 1}


def _run(args):
    """(payload, text lines, exit code) of one command: the verb's function
    gets the parsed ring and the cc-symbols/1 header to add its fields to."""
    ring = parse_ring(args.ring)
    kind = getattr(args, "kind", None)
    count, given = _COUNTS[kind or args.verb], len(args.exprs)
    if given < count or given > count and kind != "higher":
        command = args.verb if kind is None else f"{args.verb} {kind}"
        bound = "at least" if kind == "higher" else "exactly"
        noun = "expression" if count == 1 else "expressions"
        raise ExpressionSyntaxError(f"{command} takes {bound} {count} {noun}",
                                    1, 1)
    payload = {"schema": SCHEMA, "verb": args.verb, "ring": args.ring,
               "precision": args.precision, "convention": CONVENTION}
    return _COMMANDS[args.verb](args, ring, payload)


# A batch line is split by the POSIX rules of shlex.split: words are
# separated by blanks, a backslash outside quotes takes the next character
# literally, single quotes take everything up to the next single quote, and
# inside double quotes a backslash escapes only '"' and itself.  A quote left
# open or a backslash at the end is a ValueError, as in shlex.
_PIECES = re.compile(r"""([ \t\r\n]+)|([^ \t\r\n'"\\]+)|'([^']*)'"""
                     r'''|"([^"\\]*(?:\\.[^"\\]*)*)"|\\(.)|(.)''', re.S)
_DOUBLE_QUOTED_BODY = re.compile(r'[^"\\]*(?:\\.[^"\\]*)*', re.S)
_DOUBLE_QUOTED_ESCAPE = re.compile(r'\\(["\\])')


def _split_words(line: str) -> list:
    """``shlex.split(line)``, without its character-at-a-time state machine."""
    words, word = [], None
    for piece in _PIECES.finditer(line):
        kind = piece.lastindex
        text = piece.group(kind)
        if kind == 1:
            if word is not None:
                words.append(word)
                word = None
            continue
        if kind == 6:             # an open quote or a backslash at the end
            body = _DOUBLE_QUOTED_BODY.match(line, piece.end())
            if text == "\\" or text == '"' and body.end() < len(line):
                raise ValueError("No escaped character")
            raise ValueError("No closing quotation")
        if kind == 4:
            text = _DOUBLE_QUOTED_ESCAPE.sub(r"\1", text)
        word = text if word is None else word + text
    if word is not None:
        words.append(word)
    return words


def _run_batch(stream, out) -> int:
    status, parser = 0, None
    for raw in stream:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            try:
                argv = _split_words(line)
            except ValueError:
                raise SystemExit(2) from None
            args = _table_args(argv)
            if args is None:
                # argparse writes its errors to stderr and -h to stdout; the
                # reply is the error object either way
                parser = parser or build_parser()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    args = parser.parse_args(argv)
            if args.verb == "batch":
                raise ExpressionSyntaxError("cannot nest batch mode", 1, 1)
            payload, _, code = _run(args)
        except SystemExit:
            payload, code = {"schema": SCHEMA, "error": f"bad command: {line}",
                             "exit": 2}, 2
        except ExpressionSyntaxError as exc:
            payload, code = {"schema": SCHEMA, "error": str(exc), "exit": 2}, 2
        except (AlgebraError, OverflowError) as exc:
            payload, code = {"schema": SCHEMA, "error": str(exc), "exit": 3}, 3
        else:
            if code:
                payload["exit"] = code
        print(json.dumps(payload), file=out)
        if code and not status:
            status = code
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _table_args(argv) or build_parser().parse_args(argv)
    try:
        if args.verb == "batch":
            return _run_batch(sys.stdin, sys.stdout)
        payload, lines, status = _run(args)
    except ExpressionSyntaxError as exc:
        print(f"sym: parse error: {exc}", file=sys.stderr)
        return 2
    except (AlgebraError, OverflowError) as exc:
        print(f"sym: domain error: {exc}", file=sys.stderr)
        return 3
    if args.json:
        lines = [json.dumps(payload)]
    for line in lines:
        print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())

"""The batch-line splitter against shlex.split, and the table parse against
argparse, on lines shaped like the benchmark's `sym batch` corpus and on
seeded fuzz lines."""

import contextlib
import io
import random
import shlex

import pytest

from ccsym.cli import _split_words, _table_args, build_parser

RINGS = ("F5", "F7", "F9", "F3[e]/e^2", "F5[e]/e^2", "F3[e]/e^3")


def _series_text(rng):
    terms = [f"({rng.randrange(1, 5)}+({rng.randrange(5)})*e)*t^{e}"
             for e in sorted(rng.sample(range(-2, 4), rng.randrange(1, 4)))]
    shift = rng.randrange(-3, 4)
    return "(" + "+".join(terms) + ")" + (f"*t^{shift}" if shift else "")


def _corpus_words(rng):
    """One command in the shape of the benchmark's cli_batch rounds."""
    R = rng.choice(RINGS)
    series = [_series_text(rng) for _ in range(3)]
    choice = rng.randrange(8)
    if choice < 3:
        kind = ("tame", "cc", "higher")[choice]
        return ["symbol", kind, "--ring", R,
                *series[:3 if kind == "higher" else 2]]
    if choice == 3:
        return ["verify", rng.choice(("weil", "cc")), "--ring", R,
                "t^2+2*t+1", "(1+t)/(2+t^3)"]
    if choice == 4:
        flags = [w for f in ("t1=0@0", "t2=0@0", "t2=-t1@0", "t2=t1@0")
                 for w in ("--flag", f)]
        return ["verify", "parshin", "--ring", R, *flags, "t1", "t2", "t1+t2"]
    if choice == 5:
        return ["toeplitz", "--ring", R, *series[:2]]
    if choice == 6:
        return ["expand", "--ring", R, "--precision", "8", "(1+t)/(2+t)"]
    return shlex.split(rng.choice((
        "symbol cc --ring F6 t t", "symbol tame --ring F5 '1+*t' t",
        "frobnicate --ring F5 t", "symbol cc --ring F5 t",
        "symbol cc --ring F5 0 t", "verify weil --ring 'F5[e]/e^2' t 1-t",
        "verify parshin --ring F5 t1 t2 t1+t2", "toeplitz --ring F7 0 1+t")))


# well-formed pieces of each verb, and words the table must leave to argparse
VERB_KINDS = {"symbol": ("tame", "cc", "higher"),
              "verify": ("weil", "cc", "parshin"),
              "toeplitz": (None,), "expand": (None,)}
VERB_OPTIONS = {"symbol": (), "expand": (),
                "verify": (("--flag", "t1=0@0"), ("--flag", "t2=-t1@0")),
                "toeplitz": (("--window", "2,6"),
                             ("--window", "1,99999999999999999999"))}
COMMON = (("--ring", "F5"), ("--ring", "F3[e]/e^2"), ("--ring", ""),
          ("--precision", "8"), ("--precision", "08"), ("--json",))
EXPRS = ("t", "1+t", "t^-1", "1 + t", "", "t1", "t2=t1@0", "'t'", '"t"',
         "a\\b")
ODD = (("frobnicate",), ("batch",), ("bogus",), ("--precision", "-3"),
       ("--precision", "x"), ("--window", "2,1"), ("--window", "3"),
       ("--flag", "t1=0@0"), ("--window", "2,6"), ("--prec", "4"),
       ("--ring=F5",), ("--js",), ("-h",), ("--help",), ("--",), ("--ring",),
       ("-t",), ("-1",), ("--json",))


def _fuzz_words(rng):
    """A well-formed command, or one with an odd word put anywhere in it."""
    verb = rng.choice(sorted(VERB_KINDS))
    kind = rng.choice(VERB_KINDS[verb])
    words = [verb] + ([kind] if kind else [])
    options = VERB_OPTIONS[verb] + COMMON
    for option in [("--ring", "F5")] + rng.sample(options, rng.randrange(4)):
        words.extend(option)
    words.extend(rng.choice(EXPRS) for _ in range(rng.randrange(1, 4)))
    for _ in range(rng.choice((0, 0, 1, 2))):
        at = rng.randrange(len(words) + 1)
        words[at:at] = rng.choice(ODD)
    if rng.random() < 0.05:
        del words[rng.randrange(len(words))]
    return words


def _quote(word, rng):
    """One of the ways a shell user may write ``word``."""
    style = rng.randrange(4)
    if style == 0:
        return shlex.quote(word)
    if style == 1:
        return '"' + word.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if style == 2:
        return "".join("\\" + c if c in " \t'\"\\" or rng.random() < 0.1
                       else c for c in word) or "''"
    return word if word and not set(word) & set(" \t'\"\\") else \
        shlex.quote(word)


def _lines():
    rng = random.Random(20261019)
    lines = [shlex.join(_corpus_words(rng)) for _ in range(800)]
    for _ in range(2500):
        lines.append("".join(rng.choice((" ", "  ", "\t", " \t ")) +
                             _quote(word, rng) for word in _fuzz_words(rng)))
    return lines


LINES = _lines()
CORPUS = LINES[:800]


def _shlex_or_error(line):
    try:
        return shlex.split(line)
    except ValueError as exc:
        return ValueError, str(exc)


def _split_or_error(line):
    try:
        return _split_words(line)
    except ValueError as exc:
        return ValueError, str(exc)


def _random_line(rng):
    pieces = ("t", "1", "+", "e", " ", "  ", "\t", "\r", "\n", "\x0b", "é",
              "'", '"', "\\", "''", '""', "'a b'", '"a\\"b"', '"\\\\"',
              '"\\t"', "\\ ", "\\'")
    return "".join(rng.choice(pieces) for _ in range(rng.randrange(12)))


def test_splitter_matches_shlex_on_corpus_and_fuzz_lines():
    rng = random.Random(7)
    lines = LINES + [_random_line(rng) for _ in range(3000)]
    mismatches = [line for line in lines
                  if _split_or_error(line) != _shlex_or_error(line)]
    assert mismatches == []
    errors = [line for line in lines
              if isinstance(_shlex_or_error(line), tuple)]
    assert len(errors) > 100              # unclosed quotes, trailing '\'


@pytest.mark.parametrize("line, words", [
    ("a 'b c' \"d\\\"e\" f\\ g", ["a", "b c", 'd"e', "f g"]),
    ("'' \"\" x''", ["", "", "x"]),
    ('"a\\tb" a\\tb', ["a\\tb", "atb"]),
    ("a\tb\r\nc\x0bd", ["a", "b", "c\x0bd"]),
])
def test_splitter_examples(line, words):
    assert _split_words(line) == words == shlex.split(line)


@pytest.mark.parametrize("line, message", [
    ("symbol tame --ring F5 '1+t t", "No closing quotation"),
    ('a "b', "No closing quotation"),
    ('a "b\\"', "No closing quotation"),
    ('a "b\\', "No escaped character"),
    ("a b\\", "No escaped character"),
])
def test_splitter_refuses_like_shlex(line, message):
    for split in (_split_words, shlex.split):
        with pytest.raises(ValueError, match=message):
            split(line)


def _argparse_or_exit(parser, argv):
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return vars(parser.parse_args(argv))
    except SystemExit as exc:
        return SystemExit, exc.code


def test_table_parse_matches_argparse():
    parser = build_parser()
    accepted = mismatches = 0
    for line in LINES:
        try:
            argv = shlex.split(line)
        except ValueError:
            continue
        table = _table_args(argv)
        if table is None:
            continue
        accepted += 1
        if vars(table) != _argparse_or_exit(parser, argv):
            mismatches += 1
    assert mismatches == 0
    assert accepted > 1000


def test_table_parse_takes_every_corpus_command_with_a_known_verb():
    for line in CORPUS:
        argv = shlex.split(line)
        assert (_table_args(argv) is None) == (argv[0] == "frobnicate")


@pytest.mark.parametrize("argv", [
    ["symbol", "cc", "--prec", "4", "--ring", "F5", "t", "t"],
    ["symbol", "cc", "--ring=F5", "t", "t"],
    ["symbol", "cc", "--ring", "F5", "--", "-t", "t"],
    ["symbol", "cc", "--ring", "F5", "-1", "t"],
    ["symbol", "cc", "--ring", "F5", "t", "t", "--json"],
    ["symbol", "--ring", "F5", "cc", "t", "t"],
    ["symbol", "cc", "-h"],
    ["symbol", "bogus", "--ring", "F5", "t"],
    ["expand", "--ring", "F5", "--precision", "-3", "t"],
    ["toeplitz", "--ring", "F5", "--window", "2,1", "t", "t"],
    ["symbol", "cc", "--ring", "F5"],
    ["symbol", "cc", "t", "t"],
    ["batch", "x"],
    [],
])
def test_table_parse_leaves_other_forms_to_argparse(argv):
    assert _table_args(argv) is None


def test_table_parse_echoes_the_parsed_precision():
    args = _table_args(["expand", "--ring", "F5", "--precision", "08", "t"])
    assert args.precision == 8
    assert vars(args) == vars(build_parser().parse_args(
        ["expand", "--ring", "F5", "--precision", "08", "t"]))

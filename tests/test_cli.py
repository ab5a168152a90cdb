"""End-to-end command-line behavior: output text, JSON schema, exit codes,
stdin batch mode."""

import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ccsym import rings
from ccsym.cli import main
from ccsym.reciprocity import LocalFactor, ReciprocityReport
from ccsym.rings import GaloisField, PrimeField


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- pinned examples ------------------------------------------------------------

def test_symbol_cc_example(capsys):
    code, out, _ = run(capsys, "symbol", "cc", "--ring", "F5[e]/e^2",
                       "1-e*t^-1", "1-2*t")
    assert code == 0
    assert out == "1 + 2*e\n"


def test_verify_weil_example(capsys):
    code, out, _ = run(capsys, "verify", "weil", "--ring", "F5", "t", "1-t")
    assert code == 0
    assert "product 1" in out
    assert "weil reciprocity holds" in out


def test_verify_weil_over_a_galois_field_of_a_huge_prime(capsys):
    # q = (2^31 - 1)^2: the pinned minpoly search must neither walk the
    # p never-primitive binomials nor trial-divide q - 1
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", "weil", "--ring",
                       "F4611686014132420609", "t-1", "t+2")
    assert code == 0
    assert "product 1" in out
    assert time.perf_counter() - start < 2.0


def test_symbol_tame_example(capsys):
    code, out, _ = run(capsys, "symbol", "tame", "--ring", "F7", "t", "t")
    assert code == 0
    assert out == "6\n"


def _readme_examples():
    """(command line, expected stdout) for each `$ sym ...` line of the
    README's Examples block; a trailing backslash continues a command."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("Examples (exact expected output):", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    lines = iter(block.splitlines())
    for line in lines:
        if line.startswith("$ "):
            command = line[2:]
            while command.endswith("\\"):
                command = command[:-1] + next(lines)
            examples.append((command, ""))
        else:
            command, out = examples[-1]
            examples[-1] = (command, out + line + "\n")
    return examples


README_EXAMPLES = _readme_examples()


def test_readme_examples_are_found():
    assert [shlex.split(cmd)[:3] for cmd, _ in README_EXAMPLES] == [
        ["sym", "symbol", "cc"], ["sym", "symbol", "tame"],
        ["sym", "verify", "weil"], ["sym", "verify", "parshin"]]


@pytest.mark.parametrize("command,expected", README_EXAMPLES,
                         ids=[cmd.split("--ring")[0].strip()
                              for cmd, _ in README_EXAMPLES])
def test_readme_example_prints_its_documented_output(capsys, command, expected):
    # the place labels (`Poly` reprs) and flag labels (curve equations) of
    # the reports are printed byte for byte as the README shows them
    code, out, _ = run(capsys, *shlex.split(command)[1:])
    assert code == 0
    assert out == expected


# -- truncated arguments without a known unit -----------------------------------

@pytest.mark.parametrize("argv", [
    ["symbol", "cc", "e+O(t^3)", "t"],
    ["symbol", "tame", "e+O(t^3)", "t"],
    ["toeplitz", "e+O(t^3)", "1+t"],
    ["symbol", "higher", "e+O(t2^3)", "1+t1", "t2"],
], ids=["symbol cc", "symbol tame", "toeplitz", "symbol higher"])
def test_truncated_argument_without_a_known_unit_needs_more_precision(capsys, argv):
    # e + t^3 + O(t^4) completes e + O(t^3) to a unit, so the symbol is
    # undetermined rather than undefined
    code, _, err = run(capsys, *argv, "--ring", "F3[e]/e^2")
    assert code == 3
    assert "no unit among the known coefficients of e + O(t" in err


@pytest.mark.parametrize("argv,message", [
    (["symbol", "cc", "e", "t"], "Contou-Carrere symbol needs unit arguments"),
    (["symbol", "tame", "e", "t"], "no unit coefficient below truncation in e"),
    (["toeplitz", "e", "1+t"], "joint torsion needs unit symbols"),
    (["symbol", "higher", "e", "1+t1", "t2"], "higher symbol needs unit arguments"),
], ids=["symbol cc", "symbol tame", "toeplitz", "symbol higher"])
def test_exact_non_unit_argument_keeps_its_message(capsys, argv, message):
    code, _, err = run(capsys, *argv, "--ring", "F3[e]/e^2")
    assert code == 3
    assert err == f"sym: domain error: {message}\n"


# -- JSON output ------------------------------------------------------------------

def test_symbol_json_header(capsys):
    code, out, _ = run(capsys, "symbol", "cc", "--ring", "F5[e]/e^2",
                       "--json", "1-e*t^-1", "1-2*t")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "cc-symbols/1"
    assert data["ring"] == "F5[e]/e^2"
    assert data["precision"] is None
    assert data["convention"] == "boundary-composite/v1"
    assert data["value"] == "1 + 2*e"
    assert data["inputs"] == ["1-e*t^-1", "1-2*t"]


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", "cc", "--ring", "F5[e]/e^2",
                       "--json", "--precision", "12", "(t-e)/1", "1-t")
    assert code == 0
    data = json.loads(out)
    assert data["precision"] == 12
    assert data["law"] == "cc" and data["verdict"] is True
    assert data["product"] == "1"
    for factor in data["factors"]:
        assert {"place", "degree", "local", "value", "regular"} <= set(factor)
        assert factor["regular"] == (factor["value"] == "1")
    assert any(not factor["regular"] for factor in data["factors"])


def test_expand_json_and_precision(capsys):
    code, out, _ = run(capsys, "expand", "--ring", "F3[e]/e^2",
                       "--precision", "4", "--json", "(1+e*t)/(1-t)")
    assert code == 0
    data = json.loads(out)
    assert data["series"] == "1 + (1 + e)*t + (1 + e)*t^2 + (1 + e)*t^3 + O(t^4)"


# the whole --json line of each verb: key order is part of cc-symbols/1
_HEADER = ('"schema": "cc-symbols/1", "verb": "{}", "ring": "{}", '
           '"precision": {}, "convention": "boundary-composite/v1"')


@pytest.mark.parametrize("line,expected", [
    ('symbol cc --ring "F5[e]/e^2" --json "1-e*t^-1" "1-2*t"',
     "{" + _HEADER.format("symbol", "F5[e]/e^2", "null")
     + ', "kind": "cc", "inputs": ["1-e*t^-1", "1-2*t"], "value": "1 + 2*e"}'),
    ('verify weil --ring F5 --json "t*(1-t)" "1-t"',
     "{" + _HEADER.format("verify", "F5", "null")
     + ', "inputs": ["t*(1-t)", "1-t"], "law": "weil", "verdict": true, '
     '"product": "1", "factors": [{"place": "t", "degree": 1, "local": "1", '
     '"value": "1", "regular": true}, {"place": "4 + t", "degree": 1, '
     '"local": "4", "value": "4", "regular": false}, {"place": "infinity", '
     '"degree": 1, "local": "4", "value": "4", "regular": false}]}'),
    ("verify parshin --ring F5 --flag t1=0@0 --flag t2=0@0 --flag t2=-t1@0 "
     "--json t1 t2 t1+t2",
     "{" + _HEADER.format("verify", "F5", "null")
     + ', "inputs": ["t1", "t2", "t1+t2"], "law": "parshin", "verdict": true, '
     '"product": "1", "factors": [{"place": "(t1 = 0; point (0, 0))", '
     '"degree": 1, "local": "4", "value": "4", "regular": false}, '
     '{"place": "(t2 = 0; point (0, 0))", "degree": 1, "local": "4", '
     '"value": "4", "regular": false}, {"place": "(t2 + t1 = 0; point (0, 0))", '
     '"degree": 1, "local": "1", "value": "1", "regular": true}]}'),
    ('toeplitz --ring F5 --window 4,12 --json "t^2*(1+t)" "3*t^-1"',
     "{" + _HEADER.format("toeplitz", "F5", "null")
     + ', "inputs": ["t^2*(1+t)", "3*t^-1"], "window": [4, 12], "value": "4"}'),
    ('expand --ring "F3[e]/e^2" --precision 4 --json "(1+e*t)/(1-t)"',
     "{" + _HEADER.format("expand", "F3[e]/e^2", "4")
     + ', "inputs": ["(1+e*t)/(1-t)"], "series": "1 + (1 + e)*t + '
     '(1 + e)*t^2 + (1 + e)*t^3 + O(t^4)"}'),
], ids=["symbol", "weil", "parshin", "toeplitz", "expand"])
def test_json_line_of_each_verb(capsys, monkeypatch, line, expected):
    code, out, _ = run(capsys, *shlex.split(line))
    assert (code, out) == (0, expected + "\n")
    # a batch reply is the same line
    monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
    assert main(["batch"]) == 0
    assert capsys.readouterr().out == expected + "\n"


# -- other verbs ------------------------------------------------------------------

def test_toeplitz_matches_cc_symbol(capsys):
    args = ["--ring", "F3[e]/e^2", "1-e*t^-1", "1-2*t"]
    code_t, out_t, _ = run(capsys, "toeplitz", *args)
    code_s, out_s, _ = run(capsys, "symbol", "cc", *args)
    assert code_t == code_s == 0
    assert out_t == out_s


def test_toeplitz_explicit_window(capsys):
    code, out, _ = run(capsys, "toeplitz", "--ring", "F5",
                       "--window", "4,12", "--json", "t^2*(1+t)", "3*t^-1")
    assert code == 0
    data = json.loads(out)
    assert data["window"] == [4, 12]
    assert data["value"] == "4"


def test_symbol_higher_arity_three(capsys):
    code, out, _ = run(capsys, "symbol", "higher", "--ring", "F5",
                       "t1", "t2", "t1+t2")
    assert code == 0
    assert out.strip() in {str(n) for n in range(5)}


def test_verify_parshin_with_flags(capsys):
    flags = ["--flag", "t1=0@0", "--flag", "t2=0@0",
             "--flag", "t2=-t1@0", "--flag", "t2=t1@0"]
    code, out, _ = run(capsys, "verify", "parshin", "--ring", "F5",
                       *flags, "t1", "t2", "t1-t2")
    assert code == 0
    assert "parshin reciprocity holds" in out


def test_verify_parshin_missing_flag_is_domain_error(capsys):
    code, _, err = run(capsys, "verify", "parshin", "--ring", "F5",
                       "--flag", "t1=0@0", "--flag", "t2=0@0",
                       "t1", "t2", "t1+t2")
    assert code == 3
    assert "domain error" in err


def test_verify_parshin_cover_errors_name_the_curve(capsys):
    code, out, err = run(capsys, "verify", "parshin", "--ring", "F5",
                         "--flag", "t1=0@0", "--flag", "t2=0@0",
                         "t1", "t2-t1^2", "t2")
    assert (code, out) == (3, "")
    assert err == ("sym: domain error: a curve through (0, 0) outside the flag"
                   " family carries a zero or pole of t2 + 4*t1^2\n")
    code, out, err = run(capsys, "verify", "parshin", "--ring", "F5",
                         "--flag", "t1=0@0", "--flag", "t2=0@0",
                         "t1", "t2", "t1+t2")
    assert (code, out) == (3, "")
    assert err == ("sym: domain error: function t2 + t1 has a zero or pole"
                   " along (t2 + t1 = 0; point (0, 0)) which is missing from"
                   " the flags\n")


def test_verify_parshin_label_brackets_a_sum_coefficient(capsys):
    # it printed t2 + 2 + 2*g*t1, which reads as another curve
    code, out, _ = run(capsys, "verify", "parshin", "--ring", "F9",
                       "--flag", "t1=0@0", "--flag", "t2=(1+g)*t1@0",
                       "--flag", "t2=0@0", "t1", "t2", "t2-(1+g)*t1")
    assert code == 0
    assert out.splitlines()[1].startswith(
        "(t2 + (2 + 2*g)*t1 = 0; point (0, 0))  degree 1")


def test_verify_parshin_repeated_flag_is_domain_error(capsys):
    # it used to count t1 = 0 twice and print "parshin reciprocity FAILS"
    code, out, err = run(capsys, "verify", "parshin", "--ring", "F5",
                         "--flag", "t1=0@0", "--flag", "t2=0@0",
                         "--flag", "t1=0@0", "3", "t1", "t2")
    assert code == 3
    assert out == ""
    assert err == ("sym: domain error: the flag (t1 = 0; point (0, 0))"
                   " is given twice\n")


# -- exit codes --------------------------------------------------------------------

def test_exit_2_on_syntax_error(capsys):
    code, _, err = run(capsys, "symbol", "cc", "--ring", "F5", "t +", "t")
    assert code == 2
    assert "parse error" in err


def test_exit_2_on_bad_ring(capsys):
    code, _, err = run(capsys, "symbol", "cc", "--ring", "F6", "t", "t")
    assert code == 2
    assert "prime power" in err


def test_exit_2_on_unknown_symbol(capsys):
    code, _, err = run(capsys, "symbol", "cc", "--ring", "F5", "e", "t")
    assert code == 2
    assert "unknown symbol" in err


def test_exit_3_on_domain_error(capsys):
    code, _, err = run(capsys, "symbol", "cc", "--ring", "F3[e]/e^2", "e", "t")
    assert code == 3
    assert "domain error" in err


def test_toeplitz_names_the_truncated_exponent_of_its_argument(capsys):
    # the index shifts the symbol by t^1 first; the error names the input's
    # own exponent, not the shifted series'
    code, _, err = run(capsys, "toeplitz", "--ring", "F5[e]/e^2",
                       "1+e*t^-1+O(t^1)", "1-2*t")
    assert code == 3
    assert err == "sym: domain error: coefficient of t^1 beyond O(t^1)\n"


def test_exit_3_on_weil_over_artinian(capsys):
    code, _, err = run(capsys, "verify", "weil", "--ring", "F3[e]/e^2",
                       "t", "1-t")
    assert code == 3


def test_exit_3_past_the_factoring_budget(capsys, monkeypatch):
    # 2^29 - 1 = 233 * 1103 * 2089 needs rho, which gets no squarings here
    monkeypatch.setattr(rings, "_RHO_BUDGET", 0)
    monkeypatch.delitem(rings._RINGS, (GaloisField, (2, 29)), raising=False)
    code, _, err = run(capsys, "verify", "weil", "--ring", "F536870912",
                       "t-1", "t+2")
    assert code == 3
    assert "rho budget" in err


def test_exit_4_on_false_verdict(capsys, monkeypatch):
    F5 = PrimeField(5)
    fake = ReciprocityReport(
        law="weil", ok=False, product=F5.from_int(2),
        factors=(LocalFactor("t", 1, F5.from_int(2), F5.from_int(2)),))
    monkeypatch.setattr("ccsym.cli.weil_check", lambda f, g, precision: fake)
    code, out, _ = run(capsys, "verify", "weil", "--ring", "F5", "t", "1-t")
    assert code == 4
    assert "FAILS" in out


def test_argparse_rejects_unknown_verb():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_argparse_rejects_bad_window():
    with pytest.raises(SystemExit) as err:
        main(["toeplitz", "--ring", "F5", "--window", "3", "t", "t"])
    assert err.value.code == 2


def test_argparse_rejects_a_window_that_is_not_two_integers(capsys):
    with pytest.raises(SystemExit) as err:
        main(["toeplitz", "--ring", "F5", "--window", "a,3", "t", "t"])
    assert err.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --window: expected integers in --window M,N\n")


_POSITION = " (line 1, column 1)"


@pytest.mark.parametrize("argv,code,message", [
    (["parshin", "--flag", "t2=0"], 2,
     "parse error: bad flag 't2=0': expected 'VAR=EXPR@POINT'" + _POSITION),
    (["parshin", "--flag", "s=0@0"], 2,
     "parse error: bad flag 's=0@0': left side must be 't1=' or 't2='"
     + _POSITION),
    (["parshin", "--flag", "t1=t1@0"], 2,
     "parse error: bad flag 't1=t1@0': a vertical line needs a constant "
     "right side" + _POSITION),
    # the denominator is printed in the flag's variable
    (["parshin", "--flag", "t2=1/t1@0"], 3,
     "domain error: '1/t1' is not polynomial in 't1' (denominator t1)"),
    (["weil", "--flag", "t1=0@0"], 2,
     "parse error: --flag only applies to verify parshin" + _POSITION),
])
def test_flag_refusals(capsys, argv, code, message):
    exprs = ["t1", "t2", "t1+t2"] if argv[0] == "parshin" else ["t", "1-t"]
    got = run(capsys, "verify", *argv, "--ring", "F5", *exprs)
    assert got == (code, "", f"sym: {message}\n")


def test_wrong_arity_is_parse_error(capsys):
    code, _, err = run(capsys, "symbol", "cc", "--ring", "F5", "t")
    assert code == 2
    code, _, err = run(capsys, "verify", "weil", "--ring", "F5",
                       "t", "1-t", "t")
    assert code == 2


# the ring is read before the count is checked, and the count before --flag
@pytest.mark.parametrize("line,message", [
    ("symbol tame --ring F5 t", "symbol tame takes exactly 2 expressions"),
    ("symbol cc --ring F5 t", "symbol cc takes exactly 2 expressions"),
    ("symbol higher --ring F5 t", "symbol higher takes at least 2 expressions"),
    ("verify weil --ring F5 t", "verify weil takes exactly 2 expressions"),
    ("verify cc --ring F5 t 1-t t", "verify cc takes exactly 2 expressions"),
    ("verify parshin --ring F5 t1 t2", "verify parshin takes exactly 3 expressions"),
    ("toeplitz --ring F5 t", "toeplitz takes exactly 2 expressions"),
    ("expand --ring F5 t 1-t", "expand takes exactly 1 expression"),
    ("verify weil --ring F5 --flag t1=0@0 t",
     "verify weil takes exactly 2 expressions"),
    ("symbol cc --ring F6 t", "bad ring spec 'F6': 6 is not a prime power"),
])
def test_count_messages_alone_and_in_batch(capsys, monkeypatch, line, message):
    message += " (line 1, column 1)"
    code, out, err = run(capsys, *shlex.split(line))
    assert (code, out, err) == (2, "", f"sym: parse error: {message}\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
    code = main(["batch"])
    reply = {"schema": "cc-symbols/1", "error": message, "exit": 2}
    assert (code, capsys.readouterr().out) == (2, json.dumps(reply) + "\n")


# -- batch mode ---------------------------------------------------------------------

def test_batch_mode(capsys, monkeypatch):
    lines = "\n".join([
        "symbol tame --ring F7 t t",
        "# a comment",
        "",
        'expand --ring F5 --precision 4 "1/(1-t)"',
        'symbol cc --ring F5 t q',
        "not a verb",
        "verify weil --ring F5 t 1-t",
    ])
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    code = main(["batch"])
    out = capsys.readouterr().out
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 5
    assert rows[0]["value"] == "6"
    assert rows[1]["series"] == "1 + t + t^2 + t^3 + O(t^4)"
    assert rows[2]["exit"] == 2 and "unknown symbol" in rows[2]["error"]
    assert rows[3]["exit"] == 2
    assert rows[4]["verdict"] is True
    assert code == 2  # first failing line sets the batch exit code


def test_batch_refuses_an_open_quote_and_a_nested_batch(capsys, monkeypatch):
    lines = ["symbol tame --ring F5 '1+t t", "batch",
             "symbol tame --ring F5 t 1+t"]
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    code = main(["batch"])
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rows[:2] == [
        {"schema": "cc-symbols/1", "error": f"bad command: {lines[0]}",
         "exit": 2},
        {"schema": "cc-symbols/1",
         "error": "cannot nest batch mode (line 1, column 1)", "exit": 2}]
    assert rows[2]["value"] == "1"
    assert code == 2


def test_batch_reply_to_a_false_verdict_carries_exit_4(capsys, monkeypatch):
    F5 = PrimeField(5)
    fake = ReciprocityReport(
        law="weil", ok=False, product=F5.from_int(2),
        factors=(LocalFactor("t", 1, F5.from_int(2), F5.from_int(2)),))
    monkeypatch.setattr("ccsym.cli.weil_check", lambda f, g, precision: fake)
    monkeypatch.setattr("sys.stdin", io.StringIO(
        "verify weil --ring F5 t 1-t\nsymbol tame --ring F5 t 1+t\n"))
    code = main(["batch"])
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rows[0]["verdict"] is False and rows[0]["exit"] == 4
    assert "exit" not in rows[1] and rows[1]["value"] == "1"
    assert code == 4


def test_batch_domain_error_continues(capsys, monkeypatch):
    lines = "symbol cc --ring F3[e]/e^2 e t\nsymbol tame --ring F5 t t\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    code = main(["batch"])
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rows[0]["exit"] == 3
    assert rows[1]["value"] == "4"
    assert code == 3


def test_batch_answers_an_integer_literal_over_the_digit_limit(capsys,
                                                               monkeypatch):
    # int() refuses a literal of more digits than sys.get_int_max_str_digits()
    # (4,300 by default); that line is a parse error and the batch goes on
    lines = f"symbol tame --ring F5 {'1' * 5000} t\nsymbol tame --ring F5 t 1+t\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code = main(["batch"])
    finally:
        sys.set_int_max_str_digits(limit)
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 2
    assert rows[0]["exit"] == 2
    assert rows[0]["error"] == ("integer literal of 5000 digits exceeds the "
                                "limit of 4300 digits (line 1, column 1)")
    assert rows[1]["value"] == "1"
    assert code == 2


def _batch_process(lines):
    """Run ``sym batch`` on ``lines`` in a child process; every line it
    writes to stdout must be one JSON object."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-m", "ccsym.cli", "batch"],
                          input="\n".join(lines) + "\n", capture_output=True,
                          text=True, env=env, timeout=60)
    return proc, [json.loads(line) for line in proc.stdout.splitlines()]


def test_batch_answers_unclosed_quotes_long_sums_and_deep_nesting():
    lines = ["symbol tame --ring F5 '1+t t",
             "symbol tame --ring F7 " + "+".join(["t"] * 1500) + " t",
             "symbol tame --ring F5 " + "(" * 3000 + "t" + ")" * 3000 + " t",
             "symbol tame --ring F5 t 1+t"]
    proc, rows = _batch_process(lines)
    assert proc.stderr == ""
    assert [row.get("exit", 0) for row in rows] == [2, 0, 2, 0]
    assert rows[0]["error"] == f"bad command: {lines[0]}"
    assert rows[1]["value"] == "5"            # (2t, t) = -2 over F7
    assert "nested deeper than" in rows[2]["error"]
    assert rows[3]["value"] == "1"
    assert proc.returncode == 2


def test_batch_answers_help_lines_with_error_objects():
    # argparse prints help to stdout, which would break one JSON object per
    # line
    lines = ["symbol --help", "-h", "--help", "verify weil -h",
             "symbol tame --ring F5 t 1+t"]
    proc, rows = _batch_process(lines)
    assert proc.stderr == ""
    assert [row.get("exit", 0) for row in rows] == [2, 2, 2, 2, 0]
    assert [row.get("error") for row in rows[:4]] == \
        [f"bad command: {line}" for line in lines[:4]]
    assert rows[4]["value"] == "1"
    assert proc.returncode == 2


# sizes past the index range of a list, refused by their limits before
# anything is allocated
@pytest.mark.parametrize("line", [
    "toeplitz --ring F5 --window 1,99999999999999999999 t 1+t",
    "symbol cc --ring 'F5[e]/e^99999999999999999999' t 1+t",
])
def test_a_size_past_the_index_range_is_a_domain_error(capsys, monkeypatch,
                                                       line):
    message = {
        "toeplitz": "joint torsion needs windows of at most 4096, "
                    "not corner=1, size=99999999999999999999",
        "symbol": "nilpotency order m must be at most 1024, "
                  "not 99999999999999999999"}[line.split()[0]]
    code, _, err = run(capsys, *shlex.split(line))
    assert code == 3
    assert err == f"sym: domain error: {message}\n"
    monkeypatch.setattr("sys.stdin",
                        io.StringIO(f"{line}\nsymbol tame --ring F5 t 1+t\n"))
    code = main(["batch"])
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row.get("exit", 0) for row in rows] == [3, 0]
    assert rows[0]["error"] == message
    assert rows[1]["value"] == "1"
    assert code == 3


def test_a_nilpotency_order_past_the_limit_is_refused_alone_and_in_batch(
        capsys, monkeypatch):
    # F5[e]/e^16384 fits an index, but a symbol over it ran past 60 s
    line = 'symbol cc --ring "F5[e]/e^16384" t 1+t'
    message = "nilpotency order m must be at most 1024, not 16384"
    start = time.perf_counter()
    code, out, err = run(capsys, *shlex.split(line))
    assert (code, out, err) == (3, "", f"sym: domain error: {message}\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(
        f'{line}\nsymbol cc --ring "F5[e]/e^2" "1-e*t^-1" "1-2*t"\n'))
    code = main(["batch"])
    assert time.perf_counter() - start < 1.0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == {"schema": "cc-symbols/1", "error": message, "exit": 3}
    assert rows[1]["value"] == "1 + 2*e"
    assert code == 3


def test_a_window_past_the_limit_is_refused_alone_and_in_batch(capsys,
                                                              monkeypatch):
    # a window that fits an index but would allocate a band of 2 * 10^12
    # payloads is refused before the band is built
    line = ('toeplitz --ring "F5[e]/e^2" --window 1000000000000,1000000000000'
            ' "1-e*t^-1" "1-t"')
    message = ("joint torsion needs windows of at most 4096, "
               "not corner=1000000000000, size=1000000000000")
    code, out, err = run(capsys, *shlex.split(line))
    assert (code, out, err) == (3, "", f"sym: domain error: {message}\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(
        f'{line}\ntoeplitz --ring "F5[e]/e^2" "1-e*t^-1" "1-t"\n'))
    code = main(["batch"])
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == {"schema": "cc-symbols/1", "error": message, "exit": 3}
    assert rows[1]["value"] == "1 + e"
    assert code == 3

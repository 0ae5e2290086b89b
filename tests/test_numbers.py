"""One number grammar for every file and flag, and one set of blanks.

``algebra._parse_number`` is the only code that turns file or argv text
into an int or a float.  On ASCII text without ``_``, vertical tab or
form feed it returns exactly what ``int()`` or ``float()`` returns; any
other text is a ``ParseError``.  ``int()`` and ``float()`` alone read
non-ASCII digits, such as the Arabic-Indic and fullwidth ones, ``_``
separators and padding by vertical tab or form feed.  The element,
scalar, certificate and matrix readers and every number flag take only
ASCII space, tab, CR and LF as padding and separators, where
``str.strip()`` and ``split()`` alone take any Unicode space.
"""

import ast
import contextlib
import io
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffgate import (
    BasisLabel,
    Certificate,
    ParseError,
    certificate,
    chain_generators,
    close,
    parse_element,
    parse_matrix,
    universal_generators,
)
from cliffgate.algebra import _parse_number, parse_scalar
from cliffgate.cli import main

SRC = Path(__file__).resolve().parent.parent / "src" / "cliffgate"

# an Arabic-Indic one, a fullwidth one and an underscore-separated ten
NOT_ASCII_NUMBERS = ["\u0661", "\uff11", "1_0"]

LIBRARY = {
    "element exponent": lambda d: parse_element(f"2^{d}*e[0]", 4),
    "element index": lambda d: parse_element(f"e[0,{d}]", 64),
    "scalar exponent": lambda d: parse_scalar(f"-i*2^{d}"),
    "certificate ambient": lambda d: Certificate.from_text(
        f"ambient {d}\ntarget e[0]\ngenerator e[0]\nscalar 1\n"
    ),
    "matrix real part": lambda d: parse_matrix(f"{d},0 0,0\n0,0 1,0\n"),
    "matrix imaginary part": lambda d: parse_matrix(f"1,0 0,{d}\n0,-{d} 1,0\n"),
}


@pytest.mark.parametrize("digit", NOT_ASCII_NUMBERS)
@pytest.mark.parametrize("entry", list(LIBRARY))
def test_library_readers_refuse_other_digits(entry, digit):
    with pytest.raises(ParseError):
        LIBRARY[entry](digit)


# {bad} names a matrix file holding the digit, {good} a sound one
CLI = [
    "synth -n 1 -N 1 -i {bad}",
    "synth -n {d} -N 1 -i {good}",
    "synth -n 1 -N {d} -i {good}",
    "synth -n 1 -N 1 --cap {d} -i {good}",
    "power --angle {d} --eps 0.1",
    "power --angle {d}.5 --eps 0.1",
    "power --angle pi/{d} --eps 0.1",
    "power --angle {d}*pi --eps 0.1",
    "power --angle 1 --eps {d}",
    "power --angle 1 --eps 0.{d}",
    "power --angle 1 --eps 0.1 --cap {d}000",
    "closure -m {d} e[0] e[1]",
    "closure -m 4 --cap {d}0 e[0] e[1]",
    "certify -m {d} --target e[0,1] e[0] e[1]",
    "verify-rep -n {d}",
    "verify-rep -n 1 --seed {d}",
    "gateset -n {d}",
]


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("digit", NOT_ASCII_NUMBERS)
@pytest.mark.parametrize("template", CLI)
def test_every_number_flag_and_file_refuses_other_digits(template, digit, tmp_path):
    bad, good = tmp_path / "bad.mat", tmp_path / "good.mat"
    bad.write_text(f"{digit},0 0,0\n0,0 {digit},0\n")
    good.write_text("1,0 0,0\n0,0 1,0\n")
    argv = [word.format(d=digit, bad=bad, good=good) for word in template.split()]
    code, out, err = run_main(argv)
    assert (code, out) == (2, ""), err
    assert "Traceback" not in err


# a no-break, an em and an ideographic space, and the two ASCII blanks,
# vertical tab and form feed, that int() and float() take as padding
OTHER_BLANKS = ["\u00a0", "\u2003", "\u3000", "\v", "\f"]
BLANK_IDS = ["nbsp", "em", "ideographic", "vt", "ff"]
CERT = certificate(close(universal_generators(4)), BasisLabel(0b1111, 4)).to_text()
STEP = "step e[0,1,2,3] := [e[3], e[0,1,2]] * -i*2^1"
assert STEP in CERT


def step_with(old, new):
    # the certificate with one separator of its step line rewritten
    return Certificate.from_text(CERT.replace(STEP, STEP.replace(old, new)))


# each reader with the blank b where an ASCII space or tab reads the same
BLANK_LIBRARY = {
    "element padding": lambda b: parse_element(f"{b}-i*2^1*e[0,3]{b}", 4),
    "scalar padding": lambda b: parse_scalar(f"{b}-i*2^1{b}"),
    "certificate line padding": lambda b: Certificate.from_text(
        CERT.replace("target", f"{b}target").replace("\nscalar -i*2^1", f"\nscalar -i*2^1{b}")
    ),
    "certificate step labels": lambda b: Certificate.from_text(
        CERT.replace(STEP, f"step e[0,1,2,3]{b} := [e[3], {b}e[0,1,2]] * -i*2^1")
    ),
    "certificate ambient": lambda b: Certificate.from_text(CERT.replace("ambient 4", f"ambient {b}4")),
    "certificate record kind": lambda b: Certificate.from_text(
        "".join(line.replace(" ", b, 1) for line in CERT.splitlines(True))
    ),
    "certificate before :=": lambda b: step_with(" :=", f"{b}:="),
    "certificate after :=": lambda b: step_with(":= ", f":={b}"),
    "certificate before *": lambda b: step_with("] *", f"]{b}*"),
    "certificate after *": lambda b: step_with("* -", f"*{b}-"),
    "certificate after the comma": lambda b: step_with(", ", f",{b}"),
    "matrix separator": lambda b: parse_matrix(f"1,0{b}0,0\n0,0{b}{b}1,0\n"),
    "matrix padding": lambda b: parse_matrix(f"{b}1,0 0,0{b}\n0,0 1,0\n{b}\n"),
}


@pytest.mark.parametrize("blank", OTHER_BLANKS, ids=BLANK_IDS)
@pytest.mark.parametrize("entry", list(BLANK_LIBRARY))
def test_library_readers_refuse_other_blanks(entry, blank):
    with pytest.raises(ParseError):
        BLANK_LIBRARY[entry](blank)


@pytest.mark.parametrize("blank", ["\t", " \t "], ids=["tab", "mixed"])
@pytest.mark.parametrize("entry", list(BLANK_LIBRARY))
def test_library_readers_take_ascii_blanks(entry, blank):
    got, want = BLANK_LIBRARY[entry](blank), BLANK_LIBRARY[entry](" ")
    assert np.array_equal(got, want) if "matrix" in entry else got == want


@pytest.mark.parametrize("blank", ["\t", " \t "], ids=["tab", "mixed"])
@pytest.mark.parametrize("stock", [universal_generators, chain_generators])
def test_certificates_read_alike_whatever_blanks_separate_their_words(stock, blank):
    for m in range(3, 9):
        result = close(stock(m))
        for label in result.labels():
            cert = certificate(result, label)
            assert Certificate.from_text(cert.to_text().replace(" ", blank)) == cert


def test_lines_end_at_lf_cr_lf_and_cr_only():
    for end in ("\n", "\r\n", "\r"):
        assert Certificate.from_text(CERT.replace("\n", end)).to_text() == CERT
        assert (parse_matrix(f"1,0 0,0{end}0,0 1,0{end}") == np.eye(2)).all()
    for end in ("\u2028", "\x85", "\x0c"):
        with pytest.raises(ParseError):
            parse_matrix(f"1,0 0,0{end}0,0 1,0\n")
        with pytest.raises(ParseError):
            Certificate.from_text(CERT.replace("\n", end))


# {bad} names a matrix file with the blank between or around its entries
CLI_BLANKS = [
    "closure -m 4 {b}e[0] e[1]",
    "closure -m 4 e[0] e[1]{b}",
    "certify -m 4 --target e[0,1] e[0] {b}e[1]",
    "certify -m 4 --target {b}e[0,1] e[0] e[1]",
    "synth -n 1 -N 1 -i {between}",
    "synth -n 1 -N 1 -i {around}",
    "verify-rep -n {b}2",
    "power --angle {b}pi/2 --eps 0.1",
]


@pytest.mark.parametrize("blank", OTHER_BLANKS, ids=BLANK_IDS)
@pytest.mark.parametrize("template", CLI_BLANKS)
def test_every_file_and_flag_refuses_other_blanks(template, blank, tmp_path):
    between, around = tmp_path / "between.mat", tmp_path / "around.mat"
    between.write_text(f"1,0{blank}0,0\n0,0 1,0\n")
    around.write_text(f"{blank}1,0 0,0\n0,0 1,0{blank}\n")
    argv = [w.format(b=blank, between=between, around=around) for w in template.split(" ")]
    code, out, err = run_main(argv)
    assert (code, out) == (2, ""), err
    assert "Traceback" not in err


# every number flag, with {b} around its value
CLI_NUMBER_PADDING = [
    "closure -m {b}4{b} e[0] e[1]",
    "closure -m 4 --cap {b}4 e[0] e[1]",
    "certify -m 4 --target e[0,1] --cap 4{b} e[0] e[1]",
    "verify-rep -n {b}1 --seed {b}3",
    "gateset -n {b}2",
    "synth -n {b}1 -N {b}2{b} -i {good}",
    "power --angle {b}pi/2{b} --eps {b}0.1",
    "power --angle 1.5{b} --eps 0.1{b} --cap {b}1000",
]


def run_padded(template, blank, tmp_path):
    good = tmp_path / "good.mat"
    good.write_text("1,0 0,0\n0,0 1,0\n")
    return run_main([w.format(b=blank, good=good) for w in template.split(" ")])


@pytest.mark.parametrize("blank", [" ", "\t", "\r", "\n"], ids=["space", "tab", "cr", "lf"])
@pytest.mark.parametrize("template", CLI_NUMBER_PADDING)
def test_every_number_flag_reads_ascii_padding(template, blank, tmp_path):
    code, out, err = run_padded(template, blank, tmp_path)
    assert (code, out, err) == run_padded(template, "", tmp_path)
    assert code == 0, err


@pytest.mark.parametrize("blank", OTHER_BLANKS, ids=BLANK_IDS)
@pytest.mark.parametrize("template", CLI_NUMBER_PADDING)
def test_every_number_flag_refuses_other_padding(template, blank, tmp_path):
    code, out, err = run_padded(template, blank, tmp_path)
    assert (code, out) == (2, ""), err
    assert "Traceback" not in err


# the ASCII texts int() and float() read, and near misses
ASCII = st.characters(max_codepoint=127, exclude_characters="_")
FLOAT_TEXTS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats().map(lambda x: "%.17g" % x),
    st.sampled_from(["inf", "-inf", "+Infinity", "nan", "-nan", "+.5", "-.5e-3", "1e5", "1E+5",
                     "1.", "0x10", "1e", "--1", "", " ", "1 2", "e5", "pi"]),
    st.text(st.sampled_from("0123456789+-.eEinfa \t\n"), max_size=8),
)
INT_TEXTS = st.one_of(
    st.integers().map(str),
    st.integers().map(lambda k: f"+{k}" if k >= 0 else str(k)),
    st.sampled_from(["007", "-0", "+", "1.0", "1e3", "0x10", "", " "]),
    st.text(st.sampled_from("0123456789+- \t\n"), max_size=8),
)
PADDING = st.text(st.sampled_from(" \t\n\r\f\v"), max_size=3)


def same_value(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize(
    "kind, texts",
    [(float, FLOAT_TEXTS), (int, INT_TEXTS), (float, st.text(ASCII)), (int, st.text(ASCII))],
    ids=["float", "int", "float-any-ascii", "int-any-ascii"],
)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_ascii_text_reads_as_int_and_float_read_it(kind, texts, data):
    text = data.draw(PADDING) + data.draw(texts) + data.draw(PADDING)
    refused = "\v" in text or "\f" in text  # padding to int() and float(), not a blank here
    try:
        want = kind(text)
    except ValueError:
        refused = True
    if refused:
        with pytest.raises(ParseError):
            _parse_number(text, kind, "number")
    else:
        got = _parse_number(text, kind, "number")
        assert type(got) is kind and same_value(got, want)


@settings(max_examples=200, deadline=None)
@given(
    st.text(ASCII, max_size=4),
    # Arabic-Indic, Devanagari and fullwidth digits, a superscript two, an em space
    st.sampled_from(["\u0661", "\u0969", "\uff11", "\u00b2", "\u2003", "_"]),
    st.text(ASCII, max_size=4),
    st.sampled_from([int, float]),
)
def test_other_text_is_a_parse_error_at_its_column(head, odd, tail, kind):
    with pytest.raises(ParseError) as err:
        _parse_number(head + odd + tail, kind, "number", 7)
    assert err.value.column == 7


def test_int_past_its_digit_limit_is_a_parse_error():
    with pytest.raises(ParseError, match="of 5000 digits is too long"):
        _parse_number("1" * 5000, int, "exponent")
    assert _parse_number("1" * 4300, int, "exponent") == int("1" * 4300)


# "too long" is the message of an int alone, and of nothing but a sign and
# digits; the count is of the digits
@pytest.mark.parametrize(
    "text, digits",
    [(" " + "1" * 5000, 5000), ("7" * 4301 + "\t", 4301), ("-" + "1" * 4301, 4301),
     ("\r\n+" + "9" * 4302, 4302)],
    ids=["blank-before", "tab-after", "minus", "crlf-plus"],
)
def test_only_an_int_counts_its_digits_against_the_limit(text, digits):
    with pytest.raises(ParseError) as err:
        _parse_number(text, int, "exponent", 4)
    assert (str(err.value), err.value.column) == (f"exponent of {digits} digits is too long", 4)
    assert _parse_number(text, float, "exponent") == float(text)


@pytest.mark.parametrize("text", ["--5", "+-3", "-+12"])
@pytest.mark.parametrize("kind", [int, float])
def test_two_signs_are_a_bad_number(text, kind):
    with pytest.raises(ParseError) as err:
        _parse_number(text, kind, "number", 4)
    assert (str(err.value), err.value.column) == (f"bad number {text!r}", 4)


def test_an_ambient_with_two_signs_is_a_bad_ambient():
    with pytest.raises(ParseError) as err:
        Certificate.from_text("ambient --5\ntarget e[0]\ngenerator e[0]\nscalar 1\n")
    assert str(err.value) == "line 1: bad ambient '--5'"


# Source rules that keep each decision in one module: ``\d`` matches every
# Unicode decimal digit, argparse's ``type=int`` reads them too, and a
# reader that spells its own blanks or exponent drifts from ``algebra``'s.

STR_READERS = {"split", "rsplit", "partition", "rpartition", "strip", "lstrip", "rstrip",
               "startswith", "endswith", "removeprefix", "removesuffix"}


def reader_literals(tree):
    # ("re.<function>", pattern) for every regex call and (method, argument) for
    # every str reader method call; an f-string gives its literal parts
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        if isinstance(func.value, ast.Name) and func.value.id == "re":
            callee, args = f"re.{func.attr}", node.args[:1]
        elif func.attr in STR_READERS:
            callee, args = func.attr, node.args
        else:
            continue
        for arg in args:
            for part in arg.values if isinstance(arg, ast.JoinedStr) else [arg]:
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    yield callee, part.value


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_regex_matches_unicode_digits(path):
    tree = ast.parse(path.read_text())
    patterns = [p for callee, p in reader_literals(tree) if callee.startswith("re.")]
    assert [p for p in patterns if re.search(r"\\d", p)] == []


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "algebra.py"), ids=lambda p: p.name
)
def test_only_algebra_spells_a_separator(path):
    # writers (" ".join, f-strings) may hold blanks; readers split on algebra's
    tree = ast.parse(path.read_text())
    spelled = [(callee, text) for callee, text in reader_literals(tree) if set(text) & set(" \t\r\n")]
    assert spelled == []


def test_one_regex_spells_the_exponent():
    # the head [-|i*|-i*][2^p] of element and scalar text has one reader
    spelled = [
        (path.name, text)
        for path in sorted(SRC.glob("*.py"))
        for callee, text in reader_literals(ast.parse(path.read_text()))
        if (r"2\^" if callee.startswith("re.") else "2^") in text
    ]
    assert [name for name, _ in spelled] == ["algebra.py"], spelled


def test_no_flag_reads_numbers_with_the_builtins():
    tree = ast.parse((SRC / "cli.py").read_text())
    builtin_types = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.keyword)
        and node.arg == "type"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("int", "float")
    ]
    assert builtin_types == []

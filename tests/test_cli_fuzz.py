"""Fuzz the command line: every argv ends in a documented exit code.

Each subcommand gets argv drawn from valid values mixed with malformed
elements, non-finite or zero-denominator numbers and negative or zero
sizes, in both output formats.  ``--seed`` (negative ones too) is drawn
only for ``verify-rep``, the one subcommand that declares it; a second
test adds a flag the subcommand does not declare and expects exit 2.
Drawn sizes stay small (ambient <= 10, qubits <= 3), except where a cap
bounds the run:

- ``closure`` and ``certify`` also draw, about one time in ten, the stock
  universal set at any ambient up to 64 or at 70.  Its closure has 2^m
  labels, so it is the label cap (``--cap`` of both, default 2^16) that
  bounds such a call: about a second at ambient 64, ending in exit 5.
  ``certify`` also draws ambients 65..70 and 10^7, which it refuses
  (exit 5) before parsing.
- ``power`` draws its default cap of 10^9 applications as often as a cap
  up to 10^5, with tolerances down to 1e-12; the convergent walk settles
  even an exhausted search at once.
- ``synth`` draws, about one time in ten, 10^7, 10^9 or 10^12 steps,
  which the gate budget refuses (exit 5) before any gate is built.  Among
  its bad input files are one a byte past the input budget of the largest
  drawn qubit count (exit 5 before parsing) and one that is not UTF-8.

Among the bad elements are 5000-digit exponents and indices, past the
4300 digits that ``int()`` reads.  Among the bad numbers, elements and
files are an Arabic-Indic digit, a fullwidth digit and ``1_0``, which
``int()`` and ``float()`` read but the number grammar refuses.  A targeted
test pins the exact exit of these oversized, undecodable and non-ASCII
inputs.
"""

import contextlib
import io
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffgate import format_matrix
from cliffgate.cli import main

DOCUMENTED_EXITS = {0, 2, 3, 4, 5}

BAD_NUMBERS = ["nan", "inf", "-inf", "1e999", "pi/0", "-2*pi/0", "x", "", "\u0661", "\uff11", "1_0"]
ELEMENTS = ["e[0]", "e[1]", "e[2]", "e[3]", "i*e[0,1]", "i*e[0,1,2]", "-i*2^1*e[1,2,3]", "e[]", "0"]
LONG_DIGITS = "1" * 5000
BAD_ELEMENTS = [
    "e[0", "e[1,0]", "x", "e[99]", "e[0,0]", "i*", "2^x*e[0]", "",
    f"2^{LONG_DIGITS}*e[0]", f"e[{LONG_DIGITS}]", "2^\u0661*e[0]", "e[\uff11]", "2^1_0*e[0]",
]


def _mostly(good, bad):
    # a draw from ``bad`` about one time in ten (not at an end of the range,
    # which the search favours)
    return st.integers(0, 9).flatmap(lambda k: bad if k == 5 else good)


def _number(low, high):
    return _mostly(st.integers(low, high).map(str), st.sampled_from(BAD_NUMBERS))


def _given(name, values):
    # a flag with its value, in separate or name=value form
    return st.tuples(values, st.booleans()).map(
        lambda v: [f"{name}={v[0]}"] if v[1] else [name, v[0]]
    )


def _flag(name, values):
    # an optional flag
    return st.one_of(st.just([]), _given(name, values))


REALS = _mostly(
    st.sampled_from(["1e-10", "1e-6", "0.5", "1e-300"]),
    st.one_of(
        st.sampled_from(
            ["0", "-1", "1e999", "nan", "inf", "-inf", "tiny", "", "\u0661.\u0665", "1_0"]
        ),
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
    ),
)
FORMAT = _flag("--format", _mostly(st.sampled_from(["human", "records"]), st.just("xml")))
SEED = _flag("--seed", _number(-3, 99))
GENERATORS = st.lists(
    _mostly(st.sampled_from(ELEMENTS), st.sampled_from(BAD_ELEMENTS)), min_size=1, max_size=6
).map(lambda g: ["--", *g])
LABELS = _mostly(
    st.sampled_from(["e[0,1]", "e[0,1,2,3]", "e[]", "e[0,1,2]", "e[1,3]"]),
    st.sampled_from(["e[9]", "e[0", "e[1,0]", "x", "i*e[0,1]"]),
)


def stock_universal(m):
    """The stock universal set (``universal_generators``) as argv."""
    return ["-m", str(m), "--", *(f"e[{k}]" for k in range(m)), "i*e[0,1,2]"]


STOCK = st.one_of(st.integers(3, 64), st.just(70)).map(stock_universal)
# ambients above the symbolic cap of 64, each generator at the top index
CERTIFY_AMBIENT_ABOVE_CAP = st.one_of(st.integers(65, 70), st.just(10**7)).map(
    lambda m: ["-m", str(m), "--", "e[0]", "e[1]", f"e[{m - 1}]"]
)


def closure_argv():
    small = st.tuples(
        st.just(["closure"]),
        _given("-m", _number(-2, 10)),
        _flag("--cap", _number(-1, 10)),
        FORMAT,
        GENERATORS,
    )
    stock = st.tuples(st.just(["closure"]), _flag("--cap", _number(-1, 5000)), FORMAT, STOCK)
    return _mostly(small, stock)


def certify_argv():
    small = st.tuples(
        st.just(["certify"]),
        _given("-m", _number(-2, 10)),
        _given("--target", LABELS),
        _flag("--cap", _number(-1, 20)),
        FORMAT,
        GENERATORS,
    )
    stock = st.tuples(st.just(["certify"]), _given("--target", LABELS), FORMAT, STOCK)
    wide = st.tuples(
        st.just(["certify"]), _given("--target", LABELS), FORMAT, CERTIFY_AMBIENT_ABOVE_CAP
    )
    return _mostly(small, st.one_of(stock, wide))


def qubits_argv(command, cap_high, *flags):
    return st.tuples(
        st.just([command]),
        _given("-n", _number(-2, 3)),
        _flag("--cap", _number(-1, cap_high)),
        FORMAT,
        *flags,
    )


BAD_FILES = [
    "nonhermitian.mat", "bad.mat", "nan.mat", "empty.mat", "text.mat", "missing.mat",
    "oversized.mat", "latin1.mat", "arabic.mat", "underscore.mat",
]
# the synth input budget at the largest drawn qubit count, 3: 64 bytes per entry
BUDGET_AT_THREE_QUBITS = 64 * 4**3


def synth_argv():
    return st.tuples(
        st.just(["synth"]),
        _given("-n", _number(-2, 3)),
        _given("-N", _mostly(_number(-2, 6), st.sampled_from([str(10**k) for k in (7, 9, 12)]))),
        _given("-i", _mostly(st.sampled_from(["h1.mat", "h2.mat"]), st.sampled_from(BAD_FILES))),
        _flag("-o", st.sampled_from(["seq.txt", "."])),
        _flag("--cap", _number(-1, 3)),
        FORMAT,
    )


def power_argv():
    angles = st.one_of(
        st.sampled_from(["pi/2", "2*pi/3", "-pi/7", "0.6435011087932844", "0", *BAD_NUMBERS]),
        REALS,
    )
    return st.tuples(
        st.just(["power"]),
        _given("--angle", angles),
        _given(
            "--eps", st.one_of(st.sampled_from(["0.1", "1e-3", "1e-6", "1e-9", "1e-12"]), REALS)
        ),
        _flag("--cap", st.integers(-1, 10**5).map(str)),
        FORMAT,
    )


ARGV = {
    "closure": closure_argv(),
    "certify": certify_argv(),
    "verify-rep": qubits_argv("verify-rep", 3, SEED),
    "gateset": qubits_argv("gateset", 100),  # labels: 3 qubits close to 64
    "synth": synth_argv(),
    "power": power_argv(),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    for n in (1, 2):
        a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        (path / f"h{n}.mat").write_text(format_matrix((a + a.conj().T) / 2))
    (path / "nonhermitian.mat").write_text(format_matrix(np.array([[1, 2], [0, 1]])))
    (path / "bad.mat").write_text("1,0 0,x\n0,0 1,0\n")
    (path / "nan.mat").write_text("nan,0 0,0\n0,0 inf,0\n")
    (path / "empty.mat").write_text("")
    (path / "text.mat").write_text("e[0] e[1]\n")
    (path / "oversized.mat").write_text(" " * (BUDGET_AT_THREE_QUBITS + 1))
    (path / "latin1.mat").write_bytes("1,0 0,0\n0,0 1,0 \u00e9\n".encode("latin-1"))
    (path / "arabic.mat").write_text("\u0661,0 0,0\n0,0 \u0661,0\n")
    (path / "underscore.mat").write_text("1_0,0 0,0\n0,0 1,0\n")
    return path


def run_main(argv, cwd):
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    os.chdir(cwd)  # the matrix files are named relative to the work directory
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        os.chdir(home)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", list(ARGV))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_argv_ends_in_a_documented_exit(command, data, workdir):
    parts = data.draw(ARGV[command])
    argv = [tok for part in parts for tok in part]
    code, _, err = run_main(argv, workdir)
    assert code in DOCUMENTED_EXITS, (argv, code, err)
    assert "Traceback" not in err, (argv, err)


# flags that other subcommands declare and this one does not
UNDECLARED = {
    "closure": ["--tolerance", "--seed", "--target", "--eps"],
    "certify": ["--tolerance", "--seed", "--eps", "--angle"],
    "verify-rep": ["--tolerance", "-m", "--target", "-N"],
    "gateset": ["--tolerance", "--seed", "-m"],
    "synth": ["--tolerance", "--seed", "--eps", "--target"],
    "power": ["--tolerance", "--seed", "-n"],
}


@pytest.mark.parametrize("command", list(ARGV))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_an_undeclared_flag_is_a_usage_error(command, data, workdir):
    _, *rest = data.draw(ARGV[command])
    values = st.sampled_from(["1", "1e-3", "nan", "e[0]"])
    flag = data.draw(st.sampled_from(UNDECLARED[command]))
    undeclared = data.draw(_given(flag, values))
    argv = [command, *undeclared, *(tok for part in rest for tok in part)]
    code, out, err = run_main(argv, workdir)
    assert (code, out) == (2, ""), (argv, code, err)
    assert "Traceback" not in err, (argv, err)


@pytest.mark.parametrize("cap, code", [("4096", 0), ("4095", 5)])
def test_closure_label_cap_counts_every_label(cap, code, tmp_path):
    # the universal closure over 12 generators has exactly 2^12 labels,
    # the vacuous unit included
    code_seen, out, err = run_main(["closure", "--cap", cap, *stock_universal(12)], tmp_path)
    assert code_seen == code, err
    if code:
        assert (out, err) == ("", "cap exceeded: the closure has more than 4095 labels\n")
    else:
        assert "dim=4096 universal=true" in out


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["synth", "-n", "3", "-N", "1", "-i", "oversized.mat"], 5, "cap exceeded: "),
        (["synth", "-n", "1", "-N", "1", "-i", "latin1.mat"], 2, "parse error: "),
        (["closure", "-m", "4", f"2^{LONG_DIGITS}*e[0]", "e[1]"], 2, "parse error: "),
        (["closure", "-m", "4", f"e[{LONG_DIGITS}]", "e[1]"], 2, "parse error: "),
        (["synth", "-n", "1", "-N", "1", "-i", "arabic.mat"], 2, "parse error: "),
        (["synth", "-n", "1", "-N", "1", "-i", "underscore.mat"], 2, "parse error: "),
        (["power", "--angle", "pi/\u0662", "--eps", "0.1"], 2, "parse error: "),
        (["closure", "-m", "\u0664", "e[0]", "e[1]"], 2, "usage: "),
    ],
)
def test_oversized_and_undecodable_inputs_exit_exactly(argv, code, message, workdir):
    code_seen, out, err = run_main(argv, workdir)
    assert (code_seen, out) == (code, ""), err
    assert err.startswith(message)

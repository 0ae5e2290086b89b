import argparse
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cliffgate import BasisLabel, cli, format_matrix, hermitize, parse_label, represent
from cliffgate.cli import (
    EXIT_CAP,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    EXIT_VERIFY,
    _build_parser,
    main,
)
from cliffgate.matrices import expm_hermitian, random_hermitian
from cliffgate.pauli import ReplayReport
from cliffgate.synthesis import Gate, GateSequence, operator_distance
from conftest import label, run_limited


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClosureCommand:
    def test_generators_only(self, capsys):
        code, out, _ = run(capsys, "closure", "-m", "4", "e[0]", "e[1]", "e[2]", "e[3]")
        assert code == EXIT_OK
        assert "dim=10 universal=false" in out

    def test_with_order3_extra(self, capsys):
        code, out, _ = run(
            capsys, "closure", "-m", "4", "e[0]", "e[1]", "e[2]", "e[3]", "i*e[0,1,2]"
        )
        assert code == EXIT_OK
        assert "dim=16 universal=true" in out

    def test_records_mode_lists_labels(self, capsys):
        code, out, _ = run(
            capsys, "closure", "-m", "2", "--format", "records", "e[0]", "e[1]"
        )
        assert code == EXIT_OK
        assert "closure ambient=2 generators=2 dim=3 universal=true" in out
        assert "label e[0,1]" in out

    def test_every_reached_label_is_listed(self, capsys):
        gens = [f"e[{k}]" for k in range(12)] + ["i*e[0,1,2]"]
        code, out, err = run(capsys, "closure", "-m", "12", *gens)
        head, *lines = out.splitlines()
        assert (code, head, err) == (
            EXIT_OK, "closure ambient=12 generators=13 dim=4096 universal=true", ""
        )
        canonical = sorted(range(1 << 12), key=lambda mask: (mask.bit_count(), mask))
        assert lines == [f"label {BasisLabel(mask, 12)}" for mask in canonical]

    def test_empty_generator_list_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["closure", "-m", "4"])
        assert err.value.code == EXIT_PARSE

    def test_parse_error_names_column(self, capsys):
        code, out, err = run(capsys, "closure", "-m", "4", "e[0", "e[1]")
        assert code == EXIT_PARSE
        assert "column" in err

    @pytest.mark.parametrize(
        "word", [f"2^{'1' * 5000}*e[0]", f"e[{'1' * 5000}]", "2^\u0661*e[0]"]
    )
    def test_unreadable_digits_are_parse_errors(self, capsys, word):
        code, out, err = run(capsys, "closure", "-m", "4", word, "e[1]")
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith("parse error: generator 1: column ")

    def test_odd_ambient_reports_unsupported(self, capsys):
        code, out, _ = run(capsys, "closure", "-m", "3", "e[0]", "e[1]", "e[2]")
        assert code == EXIT_OK
        assert "universal=unsupported" in out

    def test_ambient_cap(self, capsys):
        gens = [f"e[{k}]" for k in range(4)]
        code, _, err = run(capsys, "closure", "-m", "4", "--cap", "3", *gens)
        assert code == EXIT_CAP
        assert "cap" in err

    def test_records_are_byte_deterministic(self, capsys):
        argv = ["closure", "-m", "4", "--format", "records",
                "e[0]", "e[1]", "e[2]", "e[3]", "i*e[0,1,2]"]
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second

    def test_leading_minus_generator_after_the_separator(self, capsys):
        # -e[0] spans the same algebra as e[0]; after -- argparse reads it as a word
        plain = run(capsys, "closure", "--format", "records", "-m", "2", "e[0]", "e[1]")
        signed = run(capsys, "closure", "--format", "records", "-m", "2", "--", "-e[0]", "e[1]")
        assert signed == plain and plain[0] == EXIT_OK

    @pytest.mark.parametrize("word", ["-e[0]", "-i*e[0]"])
    def test_leading_minus_generator_without_the_separator_is_usage_error(self, capsys, word):
        with pytest.raises(SystemExit) as err:
            main(["closure", "-m", "2", word, "e[1]"])
        assert err.value.code == EXIT_PARSE
        assert f"unrecognized arguments: {word}" in capsys.readouterr().err


class TestCertifyCommand:
    GENS = ["e[0]", "e[1]", "e[2]", "e[3]", "i*e[0,1,2]"]

    def test_one_step_certificate(self, capsys):
        code, out, _ = run(capsys, "certify", "-m", "4", "--target", "e[0,1]", *self.GENS)
        assert code == EXIT_OK
        assert "step e[0,1] := [e[0], e[1]] * 2^1" in out
        assert "replay" in out

    def test_multi_step_certificate(self, capsys):
        code, out, _ = run(
            capsys, "certify", "-m", "4", "--target", "e[0,1,2,3]", *self.GENS
        )
        assert code == EXIT_OK
        assert out.count("step ") >= 1
        assert "scalar" in out

    @pytest.mark.parametrize("fmt", ["human", "records"])
    def test_generator_order_changes_no_byte(self, capsys, fmt):
        argv = ["certify", "-m", "4", "--format", fmt, "--target", "e[0,1,2,3]"]
        assert run(capsys, *argv, *reversed(self.GENS)) == run(capsys, *argv, *self.GENS)

    def test_unreachable_target(self, capsys):
        code, _, err = run(
            capsys, "certify", "-m", "4", "--target", "e[0,1,2]",
            "e[0]", "e[1]", "e[2]", "e[3]",
        )
        assert code == EXIT_PRECONDITION
        assert "dimension 10" in err

    def test_odd_ambient_skips_replay(self, capsys):
        code, out, _ = run(
            capsys, "certify", "-m", "5", "--target", "e[0,1]",
            "e[0]", "e[1]", "e[2]", "e[3]", "e[4]", "i*e[0,1,2]",
        )
        assert code == EXIT_OK
        assert "skipped" in out

    @pytest.mark.parametrize("cap, code", [("15", EXIT_CAP), ("16", EXIT_OK)])
    def test_cap_bounds_the_closure_labels(self, capsys, cap, code):
        # the universal set at m = 4 closes to 16 labels
        got, out, err = run(
            capsys, "certify", "-m", "4", "--cap", cap, "--target", "e[0,1]", *self.GENS
        )
        assert got == code
        if code == EXIT_CAP:
            assert out == ""
            assert err == "cap exceeded: the closure has more than 15 labels\n"
        else:
            assert "replay deviation=0 " in out

    def test_replays_at_every_even_ambient(self, capsys):
        gens = [f"e[{k}]" for k in range(14)] + ["i*e[0,1,2]"]
        code, out, _ = run(
            capsys, "certify", "-m", "14", "--format", "records",
            "--target", "e[0,1,2,3,4,5,6,7,8,9,10,11,12,13]", *gens,
        )
        assert code == EXIT_OK
        assert re.search(r"^replay deviation=0 steps=\d+ ok=true$", out, re.M)

    def test_ok_needs_an_exact_replay(self, capsys, monkeypatch):
        # a deviation of 2^-40 is a wrong certificate, not rounding noise
        monkeypatch.setattr(
            cli, "replay_certificate", lambda cert: ReplayReport(2.0**-40, len(cert.steps))
        )
        code, out, _ = run(
            capsys, "certify", "-m", "4", "--target", "e[0,1,2,3]", *self.GENS
        )
        assert code == EXIT_VERIFY
        assert out.endswith("replay deviation=9.09495e-13 steps=1 ok=false\n")

    def test_leading_minus_generator_after_the_separator(self, capsys):
        code, out, err = run(
            capsys, "certify", "-m", "2", "--target", "e[0,1]", "--", "-e[0]", "e[1]"
        )
        assert (code, err) == (EXIT_OK, "")
        assert "generator -e[0]\n" in out
        assert out.endswith(" ok=true\n")

    def test_leading_minus_generator_without_the_separator_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["certify", "-m", "2", "--target", "e[0,1]", "-e[0]", "e[1]"])
        assert err.value.code == EXIT_PARSE
        assert "unrecognized arguments: -e[0]" in capsys.readouterr().err

    def test_ambient_above_the_symbolic_cap(self, capsys):
        # refused before the generators are parsed: a label mask is an int
        # as wide as its highest index
        code, out, err = run(
            capsys, "certify", "-m", "20000000", "--target", "e[0,1]",
            "e[0]", "e[1]", "e[19999999]",
        )
        assert (code, out) == (EXIT_CAP, "")
        assert err == "cap exceeded: ambient 20000000 exceeds the symbolic cap 64\n"


class TestVerifyRepCommand:
    @pytest.mark.parametrize("n", ["1", "3"])
    def test_passes(self, capsys, n):
        code, out, _ = run(capsys, "verify-rep", "-n", n)
        assert code == EXIT_OK
        assert "clifford-relations" in out
        assert "status=fail" not in out

    def test_cap_error(self, capsys):
        code, _, err = run(capsys, "verify-rep", "-n", "20")
        assert code == EXIT_CAP
        assert "cap" in err

    def test_records_deterministic(self, capsys):
        argv = ["verify-rep", "-n", "2", "--format", "records", "--seed", "3"]
        assert run(capsys, *argv) == run(capsys, *argv)

    def test_round_trip_bound_is_fixed(self, capsys):
        code, out, _ = run(capsys, "verify-rep", "-n", "2")
        assert code == EXIT_OK
        assert re.search(r"^check name=decompose-roundtrip deviation=\S+ tolerance=1e-10 "
                         r"status=pass$", out, re.M)

    @pytest.mark.parametrize("seed", ["-1", "-3"])
    def test_negative_seed_is_usage_error(self, capsys, seed):
        # refused before the qubit cap is looked at
        assert run(capsys, "verify-rep", "-n", "9", "--seed", seed) == (
            EXIT_PARSE, "", f"error: --seed must be non-negative, got {seed}\n"
        )


class TestGatesetCommand:
    def test_two_qubits(self, capsys):
        code, out, _ = run(capsys, "gateset", "-n", "2")
        assert code == EXIT_OK
        assert out.count("local") >= 5
        assert "dim=16" in out and "universal=true" in out

    def test_three_qubits_has_seven_elements(self, capsys):
        code, out, _ = run(capsys, "gateset", "-n", "3", "--format", "records")
        assert code == EXIT_OK
        assert out.count("element ") == 7

    def test_single_qubit_rejected(self, capsys):
        code, _, err = run(capsys, "gateset", "-n", "1")
        assert code == EXIT_PRECONDITION

    @pytest.mark.parametrize(
        "argv",
        [["-n", "40"], ["-n", "3", "--cap", "2"], ["-n", "33"], ["-n", "4", "--cap", "255"]],
    )
    def test_cap_error(self, capsys, argv):
        code, out, err = run(capsys, "gateset", *argv)
        assert code == EXIT_CAP
        assert "cap" in err
        assert out == ""

    def test_seven_qubits_fit_the_label_budget(self, capsys):
        code, out, _ = run(capsys, "gateset", "-n", "7", "--format", "records")
        assert code == EXIT_OK
        assert out.endswith("gateset qubits=7 count=15 dim=16384 universal=true local=true\n")


class TestSynthCommand:
    def test_single_basis_target(self, capsys, tmp_path):
        h = represent(hermitize(label([0, 1, 2], 4)))
        infile = tmp_path / "h.mat"
        outfile = tmp_path / "seq.txt"
        infile.write_text(format_matrix(h))
        code, out, _ = run(
            capsys, "synth", "-n", "2", "-N", "1",
            "-i", str(infile), "-o", str(outfile), "--format", "records",
        )
        assert code == EXIT_OK
        text = outfile.read_text()
        assert text.startswith("gate e[0,1,2] ")
        assert "error" in text
        assert "gates=1" in out

    def test_zero_matrix_gives_identity(self, capsys, tmp_path):
        infile = tmp_path / "zero.mat"
        infile.write_text(format_matrix(np.zeros((4, 4))))
        code, out, _ = run(capsys, "synth", "-n", "2", "-N", "4", "-i", str(infile))
        assert code == EXIT_OK

    def test_error_decreases_with_steps(self, capsys, tmp_path):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (a + a.conj().T) / 2
        infile = tmp_path / "h.mat"
        infile.write_text(format_matrix(h))

        def error_at(steps):
            code, out, _ = run(
                capsys, "synth", "-n", "2", "-N", str(steps),
                "-i", str(infile), "-o", str(tmp_path / "s.txt"), "--format", "records",
            )
            assert code == EXIT_OK
            return float(out.split("error=")[1].split()[0])

        assert error_at(32) < error_at(8)

    def test_output_file_round_trips_through_the_block_power(self, capsys, tmp_path):
        h = random_hermitian(2, np.random.default_rng(2003))
        infile, outfile = tmp_path / "h.mat", tmp_path / "seq.txt"
        infile.write_text(format_matrix(h))
        code, out, _ = run(
            capsys, "synth", "-n", "2", "-N", "8",
            "-i", str(infile), "-o", str(outfile), "--format", "records",
        )
        assert code == EXIT_OK and "gates=128" in out
        text = outfile.read_text()
        *gate_lines, error_line = text.splitlines()
        assert gate_lines == gate_lines[:16] * 8
        assert all(line.startswith("gate ") for line in gate_lines)
        assert error_line.startswith("error ")
        # each line is "gate <label> <angle>"
        words = [line.split(" ") for line in gate_lines]
        seq = GateSequence(tuple(Gate(parse_label(lab, 4), float(t)) for _, lab, t in words), 2)
        measured = operator_distance(seq.matrix(), expm_hermitian(h, 1.0))
        assert abs(measured - float(error_line.split(" ")[1])) < 1e-12

    def test_non_hermitian_rejected_with_deviation(self, capsys, tmp_path):
        infile = tmp_path / "bad.mat"
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        infile.write_text(format_matrix(bad))
        code, _, err = run(capsys, "synth", "-n", "1", "-N", "1", "-i", str(infile))
        assert code == EXIT_PRECONDITION
        assert "defect" in err

    @pytest.mark.parametrize("qubits", ["-1", "0"])
    @pytest.mark.parametrize("size", [1, 2])
    def test_qubit_count_below_one_is_a_precondition_failure(self, capsys, tmp_path, qubits, size):
        infile = tmp_path / "h.mat"
        infile.write_text(format_matrix(np.eye(size)))
        argv = ["synth", "-n", qubits, "-N", "1", "-i", str(infile)]
        assert run(capsys, *argv) == (EXIT_PRECONDITION, "", "error: qubit count must be >= 1\n")

    def test_non_finite_entry_rejected(self, capsys, tmp_path):
        infile = tmp_path / "nan.mat"
        infile.write_text("nan,0 0,0\n0,0 inf,0\n")
        code, out, err = run(capsys, "synth", "-n", "1", "-N", "1", "-i", str(infile))
        assert (code, out) == (EXIT_PRECONDITION, "")
        assert err == "error: matrix has a non-finite entry\n"

    def test_overflowing_entries_rejected(self, capsys, tmp_path):
        # finite entries whose sums overflow: numpy used to warn on stderr and
        # the run ended in "SVD did not converge"
        infile = tmp_path / "huge.mat"
        infile.write_text("1e308,0 1e308,0\n1e308,0 1e308,0\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "synth", "-n", "1", "-N", "1", "-i", str(infile))
        assert (code, out) == (EXIT_PRECONDITION, "")
        assert err.startswith("error: matrix entry of magnitude 1e+308 is too large")
        assert err.count("\n") == 1 and not caught, (err, [str(w.message) for w in caught])

    def test_gate_budget_refuses_before_building(self, capsys, tmp_path):
        # 10^9 gates would take 8 GB for the gate tuple alone
        infile = tmp_path / "z.mat"
        infile.write_text(format_matrix(represent(hermitize(label([0, 1], 2)))))
        outfile = tmp_path / "seq.txt"
        code, out, err = run(
            capsys, "synth", "-n", "1", "-N", "1000000000", "-i", str(infile), "-o", str(outfile)
        )
        assert (code, out) == (EXIT_CAP, "")
        assert err == (
            "cap exceeded: a product formula of 1000000000 gates exceeds the gate budget 1048576\n"
        )
        assert not outfile.exists()

    # the input budget is 64 bytes per matrix entry: 256 bytes at one qubit
    @pytest.mark.parametrize("size, code", [(256, EXIT_OK), (257, EXIT_CAP)])
    def test_input_byte_budget(self, capsys, tmp_path, size, code):
        text = format_matrix(represent(hermitize(label([0], 2))))
        infile = tmp_path / "h.mat"
        infile.write_text(text + " " * (size - len(text)))
        run_code, out, err = run(capsys, "synth", "-n", "1", "-N", "1", "-i", str(infile))
        assert run_code == code, err
        if code == EXIT_CAP:
            assert (out, err) == (
                "", f"cap exceeded: input {infile} exceeds 256 bytes, 64 per entry of a 2x2 matrix\n"
            )

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    def test_endless_input_stops_at_the_budget(self, capsys):
        code, out, err = run(capsys, "synth", "-n", "1", "-N", "1", "-i", "/dev/zero")
        assert (code, out) == (EXIT_CAP, "")
        assert "exceeds 256 bytes" in err

    def test_widest_entries_fit_the_budget_at_six_qubits(self, capsys, tmp_path):
        # every number written in 24 characters, the most a %.17g double takes
        h = random_hermitian(6, np.random.default_rng(6))
        rows = [" ".join(f"{v.real:+024.16e},{v.imag:+024.16e}" for v in row) for row in h]
        infile = tmp_path / "wide.mat"
        infile.write_text("\n".join(rows) + "\n")
        assert infile.stat().st_size == 4096 * 50
        code, out, err = run(capsys, "synth", "-n", "6", "-N", "1", "-i", str(infile))
        assert code == EXIT_OK, err
        assert "synth qubits=6 steps=1 gates=4096" in out

    def test_non_utf8_input_is_a_parse_error(self, capsys, tmp_path):
        infile = tmp_path / "latin1.mat"
        infile.write_bytes("1,0 0,0\n0,0 1,0 \u00e9\n".encode("latin-1"))
        code, out, err = run(capsys, "synth", "-n", "1", "-N", "1", "-i", str(infile))
        assert (code, out) == (EXIT_PARSE, "")
        assert err == f"parse error: input {infile} is not UTF-8 text (byte 16)\n"

    def test_dimension_mismatch(self, capsys, tmp_path):
        infile = tmp_path / "small.mat"
        infile.write_text(format_matrix(np.zeros((2, 2))))
        code, _, err = run(capsys, "synth", "-n", "2", "-N", "1", "-i", str(infile))
        assert code == EXIT_PRECONDITION


class TestPowerCommand:
    def test_quarter_turn(self, capsys):
        code, out, _ = run(capsys, "power", "--angle", "pi/2", "--eps", "0.1")
        assert code == EXIT_OK
        assert "N=4" in out

    def test_float_angle(self, capsys):
        code, out, _ = run(
            capsys, "power", "--angle", "0.6435011087932844", "--eps", "0.01",
            "--format", "records",
        )
        assert code == EXIT_OK
        assert "N=166" in out

    def test_nonpositive_eps_is_usage_error(self, capsys):
        code, _, err = run(capsys, "power", "--angle", "1.0", "--eps", "0")
        assert code == EXIT_PARSE

    def test_bad_angle_is_parse_error(self, capsys):
        code, _, err = run(capsys, "power", "--angle", "two-pi", "--eps", "0.1")
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("angle", [".pi", "-.pi", ".*pi", "*pi", "-*pi"])
    def test_numerator_without_a_digit_is_parse_error(self, capsys, angle):
        code, out, err = run(capsys, "power", f"--angle={angle}", "--eps", "0.1")
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith("parse error: cannot parse angle")

    @pytest.mark.parametrize(
        "angle, value", [(".5pi", 0.5), ("2pi", 2.0), ("pi", 1.0), ("pi/.5", 2.0)]
    )
    def test_multiples_of_pi(self, angle, value):
        assert cli._angle_value(angle) == value * math.pi

    @pytest.mark.parametrize("angle", ["-pi/4", "-2*pi/3", "-2.2279134884666189e-07"])
    def test_negative_angle_in_the_separate_form(self, capsys, angle):
        # argparse alone would read these values as flags
        for fmt in ("human", "records"):
            joined = run(capsys, "power", f"--angle={angle}", "--eps", "1e-3", "--format", fmt)
            separate = run(capsys, "power", "--angle", angle, "--eps", "1e-3", "--format", fmt)
            assert separate == joined and joined[0] == EXIT_OK

    @pytest.mark.parametrize("flag", ["--a", "--an", "--ang", "--angl", "--angle"])
    def test_abbreviated_flag_takes_a_negative_angle(self, capsys, flag):
        joined = run(capsys, "power", "--angle=-pi/4", "--eps", "1e-3")
        assert joined[0] == EXIT_OK
        assert run(capsys, "power", flag, "-pi/4", "--eps", "1e-3") == joined

    def test_abbreviated_flag_without_a_value_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["power", "--eps", "1e-3", "--ang"])
        assert err.value.code == EXIT_PARSE
        assert "argument --angle: expected one argument" in capsys.readouterr().err

    def test_angle_without_a_value_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["power", "--eps", "1e-3", "--angle"])
        assert err.value.code == EXIT_PARSE
        assert "argument --angle: expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "angle, eps",
        [("pi/0", "0.1"), ("-2*pi/0", "0.1"), ("inf", "0.1"), ("-inf", "0.1"), ("nan", "0.1"),
         ("1e999", "0.1"), ("1.0", "nan"), ("1.0", "inf")],
    )
    def test_non_finite_input_is_usage_error(self, capsys, angle, eps):
        code, _, err = run(capsys, "power", f"--angle={angle}", f"--eps={eps}", "--cap", "1000")
        assert code == EXIT_PARSE
        assert err.startswith(("error:", "parse error:"))

    @pytest.mark.parametrize("angle, eps, code", [("1e308", "0.1", EXIT_OK), ("1e300", "1e-9", EXIT_CAP)])
    def test_huge_angle_is_reduced_exactly(self, capsys, angle, eps, code):
        # q*angle overflows a float here; the integer residual does not
        code_seen, _, err = run(capsys, "power", "--angle", angle, "--eps", eps)
        assert code_seen == code, err

    def test_cap_exceeded(self, capsys):
        code, _, err = run(
            capsys, "power", "--angle", "0.6435011087932844", "--eps", "1e-9",
            "--cap", "50",
        )
        assert code == EXIT_CAP

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_cap_below_one_admits_no_power(self, capsys, cap):
        # N = 1 already meets the tolerance, but the cap admits no N at all
        code, out, err = run(capsys, "power", "--angle", "6.28", "--eps", "0.1", "--cap", cap)
        assert (code, out) == (EXIT_CAP, "")
        assert err.startswith("cap exceeded: ")


class TestOutOfMemory:
    @pytest.mark.parametrize(
        "target, argv",
        [
            ("cliffgate.matrices.verify_representation", ["verify-rep", "-n", "2"]),
            ("cliffgate.synthesis.synthesize", ["synth", "-n", "1", "-N", "1", "-i", "{file}"]),
        ],
        ids=["verify-rep", "synth"],
    )
    def test_an_allocation_failure_is_cap_exceeded(self, capsys, monkeypatch, tmp_path,
                                                   target, argv):
        infile = tmp_path / "h.mat"
        infile.write_text(format_matrix(np.eye(2)))

        def allocate(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 TiB")

        monkeypatch.setattr(target, allocate)
        code, out, err = run(capsys, *(word.format(file=infile) for word in argv))
        assert (code, out, err) == (
            EXIT_CAP, "", "cap exceeded: out of memory: Unable to allocate 8.00 TiB\n"
        )

    def test_a_bare_memory_error_is_cap_exceeded(self, capsys, monkeypatch):
        def allocate(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("cliffgate.matrices.verify_representation", allocate)
        assert run(capsys, "verify-rep", "-n", "2") == (
            EXIT_CAP, "", "cap exceeded: out of memory\n"
        )

    def test_verify_rep_past_the_address_space_exits_5(self):
        # 2^20 x 2^20 matrices, 8 TiB each: the sweep is refused before its
        # first allocation, and the 3 GB address-space limit on the child
        # makes a run that allocates anyway fail fast
        done = run_limited("verify-rep", "-n", "20", "--cap", "20")
        assert (done.returncode, done.stdout) == (EXIT_CAP, ""), done.stderr
        assert done.stderr.startswith("cap exceeded: out of memory: ")
        assert "Traceback" not in done.stderr

    def test_verify_rep_past_the_memory_budget_exits_5(self):
        # --cap admits 12 qubits; the planned peak, about 13.5 GiB, is refused
        # by the budget, not by a failed allocation under the 3 GB limit
        done = run_limited("verify-rep", "-n", "12", "--cap", "12")
        assert (done.returncode, done.stdout, done.stderr) == (
            EXIT_CAP, "", "cap exceeded: out of memory: 12 qubits plan 13830 MiB, past the "
            "budget of 512 MiB\n"
        )

    def test_verify_rep_past_a_small_budget_exits_5(self, capsys, monkeypatch):
        monkeypatch.setattr("cliffgate.matrices.MEMORY_BUDGET", 1 << 20)
        assert run(capsys, "verify-rep", "-n", "3") == (
            EXIT_CAP, "", "cap exceeded: out of memory: 3 qubits plan 6 MiB, past the budget "
            "of 1 MiB\n"
        )


class TestClosedStdout:
    def test_reader_stopping_early_is_no_failure(self):
        # the universal set over 12 generators lists 4096 labels, well past
        # a 64 KiB pipe buffer, so the writes after the reader has gone fail
        gens = [f"e[{k}]" for k in range(12)] + ["i*e[0,1,2]"]
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "cliffgate.cli", "closure", "-m", "12", *gens],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=str(src)),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (first, proc.wait(timeout=60), err) == (
            b"closure ambient=12 generators=13 dim=4096 universal=true\n", EXIT_OK, b""
        )

    def test_missing_input_file_is_still_a_precondition_failure(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.mat")
        code, out, err = run(capsys, "synth", "-n", "1", "-N", "1", "-i", missing)
        assert (code, out) == (EXIT_PRECONDITION, "")
        assert err.startswith("error: [Errno 2] No such file or directory")


# The flags each subcommand declares: exactly the ones its handler reads.
FLAGS = {
    "closure": ["--format", "--cap", "-m"],
    "certify": ["--format", "--cap", "-m", "--target"],
    "verify-rep": ["--format", "--cap", "--seed", "-n"],
    "gateset": ["--format", "--cap", "-n"],
    "synth": ["--format", "--cap", "-n", "-N", "-i", "-o"],
    "power": ["--format", "--cap", "--angle", "--eps"],
}


class TestFlags:
    def test_each_subcommand_declares_the_flags_it_reads(self):
        (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        declared = {
            name: [a.option_strings[0] for a in parser._actions
                   if a.option_strings and a.dest != "help"]
            for name, parser in sub.choices.items()
        }
        assert declared == FLAGS
        caps = {name: parser.get_default("cap") for name, parser in sub.choices.items()}
        assert caps == {"closure": 1 << 16, "certify": 1 << 16, "gateset": 1 << 16,
                        "verify-rep": 6, "synth": 6, "power": 10**9}

    @pytest.mark.parametrize(
        "argv",
        [["closure", "--seed", "1", "-m", "4", "e[0]"],
         ["closure", "--list-limit", "5", "-m", "4", "e[0]"],
         ["power", "--tolerance", "1e-3", "--angle", "1", "--eps", "0.1"],
         ["gateset", "--tolerance", "1", "-n", "2"],
         ["certify", "--seed=1", "-m", "4", "--target", "e[0]", "e[0]"],
         ["certify", "--tolerance", "1", "-m", "4", "--target", "e[0]", "e[0]"],
         ["verify-rep", "--tolerance", "1e-3", "-n", "1"],
         ["synth", "--seed", "1", "-n", "1", "-N", "1", "-i", "h.mat"],
         ["synth", "--tolerance", "1e-3", "-n", "1", "-N", "1", "-i", "h.mat"]],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_undeclared_flag_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == EXIT_PARSE
        assert "unrecognized arguments: " + argv[1].split("=")[0] in capsys.readouterr().err

    def test_bad_tolerance(self, capsys):
        # synth's Hermiticity bound is fixed, so any --tolerance is refused
        for tol in ("-1", "0", "nan", "inf"):
            with pytest.raises(SystemExit) as err:
                main(["synth", "-n", "1", "-N", "1", "-i", "h.mat", "--tolerance", tol])
            assert err.value.code == EXIT_PARSE, tol
            assert "--tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [(["power", "--angle", "1", "--eps", "inf"], "--eps must be positive and finite, got inf")],
        ids=["power"],
    )
    def test_one_positive_rule_checked_first(self, capsys, argv, message):
        # refused before the search starts
        assert run(capsys, *argv) == (EXIT_PARSE, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "m, code, message",
        [("0", EXIT_PRECONDITION, "error: ambient must be >= 1"),
         ("-3", EXIT_PRECONDITION, "error: ambient must be >= 1"),
         ("65", EXIT_CAP, "cap exceeded: ambient 65 exceeds the symbolic cap 64")],
    )
    def test_closure_and_certify_share_the_ambient_rule(self, capsys, m, code, message):
        closure = run(capsys, "closure", "-m", m, "e[0]")
        certify = run(capsys, "certify", "-m", m, "--target", "e[0]", "e[0]")
        assert closure == certify == (code, "", message + "\n")

    def test_verify_rep_needs_a_qubit(self, capsys):
        assert run(capsys, "verify-rep", "-n", "0") == (
            EXIT_PRECONDITION, "", "error: qubit count must be >= 1\n"
        )


# The records form is the command line's output contract: these calls must
# keep printing exactly this.
GOLDEN_RECORDS = {
    ("closure", "-m", "4", "e[0]", "e[1]", "e[2]", "e[3]", "i*e[0,1,2]"): (
        "closure ambient=4 generators=5 dim=16 universal=true\n"
        + "".join(
            f"label {t}\n"
            for t in (
                "e[] e[0] e[1] e[2] e[3] e[0,1] e[0,2] e[1,2] e[0,3] e[1,3] e[2,3] "
                "e[0,1,2] e[0,1,3] e[0,2,3] e[1,2,3] e[0,1,2,3]"
            ).split()
        )
    ),
    ("certify", "-m", "4", "--target", "e[0,1,2,3]",
     "e[0]", "e[1]", "e[2]", "e[3]", "i*e[0,1,2]"): (
        "ambient 4\n"
        "target e[0,1,2,3]\n"
        "generator e[0]\n"
        "generator e[1]\n"
        "generator e[2]\n"
        "generator e[3]\n"
        "generator i*e[0,1,2]\n"
        "step e[0,1,2,3] := [e[3], e[0,1,2]] * -i*2^1\n"
        "scalar -i*2^1\n"
        "replay deviation=0 steps=1 ok=true\n"
    ),
    ("gateset", "-n", "2"): (
        "element label=e[0] pauli=IX support=0 local=true\n"
        "element label=i*e[0,1] pauli=-IZ support=0 local=true\n"
        "element label=i*e[1,2] pauli=-XX support=0,1 local=true\n"
        "element label=i*e[2,3] pauli=-ZI support=1 local=true\n"
        "element label=i*e[0,1,2] pauli=-XI support=1 local=true\n"
        "gateset qubits=2 count=5 dim=16 universal=true local=true\n"
    ),
    # four qubits: 65536 label pairs, so the pairs are drawn from the seed
    ("verify-rep", "-n", "4", "--seed", "5"): (
        "".join(
            f"check name={name} deviation={dev} tolerance={tol} status=pass\n"
            for name, dev, tol in (
                ("clifford-relations", "0", "1e-14"),
                ("generator-hermiticity", "0", "1e-14"),
                ("hermitized-hermiticity", "0", "9.9999999999999998e-13"),
                ("hermitized-squares", "0", "9.9999999999999998e-13"),
                ("product-homomorphism", "0", "9.9999999999999998e-13"),
                ("commutator-homomorphism", "0", "9.9999999999999998e-13"),
                ("commutation-dichotomy", "0", "9.9999999999999998e-13"),
                ("trace-orthogonality", "0", "9.9999999999999998e-13"),
                ("factorization-consistency", "0", "9.9999999999999998e-13"),
                ("recursive-generators", "0", "1e-14"),
                ("decompose-roundtrip", "4.5182803598830274e-16", "1e-10"),
            )
        )
        + "verify qubits=4 checks=11 failed=0\n"
    ),
    ("power", "--angle", "pi/2", "--eps", "0.1"): (
        "power angle=1.5707963267948966 eps=0.10000000000000001 N=4 residual=0 signed=0\n"
    ),
}


def _six_digits(line):
    # a records line with every float field re-rounded to 6 significant digits
    def reround(m):
        return f"{m.group(1)}={float(m.group(2)):.6g}"

    return re.sub(r"(\w+)=(-?\d+\.\d*(?:e[-+]\d+)?|-?\d+e[-+]\d+)(?= |$)", reround, line)


class TestOutputContract:
    @pytest.mark.parametrize("argv", list(GOLDEN_RECORDS), ids=lambda a: a[0])
    def test_records_match_golden(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--format", "records")
        assert (code, out, err) == (EXIT_OK, GOLDEN_RECORDS[argv], "")

    def test_human_is_default(self, capsys):
        argv = ["power", "--angle", "pi/2", "--eps", "0.1"]
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (EXIT_OK, "power angle=1.5708 eps=0.1 N=4 residual=0 signed=0\n")

    def test_human_lines_are_records_at_six_digits(self, capsys):
        argv = ["verify-rep", "-n", "2", "--seed", "3"]
        _, records, _ = run(capsys, *argv, "--format", "records")
        code, human, _ = run(capsys, *argv, "--format", "human")
        assert code == EXIT_OK
        assert "tolerance=9.9999999999999998e-13" in records
        assert "tolerance=1e-12" in human
        assert human.splitlines() == [_six_digits(line) for line in records.splitlines()]

    def test_human_synth_keeps_sequence_text(self, capsys, tmp_path):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        infile = tmp_path / "h.mat"
        infile.write_text(format_matrix((a + a.conj().T) / 2))
        argv = ["synth", "-n", "2", "-N", "2", "-i", str(infile)]
        _, records, _ = run(capsys, *argv, "--format", "records")
        code, human, _ = run(capsys, *argv, "--format", "human")
        assert code == EXIT_OK
        *sequence, record = records.splitlines()
        assert human.splitlines() == sequence + [_six_digits(record)]
        assert record != _six_digits(record)

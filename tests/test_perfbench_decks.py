"""The benchmark's workloads still run against this package.

Imports ``perfbench/wl_closure.py``, ``wl_dense.py`` and ``wl_cli.py``
without writing anything beside them (no bytecode cache), builds their
smoke decks (seed 7) and runs every job twice, untraced, with its own
checks and the runner's comparison of repeats: the closure and dense jobs
in process, the cli jobs as seven fresh ``python -m cliffgate.cli``
processes (exit codes, record fields, byte-identical output).  That
catches an API or CLI change that would break the benchmark in a few
seconds, without running the full ``perfbench/test_smoke.py``.  The
synth, commutator_gate, replay and verify jobs of the full ``dense`` deck
and the audited jobs of the full ``closure`` deck (seed 7) run twice too,
and the full ``dense`` and ``cli`` decks of the benchmark's seeds are
built, so that every power input their checkers compare with the scan
oracle is checked here in process.  The malformed and known-defect argv
the ``cli`` workload pins run here too, in process, each against its
documented exit code.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from cliffgate import format_matrix, irrational_power, minimal_power_scan
from cliffgate.cli import _angle_value, main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("spans", "wl_closure", "wl_dense", "wl_cli")


@pytest.fixture(scope="module")
def perfbench():
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        yield {name: importlib.import_module(name) for name in MODULES}
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
        for name in MODULES:
            sys.modules.pop(name, None)


@pytest.mark.parametrize("workload", ["closure", "dense", "cli"])
def test_smoke_deck_runs_and_passes_its_checks(workload, perfbench, tmp_path):
    module = perfbench[f"wl_{workload}"]
    deck = module.build(7, True, tmp_path)
    assert deck
    run_twice(deck, perfbench["spans"].NullTracer(), workload)


def test_verify_jobs_of_the_full_dense_deck_pass_their_checks(perfbench, tmp_path):
    # the two verify jobs (n = 3 and 4) of the benchmark's deck, not the
    # smoke deck's n = 2
    jobs = [job for job in perfbench["wl_dense"].build(7, False, tmp_path) if job.kind == "verify"]
    assert [job.n for job in jobs] == [3, 4]
    run_twice(jobs, perfbench["spans"].NullTracer(), "dense")


def test_synth_jobs_of_the_full_dense_deck_pass_their_checks(perfbench, tmp_path):
    # trotter at n = 3..6, and a check that compares reconstruct(decompose(h)) with h
    deck = perfbench["wl_dense"].build(7, False, tmp_path)
    jobs = [job for job in deck if job.kind.startswith("synth-")]
    assert [job.n for job in jobs] == [3, 3, 3, 4, 4, 5, 4, 4, 5, 6, 6, 6]
    run_twice(jobs, perfbench["spans"].NullTracer(), "dense")


def test_commutator_gate_and_replay_jobs_of_the_full_dense_deck_pass_their_checks(perfbench, tmp_path):
    # commutator_gate at n = 3 and 5 forms one element's signed permutation
    # at a time, and replay runs two certificates of m = 8 on integer monomials
    deck = perfbench["wl_dense"].build(7, False, tmp_path)
    jobs = [job for job in deck if job.kind in ("commutator_gate", "replay")]
    assert [job.kind for job in jobs] == ["commutator_gate"] * 2 + ["replay"] * 2
    assert [job.a.ambient for job in jobs[:2]] == [6, 10]
    run_twice(jobs, perfbench["spans"].NullTracer(), "dense")


def test_audited_jobs_of_the_full_closure_deck_pass_their_checks(perfbench, tmp_path):
    # the jobs whose check calls ClosureResult.audit_closed
    jobs = [job for job in perfbench["wl_closure"].build(7, False, tmp_path) if job.audit]
    assert [job.m for job in jobs] == [6, 7, 8]
    run_twice(jobs, perfbench["spans"].NullTracer(), "closure")


def run_twice(jobs, tracer, workload):
    for job in jobs:
        out = job.run(tracer)
        assert job.check(out) == [], (workload, job.kind)
        # the runner compares the digests of repeated runs
        assert job.same(job.digest(out), job.digest(job.run(tracer))), (workload, job.kind)


# the seeds of the benchmark's own runs (0-63) and of its pair runs
DECK_SEEDS = [*range(64), *range(1001, 1007)]


def test_power_inputs_of_the_full_decks_match_the_scan_oracle(perfbench, tmp_path):
    # both power checkers compare N with the brute-force scan down to their
    # SCAN_MIN_EPS; an N the scan disagrees with reads as a wrong output
    inputs = []
    for seed in DECK_SEEDS:
        dense = perfbench["wl_dense"]
        for job in dense.build(seed, False, tmp_path):
            if job.kind == "power" and job.eps >= dense.SCAN_MIN_EPS:
                inputs.append((job.angle, job.eps))
        cli = perfbench["wl_cli"]
        for job in cli.build(seed, False, tmp_path):
            argv = job.argv
            if job.kind == "power" and float(argv[argv.index("--eps") + 1]) >= cli.SCAN_MIN_EPS:
                angle = _angle_value(argv[argv.index("--angle") + 1])
                inputs.append((angle, float(argv[argv.index("--eps") + 1])))
    assert len(inputs) == len(DECK_SEEDS) * (3 + 2)
    for angle, eps in inputs:
        found = irrational_power(angle, eps).applications
        assert found == minimal_power_scan(angle, eps, cap=10**8).applications, (angle, eps)


def test_pinned_cli_inputs_end_in_their_documented_exit_codes(perfbench, tmp_path, monkeypatch):
    # a CLI change that moves one of these exit codes reads as a wrong
    # output in the benchmark
    wl_cli = perfbench["wl_cli"]
    (tmp_path / "nonhermitian.mat").write_text(format_matrix(np.array([[1, 2], [0, 1]])))
    monkeypatch.chdir(tmp_path)
    pinned = wl_cli.MALFORMED + wl_cli.KNOWN_DEFECTS
    assert len(pinned) == 9
    for argv, code in pinned:
        argv = [a.replace("{nonhermitian}", "nonhermitian.mat") for a in argv] + wl_cli.RECORDS
        try:
            seen = main(argv)
        except SystemExit as exc:  # argparse usage errors
            seen = exc.code
        assert seen == code, argv

"""The benchmark's workloads still run against this package.

Imports ``perfbench/wl_closure.py``, ``wl_dense.py`` and ``wl_cli.py``
without writing anything beside them (no bytecode cache), builds their
smoke decks (seed 7) and runs every job twice, untraced, with its own
checks and the runner's comparison of repeats: the closure and dense jobs
in process, the cli jobs as seven fresh ``python -m cliffgate.cli``
processes (exit codes, record fields, byte-identical output).  That
catches an API or CLI change that would break the benchmark in a few
seconds, without running the full ``perfbench/test_smoke.py``.
"""

import importlib
import sys
from pathlib import Path

import pytest

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
    tracer = perfbench["spans"].NullTracer()
    deck = module.build(7, True, tmp_path)
    assert deck
    for job in deck:
        out = job.run(tracer)
        assert job.check(out) == [], (workload, job.kind)
        # the runner compares the digests of repeated runs
        assert job.same(job.digest(out), job.digest(job.run(tracer))), (workload, job.kind)

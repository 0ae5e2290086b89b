"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py      (or python3 perfbench/test_smoke.py)

Checks that every metric named in BENCHMARK.json prints with its unit,
that each workload completes at least one job correctly, that traced
spans nest, and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import Span, nesting_errors  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "0.2", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=170)


def result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, out
    return out


def test_every_metric_prints_with_its_unit():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        for workload in (w["name"] for w in SPEC["workloads"]):
            metrics = result(bench(workload, trace))["metrics"]
            assert {k: v["unit"] for k, v in metrics.items()} == want, (workload, trace)
            assert all(isinstance(v["value"], (int, float)) for v in metrics.values())
            if trace == 0:
                assert all(v["value"] > 0 for v in metrics.values()), (workload, metrics)


def test_spans_nest():
    for workload in (w["name"] for w in SPEC["workloads"]):
        result(bench(workload, 1))
        lines = (HERE / "work" / f"spans-{workload}-7.jsonl").read_text().splitlines()
        spans = [Span(**json.loads(line)) for line in lines]
        assert spans and not nesting_errors(spans), nesting_errors(spans)[:5]
        assert any(s.parent is not None for s in spans)


def test_refuses_to_run_without_sources():
    bare = HERE / "work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__"))
        done = bench("closure", 0, root=bare)
        assert done.returncode != 0 and '"correct"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")

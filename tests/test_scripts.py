import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import maxabs

ROOT = Path(__file__).resolve().parent.parent


def run_script(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def load_script(name):
    """A script under ``scripts/`` as a module, for the functions it defines."""
    spec = importlib.util.spec_from_file_location(Path(name).stem, ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_dimension_dichotomy_table():
    rows = [line.split() for line in run_script("dimension_dichotomy.py").splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(range(3, 11))
    for row in rows:
        m, plain, quadratic, augmented, full = (int(v) for v in row[:5])
        assert plain == quadratic == m * (m + 1) // 2
        assert full == 1 << m
        # odd m misses the top label, except at m = 3 where the extra
        # generator e[0,1,2] is the top label itself
        assert augmented == (full - 1 if m % 2 and m > 3 else full)


@pytest.mark.parametrize("name", ["phase_ambiguity.py", "trotter_scaling.py"])
def test_script_runs(name):
    assert run_script(name)


exponent_coincidence_report = load_script("phase_ambiguity.py").exponent_coincidence_report


class TestExponentCoincidence:
    def test_distinct_hamiltonians_share_a_gate(self):
        report = exponent_coincidence_report("x", "z")
        eye = np.eye(4)
        # pi rotations: the single-factor and product-factor exponents both
        # land on -1, the commuting sum lands back on +1
        assert maxabs(report["matrices"]["single"] + eye) < 1e-12
        assert maxabs(report["matrices"]["product"] + eye) < 1e-12
        assert maxabs(report["matrices"]["sum"] - eye) < 1e-12
        assert report["coincide"] == [("product", "single")]

    def test_any_axis_pair(self):
        for a in "xyz":
            for b in "xyz":
                report = exponent_coincidence_report(a, b)
                assert ("product", "single") in report["coincide"]

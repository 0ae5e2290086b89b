import os
import subprocess
import sys
from pathlib import Path

import pytest

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

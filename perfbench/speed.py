"""Times scaled to a reference speed of the host.

The shared two-core host the benchmark was built on changes speed by up to
2x, for seconds or for minutes at a time, and everything on it slows with
it.  Wall times of the same job taken a few minutes apart can therefore
differ twofold, and so can two runs of the benchmark on the same code.

Every run times a fixed kernel again and again, between its jobs.  The
kernel does the same sorts of work as the workload's jobs but touches no
cliffgate code.  Each job and set-up is reported in reference seconds:

    wall seconds * REFERENCE_S[kind] / (mean of the kernel runs just
                                        before and just after it)

that is, the seconds the work would take on a host where the kernel takes
REFERENCE_S.  A change to the program moves the scaled times; a change of
the host's speed moves the kernel and the jobs alike, and mostly cancels.
The median over each job's repeats absorbs what is left.

Two kernels exist.  ``cpu`` runs in process: integer and dict operations
on labels, as in closure, and small complex matrix products and Kronecker
products, as in the dense layer.  ``process`` starts a fresh interpreter
that imports numpy and runs the ``cpu`` kernel once, as a cliffgate
command does before its own work; the in-process kernel does not follow
process start-up, whose speed changes differently.
"""

from __future__ import annotations

import subprocess
import sys
import time
from functools import cache
from pathlib import Path

# each kernel's time on the 2-core Xeon host at its faster speed
REFERENCE_S = {"cpu": 0.002, "process": 0.15}

_PROCESS_ARGV = [
    sys.executable,
    "-c",
    f"import sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
    "from speed import cpu_kernel; cpu_kernel()",
]


@cache
def _operands():
    # numpy is imported on first use, so that importing this module leaves
    # the numpy import inside a timed set-up
    import numpy as np

    rng = np.random.default_rng(0)
    m = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    return np, m, np.array([[0, 1], [1, 0]], dtype=complex)


def cpu_kernel() -> float:
    """Seconds taken by one run of the fixed in-process work."""
    np, m0, p = _operands()
    start = time.perf_counter()
    table: dict[int, tuple[int, int]] = {}
    x = 1
    for i in range(2400):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        mask = x & 1023
        phase, depth = table.get(mask, (0, 0))
        table[mask] = ((phase + (x >> 10).bit_count()) % 4, max(depth, i & 15))
    m = m0
    for _ in range(8):
        m = np.kron(np.kron(p, p), np.kron(p, np.eye(4))) @ m
        m = m @ m0 / 8
    return time.perf_counter() - start


def process_kernel() -> float:
    """Seconds from starting a fresh interpreter that runs the cpu kernel
    to its exit."""
    start = time.perf_counter()
    subprocess.run(_PROCESS_ARGV, check=True, timeout=60, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


KERNELS = {"cpu": cpu_kernel, "process": process_kernel}

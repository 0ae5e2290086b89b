"""The ``cli`` workload: a closed loop of fresh ``python -m cliffgate.cli``
processes in records format, one at a time.

Every call pays interpreter start, the numpy import and cold caches, the
opposite cache regime to ``dense``.  The mix covers all six subcommands at
small sizes, and about one call in ten is a malformed input whose exit code
the README documents.  The README's exit codes, the records' semantic
fields and byte-identical output on repeated argv are checked.

Three inputs are known to end with an exit code other than the documented
one; they are probed outside the timed loop and reported as
``cli.exit_mismatch``, so the timed mix holds no failing operation.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cliffgate import minimal_power_scan

import wl_closure
from wl_dense import pauli_matrix, random_hermitian, sparse_hamiltonian

SRC = Path(__file__).resolve().parent.parent / "src"
ENV = dict(os.environ, PYTHONPATH=str(SRC))
RECORDS = ["--format", "records"]
KERNEL = "process"  # the jobs are fresh processes (see speed.py)
TOL = 1e-10
SCAN_MIN_EPS = 1e-6

# The deck, in warm-up order (the first job of each subcommand warms it
# up).  Sizes spread the call costs from start-up alone to about three
# times that (see wl_closure.CLASSES).  The deck is small, thirteen calls,
# so that every call repeats several times in a run, and eight of them do
# little besides start-up, so that the median falls among those rather
# than on the edge between them and the costlier calls.
CLOSURE = [("quadratic", 4, 3), ("universal|chain", 7, None)]
CERTIFY = [("quadratic", 6, 8), ("universal|chain", 8, None)]
VERIFY = [2, 3]
GATESET = [4]
SYNTH = [(True, 2, 8), (False, 4, 16), (True, 5, 1)]  # (dense?, n, N)
POWER_EPS = [1e-2, 1e-4]
MALFORMED_PER_DECK = 1
SMOKE = dict(
    closure=[("quadratic", 4, 3)], certify=[("universal|chain", 4, None)], verify=[1],
    gateset=[2], synth=[(True, 1, 2)], eps=[1e-2], malformed=1,
)
STARTUP_PROBES = 5

# (argv, documented exit code); "{nonhermitian}" names a file in the work directory.
MALFORMED = [
    (["closure", "-m", "4", "e[0", "e[1]"], 2),
    (["certify", "-m", "4", "--target", "e[0,1,2,3]", "e[0]", "e[1]"], 3),
    (["verify-rep", "-n", "9"], 5),
    (["power", "--angle", "1", "--eps", "-1"], 2),
    (["synth", "-n", "2", "-N", "4", "-i", "{nonhermitian}"], 3),
    (["closure", "-m", "70", "e[0]"], 5),
]
# Known defects: the ROADMAP says each should exit 2.
KNOWN_DEFECTS = [
    (["power", "--angle", "pi/0", "--eps", "0.1"], 2),
    (["power", "--angle", "inf", "--eps", "0.1"], 2),
    (["power", "--angle", "1", "--eps", "nan", "--cap", "100000"], 2),
]


@dataclass
class Call:
    code: int
    out: bytes
    err: bytes
    maxrss_kb: int


def invoke(argv: list[str], workdir: Path) -> Call:
    """Run one cliffgate process to completion; its own peak RSS comes from
    wait4, so only this child is counted."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, *argv], stdout=out, stderr=err, env=ENV, cwd=workdir
        )
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Call(proc.returncode, out_path.read_bytes(), err_path.read_bytes(), usage.ru_maxrss)


def _records(text: str, kind: str) -> list[dict[str, str]]:
    rows = []
    for line in text.splitlines():
        head, *fields = line.split(" ")
        if head == kind:
            rows.append(dict(f.split("=", 1) for f in fields))
    return rows


def pauli_bound(h: np.ndarray, n: int, steps: int) -> tuple[float, int]:
    """First-order Trotter bound from the Pauli coefficients of h, computed
    with an independent Kronecker build: a hermitized basis element is +-1
    times one Pauli string, and two strings anticommute iff their
    symplectic product is odd.  Returns the bound and the term count."""
    xs, zs, cs = [], [], []
    for code in range(4**n):
        letters = {q: "IXYZ"[(code >> (2 * q)) & 3] for q in range(n)}
        c = float(np.real(np.trace(pauli_matrix(letters, n) @ h))) / 2**n
        if abs(c) > 1e-12:
            xs.append(sum(1 << q for q, p in letters.items() if p in "XY"))
            zs.append(sum(1 << q for q, p in letters.items() if p in "YZ"))
            cs.append(abs(c))
    total = 0.0
    for i in range(len(cs)):
        for j in range(i + 1, len(cs)):
            if ((xs[i] & zs[j]).bit_count() + (zs[i] & xs[j]).bit_count()) % 2:
                total += 2 * cs[i] * cs[j]
    return total / (2 * steps), len(cs)


class CliJob:
    def __init__(self, argv, expect_code, workdir, checker=None):
        self.kind = argv[0]
        self.argv = ["-m", "cliffgate.cli", *argv]
        self.expect_code = expect_code
        self.workdir = workdir
        self.checker = checker

    def run(self, tr):
        with tr.span(f"cli.{self.kind}") as c:
            call = invoke(self.argv, self.workdir)
            c["mismatch"] = int(call.code != self.expect_code)
        return call

    def check(self, call: Call) -> list[str]:
        argv = " ".join(self.argv[2:])
        if call.code != self.expect_code:
            return [f"`{argv}` exited {call.code}, documented {self.expect_code}"]
        if b"Traceback" in call.err:
            return [f"`{argv}` printed a traceback"]
        if self.checker is None:
            return []
        return [f"`{argv}`: {e}" for e in self.checker(call.out.decode())]

    def digest(self, call: Call):
        return call.code, call.out

    def same(self, a, b) -> bool:
        return a == b


def _closure_checker(m, expected):
    def check(out: str) -> list[str]:
        head = _records(out, "closure")
        verdict = "unsupported" if m % 2 else str(len(expected) == 1 << m).lower()
        want = dict(ambient=str(m), dim=str(len(expected)), universal=verdict)
        if len(head) != 1 or any(head[0].get(k) != v for k, v in want.items()):
            return [f"closure record {head} differs from {want}"]
        if _records(out, "labels") == [dict(suppressed="true", count=str(len(expected)))]:
            return []
        labels = {
            sum(1 << int(i) for i in line[len("label e[") : -1].split(",") if i)
            for line in out.splitlines()
            if line.startswith("label ")
        }
        if labels != expected:
            return [f"{len(labels)} labels listed, the closed form gives {len(expected)}"]
        return []

    return check


def _certify_checker(m, target):
    def check(out: str) -> list[str]:
        replay = _records(out, "replay")
        steps = sum(line.startswith("step ") for line in out.splitlines())
        if f"target {target}" not in out.splitlines():
            return [f"certificate does not name target {target}"]
        if m % 2:
            ok = replay == [dict(skipped="true", reason="odd-ambient")]
        else:
            ok = (
                len(replay) == 1
                and replay[0].get("ok") == "true"
                and float(replay[0]["deviation"]) <= TOL
                and int(replay[0]["steps"]) == steps
            )
        return [] if ok else [f"replay record {replay} over {steps} steps"]

    return check


def _verify_checker(n):
    def check(out: str) -> list[str]:
        checks = _records(out, "check")
        tail = _records(out, "verify")
        ok = (
            checks
            and all(c.get("status") == "pass" for c in checks)
            and tail == [dict(qubits=str(n), checks=str(len(checks)), failed="0")]
        )
        return [] if ok else [f"verify record {tail}"]

    return check


def _gateset_checker(n):
    def check(out: str) -> list[str]:
        elements = _records(out, "element")
        want = dict(qubits=str(n), count=str(2 * n + 1), dim=str(4**n), universal="true", local="true")
        ok = (
            len(elements) == 2 * n + 1
            and all(e.get("local") == "true" for e in elements)
            and _records(out, "gateset") == [want]
        )
        return [] if ok else ["gateset records differ from the 2n+1 local universal set"]

    return check


def _synth_checker(n, steps, h):
    def check(out: str) -> list[str]:
        bound, terms = pauli_bound(h, n, steps)
        rec = _records(out, "synth")
        gates = sum(line.startswith("gate ") for line in out.splitlines())
        if len(rec) != 1 or rec[0].get("qubits") != str(n) or rec[0].get("steps") != str(steps):
            return [f"synth record {rec}"]
        if int(rec[0]["gates"]) != steps * terms or gates != steps * terms:
            return [f"{gates} gates for {terms} terms at N={steps}"]
        error = float(rec[0]["error"])
        if not error <= bound + TOL:
            return [f"error {error:g} exceeds the commutator bound {bound:g}"]
        return []

    return check


def _power_checker(eps):
    def check(out: str) -> list[str]:
        rec = _records(out, "power")
        if len(rec) != 1:
            return [f"power record {rec}"]
        angle, found = float(rec[0]["angle"]), int(rec[0]["N"])
        if not (found >= 1 and float(rec[0]["residual"]) < eps):
            return [f"power record {rec[0]} misses eps {eps:g}"]
        if eps >= SCAN_MIN_EPS:
            scan = minimal_power_scan(angle, eps, cap=10**8).applications
            if scan != found:
                return [f"N={found}, the scan oracle finds {scan}"]
        return []

    return check


def _angle_text(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return repr(rng.uniform(0.05, 2 * math.pi - 0.05))
    den = rng.choice((3, 5, 7, 9, 11))
    num = rng.randrange(1, 2 * den)
    while math.gcd(num, den) != 1:
        num = rng.randrange(1, 2 * den)
    return f"{num}*pi/{den}"  # exercises the CLI's k*pi/m angle grammar


def _write_matrix(path: Path, h: np.ndarray) -> None:
    lines = (" ".join(f"{v.real:.17g},{v.imag:.17g}" for v in row) for row in h)
    path.write_text("\n".join(lines) + "\n")


def build(seed: int, smoke: bool, workdir: Path):
    rng = random.Random(f"cli:{seed}")
    nrng = np.random.default_rng(rng.getrandbits(64))
    cfg = SMOKE if smoke else dict(
        closure=CLOSURE, certify=CERTIFY, verify=VERIFY, gateset=GATESET, synth=SYNTH,
        eps=POWER_EPS, malformed=MALFORMED_PER_DECK,
    )
    nonhermitian = workdir / "nonhermitian.mat"
    _write_matrix(nonhermitian, np.array([[1, 2], [0, 1]], dtype=complex))
    jobs = []
    for family, m, size in cfg["closure"]:
        texts, expected = wl_closure.generator_set(rng, family, m, size)
        argv = ["closure", "-m", str(m), *RECORDS, "--", *texts]
        jobs.append(CliJob(argv, 0, workdir, _closure_checker(m, expected)))
    for family, m, size in cfg["certify"]:
        texts, expected = wl_closure.generator_set(rng, family, m, size)
        mask = rng.choice(sorted(expected))
        target = "e[" + ",".join(str(i) for i in range(m) if mask >> i & 1) + "]"
        argv = ["certify", "-m", str(m), "--target", target, *RECORDS, "--", *texts]
        jobs.append(CliJob(argv, 0, workdir, _certify_checker(m, target)))
    for n in cfg["verify"]:
        argv = ["verify-rep", "-n", str(n), "--seed", str(rng.randrange(1 << 31)), *RECORDS]
        jobs.append(CliJob(argv, 0, workdir, _verify_checker(n)))
    for n in cfg["gateset"]:
        jobs.append(CliJob(["gateset", "-n", str(n), *RECORDS], 0, workdir, _gateset_checker(n)))
    for k, (dense, n, steps) in enumerate(cfg["synth"]):
        h = random_hermitian(nrng, n) if dense else sparse_hamiltonian(nrng, n)
        path = workdir / f"h-{k}.mat"
        _write_matrix(path, h)
        argv = ["synth", "-n", str(n), "-N", str(steps), "-i", path.name, *RECORDS]
        jobs.append(CliJob(argv, 0, workdir, _synth_checker(n, steps, h)))
    for eps in cfg["eps"]:
        argv = ["power", "--angle", _angle_text(rng), "--eps", repr(eps), *RECORDS]
        jobs.append(CliJob(argv, 0, workdir, _power_checker(eps)))
    for argv, code in rng.sample(MALFORMED, cfg["malformed"]):
        argv = [a.replace("{nonhermitian}", nonhermitian.name) for a in argv]
        jobs.append(CliJob(argv + RECORDS, code, workdir))
    return jobs


def probe(tr, workdir: Path) -> None:
    """Start-up calls (interpreter plus ``import cliffgate``, no work) and the
    known-defect inputs, outside the timed loop; both are recorded as spans."""
    for _ in range(STARTUP_PROBES):
        with tr.span("cli.startup"):
            invoke(["-c", "import cliffgate"], workdir)
    for argv, code in KNOWN_DEFECTS:
        with tr.span("cli.known_defect") as c:
            call = invoke(["-m", "cliffgate.cli", *argv, *RECORDS], workdir)
            c["mismatch"] = int(call.code != code)

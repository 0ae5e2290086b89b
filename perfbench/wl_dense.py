"""The ``dense`` workload: matrix-layer and synthesis jobs, run in process
with warm caches.

Job kinds:

* ``synth``: decompose -> trotter -> error against expm_hermitian, which is
  what synthesize does, issued one call at a time so that each layer gets
  its own span.  Inputs are dense random Hermitians (all 4^n terms) and
  sparse nearest-neighbour Hamiltonians (4n-3 terms).  Both cost the same
  in decompose but differ about 4^n/n-fold in Trotter gate count.
* ``commutator_gate`` on seeded anticommuting label pairs;
* ``replay`` of certificates built at m = 8 during set-up;
* ``verify`` (verify_representation with its default settings);
* ``power`` (irrational_power on seeded angles).

The basis-matrix cache is per qubit count, so the synth kind is split by
qubit count and the warm-up runs one job of each.
"""

from __future__ import annotations

import math
import random

import numpy as np

from cliffgate import (
    BasisLabel,
    certificate,
    close,
    commutator_gate,
    decompose,
    expm_hermitian,
    irrational_power,
    minimal_power_scan,
    reconstruct,
    replay_certificate,
    trotter,
    universal_generators,
    verify_representation,
)
from cliffgate.synthesis import CoefficientVector, operator_distance

# The deck, in warm-up order (the first job of each kind warms it up).
# Step counts spread the synth costs geometrically, so that the latency
# percentiles fall among jobs of different cost (see wl_closure.CLASSES).
SYNTH = [  # (dense?, n, N)
    (True, 3, 4),
    (True, 3, 8),
    (True, 3, 32),
    (True, 4, 8),
    (True, 4, 16),
    (True, 5, 4),
    (False, 4, 4),
    (False, 4, 16),
    (False, 5, 32),
    (False, 6, 4),
    (False, 6, 16),
    (False, 6, 32),
]
COMMUTATOR_GATE_QUBITS = [3, 5]
REPLAYS = 2
VERIFY_QUBITS = [3, 4]
POWER_EPS = [1e-2, 1e-4, 1e-6, 1e-7]
SMOKE = dict(synth=[(True, 2, 4), (False, 3, 4)], cg=[2], replays=1, verify=[2], eps=[1e-3])

ATOL = 1e-12  # synthesize drops coefficients at or below this
TOL = 1e-10
SCAN_MIN_EPS = 1e-6  # the brute-force scan oracle is affordable down to here

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_matrix(letters: dict[int, str], n: int) -> np.ndarray:
    """Kronecker product with qubit 0 as the rightmost factor."""
    out = np.eye(1, dtype=complex)
    for q in reversed(range(n)):
        out = np.kron(out, _PAULI[letters.get(q, "I")])
    return out


def sparse_hamiltonian(rng: np.random.Generator, n: int) -> np.ndarray:
    """Nearest-neighbour XX+YY+ZZ couplings plus Z fields, random weights."""
    h = np.zeros((2**n, 2**n), dtype=complex)
    for q in range(n - 1):
        for p in "XYZ":
            h += rng.normal() * pauli_matrix({q: p, q + 1: p}, n)
    for q in range(n):
        h += rng.normal() * pauli_matrix({q: "Z"}, n)
    return h


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    return (a + a.conj().T) / 2


def commutator_bound(terms: list[tuple[BasisLabel, float]], steps: int) -> float:
    """First-order Trotter bound (1/2N) * sum over anticommuting pairs i<j
    of ||[a_i h_i, a_j h_j]|| = 2|a_i a_j|."""
    masks = np.array([label.mask for label, _ in terms], dtype=np.int64)
    alpha = np.abs(np.array([a for _, a in terms]))
    popcount = np.array([k.bit_count() for k in range(1 << terms[0][0].ambient)])
    order = popcount[masks]
    overlap = popcount[np.bitwise_and.outer(masks, masks)]
    anti = (np.multiply.outer(order, order) - overlap) % 2 == 1
    pair = np.triu(anti, 1) * np.multiply.outer(alpha, alpha)
    return float(2.0 * pair.sum() / (2 * steps))


class SynthJob:
    def __init__(self, h, n, steps, dense):
        self.kind = f"synth-n{n}"
        self.h, self.n, self.steps, self.dense = h, n, steps, dense

    def run(self, tr):
        with tr.span("matrices.decompose") as c:
            coeffs = decompose(self.h, self.n, tol=TOL)
            c["calls"] = 1
        vec = CoefficientVector(self.n, {k: a for k, a in coeffs.items() if abs(a) > ATOL})
        with tr.span("synthesis.trotter") as c:
            seq = trotter(vec, self.steps)
            c["calls"] = 1
            c["gates"] = len(seq.gates)
        with tr.span("matrices.expm_hermitian") as c:
            exact = expm_hermitian(self.h, 1.0, tol=TOL)
            c["calls"] = 1
        with tr.span("synthesis.sequence_matrix") as c:
            realized = seq.matrix()
            c["calls"] = 1
        with tr.span("synthesis.operator_distance") as c:
            error = operator_distance(realized, exact)
            c["calls"] = 1
        return coeffs, vec, seq, error

    def check(self, out) -> list[str]:
        coeffs, vec, seq, error = out
        errors = []
        scale = max(1.0, float(np.max(np.abs(self.h))))
        dev = float(np.max(np.abs(reconstruct(coeffs, self.n) - self.h)))
        if dev > TOL * scale:
            errors.append(f"reconstruct(decompose(h)) deviates by {dev:g} at n={self.n}")
        terms = vec.terms()
        want_terms = 4**self.n if self.dense else 4 * self.n - 3
        if len(terms) != want_terms or len(seq.gates) != self.steps * want_terms:
            errors.append(f"{len(seq.gates)} gates from {len(terms)} terms at n={self.n}")
        bound = commutator_bound(terms, self.steps)
        if not error <= bound + TOL:
            errors.append(f"Trotter error {error:g} exceeds the commutator bound {bound:g}")
        return errors

    def digest(self, out):
        return len(out[2].gates), out[3]

    def same(self, a, b) -> bool:
        return a[0] == b[0] and math.isclose(a[1], b[1], rel_tol=1e-9, abs_tol=1e-12)


class CommutatorGateJob:
    kind = "commutator_gate"

    def __init__(self, a, b, angle):
        self.a, self.b, self.angle = a, b, angle

    def run(self, tr):
        with tr.span("synthesis.commutator_gate") as c:
            seq = commutator_gate(self.a, self.b, self.angle)
            c["calls"] = 1
        return seq

    def check(self, seq) -> list[str]:
        if len(seq.gates) != 3 or not seq.error <= TOL:
            return [f"commutator gate for {self.a},{self.b}: error {seq.error:g}"]
        return []

    def digest(self, seq):
        return seq.error

    def same(self, a, b) -> bool:
        return abs(a - b) <= 1e-12


class ReplayJob:
    kind = "replay"

    def __init__(self, cert):
        self.cert = cert

    def run(self, tr):
        with tr.span("matrices.replay_certificate") as c:
            report = replay_certificate(self.cert, tol=TOL)
            c["calls"] = 1
        return report

    def check(self, report) -> list[str]:
        if report.steps != len(self.cert.steps) or not report.deviation <= TOL:
            return [f"replay of {self.cert.target}: deviation {report.deviation:g}"]
        return []

    def digest(self, report):
        return report.deviation

    def same(self, a, b) -> bool:
        return abs(a - b) <= 1e-12


class VerifyJob:
    kind = "verify"

    def __init__(self, n, seed):
        self.n, self.seed = n, seed

    def run(self, tr):
        with tr.span("matrices.verify_representation") as c:
            checks = verify_representation(self.n, seed=self.seed)
            c["calls"] = 1
        return checks

    def check(self, checks) -> list[str]:
        bad = [c.name for c in checks if not c.passed]
        if not checks or bad:
            return [f"verify_representation n={self.n} failed: {bad}"]
        return []

    def digest(self, checks):
        return tuple(c.passed for c in checks)

    def same(self, a, b) -> bool:
        return a == b


class PowerJob:
    kind = "power"

    def __init__(self, angle, eps):
        self.angle, self.eps = angle, eps

    def run(self, tr):
        with tr.span("synthesis.irrational_power") as c:
            result = irrational_power(self.angle, self.eps)
            c["calls"] = 1
        return result

    def check(self, r) -> list[str]:
        errors = []
        if not (r.applications >= 1 and r.residual < self.eps):
            errors.append(f"power of {self.angle!r}: N={r.applications} residual {r.residual:g}")
        if self.eps >= SCAN_MIN_EPS:
            scan = minimal_power_scan(self.angle, self.eps, cap=10**8)
            if scan.applications != r.applications:
                errors.append(
                    f"power of {self.angle!r} at eps {self.eps:g}: N={r.applications}, "
                    f"the scan finds {scan.applications}"
                )
        return errors

    def digest(self, r):
        return r.applications

    def same(self, a, b) -> bool:
        return a == b


def _anticommuting_pair(rng: np.random.Generator, n: int):
    m = 2 * n
    while True:
        a, b = (int(x) for x in rng.integers(1, 1 << m, size=2))
        la, lb = BasisLabel(a, m), BasisLabel(b, m)
        if (la.order * lb.order - (a & b).bit_count()) % 2:
            return la, lb


def build(seed: int, smoke: bool, workdir):
    rng = np.random.default_rng(random.Random(f"dense:{seed}").getrandbits(64))
    synth = SMOKE["synth"] if smoke else SYNTH
    cg_qubits = SMOKE["cg"] if smoke else COMMUTATOR_GATE_QUBITS
    replays = SMOKE["replays"] if smoke else REPLAYS
    verify = SMOKE["verify"] if smoke else VERIFY_QUBITS
    eps_list = SMOKE["eps"] if smoke else POWER_EPS
    m = 4 if smoke else 8
    result = close(universal_generators(m))
    labels = result.labels()
    jobs = []
    for dense, n, steps in synth:
        h = random_hermitian(rng, n) if dense else sparse_hamiltonian(rng, n)
        jobs.append(SynthJob(h, n, steps, dense))
    for n in cg_qubits:
        a, b = _anticommuting_pair(rng, n)
        jobs.append(CommutatorGateJob(a, b, float(rng.uniform(-math.pi, math.pi))))
    for _ in range(replays):
        target = labels[int(rng.integers(len(labels)))]
        jobs.append(ReplayJob(certificate(result, target)))
    for n in verify:
        jobs.append(VerifyJob(n, int(rng.integers(1 << 31))))
    for eps in eps_list:
        jobs.append(PowerJob(float(rng.uniform(0.05, 2 * math.pi - 0.05)), eps))
    return jobs

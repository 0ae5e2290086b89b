"""Gate-level constructions on top of the dense representation.

Every basis gate is the exponential of a hermitized basis element and has
the closed form

    U(label, t) = exp(i*t*h(label)) = cos(t)*I + i*sin(t)*M(h(label)),

valid because every hermitized element squares to the identity.  The +i
sign convention is used throughout.  On top of that closed form this
module builds: an exact three-gate conjugation realizing the exponential
of a commutator (no small-angle approximation), first-order product
formulas with measured operator-norm error, a power trick that turns one
fixed-angle gate into arbitrarily fine rotations when the angle is an
irrational multiple of pi, and the stock gate set whose members act on at
most two adjacent qubits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    BasisLabel,
    ParseError,
    ScaledElement,
    canonical_key,
    commutes,
    hermitize,
    parse_label,
)
from .closure import CapExceededError, GeneratorSet, chain_generators, close
from .matrices import (
    PauliFactorization,
    decompose,
    expm_hermitian,
    hermitized_matrix,
    pauli_factorization,
    reconstruct,
    signed_permutations,
)

__all__ = [
    "CapExceededError",
    "CoefficientVector",
    "Gate",
    "GateSequence",
    "GateSetEntry",
    "GateSetReport",
    "PowerResult",
    "basis_gate",
    "commutator_gate",
    "irrational_power",
    "local_gate_set",
    "minimal_power_scan",
    "operator_distance",
    "phase_aligned_distance",
    "signed_residual",
    "synthesize",
    "trotter",
]

TWO_PI = 2.0 * math.pi
ATOL = 1e-12  # synthesize drops coefficients at or below this


def operator_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Operator-norm distance (largest singular value of the difference).

    Sensitive to global phase, which is the default comparison; it
    composes under products, so per-gate errors bound sequence errors.
    """
    return float(np.linalg.norm(a - b, 2))


def phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Operator-norm distance after aligning a global phase.

    The phase is the Frobenius-optimal arg(trace(b^dag a)); for unitaries
    this is the standard phase-invariant comparison.
    """
    overlap = np.trace(b.conj().T @ a)
    phi = np.angle(overlap) if abs(overlap) > 0 else 0.0
    return operator_distance(a, np.exp(1j * phi) * b)


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"bad number {text!r} in gate-sequence text") from None


@dataclass(frozen=True)
class Gate:
    """exp(i*angle*h(label)): one closed-form basis gate."""

    label: BasisLabel
    angle: float

    @property
    def qubits(self) -> int:
        if self.label.ambient % 2:
            raise ValueError("gates need an even ambient count")
        return self.label.ambient // 2

    def matrix(self) -> np.ndarray:
        n = self.qubits
        return math.cos(self.angle) * np.eye(2**n, dtype=complex) + (
            1j * math.sin(self.angle)
        ) * hermitized_matrix(self.label, n)

    def __str__(self) -> str:
        return f"gate {self.label} {self.angle:.17g}"


@dataclass
class GateSequence:
    """Ordered gate list; the realized matrix multiplies left to right.

    ``gates[0]`` is the leftmost factor of the product.  ``error`` is the
    operator-norm distance to the construction's target, recomputable from
    the target description by the caller that built the sequence.
    """

    gates: tuple[Gate, ...]
    qubits: int
    target: str = ""
    error: float | None = None

    def matrix(self) -> np.ndarray:
        # Right-multiplying by cos(t) + i*sin(t)*M permutes and scales columns,
        # O(4^n) per gate; product formulas repeat labels, so each is built once.
        labels = list(dict.fromkeys(gate.label for gate in self.gates))
        perms, values = signed_permutations([hermitize(l) for l in labels], self.qubits)
        values = 1j * values
        row = {label: k for k, label in enumerate(labels)}
        out = np.eye(2**self.qubits, dtype=complex)
        for gate in self.gates:
            k = row[gate.label]
            out = math.cos(gate.angle) * out + math.sin(gate.angle) * out[:, perms[k]] * values[k]
        return out

    def to_text(self) -> str:
        lines = [str(g) for g in self.gates]
        if self.error is not None:
            lines.append(f"error {self.error:.17g}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, qubits: int) -> "GateSequence":
        gates: list[Gate] = []
        error = None
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            kind, _, rest = line.partition(" ")
            if kind == "gate":
                label_text, _, angle_text = rest.rpartition(" ")
                gates.append(Gate(parse_label(label_text, 2 * qubits), _float(angle_text)))
            elif kind == "error":
                error = _float(rest)
            else:
                raise ParseError(f"unknown gate-sequence record {kind!r}")
        return cls(gates=tuple(gates), qubits=qubits, error=error)


def basis_gate(label: BasisLabel, angle: float) -> Gate:
    return Gate(label, float(angle))


def commutator_gate(label_i: BasisLabel, label_j: BasisLabel, angle: float) -> GateSequence:
    """Three-gate conjugation realizing exp(-t * h_i h_j) exactly.

    For anticommuting hermitized elements a quarter-pi conjugation rotates
    the middle axis onto the product axis:

        U_i(pi/4) U_j(t) U_i(-pi/4) = exp(i*t * i*h_i*h_j)
                                    = exp(-t * h_i*h_j),

    which equals exp(i*t*[h_i, h_j]*i/2).  The identity is exact for every
    angle, not a small-angle approximation.  Commuting labels are refused:
    their commutator vanishes, so the construction degenerates and the
    caller should emit an identity gate instead.
    """
    if commutes(label_i, label_j):
        raise ValueError(
            f"labels {label_i} and {label_j} commute: the commutator vanishes and the "
            "conjugation collapses; emit an identity gate instead"
        )
    seq = GateSequence(
        gates=(
            Gate(label_i, math.pi / 4),
            Gate(label_j, float(angle)),
            Gate(label_i, -math.pi / 4),
        ),
        qubits=label_i.ambient // 2,
        target=f"exp(-{angle!r} * h{label_i} h{label_j})",
    )
    n = seq.qubits
    target = math.cos(angle) * np.eye(2**n, dtype=complex) - math.sin(angle) * (
        hermitized_matrix(label_i, n) @ hermitized_matrix(label_j, n)
    )
    seq.error = operator_distance(seq.matrix(), target)
    return seq


@dataclass
class CoefficientVector:
    """Real coefficients over hermitized basis labels for n qubits."""

    qubits: int
    coeffs: dict[BasisLabel, float] = field(default_factory=dict)

    def __post_init__(self):
        for label in self.coeffs:
            if label.ambient != 2 * self.qubits:
                raise ValueError(
                    f"label {label} over ambient {label.ambient} does not fit {self.qubits} qubits"
                )

    def terms(self) -> list[tuple[BasisLabel, float]]:
        """Nonzero entries in canonical label order."""
        return [
            (label, self.coeffs[label])
            for label in sorted(self.coeffs, key=canonical_key)
            if self.coeffs[label] != 0.0
        ]


def _product_formula(coeffs: CoefficientVector, steps: int) -> GateSequence:
    # the gate list of trotter and synthesize, before its error is measured
    if steps < 1:
        raise ValueError(f"step count must be >= 1, got {steps}")
    terms = coeffs.terms()
    block = tuple(Gate(label, alpha / steps) for label, alpha in terms)
    return GateSequence(
        gates=block * steps,
        qubits=coeffs.qubits,
        target=f"exp(i*H) for the {len(terms)}-term coefficient vector",
    )


def trotter(coeffs: CoefficientVector, steps: int) -> GateSequence:
    """First-order product formula for exp(i * sum_I alpha_I h_I).

    ``steps`` repetitions of the per-term gates at angles alpha_I/steps,
    terms in ascending canonical label order inside each repetition.  The
    reported error is the operator-norm distance to the exact exponential
    and shrinks like (sum alpha^2)/steps.
    """
    seq = _product_formula(coeffs, steps)
    target = expm_hermitian(reconstruct(dict(coeffs.terms()), coeffs.qubits), 1.0)
    seq.error = operator_distance(seq.matrix(), target)
    return seq


def synthesize(h: np.ndarray, steps: int, qubits: int, *, tol: float = 1e-10) -> GateSequence:
    """Decompose a Hermitian target and build the trotter gate list.

    Coefficients with |alpha| <= ATOL are dropped.  The reported error is
    measured against exp(i*h).  :func:`decompose` rejects a matrix of the
    wrong shape or with a Hermiticity defect above ``tol``.
    """
    coeffs = CoefficientVector(
        qubits,
        {label: a for label, a in decompose(h, qubits, tol=tol).items() if abs(a) > ATOL},
    )
    seq = _product_formula(coeffs, steps)
    seq.target = f"exp(i*H) for the supplied {2**qubits}x{2**qubits} Hermitian matrix"
    seq.error = operator_distance(seq.matrix(), expm_hermitian(h, 1.0, tol=tol))
    return seq


# ---------------------------------------------------------------------------
# Irrational-angle powers.


@dataclass(frozen=True)
class PowerResult:
    applications: int
    residual: float
    signed_angle: float


def signed_residual(theta: float) -> float:
    """theta reduced to (-pi, pi]; |result| is the circle distance to 0."""
    return math.remainder(theta, TWO_PI)


def _convergent_denominators(x: float, cap: int):
    # Denominators of the continued-fraction convergents of x.  These are
    # exactly the record-setting integers q minimizing |q*x mod 1| over all
    # smaller q, so scanning them in order finds the minimal power.
    q_prev, q_curr = 0, 1
    yield 1
    frac = x - math.floor(x)
    for _ in range(128):
        if frac < 1e-15:  # expansion exhausted float precision (or x rational)
            return
        r = 1.0 / frac
        a = int(r)
        frac = r - a
        q_prev, q_curr = q_curr, a * q_curr + q_prev
        if q_curr > cap:
            return
        yield q_curr


def irrational_power(angle: float, tolerance: float, *, cap: int = 10**9) -> PowerResult:
    """Smallest N >= 1 with N*angle within ``tolerance`` of a multiple of 2*pi.

    Walks the continued-fraction convergents of angle/(2*pi), which is both
    fast and provably minimal; a linear scan takes over if float precision
    runs out before a hit.  Raises :class:`CapExceededError` when no N at
    or below ``cap`` works.  The N-th power of the fixed-angle gate then
    equals the basis gate at the signed residual angle, so one irrational
    gate yields rotations finer than any requested tolerance.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    last = 0
    for q in _convergent_denominators((angle / TWO_PI) % 1.0, cap):
        r = signed_residual(q * angle)
        if abs(r) < tolerance:
            return PowerResult(q, abs(r), r)
        last = q
    return minimal_power_scan(angle, tolerance, cap=cap, start=last + 1)


def minimal_power_scan(
    angle: float, tolerance: float, *, cap: int = 10**7, start: int = 1
) -> PowerResult:
    """Brute-force minimal power search; the oracle for the fast path."""
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    chunk = 1 << 16
    n0 = start
    while n0 <= cap:
        ns = np.arange(n0, min(n0 + chunk, cap + 1), dtype=np.int64)
        r = np.mod(ns * angle + math.pi, TWO_PI) - math.pi
        hits = np.nonzero(np.abs(r) < tolerance)[0]
        if hits.size:
            k = int(hits[0])
            return PowerResult(int(ns[k]), float(abs(r[k])), float(r[k]))
        n0 += chunk
    raise CapExceededError(
        f"no power at or below cap {cap} brings {angle!r} within {tolerance!r} of 2*pi*Z"
    )


# ---------------------------------------------------------------------------
# The stock one- and two-qubit gate set.


@dataclass(frozen=True)
class GateSetEntry:
    element: ScaledElement
    factorization: PauliFactorization
    support: tuple[int, ...]
    local: bool


@dataclass
class GateSetReport:
    entries: list[GateSetEntry]
    all_local: bool
    dimension: int
    universal: bool


def local_gate_set(qubits: int) -> tuple[GeneratorSet, GateSetReport]:
    """The 2n+1 chain elements with a locality report.

    Every member touches at most two adjacent qubits, and the closure of
    the set still reaches all 4^n labels, so exponentials of these
    elements form a universal gate set built purely from one- and
    two-qubit interactions.
    """
    if qubits < 2:
        raise ValueError(f"the local gate set needs at least 2 qubits, got {qubits}")
    gens = chain_generators(2 * qubits)
    entries = []
    for el in gens.elements:
        fact = pauli_factorization(el, qubits)
        support = fact.support()
        local = len(support) <= 2 and (not support or support[-1] - support[0] <= 1)
        entries.append(GateSetEntry(el, fact, support, local))
    result = close(gens)
    report = GateSetReport(
        entries=entries,
        all_local=all(e.local for e in entries),
        dimension=result.dimension,
        universal=result.dimension == 1 << (2 * qubits),
    )
    return gens, report

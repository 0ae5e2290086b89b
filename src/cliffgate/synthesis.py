"""Gate-level constructions on top of the dense representation.

Every basis gate is the exponential of a hermitized basis element and has
the closed form

    U(label, t) = exp(i*t*h(label)) = cos(t)*I + i*sin(t)*M(h(label)),

valid because every hermitized element squares to the identity.  The +i
sign convention is used throughout.  On top of that closed form this
module builds: an exact three-gate conjugation realizing the exponential
of a commutator (no small-angle approximation) and first-order product
formulas with measured operator-norm error.  Qubit counts come from
:func:`cliffgate.algebra.qubit_count`, so an odd ambient is refused with
the same error everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    BasisLabel,
    ParseError,
    _require_qubits,
    canonical_key,
    commutes,
    hermitize,
    parse_label,
    qubit_count,
)
from .closure import CapExceededError
from .matrices import (
    decompose,
    expm_hermitian,
    hermitized_matrix,
    reconstruct,
    signed_permutations,
)

__all__ = [
    "CoefficientVector",
    "Gate",
    "GateSequence",
    "commutator_gate",
    "operator_distance",
    "phase_aligned_distance",
    "synthesize",
    "trotter",
]

ATOL = 1e-12  # synthesize drops coefficients at or below this
MAX_GATES = 1 << 20  # gates in one product formula; each is held, one block applied


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
        return qubit_count(self.label.ambient)

    def matrix(self) -> np.ndarray:
        n = self.qubits
        return math.cos(self.angle) * np.eye(2**n, dtype=complex) + (
            1j * math.sin(self.angle)
        ) * hermitized_matrix(self.label, n)

    def __str__(self) -> str:
        return f"gate {self.label} {self.angle:.17g}"


def _period(gates: tuple[Gate, ...]) -> int:
    """The smallest p >= 1 with ``gates == gates[:p] * (len(gates) // p)``.

    Only divisors d of the length whose gate d equals gate 0 are tried, in
    increasing order.  A repeated tuple holds the same Gate objects, which
    tuple equality matches by identity at C speed.
    """
    n = len(gates)
    low = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    for d in low + [n // d for d in reversed(low)]:
        if gates[d % n] == gates[0] and gates == gates[:d] * (n // d):
            return d
    return 1  # no gates: an empty block repeated zero times


@dataclass
class GateSequence:
    """Ordered gate list; the realized matrix multiplies left to right.

    ``gates[0]`` is the leftmost factor of the product.  ``error`` is the
    operator-norm distance to the target of the construction that built
    the sequence.
    """

    gates: tuple[Gate, ...]
    qubits: int
    error: float | None = None

    def matrix(self) -> np.ndarray:
        """The product of the gates, ``gates[0]`` leftmost.

        When the gates repeat one block, as a product formula's do, the
        block is evaluated once and raised to its repeat count by
        squaring: O(p*4^n + log(N)*8^n) for N blocks of p gates instead of
        O(N*p*4^n).  A sequence that does not repeat is one block of its
        own length.
        """
        period = _period(self.gates)
        block = self.gates[:period]
        # Right-multiplying by cos(t) + i*sin(t)*M permutes and scales columns,
        # O(4^n) per gate; a label can recur, so each is built once.
        labels = list(dict.fromkeys(gate.label for gate in block))
        perms, values = signed_permutations([hermitize(l) for l in labels], self.qubits)
        values = 1j * values
        row = {label: k for k, label in enumerate(labels)}
        out = np.eye(2**self.qubits, dtype=complex)
        for gate in block:
            k = row[gate.label]
            out = math.cos(gate.angle) * out + math.sin(gate.angle) * out[:, perms[k]] * values[k]
        return np.linalg.matrix_power(out, len(self.gates) // period)

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
    n = qubit_count(label_i.ambient)
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
        qubits=n,
    )
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
            _require_qubits(label, self.qubits)

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
    if steps * len(terms) > MAX_GATES:
        raise CapExceededError(
            f"a product formula of {steps * len(terms)} gates exceeds the gate budget {MAX_GATES}"
        )
    block = tuple(Gate(label, alpha / steps) for label, alpha in terms)
    return GateSequence(gates=block * steps, qubits=coeffs.qubits)


def trotter(coeffs: CoefficientVector, steps: int) -> GateSequence:
    """First-order product formula for exp(i * sum_I alpha_I h_I).

    ``steps`` repetitions of the per-term gates at angles alpha_I/steps,
    terms in ascending canonical label order inside each repetition.  The
    reported error is the operator-norm distance to the exact exponential
    and shrinks like (sum alpha^2)/steps.  Raises
    :class:`CapExceededError` before building more than ``MAX_GATES`` gates.
    """
    seq = _product_formula(coeffs, steps)
    target = expm_hermitian(reconstruct(dict(coeffs.terms()), coeffs.qubits), 1.0)
    seq.error = operator_distance(seq.matrix(), target)
    return seq


def synthesize(h: np.ndarray, steps: int, qubits: int) -> GateSequence:
    """Decompose a Hermitian target and build the trotter gate list.

    Coefficients with |alpha| <= ATOL are dropped.  The reported error is
    measured against exp(i*h).  :func:`decompose` rejects a matrix of the
    wrong shape or with a Hermiticity defect above its default 1e-10, and
    the gate budget applies as in :func:`trotter`.
    """
    coeffs = CoefficientVector(
        qubits,
        {label: a for label, a in decompose(h, qubits).items() if abs(a) > ATOL},
    )
    seq = _product_formula(coeffs, steps)
    seq.error = operator_distance(seq.matrix(), expm_hermitian(h, 1.0))
    return seq

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
    CapExceededError,
    _require_qubits,
    canonical_key,
    commutes,
    hermitize,
    qubit_count,
)
from .matrices import _hermitized, decompose, expm_hermitian, reconstruct, represent

__all__ = [
    "CoefficientVector",
    "Gate",
    "GateSequence",
    "commutator_gate",
    "operator_distance",
    "synthesize",
    "trotter",
]

ATOL = 1e-12  # synthesize drops coefficients at or below this
MAX_GATES = 1 << 20  # steps x terms of one product formula: the gate lines it writes


def operator_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Operator-norm distance (largest singular value of the difference).

    Sensitive to global phase; it composes under products, so per-gate
    errors bound sequence errors.
    """
    return float(np.linalg.norm(a - b, 2))


@dataclass(frozen=True)
class Gate:
    """exp(i*angle*h(label)): one closed-form basis gate."""

    label: BasisLabel
    angle: float

    @property
    def qubits(self) -> int:
        return qubit_count(self.label.ambient)

    def matrix(self) -> np.ndarray:
        return GateSequence((self,), self.qubits).matrix()

    def __str__(self) -> str:
        return f"gate {self.label} {self.angle:.17g}"


@dataclass
class GateSequence:
    """``repeats`` copies of one block of gates, ``repeats`` >= 0 (0 is the
    empty sequence); the realized matrix multiplies left to right.

    ``block[0]`` is the leftmost factor of the block.  A product formula is
    its per-term block and its step count; every other sequence is one
    block with ``repeats`` 1.  ``error`` is
    the operator-norm distance to the target of the construction that
    built the sequence.
    """

    block: tuple[Gate, ...]
    qubits: int
    repeats: int = 1
    error: float | None = None

    def __post_init__(self):
        if self.repeats < 0:
            raise ValueError(f"repeat count must be >= 0, got {self.repeats}")

    @property
    def gates(self) -> tuple[Gate, ...]:
        """Every gate in order: the block ``repeats`` times."""
        return self.block * self.repeats

    def matrix(self) -> np.ndarray:
        """The product of the gates, ``gates[0]`` leftmost.

        The block is evaluated once, its gates' signed permutations a chunk
        at a time (:func:`cliffgate.matrices._hermitized`), and raised to
        ``repeats`` by squaring: O(L*4^n + log(N)*8^n) for N blocks of L
        gates instead of O(N*L*4^n).
        """
        # Right-multiplying by cos(t) + i*sin(t)*M permutes and scales columns,
        # O(4^n) per gate.
        out = np.eye(2**self.qubits, dtype=complex)
        for part, perms, values in _hermitized([g.label for g in self.block], self.qubits):
            for gate, perm, vals in zip(self.block[part], perms, 1j * values):
                out = math.cos(gate.angle) * out + math.sin(gate.angle) * out[:, perm] * vals
        return np.linalg.matrix_power(out, self.repeats)

    def to_text(self) -> str:
        # the block's lines are formatted once and the text repeated
        text = "".join(f"{g}\n" for g in self.block) * self.repeats
        if self.error is not None:
            text += f"error {self.error:.17g}\n"
        return text


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
        (Gate(label_i, math.pi / 4), Gate(label_j, float(angle)), Gate(label_i, -math.pi / 4)), n
    )
    target = math.cos(angle) * np.eye(2**n, dtype=complex) - math.sin(angle) * (
        represent(hermitize(label_i)) @ represent(hermitize(label_j))
    )
    seq.error = operator_distance(seq.matrix(), target)
    return seq


@dataclass
class CoefficientVector:
    """Real coefficients over hermitized basis labels for n qubits."""

    qubits: int
    coeffs: dict[BasisLabel, float] = field(default_factory=dict)

    def __post_init__(self):
        _require_qubits(self.coeffs, self.qubits)

    def terms(self) -> list[tuple[BasisLabel, float]]:
        """Nonzero entries in canonical label order."""
        return [
            (label, self.coeffs[label])
            for label in sorted(self.coeffs, key=canonical_key)
            if self.coeffs[label] != 0.0
        ]


def _product_formula(terms: list, qubits: int, steps: int) -> GateSequence:
    # the block and step count of trotter and synthesize, from nonzero terms in canonical order
    if steps < 1:
        raise ValueError(f"step count must be >= 1, got {steps}")
    if steps * len(terms) > MAX_GATES:
        raise CapExceededError(
            f"a product formula of {steps * len(terms)} gates exceeds the gate budget {MAX_GATES}"
        )
    block = tuple(Gate(label, alpha / steps) for label, alpha in terms)
    return GateSequence(block, qubits, steps)


def trotter(coeffs: CoefficientVector, steps: int) -> GateSequence:
    """First-order product formula for exp(i * sum_I alpha_I h_I).

    One block of per-term gates at angles alpha_I/steps, terms in
    ascending canonical label order, repeated ``steps`` times.  The
    reported error is the operator-norm distance to the exact exponential
    and shrinks like (sum alpha^2)/steps.  Raises
    :class:`CapExceededError` when steps x terms exceeds ``MAX_GATES``.
    """
    terms = coeffs.terms()
    seq = _product_formula(terms, coeffs.qubits, steps)
    target = expm_hermitian(reconstruct(dict(terms), coeffs.qubits), 1.0)
    seq.error = operator_distance(seq.matrix(), target)
    return seq


def synthesize(h: np.ndarray, steps: int, qubits: int) -> GateSequence:
    """Decompose a Hermitian target and build the trotter sequence.

    Coefficients with |alpha| <= ATOL are dropped; the rest are already in
    canonical label order.  The reported error is measured against
    exp(i*h).  :func:`decompose` rejects a matrix of the wrong shape or
    with a Hermiticity defect above its default 1e-10, and the gate budget
    applies as in :func:`trotter`.
    """
    terms = [(label, a) for label, a in decompose(h, qubits).items() if abs(a) > ATOL]
    seq = _product_formula(terms, qubits, steps)
    seq.error = operator_distance(seq.matrix(), expm_hermitian(h, 1.0))
    return seq

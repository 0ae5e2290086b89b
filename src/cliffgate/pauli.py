"""Basis elements as Pauli monomials, in integer bit operations only.

Generator 2k maps to X_k Z_{<k} and generator 2k+1 to i X_k Z_{<=k} (the
Kronecker chains of :func:`cliffgate.matrices.gamma`), so every basis
label maps onto one Pauli monomial i^phase X^xmask Z^zmask, where bit q of
either mask refers to qubit q (:func:`pauli_monomial`, in closed form and
elementwise on an int or an integer array of masks).  Monomials multiply by

    (X^a Z^b)(X^c Z^d) = (-1)^|b & c| X^(a ^ c) Z^(b ^ d),

which this module uses to factor elements into per-qubit Pauli letters
(and so tell whether an element acts on at most two adjacent qubits) and
to replay certificates through an independent homomorphism: only the
arithmetic, since ``Certificate.replay`` holds the derivation rules.  A
factorization or replay reads its qubit count off the element's or the
certificate's ambient.  It builds no matrix and imports only
:mod:`cliffgate.algebra`, for the qubit rule and a coefficient's text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import ScaledElement, format_scalar, qubit_count

__all__ = [
    "PauliFactorization",
    "ReplayReport",
    "pauli_factorization",
    "pauli_monomial",
    "replay_certificate",
]


def pauli_monomial(masks, n: int):
    """(xmask, zmask, phase) with M(label) = i^phase X^xmask Z^zmask for
    label masks over 2n generators, elementwise on an int or an int array.

    Generator 2k is X_k Z_{<k} and 2k+1 is i X_k Z_{<=k}.  In ascending
    order no earlier Z reaches the qubit of a later X, so the product
    picks up no sign: bit q of xmask is the parity of mask bits 2q and
    2q+1, bit q of zmask that of the mask bits above 2q, and phase counts
    the odd generators mod 4.
    """
    x = z = phase = above = masks & 0
    for q in reversed(range(n)):  # highest qubit first, carrying the parity above
        even, odd = masks >> 2 * q & 1, masks >> 2 * q + 1 & 1
        above = above ^ odd
        x, z = x | (even ^ odd) << q, z | above << q
        above, phase = above ^ even, phase + odd
    return x, z, phase & 3


@dataclass(frozen=True)
class PauliFactorization:
    """Per-qubit Pauli letters plus a global coefficient i^phase * 2^pow2.

    ``factors`` is written leftmost = highest qubit, matching the Kronecker
    convention of :mod:`cliffgate.matrices`, so ``factors[-1]`` acts on
    qubit 0.
    """

    phase: int
    pow2: int
    factors: str

    def support(self) -> tuple[int, ...]:
        n = len(self.factors)
        return tuple(sorted(n - 1 - i for i, f in enumerate(self.factors) if f != "I"))

    @property
    def local(self) -> bool:
        """True iff the letters act on at most two adjacent qubits."""
        return len(self.factors.strip("I")) <= 2

    def __str__(self) -> str:
        return format_scalar(self.phase, self.pow2, self.factors)


def pauli_factorization(elem: ScaledElement) -> PauliFactorization:
    """Factor a scaled basis element into one Pauli letter per qubit of its ambient."""
    n = qubit_count(elem.ambient)
    if elem.is_zero:
        raise ValueError("the zero element has no Pauli factorization")
    x, z, phase = pauli_monomial(elem.label.mask, n)
    # a qubit in both masks is X Z = -i Y
    letters = "".join("IXZY"[(x >> q & 1) | (z >> q & 1) << 1] for q in reversed(range(n)))
    return PauliFactorization((elem.phase + phase - (x & z).bit_count()) % 4, elem.pow2, letters)


# ---------------------------------------------------------------------------
# Certificate replay.  A nonzero scaled element's matrix is the monomial
# (xmask, zmask, phase, pow2) = i^phase 2^pow2 X^xmask Z^zmask, and a
# vanishing bracket is None.

def _monomial(elem: ScaledElement, n: int):
    x, z, phase = pauli_monomial(elem.label.mask, n)
    return x, z, (phase + elem.phase) & 3, elem.pow2


def _bracket(a, b):
    # AB and BA differ by (-1)^(|za & xb| + |xa & zb|): the commutator is
    # zero when that is +1 and 2AB otherwise
    xa, za, pa, ea = a
    xb, zb, pb, eb = b
    swap = (za & xb).bit_count()
    if (swap + (xa & zb).bit_count()) & 1 == 0:
        return None
    return xa ^ xb, za ^ zb, (pa + pb + 2 * swap) & 3, ea + eb + 1


@dataclass
class ReplayReport:
    """``deviation`` is 0.0 when every step and the target reproduce the
    recorded elements exactly and ``math.inf`` otherwise."""

    deviation: float
    steps: int


def replay_certificate(cert, *, tol: float = 1e-10) -> ReplayReport:
    """Re-run a derivation on Pauli monomials and compare against its target.

    ``Certificate.replay`` walks the steps with ``_monomial`` as the form
    and ``_bracket`` as the commutator.  A monomial (xmask, zmask, phase
    mod 4, pow2) determines its matrix and back, so the comparisons are
    plain tuple equality and the deviation is 0.0 when all of them hold
    and ``math.inf`` otherwise.  Raises on odd ambient (no matrix form)
    and wherever the walk raises.  ``tol`` is unused.
    """
    n = qubit_count(cert.ambient)
    failures = list(cert.replay(lambda el: _monomial(el, n), _bracket))
    return ReplayReport(deviation=math.inf if failures else 0.0, steps=len(cert.steps))

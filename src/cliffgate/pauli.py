"""Basis elements as Pauli monomials, in integers only.

Generator 2k maps to X_k Z_{<k} and generator 2k+1 to i X_k Z_{<=k} (the
Kronecker chains of :func:`cliffgate.matrices.gamma`), so every basis
label maps onto one Pauli monomial i^phase X^xmask Z^zmask, where bit q of
either mask refers to qubit q.  Monomials multiply by

    (X^a Z^b)(X^c Z^d) = (-1)^|b & c| X^(a ^ c) Z^(b ^ d),

which this module uses to factor elements into per-qubit Pauli letters
(and so tell whether an element acts on at most two adjacent qubits) and
to replay certificates through an independent homomorphism, all without
building a matrix.  The qubit count of an ambient and the text and value
of a coefficient i^phase * 2^pow2 come from :mod:`cliffgate.algebra`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import (
    BasisLabel,
    ScaledElement,
    _require_qubits,
    _scalar_value,
    _scaled_text,
    hermitize,
    qubit_count,
)

__all__ = [
    "PauliFactorization",
    "ReplayReport",
    "pauli_factorization",
    "pauli_monomial",
    "replay_certificate",
]


def pauli_monomial(label: BasisLabel) -> tuple[int, int, int]:
    """(xmask, zmask, phase) with M(label) = i^phase X^xmask Z^zmask.

    Generator 2k is X_k Z_{<k} and generator 2k+1 is i X_k Z_{<=k}; the
    ordered product follows from (X^a Z^b)(X^c Z^d) = (-1)^|b & c|
    X^(a ^ c) Z^(b ^ d).
    """
    x = z = phase = 0
    mask = label.mask
    while mask:
        j = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        k = j >> 1
        phase += (j & 1) + 2 * (z >> k & 1)
        x ^= 1 << k
        z ^= (1 << (k + (j & 1))) - 1
    return x, z, phase % 4


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

    def matrix(self):
        """The Kronecker product of the letters (the oracle's form; loads numpy)."""
        from .matrices import PAULI, _kron_chain

        coeff = _scalar_value(self.phase, self.pow2)
        return coeff * _kron_chain([PAULI[f] for f in self.factors])

    def __str__(self) -> str:
        return _scaled_text(self.phase, self.pow2, self.factors)


def pauli_factorization(elem: ScaledElement, n: int) -> PauliFactorization:
    """Factor a scaled basis element into per-qubit Paulis symbolically."""
    _require_qubits(elem, n)
    if elem.is_zero:
        raise ValueError("the zero element has no Pauli factorization")
    x, z, phase = pauli_monomial(elem.label)
    # a qubit in both masks is X Z = -i Y
    letters = "".join("IXZY"[(x >> q & 1) | (z >> q & 1) << 1] for q in reversed(range(n)))
    return PauliFactorization((elem.phase + phase - (x & z).bit_count()) % 4, elem.pow2, letters)


# ---------------------------------------------------------------------------
# Certificate replay.  A scaled element's matrix is the monomial
# (xmask, zmask, phase, pow2) = i^phase 2^pow2 X^xmask Z^zmask; None is the
# zero matrix.

def _monomial(elem: ScaledElement):
    if elem.is_zero:
        return None
    x, z, phase = pauli_monomial(elem.label)
    return x, z, (phase + elem.phase) & 3, elem.pow2


def _bracket(a, b):
    # AB and BA differ by (-1)^(|za & xb| + |xa & zb|): the commutator is
    # zero when that is +1 and 2AB otherwise
    if a is None or b is None:
        return None
    xa, za, pa, ea = a
    xb, zb, pb, eb = b
    swap = (za & xb).bit_count()
    if (swap + (xa & zb).bit_count()) & 1 == 0:
        return None
    return xa ^ xb, za ^ zb, (pa + pb + 2 * swap) & 3, ea + eb + 1


def _deviation(a, b) -> float:
    # Largest entry of |M(a) - M(b)|.  The matrices are signed permutations:
    # entries 2^pow2 at (c ^ xmask, c) with sign i^phase (-1)^|zmask & c|, so
    # different xmasks never overlap, and different zmasks agree in sign on
    # some columns and disagree on others.  The coefficients are scaled by
    # the larger power of two first, so no float overflows before the end.
    if a == b:
        return 0.0
    if a is None or b is None:
        return _times_pow2(1.0, (a or b)[3])
    top = max(a[3], b[3])
    if a[0] != b[0]:
        return _times_pow2(1.0, top)
    # a coefficient 2^-1074 below the other one vanishes in the sums below,
    # so clamping there leaves the result as it is
    ca, cb = (_scalar_value(m[2], max(m[3] - top, -1074)) for m in (a, b))
    if a[1] != b[1]:
        return _times_pow2(max(abs(ca - cb), abs(ca + cb)), top)
    return _times_pow2(abs(ca - cb), top)


def _times_pow2(r: float, k: int) -> float:
    # r * 2^k for r > 0, saturated: inf above the float range and the least
    # positive float below it, so a disagreement never reads as 0.0
    try:
        return math.ldexp(r, k) or math.ulp(0.0)
    except OverflowError:
        return math.inf


@dataclass
class ReplayReport:
    deviation: float
    steps: int


def replay_certificate(cert, *, tol: float = 1e-10) -> ReplayReport:
    """Re-run a derivation in matrix form and compare against its target.

    Each step recomputes the commutator of its parents' Pauli monomials and
    is compared with the recorded exact coefficient; the final monomial must
    equal the recorded scalar times the hermitized target.  The deviation
    is the largest entry difference of the two matrices, 0.0 exactly when
    they agree.  Raises on odd ambient (no matrix form), on a parent used
    before its derivation and on a target never derived.  ``tol`` is
    accepted and unused: the comparison is exact.
    """
    qubit_count(cert.ambient)
    forms = {g.label: _monomial(g) for g in cert.generators}
    worst = 0.0
    for step in cert.steps:
        for parent in (step.parent_a, step.parent_b):
            if parent not in forms:
                raise ValueError(f"step parent {parent} appears before its derivation")
        form = _bracket(forms[step.parent_a], forms[step.parent_b])
        worst = max(worst, _deviation(form, _monomial(step.element)))
        forms[step.result] = form
    if cert.target in forms:
        final = forms[cert.target]
    elif cert.target.order:
        raise ValueError("certificate never derives its target")
    else:
        final = (0, 0, 0, 0)  # the unit is the empty derivation
    x, z, phase, _ = _monomial(hermitize(cert.target))
    expected = (x, z, (phase + cert.scalar_phase) & 3, cert.scalar_pow2)
    return ReplayReport(deviation=max(worst, _deviation(final, expected)), steps=len(cert.steps))

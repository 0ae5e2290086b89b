import numpy as np

from cliffgate import BasisLabel, ScaledElement, all_labels
from cliffgate.algebra import qubit_count
from cliffgate.matrices import hermitized_matrix, represent


def label(indices, ambient):
    return BasisLabel.from_indices(indices, ambient)


def elem(indices, ambient, phase=0, pow2=0):
    return ScaledElement(BasisLabel.from_indices(indices, ambient), phase=phase, pow2=pow2)


def labels_upto(ambient):
    return list(all_labels(ambient))


def inversions(a_mask, b_mask):
    """Pairs (i in a, j in b) with i > j: the transpositions that sort the
    concatenated index sequences, counted one b index at a time."""
    count = 0
    b = b_mask
    while b:
        low = b & -b
        count += (a_mask >> low.bit_length()).bit_count()
        b ^= low
    return count


def oracle_product(a, b):
    """Single-term product through the public constructors, with the sign
    from the full inversion count."""
    assert a.ambient == b.ambient
    if a.is_zero or b.is_zero:
        return ScaledElement.zero(a.ambient)
    swaps = inversions(a.label.mask, b.label.mask)
    return ScaledElement(
        BasisLabel(a.label.mask ^ b.label.mask, a.ambient),
        phase=a.phase + b.phase + 2 * swaps,
        pow2=a.pow2 + b.pow2,
    )


def oracle_commutator(a, b):
    """[a, b] computed as ab - ba from two oracle products."""
    ab, ba = oracle_product(a, b), oracle_product(b, a)
    if ab == ba:
        return ScaledElement.zero(a.ambient)
    return ScaledElement(ab.label, ab.phase, ab.pow2 + 1)


def maxabs(m):
    return float(np.max(np.abs(m)))


def oracle_replay(cert):
    """Certificate replay with dense matrices: each step's commutator from
    two matmuls, the worst max-abs entry deviation from the recorded
    elements and from the scalar times the hermitized target, and the step
    count."""
    n = qubit_count(cert.ambient)
    mats = {g.label: represent(g, n) for g in cert.generators}
    worst = 0.0
    for step in cert.steps:
        for parent in (step.parent_a, step.parent_b):
            if parent not in mats:
                raise ValueError(f"step parent {parent} appears before its derivation")
        m = mats[step.parent_a] @ mats[step.parent_b] - mats[step.parent_b] @ mats[step.parent_a]
        worst = max(worst, maxabs(m - represent(step.element, n)))
        mats[step.result] = m
    final = mats.get(cert.target)
    if final is None:
        if cert.target.order:
            raise ValueError("certificate never derives its target")
        final = np.eye(2**n, dtype=complex)  # the unit is the empty derivation
    worst = max(worst, maxabs(final - cert.scalar * hermitized_matrix(cert.target, n)))
    return worst, len(cert.steps)

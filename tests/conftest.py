import numpy as np

from cliffgate import BasisLabel, ScaledElement, all_labels


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


def random_hermitian(n, rng):
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    return (a + a.conj().T) / 2


def maxabs(m):
    return float(np.max(np.abs(m)))

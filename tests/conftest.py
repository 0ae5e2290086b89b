import os
import resource
import signal
import subprocess
import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from cliffgate import BasisLabel, ScaledElement, all_labels, commutator, hermitize, matrices
from cliffgate.algebra import AmbientMismatchError, _scalar_value, hermitization_phase, qubit_count
from cliffgate.matrices import (
    PAULI,
    CheckResult,
    _generator_defects,
    _kron_chain,
    _signs,
    decompose,
    gamma,
    hermiticity_defect,
    random_hermitian,
    reconstruct,
    recursive_construct,
    represent,
    signed_permutations,
)
from cliffgate.pauli import pauli_factorization, pauli_monomial


TEST_SECONDS = 120  # a test's time limit; the slowest takes about 5 s


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past TEST_SECONDS (a SIGALRM timer), so one
    that hangs ends as a failure instead of holding up the whole run."""

    def expire(signum, frame):
        pytest.fail(f"the test ran past its limit of {TEST_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def label(indices, ambient):
    return BasisLabel.from_indices(indices, ambient)


def elem(indices, ambient, phase=0, pow2=0):
    return ScaledElement(BasisLabel.from_indices(indices, ambient), phase=phase, pow2=pow2)


def labels_upto(ambient):
    return list(all_labels(ambient))


# a label that no 2-qubit term or gate may hold, the error it raises and its text
STRAYS = [
    pytest.param(label([0], 6), AmbientMismatchError, "does not fit 2 qubits", id="even"),
    pytest.param(label([0], 5), ValueError, "ambient 5 is odd", id="odd"),
]


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


def gamma_product(lab, n):
    """The oracle: ordered product of the Kronecker-chain generators."""
    return reduce(np.matmul, [gamma(k, n) for k in lab.indices], np.eye(2**n, dtype=complex))


def chunk_sizes(monkeypatch, module):
    """Spy on ``module._chunks``: every call appends the sizes of the chunks
    it yields, one list per call, to the returned list."""
    calls = []
    chunks = matrices._chunks

    def spy(items, item_bytes):
        parts = list(chunks(items, item_bytes))
        calls.append([len(part) for part in parts])
        return iter(parts)

    monkeypatch.setattr(module, "_chunks", spy)
    return calls


def coefficient_permutations(elems, n):
    """``signed_permutations`` with every coefficient read one element at a
    time as ``el.coefficient``."""
    x, z, phase = pauli_monomial(np.array([el.label.mask for el in elems], dtype=np.int64), n)
    coeffs = np.array([el.coefficient for el in elems], dtype=complex) * 1j**phase
    idx = np.arange(2**n)
    return idx ^ x[:, None], coeffs[:, None] * _signs(idx, z[:, None])


def run_limited(*argv, limit=3 << 30, timeout=120):
    """``python -m cliffgate.cli *argv`` in a child process whose address
    space is capped at ``limit`` bytes, so a run that tries to allocate too
    much fails fast in the child instead of exhausting the machine."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-m", "cliffgate.cli", *argv],
        capture_output=True, text=True, preexec_fn=cap, timeout=timeout,
        env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1"),
    )


def maxabs(m):
    return float(np.max(np.abs(m)))


def unitarity_defect(u):
    return maxabs(u.conj().T @ u - np.eye(u.shape[0]))


def oracle_audit(result):
    """``ClosureResult.audit_closed`` on objects: the commutator of every
    ordered pair of representatives, built in full; True iff none of them
    leaves the closure."""
    labels = result.labels()
    for a in labels:
        ra = result.representatives[a]
        for b in labels:
            c = commutator(ra, result.representatives[b])
            if not c.is_zero and c.label not in result.representatives:
                return False
    return True


def pauli_matrix(fact):
    """The Kronecker product of a ``PauliFactorization``'s letters times its
    coefficient, formed as ``verify_representation`` forms it."""
    return _scalar_value(fact.phase, fact.pow2) * _kron_chain([PAULI[f] for f in fact.factors])


def oracle_replay(cert):
    """Certificate replay with dense matrices: each step's commutator from
    two matmuls, the worst max-abs entry deviation from the recorded
    elements and from the scalar times the hermitized target, and the step
    count."""
    n = qubit_count(cert.ambient)
    mats = {g.label: represent(g) for g in cert.generators.elements}
    worst = 0.0
    for step in cert.steps:
        for parent in (step.parent_a, step.parent_b):
            if parent not in mats:
                raise ValueError(f"step parent {parent} appears before its derivation")
        m = mats[step.parent_a] @ mats[step.parent_b] - mats[step.parent_b] @ mats[step.parent_a]
        worst = max(worst, maxabs(m - represent(step.element)))
        mats[step.element.label] = m
    final = mats.get(cert.target)
    if final is None:
        if cert.target.order:
            raise ValueError("certificate never derives its target")
        final = np.eye(2**n, dtype=complex)  # the unit is the empty derivation
    scalar = _scalar_value(cert.scalar_phase, cert.scalar_pow2)
    worst = max(worst, maxabs(final - scalar * represent(hermitize(cert.target))))
    return worst, len(cert.steps)


def loop_monomial(label):
    """(xmask, zmask, phase) with M(label) = i^phase X^xmask Z^zmask, one
    generator at a time: each set bit, lowest first, multiplied on by
    (X^a Z^b)(X^c Z^d) = (-1)^|b & c| X^(a ^ c) Z^(b ^ d)."""
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


def loop_decompose(h, n):
    """``decompose`` one label at a time: the same gathered traces, each
    label's read at its ``loop_monomial`` in canonical order."""
    dim = 2**n
    idx = np.arange(dim)
    traces = h[idx, idx ^ idx[:, None]] @ _signs(idx[:, None], idx)
    coeffs = {}
    for label in all_labels(2 * n):
        x, z, phase = loop_monomial(label)
        phase += hermitization_phase(label.order)
        coeffs[label] = float(((1j ** (phase % 4)) * traces[x, z]).real) / dim
    return coeffs


def loop_reconstruct(coeffs, n):
    """``reconstruct`` one term at a time: each nonzero term's signed
    permutation added in turn, in coefficient order."""
    terms = [(lab, alpha) for lab, alpha in coeffs.items() if alpha]
    perms, values = signed_permutations([hermitize(lab) for lab, _ in terms], n)
    idx = np.arange(2**n)
    out = np.zeros((2**n, 2**n), dtype=complex)
    for (_, alpha), perm, vals in zip(terms, perms, values):
        out[perm, idx] += alpha * vals
    return out


def dense_verify(n, seed=0):
    """``verify_representation`` on dense stacks: the same draws and the same
    checks, with every matrix formed entry by entry and every product a
    matmul.  The symbolic side is read from ``cliffgate.matrices`` at call
    time, so a corruption patched in there reaches both sweeps."""
    M = matrices
    rng = np.random.default_rng(seed)
    eye = np.eye(2**n)
    results = []

    def add(name, deviation, tolerance, extra_ok=True):
        results.append(
            CheckResult(name, float(deviation), tolerance, bool(deviation <= tolerance) and extra_ok)
        )

    def stack(elems):
        perms, values = signed_permutations(list(elems), n)
        out = np.zeros((len(perms), 2**n, 2**n), dtype=complex)
        out[np.arange(len(perms))[:, None], perms, np.arange(2**n)] = values
        return out

    gammas = [gamma(k, n) for k in range(2 * n)]
    add("clifford-relations", _generator_defects(gammas, eye)[0], M.TOL_STRICT)
    add("generator-hermiticity", max(hermiticity_defect(g) for g in gammas), M.TOL_STRICT)

    # a label is drawn as its mask, as verify_representation draws it
    ambient, count = 2 * n, 4**n
    drawn = range(count)
    if count > M.SAMPLE_CAP:
        drawn = rng.integers(0, count, size=M.SAMPLE_CAP).tolist()
    herm_dev = square_dev = fact_dev = 0.0
    for mask in drawn:
        lab = BasisLabel(mask, ambient)
        el = M.hermitize(lab)
        m = represent(el)
        oracle = el.coefficient * reduce(np.matmul, [gammas[k] for k in lab.indices], eye)
        herm_dev = max(herm_dev, hermiticity_defect(m))
        square_dev = max(square_dev, maxabs(m @ m - eye))
        letters = pauli_matrix(pauli_factorization(el))
        fact_dev = max(fact_dev, maxabs(m - oracle), maxabs(letters - oracle))
    add("hermitized-hermiticity", herm_dev, M.TOL_EXACT)
    add("hermitized-squares", square_dev, M.TOL_EXACT)

    if count**2 <= M.SAMPLE_CAP:
        draws = [(a, b) for a in range(count) for b in range(count)]
    else:
        draws = rng.integers(0, count, size=(M.SAMPLE_CAP, 2)).tolist()
    pairs = [(BasisLabel(a, ambient), BasisLabel(b, ambient)) for a, b in draws]
    prod_dev = comm_dev = dich_dev = trace_dev = 0.0
    dich_ok = True
    chunk = max(1, (1 << 14) // 4**n)
    for start in range(0, len(pairs), chunk):
        part = pairs[start : start + chunk]
        ea = [ScaledElement(a) for a, _ in part]
        eb = [ScaledElement(b) for _, b in part]
        ma, mb = stack(ea), stack(eb)
        m_prod, m_comm = stack(map(M.product, ea, eb)), stack(map(M.commutator, ea, eb))
        ab, ba = ma @ mb, mb @ ma
        prod_dev = max(prod_dev, maxabs(ab - m_prod))
        comm_dev = max(comm_dev, maxabs(ab - ba - m_comm))
        c_norm = np.max(np.abs(ab - ba), axis=(1, 2))
        a_norm = np.max(np.abs(ab + ba), axis=(1, 2))
        dich_dev = max(dich_dev, float(np.max(np.minimum(c_norm, a_norm))))
        dich_ok &= all((c <= M.TOL_EXACT) == M.commutes(a, b) for c, (a, b) in zip(c_norm, part))
        phases = [M.hermitization_phase(a.order) + M.hermitization_phase(b.order) for a, b in part]
        traces = 1j ** np.array(phases) * np.trace(ab, axis1=1, axis2=2)
        expect = np.array([2.0**n if a == b else 0.0 for a, b in part])
        trace_dev = max(trace_dev, maxabs(traces - expect))
    add("product-homomorphism", prod_dev, M.TOL_EXACT)
    add("commutator-homomorphism", comm_dev, M.TOL_EXACT)
    add("commutation-dichotomy", dich_dev, M.TOL_EXACT, extra_ok=dich_ok)
    add("trace-orthogonality", trace_dev, M.TOL_EXACT)
    add("factorization-consistency", fact_dev, M.TOL_EXACT)

    add("recursive-generators", max(_generator_defects(recursive_construct(n), eye)), M.TOL_STRICT)

    h = random_hermitian(n, rng)
    coeffs = decompose(h, n, tol=M.TOL_ROUNDTRIP)
    add("decompose-roundtrip", maxabs(reconstruct(coeffs, n) - h), M.TOL_ROUNDTRIP)
    return results

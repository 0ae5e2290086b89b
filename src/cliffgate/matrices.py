"""Dense matrix representation on qubits.

Generators are realized as Kronecker products of Pauli matrices,

    G_{2k}   = I^(n-k-1) (x) sx (x) sz^k,
    G_{2k+1} = I^(n-k-1) (x) sy (x) sz^k,

read left to right with the leftmost factor acting on the highest-index
qubit (qubit 0 is the rightmost factor and bit 0 of a row index).  All 2n
generators are Hermitian, square to the identity and pairwise anticommute,
so symbolic values from :mod:`cliffgate.algebra` map onto 2^n x 2^n
complex matrices by an exact homomorphism.  Every matrix here is built from
a basis element's Pauli monomial i^phase X^x Z^z
(:func:`cliffgate.pauli.pauli_monomial`); the Kronecker chains of
:func:`gamma` serve only as the checks' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Mapping, Sequence

import numpy as np

from .algebra import (
    BasisLabel,
    ParseError,
    ScaledElement,
    _require_qubits,
    all_labels,
    commutator,
    commutes,
    hermitization_phase,
    hermitize,
    product,
)
from .pauli import pauli_factorization, pauli_monomial

__all__ = [
    "CheckResult",
    "decompose",
    "exponent_coincidence_report",
    "expm_hermitian",
    "format_matrix",
    "gamma",
    "hermiticity_defect",
    "hermitized_matrix",
    "parse_matrix",
    "random_hermitian",
    "recursive_construct",
    "reconstruct",
    "represent",
    "signed_permutations",
    "unitarity_defect",
    "verify_representation",
]

_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"I": _I2, "X": _SX, "Y": _SY, "Z": _SZ}

# verify_representation: tolerances of the generator checks, the label
# checks and the decomposition round trip of an exactly Hermitian matrix,
# and the pair count above which label pairs are sampled
TOL_STRICT = 1e-14
TOL_EXACT = 1e-12
TOL_ROUNDTRIP = 1e-10
SAMPLE_CAP = 4096


def _kron_chain(factors) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for f in factors:
        out = np.kron(out, f)
    return out


def gamma(k: int, n: int) -> np.ndarray:
    """Matrix of the k-th generator on n qubits, 0 <= k < 2n (the oracle)."""
    if not 0 <= k < 2 * n:
        raise ValueError(f"generator index {k} out of range for {n} qubits")
    q = k // 2
    return _kron_chain([_I2] * (n - q - 1) + [_SY if k % 2 else _SX] + [_SZ] * q)


def _signs(a, b) -> np.ndarray:
    # (-1)^|a & b| elementwise: entries of the Sylvester-Hadamard matrix.
    return 1.0 - 2.0 * (np.bitwise_count(a & b) & 1)


def signed_permutations(
    elems: Sequence[ScaledElement], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Matrices of scaled elements: M_k[perms[k, c], c] = values[k, c], else 0.

    So ``(a @ M_k)[:, c] == a[:, perms[k, c]] * values[k, c]``; perms[k] is
    c ^ xmask, and the zero element has all-zero values.
    """
    for el in elems:
        _require_qubits(el, n)
    forms = [pauli_monomial(el.label) for el in elems]
    coeffs = np.array([el.coefficient * 1j ** f[2] for el, f in zip(elems, forms)], dtype=complex)
    masks = np.array(forms, dtype=np.int64).reshape(-1, 3)
    idx = np.arange(2**n)
    return idx ^ masks[:, :1], coeffs[:, None] * _signs(idx, masks[:, 1:2])


def _stack(elems: Sequence[ScaledElement], n: int) -> np.ndarray:
    # dense matrices of the elements, stacked along a new first axis
    perms, values = signed_permutations(elems, n)
    out = np.zeros((len(elems), 2**n, 2**n), dtype=complex)
    out[np.arange(len(elems))[:, None], perms, np.arange(2**n)] = values
    return out


def represent(elem: ScaledElement, n: int) -> np.ndarray:
    """Dense matrix of a scaled basis element on n qubits (a fresh array)."""
    return _stack([elem], n)[0]


def hermitized_matrix(label: BasisLabel, n: int) -> np.ndarray:
    return represent(hermitize(label), n)


def recursive_construct(n: int) -> list[np.ndarray]:
    """Generators built by the tensor-step recursion instead of directly.

    Base case n=1 is the Pauli pair (sx, sy).  Given the 2n generators g_k
    of the n-qubit algebra, the (n+1)-qubit generators are I (x) sx,
    I (x) sy and the 2n products g_k (x) h, where h is the hermitized
    top element of the one-qubit algebra.  The output satisfies the same
    anticommutation relations as :func:`gamma` and is related to it by a
    unitary change of basis.
    """
    if n < 1:
        raise ValueError("qubit count must be >= 1")
    gens = [_SX.copy(), _SY.copy()]
    h = hermitized_matrix(BasisLabel(0b11, 2), 1)
    for m in range(1, n):
        eye = np.eye(2**m, dtype=complex)
        gens = [np.kron(eye, _SX), np.kron(eye, _SY)] + [np.kron(g, h) for g in gens]
    return gens


def hermiticity_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def unitarity_defect(u: np.ndarray) -> float:
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def _require_hermitian(h: np.ndarray, tol: float) -> None:
    if not np.isfinite(h).all():
        raise ValueError("matrix has a non-finite entry")
    # Every trace, row sum and eigenvalue is bounded by rows * max |entry|,
    # so below this limit none of them overflows.
    largest = float(np.max(np.abs(h), initial=0.0))
    limit = np.finfo(float).max / max(len(h), 1)
    if largest > limit:
        raise ValueError(
            f"matrix entry of magnitude {largest:.3g} is too large: sums of "
            f"{len(h)} entries can overflow (limit {limit:.3g})"
        )
    defect = hermiticity_defect(h)
    if defect > tol:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3g} > {tol:.3g})")


def expm_hermitian(h: np.ndarray, tau: float, *, tol: float = 1e-10) -> np.ndarray:
    """exp(i * tau * h) for Hermitian h, via eigendecomposition.

    Unitary up to floating error by construction; raises on non-Hermitian
    input (defect above ``tol``).
    """
    _require_hermitian(h, tol)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * tau * w)) @ v.conj().T


def decompose(h: np.ndarray, n: int, *, tol: float = 1e-10) -> dict[BasisLabel, float]:
    """Coefficients of a Hermitian matrix over the hermitized basis.

    alpha_I = trace(h @ M(I)) / 2^n for every label I; the coefficients are
    real and reconstruct h exactly up to floating error.  All the traces
    trace(h X^x Z^z) = sum_c h[c, c ^ x] (-1)^|z & c| are one gather and one
    Sylvester-Hadamard product (Hantzko, Binkowski & Gupta 2023).
    """
    dim = 2**n
    if h.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got {h.shape}")
    _require_hermitian(h, tol)
    idx = np.arange(dim)
    traces = h[idx, idx ^ idx[:, None]] @ _signs(idx[:, None], idx)
    coeffs = {}
    for label in all_labels(2 * n):
        x, z, phase = pauli_monomial(label)
        phase += hermitization_phase(label.order)
        coeffs[label] = float(((1j ** (phase % 4)) * traces[x, z]).real) / dim
    return coeffs


def reconstruct(coeffs: Mapping[BasisLabel, float], n: int) -> np.ndarray:
    terms = [(label, alpha) for label, alpha in coeffs.items() if alpha]
    perms, values = signed_permutations([hermitize(label) for label, _ in terms], n)
    idx = np.arange(2**n)
    out = np.zeros((2**n, 2**n), dtype=complex)
    for (_, alpha), perm, vals in zip(terms, perms, values):
        out[perm, idx] += alpha * vals
    return out


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    return (a + a.conj().T) / 2


# ---------------------------------------------------------------------------
# Matrix text format: one row per line, entries as "re,im" separated by
# whitespace.


def format_matrix(m: np.ndarray) -> str:
    lines = []
    for row in np.atleast_2d(m):
        lines.append(" ".join(f"{v.real:.17g},{v.imag:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    rows = []
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        row = []
        for tok in line.split():
            parts = tok.split(",")
            if len(parts) != 2:
                raise ParseError(f"line {ln}: expected re,im pairs, got {tok!r}")
            try:
                row.append(complex(float(parts[0]), float(parts[1])))
            except ValueError:
                raise ParseError(f"line {ln}: bad number in {tok!r}") from None
        rows.append(row)
    if not rows:
        raise ParseError("empty matrix text")
    width = len(rows[0])
    if any(len(r) != width for r in rows) or width != len(rows):
        raise ParseError(f"expected a square matrix, got rows of widths {[len(r) for r in rows]}")
    return np.array(rows, dtype=complex)


# ---------------------------------------------------------------------------
# Oracle sweep used by tests and the command line.


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    tolerance: float
    passed: bool


def _label_pairs(n: int, rng: np.random.Generator, cap: int):
    labels = list(all_labels(2 * n))
    if len(labels) ** 2 <= cap:
        return [(a, b) for a in labels for b in labels]
    return [(labels[i], labels[j]) for i, j in rng.integers(0, len(labels), size=(cap, 2))]


def _maxabs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m)))


def _anticommutation_defect(gens: list[np.ndarray], eye: np.ndarray) -> float:
    # worst deviation from g_i g_j + g_j g_i = 2 delta_ij
    return max(
        float(np.max(np.abs(g1 @ g2 + g2 @ g1 - (2.0 if i == j else 0.0) * eye)))
        for i, g1 in enumerate(gens)
        for j, g2 in enumerate(gens)
    )


def verify_representation(n: int, *, seed: int = 0) -> list[CheckResult]:
    """Run the full symbolic-vs-dense property sweep at a given size.

    Exhaustive over all label pairs when their square fits under
    SAMPLE_CAP, seeded random sampling beyond that; deterministic for a
    fixed seed.  Pairs are checked as stacks of matrices, a chunk at a time.
    Generator checks use TOL_STRICT, label checks TOL_EXACT and the
    decomposition round trip of a random Hermitian matrix TOL_ROUNDTRIP.
    """
    if n < 1:
        raise ValueError("qubit count must be >= 1")
    rng = np.random.default_rng(seed)
    eye = np.eye(2**n)
    results: list[CheckResult] = []

    def add(name, deviation, tolerance, extra_ok=True):
        results.append(
            CheckResult(name, float(deviation), tolerance, bool(deviation <= tolerance) and extra_ok)
        )

    gammas = [gamma(k, n) for k in range(2 * n)]
    add("clifford-relations", _anticommutation_defect(gammas, eye), TOL_STRICT)
    add("generator-hermiticity", max(hermiticity_defect(g) for g in gammas), TOL_STRICT)

    labels = list(all_labels(2 * n))
    herm_dev = square_dev = 0.0
    for label in labels:
        m = hermitized_matrix(label, n)
        herm_dev = max(herm_dev, hermiticity_defect(m))
        square_dev = max(square_dev, _maxabs(m @ m - eye))
    add("hermitized-hermiticity", herm_dev, TOL_EXACT)
    add("hermitized-squares", square_dev, TOL_EXACT)

    pairs = _label_pairs(n, rng, SAMPLE_CAP)
    prod_dev = comm_dev = dich_dev = trace_dev = 0.0
    dich_ok = True
    chunk = max(1, (1 << 14) // 4**n)  # ~2^14 entries a stack: memory stays flat
    for start in range(0, len(pairs), chunk):
        part = pairs[start : start + chunk]
        ea = [ScaledElement(a) for a, _ in part]
        eb = [ScaledElement(b) for _, b in part]
        ma, mb = _stack(ea, n), _stack(eb, n)
        ab, ba = ma @ mb, mb @ ma
        prod_dev = max(prod_dev, _maxabs(ab - _stack(list(map(product, ea, eb)), n)))
        comm_dev = max(comm_dev, _maxabs(ab - ba - _stack(list(map(commutator, ea, eb)), n)))
        c_norm = np.max(np.abs(ab - ba), axis=(1, 2))
        a_norm = np.max(np.abs(ab + ba), axis=(1, 2))
        dich_dev = max(dich_dev, float(np.max(np.minimum(c_norm, a_norm))))
        dich_ok &= all((c <= TOL_EXACT) == commutes(a, b) for c, (a, b) in zip(c_norm, part))
        ha = _stack([hermitize(a) for a, _ in part], n)
        hb = _stack([hermitize(b) for _, b in part], n)
        expect = np.array([2.0**n if a == b else 0.0 for a, b in part])
        trace_dev = max(trace_dev, _maxabs(np.einsum("kij,kji->k", ha, hb) - expect))
    add("product-homomorphism", prod_dev, TOL_EXACT)
    add("commutator-homomorphism", comm_dev, TOL_EXACT)
    add("commutation-dichotomy", dich_dev, TOL_EXACT, extra_ok=dich_ok)
    add("trace-orthogonality", trace_dev, TOL_EXACT)

    # the monomial form and the Pauli letters read off it, both against the
    # ordered product of Kronecker-chain generators
    fact_dev = 0.0
    fact_labels = labels if len(labels) <= SAMPLE_CAP else [
        labels[i] for i in rng.integers(0, len(labels), size=SAMPLE_CAP)
    ]
    for label in fact_labels:
        el = hermitize(label)
        oracle = el.coefficient * reduce(np.matmul, [gammas[k] for k in label.indices], eye)
        fact_dev = max(
            fact_dev,
            _maxabs(represent(el, n) - oracle),
            _maxabs(pauli_factorization(el, n).matrix() - oracle),
        )
    add("factorization-consistency", fact_dev, TOL_EXACT)

    rec = recursive_construct(n)
    rec_dev = _anticommutation_defect(rec, eye)
    rec_trace = max(
        abs(np.trace(g1 @ g2) - (2.0**n if i == j else 0.0))
        for i, g1 in enumerate(rec)
        for j, g2 in enumerate(rec)
    )
    add("recursive-generators", max(rec_dev, rec_trace), TOL_STRICT)

    h = random_hermitian(n, rng)
    coeffs = decompose(h, n, tol=TOL_ROUNDTRIP)
    add("decompose-roundtrip", _maxabs(reconstruct(coeffs, n) - h), TOL_ROUNDTRIP)
    return results


def exponent_coincidence_report(axis_a: str = "x", axis_b: str = "z", *, tol: float = 1e-12) -> dict:
    """Evaluate three pi-angle exponentials that share matrix values.

    Returns the matrices exp(i*pi*(A (x) I)), exp(i*pi*(A (x) I + I (x) B))
    and exp(i*pi*(A (x) B)) for the chosen Pauli axes, together with their
    pairwise max-abs distances and the list of coinciding pairs.  Several
    distinct Hermitian exponents map to the same unitary, so recovering an
    exponent from a gate is not unique; this report shows the phenomenon in
    whatever form the numbers actually take.
    """
    pa, pb = PAULI[axis_a.upper()], PAULI[axis_b.upper()]
    mats = {
        "single": expm_hermitian(np.kron(pa, _I2), np.pi),
        "sum": expm_hermitian(np.kron(pa, _I2) + np.kron(_I2, pb), np.pi),
        "product": expm_hermitian(np.kron(pa, pb), np.pi),
    }
    names = sorted(mats)
    distances = {
        (x, y): float(np.max(np.abs(mats[x] - mats[y])))
        for i, x in enumerate(names)
        for y in names[i + 1 :]
    }
    coincide = sorted(pair for pair, d in distances.items() if d <= tol)
    return {"matrices": mats, "distances": distances, "coincide": coincide}

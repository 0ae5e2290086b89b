"""Dense matrix representation on qubits.

Generators are realized as Kronecker products of Pauli matrices,

    G_{2k}   = I^(n-k-1) (x) sx (x) sz^k,
    G_{2k+1} = I^(n-k-1) (x) sy (x) sz^k,

read left to right with the leftmost factor acting on the highest-index
qubit (qubit 0 is the rightmost factor and bit 0 of a row index).  All 2n
generators are Hermitian, square to the identity and pairwise anticommute,
so symbolic values from :mod:`cliffgate.algebra` map onto 2^n x 2^n
complex matrices by an exact homomorphism.  :func:`represent` reads n off
its element's ambient (:func:`cliffgate.algebra.qubit_count`); a function
of labels or terms, which may be none, is given n.  Every matrix is built from
a basis element's Pauli monomial i^phase X^x Z^z, one call of
:func:`cliffgate.pauli.pauli_monomial` per array of masks, times its
``coefficient``.  The monomial sends column c to row c ^ x and products XOR
the x masks, so two monomials share every row or none, and ab and ba share
theirs: the matrix face of the commute-or-anticommute law.  A call holds
the signed permutations, or dense oracles, of as many labels, pairs, terms
or gates as fit in CHUNK_BYTES (:func:`_chunks`); the terms of a sum and the
gates of a sequence come from one stream of hermitized labels
(:func:`_hermitized`), and :func:`gamma`'s factors are the oracle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .algebra import (
    BasisLabel,
    ParseError,
    ScaledElement,
    _lines,
    _parse_number,
    _require_qubits,
    _scalar_value,
    all_labels,
    commutator,
    commutes,
    hermitization_phase,
    hermitize,
    product,
    qubit_count,
)
from .pauli import pauli_factorization, pauli_monomial

__all__ = [
    "CheckResult",
    "decompose",
    "expm_hermitian",
    "format_matrix",
    "gamma",
    "hermiticity_defect",
    "parse_matrix",
    "random_hermitian",
    "recursive_construct",
    "reconstruct",
    "represent",
    "signed_permutations",
    "verify_representation",
]

_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"I": _I2, "X": _SX, "Y": _SY, "Z": _SZ}

# verify_representation: tolerances of the generator checks, the label
# checks and the decomposition round trip of an exactly Hermitian matrix,
# the label or pair count above which labels or pairs are sampled, the
# bytes a chunk of items may take, and the bytes a sweep may plan (n <= 9)
TOL_STRICT = 1e-14
TOL_EXACT = 1e-12
TOL_ROUNDTRIP = 1e-10
SAMPLE_CAP = 4096
CHUNK_BYTES = 1 << 20
MEMORY_BUDGET = 1 << 29


def _chunks(items: Sequence, item_bytes: int) -> Iterator[Sequence]:
    # the one chunk rule: a call's labels, pairs, terms or gates, in order, as many at
    # a time as fit in CHUNK_BYTES at item_bytes each (at least one)
    step = max(1, CHUNK_BYTES // item_bytes)
    return (items[i : i + step] for i in range(0, len(items), step))


def _kron_chain(factors) -> np.ndarray:
    # the Kronecker product of the factors, one broadcast multiply and reshape each;
    # leading axes are batch axes, so (n, k, 2, 2) factors chain to (k, 2^n, 2^n)
    out = np.array([[1.0 + 0j]])
    for f in factors:
        out = out[..., :, None, :, None] * f[..., None, :, None, :]
        *lead, r, fr, c, fc = out.shape
        out = out.reshape(*lead, r * fr, c * fc)
    return out


def _factors(k: int, n: int) -> list[np.ndarray]:
    # the 2x2 Kronecker factors of generator k, highest qubit first
    q = k // 2
    return [_I2] * (n - q - 1) + [_SY if k % 2 else _SX] + [_SZ] * q


def gamma(k: int, n: int) -> np.ndarray:
    """Matrix of the k-th generator on n qubits, 0 <= k < 2n (the oracle)."""
    if not 0 <= k < 2 * n:
        raise ValueError(f"generator index {k} out of range for {n} qubits")
    return _kron_chain(_factors(k, n))


def _label_factors(masks: Sequence[int], n: int) -> np.ndarray:
    # (len(masks), n, 2, 2): per qubit, the product of each label's generator factors
    # in ascending order; row i's Kronecker chain is label i's generator product
    bits = np.array(masks, dtype=np.int64)[:, None, None, None]
    out = np.broadcast_to(_I2, (len(masks), n, 2, 2))
    stack = np.array([_factors(k, n) for k in range(2 * n)])
    for k in range(2 * n):
        out = np.where(bits >> k & 1, out @ stack[k], out)
    return out


def _signs(a, b) -> np.ndarray:
    # (-1)^|a & b| elementwise: entries of the Sylvester-Hadamard matrix.
    return 1.0 - 2.0 * (np.bitwise_count(a & b) & 1)


def signed_permutations(
    elems: Sequence[ScaledElement], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Matrices of scaled elements: M_k[perms[k, c], c] = values[k, c], else 0.

    So ``(a @ M_k)[:, c] == a[:, perms[k, c]] * values[k, c]``; perms[k] is
    c ^ xmask, and the zero element has all-zero values.  The elements must act
    on n qubits (:func:`_require_qubits`), one call of :func:`pauli_monomial` on
    their masks gives every monomial, and each is scaled by ``el.coefficient``.
    """
    _require_qubits(elems, n)
    x, z, phase = pauli_monomial(np.array([el.label.mask for el in elems], dtype=np.int64), n)
    coeffs = np.array([el.coefficient for el in elems], dtype=complex) * 1j ** phase
    idx = np.arange(2**n)
    return idx ^ x[:, None], coeffs[:, None] * _signs(idx, z[:, None])


def represent(elem: ScaledElement) -> np.ndarray:
    """Dense matrix of a scaled basis element on its ambient's qubits (a fresh array)."""
    n = qubit_count(elem.ambient)
    (perm,), (values,) = signed_permutations([elem], n)
    out = np.zeros((2**n, 2**n), dtype=complex)
    out[perm, np.arange(2**n)] = values
    return out


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
    h = 1j * (_SX @ _SY)  # -sz, from the Pauli matrices rather than the checked path
    for m in range(1, n):
        eye = np.eye(2**m, dtype=complex)
        gens = [_kron_chain([eye, f]) for f in (_SX, _SY)] + [_kron_chain([g, h]) for g in gens]
    return gens


def hermiticity_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


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


def _hermitized_monomials(masks: np.ndarray, n: int):
    # (x, z, phase mod 4) of each label mask's hermitized monomial: its Pauli monomial
    # times the i that makes its square +1
    x, z, phase = pauli_monomial(masks, n)
    return x, z, (phase + hermitization_phase(np.bitwise_count(masks).astype(np.int64))) % 4


def _hermitized(labels: Sequence[BasisLabel], n: int) -> Iterator[tuple]:
    # the signed permutations of the hermitized labels a chunk at a time, each chunk's
    # positions (a slice), perms and values; bit for bit those of signed_permutations on
    # their hermitize elements.  A term holds its perms (24 bytes a column) and values (16)
    _require_qubits(labels, n)
    masks, idx = np.array([label.mask for label in labels], dtype=np.int64), np.arange(2**n)
    for part in _chunks(range(len(labels)), 40 * 2**n):
        part = slice(part.start, part.stop)
        x, z, phase = _hermitized_monomials(masks[part], n)
        yield part, idx ^ x[:, None], (1j ** phase)[:, None] * _signs(idx, z[:, None])


def decompose(h: np.ndarray, n: int, *, tol: float = 1e-10) -> dict[BasisLabel, float]:
    """Coefficients of a Hermitian matrix over the hermitized basis.

    alpha_I = trace(h @ M(I)) / 2^n for every label I, keyed in canonical
    (order, mask) order; the coefficients are real and reconstruct h
    exactly up to floating error.  All the traces
    trace(h X^x Z^z) = sum_c h[c, c ^ x] (-1)^|z & c| are one gather and one
    Sylvester-Hadamard product (Hantzko, Binkowski & Gupta 2023), read at
    every label's monomial, from one :func:`pauli_monomial` call on all masks.
    """
    if n < 1:
        raise ValueError("qubit count must be >= 1")
    dim = 2**n
    if h.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got {h.shape}")
    _require_hermitian(h, tol)
    idx = np.arange(dim)
    traces = h[idx, idx ^ idx[:, None]] @ _signs(idx[:, None], idx)
    labels = list(all_labels(2 * n))
    masks = np.array([label.mask for label in labels], dtype=np.int64)
    x, z, phase = _hermitized_monomials(masks, n)
    alphas = (1j ** phase * traces[x, z]).real / dim
    return dict(zip(labels, alphas.tolist()))


def reconstruct(coeffs: Mapping[BasisLabel, float], n: int) -> np.ndarray:
    """sum_I alpha_I M(I) over the hermitized basis, the inverse of
    :func:`decompose`.  Unbuffered scatters add the nonzero terms' signed
    permutations a chunk at a time (:func:`_hermitized`), so each entry sums
    its terms in coefficient order."""
    terms = {label: alpha for label, alpha in coeffs.items() if alpha}
    alphas = np.array(list(terms.values()), dtype=float)
    out = np.zeros((2**n, 2**n), dtype=complex)
    for part, perms, values in _hermitized(list(terms), n):
        np.add.at(out, (perms, np.arange(2**n)), values * alphas[part, None])
    return out


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    return (a + a.conj().T) / 2


# ---------------------------------------------------------------------------
# Matrix text format: one row per line, entries as "re,im" separated by
# spaces or tabs.


def format_matrix(m: np.ndarray) -> str:
    lines = []
    for row in np.atleast_2d(m):
        lines.append(" ".join(f"{v.real:.17g},{v.imag:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    rows = []
    for ln, line in enumerate(_lines(text), start=1):
        row = []
        for tok in re.findall(r"[^ \t]+", line):
            parts = tok.split(",")
            if len(parts) != 2:
                raise ParseError(f"line {ln}: expected re,im pairs, got {tok!r}")
            re_text, im_text = parts
            try:
                row.append(complex(_parse_number(re_text, float, "number"),
                                   _parse_number(im_text, float, "number")))
            except ValueError:
                raise ParseError(f"line {ln}: bad number in {tok!r}") from None
        if row:
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


def _maxabs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m)))


def _deviation(a, b) -> np.ndarray:
    # max |entry| of each M_a - M_b: rows are c ^ xmask, so the two share every row
    # (equal masks, read off column 0) or none, and then no entries meet
    (pa, va), (pb, vb) = a, b
    apart = np.maximum(np.max(np.abs(va), axis=-1), np.max(np.abs(vb), axis=-1))
    return np.where(pa[:, 0] == pb[:, 0], np.max(np.abs(va - vb), axis=-1), apart)


def _composed(a, b):
    # M_a M_b: column c of M_b holds vb[c] at row pb[c], which M_a sends to
    # row pa[pb[c]] times va[pb[c]]
    (pa, va), (pb, vb) = a, b
    return np.take_along_axis(pa, pb, -1), np.take_along_axis(va, pb, -1) * vb


def _generator_defects(gens: list[np.ndarray], eye: np.ndarray) -> tuple[float, float]:
    # worst deviations from g_i g_j + g_j g_i = 2 delta_ij and tr(g_i g_j) =
    # 2^n delta_ij, forming each ordered product once, one pair at a time
    anti = trace = 0.0
    for i, g1 in enumerate(gens):
        for j in range(i, len(gens)):
            p = g1 @ gens[j]
            q = p if i == j else gens[j] @ g1
            delta = 1.0 if i == j else 0.0
            anti = max(anti, _maxabs(p + q - 2.0 * delta * eye))
            trace = max(trace, *(abs(np.trace(m) - len(eye) * delta) for m in (p, q)))
    return anti, trace


def _oracle_deviation(factors, coeffs, letters, scalars, perms, values) -> float:
    # worst |entry| of each label's matrix minus its oracle (the Kronecker chain of
    # its per-qubit gamma factors), and of the chain of its Pauli letters minus it
    oracle = _kron_chain(factors.swapaxes(0, 1))
    oracle *= coeffs[:, None, None]
    chains = _kron_chain(letters.swapaxes(0, 1))
    chains *= scalars[:, None, None]
    chains -= oracle
    worst = _maxabs(chains)
    del chains
    np.negative(oracle, out=oracle)  # the matrices minus the oracle, in one scatter
    oracle[np.arange(len(perms))[:, None], perms, np.arange(perms.shape[1])] += values
    return max(worst, _maxabs(oracle))


def _label_sweep(masks, n: int) -> tuple[float, float, float]:
    # worst hermiticity, square and factorization deviations of the hermitized labels.
    # A label takes five signed permutations (24 bytes a column, traced at n = 5): its
    # own, its partners and their differences; its oracle, three matrices (16 bytes an
    # entry: two Kronecker chains and their temporaries), takes a chunk of its own
    herm_dev = square_dev = fact_dev = 0.0
    for part in _chunks(masks, 5 * 24 * 2**n):
        part = np.asarray(part)
        elems = [hermitize(BasisLabel(mask, 2 * n)) for mask in part.tolist()]
        perms, values = signed_permutations(elems, n)
        # p = c ^ xmask is its own inverse, so M holds partner[c] = v[p[c]] at (c, p[c]),
        # M^H holds conj(partner) where M holds v, and M^2 holds partner * v on the diagonal
        partner = np.take_along_axis(values, perms, -1)
        herm_dev = max(herm_dev, _maxabs(values - partner.conj()))
        square_dev = max(square_dev, _maxabs(partner * values - 1))
        facts = [pauli_factorization(el) for el in elems]
        inputs = (
            _label_factors(part, n),
            np.array([el.coefficient for el in elems], dtype=complex),
            np.array([[PAULI[letter] for letter in f.factors] for f in facts]),
            np.array([_scalar_value(f.phase, f.pow2) for f in facts]),
            perms,
            values,
        )
        for rows in _chunks(np.arange(len(elems)), 3 * 16 * 4**n):
            fact_dev = max(fact_dev, _oracle_deviation(*(a[rows] for a in inputs)))
    return herm_dev, square_dev, fact_dev


def _pair_sweep(draws: np.ndarray, n: int) -> tuple[float, float, float, bool, float]:
    # worst product, commutator, dichotomy and trace deviations of the (a, b) mask pairs,
    # and whether the dichotomy agrees with commutes; one element per distinct label.
    # A pair takes ten signed permutations (24 bytes a column, traced at n = 3..9): its
    # labels' rows, a, b, ab, ba, ab - ba, the symbolic ab and [a, b], and temporaries
    elems = {mask: ScaledElement(BasisLabel(mask, 2 * n)) for mask in np.unique(draws).tolist()}
    prod_dev = comm_dev = dich_dev = trace_dev = 0.0
    dich_ok = True
    for part in _chunks(draws, 10 * 24 * 2**n):
        masks, rows = np.unique(part, return_inverse=True)
        perms, values = signed_permutations([elems[mask] for mask in masks.tolist()], n)
        ma, mb = ((perms[col], values[col]) for col in rows.reshape(part.shape).T)
        ea, eb = ([elems[mask] for mask in col] for col in part.T.tolist())
        symbolic = list(map(product, ea, eb)) + list(map(commutator, ea, eb))
        perms, values = signed_permutations(symbolic, n)
        m_prod, m_comm = zip(np.split(perms, 2), np.split(values, 2))
        # ab and ba share their rows (both masks are xa ^ xb) and differ by a sign at most
        ab, ba = _composed(ma, mb), _composed(mb, ma)
        comm = ab[0], ab[1] - ba[1]
        prod_dev = max(prod_dev, _deviation(ab, m_prod).max())
        comm_dev = max(comm_dev, _deviation(comm, m_comm).max())
        c_norm, a_norm = np.max(np.abs(comm[1]), axis=-1), np.max(np.abs(ab[1] + ba[1]), axis=-1)
        dich_dev = max(dich_dev, float(np.max(np.minimum(c_norm, a_norm))))
        commuting = [commutes(a.label, b.label) for a, b in zip(ea, eb)]
        dich_ok &= np.array_equal(c_norm <= TOL_EXACT, commuting)
        # tr(h(a) h(b)) = i^(p_a + p_b) tr(ab), and ab is all on its diagonal (mask 0) or all off
        phases = hermitization_phase(np.bitwise_count(part).astype(np.int64)).sum(axis=1)
        traces = 1j ** phases * np.where(ab[0][:, 0] == 0, ab[1].sum(-1), 0)
        expect = np.where(part[:, 0] == part[:, 1], 2.0**n, 0.0)
        trace_dev = max(trace_dev, _maxabs(traces - expect))
    return prod_dev, comm_dev, dich_dev, dich_ok, trace_dev


def verify_representation(n: int, *, seed: int = 0) -> list[CheckResult]:
    """Run the full symbolic-vs-dense property sweep at a given size.

    Each check runs over all labels, or all label pairs, while they number
    at most SAMPLE_CAP, and over SAMPLE_CAP seeded draws beyond that;
    deterministic for a fixed seed.  A label is drawn as its bitmask in
    0..4^n - 1, so no list of all labels is formed, and a pair sweep builds
    one element per distinct label and makes one :func:`product`,
    :func:`commutator` and :func:`commutes` call per pair.  Label and pair
    checks hold signed permutations (:func:`signed_permutations`) a chunk at
    a time (:func:`_chunks`) and read every check off their rows: M^H and
    M^2 off M's, ab +- ba and the trace off ab's and ba's shared rows (the
    hermitized pair's trace is tr(ab) times a power of i), and each deviation
    from the symbolic side as the exact max |entry| of a difference of two
    signed permutations, which share every row or none; each is the dense
    one bit for bit.  A pair chunk gathers a and b from the signed
    permutations of its distinct labels.  Only the oracle is dense: for a whole
    chunk of labels, the Kronecker chains of the per-qubit products of their
    generators' :func:`gamma` factors, and of their Pauli letters; only the
    generator checks hold all 2n generators, and the draws, elements and
    chunks of the label and pair checks are dropped before the recursive
    build.  Generator checks use TOL_STRICT, label checks TOL_EXACT and the
    decomposition round trip of a random Hermitian matrix TOL_ROUNDTRIP.
    A planned peak past MEMORY_BUDGET raises MemoryError before any allocation.
    """
    if n < 1:
        raise ValueError("qubit count must be >= 1")
    # the peak, bounded above: recursive_construct's last two levels with the generator checks'
    # temporaries (5n/2 + 4 matrices of 16 * 4^n bytes), decompose's labels (20 more), and the
    # pair checks' elements (at most two labels a pair, under 512 bytes each) and two chunks
    need = 16 * 4**n * (5 * n // 2 + 24) + 1024 * SAMPLE_CAP + 2 * CHUNK_BYTES
    if need > MEMORY_BUDGET:
        raise MemoryError(f"{n} qubits plan {need >> 20} MiB, past the budget of "
                          f"{MEMORY_BUDGET >> 20} MiB")
    rng = np.random.default_rng(seed)
    eye = np.eye(2**n)
    results: list[CheckResult] = []

    def add(name, deviation, tolerance, extra_ok=True):
        results.append(
            CheckResult(name, float(deviation), tolerance, bool(deviation <= tolerance) and extra_ok)
        )

    gammas = [gamma(k, n) for k in range(2 * n)]
    add("clifford-relations", _generator_defects(gammas, eye)[0], TOL_STRICT)
    add("generator-hermiticity", max(hermiticity_defect(g) for g in gammas), TOL_STRICT)
    del gammas

    count = 4**n
    herm_dev, square_dev, fact_dev = _label_sweep(
        range(count) if count <= SAMPLE_CAP else rng.integers(0, count, SAMPLE_CAP), n
    )
    add("hermitized-hermiticity", herm_dev, TOL_EXACT)
    add("hermitized-squares", square_dev, TOL_EXACT)

    if count**2 <= SAMPLE_CAP:
        draws = np.stack(np.divmod(np.arange(count**2), count), axis=-1)  # (a, b), b fastest
    else:
        draws = rng.integers(0, count, size=(SAMPLE_CAP, 2))
    prod_dev, comm_dev, dich_dev, dich_ok, trace_dev = _pair_sweep(draws, n)
    add("product-homomorphism", prod_dev, TOL_EXACT)
    add("commutator-homomorphism", comm_dev, TOL_EXACT)
    add("commutation-dichotomy", dich_dev, TOL_EXACT, extra_ok=dich_ok)
    add("trace-orthogonality", trace_dev, TOL_EXACT)
    add("factorization-consistency", fact_dev, TOL_EXACT)

    add("recursive-generators", max(_generator_defects(recursive_construct(n), eye)), TOL_STRICT)

    h = random_hermitian(n, rng)
    coeffs = decompose(h, n, tol=TOL_ROUNDTRIP)
    add("decompose-roundtrip", _maxabs(reconstruct(coeffs, n) - h), TOL_ROUNDTRIP)
    return results

import numpy as np
import pytest
import scipy.linalg

from cliffgate import (
    BasisLabel,
    ScaledElement,
    all_labels,
    commutator,
    decompose,
    expm_hermitian,
    format_matrix,
    gamma,
    hermitize,
    hermitized_matrix,
    parse_matrix,
    pauli_factorization,
    product,
    reconstruct,
    recursive_construct,
    represent,
    verify_representation,
)
from cliffgate.algebra import AmbientMismatchError, ParseError, qubit_count
from cliffgate.matrices import (
    PAULI,
    exponent_coincidence_report,
    hermiticity_defect,
    random_hermitian,
    unitarity_defect,
)
from conftest import elem, gamma_product, label, labels_upto, maxabs


class TestGamma:
    def test_single_qubit_pair(self):
        assert np.array_equal(gamma(0, 1), PAULI["X"])
        assert np.array_equal(gamma(1, 1), PAULI["Y"])

    def test_second_block_has_z_tail(self):
        assert np.array_equal(gamma(2, 2), np.kron(PAULI["X"], PAULI["Z"]))
        assert np.array_equal(gamma(3, 2), np.kron(PAULI["Y"], PAULI["Z"]))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_clifford_relations(self, n):
        eye = np.eye(2**n)
        for k in range(2 * n):
            for l in range(2 * n):
                gk, gl = gamma(k, n), gamma(l, n)
                want = 2.0 * eye if k == l else 0.0 * eye
                assert maxabs(gk @ gl + gl @ gk - want) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            gamma(4, 2)


class TestRepresent:
    def test_unit_label(self):
        assert np.array_equal(represent(ScaledElement.unit(4), 2), np.eye(4))

    def test_hermitized_pair_is_minus_z(self):
        # library convention: h(e01) lands on -sz (the sign is fixed by the
        # hermitization phase, not free)
        m = represent(hermitize(label([0, 1], 2)), 1)
        assert np.array_equal(m, -PAULI["Z"])

    def test_zero_element(self):
        assert maxabs(represent(ScaledElement.zero(4), 2)) == 0.0

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            represent(ScaledElement.unit(4), 3)

    def test_homomorphism_exhaustive_two_qubits(self):
        labs = labels_upto(4)
        for a in labs:
            for b in labs:
                ea, eb = ScaledElement(a), ScaledElement(b)
                ma, mb = represent(ea, 2), represent(eb, 2)
                assert maxabs(ma @ mb - represent(product(ea, eb), 2)) == 0.0
                assert maxabs(ma @ mb - mb @ ma - represent(commutator(ea, eb), 2)) == 0.0

    def test_hermitized_matrices_are_hermitian_involutions(self):
        n = 3
        eye = np.eye(2**n)
        for lab in labels_upto(2 * n):
            m = hermitized_matrix(lab, n)
            assert hermiticity_defect(m) == 0.0
            assert maxabs(m @ m - eye) == 0.0

    def test_trace_orthogonality(self):
        n = 2
        for a in labels_upto(2 * n):
            for b in labels_upto(2 * n):
                t = np.trace(hermitized_matrix(a, n) @ hermitized_matrix(b, n))
                assert abs(t - (2.0**n if a == b else 0.0)) == 0.0


class TestMonomialOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_represent_equals_gamma_product(self, n):
        for lab in labels_upto(2 * n):
            oracle = gamma_product(lab, n)
            for phase in range(4):
                el = ScaledElement(lab, phase=phase)
                assert maxabs(represent(el, n) - el.coefficient * oracle) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_decompose_equals_trace_oracle(self, n):
        # Gaussian-integer entries make every sum exact, so the transform and
        # the 4^n traces must agree to the bit whatever order they add in.
        rng = np.random.default_rng(40 + n)
        a = rng.integers(-9, 10, size=(2**n, 2**n)) + 1j * rng.integers(-9, 10, size=(2**n, 2**n))
        h = a + a.conj().T
        coeffs = decompose(h, n)
        for lab in labels_upto(2 * n):
            oracle = hermitize(lab).coefficient * gamma_product(lab, n)
            assert coeffs[lab] - np.trace(h @ oracle).real / 2**n == 0.0


class TestRecursive:
    def test_base_case_is_pauli_pair(self):
        g = recursive_construct(1)
        assert np.array_equal(g[0], PAULI["X"])
        assert np.array_equal(g[1], PAULI["Y"])

    @pytest.mark.parametrize("n", [2, 3])
    def test_relations_and_traces(self, n):
        gens = recursive_construct(n)
        assert len(gens) == 2 * n
        eye = np.eye(2**n)
        for i, a in enumerate(gens):
            for j, b in enumerate(gens):
                want = 2.0 * eye if i == j else 0.0 * eye
                assert maxabs(a @ b + b @ a - want) == 0.0
                # same pairwise product traces as the direct construction
                assert abs(np.trace(a @ b) - (2.0**n if i == j else 0.0)) == 0.0


class TestPauliFactorization:
    def test_z_type_pair_has_single_support(self):
        n = 3
        for k in range(n):
            el = hermitize(label([2 * k, 2 * k + 1], 2 * n))
            assert pauli_factorization(el, n).support() == (k,)

    def test_xx_type_pair_has_adjacent_support(self):
        n = 3
        for k in range(n - 1):
            el = hermitize(label([2 * k + 1, 2 * k + 2], 2 * n))
            assert pauli_factorization(el, n).support() == (k, k + 1)

    def test_order3_element_is_single_qubit(self):
        n = 3
        el = hermitize(label([0, 1, 2], 2 * n))
        assert pauli_factorization(el, n).support() == (1,)

    def test_factorization_matches_represent_exhaustively(self):
        n = 2
        for lab in labels_upto(2 * n):
            el = hermitize(lab)
            f = pauli_factorization(el, n)
            assert maxabs(f.matrix() - represent(el, n)) == 0.0

    def test_unit_has_empty_support(self):
        assert pauli_factorization(ScaledElement.unit(4), 2).support() == ()

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            pauli_factorization(ScaledElement.zero(4), 2)


class TestDecompose:
    def test_indicator(self):
        n = 2
        target = label([0, 1, 2], 2 * n)
        coeffs = decompose(hermitized_matrix(target, n), n)
        for lab, alpha in coeffs.items():
            assert alpha == pytest.approx(1.0 if lab == target else 0.0, abs=1e-14)

    def test_zero_matrix(self):
        coeffs = decompose(np.zeros((4, 4)), 2)
        assert all(a == 0.0 for a in coeffs.values())

    def test_roundtrip_random(self):
        rng = np.random.default_rng(11)
        h = random_hermitian(2, rng)
        coeffs = decompose(h, 2)
        assert maxabs(reconstruct(coeffs, 2) - h) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            decompose(np.array([[0, 1], [0, 0]], dtype=complex), 1)


class TestExpm:
    def test_zero_hamiltonian(self):
        assert maxabs(expm_hermitian(np.zeros((4, 4)), 0.7) - np.eye(4)) == 0.0

    def test_matches_closed_form(self):
        rng = np.random.default_rng(3)
        labs = labels_upto(6)
        for _ in range(25):
            lab = labs[rng.integers(0, len(labs))]
            tau = rng.normal()
            m = hermitized_matrix(lab, 3)
            closed = np.cos(tau) * np.eye(8) + 1j * np.sin(tau) * m
            assert maxabs(expm_hermitian(m, tau) - closed) < 1e-12

    def test_matches_scipy(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(2, rng)
        assert maxabs(expm_hermitian(h, 0.9) - scipy.linalg.expm(0.9j * h)) < 1e-12

    def test_unitarity(self):
        rng = np.random.default_rng(8)
        h = random_hermitian(3, rng)
        assert unitarity_defect(expm_hermitian(h, 2.3)) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            expm_hermitian(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)


class TestMatrixText:
    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert maxabs(parse_matrix(format_matrix(m)) - m) == 0.0

    def test_rejects_ragged(self):
        with pytest.raises(ParseError):
            parse_matrix("1,0 0,0\n1,0\n")

    def test_rejects_bad_token(self):
        with pytest.raises(ParseError):
            parse_matrix("1,0 nope\n0,0 1,0\n")

    def test_rejects_empty(self):
        with pytest.raises(ParseError):
            parse_matrix("\n")


class TestVerifySuite:
    def test_all_checks_pass_small(self):
        for n in (1, 2):
            results = verify_representation(n)
            assert all(c.passed for c in results), [c for c in results if not c.passed]

    def test_sampled_sweep_at_four_qubits(self):
        # 256 labels make 65536 pairs, above SAMPLE_CAP: the pairs are drawn
        # from the seed
        runs = {seed: verify_representation(4, seed=seed) for seed in (0, 5)}
        for results in runs.values():
            assert all(c.passed for c in results), [c for c in results if not c.passed]
        names = [[c.name for c in results] for results in runs.values()]
        assert names[0] == names[1] and len(names[0]) == 11
        assert runs[0] != runs[5]  # the seed picks the pairs and the round-trip matrix
        assert verify_representation(4, seed=5) == runs[5]

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_fewer_than_one_qubit(self, n):
        with pytest.raises(ValueError, match="qubit count must be >= 1"):
            verify_representation(n)

    def test_qubit_count_rejects_odd(self):
        with pytest.raises(ValueError):
            qubit_count(5)
        assert qubit_count(6) == 3


class TestExponentCoincidence:
    def test_distinct_hamiltonians_share_a_gate(self):
        report = exponent_coincidence_report("x", "z")
        eye = np.eye(4)
        # pi rotations: the single-factor and product-factor exponents both
        # land on -1, the commuting sum lands back on +1
        assert maxabs(report["matrices"]["single"] + eye) < 1e-12
        assert maxabs(report["matrices"]["product"] + eye) < 1e-12
        assert maxabs(report["matrices"]["sum"] - eye) < 1e-12
        assert report["coincide"] == [("product", "single")]

    def test_any_axis_pair(self):
        for a in "xyz":
            for b in "xyz":
                report = exponent_coincidence_report(a, b)
                assert ("product", "single") in report["coincide"]

import dataclasses
import tracemalloc

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
    parse_matrix,
    pauli_factorization,
    product,
    reconstruct,
    recursive_construct,
    represent,
    verify_representation,
)
from cliffgate import algebra, matrices
from cliffgate.algebra import AmbientMismatchError, ParseError, hermitization_phase, qubit_count
from cliffgate.cli import EXIT_VERIFY, main
from cliffgate.matrices import (
    PAULI,
    _kron_chain,
    _label_factors,
    hermiticity_defect,
    random_hermitian,
    signed_permutations,
)
from cliffgate.pauli import pauli_monomial
from conftest import (
    STRAYS,
    chunk_sizes,
    coefficient_permutations,
    dense_verify,
    elem,
    gamma_product,
    label,
    labels_upto,
    loop_decompose,
    loop_reconstruct,
    maxabs,
    pauli_matrix,
    unitarity_defect,
)


class TestGamma:
    def test_single_qubit_pair(self):
        assert np.array_equal(gamma(0, 1), PAULI["X"])
        assert np.array_equal(gamma(1, 1), PAULI["Y"])

    def test_second_block_has_z_tail(self):
        assert np.array_equal(gamma(2, 2), np.kron(PAULI["X"], PAULI["Z"]))
        assert np.array_equal(gamma(3, 2), np.kron(PAULI["Y"], PAULI["Z"]))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_the_np_kron_chain(self, n):
        # the chain is one broadcast multiply per factor; np.kron gives the same bits
        for k in range(2 * n):
            letters = ["I"] * (n - k // 2 - 1) + ["Y" if k % 2 else "X"] + ["Z"] * (k // 2)
            want = np.array([[1.0 + 0j]])
            for letter in letters:
                want = np.kron(want, PAULI[letter])
            assert np.array_equal(gamma(k, n), want)

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
        assert np.array_equal(represent(ScaledElement.unit(4)), np.eye(4))

    def test_hermitized_pair_is_minus_z(self):
        # library convention: h(e01) lands on -sz (the sign is fixed by the
        # hermitization phase, not free)
        m = represent(hermitize(label([0, 1], 2)))
        assert np.array_equal(m, -PAULI["Z"])

    def test_zero_element(self):
        assert maxabs(represent(ScaledElement.zero(4))) == 0.0

    def test_every_ambient_of_a_stack_is_checked(self):
        # the monomials come from one array of masks, the ambients per element
        good = elem([0], 4)
        with pytest.raises(AmbientMismatchError):
            signed_permutations([good, good, elem([0], 6)], 2)
        with pytest.raises(ValueError, match="odd"):
            signed_permutations([good, elem([0], 5), good], 2)

    def test_homomorphism_exhaustive_two_qubits(self):
        labs = labels_upto(4)
        for a in labs:
            for b in labs:
                ea, eb = ScaledElement(a), ScaledElement(b)
                ma, mb = represent(ea), represent(eb)
                assert maxabs(ma @ mb - represent(product(ea, eb))) == 0.0
                assert maxabs(ma @ mb - mb @ ma - represent(commutator(ea, eb))) == 0.0

    def test_hermitized_matrices_are_hermitian_involutions(self):
        n = 3
        eye = np.eye(2**n)
        for lab in labels_upto(2 * n):
            m = represent(hermitize(lab))
            assert hermiticity_defect(m) == 0.0
            assert maxabs(m @ m - eye) == 0.0

    def test_trace_orthogonality(self):
        n = 2
        for a in labels_upto(2 * n):
            for b in labels_upto(2 * n):
                t = np.trace(represent(hermitize(a)) @ represent(hermitize(b)))
                assert abs(t - (2.0**n if a == b else 0.0)) == 0.0


class TestCoefficients:
    """signed_permutations scales every monomial by its el.coefficient, the
    one scalar rule; the oracle reads each el.coefficient on its own and is
    compared in bytes so that signed zeros count."""

    @staticmethod
    def assert_same(elems, n):
        got, want = signed_permutations(elems, n), coefficient_permutations(elems, n)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @pytest.mark.parametrize("pow2", [-1074, 0, 1023])
    @pytest.mark.parametrize("phase", [0, 1, 2, 3])
    def test_each_phase_and_power(self, phase, pow2):
        self.assert_same([elem([0, 3], 4, phase=phase, pow2=pow2)], 2)

    def test_zero_element(self):
        self.assert_same([ScaledElement.zero(4)], 2)

    def test_mixed_phases_in_one_call(self):
        elems = [
            elem(indices, 6, phase=phase, pow2=pow2)
            for indices in ([], [1], [0, 5], [2, 3, 4])
            for phase in range(4)
            for pow2 in (-1074, -3, 0, 1023)
        ]
        self.assert_same(elems[:20] + [ScaledElement.zero(6)] + elems[20:], 3)

    @pytest.mark.parametrize("pow2", [1024, -1075, 10**400])
    def test_power_outside_the_float_range_raises_as_the_coefficient(self, pow2):
        bad = elem([1], 4, phase=3, pow2=pow2)
        with pytest.raises(ValueError) as want:
            bad.coefficient
        good = [elem([0], 4, pow2=1023), elem([0], 4, pow2=-1074)]
        for elems in ([bad], good + [bad] + good, [bad, elem([1], 4, pow2=-2000)]):
            with pytest.raises(ValueError) as got:
                signed_permutations(elems, 2)
            assert str(got.value) == str(want.value)


class TestXorRows:
    """A monomial sends column c to row c ^ xmask and products XOR the masks,
    so two signed permutations share every row or none, and ab and ba share
    theirs: the verify sweep reads each deviation off that."""

    @staticmethod
    def seeded(n):
        # 40 seeded elements and the zero element, and every ordered pair of them
        rng = np.random.default_rng(n)
        masks, phases = rng.integers(0, 4**n, 40).tolist(), rng.integers(0, 4, 40).tolist()
        elems = [ScaledElement(BasisLabel(m, 2 * n), phase=p) for m, p in zip(masks, phases)]
        perms, values = signed_permutations(elems + [ScaledElement.zero(2 * n)], n)
        ma = np.repeat(perms, len(perms), 0), np.repeat(values, len(perms), 0)
        mb = np.tile(perms, (len(perms), 1)), np.tile(values, (len(perms), 1))
        return perms, ma, mb

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_rows_are_columns_xor_one_mask(self, n):
        perms, ma, mb = self.seeded(n)
        idx = np.arange(2**n)
        assert np.array_equal(perms, idx ^ perms[:, :1])
        (ab, _), (ba, _) = matrices._composed(ma, mb), matrices._composed(mb, ma)
        assert np.array_equal(ab, idx ^ (ma[0][:, :1] ^ mb[0][:, :1]))
        assert np.array_equal(ba, ab)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_deviation_is_the_dense_one(self, n):
        # rows shared or apart, the largest entry of the dense difference
        _, ma, mb = self.seeded(n)
        dense = np.zeros((2, len(ma[0]), 2**n, 2**n), dtype=complex)
        for out, (p, v) in zip(dense, (ma, mb)):
            out[np.arange(len(p))[:, None], p, np.arange(2**n)] = v
        want = np.max(np.abs(dense[0] - dense[1]), axis=(1, 2))
        assert matrices._deviation(ma, mb).tobytes() == want.tobytes()
        assert 0 < np.sum(ma[0][:, 0] == mb[0][:, 0]) < len(want)


class TestMonomialOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_represent_equals_gamma_product(self, n):
        for lab in labels_upto(2 * n):
            oracle = gamma_product(lab, n)
            for phase in range(4):
                el = ScaledElement(lab, phase=phase)
                assert maxabs(represent(el) - el.coefficient * oracle) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_label_factors_chain_to_gamma_product(self, n):
        # the verify oracle's per-qubit products, Kronecker-chained: every
        # label up to n = 4, and 200 seeded ones at n = 5 and 6; chained for
        # all labels at once, the bytes of each label's own chain
        if n <= 4:
            masks = list(range(4**n))
        else:
            masks = np.random.default_rng(n).integers(0, 4**n, 200).tolist()
        factors = _label_factors(masks, n)
        chains = _kron_chain(factors.swapaxes(0, 1))
        for mask, own, chain in zip(masks, factors, chains):
            assert np.array_equal(_kron_chain(own), gamma_product(BasisLabel(mask, 2 * n), n))
            assert chain.tobytes() == _kron_chain(own).tobytes()

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

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_fewer_than_one_qubit(self, n):
        with pytest.raises(ValueError, match="qubit count must be >= 1"):
            recursive_construct(n)

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
            assert pauli_factorization(el).support() == (k,)

    def test_xx_type_pair_has_adjacent_support(self):
        n = 3
        for k in range(n - 1):
            el = hermitize(label([2 * k + 1, 2 * k + 2], 2 * n))
            assert pauli_factorization(el).support() == (k, k + 1)

    def test_order3_element_is_single_qubit(self):
        n = 3
        el = hermitize(label([0, 1, 2], 2 * n))
        assert pauli_factorization(el).support() == (1,)

    def test_factorization_matches_represent_exhaustively(self):
        n = 2
        for lab in labels_upto(2 * n):
            el = hermitize(lab)
            f = pauli_factorization(el)
            assert maxabs(pauli_matrix(f) - represent(el)) == 0.0

    def test_unit_has_empty_support(self):
        assert pauli_factorization(ScaledElement.unit(4)).support() == ()

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            pauli_factorization(ScaledElement.zero(4))


class TestDecompose:
    def test_indicator(self):
        n = 2
        target = label([0, 1, 2], 2 * n)
        coeffs = decompose(represent(hermitize(target)), n)
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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_equals_the_label_loop_bit_for_bit(self, n):
        # the same keys in the same order and the same floats as one
        # monomial per label; float entries, so every rounding shows
        h = random_hermitian(n, np.random.default_rng(70 + n))
        got, want = decompose(h, n), loop_decompose(h, n)
        assert list(got) == list(want)
        assert all(type(alpha) is float for alpha in got.values())
        assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_reconstruct_equals_the_term_loop_bit_for_bit(self, n):
        # the scatters add each entry's terms in the loop's order
        coeffs = decompose(random_hermitian(n, np.random.default_rng(n)), n)
        assert reconstruct(coeffs, n).tobytes() == loop_reconstruct(coeffs, n).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_reconstruct_is_the_same_seven_terms_at_a_time(self, monkeypatch, n):
        # a term takes 40 bytes a column, so 7 terms fill the patched chunk and
        # the 4^n terms end in a partial one
        monkeypatch.setattr(matrices, "CHUNK_BYTES", 7 * 40 * 2**n)
        calls = chunk_sizes(monkeypatch, matrices)
        coeffs = decompose(random_hermitian(n, np.random.default_rng(n)), n)
        assert reconstruct(coeffs, n).tobytes() == loop_reconstruct(coeffs, n).tobytes()
        assert calls == [[7] * (4**n // 7) + [4**n % 7]]

    @pytest.mark.parametrize(
        "coeffs",
        [{}, {label([0, 1, 2], 4): -0.75}, {label([], 4): 0.0}],
        ids=["empty", "one-term", "zero-term"],
    )
    def test_reconstruct_of_few_terms(self, coeffs):
        out = reconstruct(coeffs, 2)
        assert out.shape == (4, 4) and out.tobytes() == loop_reconstruct(coeffs, 2).tobytes()


class TestHermitizedStream:
    """matrices._hermitized, the one stream of hermitized terms behind
    reconstruct and GateSequence.matrix: each chunk is bit for bit the
    signed permutations of its labels' hermitize elements."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_chunks_are_signed_permutations_of_hermitize(self, monkeypatch, n):
        if n <= 4:
            labels = list(all_labels(2 * n))
        else:
            masks = np.random.default_rng(n).integers(0, 4**n, 500).tolist()
            labels = [BasisLabel(mask, 2 * n) for mask in masks]
        # three labels a chunk: 4^n and 500 labels both end in a partial chunk
        monkeypatch.setattr(matrices, "CHUNK_BYTES", 3 * 40 * 2**n)
        parts, perms, values = zip(*matrices._hermitized(labels, n))
        starts = range(0, len(labels), 3)
        assert list(parts) == [slice(i, min(i + 3, len(labels))) for i in starts]
        assert len(labels) % 3 and len(parts) > 1
        want = signed_permutations([hermitize(lab) for lab in labels], n)
        assert np.concatenate(perms).tobytes() == want[0].tobytes()
        assert np.concatenate(values).tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("n", [1, 3])
    def test_no_labels_yield_nothing(self, n):
        # so reconstruct({}) is zero and an empty GateSequence the identity (tested above
        # and in test_synthesis)
        assert list(matrices._hermitized([], n)) == []

    @pytest.mark.parametrize("at", [0, 7, 15], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("stray, error, match", STRAYS)
    def test_reconstruct_checks_every_ambient(self, monkeypatch, stray, error, match, at):
        # the stray label in the first, a middle or the last chunk of three terms
        monkeypatch.setattr(matrices, "CHUNK_BYTES", 3 * 40 * 4)
        labels = list(all_labels(4))
        labels[at] = stray
        with pytest.raises(error, match=match):
            reconstruct(dict.fromkeys(labels, 0.5), 2)


class TestExpm:
    def test_zero_hamiltonian(self):
        assert maxabs(expm_hermitian(np.zeros((4, 4)), 0.7) - np.eye(4)) == 0.0

    def test_matches_closed_form(self):
        rng = np.random.default_rng(3)
        labs = labels_upto(6)
        for _ in range(25):
            lab = labs[rng.integers(0, len(labs))]
            tau = rng.normal()
            m = represent(hermitize(lab))
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


def off_by_one_label(el):
    # el's coefficient on the label with generator 0 toggled (the zero stays zero)
    return dataclasses.replace(el, label=BasisLabel(el.label.mask ^ 1, el.ambient))


# the symbolic side of the pair checks made wrong in one way each
PAIR_CORRUPTIONS = [
    pytest.param("product-homomorphism", "product",
                 lambda a, b: dataclasses.replace(product(a, b), phase=product(a, b).phase + 2),
                 id="product"),
    pytest.param("commutator-homomorphism", "commutator",
                 lambda a, b: ScaledElement.zero(a.ambient), id="commutator"),
    # the right coefficient on the wrong label: both sides nonzero, rows apart
    pytest.param("product-homomorphism", "product",
                 lambda a, b: off_by_one_label(product(a, b)), id="product-label"),
    pytest.param("commutator-homomorphism", "commutator",
                 lambda a, b: off_by_one_label(commutator(a, b)), id="commutator-label"),
    pytest.param("commutation-dichotomy", "commutes", lambda a, b: True, id="commutes"),
    pytest.param("trace-orthogonality", "hermitization_phase",
                 lambda order: 1 - hermitization_phase(order), id="hermitization_phase"),
]


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

    def test_sampled_labels_and_pairs(self, monkeypatch):
        # with the cap at 8, both the 16 labels and their 256 pairs are drawn
        # from the seed, as they are at 7 qubits under the real cap
        full = verify_representation(2, seed=3)
        monkeypatch.setattr(matrices, "SAMPLE_CAP", 8)
        sampled = verify_representation(2, seed=3)
        assert all(c.passed for c in sampled), [c for c in sampled if not c.passed]
        assert [c.name for c in sampled] == [c.name for c in full] and len(full) == 11
        assert sampled != full  # the draws move the round-trip matrix
        assert verify_representation(2, seed=3) == sampled

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_the_dense_sweep(self, n):
        # the same draws, checks and deviations, bit for bit, as dense
        # stacks and matmuls give
        for seed in (0, 5, 9):
            assert verify_representation(n, seed=seed) == dense_verify(n, seed)

    def test_sampled_sweep_lists_no_labels(self, monkeypatch):
        # labels are drawn as masks: the one all_labels call left is
        # decompose's, in the round trip
        monkeypatch.setattr(matrices, "SAMPLE_CAP", 8)
        calls = []

        def counted(ambient):
            calls.append(ambient)
            return all_labels(ambient)

        monkeypatch.setattr(matrices, "all_labels", counted)
        results = verify_representation(2, seed=4)
        assert calls == [4]
        assert results == dense_verify(2, 4)

    def test_matches_the_dense_sweep_sampled_and_in_part_chunks(self, monkeypatch):
        # 13 of the 64 labels and 13 of their pairs drawn.  At 8 columns a label
        # takes 5 * 24 * 8 bytes and its oracle 3 * 16 * 64, a pair 10 * 24 * 8
        # and a round-trip term 40 * 8, so the labels go 7 at a time and their
        # oracles 2 at a time, the pairs 3 and the 64 terms 21 at a time
        monkeypatch.setattr(matrices, "SAMPLE_CAP", 13)
        monkeypatch.setattr(matrices, "CHUNK_BYTES", 7000)
        want = dense_verify(3, 1)
        calls = chunk_sizes(monkeypatch, matrices)
        assert verify_representation(3, seed=1) == want
        assert calls == [[7, 6], [2, 2, 2, 1], [2, 2, 2], [3, 3, 3, 3, 1], [21, 21, 21, 1]]

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_the_dense_sweep_one_item_at_a_time(self, monkeypatch, n):
        monkeypatch.setattr(matrices, "CHUNK_BYTES", 1)
        want = dense_verify(n, n)
        calls = chunk_sizes(monkeypatch, matrices)
        assert verify_representation(n, seed=n) == want
        # every label, each label's oracle, every pair (16^n of them, up to
        # SAMPLE_CAP) and every round-trip term
        assert calls == [[1] * 4**n] + [[1]] * 4**n + [[1] * 16**n, [1] * 4**n]

    @pytest.mark.parametrize("check, name, corrupt", PAIR_CORRUPTIONS)
    def test_failing_deviations_match_the_dense_sweep(self, monkeypatch, check, name, corrupt):
        monkeypatch.setattr(matrices, name, corrupt)
        if name == "hermitization_phase":
            monkeypatch.setattr(algebra, name, corrupt)
        # at n = 4 the sampled pairs span several chunks of gathered labels
        for n in (2, 3, 4):
            results = verify_representation(n, seed=5)
            assert not {c.name: c for c in results}[check].passed
            assert results == dense_verify(n, 5)

    @pytest.mark.parametrize("check, name, corrupt", PAIR_CORRUPTIONS)
    def test_each_pair_check_can_fail(self, capsys, monkeypatch, check, name, corrupt):
        # the symbolic side made wrong in one way: the named check must catch it
        monkeypatch.setattr(matrices, name, corrupt)
        if name == "hermitization_phase":  # hermitize reads it from algebra
            monkeypatch.setattr(algebra, name, corrupt)
        results = {c.name: c for c in verify_representation(2)}
        assert not results[check].passed
        assert main(["verify-rep", "-n", "2"]) == EXIT_VERIFY
        (line,) = [ln for ln in capsys.readouterr().out.splitlines() if f"name={check} " in ln]
        assert line.endswith("status=fail")

    @pytest.mark.parametrize(
        "check, module, name, corrupt",
        [
            ("factorization-consistency", matrices, "pauli_monomial",
             lambda masks, n: (*pauli_monomial(masks, n)[:2], pauli_monomial(masks, n)[2] + 2 & 3)),
            ("hermitized-squares", algebra, "hermitization_phase", lambda order: 0),
        ],
        ids=["pauli_monomial", "hermitization_phase"],
    )
    def test_each_label_check_can_fail(self, capsys, monkeypatch, check, module, name, corrupt):
        # the element's matrix made wrong in one way: the named label check
        # must catch it (hermitize reads hermitization_phase from algebra)
        monkeypatch.setattr(module, name, corrupt)
        results = {c.name: c for c in verify_representation(2)}
        assert not results[check].passed
        assert main(["verify-rep", "-n", "2"]) == EXIT_VERIFY
        (line,) = [ln for ln in capsys.readouterr().out.splitlines() if f"name={check} " in ln]
        assert line.endswith("status=fail")

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_wrong_label_is_caught(self, monkeypatch, n):
        # only the last label's monomial made wrong: the label checks must
        # reach every label of a chunk, not only its first
        def corrupt(masks, n):
            x, z, phase = pauli_monomial(masks, n)
            return x, z, np.where(masks == 4**n - 1, phase + 2 & 3, phase)

        monkeypatch.setattr(matrices, "pauli_monomial", corrupt)
        results = verify_representation(n)
        assert not {c.name: c for c in results}["factorization-consistency"].passed
        assert results == dense_verify(n, 0)

    def test_memory_stays_flat_at_six_qubits(self, monkeypatch):
        # 4096 labels of 64x64 matrices, 64 of them and 64 pairs drawn; forming
        # all 144 generator products at once would peak near 27 MiB
        monkeypatch.setattr(matrices, "SAMPLE_CAP", 64)
        tracemalloc.start()
        try:
            results = verify_representation(6, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(c.passed for c in results), [c for c in results if not c.passed]
        assert peak < 20 * 2**20

    def test_memory_stays_flat_at_seven_qubits(self, monkeypatch):
        # 16384 labels of 128x128 matrices, 64 of them and 64 pairs drawn:
        # reconstruct forming all its terms' signed permutations at once
        # would take about 67 MiB
        monkeypatch.setattr(matrices, "SAMPLE_CAP", 64)
        tracemalloc.start()
        try:
            results = verify_representation(7, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(c.passed for c in results), [c for c in results if not c.passed]
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_planned_peak_bounds_the_traced_peak(self, monkeypatch, n):
        # a budget one byte below the traced peak must refuse the sweep, so
        # the planned peak is at least the traced one
        tracemalloc.start()
        try:
            verify_representation(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(matrices, "MEMORY_BUDGET", peak - 1)
        with pytest.raises(MemoryError):
            verify_representation(n)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_refuses_past_the_budget_before_allocating(self, monkeypatch, n):
        monkeypatch.setattr(matrices, "MEMORY_BUDGET", 1 << 20)
        tracemalloc.start()
        try:
            want = rf"^{n} qubits plan \d+ MiB, past the budget of 1 MiB$"
            with pytest.raises(MemoryError, match=want):
                verify_representation(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_budget_admits_nine_qubits(self, monkeypatch):
        # the budget is checked first: an admitted sweep gets past it to its
        # seeded generator, patched here to stop it before any allocation
        def stop(seed):
            raise LookupError(seed)

        monkeypatch.setattr(np.random, "default_rng", stop)
        for n in (8, 9):
            with pytest.raises(LookupError):
                verify_representation(n)
        with pytest.raises(MemoryError):
            verify_representation(10)

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_fewer_than_one_qubit(self, n):
        with pytest.raises(ValueError, match="qubit count must be >= 1"):
            verify_representation(n)

    def test_qubit_count_rejects_odd(self):
        with pytest.raises(ValueError):
            qubit_count(5)
        assert qubit_count(6) == 3

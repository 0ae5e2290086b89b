import math
import random
import tracemalloc
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffgate import (
    BasisLabel,
    CapExceededError,
    CoefficientVector,
    Gate,
    GateSequence,
    ScaledElement,
    all_labels,
    chain_generators,
    close,
    commutator_gate,
    commutes,
    decompose,
    expm_hermitian,
    hermitize,
    irrational_power,
    minimal_power_scan,
    operator_distance,
    pauli_factorization,
    represent,
    synthesize,
    trotter,
)
from cliffgate import matrices, synthesis
from cliffgate.matrices import random_hermitian
from cliffgate.power import DEFAULT_POWER_CAP, TWO_PI
from cliffgate.synthesis import MAX_GATES
from conftest import STRAYS, chunk_sizes, label, labels_upto, maxabs, unitarity_defect


class TestBasisGate:
    def test_zero_angle_is_identity(self):
        g = Gate(label([0, 2], 4), 0.0)
        assert maxabs(g.matrix() - np.eye(4)) == 0.0

    def test_quarter_turn_is_i_times_element(self):
        lab = label([0, 1, 2], 6)
        g = Gate(lab, math.pi / 2)
        assert maxabs(g.matrix() - 1j * represent(hermitize(lab))) < 1e-15

    def test_three_four_five_angle(self):
        lab = label([1, 2], 4)
        g = Gate(lab, math.atan2(0.6, 0.8))
        want = 0.8 * np.eye(4) + 0.6j * represent(hermitize(lab))
        assert maxabs(g.matrix() - want) < 1e-15

    def test_matches_eigendecomposition_exponential(self):
        rng = np.random.default_rng(17)
        labs = labels_upto(6)
        for _ in range(100):
            lab = labs[rng.integers(0, len(labs))]
            tau = 4.0 * rng.normal()
            gate = Gate(lab, tau)
            target = expm_hermitian(represent(hermitize(lab)), tau)
            assert operator_distance(gate.matrix(), target) < 1e-12

    def test_unitary(self):
        rng = np.random.default_rng(23)
        labs = labels_upto(4)
        for _ in range(50):
            g = Gate(labs[rng.integers(0, len(labs))], rng.normal())
            assert unitarity_defect(g.matrix()) < 1e-10


class TestCommutatorGate:
    def test_generator_pair(self):
        seq = commutator_gate(label([0], 2), label([1], 2), 0.3)
        h0 = represent(hermitize(label([0], 2)))
        h1 = represent(hermitize(label([1], 2)))
        target = scipy.linalg.expm(-0.3 * h0 @ h1)
        assert operator_distance(seq.matrix(), target) < 1e-12
        assert seq.error < 1e-12

    def test_commuting_pair_refused(self):
        with pytest.raises(ValueError, match="commute"):
            commutator_gate(label([0, 1], 4), label([2, 3], 4), 0.5)

    def test_zero_angle_gives_identity(self):
        seq = commutator_gate(label([0], 2), label([1], 2), 0.0)
        assert operator_distance(seq.matrix(), np.eye(2)) < 1e-15

    def test_exact_for_all_anticommuting_pairs_two_qubits(self):
        n = 2
        labs = labels_upto(2 * n)
        for a in labs:
            for b in labs:
                if commutes(a, b):
                    continue
                seq = commutator_gate(a, b, 0.7)
                ha, hb = represent(hermitize(a)), represent(hermitize(b))
                target = math.cos(0.7) * np.eye(2**n) - math.sin(0.7) * (ha @ hb)
                assert operator_distance(seq.matrix(), target) < 1e-12


class TestTrotter:
    def test_empty_vector_is_identity(self):
        seq = trotter(CoefficientVector(2, {}), 5)
        assert seq.error == 0.0
        assert maxabs(seq.matrix() - np.eye(4)) == 0.0

    def test_all_zero_coefficients(self):
        coeffs = CoefficientVector(2, {lab: 0.0 for lab in labels_upto(4)})
        seq = trotter(coeffs, 3)
        assert seq.error == 0.0

    def test_single_term_is_exact_for_any_step_count(self):
        coeffs = CoefficientVector(2, {label([0, 1, 2], 4): 0.9})
        for steps in (1, 2, 7):
            assert trotter(coeffs, steps).error < 1e-12

    def test_error_halves_when_steps_double(self):
        rng = np.random.default_rng(20260809)
        h = random_hermitian(2, rng)
        coeffs = decompose(h, 2)
        norm = math.sqrt(sum(v * v for v in coeffs.values()))
        vec = CoefficientVector(2, {k: v / norm for k, v in coeffs.items()})
        e16 = trotter(vec, 16).error
        e32 = trotter(vec, 32).error
        assert 1.6 <= e16 / e32 <= 2.4

    def test_gate_count_and_order(self):
        coeffs = CoefficientVector(2, {label([0], 4): 0.1, label([0, 1], 4): 0.2})
        seq = trotter(coeffs, 3)
        assert len(seq.gates) == 6
        assert [g.label for g in seq.gates[:2]] == [label([0], 4), label([0, 1], 4)]

    def test_rejects_bad_step_count(self):
        with pytest.raises(ValueError):
            trotter(CoefficientVector(2, {}), 0)

    def test_gate_budget(self):
        coeffs = CoefficientVector(2, {label([0], 4): 0.1, label([0, 1], 4): 0.2})
        with pytest.raises(CapExceededError, match="gate budget 1048576"):
            trotter(coeffs, MAX_GATES // 2 + 1)
        # terms at zero emit no gates, so any step count fits
        assert trotter(CoefficientVector(2, {label([0], 4): 0.0}), 10**12).gates == ()


def anticommutation_bound(terms, steps):
    """(1/2N) * sum over label pairs i < j of ||[a_i h_i, a_j h_j]||: 2|a_i a_j|
    when the labels anticommute, that is when |a|*|b| - |a & b| is odd."""
    total = 0.0
    for i, (a, alpha) in enumerate(terms):
        for b, beta in terms[i + 1 :]:
            order = a.mask.bit_count() * b.mask.bit_count() - (a.mask & b.mask).bit_count()
            total += 2 * abs(alpha * beta) * (order % 2)
    return total / (2 * steps)


@st.composite
def coefficient_vectors(draw):
    n = draw(st.integers(1, 3))
    coeff = st.one_of(st.just(0.0), st.floats(-2.0, 2.0, allow_nan=False))
    values = draw(st.lists(coeff, min_size=4**n, max_size=4**n))
    return CoefficientVector(n, dict(zip(labels_upto(2 * n), values)))


class TestTrotterBound:
    @given(coefficient_vectors(), st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_error_within_the_first_order_commutator_bound(self, coeffs, steps):
        bound = anticommutation_bound(coeffs.terms(), steps)
        assert trotter(coeffs, steps).error <= bound + 1e-10


class TestBlockText:
    """A product formula is one block and its step count; its text is the
    gate-by-gate text of the whole sequence."""

    @given(coefficient_vectors(), st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_text_is_the_flat_gate_text(self, coeffs, steps):
        seq = trotter(coeffs, steps)
        assert (len(seq.block), seq.repeats) == (len(coeffs.terms()), steps)
        flat = "".join(f"{g}\n" for g in seq.gates) + f"error {seq.error:.17g}\n"
        assert seq.to_text() == flat

    def test_memory_at_the_gate_budget_stays_near_the_text(self):
        # 2^20 gate lines; holding them as a flat gate tuple and a list of
        # line strings peaked near 4.9 times the text
        h = random_hermitian(1, np.random.default_rng(7))
        tracemalloc.start()
        try:
            text = synthesize(h, MAX_GATES // 4, 1).to_text()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text.count("\n") == MAX_GATES + 1
        assert peak < 3 * len(text)


class TestSynthesize:
    def test_basis_element_is_exact_at_one_step(self):
        n = 2
        h = represent(hermitize(label([0, 1, 2], 4)))
        seq = synthesize(h, 1, n)
        assert len(seq.gates) == 1
        assert seq.error < 1e-12

    def test_zero_matrix(self):
        seq = synthesize(np.zeros((4, 4)), 4, 2)
        assert seq.gates == ()
        assert seq.error < 1e-14

    def test_error_decreases_with_steps(self):
        rng = np.random.default_rng(31)
        h = random_hermitian(2, rng)
        e16 = synthesize(h, 16, 2).error
        e64 = synthesize(h, 64, 2).error
        assert e64 < e16

    def test_rejects_non_hermitian(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            synthesize(bad, 4, 1)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            synthesize(np.zeros((4, 4)), 4, 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_block_is_trotter_of_the_filtered_decomposition(self, n):
        # decompose keys its coefficients in canonical order on n qubits, so its
        # filtered items are the terms trotter reads off a CoefficientVector
        coeffs = decompose(random_hermitian(n, np.random.default_rng(70 + n)), n)
        for lab in list(coeffs)[::2]:
            coeffs[lab] = 0.0  # decomposed again at rounding level, under ATOL
        h = matrices.reconstruct(coeffs, n)
        kept = {lab: a for lab, a in decompose(h, n).items() if abs(a) > synthesis.ATOL}
        assert len(kept) == 4**n // 2
        for steps in (1, 4, 16):
            want = trotter(CoefficientVector(n, kept), steps)
            assert synthesize(h, steps, n).block == want.block


# pi to 60 digits: the exact reference measures turns against it rather
# than against the float 2*pi of the search
PI_60 = Fraction("3.14159265358979323846264338327950288419716939937510582097494")


def exact_minimal_power(angle, eps, cap, two_pi=2 * PI_60):
    """Smallest N <= cap whose exact N*angle lies within eps of two_pi*Z, or None.

    Only convergent denominators of angle/two_pi can be such an N, so the
    reference walks those of the float angle taken as an exact fraction.
    """
    x = Fraction(angle) / two_pi
    num, den = (x - math.floor(x)).as_integer_ratio()
    q_prev, q = 0, 1
    while q <= cap:
        turns = q * x
        if abs(turns - round(turns)) * two_pi < eps:
            return q
        if num == 0:
            return None
        term, num, den = den // num, den % num, num
        q_prev, q = q, term * q + q_prev
    return None


class TestIrrationalPower:
    def test_rational_quarter_turn(self):
        res = irrational_power(math.pi / 2, 0.1)
        assert res.applications == 4
        assert res.residual == 0.0

    def test_huge_tolerance_needs_one_application(self):
        assert irrational_power(0.37, 2 * math.pi).applications == 1

    @pytest.mark.parametrize("search", [irrational_power, minimal_power_scan])
    @pytest.mark.parametrize(
        "angle, tolerance, message",
        [
            (0.3, 0.0, "tolerance must be positive and finite, got 0.0"),
            (0.3, -1.0, "tolerance must be positive and finite, got -1.0"),
            (1.0, math.inf, "tolerance must be positive and finite, got inf"),
            (0.3, math.nan, "tolerance must be positive and finite, got nan"),
            (math.inf, 0.1, "angle must be finite, got inf"),
            (-math.inf, 0.1, "angle must be finite, got -inf"),
            (math.nan, 0.1, "angle must be finite, got nan"),
        ],
    )
    def test_both_searches_refuse_the_same_inputs(self, search, angle, tolerance, message):
        # the exact test needs finite ratios; the scan, its oracle, refuses the same inputs
        with pytest.raises(ValueError) as err:
            search(angle, tolerance)
        assert str(err.value) == message

    def test_a_residual_equal_to_the_tolerance_is_no_hit(self):
        # N = 1 leaves a residual of exactly 2^-20, a hit only below a larger tolerance
        tiny = 2.0**-20
        for search in (irrational_power, minimal_power_scan):
            assert search(tiny, tiny).applications == 6588397
            assert search(tiny, math.nextafter(tiny, 1)).applications == 1

    def test_a_residual_of_half_a_turn_is_positive(self):
        # the exact residual of pi is s = turn / 2, which the library keeps at +pi; the
        # scan's float formula (pi + pi) mod 2*pi - pi reads the tie as -pi.  The scan is
        # the oracle of N only, so this sign is not to be made to agree with it
        assert irrational_power(math.pi, 4.0).signed_angle == math.pi
        assert minimal_power_scan(math.pi, 4.0).signed_angle == -math.pi
        assert minimal_power_scan(math.pi, 4.0).applications == 1

    def test_the_scan_searches_up_to_its_cap(self):
        angle, eps = math.atan2(3.0, 4.0), 1e-3
        found = irrational_power(angle, eps).applications
        assert minimal_power_scan(angle, eps, cap=found).applications == found
        with pytest.raises(CapExceededError):
            minimal_power_scan(angle, eps, cap=found - 1)

    @pytest.mark.parametrize("eps", [1e-2, 1e-3])
    def test_matches_brute_force_scan(self, eps):
        angle = math.atan2(3.0, 4.0)
        fast = irrational_power(angle, eps)
        slow = minimal_power_scan(angle, eps)
        assert fast.applications == slow.applications
        assert fast.residual < eps

    def test_more_angles_match_scan(self):
        rng = np.random.default_rng(41)
        for _ in range(8):
            angle = float(rng.uniform(0.05, 3.0))
            fast = irrational_power(angle, 5e-3)
            slow = minimal_power_scan(angle, 5e-3)
            assert fast.applications == slow.applications

    def test_gate_power_identity(self):
        angle = math.atan2(3.0, 4.0)
        res = irrational_power(angle, 1e-2)
        lab = label([0], 2)
        powered = np.linalg.matrix_power(Gate(lab, angle).matrix(), res.applications)
        residual_gate = Gate(lab, res.signed_angle).matrix()
        assert operator_distance(powered, residual_gate) < 1e-10

    def test_cap_raises(self):
        messages = []
        for search in (irrational_power, minimal_power_scan):
            with pytest.raises(CapExceededError) as err:
                search(math.atan2(3.0, 4.0), 1e-9, cap=100)
            messages.append(str(err.value))
        assert messages[0] == messages[1] == (
            "no power at or below cap 100 brings 0.6435011087932844 within 1e-09 of 2*pi*Z"
        )

    def test_negative_small_angle_finds_the_minimal_power(self):
        # angle/(2*pi) mod 1 is 1 - |x| here, which a float expansion
        # cancels to a few digits; the exact ratio keeps every convergent
        angle, eps = -2.2279134884666189e-07, 1.8132397098228843e-08
        found = irrational_power(angle, eps).applications
        assert found == 84606319 == minimal_power_scan(angle, eps, cap=10**8).applications

    def test_small_angles_match_an_exact_reference(self):
        rng = random.Random(20261018)
        outcomes = []
        for _ in range(240):
            angle = rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-9, -3)
            eps = 10 ** rng.uniform(-9.5, -7)
            try:
                found = irrational_power(angle, eps).applications
            except CapExceededError:
                found = None
            assert found == exact_minimal_power(angle, eps, DEFAULT_POWER_CAP), (angle, eps)
            outcomes.append((angle < 0, found is None))
        # both signs, each with found and exhausted searches
        assert len(set(outcomes)) == 4

    @pytest.mark.parametrize("cap", [0, -5])
    def test_cap_below_one_raises_before_the_first_convergent(self, cap):
        assert irrational_power(6.28, 0.1).applications == 1
        with pytest.raises(CapExceededError):
            irrational_power(6.28, 0.1, cap=cap)

    def test_huge_angles_are_reduced_exactly(self):
        # q*angle overflows a float here; the integer residual does not
        assert irrational_power(1e308, 0.1).applications == 11
        with pytest.raises(CapExceededError):
            irrational_power(1e300, 1e-9)

    def test_tolerance_below_the_float_spacing_of_n_times_angle(self):
        # N*angle is 4.2e11 here, whose float spacing is 30 times eps, so
        # only an exact residual can find N
        res = irrational_power(187953.19448073578, 2.0199599770878984e-06, cap=10**7)
        assert res.applications == 2243091
        assert res.residual < 2.0199599770878984e-06

    def test_residuals_are_exact_against_the_float_two_pi(self):
        # at eps = 1e-7 a float remainder rounds N = 36187951's exact residual
        # of 1.04e-7 for 5.723304261770566 down below eps
        rng = random.Random(12)
        angles = [5.723304261770566] + [rng.uniform(0.05, TWO_PI - 0.05) for _ in range(150)]
        for angle in angles:
            res = irrational_power(angle, 1e-7)
            assert res.applications == exact_minimal_power(
                angle, 1e-7, DEFAULT_POWER_CAP, two_pi=Fraction(TWO_PI)
            ), angle
            turns = res.applications * Fraction(angle) / Fraction(TWO_PI)
            exact = (turns - round(turns)) * Fraction(TWO_PI)
            assert (res.signed_angle, res.residual) == (float(exact), float(abs(exact))), angle
        assert irrational_power(5.723304261770566, 1e-7).applications == 45444477


class TestLocalGateSet:
    """The paper's local universal set: the 2n+1 chain elements, each on at
    most two adjacent qubits (``PauliFactorization.local``), closing to 4^n
    labels."""

    @staticmethod
    def factorizations(n):
        return [pauli_factorization(el) for el in chain_generators(2 * n).elements]

    def test_two_qubits(self):
        facts = self.factorizations(2)
        result = close(chain_generators(4))
        assert len(facts) == 5
        assert result.dimension == 16
        assert result.universal
        assert all(f.local for f in facts)

    def test_three_and_four_qubits_stay_local(self):
        for n in (3, 4):
            facts = self.factorizations(n)
            assert len(facts) == 2 * n + 1
            for f in facts:
                support = f.support()
                assert f.local and len(support) <= 2
                if len(support) == 2:
                    assert support[1] - support[0] == 1
            assert close(chain_generators(2 * n)).dimension == 4**n

    def test_order3_member_is_single_qubit(self):
        gens = chain_generators(6)
        (top,) = [el for el in gens.elements if el.label == label([0, 1, 2], 6)]
        assert len(pauli_factorization(top).support()) == 1

    def test_rejects_single_qubit(self):
        with pytest.raises(ValueError):
            chain_generators(2)

    def test_local_is_at_most_two_adjacent_qubits(self):
        # against the support: every label of 3 qubits
        for lab in all_labels(6):
            f = pauli_factorization(hermitize(lab))
            support = f.support()
            adjacent = len(support) <= 2 and (not support or support[-1] - support[0] <= 1)
            assert f.local == adjacent, (lab, f)


class TestGateSequenceText:
    def test_seventeen_digit_angles(self):
        g = Gate(label([0], 2), 0.1)
        assert str(g) == "gate e[0] 0.10000000000000001"

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matrix_equals_dense_gate_product(self, n):
        # The dense product may fuse multiply-adds, so agreement is to
        # rounding: a few ulps per gate over 40 gates.
        rng = np.random.default_rng(50 + n)
        labs = labels_upto(2 * n)
        for _ in range(5):
            picks = rng.integers(0, len(labs), size=40)
            gates = tuple(Gate(labs[i], float(rng.uniform(-np.pi, np.pi))) for i in picks)
            want = reduce(np.matmul, [g.matrix() for g in gates], np.eye(2**n, dtype=complex))
            assert maxabs(GateSequence(gates, n).matrix() - want) < 1e-14

    def test_matrix_is_the_same_a_partial_chunk_at_a_time(self, monkeypatch):
        # 16 gates taken 7, 7 and 2 at a time (a gate takes 40 bytes a column)
        # give the same bytes as one chunk
        coeffs = CoefficientVector(2, decompose(random_hermitian(2, np.random.default_rng(9)), 2))
        seq = trotter(coeffs, 3)
        want = seq.matrix().tobytes()
        monkeypatch.setattr(matrices, "CHUNK_BYTES", 7 * 40 * 4)
        calls = chunk_sizes(monkeypatch, matrices)
        assert len(seq.block) == 16 and seq.matrix().tobytes() == want
        assert calls == [[7, 7, 2]]

    def test_sequence_product_is_unitary(self):
        seq = commutator_gate(label([0], 4), label([3], 4), 1.2)
        assert unitarity_defect(seq.matrix()) < 1e-10


def dense_product(gates, n):
    return reduce(np.matmul, [g.matrix() for g in gates], np.eye(2**n, dtype=complex))


class TestBlockPower:
    """matrix() raises the block to its repeat count; the dense gate-by-gate
    product is the oracle, also for sequences that only nearly repeat and
    are one block repeated once."""

    @staticmethod
    def random_gates(n, size, seed):
        rng = np.random.default_rng(seed)
        labs = labels_upto(2 * n)
        picks = rng.integers(0, len(labs), size=size)
        return tuple(Gate(labs[i], float(rng.uniform(-np.pi, np.pi))) for i in picks)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("steps", [1, 2, 3, 5, 8, 32])
    def test_repeated_block_matches_the_dense_product(self, n, steps):
        block = self.random_gates(n, 4**n, 70 + n)
        seq = GateSequence(block, n, steps)
        assert seq.gates == block * steps
        assert maxabs(seq.matrix() - dense_product(block * steps, n)) < 1e-13

    def test_one_extra_gate_breaks_the_period(self):
        block = self.random_gates(2, 6, 81)
        gates = block * 8 + block[:1]
        assert maxabs(GateSequence(gates, 2).matrix() - dense_product(gates, 2)) < 1e-13

    def test_first_gate_recurring_inside_the_block(self):
        a, b, c = self.random_gates(2, 3, 82)
        block = (a, b, a, c)
        for gates in (block, block * 5):
            assert maxabs(GateSequence(gates, 2).matrix() - dense_product(gates, 2)) < 1e-13

    def test_same_label_at_two_angles_is_not_a_repeat(self):
        x, y = label([0], 4), label([1, 2], 4)
        gates = (Gate(x, 0.3), Gate(y, 0.5), Gate(x, 0.7), Gate(y, 0.5)) * 3
        assert maxabs(GateSequence(gates, 2).matrix() - dense_product(gates, 2)) < 1e-13

    def test_empty_sequence_is_the_identity(self):
        assert maxabs(GateSequence((), 2).matrix() - np.eye(4)) == 0.0

    @pytest.mark.parametrize("steps", [1, 2, 7, 64])
    def test_single_gate_repeated(self, steps):
        gate = Gate(label([0, 1, 2], 6), 0.41)
        gates = (gate,) * steps
        assert maxabs(GateSequence(gates, 3).matrix() - dense_product(gates, 3)) < 1e-13

    @pytest.mark.parametrize("steps", [1, 2, 7, 64])
    def test_single_gate_block(self, steps):
        gate = Gate(label([0, 1, 2], 6), 0.41)
        want = dense_product((gate,) * steps, 3)
        assert maxabs(GateSequence((gate,), 3, steps).matrix() - want) < 1e-13

    def test_empty_block_repeated_is_the_identity(self):
        assert maxabs(GateSequence((), 2, 10**12).matrix() - np.eye(4)) == 0.0

    def test_zero_repeats_is_the_empty_sequence(self):
        seq = GateSequence(self.random_gates(2, 3, 83), 2, 0)
        assert seq.gates == () and seq.to_text() == ""
        assert seq.matrix().tobytes() == np.eye(4, dtype=complex).tobytes()

    @pytest.mark.parametrize("repeats", [-1, -2, -(10**12)])
    def test_negative_repeats_are_refused(self, repeats):
        # matrix_power would read -1 as the inverse of the block
        with pytest.raises(ValueError, match="repeat count must be >= 0"):
            GateSequence(self.random_gates(2, 3, 83), 2, repeats)

    @pytest.mark.parametrize("at", [0, 7, 15], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("stray, error, match", STRAYS)
    def test_matrix_checks_every_ambient(self, monkeypatch, stray, error, match, at):
        # the stray gate in the first, a middle or the last chunk of three gates
        monkeypatch.setattr(matrices, "CHUNK_BYTES", 3 * 40 * 4)
        gates = list(self.random_gates(2, 16, 84))
        gates[at] = Gate(stray, 0.3)
        with pytest.raises(error, match=match):
            GateSequence(tuple(gates), 2).matrix()


class TestDistances:
    def test_operator_distance_is_spectral(self):
        a = np.diag([1.0, 1.0])
        b = np.diag([1.0, -1.0])
        assert operator_distance(a, b) == pytest.approx(2.0)

    def test_operator_distance_sees_global_phase(self):
        rng = np.random.default_rng(4)
        u = expm_hermitian(random_hermitian(2, rng), 1.0)
        assert operator_distance(u, 1j * u) > 1.0

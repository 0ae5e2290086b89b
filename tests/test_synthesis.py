import math
import random
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
    ParseError,
    ScaledElement,
    all_labels,
    chain_generators,
    close,
    commutator_gate,
    commutes,
    decompose,
    expm_hermitian,
    hermitize,
    hermitized_matrix,
    irrational_power,
    minimal_power_scan,
    operator_distance,
    pauli_factorization,
    phase_aligned_distance,
    synthesize,
    trotter,
)
from cliffgate.matrices import random_hermitian, unitarity_defect
from cliffgate.power import DEFAULT_POWER_CAP, TWO_PI
from cliffgate.synthesis import MAX_GATES, _period
from conftest import label, labels_upto, maxabs


class TestBasisGate:
    def test_zero_angle_is_identity(self):
        g = Gate(label([0, 2], 4), 0.0)
        assert maxabs(g.matrix() - np.eye(4)) == 0.0

    def test_quarter_turn_is_i_times_element(self):
        lab = label([0, 1, 2], 6)
        g = Gate(lab, math.pi / 2)
        assert maxabs(g.matrix() - 1j * hermitized_matrix(lab, 3)) < 1e-15

    def test_three_four_five_angle(self):
        lab = label([1, 2], 4)
        g = Gate(lab, math.atan2(0.6, 0.8))
        want = 0.8 * np.eye(4) + 0.6j * hermitized_matrix(lab, 2)
        assert maxabs(g.matrix() - want) < 1e-15

    def test_matches_eigendecomposition_exponential(self):
        rng = np.random.default_rng(17)
        labs = labels_upto(6)
        for _ in range(100):
            lab = labs[rng.integers(0, len(labs))]
            tau = 4.0 * rng.normal()
            gate = Gate(lab, tau)
            target = expm_hermitian(hermitized_matrix(lab, 3), tau)
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
        h0 = hermitized_matrix(label([0], 2), 1)
        h1 = hermitized_matrix(label([1], 2), 1)
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
                ha, hb = hermitized_matrix(a, n), hermitized_matrix(b, n)
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


class TestSynthesize:
    def test_basis_element_is_exact_at_one_step(self):
        n = 2
        h = hermitized_matrix(label([0, 1, 2], 4), n)
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

    def test_rejects_nonpositive_tolerance(self):
        for tolerance in (0.0, math.inf, math.nan):  # the exact test needs a finite ratio
            with pytest.raises(ValueError):
                irrational_power(0.3, tolerance)
        with pytest.raises(ValueError):
            minimal_power_scan(0.3, -1.0)

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
        return [pauli_factorization(el, n) for el in chain_generators(2 * n).elements]

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
        assert len(pauli_factorization(top, 3).support()) == 1

    def test_rejects_single_qubit(self):
        with pytest.raises(ValueError):
            chain_generators(2)

    def test_local_is_at_most_two_adjacent_qubits(self):
        # against the support: every label of 3 qubits
        for lab in all_labels(6):
            f = pauli_factorization(hermitize(lab), 3)
            support = f.support()
            adjacent = len(support) <= 2 and (not support or support[-1] - support[0] <= 1)
            assert f.local == adjacent, (lab, f)


class TestGateSequenceText:
    def test_roundtrip(self):
        seq = commutator_gate(label([0], 4), label([0, 1], 4), 0.25)
        text = seq.to_text()
        back = GateSequence.from_text(text, qubits=2)
        assert [(g.label, g.angle) for g in back.gates] == [
            (g.label, g.angle) for g in seq.gates
        ]
        assert back.error == seq.error

    @pytest.mark.parametrize(
        "text", ["gate e[0] 0.5\nbogus 1\n", "gate e[0] half\n", "gate e[0] 0.5\nerror x\n"]
    )
    def test_malformed_text_is_parse_error(self, text):
        with pytest.raises(ParseError):
            GateSequence.from_text(text, qubits=2)

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

    def test_sequence_product_is_unitary(self):
        seq = commutator_gate(label([0], 4), label([3], 4), 1.2)
        assert unitarity_defect(seq.matrix()) < 1e-10


def dense_product(gates, n):
    return reduce(np.matmul, [g.matrix() for g in gates], np.eye(2**n, dtype=complex))


class TestBlockPower:
    """matrix() raises a repeated block to its count; the dense gate-by-gate
    product is the oracle, and sequences that only nearly repeat must be
    applied whole."""

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
        gates = block * steps
        assert _period(gates) == len(block)
        assert maxabs(GateSequence(gates, n).matrix() - dense_product(gates, n)) < 1e-13

    def test_one_extra_gate_breaks_the_period(self):
        block = self.random_gates(2, 6, 81)
        gates = block * 8 + block[:1]
        assert _period(gates) == len(gates)
        assert maxabs(GateSequence(gates, 2).matrix() - dense_product(gates, 2)) < 1e-13

    def test_first_gate_recurring_inside_the_block(self):
        a, b, c = self.random_gates(2, 3, 82)
        block = (a, b, a, c)
        for gates in (block, block * 5):
            assert _period(gates) == len(block)
            assert maxabs(GateSequence(gates, 2).matrix() - dense_product(gates, 2)) < 1e-13

    def test_same_label_at_two_angles_is_not_a_repeat(self):
        x, y = label([0], 4), label([1, 2], 4)
        gates = (Gate(x, 0.3), Gate(y, 0.5), Gate(x, 0.7), Gate(y, 0.5)) * 3
        assert _period(gates) == 4
        assert maxabs(GateSequence(gates, 2).matrix() - dense_product(gates, 2)) < 1e-13

    def test_empty_sequence_is_the_identity(self):
        assert _period(()) == 1
        assert maxabs(GateSequence((), 2).matrix() - np.eye(4)) == 0.0

    @pytest.mark.parametrize("steps", [1, 2, 7, 64])
    def test_single_gate_repeated(self, steps):
        gate = Gate(label([0, 1, 2], 6), 0.41)
        gates = (gate,) * steps
        assert _period(gates) == 1
        assert maxabs(GateSequence(gates, 3).matrix() - dense_product(gates, 3)) < 1e-13


class TestDistances:
    def test_operator_distance_is_spectral(self):
        a = np.diag([1.0, 1.0])
        b = np.diag([1.0, -1.0])
        assert operator_distance(a, b) == pytest.approx(2.0)

    def test_phase_aligned_distance_ignores_global_phase(self):
        rng = np.random.default_rng(4)
        u = expm_hermitian(random_hermitian(2, rng), 1.0)
        assert operator_distance(u, 1j * u) > 1.0
        assert phase_aligned_distance(u, 1j * u) < 1e-12

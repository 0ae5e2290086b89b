import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffgate import (
    AmbientMismatchError,
    BasisLabel,
    CoefficientVector,
    Gate,
    GeneratorSet,
    ParseError,
    ScaledElement,
    all_labels,
    certificate,
    close,
    commutator,
    commutator_gate,
    commutes,
    format_element,
    generator,
    hermitize,
    is_universal,
    parse_element,
    parse_label,
    product,
    replay_certificate,
    represent,
    universal_generators,
)
from cliffgate.algebra import format_scalar, parse_scalar
from conftest import elem, inversions, label, labels_upto, maxabs, oracle_product


class TestProduct:
    def test_sorted_pair(self):
        assert product(generator(0, 4), generator(1, 4)) == elem([0, 1], 4)

    def test_swapped_pair_picks_up_sign(self):
        assert product(generator(1, 4), generator(0, 4)) == elem([0, 1], 4, phase=2)

    def test_square_is_unit(self):
        assert product(generator(0, 4), generator(0, 4)) == ScaledElement.unit(4)

    def test_hermitized_square_is_unit(self):
        h = hermitize(label([0, 1], 4))
        assert product(h, h) == ScaledElement.unit(4)

    def test_zero_is_absorbing(self):
        z = ScaledElement.zero(4)
        assert product(z, generator(0, 4)).is_zero
        assert product(generator(0, 4), z).is_zero

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            product(generator(0, 4), generator(0, 6))

    def test_hand_checked_sign(self):
        # g1 g2 g0 g1 = -g0 g2, three transpositions
        assert product(elem([1, 2], 4), elem([0, 1], 4)) == elem([0, 2], 4, phase=2)


class TestCommutes:
    def test_distinct_generators_anticommute(self):
        assert not commutes(label([0], 4), label([1], 4))

    def test_self_commutes(self):
        assert commutes(label([0], 4), label([0], 4))

    def test_disjoint_pairs_commute_and_oracle_agrees(self):
        a, b = label([0, 1], 4), label([2, 3], 4)
        assert commutes(a, b)
        ma = represent(ScaledElement(a), 2)
        mb = represent(ScaledElement(b), 2)
        assert maxabs(ma @ mb - mb @ ma) == 0.0


class TestCommutator:
    def test_generator_pair(self):
        assert commutator(generator(0, 4), generator(1, 4)) == elem([0, 1], 4, pow2=1)

    def test_self_commutator_vanishes(self):
        assert commutator(generator(0, 4), generator(0, 4)).is_zero

    def test_order3_with_generator(self):
        c = commutator(hermitize(label([0, 1, 2], 4)), generator(3, 4))
        assert c.label == label([0, 1, 2, 3], 4)
        assert abs(c.coefficient) == 2.0
        # exact phase against the dense oracle
        lhs = represent(c, 2)
        ma = represent(hermitize(label([0, 1, 2], 4)), 2)
        mb = represent(generator(3, 4), 2)
        assert maxabs(lhs - (ma @ mb - mb @ ma)) == 0.0

    def test_zero_operand(self):
        assert commutator(ScaledElement.zero(4), generator(0, 4)).is_zero


@st.composite
def wide_pairs(draw):
    """Two elements over one ambient in 1..64, either possibly the zero,
    with any phase and positive or negative powers of two."""
    ambient = draw(st.integers(1, 64))

    def one():
        if draw(st.integers(0, 9)) == 0:
            return ScaledElement.zero(ambient)
        return ScaledElement(
            BasisLabel(draw(st.integers(0, (1 << ambient) - 1)), ambient),
            phase=draw(st.integers(0, 3)),
            pow2=draw(st.integers(-70, 70)),
        )

    return one(), one()


class TestFastPathOracle:
    """``product`` and ``commutator`` work on the masks and build through an
    internal constructor; these tests hold them to the public-constructor
    oracle with the full inversion count."""

    @given(wide_pairs())
    @settings(max_examples=400)
    def test_commutator_and_product_match_the_oracle(self, pair):
        a, b = pair
        ab, ba = product(a, b), product(b, a)
        assert ab == oracle_product(a, b) and ba == oracle_product(b, a)
        c = commutator(a, b)
        assert c.is_zero == (ab == ba)
        if not c.is_zero:
            assert c == ScaledElement(ab.label, ab.phase, ab.pow2 + 1)
        else:
            assert c == ScaledElement.zero(a.ambient)

    def test_swap_parity_matches_the_inversion_count(self):
        rng = np.random.default_rng(5)
        for ambient in range(1, 65):
            for _ in range(300):
                a, b = (int(x) for x in rng.integers(0, 1 << ambient, size=2, dtype=np.uint64))
                p = product(
                    ScaledElement(BasisLabel(a, ambient)), ScaledElement(BasisLabel(b, ambient))
                )
                assert p.phase == 2 * (inversions(a, b) % 2)

    def test_zero_is_shared_and_immutable(self):
        z = ScaledElement.zero(6)
        assert z is ScaledElement.zero(6) and z is commutator(generator(0, 6), generator(0, 6))
        assert z == ScaledElement(BasisLabel.unit(6), is_zero=True)
        with pytest.raises(AttributeError):
            z.phase = 1
        assert ScaledElement.zero(7) != z

    def test_derived_values_equal_validated_ones(self):
        c = commutator(generator(0, 4), generator(1, 4))
        assert c == elem([0, 1], 4, pow2=1) and hash(c) == hash(elem([0, 1], 4, pow2=1))
        assert c.label.indices == (0, 1) and str(c) == "2^1*e[0,1]"

    @pytest.mark.parametrize("mask, ambient", [(1 << 4, 4), (-1, 4), (0, 0), (1 << 64, 64)])
    def test_out_of_range_masks_still_raise(self, mask, ambient):
        with pytest.raises(ValueError):
            BasisLabel(mask, ambient)

    def test_ambient_mismatch_still_raises(self):
        for op in (product, commutator):
            with pytest.raises(AmbientMismatchError):
                op(generator(0, 4), generator(0, 6))
            with pytest.raises(AmbientMismatchError):
                op(ScaledElement.zero(4), generator(0, 6))
            with pytest.raises(AmbientMismatchError):
                op(generator(1, 64), ScaledElement.zero(3))


class TestHermitize:
    @pytest.mark.parametrize(
        "indices,phase",
        [([0], 0), ([0, 1], 1), ([0, 1, 2], 1), ([0, 1, 2, 3], 0)],
    )
    def test_phases(self, indices, phase):
        assert hermitize(label(indices, 4)).phase == phase

    def test_squares_to_unit_everywhere(self):
        for lab in labels_upto(6):
            h = hermitize(lab)
            assert product(h, h) == ScaledElement.unit(6)

    def test_order4_is_plain_and_oracle_confirms(self):
        h = hermitize(label([0, 1, 2, 3], 4))
        assert h == elem([0, 1, 2, 3], 4)
        m = represent(h, 2)
        assert maxabs(m - m.conj().T) == 0.0
        assert maxabs(m @ m - np.eye(4)) == 0.0


class TestTextForm:
    def test_parse_plain(self):
        assert parse_element("e[0,1]", 4) == elem([0, 1], 4)

    def test_parse_with_phase(self):
        assert parse_element("i*e[0,1,2]", 4) == elem([0, 1, 2], 4, phase=1)

    def test_parse_pow2_and_negative(self):
        assert parse_element("-2^3*e[2]", 4) == elem([2], 4, phase=2, pow2=3)
        assert parse_element("-i*2^-1*e[]", 4) == ScaledElement(label([], 4), 3, -1)

    def test_zero(self):
        assert parse_element("0", 4).is_zero
        assert format_element(ScaledElement.zero(4)) == "0"

    def test_unit(self):
        assert format_element(ScaledElement.unit(4)) == "e[]"

    @pytest.mark.parametrize(
        "text", ["e[0,0]", "e[1,0]", "e[9]", "e[0,1] junk", "x[0]", "e[a]", "+e[0]"]
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ParseError):
            parse_element(text, 4)

    def test_error_carries_column(self):
        with pytest.raises(ParseError) as err:
            parse_element("e[0,7]", 4)
        assert err.value.column == 4

    def test_parse_label_rejects_coefficients(self):
        assert parse_label("e[0,1]", 4) == label([0, 1], 4)
        with pytest.raises(ParseError):
            parse_label("i*e[0,1]", 4)

    def test_scalar_roundtrip(self):
        for phase in range(4):
            for pow2 in (-2, 0, 1, 5):
                assert parse_scalar(format_scalar(phase, pow2)) == (phase, pow2)


@st.composite
def elements(draw, max_ambient=16):
    ambient = draw(st.integers(1, max_ambient))
    mask = draw(st.integers(0, (1 << ambient) - 1))
    phase = draw(st.integers(0, 3))
    pow2 = draw(st.integers(-4, 4))
    return ScaledElement(BasisLabel(mask, ambient), phase=phase, pow2=pow2)


@st.composite
def element_triples(draw, max_ambient=16):
    ambient = draw(st.integers(1, max_ambient))
    out = []
    for _ in range(3):
        mask = draw(st.integers(0, (1 << ambient) - 1))
        out.append(ScaledElement(BasisLabel(mask, ambient), phase=draw(st.integers(0, 3))))
    return tuple(out)


class TestProperties:
    def test_associativity_exhaustive_small(self):
        labs = labels_upto(4)
        els = [ScaledElement(l) for l in labs]
        for a in els:
            for b in els:
                ab = product(a, b)
                for c in els:
                    assert product(ab, c) == product(a, product(b, c))

    @given(element_triples())
    @settings(max_examples=200)
    def test_associativity_random(self, triple):
        a, b, c = triple
        assert product(product(a, b), c) == product(a, product(b, c))

    @given(elements())
    def test_product_label_is_symmetric_difference(self, a):
        b = ScaledElement(BasisLabel(a.label.mask >> 1, a.ambient))
        p = product(a, b)
        assert p.label.mask == a.label.mask ^ b.label.mask

    @given(elements())
    def test_text_roundtrip(self, a):
        text = format_element(a)
        assert parse_element(text, a.ambient) == a
        assert format_element(parse_element(text, a.ambient)) == text

    @given(elements(max_ambient=8))
    @settings(max_examples=100)
    def test_commutator_is_zero_or_twice_product(self, a):
        b = ScaledElement(BasisLabel(a.label.mask ^ 1, a.ambient))
        c = commutator(a, b)
        if commutes(a.label, b.label):
            assert c.is_zero
        else:
            p = product(a, b)
            assert c == ScaledElement(p.label, p.phase, p.pow2 + 1)

    def test_label_count_is_four_to_the_n(self):
        for ambient in (2, 4, 6):
            assert len(labels_upto(ambient)) == 4 ** (ambient // 2)

    def test_anticommutation_dichotomy_with_oracle(self):
        n = 2
        for a in labels_upto(2 * n):
            for b in labels_upto(2 * n):
                ma = represent(ScaledElement(a), n)
                mb = represent(ScaledElement(b), n)
                comm = maxabs(ma @ mb - mb @ ma)
                anti = maxabs(ma @ mb + mb @ ma)
                assert (comm == 0.0) != (anti == 0.0)
                assert (comm == 0.0) == commutes(a, b)


ODD_AMBIENT = "ambient 5 is odd; a matrix form needs two generators per qubit"

# every entry point that needs a matrix form, each on an ambient of 5
ODD_AMBIENT_CALLS = {
    "commutator_gate": lambda: commutator_gate(label([0], 5), label([1], 5), 0.3),
    "Gate.matrix": lambda: Gate(label([0], 5), 0.3).matrix(),
    "CoefficientVector": lambda: CoefficientVector(2, {label([0], 5): 1.0}),
    "is_universal": lambda: is_universal(universal_generators(5)),
    "replay_certificate": lambda: replay_certificate(
        certificate(close(universal_generators(5)), label([0, 1], 5))
    ),
}


class TestQubitRule:
    @pytest.mark.parametrize("entry", list(ODD_AMBIENT_CALLS))
    def test_odd_ambient_has_no_matrix_form(self, entry):
        with pytest.raises(ValueError) as err:
            ODD_AMBIENT_CALLS[entry]()
        assert str(err.value) == ODD_AMBIENT

    def test_universality_needs_an_even_ambient(self):
        # at ambient 3 the top label as a generator makes the closure reach
        # all 2^3 labels, yet there is no qubit algebra for it to span
        top = ScaledElement(label([0, 1, 2], 3))
        result = close(GeneratorSet.of([generator(k, 3) for k in range(3)] + [top]))
        assert result.dimension == 8
        with pytest.raises(ValueError, match="ambient 3 is odd"):
            result.universal

    def test_mismatched_qubit_count_rejected(self):
        with pytest.raises(AmbientMismatchError, match="does not fit 3 qubits"):
            CoefficientVector(3, {label([0], 4): 1.0})

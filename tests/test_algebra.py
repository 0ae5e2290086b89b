import random
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffgate import (
    AmbientMismatchError,
    BasisLabel,
    Certificate,
    CoefficientVector,
    Gate,
    GeneratorSet,
    ParseError,
    ScaledElement,
    all_labels,
    canonical_key,
    certificate,
    close,
    commutator,
    commutator_gate,
    commutes,
    format_element,
    generator,
    hermitize,
    parse_element,
    parse_label,
    pauli_factorization,
    product,
    replay_certificate,
    represent,
    universal_generators,
)
from cliffgate.algebra import _swap_parity, format_scalar, parse_scalar
from cliffgate.closure import CertificateStep
from cliffgate.matrices import signed_permutations
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
        ma = represent(ScaledElement(a))
        mb = represent(ScaledElement(b))
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
        lhs = represent(c)
        ma = represent(hermitize(label([0, 1, 2], 4)))
        mb = represent(generator(3, 4))
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


class TestBasisLabel:
    @pytest.mark.parametrize(
        "indices, message",
        [
            ([4], "generator index 4 out of range for ambient 4"),
            ([-1], "generator index -1 out of range for ambient 4"),
            ([2, 0, 2], "duplicate generator index 2"),
        ],
        ids=["past-the-end", "negative", "duplicate"],
    )
    def test_from_indices_rejects(self, indices, message):
        with pytest.raises(ValueError) as err:
            BasisLabel.from_indices(indices, 4)
        assert str(err.value) == message

    @pytest.mark.parametrize("mask, text", [(1 << 4, "0x10"), (-1, "-0x1")])
    def test_mask_out_of_range_rejected(self, mask, text):
        with pytest.raises(ValueError) as err:
            BasisLabel(mask, 4)
        assert str(err.value) == f"label mask {text} out of range for ambient 4"

    def test_range_check_builds_no_power_of_two(self):
        # 1 << 2**24 alone would be a 2 MiB integer; the check reads the mask's bit length
        tracemalloc.start()
        try:
            BasisLabel(0b101, 1 << 24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10


class TestAllLabels:
    @pytest.mark.parametrize("ambient", range(1, 13))
    def test_canonical_order(self, ambient):
        masks = [lab.mask for lab in all_labels(ambient)]
        want = sorted((BasisLabel(m, ambient) for m in range(1 << ambient)), key=canonical_key)
        assert masks == [lab.mask for lab in want]


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

    def test_swap_parity_of_wide_masks_matches_the_inversion_count(self):
        # masks of up to 70 bits, either one the wider, with no ambient to bound them
        rng = random.Random(29)
        for _ in range(5000):
            a, b = (rng.getrandbits(rng.randint(0, 70)) for _ in range(2))
            assert _swap_parity(a, b) == inversions(a, b) & 1

    def test_swap_parity_does_not_grow_with_the_ambient(self):
        # masks of one bit each at ambient 2^24: a prefix doubled up to the ambient
        # would grow to about 2^24 bits; doubling up to the masks' bit length stops at once
        a, b = generator(0, 1 << 24), generator(1, 1 << 24)
        tracemalloc.start()
        try:
            c = commutator(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10
        assert c == ScaledElement(BasisLabel(0b11, 1 << 24), pow2=1)

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


def internal_and_public(ambient):
    """(internal, public) pairs of equal values: the first from ``commutator``,
    ``product`` and ``parse_element``, which build through the internal
    constructor, the second through the checked public constructors."""
    top = ambient - 1
    ends = BasisLabel(1 | 1 << top, ambient)
    g0, gtop = generator(0, ambient), generator(top, ambient)
    return [
        (commutator(g0, gtop), ScaledElement(ends, pow2=1)),
        (product(gtop, g0), ScaledElement(ends, phase=2)),
        (parse_element(f"-i*2^-3*e[0,{top}]", ambient), ScaledElement(ends, phase=3, pow2=-3)),
        (parse_element("e[]", ambient), ScaledElement.unit(ambient)),
    ]


@pytest.mark.parametrize("ambient", [2, 8, 64])
class TestInternalConstructor:
    """Values built by ``algebra._scaled`` cannot be told apart from values
    built by the public constructors."""

    def test_equal_with_the_same_hash(self, ambient):
        for internal, public in internal_and_public(ambient):
            assert internal == public and public == internal
            assert hash(internal) == hash(public)
            assert internal.label == public.label and hash(internal.label) == hash(public.label)

    def test_the_same_dict_key(self, ambient):
        for internal, public in internal_and_public(ambient):
            assert {public: "public"}[internal] == "public"
            assert {internal: "internal"}[public] == "internal"
            assert len({internal: 0, public: 1}) == 1
            assert {public.label: "public"}[internal.label] == "public"

    def test_frozen(self, ambient):
        for internal, _ in internal_and_public(ambient):
            for value in (internal, internal.label):
                for field in fields(value):
                    with pytest.raises(FrozenInstanceError):
                        setattr(value, field.name, getattr(value, field.name))
                    with pytest.raises(FrozenInstanceError):
                        delattr(value, field.name)

    def test_no_instance_dict(self, ambient):
        for internal, public in internal_and_public(ambient):
            for value in (internal, internal.label, public, public.label):
                assert not hasattr(value, "__dict__")

    def test_replace_runs_the_public_checks(self, ambient):
        for internal, public in internal_and_public(ambient):
            assert replace(internal, phase=public.phase + 4) == public
            assert replace(internal, pow2=7) == ScaledElement(public.label, public.phase, 7)
            assert replace(internal.label, mask=0) == BasisLabel.unit(ambient)
            with pytest.raises(ValueError, match="out of range"):
                replace(internal.label, mask=1 << ambient)
            assert replace(internal, is_zero=True) == ScaledElement.zero(ambient)


@pytest.mark.parametrize("ambient", [0, -1])
def test_parsing_the_unit_still_checks_the_ambient(ambient):
    with pytest.raises(ValueError) as err:
        parse_element("e[]", ambient)
    assert type(err.value) is ValueError
    assert str(err.value) == f"ambient generator count must be >= 1, got {ambient}"


def test_a_zero_brackets_to_zero_whatever_label_it_was_given():
    # commutator returns the zero through its commute test alone, which holds
    # because a zero's label is always the unit
    for given_label in labels_upto(4):
        zero = ScaledElement(given_label, phase=1, pow2=3, is_zero=True)
        assert zero == ScaledElement.zero(4)
        for x in labels_upto(4):
            assert commutator(zero, hermitize(x)) is ScaledElement.zero(4)
            assert commutator(hermitize(x), zero) is ScaledElement.zero(4)


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
        m = represent(h)
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
        "text", ["e[0,0]", "e[1,0]", "e[9]", "e[0,1] junk", "x[0]", "e[a]", "+e[0]", "e[1,,2]"]
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

    @pytest.mark.parametrize("text", ["3", "", "2^", "i*2^1*e[0]"])
    def test_scalar_rejects_malformed(self, text):
        with pytest.raises(ParseError, match="expected a scalar"):
            parse_scalar(text)

    # int() refuses more than 4300 digits, and a non-ASCII digit such as the
    # Arabic-Indic one is no digit of the grammar
    @pytest.mark.parametrize(
        "text, column",
        [(f"2^{'1' * 5000}*e[0]", 2), (f"e[{'1' * 5000}]", 2), ("2^\u0661*e[0]", 0)],
    )
    def test_unreadable_digits_are_parse_errors(self, text, column):
        with pytest.raises(ParseError) as err:
            parse_element(text, 4)
        assert err.value.column == column

    @pytest.mark.parametrize(
        "text", [f"2^{'1' * 5000}", f"-i*2^{'1' * 5000}", "2^\u0661", f"e[{'1' * 5000}]"]
    )
    def test_scalar_unreadable_digits_are_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_scalar(text)

    # a column counts the leading blanks, in a scalar as in an element
    @pytest.mark.parametrize(
        "text, column",
        [
            ("2^x", 0),
            ("  2^x", 2),
            ("\t-i*2^x", 4),
            (f"2^{'1' * 4301}", 2),
            (f"  i*2^{'1' * 4301}", 6),
            (f"\r\n-2^{'1' * 4301}", 5),
        ],
        ids=["bad", "blanks-bad", "tab-bad", "long", "blanks-long", "crlf-long"],
    )
    def test_scalar_error_column_counts_leading_blanks(self, text, column):
        for parse in (parse_scalar, lambda t: parse_element(t + "*e[0]", 4)):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert err.value.column == column

    def test_exponent_of_4300_digits_is_legal(self):
        digits = "1" * 4300
        assert parse_element(f"2^{digits}*e[0]", 4).pow2 == int(digits)
        assert parse_scalar(f"-2^{digits}") == (2, int(digits))

    @pytest.mark.parametrize("pow2", [-1074, 1023])
    def test_scalar_value_spans_the_float_range(self, pow2):
        assert ScaledElement(label([0], 4), pow2=pow2).coefficient == 2.0**pow2 != 0.0

    @pytest.mark.parametrize("pow2", [-2000, -1075, 1024, 2000])
    def test_scalar_outside_the_float_range_has_no_value(self, pow2):
        # 2^pow2 is no finite nonzero double: it would overflow, or read a
        # nonzero element as the zero matrix
        element = ScaledElement(label([0], 4), phase=1, pow2=pow2)
        message = f"scalar i*2^{pow2} is outside the float range"
        with pytest.raises(ValueError) as err:
            element.coefficient
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            represent(element)
        assert str(err.value) == message


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
                ma = represent(ScaledElement(a))
                mb = represent(ScaledElement(b))
                comm = maxabs(ma @ mb - mb @ ma)
                anti = maxabs(ma @ mb + mb @ ma)
                assert (comm == 0.0) != (anti == 0.0)
                assert (comm == 0.0) == commutes(a, b)


ODD_AMBIENT = "ambient 5 is odd; a matrix form needs two generators per qubit"

# every entry point that needs a matrix form, each on an ambient of 5
ODD_AMBIENT_CALLS = {
    "represent": lambda: represent(elem([0], 5)),
    "pauli_factorization": lambda: pauli_factorization(elem([0], 5)),
    "commutator_gate": lambda: commutator_gate(label([0], 5), label([1], 5), 0.3),
    "Gate.matrix": lambda: Gate(label([0], 5), 0.3).matrix(),
    "CoefficientVector": lambda: CoefficientVector(2, {label([0], 5): 1.0}),
    "ClosureResult.universal": lambda: close(universal_generators(5)).universal,
    "replay_certificate": lambda: replay_certificate(
        certificate(close(universal_generators(5)), label([0, 1], 5))
    ),
}


def stray_certificates():
    # built directly, each with a label from another algebra than its target's: the
    # generator e[1] over 6 in a derivation of e[0,1] over 4, e[0] over 4 certifying the
    # unit over 6, and a step that records 2 e[0,1] over 6 for [e[0], e[1]] over 4; the
    # first is a builder, since its GeneratorSet refuses the stray generator
    a, b, b6 = elem([0], 4), elem([1], 4), elem([1], 6)
    step = CertificateStep(a.label, b6.label, elem([0, 1], 4, pow2=1))
    stray_step = CertificateStep(a.label, b.label, elem([0, 1], 6, pow2=1))
    return (
        lambda: Certificate(label([0, 1], 4), GeneratorSet(4, (a, b6)), (step,), 3, 1),
        Certificate(label([], 6), GeneratorSet(4, (a,)), (), 0, 0),
        Certificate(label([0, 1], 4), GeneratorSet(4, (a, b)), (stray_step,), 3, 1),
    )


C1, C2, C3 = stray_certificates()
DIFFER_4_6 = "ambient generator counts differ: 4 vs 6"

# every entry point that reads labels of one algebra, each given a label from another, and
# the message that it raises; reconstruct and GateSequence.matrix take conftest.STRAYS
MIXED_AMBIENT_CALLS = {
    "product": (lambda: product(generator(0, 4), generator(0, 6)), DIFFER_4_6),
    "commutator": (lambda: commutator(generator(0, 4), generator(1, 6)), DIFFER_4_6),
    "commutes": (lambda: commutes(label([0], 4), label([1], 6)), DIFFER_4_6),
    "commutator_gate": (lambda: commutator_gate(label([0], 4), label([1], 6), 0.3), DIFFER_4_6),
    "GeneratorSet": (lambda: GeneratorSet(4, (generator(0, 4), generator(1, 6))), DIFFER_4_6),
    "certificate": (lambda: certificate(close(universal_generators(4)), label([0], 6)), DIFFER_4_6),
    "validate-c1": (lambda: C1().validate(), DIFFER_4_6),
    "validate-c2": (C2.validate, "ambient generator counts differ: 6 vs 4"),
    "validate-c3": (C3.validate, DIFFER_4_6),
    "replay_certificate-c1": (lambda: replay_certificate(C1()), DIFFER_4_6),
    "replay_certificate-c2": (
        lambda: replay_certificate(C2), "ambient generator counts differ: 6 vs 4"
    ),
    "replay_certificate-c3": (lambda: replay_certificate(C3), DIFFER_4_6),
    "signed_permutations": (
        lambda: signed_permutations([elem([0], 4), elem([1], 6)], 2),
        "e[1] over ambient 6 does not fit 2 qubits",
    ),
    "CoefficientVector": (
        lambda: CoefficientVector(3, {label([0], 4): 1.0}),
        "e[0] over ambient 4 does not fit 3 qubits",
    ),
}


class TestQubitRule:
    @pytest.mark.parametrize("entry", list(MIXED_AMBIENT_CALLS))
    def test_a_label_from_another_algebra_is_refused(self, entry):
        call, message = MIXED_AMBIENT_CALLS[entry]
        with pytest.raises(AmbientMismatchError) as err:
            call()
        assert str(err.value) == message

    @pytest.mark.parametrize("entry", list(ODD_AMBIENT_CALLS))
    def test_odd_ambient_has_no_matrix_form(self, entry):
        with pytest.raises(ValueError) as err:
            ODD_AMBIENT_CALLS[entry]()
        assert str(err.value) == ODD_AMBIENT

    def test_universality_needs_an_even_ambient(self):
        # at ambient 3 the top label as a generator makes the closure reach
        # all 2^3 labels, yet there is no qubit algebra for it to span
        top = ScaledElement(label([0, 1, 2], 3))
        result = close(GeneratorSet(3, tuple(generator(k, 3) for k in range(3)) + (top,)))
        assert result.dimension == 8
        with pytest.raises(ValueError, match="ambient 3 is odd"):
            result.universal

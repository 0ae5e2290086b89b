import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffgate import (
    BasisLabel,
    CapExceededError,
    Certificate,
    GeneratorSet,
    ParseError,
    ScaledElement,
    UnreachableTargetError,
    all_labels,
    certificate,
    chain_generators,
    close,
    commutator,
    generator,
    hermitize,
    replay_certificate,
    universal_generators,
)
from cliffgate.algebra import canonical_key, qubit_count
from cliffgate.closure import CertificateStep
from conftest import elem, gamma_product, label, oracle_audit, oracle_commutator


def generators_only(ambient):
    return GeneratorSet(ambient, tuple(generator(k, ambient) for k in range(ambient)))


class TestClose:
    def test_two_generators(self):
        assert close(generators_only(2)).dimension == 3

    def test_generators_only_quadratic_sector(self):
        assert close(generators_only(4)).dimension == 10
        assert close(generators_only(6)).dimension == 21

    def test_adding_order3_reaches_everything(self):
        for m in (4, 6, 8, 10, 12):
            assert close(universal_generators(m)).dimension == 1 << m

    def test_odd_ambient_misses_top_element(self):
        result = close(universal_generators(5))
        assert result.dimension == 31
        top = label([0, 1, 2, 3, 4], 5)
        assert top not in result.representatives.keys()
        assert BasisLabel.unit(5) in result.representatives.keys()
        assert result.unit_vacuous
        assert result.audit_closed()

    def test_order_three_alone_does_not_count_the_unit(self):
        # {e[3], e[0,1,2], e[0,1,2,3]} is su(2); the unit is not counted
        result = close(GeneratorSet(4, (elem([0, 1, 2], 4, phase=1), generator(3, 4))))
        assert result.labels() == [label([3], 4), label([0, 1, 2], 4), label([0, 1, 2, 3], 4)]
        assert not result.unit_vacuous

    def test_audit_finds_a_missing_label(self):
        result = close(universal_generators(4))
        del result.representatives[label([0, 1], 4)]
        assert not result.audit_closed()

    def test_single_generator(self):
        assert close(GeneratorSet(4, (generator(0, 4),))).dimension == 1

    def test_generators_only_never_exceeds_order_two(self):
        for ambient in (3, 5, 8):
            result = close(generators_only(ambient))
            assert max(lab.order for lab in result.representatives.keys()) <= 2
            assert not result.unit_vacuous

    @pytest.mark.parametrize("m", range(2, 17))
    def test_quadratic_sector_dimension_law(self, m):
        assert close(generators_only(m)).dimension == m * (m + 1) // 2

    def test_idempotent(self):
        first = close(universal_generators(4))
        again = close(GeneratorSet(4, tuple(first.representatives[l] for l in first.labels())))
        assert again.representatives.keys() == first.representatives.keys()

    def test_closedness_audit(self):
        for gens in (
            generators_only(5),
            universal_generators(4),
            chain_generators(6),
            universal_generators(8),
        ):
            assert close(gens).audit_closed()

    def test_deterministic_under_input_order(self):
        gens = universal_generators(4)
        shuffled = GeneratorSet(4, tuple(reversed(gens.elements)))
        assert shuffled == gens
        a, b = close(gens), close(shuffled)
        assert a.representatives.keys() == b.representatives.keys()
        assert a.provenance == b.provenance


def oracle_close(gens):
    """The closure loop without mask pre-tests: every pair of a frontier
    label and a generator is bracketed in full (by the oracle commutator)
    and the first finder of each label in iteration order is kept."""
    reps = {el.label: el for el in gens.elements}
    initial = tuple(sorted(reps, key=canonical_key))
    depth = {lab: 0 for lab in initial}
    provenance = {}
    frontier = list(initial)
    while frontier:
        found = {}
        for a in frontier:
            for b in initial:
                c = oracle_commutator(reps[a], reps[b])
                if c.is_zero or c.label in reps or c.label in found:
                    continue
                found[c.label] = CertificateStep(a, b, c)
        if not found:
            break
        layer = sorted(found, key=canonical_key)
        for lab in layer:
            reps[lab] = found[lab].element
            provenance[lab] = found[lab]
            depth[lab] = depth[found[lab].parent_a] + 1
        frontier = layer
    # the unit counts once every label outside the centre (the unit, and the
    # top label at odd ambient) is reached and some label has order >= 3
    m = gens.ambient
    centre = {0, (1 << m) - 1} if m % 2 else {0}
    masks = {lab.mask for lab in reps}
    unit_vacuous = (
        0 not in masks
        and len(masks - centre) == (1 << m) - len(centre)
        and any(lab.order >= 3 for lab in reps)
    )
    if unit_vacuous:
        reps[BasisLabel.unit(m)] = ScaledElement.unit(m)
        depth[BasisLabel.unit(m)] = 0
    return reps, provenance, depth, unit_vacuous


def random_generator_sets(count, seed, ambients=range(2, 8), max_size=5):
    rng = random.Random(seed)
    for _ in range(count):
        ambient = rng.choice(ambients)
        size = rng.randint(1, min(max_size, (1 << ambient) - 1))
        masks = rng.sample(range(1, 1 << ambient), size)
        yield GeneratorSet(
            ambient,
            tuple(
                ScaledElement(BasisLabel(mask, ambient), rng.randrange(4), rng.randint(-3, 3))
                for mask in masks
            ),
        )


class TestCloseMatchesOracle:
    """``close`` skips pairs on their masks before building anything; it
    must find exactly what the full loop finds, in the same order."""

    @staticmethod
    def assert_same(gens):
        result = close(gens)
        reps, provenance, depth, unit_vacuous = oracle_close(gens)
        assert list(result.representatives.items()) == list(reps.items())
        assert result.provenance == provenance
        assert result.depth == depth
        assert result.unit_vacuous == unit_vacuous

    @pytest.mark.parametrize("stock", [universal_generators, chain_generators])
    def test_stock_sets(self, stock):
        for m in range(3, 13):
            self.assert_same(stock(m))

    def test_generators_only(self):
        for m in range(1, 25):
            self.assert_same(generators_only(m))

    def test_random_sets(self):
        for gens in random_generator_sets(200, seed=11):
            self.assert_same(gens)


def dense_lie_rank(gens):
    """Rank, by Gram-Schmidt, of the span of the generators' matrices
    closed under the commutators of all pairs of its basis vectors.

    The matrices are products of the ``gamma`` Kronecker chains, and every
    pair of basis vectors is bracketed, not only brackets with generators,
    so neither the label arithmetic nor the right-normed-bracket argument
    of ``close`` enters."""
    n = qubit_count(gens.ambient)
    d = 2**n
    basis = np.zeros((0, d * d), dtype=complex)

    def extend(candidates):
        nonlocal basis
        for v in candidates:
            for _ in range(2):  # a second pass restores orthogonality
                v = v - (basis.conj() @ v) @ basis
            norm = np.linalg.norm(v)
            if norm > 1e-9:
                basis = np.vstack([basis, v / norm])

    extend(el.coefficient * gamma_product(el.label, n).ravel() for el in gens.elements)
    i = 0
    while i < len(basis):
        a = basis[i].reshape(d, d)
        earlier = basis[:i].reshape(i, d, d)
        extend((a @ earlier - earlier @ a).reshape(i, d * d))
        i += 1
    return len(basis)


class TestDenseLieOracle:
    """Lie closure equals label-set closure: the dense rank is the label
    count less the vacuous unit, and the unit counts only when the rank is
    that of su(2^n)."""

    @staticmethod
    def assert_same(gens):
        result = close(gens)
        rank = dense_lie_rank(gens)
        assert result.dimension - result.unit_vacuous == rank
        if result.unit_vacuous:
            assert rank == (1 << gens.ambient) - 1
        # no generator is the unit, so spanning su(2^n) is rank 4^n - 1
        assert result.universal == (rank == (1 << gens.ambient) - 1)
        return result

    @pytest.mark.parametrize("m", [4, 6])
    @pytest.mark.parametrize("stock", [universal_generators, chain_generators])
    def test_stock_sets(self, stock, m):
        assert self.assert_same(stock(m)).unit_vacuous

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_generators_only(self, m):
        assert not self.assert_same(generators_only(m)).unit_vacuous

    def test_random_sets(self):
        # mixed phases and powers of two; the sample holds universal sets
        # and sets that reach order three without being universal
        results = [
            self.assert_same(gens)
            for gens in random_generator_sets(150, seed=23, ambients=(2, 4, 6), max_size=8)
        ]
        assert any(r.unit_vacuous for r in results)
        assert any(
            not r.unit_vacuous and max(lab.order for lab in r.representatives.keys()) >= 3
            for r in results
        )
        assert any(r.universal and r.generators.ambient == 2 for r in results)


class TestLabelCap:
    def test_cap_counts_the_vacuous_unit(self):
        assert close(universal_generators(8), cap=256).dimension == 256
        with pytest.raises(CapExceededError, match="has more than 255 labels"):
            close(universal_generators(8), cap=255)

    def test_cap_counts_the_generators(self):
        commuting = GeneratorSet(4, (elem([0, 1], 4), elem([2, 3], 4)))
        assert close(commuting, cap=2).dimension == 2
        with pytest.raises(CapExceededError):
            close(commuting, cap=1)

    def test_default_cap_still_closes_a_universal_set_at_ambient_16(self):
        assert close(universal_generators(16)).dimension == 1 << 16

    def test_default_cap_stops_a_universal_set_at_ambient_64(self):
        with pytest.raises(CapExceededError, match=f"more than {1 << 16} labels"):
            close(universal_generators(64))


class TestUniversality:
    def test_stock_set_is_universal(self):
        assert close(universal_generators(4)).universal

    def test_generators_alone_are_not(self):
        assert not close(generators_only(4)).universal

    def test_order4_extra_element_works_too(self):
        gens = GeneratorSet(
            4, tuple(generator(k, 4) for k in range(4)) + (hermitize(label([0, 1, 2, 3], 4)),)
        )
        assert close(gens).universal

    def test_every_order3_or_4_extra_at_six_generators(self):
        for lab in all_labels(6):
            if lab.order in (3, 4):
                gens = GeneratorSet(6, tuple(generator(k, 6) for k in range(6)) + (hermitize(lab),))
                assert close(gens).dimension == 64

    def test_odd_ambient_rejected(self):
        with pytest.raises(ValueError, match="ambient 5 is odd"):
            close(universal_generators(5)).universal

    def test_ambient_two_spans_su2_without_the_unit(self):
        result = close(generators_only(2))
        assert result.universal and result.dimension == 3 and not result.unit_vacuous

    @pytest.mark.parametrize(
        "sets",
        [lambda: [stock(m) for stock in (universal_generators, chain_generators)
                  for m in (4, 6, 8)] + [generators_only(m) for m in (2, 4, 6, 8)],
         lambda: random_generator_sets(100, seed=31, ambients=(2, 4, 6), max_size=8)],
        ids=["stock", "random"],
    )
    def test_universal_iff_every_non_central_label_is_reached(self, sets):
        seen = set()
        for gens in sets():
            result = close(gens)
            m = gens.ambient
            outside = set(all_labels(m)) - {BasisLabel.unit(m)}
            assert result.universal == (outside <= result.representatives.keys())
            if m >= 4:
                assert result.universal == (result.dimension == 1 << m)
            seen.add((m, result.universal))
        assert {(2, True), (4, True), (4, False)} <= seen


class TestStockSets:
    def test_universal_generators_sizes(self):
        assert len(universal_generators(4).elements) == 5
        assert len(universal_generators(6).elements) == 7

    def test_universal_generators_rejects_tiny_ambient(self):
        with pytest.raises(ValueError):
            universal_generators(2)

    def test_chain_closure_is_full(self):
        for m in (4, 6, 8, 10, 12):
            assert close(chain_generators(m)).dimension == 1 << m

    def test_chain_without_extra_element_stays_quadratic(self):
        gens = chain_generators(4)
        trimmed = GeneratorSet(4, gens.elements[:-1])
        assert close(trimmed).dimension == 10

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSet(4, (generator(0, 4), elem([0], 4, phase=2)))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSet(4, (generator(0, 4), ScaledElement.zero(4)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="generator set must not be empty"):
            GeneratorSet(4, ())

    @pytest.mark.parametrize(
        "elements, message",
        [
            ((), "generator set must not be empty"),
            ((ScaledElement.zero(4),), "zero elements are not allowed as generators"),
            ((generator(0, 4), elem([0], 4, phase=2)), "duplicate generator label e[0]"),
        ],
        ids=["empty", "zero", "duplicate"],
    )
    def test_a_certificate_needs_a_generator_set(self, elements, message):
        # checked once, when the set is built, so no such set reaches a certificate
        with pytest.raises(ValueError, match=re.escape(message)):
            GeneratorSet(4, elements)


@st.composite
def small_generator_sets(draw):
    ambient = draw(st.integers(2, 6))
    count = draw(st.integers(1, min(4, (1 << ambient) - 1)))
    masks = draw(
        st.lists(st.integers(1, (1 << ambient) - 1), min_size=count, max_size=count, unique=True)
    )
    return GeneratorSet(ambient, tuple(ScaledElement(BasisLabel(m, ambient)) for m in masks))


class TestClosureProperties:
    @given(small_generator_sets())
    @settings(max_examples=60, deadline=None)
    def test_monotone(self, gens):
        extra = generator(0, gens.ambient)
        if extra.label in {el.label for el in gens.elements}:
            bigger = gens
        else:
            bigger = GeneratorSet(gens.ambient, gens.elements + (extra,))
        assert close(gens).representatives.keys() <= close(bigger).representatives.keys()

    @given(small_generator_sets())
    @settings(max_examples=40, deadline=None)
    def test_audit_always_closed(self, gens):
        assert close(gens).audit_closed()


class TestAuditMatchesOracle:
    """``audit_closed`` checks masks; ``oracle_audit`` builds every
    commutator.  They must give the same verdict, closed or not."""

    @given(small_generator_sets(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_same_verdict_closed_and_with_a_label_deleted(self, gens, data):
        result = close(gens)
        assert result.audit_closed() is oracle_audit(result) is True
        initial = {el.label for el in gens.elements}
        derived = sorted(result.representatives.keys() - initial, key=canonical_key)
        if derived:
            del result.representatives[data.draw(st.sampled_from(derived))]
            assert result.audit_closed() is oracle_audit(result)

    @pytest.mark.parametrize("stock", [universal_generators, chain_generators])
    def test_stock_sets_at_m12(self, stock):
        result = close(stock(12))
        assert result.audit_closed()
        del result.representatives[label([3, 7], 12)]
        assert not result.audit_closed()


class TestCertificates:
    def test_one_step(self):
        cert = certificate(close(universal_generators(4)), label([0, 1], 4))
        assert len(cert.steps) == 1
        step = cert.steps[0]
        assert {step.parent_a, step.parent_b} == {label([0], 4), label([1], 4)}
        assert abs(step.element.coefficient) == 2.0
        cert.validate()

    def test_initial_generator_is_trivial(self):
        cert = certificate(close(universal_generators(4)), label([0], 4))
        assert cert.steps == ()
        assert (cert.scalar_phase, cert.scalar_pow2) == (0, 0)
        cert.validate()

    def test_unit_label_has_empty_derivation(self):
        cert = certificate(close(universal_generators(4)), BasisLabel.unit(4))
        assert cert.steps == ()
        cert.validate()
        assert replay_certificate(cert).deviation == 0.0

    def test_top_label_pairs_order3_with_a_generator(self):
        cert = certificate(close(universal_generators(4)), label([0, 1, 2, 3], 4))
        final = cert.steps[-1]
        orders = sorted((final.parent_a.order, final.parent_b.order))
        assert orders == [1, 3]
        cert.validate()

    def test_unreachable_target_names_dimension(self):
        gens = generators_only(4)
        with pytest.raises(UnreachableTargetError) as err:
            certificate(close(gens), label([0, 1, 2], 4))
        assert err.value.dimension == 10
        assert "dimension 10" in str(err.value)

    def test_all_targets_replay_exactly(self):
        result = close(universal_generators(4))
        for lab in result.labels():
            cert = certificate(result, lab)
            cert.validate()
            assert replay_certificate(cert).deviation < 1e-12

    def test_text_roundtrip(self):
        cert = certificate(close(universal_generators(4)), label([0, 1, 2, 3], 4))
        text = cert.to_text()
        back = Certificate.from_text(text)
        assert back == cert
        assert back.to_text() == text

    def test_certificates_share_the_closures_set(self):
        result = close(chain_generators(6))
        for lab in (BasisLabel.unit(6), label([1], 6), label([0, 1, 2, 3, 4, 5], 6)):
            assert certificate(result, lab).generators is result.generators

    def test_text_roundtrip_of_a_shuffled_set(self):
        elements = list(universal_generators(6).elements)
        random.Random(29).shuffle(elements)
        cert = certificate(close(GeneratorSet(6, tuple(elements))), label([0, 1, 2, 3], 6))
        assert Certificate.from_text(cert.to_text()) == cert

    def test_ambient_is_the_targets(self):
        # no second ambient to set: the text's first line is read off the target
        cert = certificate(close(universal_generators(6)), label([0, 1, 2, 3], 6))
        assert cert.ambient == cert.target.ambient == 6
        assert cert.to_text().startswith("ambient 6\ntarget e[0,1,2,3]\n")
        with pytest.raises(TypeError):
            replace(cert, ambient=4)

    def test_from_text_rejects_tampering(self):
        cert = certificate(close(universal_generators(4)), label([0, 1], 4))
        bad = cert.to_text().replace("* 2^1", "* -2^1")
        with pytest.raises(ValueError):
            Certificate.from_text(bad)

    # Tampered forms of real certificate text, one per rejection branch of
    # ``Certificate.validate`` and ``Certificate.from_text``.
    TOP6 = certificate(close(chain_generators(6)), label([0, 1, 2, 3, 4, 5], 6)).to_text()

    @staticmethod
    def swap_first_steps(text):
        lines = text.splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines) if line.startswith("step "))
        lines[first], lines[first + 1] = lines[first + 1], lines[first]
        return "".join(lines)

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (swap_first_steps, "step parent e[0,2] has no prior derivation"),
            (lambda t: t.replace("* -i*2^2", "* i*2^2"), "step for e[0,3] does not replay"),
            (lambda t: "".join(l for l in t.splitlines(True) if "e[0,1,2,3,4,5] :=" not in l),
             "target e[0,1,2,3,4,5] never derived"),
            (lambda t: t.replace("scalar -2^10", "scalar 2^10"), "terminal scalar mismatch"),
        ],
        ids=["parent-first", "step-coefficient", "no-target", "scalar"],
    )
    def test_validate_rejects(self, tamper, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Certificate.from_text(tamper(self.TOP6))

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda t: t.replace("ambient 6\ntarget e[0,1,2,3,4,5]\n",
                                 "target e[0,1,2,3,4,5]\nambient 6\n"),
             "line 1: ambient must come first"),
            (lambda t: t.replace(":= [e[0,1], e[1,2]]", ":= (e[0,1], e[1,2])"),
             "line 10: malformed step"),
            (lambda t: t + "note replayed\n", "line 21: unknown record 'note'"),
            (lambda t: t.replace("scalar -2^10\n", ""), "certificate text is missing"),
            (lambda t: t + "ambient 6\n", "line 21: repeated ambient record"),
            (lambda t: t.replace("generator e[0]\n", "target e[0]\ngenerator e[0]\n"),
             "line 3: repeated target record"),
            (lambda t: t.replace("scalar -2^10\n", "scalar 2^5\nscalar -2^10\n"),
             "line 21: repeated scalar record"),
            (lambda t: t.replace("ambient 6\n", "ambient 0\n"), "line 1: bad ambient '0'"),
            (lambda t: t.replace("ambient 6\n", "ambient -6\n"), "line 1: bad ambient '-6'"),
            (lambda t: t.replace("generator e[0]\n", "generator e[9]\n"),
             "line 3: generator index 9 out of range for ambient 6"),
            (lambda t: t.replace(":= [e[0,1], e[1,2]]", ":= [e[0,1], e[2,1]]"),
             "line 10: indices must be strictly ascending, got 1 after 2"),
            (lambda t: t.replace("scalar -2^10", "scalar -3^10"),
             "line 20: expected a scalar like 2^1 or -i*1, got '-3^10'"),
            (lambda t: t.replace("ambient 6\n", "ambient x\n"), "line 1: bad ambient 'x'"),
            (lambda t: t.replace("ambient 6\n", f"ambient {'6' * 5000}\n"),
             "line 1: ambient of 5000 digits is too long"),
            (lambda t: t.replace("e[0,2] := [", "e[0,2] = ["), "line 10: malformed step"),
            (lambda t: t.replace("e[1,2]] * -2^1", "e[1,2]] x -2^1"), "line 10: malformed step"),
            (lambda t: t.replace("[e[0,1], e[1,2]]", "[e[0,1]; e[1,2]]"), "line 10: malformed step"),
            (lambda t: t.replace("[e[0,1], e[1,2]]", "[ e[0,1], e[1,2] ]"), "line 10: malformed step"),
        ],
        ids=["ambient-not-first", "malformed-step", "unknown-record", "missing-scalar",
             "repeated-ambient", "repeated-target", "repeated-scalar", "ambient-zero",
             "ambient-negative", "bad-generator", "bad-step-parent", "bad-scalar",
             "ambient-word", "ambient-too-long", "step-without-assign", "step-without-times",
             "step-without-comma", "step-blank-inside-brackets"],
    )
    def test_from_text_parse_errors(self, tamper, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            Certificate.from_text(tamper(self.TOP6))

    @pytest.mark.parametrize(
        "kind, line", [("ambient", 1), ("target", 2), ("generator", 3), ("scalar", 20)]
    )
    def test_a_one_value_record_takes_one_word(self, kind, line):
        lines = self.TOP6.splitlines()
        lines[line - 1] += " e[0]"
        with pytest.raises(ParseError) as err:
            Certificate.from_text("\n".join(lines))
        assert str(err.value) == f"line {line}: malformed {kind} {lines[line - 1]!r}"

    def test_a_parse_error_keeps_its_column(self):
        # the column is the record's own, as the element parser reports it
        with pytest.raises(ParseError) as err:
            Certificate.from_text(self.TOP6.replace("generator e[0]\n", "generator e[0,9]\n"))
        assert str(err.value) == "line 3: generator index 9 out of range for ambient 6"
        assert err.value.column == 4

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda t: t.replace("generator e[0]\n", "generator 0\n"),
             "line 3: zero elements are not allowed as generators"),
            (lambda t: t.replace("generator e[0]\n", "generator e[0]\ngenerator -e[0]\n"),
             "line 4: duplicate generator label e[0]"),
            (lambda t: t.replace("generator e[3]\n", "generator e[3]\ngenerator 0\n"),
             "line 7: zero elements are not allowed as generators"),
        ],
        ids=["zero", "duplicate", "zero-last"],
    )
    def test_from_text_generators_form_a_generator_set(self, tamper, message):
        # GeneratorSet's own message, on the line of the generator that breaks the set
        text = certificate(close(universal_generators(4)), label([0, 1], 4)).to_text()
        with pytest.raises(ParseError) as err:
            Certificate.from_text(tamper(text))
        assert str(err.value) == message

    def test_validate_rejects_a_vanishing_step(self):
        # [g, g] is zero, so a step may not record the zero element for it
        cert = certificate(close(universal_generators(4)), label([0, 1], 4))
        g = cert.generators.elements[0].label
        vanishing = CertificateStep(g, g, ScaledElement.zero(4))
        with pytest.raises(ValueError, match=re.escape("step for e[] does not replay: got 0")):
            replace(cert, steps=(vanishing, *cert.steps)).validate()

    def test_from_text_rejects_bad_ambient_as_parse_error(self):
        with pytest.raises(ParseError):
            Certificate.from_text("ambient x")

    def test_replay_rejects_odd_ambient(self):
        cert = certificate(close(universal_generators(5)), label([0, 1], 5))
        with pytest.raises(ValueError, match="ambient 5 is odd"):
            replay_certificate(cert)

    @pytest.mark.parametrize("stock", [universal_generators, chain_generators])
    def test_certificates_are_generator_bracket_chains(self, stock):
        result = close(stock(6))
        initial = {el.label for el in result.generators.elements}
        for lab in result.labels():
            cert = certificate(result, lab)
            assert len(cert.steps) == result.depth[lab]
            previous = None
            for step in cert.steps:
                assert step.parent_b in initial
                if previous is None:
                    assert step.parent_a in initial
                else:
                    assert step.parent_a == previous
                previous = step.element.label

    def test_certificates_survive_serialization_and_replay(self):
        result = close(chain_generators(6))
        for lab in [label([0, 1, 2, 3, 4, 5], 6), label([2, 4], 6), label([1], 6)]:
            cert = Certificate.from_text(certificate(result, lab).to_text())
            assert replay_certificate(cert).deviation < 1e-12

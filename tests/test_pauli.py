"""Certificate replay on integer Pauli monomials against the dense oracle.

``replay_certificate`` multiplies (xmask, zmask, phase, pow2) monomials
and compares them exactly; ``conftest.oracle_replay`` multiplies the dense
matrices and measures the largest entry difference.  Both must report 0.0
and the same step count on sound certificates, the replay must report inf
exactly where the oracle reports a positive deviation, and both must raise
on the same malformed certificates, a step that records an element of
another label among them.  The replay and ``Certificate.validate`` run the
one walk ``Certificate.replay`` in two arithmetics, so they must refuse
the same certificates, a step that records the zero among them.

The model under both, and under ``verify_representation``'s pair sweep,
is checked in integers alone at every even ambient up to 64: the monomial
of a product or commutator is the product or bracket of the monomials,
and every hermitized label squares to +1.  The closed form of
``pauli_monomial`` is pinned to ``conftest.loop_monomial``, the product
taken one generator at a time, on ints at every even ambient up to 64
and on int64 arrays of every mask up to six qubits.
"""

import math
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffgate import (
    BasisLabel,
    Certificate,
    GeneratorSet,
    ScaledElement,
    certificate,
    chain_generators,
    close,
    commutator,
    hermitize,
    product,
    replay_certificate,
    universal_generators,
)
from cliffgate.closure import CertificateStep
from cliffgate.pauli import pauli_monomial
from conftest import loop_monomial, oracle_replay


def scaled_universal(ambient):
    """The stock universal set with every generator rescaled, so phases and
    negative and positive powers of two run through the replay."""
    return GeneratorSet(
        ambient,
        tuple(
            ScaledElement(el.label, el.phase + k, k % 3 - 1)
            for k, el in enumerate(universal_generators(ambient).elements)
        ),
    )


STOCK = {"universal": universal_generators, "chain": chain_generators, "scaled": scaled_universal}


def certificates(family, ambient):
    result = close(STOCK[family](ambient))
    return [certificate(result, lab) for lab in result.labels()]


def corruptions(cert):
    """Certificates that differ from ``cert`` in its scalar or in one step's
    coefficient or parent."""
    out = [replace(cert, scalar_phase=cert.scalar_phase + k) for k in (1, 2, 3)]
    out.append(replace(cert, scalar_pow2=cert.scalar_pow2 + 1))
    if not cert.steps:
        return out
    k = len(cert.steps) // 2
    step = cert.steps[k]
    el = step.element
    flipped = ScaledElement(el.label, el.phase + 2, el.pow2)
    # a bracket of an element with itself is zero, so the recorded element
    # is the whole deviation
    for bad in (replace(step, element=flipped), replace(step, parent_b=step.parent_a)):
        out.append(replace(cert, steps=cert.steps[:k] + (bad,) + cert.steps[k + 1 :]))
    return out


def relabelings(cert):
    """Certificates whose middle step records an element of another label,
    one x-mask or one z-mask (at every phase) away.  A step's result is its
    element's label, so the chain loses the label the next step or the
    target needs."""
    k = len(cert.steps) // 2
    step = cert.steps[k]
    el = step.element
    wrong = [
        ScaledElement(BasisLabel(el.label.mask ^ 0b01, el.ambient), el.phase, el.pow2),
        *(ScaledElement(BasisLabel(el.label.mask ^ 0b11, el.ambient), el.phase + ph, el.pow2)
          for ph in range(4)),
    ]
    return [
        replace(cert, steps=cert.steps[:k] + (replace(step, element=w),) + cert.steps[k + 1 :])
        for w in wrong
    ]


@pytest.mark.parametrize("ambient", [4, 6, 8])
@pytest.mark.parametrize("family", list(STOCK))
def test_every_label_replays_exactly(family, ambient):
    for cert in certificates(family, ambient):
        report = replay_certificate(cert)
        assert report.deviation == 0.0, cert.target
        assert (report.deviation, report.steps) == oracle_replay(cert)


@pytest.mark.parametrize("family, ambient", [("universal", 4), ("chain", 6), ("scaled", 6)])
def test_corrupted_certificates_deviate_like_the_oracle(family, ambient):
    seen = 0
    for cert in certificates(family, ambient):
        for bad in corruptions(cert):
            report = replay_certificate(bad)
            dense, steps = oracle_replay(bad)
            assert report.deviation == math.inf and dense > 0, bad
            assert report.steps == steps
            seen += 1
    assert seen > 4 * len(certificates(family, ambient))


@pytest.mark.parametrize("family, ambient", [("universal", 4), ("chain", 6), ("scaled", 6)])
def test_relabeled_steps_raise_like_the_oracle(family, ambient):
    derived = [cert for cert in certificates(family, ambient) if cert.steps]
    assert derived
    for cert in derived:
        for bad in relabelings(cert):
            with pytest.raises(ValueError, match="has no prior derivation|never derived"):
                replay_certificate(bad)
            with pytest.raises(ValueError, match="before its derivation|never derives"):
                oracle_replay(bad)


@pytest.mark.parametrize("pow2", [-2000, 2000])
def test_disagreement_outside_the_float_range_saturates(pow2):
    # M(2^k e0) has entries 2^k, past the float range either way; flipping
    # the recorded sign must neither read as agreement nor raise
    gens = GeneratorSet(
        4,
        (ScaledElement(BasisLabel(0b1, 4), pow2=pow2), ScaledElement(BasisLabel(0b10, 4)),
         ScaledElement(BasisLabel(0b111, 4), phase=1)),
    )
    cert = certificate(close(gens), BasisLabel(0b11, 4))
    assert replay_certificate(cert).deviation == 0.0
    flipped = replace(cert, scalar_phase=(cert.scalar_phase + 2) % 4)
    assert replay_certificate(flipped).deviation == math.inf


def test_a_commuting_step_deviates():
    # [e01, e23] = 0, yet the step records 2 e01 e23 = 2 e0123, and the target and scalar
    # match it; Certificate.from_text refuses this, so the certificate is built directly
    a, b = BasisLabel.from_indices([0, 1], 4), BasisLabel.from_indices([2, 3], 4)
    top = BasisLabel.from_indices([0, 1, 2, 3], 4)
    step = CertificateStep(a, b, ScaledElement(top, pow2=1))
    assert product(ScaledElement(a), ScaledElement(b)) == ScaledElement(top) == hermitize(top)
    assert commutator(ScaledElement(a), ScaledElement(b)).is_zero
    cert = Certificate(top, GeneratorSet(4, (ScaledElement(a), ScaledElement(b))), (step,), 0, 1)
    assert replay_certificate(cert).deviation == math.inf
    dense, steps = oracle_replay(cert)
    assert dense > 0 and steps == 1
    with pytest.raises(ValueError, match="does not replay"):
        cert.validate()


def test_both_replays_refuse_a_recorded_zero():
    # a step records a nonzero element, so a recorded zero fails both replays, whether
    # its bracket vanishes ([e0, e0]) or not ([e0, e1] = 2 e01); the certificates are
    # built directly, since Certificate.from_text validates
    cert = certificate(close(universal_generators(4)), BasisLabel(0b11, 4))
    e0, e1 = (g.label for g in cert.generators.elements[:2])
    zero = ScaledElement.zero(4)
    vanishing = replace(cert, steps=(CertificateStep(e0, e0, zero), *cert.steps))
    wrong = replace(cert, steps=(CertificateStep(e0, e1, zero), *cert.steps))
    for bad, got in ((vanishing, "0"), (wrong, "2^1*e[0,1]")):
        assert replay_certificate(bad).deviation == math.inf
        with pytest.raises(ValueError, match=re.escape(f"step for e[] does not replay: got {got}")):
            bad.validate()
    # the dense oracle reads the zero as the zero matrix, which [e0, e0] reproduces
    assert oracle_replay(vanishing)[0] == 0.0
    assert oracle_replay(wrong)[0] > 0


def test_a_recorded_zero_derives_nothing():
    # not even the unit, whose label the zero carries: a later step on e[] has no parent
    cert = certificate(close(universal_generators(4)), BasisLabel(0b11, 4))
    e0, e1 = (g.label for g in cert.generators.elements[:2])
    unit = BasisLabel.unit(4)
    steps = (CertificateStep(e0, e0, ScaledElement.zero(4)),
             CertificateStep(unit, e1, ScaledElement(e1, pow2=1)))
    bad = replace(cert, steps=(*steps, *cert.steps))
    with pytest.raises(ValueError, match=re.escape("step parent e[] has no prior derivation")):
        replay_certificate(bad)
    with pytest.raises(ValueError, match=re.escape("step for e[] does not replay: got 0")):
        bad.validate()


def malformed():
    result = close(universal_generators(4))
    top = certificate(result, BasisLabel(0b1111, 4))
    deep = max((certificate(result, lab) for lab in result.labels()), key=lambda c: len(c.steps))
    assert len(deep.steps) >= 2
    return {
        "odd-ambient": certificate(close(universal_generators(5)), BasisLabel(0b11, 5)),
        "parent-before-derivation": replace(deep, steps=deep.steps[1:]),
        "target-never-derived": replace(top, steps=()),
    }


@pytest.mark.parametrize("case", list(malformed()))
def test_malformed_certificates_raise_like_the_oracle(case):
    cert = malformed()[case]
    with pytest.raises(ValueError):
        replay_certificate(cert)
    with pytest.raises(ValueError):
        oracle_replay(cert)


def test_a_mismatch_then_an_underived_parent_raises_in_both_replays():
    # the walk goes on past a step that does not replay, so the integer replay still
    # meets the later parent that nothing derives; validate stops at the mismatch
    deep = max(certificates("chain", 6), key=lambda c: len(c.steps))
    assert len(deep.steps) >= 3
    first = deep.steps[0]
    el = first.element
    flipped = replace(first, element=ScaledElement(el.label, el.phase + 2, el.pow2))
    bad = replace(deep, steps=(flipped, *deep.steps[2:]))
    with pytest.raises(ValueError, match="does not replay"):
        bad.validate()
    with pytest.raises(ValueError, match="has no prior derivation"):
        replay_certificate(bad)


def integer_replay_refuses(cert):
    try:
        return replay_certificate(cert).deviation == math.inf
    except ValueError:
        return True


def validate_refuses(cert):
    try:
        cert.validate()
    except ValueError:
        return True
    return False


SOURCES = {
    "corruptions": lambda: [
        bad
        for family, ambient in [("universal", 4), ("chain", 6), ("scaled", 6)]
        for cert in certificates(family, ambient)
        for bad in (cert, *corruptions(cert))
    ],
    "relabelings": lambda: [
        bad
        for family, ambient in [("universal", 4), ("chain", 6), ("scaled", 6)]
        for cert in certificates(family, ambient)
        if cert.steps
        for bad in (cert, *relabelings(cert))
    ],
    "malformed": lambda: [cert for cert in malformed().values() if cert.ambient % 2 == 0],
}


@pytest.mark.parametrize("source", list(SOURCES))
def test_validate_and_the_integer_replay_refuse_alike(source):
    # one walk, two arithmetics: each sound certificate passes both, each broken one
    # fails both
    certs = SOURCES[source]()
    assert any(map(validate_refuses, certs))
    for cert in certs:
        assert validate_refuses(cert) == integer_replay_refuses(cert), cert


@pytest.mark.parametrize("ambient", range(2, 65, 2))
def test_closed_form_matches_the_loop_on_ints(ambient):
    # every mask up to ambient 12, 3000 seeded draws beyond
    masks = range(1 << ambient)
    if ambient > 12:
        rng = random.Random(ambient)
        masks = [rng.getrandbits(ambient) for _ in range(3000)]
    for mask in masks:
        assert pauli_monomial(mask, ambient // 2) == loop_monomial(BasisLabel(mask, ambient))


@pytest.mark.parametrize("n", range(1, 7))
def test_closed_form_matches_the_loop_on_arrays(n):
    masks = np.arange(4**n, dtype=np.int64)
    got = np.stack(pauli_monomial(masks, n), axis=1)
    assert got.dtype == np.int64
    want = [loop_monomial(BasisLabel(mask, 2 * n)) for mask in range(4**n)]
    assert got.tolist() == [list(form) for form in want]


@pytest.mark.parametrize("n", [1, 3])
def test_closed_form_of_no_masks_is_empty(n):
    for part in pauli_monomial(np.zeros(0, dtype=np.int64), n):
        assert part.shape == (0,) and part.dtype == np.int64


def monomial(el):
    """(xmask, zmask, phase, pow2) of a nonzero scaled element, None for zero."""
    if el.is_zero:
        return None
    x, z, phase = pauli_monomial(el.label.mask, el.ambient // 2)
    return x, z, (phase + el.phase) % 4, el.pow2


def times(a, b):
    # (X^xa Z^za)(X^xb Z^zb) = (-1)^|za & xb| X^(xa ^ xb) Z^(za ^ zb)
    xa, za, pa, ea = a
    xb, zb, pb, eb = b
    return xa ^ xb, za ^ zb, (pa + pb + 2 * (za & xb).bit_count()) % 4, ea + eb


def elements(ambient):
    labels = st.integers(0, (1 << ambient) - 1).map(lambda mask: BasisLabel(mask, ambient))
    return st.builds(ScaledElement, labels, st.integers(0, 3), st.integers(-3, 3))


@pytest.mark.parametrize("ambient", range(2, 65, 2))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_monomials_follow_the_algebra_at_every_ambient(ambient, data):
    a, b = data.draw(elements(ambient)), data.draw(elements(ambient))
    ab, ba = times(monomial(a), monomial(b)), times(monomial(b), monomial(a))
    assert monomial(product(a, b)) == ab
    # two monomials commute or anticommute, and [a, b] is 0 or 2ab
    x, z, phase, pow2 = ab
    assert ba in (ab, (x, z, (phase + 2) % 4, pow2))
    assert monomial(commutator(a, b)) == (None if ba == ab else (x, z, phase, pow2 + 1))
    h = monomial(hermitize(a.label))
    assert times(h, h) == (0, 0, 0, 0)

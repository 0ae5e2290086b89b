"""Certificate replay on integer Pauli monomials against the dense oracle.

``replay_certificate`` multiplies (xmask, zmask, phase, pow2) monomials;
``conftest.oracle_replay`` multiplies the dense matrices.  Both must report
the same worst deviation and step count on sound certificates (exactly
0.0), on corrupted ones, and raise on the same malformed ones.
"""

import math
from dataclasses import replace

import pytest

from cliffgate import (
    BasisLabel,
    GeneratorSet,
    ScaledElement,
    certificate,
    chain_generators,
    close,
    replay_certificate,
    universal_generators,
)
from conftest import oracle_replay


def scaled_universal(ambient):
    """The stock universal set with every generator rescaled, so phases and
    negative and positive powers of two run through the replay."""
    return GeneratorSet.of(
        [
            ScaledElement(el.label, el.phase + k, k % 3 - 1)
            for k, el in enumerate(universal_generators(ambient).elements)
        ]
    )


STOCK = {"universal": universal_generators, "chain": chain_generators, "scaled": scaled_universal}


def certificates(family, ambient):
    result = close(STOCK[family](ambient))
    return [certificate(result, lab) for lab in result.labels()]


def corruptions(cert):
    """Certificates that differ from ``cert`` in its scalar or in one step."""
    out = [replace(cert, scalar_phase=cert.scalar_phase + k) for k in (1, 2, 3)]
    out.append(replace(cert, scalar_pow2=cert.scalar_pow2 + 1))
    if not cert.steps:
        return out
    k = len(cert.steps) // 2
    step = cert.steps[k]
    el = step.element
    x0 = BasisLabel(el.label.mask ^ 0b01, el.ambient)
    z0 = BasisLabel(el.label.mask ^ 0b11, el.ambient)
    wrong = [
        ScaledElement(el.label, el.phase + 2, el.pow2),  # flipped sign
        ScaledElement(x0, el.phase, el.pow2),  # another x-mask
        # another z-mask, at every phase: the signs agree on some columns
        *(ScaledElement(z0, el.phase + ph, el.pow2) for ph in range(4)),
    ]
    for element in wrong:
        steps = cert.steps[:k] + (replace(step, element=element),) + cert.steps[k + 1 :]
        out.append(replace(cert, steps=steps))
    # a bracket of an element with itself is zero, so the recorded element
    # is the whole deviation
    steps = cert.steps[:k] + (replace(step, parent_b=step.parent_a),) + cert.steps[k + 1 :]
    out.append(replace(cert, steps=steps))
    return out


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
            assert report.deviation == pytest.approx(dense, abs=1e-12), bad
            assert report.deviation > 0 and report.steps == steps
            seen += 1
    assert seen > 4 * len(certificates(family, ambient))


def test_deviation_is_the_largest_entry_difference():
    # [e0, e1] = 2 e0 e1; recording e0 e1 instead leaves entries of size 1
    cert = certificate(close(universal_generators(4)), BasisLabel(0b11, 4))
    step = cert.steps[0]
    half = ScaledElement(step.element.label, step.element.phase, step.element.pow2 - 1)
    bad = replace(cert, steps=(replace(step, element=half),))
    assert replay_certificate(bad).deviation == 1.0 == oracle_replay(bad)[0]


@pytest.mark.parametrize("pow2", [-2000, 2000])
def test_disagreement_outside_the_float_range_saturates(pow2):
    # M(2^k e0) has entries 2^k, past the float range either way; flipping
    # the recorded sign leaves entries 2^(k+2) apart, which must neither
    # read as agreement nor raise
    gens = GeneratorSet.of(
        [ScaledElement(BasisLabel(0b1, 4), pow2=pow2), ScaledElement(BasisLabel(0b10, 4)),
         ScaledElement(BasisLabel(0b111, 4), phase=1)]
    )
    cert = certificate(close(gens), BasisLabel(0b11, 4))
    assert replay_certificate(cert).deviation == 0.0
    flipped = replace(cert, scalar_phase=(cert.scalar_phase + 2) % 4)
    deviation = replay_certificate(flipped).deviation
    if pow2 > 0:
        assert deviation == math.inf
    else:
        assert 0.0 < deviation < 1e-300


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

"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line (run with -s to see them on success)."""

import math
import time

import numpy as np
import scipy.linalg

from cliffgate import (
    BasisLabel,
    Gate,
    GeneratorSet,
    ScaledElement,
    all_labels,
    certificate,
    chain_generators,
    close,
    commutator,
    commutator_gate,
    commutes,
    decompose,
    dimension,
    expm_hermitian,
    gamma,
    generator,
    hermitize,
    hermitized_matrix,
    irrational_power,
    minimal_power_scan,
    operator_distance,
    pauli_factorization,
    product,
    replay_certificate,
    represent,
    trotter,
    universal_generators,
)
from cliffgate.matrices import random_hermitian
from cliffgate.synthesis import CoefficientVector
from conftest import labels_upto, maxabs


def report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"{status} criterion {num}: {description}{suffix}")
    assert ok, f"criterion {num}: {description}{suffix}"


def test_criterion_01_dimension_dichotomy():
    ok = True
    details = []
    for ambient, want in ((2, 3), (4, 10), (6, 21), (8, 36)):
        start = time.perf_counter()
        dim = dimension(GeneratorSet.of([generator(k, ambient) for k in range(ambient)]))
        elapsed = time.perf_counter() - start
        ok &= dim == want and elapsed < 1.0
        details.append(f"m={ambient}:{dim}")
    for ambient, want in ((4, 16), (6, 64), (8, 256)):
        start = time.perf_counter()
        dim = dimension(universal_generators(ambient))
        elapsed = time.perf_counter() - start
        ok &= dim == want and elapsed < 1.0
        details.append(f"m={ambient}+:{dim}")
    report(1, "quadratic sector n(2n+1) vs full 4^n closure", ok, " ".join(details))


def test_criterion_02_every_order3_or_4_extra_element():
    start = time.perf_counter()
    ok = True
    count = 0
    for lab in all_labels(6):
        if lab.order not in (3, 4):
            continue
        gens = GeneratorSet.of([generator(k, 6) for k in range(6)] + [hermitize(lab)])
        ok &= dimension(gens) == 64
        count += 1
    elapsed = time.perf_counter() - start
    ok &= count == 35 and elapsed < 10.0
    report(2, "any order-3/4 extra element reaches 64 at six generators", ok,
           f"{count} extras in {elapsed:.2f}s")


def test_criterion_03_odd_ambient_obstruction():
    ok = True
    details = []
    for ambient, want in ((5, 31), (7, 127)):
        result = close(universal_generators(ambient))
        top = BasisLabel((1 << ambient) - 1, ambient)
        ok &= result.dimension == want
        ok &= top not in result.reached
        ok &= result.audit_closed()  # independent pairwise recheck
        details.append(f"m={ambient}:{result.dimension}")
    report(3, "odd ambient closes to 2^m-1, top element unreachable", ok, " ".join(details))


def test_criterion_04_oracle_equivalence():
    ok = True
    worst = 0.0
    for n in (1, 2, 3):
        labs = labels_upto(2 * n)
        mats = {lab: represent(ScaledElement(lab), n) for lab in labs}
        for a in labs:
            for b in labs:
                ea, eb = ScaledElement(a), ScaledElement(b)
                ab = mats[a] @ mats[b]
                ba = mats[b] @ mats[a]
                worst = max(worst, maxabs(ab - represent(product(ea, eb), n)))
                worst = max(worst, maxabs(ab - ba - represent(commutator(ea, eb), n)))
                ok &= (maxabs(ab - ba) <= 1e-12) == commutes(a, b)
    ok &= worst <= 1e-12
    relation_worst = 0.0
    for n in (1, 2, 3, 4, 5):
        eye = np.eye(2**n)
        for k in range(2 * n):
            gk = gamma(k, n)
            for l in range(2 * n):
                gl = gamma(l, n)
                want = 2.0 * eye if k == l else 0.0 * eye
                relation_worst = max(relation_worst, maxabs(gk @ gl + gl @ gk - want))
    ok &= relation_worst <= 1e-14
    report(4, "symbolic ops match dense matrices; anticommutation relations exact", ok,
           f"pair dev {worst:.2e}, relation dev {relation_worst:.2e}")


def test_criterion_05_certificates_for_every_label():
    ok = True
    worst = 0.0
    for ambient in (4, 6):
        result = close(universal_generators(ambient))
        labs = list(all_labels(ambient))
        ok &= result.dimension == len(labs)
        for lab in labs:
            cert = certificate(result, lab)
            cert.validate()
            dev = replay_certificate(cert).deviation
            worst = max(worst, dev)
    ok &= worst <= 1e-10
    report(5, "every basis label receives a certificate that replays in matrix form", ok,
           f"worst replay deviation {worst:.2e}")


def test_criterion_06_exact_commutator_gate():
    ok = True
    worst = 0.0
    checked = 0
    angles = (0.1, 0.7, math.pi / 3)
    for n in (1, 2, 3):
        labs = labels_upto(2 * n)
        herm = {lab: hermitized_matrix(lab, n) for lab in labs}
        eye = np.eye(2**n)
        for a in labs:
            for b in labs:
                if commutes(a, b):
                    continue
                prod_ab = herm[a] @ herm[b]
                for tau in angles:
                    seq = commutator_gate(a, b, tau)
                    target = math.cos(tau) * eye - math.sin(tau) * prod_ab
                    worst = max(worst, operator_distance(seq.matrix(), target))
                    checked += 1
    # independent exponential on a sample, same tolerance
    rng = np.random.default_rng(606)
    labs = labels_upto(6)
    sampled = 0
    while sampled < 20:
        a, b = labs[rng.integers(len(labs))], labs[rng.integers(len(labs))]
        if commutes(a, b):
            continue
        tau = float(rng.uniform(0.05, 1.5))
        seq = commutator_gate(a, b, tau)
        target = scipy.linalg.expm(-tau * hermitized_matrix(a, 3) @ hermitized_matrix(b, 3))
        worst = max(worst, operator_distance(seq.matrix(), target))
        sampled += 1
    ok &= worst <= 1e-12
    report(6, "three-gate conjugation equals exp(-tau*H_a*H_b) exactly", ok,
           f"{checked}+{sampled} cases, worst {worst:.2e}")


def test_criterion_07_trotter_error_scaling():
    rng = np.random.default_rng(20260809)
    h = random_hermitian(2, rng)
    raw = decompose(h, 2)
    norm = math.sqrt(sum(v * v for v in raw.values()))
    vec = CoefficientVector(2, {k: v / norm for k, v in raw.items()})
    steps = (4, 8, 16, 32, 64)
    errors = [trotter(vec, N).error for N in steps]
    decreasing = all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
    slope = float(np.polyfit(np.log(steps), np.log(errors), 1)[0])
    ok = decreasing and -1.3 <= slope <= -0.7
    report(7, "first-order product formula error scales like 1/N", ok,
           f"slope {slope:.3f}, errors {['%.2e' % e for e in errors]}")


def test_criterion_08_irrational_powers():
    angle = math.atan2(3.0, 4.0)
    lab = BasisLabel.from_indices([0], 2)
    gate = Gate(lab, angle).matrix()
    ok = True
    details = []
    for eps in (1e-2, 1e-3):
        fast = irrational_power(angle, eps)
        slow = minimal_power_scan(angle, eps)
        ok &= fast.applications == slow.applications
        ok &= fast.residual < eps
        powered = np.linalg.matrix_power(gate, fast.applications)
        residual_gate = Gate(lab, fast.signed_angle).matrix()
        ok &= operator_distance(powered, residual_gate) <= 1e-10
        details.append(f"eps={eps:g}: N={fast.applications} r={fast.residual:.2e}")
    report(8, "minimal gate powers via convergents match brute force and replay", ok,
           "; ".join(details))


def test_criterion_09_local_gate_set():
    ok = True
    details = []
    for n in (2, 3, 4):
        gens = chain_generators(2 * n)
        ok &= len(gens.elements) == 2 * n + 1
        for el in gens.elements:
            fact = pauli_factorization(el, n)
            support = fact.support()
            ok &= fact.local and len(support) <= 2
            if len(support) == 2:
                ok &= support[1] - support[0] == 1
        result = close(gens)
        ok &= result.dimension == 4**n and result.universal
        details.append(f"n={n}:{result.dimension}")
    report(9, "chain gate set acts on <=2 adjacent qubits and closes to 4^n", ok,
           " ".join(details))


def test_criterion_10_chain_set_closure():
    ok = True
    details = []
    for ambient, want in ((4, 16), (6, 64)):
        dim = dimension(chain_generators(ambient))
        ok &= dim == want
        details.append(f"m={ambient}:{dim}")
    report(10, "endpoint-plus-pairs chain set closes to 4^n", ok, " ".join(details))

#!/usr/bin/env python3
"""A gate does not pin down its Hermitian exponent: evaluate three
pi-angle exponentials over two qubits and show which coincide."""

import numpy as np

from cliffgate.matrices import PAULI, TOL_EXACT, expm_hermitian

LABELS = {
    "single": "exp(i*pi*(A otimes I))",
    "sum": "exp(i*pi*(A otimes I + I otimes B))",
    "product": "exp(i*pi*(A otimes B))",
}


def exponent_coincidence_report(axis_a: str = "x", axis_b: str = "z") -> dict:
    """Evaluate three pi-angle exponentials that share matrix values.

    Returns the matrices exp(i*pi*(A (x) I)), exp(i*pi*(A (x) I + I (x) B))
    and exp(i*pi*(A (x) B)) for the chosen Pauli axes, together with their
    pairwise max-abs distances and the pairs within TOL_EXACT.  Several
    distinct Hermitian exponents map to the same unitary, so recovering an
    exponent from a gate is not unique; this report shows the phenomenon in
    whatever form the numbers actually take.
    """
    pa, pb, eye = PAULI[axis_a.upper()], PAULI[axis_b.upper()], PAULI["I"]
    mats = {
        "single": expm_hermitian(np.kron(pa, eye), np.pi),
        "sum": expm_hermitian(np.kron(pa, eye) + np.kron(eye, pb), np.pi),
        "product": expm_hermitian(np.kron(pa, pb), np.pi),
    }
    names = sorted(mats)
    distances = {
        (x, y): float(np.max(np.abs(mats[x] - mats[y])))
        for i, x in enumerate(names)
        for y in names[i + 1 :]
    }
    coincide = sorted(pair for pair, d in distances.items() if d <= TOL_EXACT)
    return {"matrices": mats, "distances": distances, "coincide": coincide}


def main():
    for axis_a, axis_b in (("x", "z"), ("y", "y")):
        report = exponent_coincidence_report(axis_a, axis_b)
        print(f"A = sigma_{axis_a}, B = sigma_{axis_b}")
        for name, matrix in report["matrices"].items():
            value = "+1" if np.allclose(matrix, np.eye(4)) else (
                "-1" if np.allclose(matrix, -np.eye(4)) else "other"
            )
            print(f"  {LABELS[name]:38s} = {value}")
        for pair, dist in sorted(report["distances"].items()):
            tag = "coincide" if pair in report["coincide"] else f"differ by {dist:g}"
            print(f"  {pair[0]:8s} vs {pair[1]:8s}: {tag}")
        print()


if __name__ == "__main__":
    main()

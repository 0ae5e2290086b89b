#!/usr/bin/env python3
"""Closure-dimension table: generators alone stay in the quadratic sector
of dimension m(m+1)/2, one extra order-3 element opens up all 2^m labels
(minus the top one when m is odd)."""

from cliffgate import GeneratorSet, close, generator, universal_generators


def main():
    print(f"{'m':>3} {'gens only':>10} {'m(m+1)/2':>9} {'with extra':>11} {'2^m':>6}")
    for ambient in range(3, 11):
        gens = GeneratorSet(ambient, tuple(generator(k, ambient) for k in range(ambient)))
        plain = close(gens).dimension
        augmented = close(universal_generators(ambient)).dimension
        note = "  (odd: top label unreachable)" if augmented == (1 << ambient) - 1 else ""
        print(
            f"{ambient:>3} {plain:>10} {ambient * (ambient + 1) // 2:>9} "
            f"{augmented:>11} {1 << ambient:>6}{note}"
        )


if __name__ == "__main__":
    main()

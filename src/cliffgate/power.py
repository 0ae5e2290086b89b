"""Minimal powers of an irrational-angle gate.

The N-th power of exp(i*angle*h) is the basis gate at angle N*angle, so
the smallest N that brings N*angle within a tolerance of a multiple of
2*pi turns one fixed-angle gate into a rotation finer than the tolerance.

The search is exact.  Floats are rational, so angle/(2*pi), with 2*pi the
float ``TWO_PI``, is a ratio of integers, and Euclid's algorithm gives
its continued fraction.  The smallest N that hits the tolerance is closer
to 2*pi*Z than every smaller power, and such records are exactly the
convergent denominators (Lagrange's theorem on best approximations;
Khinchin, *Continued Fractions*, Thms 16-17).  So walking the convergents
up to the cap, each tested in integers, settles every search without
numpy or rounding; the brute-force scan is only the oracle of tests and
benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import CapExceededError

__all__ = ["PowerResult", "irrational_power", "minimal_power_scan"]

TWO_PI = 2.0 * math.pi
DEFAULT_POWER_CAP = 10**9  # applications


@dataclass(frozen=True)
class PowerResult:
    applications: int
    residual: float
    signed_angle: float


def _no_power(angle: float, tolerance: float, cap: int) -> CapExceededError:
    return CapExceededError(
        f"no power at or below cap {cap} brings {angle!r} within {tolerance!r} of 2*pi*Z"
    )


def _require_search(angle: float, tolerance: float) -> None:
    # the one input check of both searches
    if not 0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle}")


def irrational_power(
    angle: float, tolerance: float, *, cap: int = DEFAULT_POWER_CAP
) -> PowerResult:
    """Smallest N >= 1 with N*angle within ``tolerance`` of a multiple of 2*pi.

    Tests each convergent denominator q of the exact ratio angle/(2*pi) in
    turn; the first hit is minimal, since only a convergent is closer than
    every smaller power.  With angle = a/b and ``TWO_PI`` = c/d, q's
    residual is s/(b*d), s = q*a*d mod b*c centred, so the test is exact
    and the last convergent (s = 0) always hits: only the next
    denominator exceeding ``cap`` raises :class:`CapExceededError`.
    The N-th power of the fixed-angle gate then equals the basis gate at
    the signed residual angle, so one irrational gate yields rotations
    finer than any requested tolerance.
    """
    _require_search(angle, tolerance)
    a, b = angle.as_integer_ratio()
    c, d = TWO_PI.as_integer_ratio()
    t1, t2 = tolerance.as_integer_ratio()
    turn = b * c
    num, den = a * d % turn, turn  # num/den is the fractional part of angle/(2*pi)
    q_prev, q = 0, 1
    while q <= cap:
        s = q * a * d % turn
        if 2 * s > turn:
            s -= turn  # q*angle - 2*pi*k = s/(b*d) for the nearest k
        if abs(s) * t2 < t1 * b * d:
            return PowerResult(q, abs(s) / (b * d), s / (b * d))
        term, rest = divmod(den, num)
        num, den = rest, num
        q_prev, q = q, term * q + q_prev
    raise _no_power(angle, tolerance, cap)


def minimal_power_scan(angle: float, tolerance: float, *, cap: int = 10**7) -> PowerResult:
    """Brute-force minimal power search; the oracle for :func:`irrational_power`,
    which refuses the same inputs with the same messages."""
    import numpy as np

    _require_search(angle, tolerance)
    chunk = 1 << 16
    n0 = 1
    while n0 <= cap:
        ns = np.arange(n0, min(n0 + chunk, cap + 1), dtype=np.int64)
        r = np.mod(ns * angle + math.pi, TWO_PI) - math.pi
        hits = np.nonzero(np.abs(r) < tolerance)[0]
        if hits.size:
            k = int(hits[0])
            return PowerResult(int(ns[k]), float(abs(r[k])), float(r[k]))
        n0 += chunk
    raise _no_power(angle, tolerance, cap)

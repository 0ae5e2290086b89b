"""Minimal powers of an irrational-angle gate.

The N-th power of exp(i*angle*h) is the basis gate at angle N*angle, so
the smallest N that brings N*angle within a tolerance of a multiple of
2*pi turns one fixed-angle gate into a rotation finer than the tolerance.
The search walks continued-fraction convergents in plain floats; numpy is
loaded only by the brute-force scan, which is the oracle and the fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .closure import CapExceededError

__all__ = ["PowerResult", "irrational_power", "minimal_power_scan", "signed_residual"]

TWO_PI = 2.0 * math.pi
DEFAULT_POWER_CAP = 10**9  # applications


@dataclass(frozen=True)
class PowerResult:
    applications: int
    residual: float
    signed_angle: float


def signed_residual(theta: float) -> float:
    """theta reduced to (-pi, pi]; |result| is the circle distance to 0."""
    return math.remainder(theta, TWO_PI)


def _convergent_denominators(x: float, cap: int):
    # Denominators of the continued-fraction convergents of x.  These are
    # exactly the record-setting integers q minimizing |q*x mod 1| over all
    # smaller q, so scanning them in order finds the minimal power.
    if cap < 1:
        return
    q_prev, q_curr = 0, 1
    yield 1
    frac = x - math.floor(x)
    for _ in range(128):
        if frac < 1e-15:  # expansion exhausted float precision (or x rational)
            return
        r = 1.0 / frac
        a = int(r)
        frac = r - a
        q_prev, q_curr = q_curr, a * q_curr + q_prev
        if q_curr > cap:
            return
        yield q_curr


def irrational_power(
    angle: float, tolerance: float, *, cap: int = DEFAULT_POWER_CAP
) -> PowerResult:
    """Smallest N >= 1 with N*angle within ``tolerance`` of a multiple of 2*pi.

    Walks the continued-fraction convergents of angle/(2*pi), which is both
    fast and provably minimal; a linear scan takes over if float precision
    runs out before a hit.  Raises :class:`CapExceededError` when no N at
    or below ``cap`` works.  The N-th power of the fixed-angle gate then
    equals the basis gate at the signed residual angle, so one irrational
    gate yields rotations finer than any requested tolerance.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    last = 0
    for q in _convergent_denominators((angle / TWO_PI) % 1.0, cap):
        r = signed_residual(q * angle)
        if abs(r) < tolerance:
            return PowerResult(q, abs(r), r)
        last = q
    return minimal_power_scan(angle, tolerance, cap=cap, start=last + 1)


def minimal_power_scan(
    angle: float, tolerance: float, *, cap: int = 10**7, start: int = 1
) -> PowerResult:
    """Brute-force minimal power search; the oracle for the fast path."""
    import numpy as np

    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    chunk = 1 << 16
    n0 = start
    while n0 <= cap:
        ns = np.arange(n0, min(n0 + chunk, cap + 1), dtype=np.int64)
        r = np.mod(ns * angle + math.pi, TWO_PI) - math.pi
        hits = np.nonzero(np.abs(r) < tolerance)[0]
        if hits.size:
            k = int(hits[0])
            return PowerResult(int(ns[k]), float(abs(r[k])), float(r[k]))
        n0 += chunk
    raise CapExceededError(
        f"no power at or below cap {cap} brings {angle!r} within {tolerance!r} of 2*pi*Z"
    )

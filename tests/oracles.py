"""Scalar and floating-point reference implementations for the tests.

Point-by-point orbits of the baker map and a Monte Carlo on float orbits.
Each is the plain definition, with none of the library's shortcuts, so
the tests can hold the library to it.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from openbaker.classical import OpeningSpec


class PhasePoint(NamedTuple):
    q: float
    p: float


def baker_forward(x: PhasePoint) -> PhasePoint:
    """One forward step; integer coefficients keep Fraction inputs exact."""
    q, p = x
    if q < 0.5:
        return PhasePoint(2 * q, p / 2)
    return PhasePoint(2 * q - 1, (p + 1) / 2)


def baker_inverse(x: PhasePoint) -> PhasePoint:
    """One backward step, branching on p instead of q."""
    q, p = x
    if p < 0.5:
        return PhasePoint(q / 2, 2 * p)
    return PhasePoint((q + 1) / 2, 2 * p - 1)


def contains_q(opening: OpeningSpec, q) -> bool:
    # Fraction-vs-float comparisons are exact, so float orbit points
    # are tested against the true decimal edges.
    lo, hi = opening.edges()
    if hi <= 1:
        return lo <= q < hi
    return q >= lo or q < hi - 1


def in_opening(x: PhasePoint, opening: OpeningSpec) -> bool:
    """Whether a point sits inside the absorbing strip (q alone decides)."""
    return contains_q(opening, x.q)


def survival_time(x: PhasePoint, opening: OpeningSpec, t_max: int) -> Optional[int]:
    """Smallest t < t_max whose iterate falls in the opening, else None.

    The point itself counts as the t = 0 iterate.  None means the orbit
    stayed out of the strip for all t in [0, t_max).
    """
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    for t in range(t_max):
        if in_opening(x, opening):
            return t
        x = baker_forward(x)
    return None


def monte_carlo_area_float(
    opening: OpeningSpec, t: int, n_samples: int, seed: int = 0
) -> tuple[float, float]:
    """Float-orbit Monte Carlo: the hole edges rounded to doubles.

    Doubling a double is exact, and one call of ``rng.random`` draws the
    same stream as the library's chunked draws.
    """
    lo, hi = opening.edges()
    wraps = hi > 1
    lo_f = float(lo)
    hi_f = float(hi - 1 if wraps else hi)
    q = np.random.default_rng(seed).random(n_samples)
    for _ in range(t + 1):
        if wraps:
            inside = (q >= lo_f) | (q < hi_f)
        else:
            inside = (q >= lo_f) & (q < hi_f)
        q = q[~inside]
        q *= 2.0
        q[q >= 1.0] -= 1.0
    p = q.size / n_samples
    return p, math.sqrt(p * (1.0 - p) / n_samples)

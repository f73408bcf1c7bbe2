"""Open baker map on the unit torus.

The map doubles q, halves p, and stacks the two half-squares.  An opening
is a vertical strip of width delta_q centered at q_c; absorption is checked
before each step, so a point born inside the strip escapes at time 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np


class PhasePoint(NamedTuple):
    q: float
    p: float


def as_fraction(x) -> Fraction:
    """Exact value of a decimal-looking number.

    Floats go through their shortest decimal representation, so 0.1 is
    read as 1/10 rather than the nearest binary double.  Fractions, ints
    and numeric strings pass through unchanged.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    return Fraction(str(x))


@dataclass(frozen=True)
class OpeningSpec:
    """Absorbing strip [q_c - delta_q/2, q_c + delta_q/2) mod 1.

    The strip is half-open and may wrap around q = 0.  delta_q = 0 means a
    closed system, delta_q = 1 swallows everything.
    """

    q_c: float
    delta_q: float

    def __post_init__(self):
        qc, dq = as_fraction(self.q_c), as_fraction(self.delta_q)
        if not 0 <= qc < 1:
            raise ValueError(f"q_c must lie in [0, 1), got {self.q_c}")
        if not 0 <= dq <= 1:
            raise ValueError(f"delta_q must lie in [0, 1], got {self.delta_q}")

    def edges(self) -> tuple[Fraction, Fraction]:
        """Exact (left, right) edges with left reduced mod 1.

        The right edge may exceed 1, which signals a strip wrapping
        through q = 0.
        """
        lo = (as_fraction(self.q_c) - as_fraction(self.delta_q) / 2) % 1
        return lo, lo + as_fraction(self.delta_q)

    def contains_q(self, q) -> bool:
        # Fraction-vs-float comparisons are exact, so float orbit points
        # are tested against the true decimal edges.
        lo, hi = self.edges()
        if hi <= 1:
            return lo <= q < hi
        return q >= lo or q < hi - 1


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


def baker_inverse_array(q: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Backward step on parallel coordinate arrays."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    low = p < 0.5
    qn = np.where(low, 0.5 * q, 0.5 * (q + 1.0))
    pn = np.where(low, 2.0 * p, 2.0 * p - 1.0)
    return qn, pn


def in_opening(x: PhasePoint, opening: OpeningSpec) -> bool:
    """Whether a point sits inside the absorbing strip (q alone decides)."""
    return opening.contains_q(x.q)


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

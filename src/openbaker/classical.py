"""Open baker map on the unit torus.

The map doubles q, halves p, and stacks the two half-squares.  An opening
is a vertical strip of width delta_q centered at q_c; absorption is checked
before each step, so a point born inside the strip escapes at time 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


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

    q_c: Fraction
    delta_q: Fraction

    def __post_init__(self):
        # stored exactly, so 0.1, "0.1" and Fraction(1, 10) give equal,
        # equally hashed openings and exact tests such as delta_q == 0
        qc, dq = as_fraction(self.q_c), as_fraction(self.delta_q)
        if not 0 <= qc < 1:
            raise ValueError(f"q_c must lie in [0, 1), got {self.q_c}")
        if not 0 <= dq <= 1:
            raise ValueError(f"delta_q must lie in [0, 1], got {self.delta_q}")
        object.__setattr__(self, "q_c", qc)
        object.__setattr__(self, "delta_q", dq)

    def edges(self) -> tuple[Fraction, Fraction]:
        """Exact (left, right) edges with left reduced mod 1.

        The right edge may exceed 1, which signals a strip wrapping
        through q = 0.
        """
        lo = (self.q_c - self.delta_q / 2) % 1
        return lo, lo + self.delta_q

    def window(self, den: int) -> tuple[int, int]:
        """The hole as a window (low, width) of the integers k mod den.

        k / den lies in the hole [lo, hi) exactly when (k - low) mod den <
        width, for low = ceil(lo den) and width = ceil(hi den) - low: k >= x
        and k < x hold for an integer k just when they hold for ceil(x).
        The one test covers wrapping holes, delta_q = 0 (an empty window) and
        delta_q = 1 (every k).
        """
        lo, hi = self.edges()
        low = math.ceil(lo * den)
        return low, math.ceil(hi * den) - low

"""Scalar and floating-point reference implementations for the tests.

Point-by-point orbits of the baker map, a Monte Carlo on float orbits,
the survivor sets as exact interval unions, the growth rate of the
binary strings that avoid a word, the Fourier kernel G_n and a
characteristic-polynomial spectrum.  Each is the plain definition, with
none of the library's shortcuts, so the tests can hold the library to it.
Two small readers of library objects, the absorbed-site count and the
rescaled-histogram peak, live here too, as only the tests use them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional

import mpmath as mp
import numpy as np

from openbaker.classical import OpeningSpec
from openbaker.propagator import PropagatorSpec
from openbaker.spectra import sort_spectrum
from openbaker.stats import RescaledHistogram

ORACLE_MAX_DIM = 8


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


@dataclass(frozen=True, eq=False)
class IntervalUnion:
    """Disjoint sorted half-open intervals [starts, ends) over den."""

    starts: np.ndarray
    ends: np.ndarray
    den: int

    def __len__(self) -> int:
        return int(self.starts.size)

    @property
    def measure(self) -> Fraction:
        return Fraction(int((self.ends - self.starts).sum()), self.den)

    def as_fractions(self) -> list[tuple[Fraction, Fraction]]:
        return [(Fraction(int(a), self.den), Fraction(int(b), self.den))
                for a, b in zip(self.starts, self.ends)]


def _hole_rows(opening: OpeningSpec) -> tuple[np.ndarray, int]:
    """Hole as integer [start, end) rows over the smallest denominator."""
    lo, hi = opening.edges()
    if opening.delta_q == 0:
        return np.zeros((0, 2), dtype=np.int64), 1
    pieces = [(lo, hi)] if hi <= 1 else [(Fraction(0), hi - 1), (lo, Fraction(1))]
    den = math.lcm(*(x.denominator for piece in pieces for x in piece))
    rows = [(int(a * den), int(b * den)) for a, b in pieces]
    return np.array([r for r in rows if r[0] < r[1]], dtype=np.int64).reshape(-1, 2), den


def _subtract(starts, ends, hole):
    """Remove each hole row from every interval, keeping order."""
    for u, v in hole:
        cand_s = np.stack((starts, np.maximum(starts, v)), axis=1).ravel()
        cand_e = np.stack((np.minimum(ends, u), ends), axis=1).ravel()
        keep = cand_s < cand_e
        starts, ends = cand_s[keep], cand_e[keep]
    return starts, ends


def survivor_sets(opening: OpeningSpec) -> Iterator[IntervalUnion]:
    """S_0, S_1, ...: S_0 is the complement of the hole, and
    S_{t+1} = S_0 intersect D^{-1}(S_t) for the doubling map D.

    The preimage of an interval union under D is two copies at half size,
    that is, the same integers reread at twice the denominator plus a
    shift, so every endpoint stays exact.  Intervals sharing an endpoint
    are fused, so len() counts the pieces of S_t.
    """
    hole, den = _hole_rows(opening)
    starts, ends = _subtract(np.array([0], dtype=np.int64),
                             np.array([den], dtype=np.int64), hole)
    scale = den
    while True:
        yield IntervalUnion(starts, ends, scale)
        if scale >= 2**62:  # endpoints reach 2 scale while doubling
            raise OverflowError(f"survivor set denominator {scale} leaves int64")
        starts = np.concatenate((starts, starts + scale))
        ends = np.concatenate((ends, ends + scale))
        scale *= 2
        starts, ends = _subtract(starts, ends, hole * (scale // den))
        if starts.size > 1:
            gap = starts[1:] != ends[:-1]
            starts = starts[np.concatenate(([True], gap))]
            ends = ends[np.concatenate((gap, [True]))]


def survivor_set(opening: OpeningSpec, t: int) -> IntervalUnion:
    """The t-step survivor set S_t."""
    return next(itertools.islice(survivor_sets(opening), t, None))


def gn_matrix(n: int) -> np.ndarray:
    """Fourier kernel exp(-2 pi i (j+1/2)(k+1/2)/n) / sqrt(n)."""
    if n <= 0:
        raise ValueError(f"kernel dimension must be positive, got {n}")
    j = np.arange(n) + 0.5
    return np.exp(-2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)


def removed_count(spec: PropagatorSpec) -> int:
    """Number of absorbed grid sites, about dim * delta_q."""
    return int((~spec.kept_mask()).sum())


def peak_location(rh: RescaledHistogram) -> float:
    """Midpoint of the highest bin; ties go to the longest-lived bin."""
    if rh.density.size == 0 or rh.density.max() <= 0:
        raise ValueError("histogram has no occupied bins")
    return float(rh.midpoints[int(np.argmax(rh.density))])


def dyadic_rho(word: str, dps: int = 40) -> float:
    """Growth rate of the binary strings that avoid word as a factor.

    An orbit of q -> 2q mod 1 avoids the cylinder of word, the hole
    [a/2^k, (a+1)/2^k) for word = a in k binary digits, while the binary
    digits of q avoid word, so this is the rho of exact_escape.  The
    strings of each length that avoid word have the generating function
    c(z) / (z^k + (1 - 2z) c(z)), c the autocorrelation polynomial of word
    (Guibas & Odlyzko, J. Combin. Theory A 30, 1981): the coefficient of
    z^j is 1 when word shifted by j overlaps itself.  rho is one over the
    smallest modulus among the denominator's roots, found at elevated
    precision so that repeated roots, such as (1 - z)^2 for 01, stay exact
    to far below double precision.
    """
    k = len(word)
    coeffs = [0] * (k + 1)  # ascending powers of z
    coeffs[k] = 1
    for j in range(k):
        if word[j:] == word[: k - j]:
            coeffs[j] += 1
            coeffs[j + 1] -= 2
    with mp.workdps(dps):
        roots = mp.polyroots(coeffs[::-1], maxsteps=500, extraprec=120)
        return float(1 / min(abs(r) for r in roots))


def _char_poly_coeffs(a, n: int):
    """det(xI - A) coefficients in descending powers.

    Uses c_k = (-1)^k (sum of k-by-k principal minors), with each minor
    expanded by memoized Laplace cofactors.  Exponential in n, which is
    the point: no Hessenberg form, no QR, nothing shared with LAPACK.
    """
    memo: dict[tuple[int, int], mp.mpc] = {}

    def det(rmask: int, cmask: int) -> mp.mpc:
        if rmask == 0:
            return mp.mpc(1)
        key = (rmask, cmask)
        if key in memo:
            return memo[key]
        row = (rmask & -rmask).bit_length() - 1
        acc = mp.mpc(0)
        sign = 1
        for j in range(n):
            if not (cmask >> j) & 1:
                continue
            entry = a[row][j]
            if entry != 0:
                acc += sign * entry * det(rmask & ~(1 << row), cmask & ~(1 << j))
            sign = -sign
        memo[key] = acc
        return acc

    by_size: dict[int, list[int]] = {k: [] for k in range(n + 1)}
    for s in range(1 << n):
        by_size[s.bit_count()].append(s)
    coeffs = [mp.mpc(1)]
    for k in range(1, n + 1):
        e_k = mp.mpc(0)
        for s in by_size[k]:
            e_k += det(s, s)
        coeffs.append((-1) ** k * e_k)
    return coeffs


def brute_force_spectrum_oracle(
    m: np.ndarray, dps: int = 40, max_dim: int = ORACLE_MAX_DIM
) -> np.ndarray:
    """Spectrum via the characteristic polynomial, for cross-checks only.

    Trailing zero coefficients are deflated exactly (zeroed columns give
    an exact monomial factor) before handing the rest to a Durand-Kerner
    style root finder at elevated precision.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    if n > max_dim:
        raise ValueError(f"oracle is exponential in the dimension, {n} > {max_dim}")
    with mp.workdps(dps):
        a = [[mp.mpc(m[i, j]) for j in range(n)] for i in range(n)]
        coeffs = _char_poly_coeffs(a, n)
        n_zero = 0
        while n_zero < n and coeffs[n - n_zero] == 0:
            n_zero += 1
        roots = [mp.mpc(0)] * n_zero
        if n_zero < n:
            roots += mp.polyroots(
                coeffs[: n - n_zero + 1], maxsteps=500, extraprec=120
            )
    return sort_spectrum(np.array([complex(r) for r in roots]))

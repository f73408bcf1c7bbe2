"""Statistics over resonance spectra.

Everything here consumes ResonanceSet objects and produces plain arrays
and small result records: cumulative modulus fractions, normalized
modulus histograms, half-height widths, decay-rate rescalings and
power-law fits of long-lived mode counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .spectra import ResonanceSet

DEFAULT_BIN_WIDTH = 0.01
TAIL_LO = 0.7
DEFAULT_NU_CUT = 0.3
# a histogram holds three float arrays of this length at most
MAX_BINS = 100_000
# snap tolerance for moduli that land just above 1 through roundoff
EDGE_OVERSHOOT_TOL = 1e-8


def cumulative_moduli(rs: ResonanceSet) -> tuple[np.ndarray, np.ndarray]:
    """Moduli in ascending order with the cumulative fraction at each."""
    nu = np.sort(rs.moduli)
    n = np.arange(1, nu.size + 1) / nu.size
    return nu, n


@dataclass(frozen=True, eq=False)
class ModulusHistogram:
    """Histogram of moduli normalized by the full mode count.

    density[k] is (modes in bin k) / (all modes) / bin_width, so the
    full-range histogram integrates to one even when a restricted range
    drops part of the spectrum.
    """

    lo: float
    hi: float
    bin_width: float
    counts: np.ndarray
    density: np.ndarray

    @property
    def left_edges(self) -> np.ndarray:
        return self.lo + self.bin_width * np.arange(self.counts.size)

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.counts.size + 1)


def bin_count(bin_width: float, lo: float, hi: float) -> int:
    """Number of bins of width bin_width tiling [lo, hi], else ValueError."""
    if not bin_width > 0:  # also rejects nan
        raise ValueError(f"bin width must be positive, got {bin_width}")
    for name, bound in (("lower", lo), ("upper", hi)):
        if not math.isfinite(bound):
            raise ValueError(f"{name} modulus bound must be finite, got {bound}")
    if not lo < hi:
        raise ValueError(f"empty modulus range [{lo}, {hi}]")
    if (hi - lo) / bin_width > MAX_BINS + 0.5:
        raise ValueError(
            f"bin width {bin_width} over [{lo}, {hi}] makes more than {MAX_BINS} bins"
        )
    nbins = round((hi - lo) / bin_width)
    if nbins < 1 or abs(nbins * bin_width - (hi - lo)) > 1e-9:
        raise ValueError(f"bin width {bin_width} does not tile [{lo}, {hi}]")
    return nbins


def modulus_histogram(
    rs: ResonanceSet,
    bin_width: float = DEFAULT_BIN_WIDTH,
    lo: float = 0.0,
    hi: float = 1.0,
) -> ModulusHistogram:
    """Bin the moduli over [lo, hi] with the top edge inclusive.

    Bins are [edge, next_edge) except the last, which also takes values
    equal to hi; moduli overshooting hi by no more than a roundoff
    tolerance are snapped onto the edge first.  Values outside the range
    are left out of the counts but still enter the normalization.
    """
    nbins = bin_count(bin_width, lo, hi)
    m = rs.moduli
    m = np.where((m > hi) & (m <= hi + EDGE_OVERSHOOT_TOL), hi, m)
    counts, _ = np.histogram(m, bins=np.linspace(lo, hi, nbins + 1))
    density = counts / len(rs) / bin_width
    return ModulusHistogram(
        lo=lo,
        hi=hi,
        bin_width=bin_width,
        counts=counts,
        density=density,
    )


def tail_histogram(
    rs: ResonanceSet, bin_width: float = DEFAULT_BIN_WIDTH, lo: float = TAIL_LO
) -> ModulusHistogram:
    """Histogram of the long-lived tail, moduli above lo."""
    return modulus_histogram(rs, bin_width=bin_width, lo=lo, hi=1.0)


def half_height_width(hist: ModulusHistogram) -> float:
    """Width at half height: bin width times bins at or above half max.

    Counts every qualifying bin, contiguous or not, so the result is an
    exact multiple of the bin width.
    """
    peak = hist.density.max() if hist.density.size else 0.0
    if peak <= 0:
        raise ValueError("histogram has no occupied bins")
    return hist.bin_width * int((hist.density >= peak / 2).sum())


@dataclass(frozen=True)
class WidthPoint:
    dim: int
    q_c: float
    sigma: float


@dataclass(frozen=True)
class WidthFailure:
    dim: int
    q_c: float
    error: str


def width_sweep(
    spectra: Iterable[ResonanceSet],
    bin_width: float = DEFAULT_BIN_WIDTH,
    tail_lo: float = TAIL_LO,
) -> tuple[list[WidthPoint], list[WidthFailure]]:
    """Half-height widths of the given spectra, in their order.

    A spectrum whose tail histogram has no occupied bin is recorded as a
    failure and skipped rather than aborting the rest.
    """
    points: list[WidthPoint] = []
    failures: list[WidthFailure] = []
    for rs in spectra:
        qc = rs.spec.opening.q_c
        try:
            sigma = half_height_width(tail_histogram(rs, bin_width, tail_lo))
        except ValueError as exc:
            failures.append(WidthFailure(dim=rs.dim, q_c=qc, error=str(exc)))
            continue
        points.append(WidthPoint(dim=rs.dim, q_c=qc, sigma=sigma))
    return points, failures


@dataclass(frozen=True, eq=False)
class RescaledHistogram:
    """Tail histogram carried to decay-rate units Gamma / gamma_cl.

    The modulus bins map to variable-width decay bins; each keeps its W
    value, and bins are stored with Gamma ascending.
    """

    lefts: np.ndarray
    rights: np.ndarray
    density: np.ndarray

    @property
    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.lefts + self.rights)


def rescaled_decay_histogram(
    rs: ResonanceSet,
    gamma_cl: float,
    bin_width: float = DEFAULT_BIN_WIDTH,
    tail_lo: float = TAIL_LO,
) -> RescaledHistogram:
    """Map the tail histogram from moduli to rescaled decay rates.

    A modulus bin [a, b) becomes the decay window (-2 ln b, -2 ln a]
    divided by gamma_cl, so comparable openings can be overlaid on one
    axis.
    """
    if not 0 < gamma_cl < math.inf:
        raise ValueError(f"gamma_cl must be finite and positive, got {gamma_cl}")
    hist = tail_histogram(rs, bin_width, tail_lo)
    edges = hist.edges
    with np.errstate(divide="ignore"):
        gamma_edges = -2.0 * np.log(edges) / gamma_cl
    return RescaledHistogram(
        lefts=gamma_edges[1:][::-1],
        rights=gamma_edges[:-1][::-1],
        density=hist.density[::-1],
    )


@dataclass(frozen=True)
class WeylDataPoint:
    dim: int
    count: int


def weyl_count(rs: ResonanceSet, nu_cut: float = DEFAULT_NU_CUT) -> WeylDataPoint:
    """Number of modes with modulus strictly above the cut."""
    if not 0 <= nu_cut < 1:
        raise ValueError(f"nu_cut must lie in [0, 1), got {nu_cut}")
    return WeylDataPoint(dim=rs.dim, count=int((rs.moduli > nu_cut).sum()))


def line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line y = slope x + intercept: (slope, intercept, rms residual).

    Closed form from the centred sums, with no LAPACK call: a least-squares
    solver loads LAPACK code that raises a warm run's peak RSS, and its
    bits follow the BLAS thread count.
    """
    x_mean, y_mean = x.mean(), y.mean()
    dx = x - x_mean
    dy = y - y_mean
    slope = dx @ dy / (dx @ dx)
    resid = dy - slope * dx
    return (
        float(slope),
        float(y_mean - slope * x_mean),
        float(np.sqrt(np.mean(resid**2))),
    )


@dataclass(frozen=True)
class WeylFit:
    """Power-law fit of long-lived counts against dimension."""

    slope: float
    intercept_log10: float
    rms_residual: float


def weyl_fit(points: Iterable[WeylDataPoint]) -> WeylFit:
    """Least squares in log10-log10 of count against dimension.

    Needs points at four or more distinct dimensions spanning a factor of
    four, all with nonzero counts, otherwise the exponent is not
    meaningful.
    """
    pts = tuple(points)
    # a set, not np.unique, whose first call imports numpy.ma: 16 ms and
    # 0.9 MB of peak RSS in a fresh process
    distinct = len({p.dim for p in pts})
    if distinct < 4:
        raise ValueError(f"need at least 4 distinct dimensions, got {distinct}")
    dims = np.array([p.dim for p in pts], dtype=float)
    counts = np.array([p.count for p in pts], dtype=float)
    if dims.max() < 4 * dims.min():
        raise ValueError("points must span at least a factor 4 in dimension")
    if (counts <= 0).any():
        raise ValueError("all counts must be positive for a log-log fit")
    return WeylFit(*line_fit(np.log10(dims), np.log10(counts)))


def synthetic_power_law_points() -> list[WeylDataPoint]:
    """Exact power-law data for self-testing the fit.

    Dimensions are 32^k and counts 3 * 16^k for k = 1 .. 4, so
    count = 3 * dim^(4/5) holds exactly in integers.
    """
    return [WeylDataPoint(dim=2 ** (5 * k), count=3 * 2 ** (4 * k)) for k in range(1, 5)]

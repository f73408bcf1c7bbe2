"""Forward trapped set of the doubling map with a hole, in exact arithmetic.

Escape from the baker map only depends on the q coordinate, which evolves
under q -> 2q mod 1.  The hole edges are rationals, so their doubling
orbits are finite.  Together with the orbits of 0 and 1/2 they cut the
circle into a Markov partition: each cell lies in one branch, doubling
maps it onto a contiguous run of cells, and every cell lies wholly inside
or outside the hole.  The survivor mass of each cell then obeys an integer
recursion, so the survivor areas A(t) come out as exact Fractions in
O(cells) per step, and the escape rate is exact: gamma = ln 2 - ln rho
for the spectral radius rho of the cell transition matrix.

The t-step survivor set S_t itself is a finite union of half-open
intervals whose endpoints are rationals with denominator den0 * 2^t, so
the recursion

    S_0 = complement of the hole,  S_{t+1} = S_0 intersect D^{-1}(S_t)

runs on integer endpoints with no rounding at all.  Its interval count
grows geometrically in t, up to 2^t, so it serves the rasters, and the
tests use it as the definitional reference for the partition's areas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .classical import OpeningSpec, as_fraction, baker_inverse_array

DEFAULT_FIT_RANGE = (5, 25)
DEFAULT_MAX_INTERVALS = 10**8
# Partitions are refused above this many cells, during the orbit walk and
# before anything else is built.  Hole edges with up to four decimals need
# about a thousand cells at most, and exact_escape's dense eigensolve of a
# component stays near 20 s at the cap.
MAX_CELLS = 4096

_LN2 = math.log(2.0)
# rng.random draws doubles k / 2^53; Monte Carlo chunks of 2^16 samples
# (512 KiB of uint64) stay in L2 and were the fastest size measured
_MC_SCALE = 2**53
_MC_CHUNK = 2**16
# int64 headroom: endpoints live in [0, 2*scale] during a doubling step
_MAX_SCALE = 2**62


class ResolutionExhausted(RuntimeError):
    """Raised when an exact computation would outgrow its fixed size limit.

    ``size`` counts the intervals or cells at the limit and ``scale`` is
    their common denominator.
    """

    def __init__(self, message: str, size: int, scale: int):
        self.size = size
        self.scale = scale
        super().__init__(message)


class IntervalUnion:
    """Disjoint sorted union of half-open subintervals of [0, 1).

    Endpoints are integers over a common denominator ``den``, so measures
    and membership tests are exact.
    """

    def __init__(self, starts, ends, den: int, validate: bool = True):
        self.starts = np.asarray(starts, dtype=np.int64)
        self.ends = np.asarray(ends, dtype=np.int64)
        self.den = int(den)
        if validate:
            self._check()

    def _check(self):
        s, e = self.starts, self.ends
        if s.shape != e.shape or s.ndim != 1:
            raise ValueError("starts and ends must be matching 1-d arrays")
        if self.den <= 0:
            raise ValueError("denominator must be positive")
        if s.size:
            if not (s < e).all():
                raise ValueError("empty or inverted interval")
            if not (e[:-1] <= s[1:]).all():
                raise ValueError("intervals must be sorted and disjoint")
            if s[0] < 0 or e[-1] > self.den:
                raise ValueError("intervals must lie inside [0, 1)")

    def __len__(self) -> int:
        return int(self.starts.size)

    @property
    def measure(self) -> Fraction:
        # disjointness inside [0, den] bounds the sum by den, no overflow
        return Fraction(int((self.ends - self.starts).sum()), self.den)

    def as_fractions(self) -> list[tuple[Fraction, Fraction]]:
        den = self.den
        return [
            (Fraction(int(a), den), Fraction(int(b), den))
            for a, b in zip(self.starts, self.ends)
        ]

    def contains(self, q) -> bool:
        """Exact membership of a rational or float position."""
        x = as_fraction(q) % 1
        num, d = x.numerator, x.denominator
        scaled_floor = (num * self.den) // d
        i = int(np.searchsorted(self.starts, scaled_floor, side="right")) - 1
        if i < 0:
            return False
        return num * self.den < int(self.ends[i]) * d

    def contains_points(self, q: np.ndarray) -> np.ndarray:
        """Float membership mask for many positions (raster resolution)."""
        x = (np.asarray(q, dtype=float) % 1.0) * float(self.den)
        idx = np.searchsorted(self.starts, x, side="right") - 1
        found = idx >= 0
        idx = np.maximum(idx, 0)
        return found & (x < self.ends[idx])


def _hole_array(opening: OpeningSpec) -> tuple[np.ndarray, int]:
    """Hole as integer [start, end) rows over the smallest denominator."""
    lo, hi = opening.edges()
    if opening.delta_q == 0:
        return np.zeros((0, 2), dtype=np.int64), 1
    if hi <= 1:
        pieces = [(lo, hi)]
    else:
        pieces = [(Fraction(0), hi - 1), (lo, Fraction(1))]
    den = 1
    for a, b in pieces:
        den = math.lcm(den, a.denominator, b.denominator)
    rows = [(int(a * den), int(b * den)) for a, b in pieces]
    rows = [(a, b) for a, b in rows if a < b]
    return np.array(rows, dtype=np.int64).reshape(-1, 2), den


def _subtract(starts, ends, hole):
    """Remove each hole row from every interval, keeping order."""
    for u, v in hole:
        e1 = np.minimum(ends, u)
        s2 = np.maximum(starts, v)
        cand_s = np.empty(2 * starts.size, dtype=np.int64)
        cand_e = np.empty(2 * starts.size, dtype=np.int64)
        cand_s[0::2] = starts
        cand_e[0::2] = e1
        cand_s[1::2] = s2
        cand_e[1::2] = ends
        keep = cand_s < cand_e
        starts, ends = cand_s[keep], cand_e[keep]
    return starts, ends


def _merge(starts, ends):
    """Fuse intervals that share an endpoint."""
    if starts.size <= 1:
        return starts, ends
    gap = starts[1:] != ends[:-1]
    return starts[np.concatenate(([True], gap))], ends[np.concatenate((gap, [True]))]


def survivor_sets(
    opening: OpeningSpec, max_intervals: int = DEFAULT_MAX_INTERVALS
) -> Iterator[IntervalUnion]:
    """Yield S_0, S_1, S_2, ... until resolution runs out."""
    hole, den = _hole_array(opening)
    starts = np.array([0], dtype=np.int64)
    ends = np.array([den], dtype=np.int64)
    starts, ends = _subtract(starts, ends, hole)
    yield IntervalUnion(starts, ends, den, validate=False)
    scale = den
    t = 0
    while True:
        t += 1
        size = 2 * starts.size
        if scale >= _MAX_SCALE or size > max_intervals:
            raise ResolutionExhausted(
                f"survivor recursion stopped at t={t}: {size} intervals "
                f"at denominator {scale} (limit {max_intervals})",
                size,
                scale,
            )
        # preimage under doubling: two copies at half size, i.e. the same
        # integer intervals reread at twice the denominator plus a shift
        cand_s = np.concatenate((starts, starts + scale))
        cand_e = np.concatenate((ends, ends + scale))
        scale *= 2
        cand_s, cand_e = _subtract(cand_s, cand_e, hole * (scale // den))
        starts, ends = _merge(cand_s, cand_e)
        yield IntervalUnion(starts, ends, scale, validate=False)


def survivor_set(
    opening: OpeningSpec, t: int, max_intervals: int = DEFAULT_MAX_INTERVALS
) -> IntervalUnion:
    """The t-step survivor set as an exact interval union."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    gen = survivor_sets(opening, max_intervals)
    for _ in range(t):
        next(gen)
    return next(gen)


@dataclass(frozen=True)
class SurvivalSeries:
    """Exact survivor areas A_fw(t) for t = 0 .. t_max."""

    opening: OpeningSpec
    areas: tuple[Fraction, ...]

    @property
    def t_max(self) -> int:
        return len(self.areas) - 1

    def as_rows(self) -> list[tuple[int, Fraction]]:
        return list(enumerate(self.areas))

    def log_areas(self) -> np.ndarray:
        """ln A_fw(t); exact rationals keep this safe from underflow."""
        return np.array(
            [math.log(a.numerator) - math.log(a.denominator) for a in self.areas]
        )


class _Partition(NamedTuple):
    """Markov partition of the circle for one hole, cell edges over den.

    Doubling maps cell k onto cells first[k] .. last[k] - 1.  Hole cells
    get an empty run and a zero kept length, which zeroes their rows of
    the transition matrix.
    """

    den: int
    kept: list[int]  # cell lengths in units of 1/den, 0 inside the hole
    first: np.ndarray
    last: np.ndarray


def _markov_partition(opening: OpeningSpec) -> _Partition:
    """Cut the circle at the doubling orbits of 0, 1/2 and both hole edges.

    The cut set maps into itself and holds 0 and 1/2, so each cell lies
    in one branch and its image is a run of cells; it holds the edges, so
    each cell lies wholly inside or outside the hole.
    """
    lo, hi = opening.edges()
    den = math.lcm(2, lo.denominator, hi.denominator)
    half, lo_i, hi_i = den // 2, int(lo * den), int(hi * den)
    points: set[int] = set()
    for x in (0, half, lo_i, hi_i % den):
        while x not in points:
            if len(points) == MAX_CELLS:
                raise ResolutionExhausted(
                    f"Markov partition of the hole edges needs more than "
                    f"{MAX_CELLS} cells at denominator {den}",
                    len(points) + 1,
                    den,
                )
            points.add(x)
            x = 2 * x % den
    cuts = sorted(points)
    index = {x: k for k, x in enumerate(cuts)}
    index[den] = len(cuts)
    cuts.append(den)
    kept, first, last = [], [], []
    for a, b in zip(cuts, cuts[1:]):
        # hi_i may exceed den when the hole wraps through q = 0
        if lo_i <= a < hi_i or a < hi_i - den:
            kept.append(0)
            first.append(0)
            last.append(0)
        else:
            shift = den if a >= half else 0
            kept.append(b - a)
            first.append(index[2 * a - shift])
            last.append(index[2 * b - shift])
    return _Partition(den, kept, np.array(first), np.array(last))


def area_series(opening: OpeningSpec, t_max: int) -> SurvivalSeries:
    """Survivor areas A(0..t_max) from the Markov partition, exactly.

    With m_t(k) the mass of cell k that survives t steps, in units of
    1/(den 2^t), m_0 is the kept length and m_t(k) is the sum of m_{t-1}
    over the cells that doubling maps k onto: one prefix-sum pass per
    step.
    """
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    part = _markov_partition(opening)
    # every mass and prefix sum is at most den * 2^t
    dtype = np.int64 if part.den << t_max < 2**63 else object
    mass = np.array(part.kept, dtype=dtype)
    areas = [Fraction(int(mass.sum()), part.den)]
    for t in range(1, t_max + 1):
        csum = np.concatenate((np.zeros(1, dtype=dtype), np.cumsum(mass)))
        mass = csum[part.last] - csum[part.first]
        areas.append(Fraction(int(mass.sum()), part.den << t))
    return SurvivalSeries(opening=opening, areas=tuple(areas))


def _components(first: list[int], last: list[int]) -> list[list[int]]:
    """Strongly connected components of the graph k -> first[k] .. last[k] - 1.

    Tarjan's algorithm with an explicit stack, so partitions near
    MAX_CELLS stay clear of the recursion limit.
    """
    n = len(first)
    order, low, on_stack = [-1] * n, [0] * n, [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    count = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = count
        count += 1
        stack.append(root)
        on_stack[root] = True
        work = [[root, first[root]]]  # node and its next successor
        while work:
            frame = work[-1]
            v, w = frame
            if w < last[v]:
                frame[1] += 1
                if order[w] < 0:
                    order[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append([w, first[w]])
                elif on_stack[w]:
                    low[v] = min(low[v], order[w])
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == order[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


@dataclass(frozen=True)
class ExactEscape:
    """Escape rate and dimension from the cell transition matrix M.

    A(t) decays like (rho / 2)^t for the spectral radius rho of M, so
    gamma = ln 2 - ln rho and d_info = 1 + ln rho / ln 2, with no fit.
    """

    rho: float
    gamma: float
    d_info: float


def exact_escape(opening: OpeningSpec) -> ExactEscape:
    """Exact escape rate of the opening from its Markov partition.

    rho is the largest spectral radius over the strongly connected
    components of M.  A component in which every cell maps onto exactly
    one cell of it is a cycle, a permutation block with rho = 1 exactly;
    the rest go to a dense eigensolve.
    """
    if opening.delta_q == 0:
        # Lebesgue measure is invariant: M maps the cell lengths to twice
        # themselves, a positive eigenvector, so rho = 2
        return ExactEscape(rho=2.0, gamma=0.0, d_info=2.0)
    part = _markov_partition(opening)
    first, last = part.first, part.last
    rho = 0.0
    for comp in _components(first.tolist(), last.tolist()):
        c = np.array(sorted(comp))
        block = (c >= first[c][:, None]) & (c < last[c][:, None])
        out = block.sum(axis=1)
        if (out == 1).all():
            rho = max(rho, 1.0)
        elif out.any():
            rho = max(rho, float(np.abs(np.linalg.eigvals(block.astype(float))).max()))
    if rho == 0:
        raise ValueError(
            f"no orbit avoids the hole of width {opening.delta_q} forever; "
            "the escape rate is infinite"
        )
    log_rho = math.log(rho)
    return ExactEscape(rho=rho, gamma=_LN2 - log_rho, d_info=1.0 + log_rho / _LN2)


@dataclass(frozen=True)
class EscapeRateFit:
    """Least-squares decay rate of the survivor area."""

    gamma: float
    d_info: float
    fit_range: tuple[int, int]
    residual_rms: float

    @classmethod
    def from_series(
        cls, series: SurvivalSeries, fit_range: tuple[int, int] = DEFAULT_FIT_RANGE
    ) -> "EscapeRateFit":
        t_lo, t_hi = fit_range
        if t_lo < 0 or t_hi <= t_lo:
            raise ValueError(f"bad fit window {fit_range}")
        if t_hi > series.t_max:
            raise ValueError(
                f"series ends at t={series.t_max}, fit window needs t={t_hi}"
            )
        if any(a == 0 for a in series.areas[t_lo : t_hi + 1]):
            raise ValueError("survivor set vanished inside the fit window")
        ts = np.arange(t_lo, t_hi + 1)
        y = -series.log_areas()[t_lo : t_hi + 1]
        slope, intercept = np.polyfit(ts, y, 1)
        resid = y - (slope * ts + intercept)
        return cls(
            gamma=float(slope),
            d_info=2.0 - float(slope) / _LN2,
            fit_range=(t_lo, t_hi),
            residual_rms=float(np.sqrt(np.mean(resid**2))),
        )


def escape_rate(
    series: SurvivalSeries, fit_range: tuple[int, int] = DEFAULT_FIT_RANGE
) -> EscapeRateFit:
    return EscapeRateFit.from_series(series, fit_range)


def monte_carlo_area(
    opening: OpeningSpec, t: int, n_samples: int, seed: int = 0
) -> tuple[float, float]:
    """Survivor-area estimate and its standard error from uniform samples.

    Every uniform double from ``rng.random`` is k / 2^53 for an integer k,
    so the orbits run on those integers: doubling mod 1 is a left shift
    of k mod 2^53, and the hole [lo, hi) is the modular window of the k
    with (k - ceil(lo 2^53)) mod 2^53 < ceil(hi 2^53) - ceil(lo 2^53).  That
    one test is exact for wrapping holes, delta_q = 0 (an empty window)
    and delta_q = 1 (all of them), so the only approximation relative to
    the exact areas is the sample noise.  Samples are drawn in chunks of
    _MC_CHUNK from one stream, so memory stays fixed in n_samples and the
    result does not depend on the chunk size.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    lo, hi = opening.edges()
    low = math.ceil(lo * _MC_SCALE)
    window = np.uint64(math.ceil(hi * _MC_SCALE) - low)
    low, mask = np.uint64(low), np.uint64(_MC_SCALE - 1)
    rng = np.random.default_rng(seed)
    survivors = 0
    for start in range(0, n_samples, _MC_CHUNK):
        m = min(_MC_CHUNK, n_samples - start)
        k = (rng.random(m) * _MC_SCALE).astype(np.uint64)
        for _ in range(t + 1):
            k = k[((k - low) & mask) >= window]
            # the window test reads k mod 2^53 only, and uint64 wraps mod
            # 2^64, a multiple of 2^53, so doubling needs no mask of its own
            k <<= np.uint64(1)
        survivors += k.size
    p = survivors / n_samples
    return p, math.sqrt(p * (1.0 - p) / n_samples)


def qc_sweep(
    delta_q, qc_values: Sequence, t: int = 9
) -> list[tuple[Fraction, Fraction]]:
    """Survivor area at fixed t for each hole center in qc_values."""
    out = []
    for qc in qc_values:
        opening = OpeningSpec(qc, delta_q)
        out.append((opening.q_c, area_series(opening, t).areas[t]))
    return out


def render_trapped_set(
    opening: OpeningSpec,
    t: int,
    resolution: int = 512,
    mode: str = "initial",
) -> np.ndarray:
    """Boolean raster of the t-step survivor set, True where trapped.

    Mode "initial" paints initial conditions that survive t steps, which
    form full vertical strips.  Mode "image" paints the t-step forward
    image of that set via inverse iteration of cell centers, which bends
    the structure into the p direction.  Both carry the same area.
    Row 0 is the top of the square (p near 1).
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    if mode not in ("initial", "image"):
        raise ValueError(f"unknown mode {mode!r}")
    su = survivor_set(opening, t)
    centers = (np.arange(resolution) + 0.5) / resolution
    if mode == "initial":
        img = np.tile(su.contains_points(centers), (resolution, 1))
    else:
        qg, pg = np.meshgrid(centers, centers)
        q, p = qg.ravel(), pg.ravel()
        for _ in range(t):
            q, p = baker_inverse_array(q, p)
        img = su.contains_points(q).reshape(resolution, resolution)
    return img[::-1]

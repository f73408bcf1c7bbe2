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

A q_c sweep shares one refinement instead: with den the lcm of every
opening's OpeningSpec.den on the grid, the den equal cells
[k/den, (k + 1)/den) refine every opening's partition, and cell k doubles
onto cells 2k and 2k + 1 mod den.  When den <= MAX_CELLS and den 2^t <
2^63, all openings advance as one int64 recursion on those cells, a
block of rows at a time; any other grid runs the per-opening partitions.
Either way every opening of the grid is built first, so a bad centre
raises before any area is computed.

Every exact grid here is tested against the hole by one function,
OpeningSpec.survives, which follows k / den through t doublings as
integers mod den: the partition's cells, the common cells of a sweep
and the pixels of the rasters, whose doubling orbits start at each
pixel centre.  The quantum projector runs the same test on the grid
sites, and the Monte Carlo sampler its uint64 form on k / 2^53.  No
verdict is rounded.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .classical import OpeningSpec
from .spectra import _one_blas_thread
from .stats import line_fit

DEFAULT_FIT_RANGE = (5, 25)
# Partitions are refused above this many cells, during the orbit walk.
# Hole edges with four decimals need about a thousand cells.  exact_escape
# solves at one BLAS thread: on two cores, the 612 cells of
# (0.1234, 0.0567) took 0.14-0.16 s against 0.16-0.19 s at two threads,
# and the 2,514 of (0.12345, 0.01111) (largest component 2,396) 10.1 s
# against 7.8-8.0 s; n^3 projects about 50 s for a 4,096-cell component
# (not run).
MAX_CELLS = 4096

_LN2 = math.log(2.0)
# rng.random turns each raw 64-bit word w into k / 2^53 with k = w >> 11;
# the sampler holds k * 2^11, w with its low 11 bits cleared.  Chunks hold
# 2^16 samples (512 KiB of uint64): the benchmark's two calls (t = 25,
# 5e6 samples each) took 0.21 s at chunks of 2^14 and 0.13-0.18 s at
# 2^15 .. 2^18, with no size ahead of the others (one thread, medians of
# 11 in each of two runs); a fresh process running them peaked at 37.2,
# 37.6, 37.2, 38.9 and 42.1 MB of RSS at 2^14 .. 2^18
_MC_SCALE = 2**53
_MC_SHIFT = 11
_MC_CHUNK = 2**16
# Each pass of the sampler settles _MC_STRIDE window tests through a table
# indexed by the top _MC_PREFIX bits of each word (_stride_table).
_MC_STRIDE = 10
_MC_PREFIX = 16
# _stride_table fills its 2^_MC_PREFIX entries this many prefixes at a
# time, so its uint64 and bool temporaries hold 32 KiB, not 512 KiB
_MC_TABLE_SLICE = 2**12
# image rasters are decided this many pixels at a time, and q_c sweeps run
# this many common cells at a time, at least one row either way: the int64
# orbit integers or masses of a block hold 512 KiB up to 2^16 per row
_RASTER_CELLS = 2**16


class ResolutionExhausted(RuntimeError):
    """Raised when a Markov partition would outgrow MAX_CELLS."""


@dataclass(frozen=True)
class SurvivalSeries:
    """Exact survivor areas A_fw(t) for t = 0 .. t_max."""

    opening: OpeningSpec
    areas: tuple[Fraction, ...]

    @property
    def t_max(self) -> int:
        return len(self.areas) - 1

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
    den = opening.den
    half = den // 2
    low, width = opening.window(den)
    points: set[int] = set()
    for x in (0, half, low, (low + width) % den):
        while x not in points:
            if len(points) == MAX_CELLS:
                raise ResolutionExhausted(
                    f"Markov partition of the hole edges needs more than "
                    f"{MAX_CELLS} cells at denominator {den}"
                )
            points.add(x)
            x = 2 * x % den
    cuts = sorted(points)
    index = {x: k for k, x in enumerate(cuts)}
    index[den] = len(cuts)
    # Python ints, so the test stays exact at any den
    outside = opening.survives(np.array(cuts, dtype=object), den)
    cuts.append(den)
    kept, first, last = [], [], []
    for a, b, out in zip(cuts, cuts[1:], outside):
        if not out:
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

    The mirror image q -> 1 - q conjugates the doubling map to itself, so
    an opening and its mirror share rho.  Both are solved as the one with
    q_c <= 1/2, which gives them the same bits, once per process.  The
    dense solve runs at one BLAS thread, so the bits do not depend on the
    core count either.
    """
    if opening.q_c > Fraction(1, 2):
        opening = OpeningSpec(1 - opening.q_c, opening.delta_q)
    return _exact_escape(opening)


@functools.lru_cache(maxsize=256)
def _exact_escape(opening: OpeningSpec) -> ExactEscape:
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
            with _one_blas_thread():
                w = np.linalg.eigvals(block.astype(float))
            rho = max(rho, float(np.abs(w).max()))
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
    residual_rms: float


def escape_rate(
    series: SurvivalSeries, fit_range: tuple[int, int] = DEFAULT_FIT_RANGE
) -> EscapeRateFit:
    """Least-squares slope of -ln A(t) over fit_range, as the paper fits."""
    t_lo, t_hi = fit_range
    if t_lo < 0 or t_hi <= t_lo:
        raise ValueError(f"bad fit window {fit_range}")
    if t_hi > series.t_max:
        raise ValueError(
            f"series ends at t={series.t_max}, fit window needs t={t_hi}"
        )
    if any(a == 0 for a in series.areas[t_lo : t_hi + 1]):
        qc, dq = series.opening.q_c, series.opening.delta_q
        raise ValueError(
            f"survivor set of q_c={float(qc):g} delta_q={float(dq):g} vanished "
            f"inside the fit window {t_lo}:{t_hi}"
        )
    ts = np.arange(t_lo, t_hi + 1, dtype=float)
    slope, _, rms = line_fit(ts, -series.log_areas()[t_lo : t_hi + 1])
    return EscapeRateFit(gamma=slope, d_info=2.0 - slope / _LN2, residual_rms=rms)


def _stride_table(low: int, width: int) -> np.ndarray:
    """What the top _MC_PREFIX bits of a word settle of its next tests.

    The tests are the sampler's: word y passes test j when
    (y 2^j - low) mod 2^64 >= width, for j = 0 .. _MC_STRIDE - 1.  Every
    word with prefix v, shifted j places, lies in one interval of length
    2^(48 + j) that starts at a multiple of that length, so it cannot wrap
    past 2^64; on d = (y 2^j - low) mod 2^64 it becomes an interval that
    may wrap, and a wrapped one is never sure.  A test is surely passed
    when the d-interval lies in [width, 2^64) and surely failed when it
    lies in [0, width), which needs width >= 2^(48 + j).

    Entry v is the number c of leading tests that every word with prefix v
    surely passes, _MC_STRIDE if it passes them all, when test c (if any)
    is surely failed; it is -1 when test c is doubtful, decided by neither.
    The entries are filled _MC_TABLE_SLICE prefixes at a time.
    """
    top = 64 - _MC_PREFIX
    table = np.full(2**_MC_PREFIX, _MC_STRIDE, dtype=np.int8)
    for lo in range(0, table.size, _MC_TABLE_SLICE):
        part = table[lo : lo + _MC_TABLE_SLICE]
        start = np.arange(lo, lo + part.size, dtype=np.uint64) << np.uint64(top)
        sure = np.ones(part.size, dtype=bool)  # passes tests 0 .. j - 1 surely
        for j in range(_MC_STRIDE):
            span = 2 ** (top + j)
            d = start - np.uint64(low)
            passes = (d >= np.uint64(width)) & (d <= np.uint64(2**64 - span))
            first = sure & ~passes
            if width >= span:
                fails = d <= np.uint64(width - span)
                part[first] = np.where(fails[first], j, -1)
            else:
                part[first] = -1
            sure &= passes
            start <<= np.uint64(1)
    return table


def monte_carlo_area(
    opening: OpeningSpec, t: int, n_samples: int, seed: int = 0
) -> tuple[float, float]:
    """Survivor-area estimate and its standard error from uniform samples.

    Every uniform double from ``rng.random`` is k / 2^53 for an integer k,
    the top 53 bits of one raw word of the stream, so the orbits run on
    those integers, read straight from ``bit_generator.random_raw``
    (``rng.integers`` over the full uint64 range returns the same words,
    no faster, and raised the benchmark's peak RSS): held as k 2^11 in
    uint64, doubling mod 1 is a left shift that wraps mod 2^64, and the
    hole is the modular window OpeningSpec.window gives at den = 2^53,
    scaled by 2^11.  The only approximation relative to the exact areas
    is the sample noise.

    The t + 1 window tests go _MC_STRIDE at a time: a table indexed by
    the top _MC_PREFIX bits of each word (_stride_table) settles how many
    of the next tests the word surely passes or at which one it surely
    fails, and only the few words whose prefix leaves a test doubtful run
    the tests one by one.  A chunk stops once no sample is left, and after
    64 doublings every word is 0, which meets the same test at every later
    step, so t past 64 costs no more than t = 64.

    The calling thread draws chunks of _MC_CHUNK words in order from one
    stream and counts each chunk's survivors before it draws the next, so
    memory stays fixed in n_samples and no thread is started.  The count
    is an integer sum, so the result does not depend on the chunk size.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    low, width = opening.window(_MC_SCALE)
    if width == 0:
        # delta_q = 0, or both edges round to one multiple of 2^-53
        return 1.0, 0.0
    if width == _MC_SCALE:
        # every sample starts in the hole, and a window of 2^53 does not fit
        # in 64 bits once scaled
        return 0.0, 0.0
    # low is 2^53, one full turn, when the left edge rounds up to 1
    low = (low % _MC_SCALE) << _MC_SHIFT
    width <<= _MC_SHIFT
    table = _stride_table(low, width)
    low, width = np.uint64(low), np.uint64(width)
    clear = np.uint64(2**64 - 2**_MC_SHIFT)
    top = np.uint64(64 - _MC_PREFIX)
    one = np.uint64(1)
    tests = min(t, 64) + 1

    # a function, so that a chunk's working arrays are freed before the
    # next draw: inlined in the loop, the job's peak RSS read 0.2 MB higher
    def survivors(x: np.ndarray) -> int:
        left = tests
        while left and x.size:
            k = min(_MC_STRIDE, left)
            code = table.take((x >> top).view(np.intp))
            doubt = np.flatnonzero(code < 0)
            if doubt.size:
                y = x[doubt]
                alive = y - low >= width
                for _ in range(k - 1):
                    y <<= one
                    alive &= y - low >= width
                code[doubt] = alive * k
            # compress, not x[mask]: the benchmark's two calls took 0.16 s
            # against 0.21 s (medians of 12)
            x = x.compress(code >= k)
            x <<= np.uint64(k)
            left -= k
        return x.size

    bits = np.random.default_rng(seed).bit_generator
    count = 0
    for start in range(0, n_samples, _MC_CHUNK):
        x = bits.random_raw(min(_MC_CHUNK, n_samples - start))
        x &= clear
        count += survivors(x)
    p = count / n_samples
    return p, math.sqrt(p * (1.0 - p) / n_samples)


def qc_sweep(
    delta_q, qc_values: Sequence, t: int = 9
) -> list[tuple[Fraction, Fraction]]:
    """Survivor area at fixed t for each hole center in qc_values.

    A grid whose edges share a denominator den <= MAX_CELLS, with
    den 2^t < 2^63, runs one recursion over the den common cells (see the
    module docstring); near den = MAX_CELLS that costs about as much as
    the per-opening partitions.  Any other grid runs area_series per
    opening, with its results and its exceptions.  Every opening is built
    first, so a bad centre raises before any area is computed.
    """
    openings = [OpeningSpec(qc, delta_q) for qc in qc_values]
    den = 2
    for opening in openings:
        den = math.lcm(den, opening.den)
        if den > MAX_CELLS:
            break
    if openings and t >= 0 and den <= MAX_CELLS and den << t < 2**63:
        areas = _common_cell_areas(openings, den, t)
        return [(o.q_c, a) for o, a in zip(openings, areas)]
    return [(o.q_c, area_series(o, t).areas[t]) for o in openings]


def _common_cell_areas(
    openings: Sequence[OpeningSpec], den: int, t: int
) -> list[Fraction]:
    """A(t) of each opening whose edges lie on the 1/den grid, den even.

    Cell k lies wholly inside or outside each hole, as OpeningSpec.survives
    decides at k / den, and doubles onto cells 2k and 2k + 1 mod den, so
    the survivor mass of cell k, in units of 1/(den 2^t), is m_t(k) =
    kept(k) (m_{t-1}(2k) + m_{t-1}(2k + 1)), with m_0 = kept.  Cells k and
    k + den/2 read the same pair.  Every mass and row sum is at most
    den 2^t, below 2^63.  Rows go _RASTER_CELLS cells at a time, at least
    one row per block.
    """
    half = den // 2
    cells = np.arange(den, dtype=np.int64)
    rows = max(1, _RASTER_CELLS // den)
    areas = []
    for j in range(0, len(openings), rows):
        kept = np.array([o.survives(cells, den) for o in openings[j : j + rows]])
        mass = kept.astype(np.int64)
        for _ in range(t):
            pairs = mass[:, 0::2] + mass[:, 1::2]
            mass[:, :half] = pairs
            mass[:, half:] = pairs
            mass *= kept
        areas.extend(Fraction(int(m), den << t) for m in mass.sum(axis=1))
    return areas


def render_trapped_set(
    opening: OpeningSpec,
    t: int,
    resolution: int = 512,
    mode: str = "initial",
) -> np.ndarray:
    """Boolean raster of the t-step survivor set, True where trapped.

    Mode "initial" paints initial conditions that survive t steps, which
    form full vertical strips.  Mode "image" paints the t-step forward
    image of that set: a pixel is trapped when its t-th preimage survives
    t steps, which bends the structure into the p direction.  Both carry
    the same area.  Row 0 is the top of the square (p near 1).

    Pixel centres are (2i + 1) / (2 resolution).  A backward step halves
    q and adds half of p's leading binary digit, so t of them send q to
    (q + B) / 2^t, with B the first t digits of p in reverse order.  Each
    pixel is then one integer over 2 resolution 2^t (below 2^33 at the
    CLI caps), whose t + 1 hole tests and doublings are exact
    (OpeningSpec.survives).  Image rows are decided _RASTER_CELLS pixels
    at a time, so beside the raster itself the working memory does not
    grow with the resolution.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    if mode not in ("initial", "image"):
        raise ValueError(f"unknown mode {mode!r}")
    den = 2 * resolution
    centres = np.arange(1, den, 2, dtype=np.int64)
    if mode == "initial":
        strip = opening.survives(centres, den, t)
        return np.tile(strip, (resolution, 1))[::-1]
    if den << t > 2**62:  # doubling k < den must stay inside int64
        raise ValueError(f"image raster at resolution {resolution} and t={t} "
                         "needs orbits past int64")
    p, digits = centres.copy(), np.zeros(resolution, dtype=np.int64)
    for s in range(t):
        p *= 2
        bit = p >= den
        p[bit] -= den
        digits[bit] += 1 << s
    trapped = np.empty((resolution, resolution), dtype=bool)
    rows = max(1, _RASTER_CELLS // resolution)
    for j in range(0, resolution, rows):
        # row j holds the pixels whose p centre is centres[j]
        k = centres + den * digits[j : j + rows, None]
        trapped[j : j + rows] = opening.survives(k, den << t, t)
    return trapped[::-1]


"""Exact survivor sets, areas, fits and the sampling cross-check."""

import functools
import math
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from openbaker import csvio, spectra, trapped
from openbaker.classical import OpeningSpec
from openbaker.trapped import (
    MAX_CELLS,
    ResolutionExhausted,
    area_series,
    escape_rate,
    exact_escape,
    monte_carlo_area,
    qc_sweep,
    render_trapped_set,
)
from oracles import (
    IntervalUnion,
    PhasePoint,
    baker_inverse,
    dyadic_rho,
    monte_carlo_area_float,
    survival_time,
    survivor_set,
    survivor_sets,
)

# openings drawn from short decimals keep denominators small and exact
decimals = st.integers(0, 999).map(lambda k: Fraction(k, 1000))
widths = st.integers(20, 400).map(lambda k: Fraction(k, 1000))


def test_first_steps_central_opening():
    s = area_series(OpeningSpec(0.5, 0.1), 1)
    assert s.areas[0] == Fraction(9, 10)
    assert s.areas[1] == Fraction(4, 5)


def test_first_steps_wrapping_opening():
    s = area_series(OpeningSpec(0.0, 0.1), 1)
    assert s.areas[0] == Fraction(9, 10)
    assert s.areas[1] == Fraction(17, 20)


def test_area_at_t9_central():
    s = area_series(OpeningSpec(0.5, 0.1), 9)
    assert s.areas[9] == Fraction(291, 1280)


def test_survivor_set_structure():
    su = survivor_set(OpeningSpec(0.5, 0.1), 0)
    assert su.as_fractions() == [
        (Fraction(0), Fraction(9, 20)),
        (Fraction(11, 20), Fraction(1)),
    ]
    assert su.measure == Fraction(9, 10)
    assert len(su) == 2


def _contained_in(inner: IntervalUnion, outer: IntervalUnion) -> bool:
    """Exact containment check for denominators that divide each other."""
    ratio = inner.den // outer.den
    assert outer.den * ratio == inner.den
    os, oe = outer.starts * ratio, outer.ends * ratio
    idx = np.searchsorted(os, inner.starts, side="right") - 1
    if (idx < 0).any():
        return False
    return bool((inner.ends <= oe[idx]).all())


def test_survivors_are_nested():
    gen = survivor_sets(OpeningSpec(0.3, 0.1))
    prev = next(gen)
    for _ in range(10):
        cur = next(gen)
        assert _contained_in(cur, prev)
        assert cur.measure <= prev.measure
        prev = cur


@settings(max_examples=30)
@given(decimals, widths, st.integers(0, 10))
def test_area_bounds(qc, dq, t):
    s = area_series(OpeningSpec(qc, dq), t)
    area = s.areas[t]
    assert area >= 1 - (t + 1) * dq
    assert 0 <= area <= 1
    assert all(b <= a for a, b in zip(s.areas, s.areas[1:]))


@settings(max_examples=30)
@given(decimals, widths, st.integers(0, 9))
def test_sweep_symmetry(qc, dq, t):
    """Mirroring the opening center across 1/2 leaves the area alone."""
    mirror = (1 - qc) % 1
    a = area_series(OpeningSpec(qc, dq), t).areas[t]
    b = area_series(OpeningSpec(mirror, dq), t).areas[t]
    assert a == b


def test_closed_system_keeps_full_area():
    s = area_series(OpeningSpec(0.3, 0), 8)
    assert all(a == 1 for a in s.areas)
    fit = escape_rate(s, (2, 8))
    assert abs(fit.gamma) < 1e-12
    assert abs(fit.d_info - 2) < 1e-12


def test_everything_absorbed():
    s = area_series(OpeningSpec(0.5, 1), 3)
    assert all(a == 0 for a in s.areas)
    with pytest.raises(ValueError, match="vanished"):
        escape_rate(s, (0, 3))


def test_escape_rate_window_validation():
    s = area_series(OpeningSpec(0.5, 0.1), 10)
    with pytest.raises(ValueError, match="fit window"):
        escape_rate(s, (5, 25))
    with pytest.raises(ValueError):
        escape_rate(s, (5, 5))
    with pytest.raises(ValueError):
        escape_rate(s, (-1, 5))


def test_escape_rate_values():
    fit3 = escape_rate(area_series(OpeningSpec(0.3, 0.1), 25))
    assert abs(fit3.gamma - 0.09074) < 5e-5
    assert abs(fit3.d_info - 1.86909) < 1e-4
    assert fit3.residual_rms < 1e-3
    fit5 = escape_rate(area_series(OpeningSpec(0.5, 0.1), 25))
    assert abs(fit5.gamma - 0.16491) < 5e-5


@pytest.mark.parametrize("fit_range", [(5, 25), (0, 1), (2, 17)])
@pytest.mark.parametrize("qc", ["0.3", "0.5"])
def test_escape_rate_matches_polyfit(qc, fit_range):
    # criterion 01's openings, against a least-squares line from np.polyfit
    series = area_series(OpeningSpec(qc, "0.1"), 25)
    fit = escape_rate(series, fit_range)
    t_lo, t_hi = fit_range
    ts = np.arange(t_lo, t_hi + 1)
    y = -series.log_areas()[t_lo : t_hi + 1]
    slope, intercept = np.polyfit(ts, y, 1)
    rms = np.sqrt(np.mean((y - (slope * ts + intercept)) ** 2))
    assert fit.gamma == pytest.approx(slope, abs=1e-12)
    assert fit.d_info == pytest.approx(2 - slope / math.log(2), abs=1e-12)
    assert fit.residual_rms == pytest.approx(rms, abs=1e-12)


@pytest.mark.parametrize("fit_range", [(5, 25), (0, 1), (2, 17)])
@pytest.mark.parametrize("qc", ["0.3", "0.5"])
def test_escape_rate_keeps_its_closed_form_bits(qc, fit_range):
    # criteria 01 and 02's openings, against the fit's own earlier expressions
    series = area_series(OpeningSpec(qc, "0.1"), 25)
    fit = escape_rate(series, fit_range)
    t_lo, t_hi = fit_range
    dt = np.arange(t_lo, t_hi + 1) - (t_lo + t_hi) / 2
    y = -series.log_areas()[t_lo : t_hi + 1]
    dy = y - y.mean()
    slope = dt @ dy / (dt @ dt)
    resid = dy - slope * dt
    assert fit.gamma == float(slope)
    assert fit.d_info == 2.0 - float(slope) / math.log(2)
    assert fit.residual_rms == float(np.sqrt(np.mean(resid**2)))


def _recursion_areas(opening, t_max):
    return [su.measure for _, su in zip(range(t_max + 1), survivor_sets(opening))]


@settings(max_examples=30, deadline=None)
@given(decimals, widths, st.integers(0, 20))
def test_partition_areas_match_interval_recursion(qc, dq, t):
    o = OpeningSpec(qc, dq)
    assert list(area_series(o, t).areas) == _recursion_areas(o, t)


@pytest.mark.parametrize("qc", [0.5, 0.3])
def test_partition_areas_match_interval_recursion_at_t25(qc):
    o = OpeningSpec(qc, 0.1)
    assert list(area_series(o, 25).areas) == _recursion_areas(o, 25)


def test_partition_areas_past_int64():
    # den * 2^200 is far past int64, so this run keeps Python ints
    # throughout; its head must match the int64 run, and its late areas
    # decay at the exact rate
    o = OpeningSpec(0.3, 0.1)
    long = area_series(o, 200).areas
    assert long[:26] == area_series(o, 25).areas
    late = math.log(long[199] / long[200])
    assert abs(late - exact_escape(o).gamma) < 1e-9


def test_partition_cell_cap():
    # the edge 1/2 - 1/(2 * 5^9) has a doubling orbit of 1.5 million points
    o = OpeningSpec(0.5, Fraction(1, 5**9))
    with pytest.raises(
        ResolutionExhausted, match=f"more than {MAX_CELLS} cells at denominator {2 * 5**9}$"
    ):
        area_series(o, 9)
    with pytest.raises(ResolutionExhausted):
        exact_escape(o)


@pytest.mark.parametrize(
    "qc, dq, dim",
    [(0.3, 0.1, 0.8691), (0.5, 0.1, 0.7618), (0.3, 0.05, 0.9311),
     (0.5, 0.05, 0.9059), (0.3, 0.2, 0.5515)],
)
def test_exact_dimensions(qc, dq, dim):
    assert abs(exact_escape(OpeningSpec(qc, dq)).d_info - 1 - dim) < 1e-4


def test_exact_escape_special_values():
    assert abs(exact_escape(OpeningSpec(0.5, 0.1)).gamma - 0.16510) < 5e-6
    # S_t has 2 + 2t intervals: a cycle component, rho = 1 with no rounding
    cycle = exact_escape(OpeningSpec(0.5, 0.2))
    assert cycle.rho == 1 and cycle.d_info - 1 == 0
    for dq in (0, "0", 0.0):
        closed = exact_escape(OpeningSpec(0.3, dq))
        assert closed.rho == 2 and closed.gamma == 0
    with pytest.raises(ValueError, match="no orbit avoids the hole"):
        exact_escape(OpeningSpec(0.5, 1))


@pytest.mark.parametrize("k", range(1, 9))
def test_exact_escape_matches_the_word_avoidance_oracle(k):
    # the hole [a/2^k, (a+1)/2^k) is the cylinder of a's k binary digits, so
    # an orbit survives while its digits avoid that word; among the words
    # are 0 (rho = 1) and 01, whose repeated root (1 - z)^2 gives rho = 1
    for a in range(2**k):
        opening = OpeningSpec(Fraction(2 * a + 1, 2 ** (k + 1)), Fraction(1, 2**k))
        expected = dyadic_rho(format(a, f"0{k}b"))
        assert exact_escape(opening).rho == pytest.approx(expected, rel=1e-12, abs=0), a


@pytest.mark.parametrize(
    "qc, dq",
    [("0.1234", "0.0567"), ("0.02", "0.1"), ("0.97", "0.1"), ("0.3", "0.1"), ("0.5", "0.2")],
)
def test_mirror_openings_share_their_exact_escape(qc, dq):
    # (0.02, 0.1) and the mirror of (0.97, 0.1) wrap through q = 0
    o = OpeningSpec(qc, dq)
    mirror = OpeningSpec(1 - o.q_c, dq)
    first = exact_escape(o)
    hits = trapped._exact_escape.cache_info().hits
    assert exact_escape(mirror) == first
    assert trapped._exact_escape.cache_info().hits == hits + 1


def test_exact_escape_keeps_the_bits_of_openings_left_of_one_half():
    # the value of the dense solve at one BLAS thread
    assert exact_escape(OpeningSpec("0.1234", "0.0567")).rho == 1.8836255269196251
    assert exact_escape(OpeningSpec("0.8766", "0.0567")).rho == 1.8836255269196251


def test_exact_escape_bits_do_not_depend_on_the_blas_threads():
    # at two threads this 612-cell partition's rho was 7 ulp off the one-thread value
    blas = spectra._openblas()
    if blas is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    before = blas.get_threads()
    rhos = []
    try:
        for threads in (2, 1):
            blas.set_threads(threads)
            trapped._exact_escape.cache_clear()
            rhos.append(exact_escape(OpeningSpec("0.1234", "0.0567")).rho)
            assert blas.get_threads() == threads
    finally:
        blas.set_threads(before)
        trapped._exact_escape.cache_clear()
    assert rhos[0] == rhos[1]


def test_monte_carlo_matches_exact():
    o = OpeningSpec(0.5, 0.1)
    exact = float(area_series(o, 3).areas[3])
    est, se = monte_carlo_area(o, 3, 10**5, seed=11)
    assert se > 0
    assert abs(est - exact) <= 4 * se
    again, _ = monte_carlo_area(o, 3, 10**5, seed=11)
    assert again == est
    other, _ = monte_carlo_area(o, 3, 10**5, seed=12)
    assert other != est


def test_monte_carlo_validation():
    with pytest.raises(ValueError):
        monte_carlo_area(OpeningSpec(0.5, 0.1), -1, 10)
    with pytest.raises(ValueError):
        monte_carlo_area(OpeningSpec(0.5, 0.1), 1, 0)


@given(decimals, st.integers(0, 1000).map(lambda k: Fraction(k, 1000)), st.integers(0, 13))
@example(Fraction(0), Fraction(1, 10), 5)  # hole wraps through q = 0
@example(Fraction(99, 100), Fraction(3, 10), 4)
def test_monte_carlo_integer_orbits_match_float_orbits(qc, dq, t):
    o = OpeningSpec(qc, dq)
    assert monte_carlo_area(o, t, 5003, seed=3) == monte_carlo_area_float(o, t, 5003, seed=3)


def test_monte_carlo_extreme_and_dyadic_holes():
    assert monte_carlo_area(OpeningSpec(0.3, 0), 7, 1000) == (1.0, 0.0)
    assert monte_carlo_area(OpeningSpec(0.3, 1), 0, 1000) == (0.0, 0.0)
    assert monte_carlo_area(OpeningSpec(0, 1), 3, 1000) == (0.0, 0.0)
    # edges 1/4 and 3/4 are doubles and multiples of 2^-53, no rounding at all
    o = OpeningSpec(0.5, 0.5)
    assert monte_carlo_area(o, 3, 10**4, seed=5) == monte_carlo_area_float(o, 3, 10**4, seed=5)


def test_monte_carlo_chunk_size_invariance(monkeypatch):
    o = OpeningSpec(0.31, 0.1)
    whole = monte_carlo_area(o, 6, 100_003, seed=9)
    assert whole == monte_carlo_area_float(o, 6, 100_003, seed=9)
    monkeypatch.setattr(trapped, "_MC_CHUNK", 2**10)
    assert monte_carlo_area(o, 6, 100_003, seed=9) == whole


def test_monte_carlo_starts_no_thread(monkeypatch):
    def refuse(self):
        raise RuntimeError("the sampler started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    o = OpeningSpec(0.31, 0.1)
    assert monte_carlo_area(o, 25, 2 * 10**5) == monte_carlo_area_float(o, 25, 2 * 10**5)


@pytest.mark.parametrize("seed", [0, 9, 20260825])
def test_random_doubles_are_the_top_53_bits_of_the_raw_stream(seed):
    # the sampler reads random_raw and relies on rng.random's w >> 11;
    # full-range uint64 integers are the same words
    m = 10_001
    doubles = np.random.default_rng(seed).random(m)
    raw = np.random.default_rng(seed).bit_generator.random_raw(m)
    rng = np.random.default_rng(seed)
    words = np.concatenate([rng.integers(0, 2**64, size=k, dtype=np.uint64)
                            for k in (1, 5000, m - 5001)])
    assert words.dtype == np.uint64 and (words == raw).all()
    assert ((doubles * 2**53).astype(np.uint64) == raw >> np.uint64(11)).all()


def test_monte_carlo_memory_stays_within_the_chunks_in_flight():
    # one chunk is drawn at a time, with a few working copies beside it;
    # drawing all 2e6 samples up front would hold 16 MB
    chunk_bytes = 8 * trapped._MC_CHUNK
    tracemalloc.start()
    try:
        monte_carlo_area(OpeningSpec(0.31, 0.1), 25, 2 * 10**6, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12 * chunk_bytes


def test_monte_carlo_joins_its_threads_also_when_a_chunk_raises(monkeypatch):
    before = set(threading.enumerate())
    monte_carlo_area(OpeningSpec(0.5, 0.1), 3, 10**5, seed=2)
    assert set(threading.enumerate()) == before

    class Poisoned(np.ndarray):
        def __getitem__(self, key):
            raise RuntimeError("bad chunk")

    default_rng = np.random.default_rng

    class Stream:
        def __init__(self, seed):
            self.bits = default_rng(seed).bit_generator
            self.drawn = 0

        def random_raw(self, m):
            self.drawn += 1
            x = self.bits.random_raw(m)
            return x.view(Poisoned) if self.drawn == 3 else x

    class Rng:
        def __init__(self, seed):
            self.bit_generator = Stream(seed)

    monkeypatch.setattr(trapped, "_MC_CHUNK", 2**10)
    monkeypatch.setattr(np.random, "default_rng", Rng)
    with pytest.raises(RuntimeError, match="bad chunk"):
        monte_carlo_area(OpeningSpec(0.5, 0.1), 3, 10**5, seed=2)
    assert set(threading.enumerate()) == before


def test_monte_carlo_edges_next_to_one():
    # both edges round up to 2^53, one full turn: an empty window at low = 0
    o = OpeningSpec("0.99999999999999999999", "0.00000000000000000001")
    assert o.window(2**53) == (2**53, 0)
    assert monte_carlo_area(o, 4, 1000) == monte_carlo_area_float(o, 4, 1000) == (1.0, 0.0)


@pytest.mark.parametrize("qc, dq", [
    ("0.31", "0.1"),
    ("0.02", "0.1"),  # wraps through q = 0
    # the left edge rounds up to 1: low = 2^53, and the window holds k = 0
    ("0.999999999999999999", "0.000000000000000004"),
    ("0.3", "0"),
    ("0.3", "1"),
])
def test_the_sampler_decides_each_word_as_survives_does(monkeypatch, qc, dq):
    # one raw word per call, fed through a stand-in default_rng, so each
    # verdict is the sampler's on that word alone
    o = OpeningSpec(qc, dq)
    low, width = o.window(2**53)
    rng = np.random.default_rng(17)
    ks = [int(k) for k in rng.integers(0, 2**53, 64)]
    # words whose j-th doubling lands on or next to an edge, the ones
    # the stride table leaves doubtful
    for j in (0, 1, 9, 10, 11, 24, 25, 52):
        for edge in (low, low + width):
            for near in (-1, 0, 1):
                ks.append(((edge + near) % 2**53) >> j | int(rng.integers(0, 2**j)) << (53 - j))
    words = [k << 11 | int(rng.integers(0, 2**11)) for k in ks]

    class Rng:
        def __init__(self, seed):
            self.bit_generator = self
            self.word = words[seed]

        def random_raw(self, m):
            return np.array([self.word], dtype=np.uint64)

    monkeypatch.setattr(np.random, "default_rng", Rng)
    # one table per hole, not per call
    monkeypatch.setattr(trapped, "_stride_table", functools.cache(trapped._stride_table))
    for t in (0, 1, 10, 25, 70):
        decided = [monte_carlo_area(o, t, 1, seed=i)[0] == 1.0 for i in range(len(words))]
        alive = o.survives(np.array([w >> 11 for w in words], dtype=np.int64), 2**53, t)
        assert decided == alive.tolist(), t


# window edges on or next to a multiple of 2^48 .. 2^58, where the prefix
# intervals of the stride table start and end
aligned = st.builds(
    lambda k, e, off: (k * 2**e + off) % 2**64,
    st.integers(0, 2**16), st.integers(48, 58), st.sampled_from([-1, 0, 1]),
)
window_lows = st.one_of(st.integers(0, 2**64 - 1), aligned)
window_widths = st.one_of(
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**48),  # below every prefix interval
    st.integers(2**64 - 2**58, 2**64 - 1),  # near the whole circle
    aligned.filter(lambda w: w < 2**64 - 1),
)


def _assert_stride_table_sound(low, width, tails):
    """Every sure claim of the table holds for words under each prefix.

    The words are the first and last one under each prefix, plus the
    prefix with each of ``tails`` as its low 48 bits.
    """
    stride = trapped._MC_STRIDE
    table = trapped._stride_table(low, width)
    assert table.shape == (2**16,) and table.dtype == np.int8
    assert ((table >= -1) & (table <= stride)).all()
    prefix = np.arange(2**16, dtype=np.uint64) << np.uint64(48)
    ends = (np.uint64(0), np.uint64(2**48 - 1))
    words = np.concatenate([prefix + tail for tail in (*ends, *tails)])
    code = np.tile(table, len(ends) + len(tails)).astype(np.int64)
    passes = np.array([
        (words << np.uint64(j)) - np.uint64(low) >= np.uint64(width)
        for j in range(stride)
    ])
    steps = np.arange(stride)[:, None]
    sure = code >= 0
    # c >= 0: tests 0 .. c - 1 all pass, and test c fails unless c = stride
    assert passes[:, sure][steps < code[sure]].all()
    fails = sure & (code < stride)
    assert not passes[code[fails], np.flatnonzero(fails)].any()


@settings(max_examples=60, deadline=None)
@given(window_lows, window_widths, st.integers(0, 2**32 - 1))
@example(2**64 - 2**50, 2**51, 0)  # wraps through 0
@example(3 * 2**48, 2**57, 1)  # edges on prefix boundaries
def test_stride_table_claims_agree_with_the_per_step_test(low, width, seed):
    tails = np.random.default_rng(seed).integers(0, 2**48, 2**16, dtype=np.uint64)
    _assert_stride_table_sound(low, width, [tails])


@pytest.mark.parametrize("low", [3 * 2**48, 2**57, 2**64 - 2**50])
@pytest.mark.parametrize("width", [2**48, 5 * 2**52, 2**64 - 2**57])
def test_stride_table_claims_hold_next_to_prefix_boundaries(low, width):
    # off-by-one slips at an interval edge show only for edges on or next
    # to a multiple of 2^48
    for dl in (-1, 0, 1):
        for dw in (-1, 0, 1):
            _assert_stride_table_sound((low + dl) % 2**64, width + dw, [])


@pytest.mark.parametrize(
    "low, width",
    [
        (2**64 - 2**50, 2**51),  # wraps through 0
        (3 * 2**48 + 1, 2**47 + 3),  # below every prefix interval
        (0.31, 0.1),
        (0.02, 0.1),  # wraps through 0
    ],
)
@pytest.mark.parametrize("size", [1000, 2**12 + 1, 2**15, 2**17])
def test_stride_table_does_not_depend_on_the_slice(monkeypatch, low, width, size):
    if isinstance(low, float):
        low, width = OpeningSpec(low, width).window(2**53)
        low, width = (low % 2**53) << 11, width << 11
    monkeypatch.setattr(trapped, "_MC_TABLE_SLICE", 2**16)  # one slice
    whole = trapped._stride_table(low, width)
    monkeypatch.setattr(trapped, "_MC_TABLE_SLICE", size)
    assert np.array_equal(trapped._stride_table(low, width), whole)


@pytest.mark.parametrize("qc, dq", [(0.31, 0.1), (0.31, 0.05), (0.02, 0.1)])
def test_stride_table_leaves_few_prefixes_doubtful(qc, dq):
    low, width = OpeningSpec(qc, dq).window(2**53)
    table = trapped._stride_table((low % 2**53) << 11, width << 11)
    assert (table == -1).mean() < 0.02


@pytest.mark.parametrize("qc, dq", [(0.02, 0.1), (0.31, 0.1)])  # (0.02, 0.1) wraps
def test_monte_carlo_strides_match_float_orbits(qc, dq):
    o = OpeningSpec(qc, dq)
    s = trapped._MC_STRIDE
    for t in (s - 1, s, s + 1, 2 * s, 2 * s + 5, 25):
        assert monte_carlo_area(o, t, 20_011, seed=t) == monte_carlo_area_float(
            o, t, 20_011, seed=t
        )


@pytest.mark.parametrize("stride", [1, 7, 16])
def test_monte_carlo_does_not_depend_on_the_stride(monkeypatch, stride):
    o = OpeningSpec(0.31, 0.1)
    monkeypatch.setattr(trapped, "_MC_STRIDE", stride)
    assert monte_carlo_area(o, 25, 20_011, seed=4) == monte_carlo_area_float(o, 25, 20_011, seed=4)


def test_monte_carlo_benchmark_shape_golden_values():
    # (p, se) of the sampler that tested one doubling per pass
    assert monte_carlo_area(OpeningSpec("0.31", "0.1"), 25, 5 * 10**6, seed=7) == (
        0.086993, 0.0001260358821534566)
    assert monte_carlo_area(OpeningSpec("0.31", "0.05"), 25, 5 * 10**6, seed=7) == (
        0.3490968, 0.00021317984155625974)


def test_monte_carlo_long_orbits_stop_early():
    # an empty chunk stops stepping, and delta_q = 0 returns at once
    start = time.perf_counter()
    assert monte_carlo_area(OpeningSpec(0.3, 0), 10**6, 1000) == (1.0, 0.0)
    assert monte_carlo_area(OpeningSpec(0.5, 0.5), 10**6, 1000) == (0.0, 0.0)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("t", [52, 53, 64, 65, 200])
@pytest.mark.parametrize("qc", [0.9, 0.02])
def test_monte_carlo_orbits_past_64_doublings(qc, t):
    # 53 doublings take every k / 2^53 to 0 for good: the hole of
    # (0.9, 0.1) leaves 0 outside, the one of (0.02, 0.1) takes it in
    o = OpeningSpec(qc, 0.1)
    p, se = monte_carlo_area(o, t, 10**4, seed=6)
    assert (p, se) == monte_carlo_area_float(o, t, 10**4, seed=6)
    assert (p > 0) == (qc == 0.9 or t == 52)


def test_qc_sweep_grid():
    grid = [Fraction(k, 20) for k in range(0, 11)]
    rows = qc_sweep(Fraction(1, 10), grid, 9)
    assert [q for q, _ in rows] == grid
    assert rows[10][1] == Fraction(291, 1280)
    assert all(0 <= a <= 1 for _, a in rows)


def _per_opening_sweep(delta_q, grid, t):
    """The sweep as one area_series per opening, exceptions included.

    Every opening is built before the first area, so a bad centre raises
    ahead of any area_series error.
    """
    try:
        openings = [OpeningSpec(qc, delta_q) for qc in grid]
        return [(o.q_c, area_series(o, t).areas[t]) for o in openings]
    except (ValueError, ResolutionExhausted) as e:
        return type(e), str(e)


def _sweep(monkeypatch, delta_q, grid, t):
    """qc_sweep's rows (or exception), and whether the common cells ran."""
    ran = []
    common = trapped._common_cell_areas

    def spy(openings, den, t):
        ran.append(den)
        return common(openings, den, t)

    monkeypatch.setattr(trapped, "_common_cell_areas", spy)
    try:
        rows = qc_sweep(delta_q, grid, t)
    except (ValueError, ResolutionExhausted) as e:
        rows = type(e), str(e)
    return rows, bool(ran)


DEFAULT_GRID = [Fraction(k, 200) for k in range(101)]  # 0:0.5:0.005
WRAPPING_GRID = [Fraction(0), Fraction(1, 100), Fraction(99, 100)]


@pytest.mark.parametrize("t", [0, 1, 9, 40])
@pytest.mark.parametrize(
    "dq, grid",
    [("0.05", DEFAULT_GRID), ("0.1", DEFAULT_GRID), ("0.2", DEFAULT_GRID),
     ("0.1", WRAPPING_GRID), ("0.3", WRAPPING_GRID), (0, DEFAULT_GRID), (1, DEFAULT_GRID),
     # den = 4096 exactly, the largest common grid
     (Fraction(1, 2048), [Fraction(k, 4096) for k in range(0, 4096, 97)])],
)
def test_qc_sweep_common_cells_match_area_series(monkeypatch, dq, grid, t):
    rows, common = _sweep(monkeypatch, dq, grid, t)
    assert common
    assert rows == _per_opening_sweep(dq, grid, t)


@pytest.mark.parametrize(
    "dq, grid, t, common",
    [
        # den = 4098, 2 * 4999 and 2 * 4097 pass MAX_CELLS
        (Fraction(1, 2049), [Fraction(1, 2)], 9, False),
        ("0.1", [Fraction(k, 4999) for k in range(0, 4999, 250)], 9, False),
        ("0.1", [Fraction(1, 2), Fraction(1, 4097)], 1, False),
        # den = 200: 200 * 2^55 < 2^63 <= 200 * 2^56
        ("0.1", DEFAULT_GRID, 55, True),
        ("0.1", DEFAULT_GRID, 56, False),
        ("0.05", WRAPPING_GRID, 61, False),
    ],
)
def test_qc_sweep_paths_at_their_limits_match_area_series(monkeypatch, dq, grid, t, common):
    rows, ran_common = _sweep(monkeypatch, dq, grid, t)
    assert ran_common == common
    assert rows == _per_opening_sweep(dq, grid, t)


@settings(max_examples=30, deadline=None)
@given(st.lists(decimals, min_size=1, max_size=8), widths, st.integers(0, 30))
def test_qc_sweep_on_decimal_grids_matches_area_series(grid, dq, t):
    # edges with three decimals lie on a common grid of den <= 2000
    assert qc_sweep(dq, grid, t) == _per_opening_sweep(dq, grid, t)


@pytest.mark.parametrize(
    "dq, grid, t",
    [
        ("0.1", [], 9),
        ("0.1", [], -1),
        ("0.1", DEFAULT_GRID, -1),
        ("0.1", [Fraction(1, 4), Fraction(3, 2)], 9),
        ("1.5", DEFAULT_GRID, 9),
        (Fraction(1, 5**9), [Fraction(1, 2)], 9),
        # a bad q_c raises before the cell cap of an earlier centre, in either order
        (Fraction(1, 5**9), [Fraction(1, 2), Fraction(3, 2)], 9),
        (Fraction(1, 5**9), [Fraction(3, 2), Fraction(1, 2)], 9),
        # and before a negative t
        ("0.1", [Fraction(1, 4), Fraction(3, 2)], -1),
    ],
)
def test_qc_sweep_exceptions_match_area_series(monkeypatch, dq, grid, t):
    rows, common = _sweep(monkeypatch, dq, grid, t)
    assert not common
    assert rows == _per_opening_sweep(dq, grid, t)
    if grid:
        assert isinstance(rows, tuple)  # (exception type, message)
    else:
        assert rows == []
    if any(not 0 <= qc < 1 for qc in grid):
        assert rows == (ValueError, "q_c must lie in [0, 1), got 3/2")


@pytest.mark.parametrize("cells", [1, 200, 3 * 200, 10**6])
def test_qc_sweep_row_blocks_match_area_series(monkeypatch, cells):
    # a budget below one row still runs a whole row per block
    monkeypatch.setattr(trapped, "_RASTER_CELLS", cells)
    assert qc_sweep("0.1", DEFAULT_GRID, 9) == _per_opening_sweep("0.1", DEFAULT_GRID, 9)


def test_qc_sweep_memory_stays_within_one_block_of_cells():
    # beside the rows it returns, the sweep holds its openings (about 100
    # bytes each) and one block of _RASTER_CELLS cells with a few int64
    # copies; the masses of all 20,000 x 200 cells at once would hold 32 MB
    grid = [Fraction(k, 200) for k in range(200)] * 100
    block_bytes = 8 * trapped._RASTER_CELLS
    tracemalloc.start()
    try:
        rows = qc_sweep(Fraction(1, 10), grid, 9)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 20_000 and rows[100][1] == Fraction(291, 1280)
    assert peak - held <= 8 * block_bytes


def test_render_modes():
    o = OpeningSpec(0.5, 0.1)
    t, res = 4, 128
    img = render_trapped_set(o, t, resolution=res, mode="initial")
    assert img.shape == (res, res) and img.dtype == bool
    assert (img == img[0]).all()
    # initial strips match an independent per-orbit survival check exactly
    centers = (np.arange(res) + 0.5) / res
    orbit = np.array(
        [survival_time(PhasePoint(c, 0.5), o, t + 1) is None for c in centers]
    )
    assert (img[0] == orbit).all()
    # pixel-center quadrature error is bounded by the interval boundaries
    target = float(area_series(o, t).areas[t])
    n_pieces = len(survivor_set(o, t).as_fractions())
    assert abs(img.mean() - target) <= 2 * n_pieces / res
    pic = render_trapped_set(o, t, resolution=res, mode="image")
    perimeter = 2 ** (t + 1) * target + 2 * n_pieces
    assert abs(pic.mean() - target) <= perimeter / res
    # forward image mixes p, so columns are no longer constant
    assert not (pic == pic[0]).all()
    with pytest.raises(ValueError, match="t must be nonnegative"):
        render_trapped_set(o, -1)
    with pytest.raises(ValueError):
        render_trapped_set(o, t, resolution=0)
    with pytest.raises(ValueError):
        render_trapped_set(o, t, mode="sideways")


@pytest.mark.parametrize(
    "mode, res, qc, dq, t",
    [
        # a raster of float-rounded centres misjudges a column in each of
        # the first five; exact centres get every pixel right
        ("initial", 100, "0.31", "0.1", 4),
        ("initial", 100, "0.99", "0.3", 4),
        ("initial", 600, "0.31", "0.1", 13),
        ("initial", 1000, "0.31", "0.1", 13),
        ("image", 25, "0.99", "0.1", 5),
        ("image", 12, "0", "0.1", 5),  # hole wraps through q = 0
        ("image", 4, "0.5", "0.2", 59),  # den 2^62, the int64 limit
    ],
)
def test_raster_pixels_match_fraction_orbits(mode, res, qc, dq, t):
    _assert_raster_matches_fraction_orbits(mode, res, qc, dq, t)


def _assert_raster_matches_fraction_orbits(mode, res, qc, dq, t):
    o = OpeningSpec(qc, dq)
    img = render_trapped_set(o, t, resolution=res, mode=mode)
    rows = range(res) if mode == "image" else [res - 1]  # initial rows repeat
    for row in rows:
        p = Fraction(2 * row + 1, 2 * res)
        for col in range(res):
            x = PhasePoint(Fraction(2 * col + 1, 2 * res), p)
            if mode == "image":
                for _ in range(t):
                    x = baker_inverse(x)
            expected = survival_time(x, o, t + 1) is None
            assert img[res - 1 - row, col] == expected, (row, col)
    if mode == "initial":
        assert (img == img[0]).all()


@pytest.mark.parametrize("rows", [1, 7])  # 7 divides neither 25 nor 32
@pytest.mark.parametrize(
    "res, qc, dq, t",
    [
        (25, "0.99", "0.1", 5),
        (25, "0", "0.1", 5),  # hole wraps through q = 0
        (32, "0.5", "0.2", 56),  # den 2^62, the int64 limit
    ],
)
def test_image_raster_row_blocks_match_fraction_orbits(monkeypatch, rows, res, qc, dq, t):
    # a budget below one row still decides a whole row per block
    monkeypatch.setattr(trapped, "_RASTER_CELLS", 1 if rows == 1 else rows * res)
    _assert_raster_matches_fraction_orbits("image", res, qc, dq, t)


def test_raster_memory_does_not_grow_with_the_resolution(tmp_path):
    # beside the bool raster, each block holds a few int64 arrays of
    # _RASTER_CELLS entries, and the PGM one uint8 copy of the raster;
    # resolution^2 int64 orbits would hold 32 MiB each at the cap
    res = 2048
    tracemalloc.start()
    try:
        img = render_trapped_set(OpeningSpec(0.3, 0.1), 20, resolution=res, mode="image")
        _, render_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        held, _ = tracemalloc.get_traced_memory()
        csvio.write_pgm(tmp_path / "cap.pgm", img)
        _, pgm_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert render_peak <= 2 * res**2
    assert pgm_peak - held <= 2 * res**2
    assert (tmp_path / "cap.pgm").stat().st_size == len(f"P5\n{res} {res}\n255\n") + res**2


def test_image_raster_refuses_orbits_past_int64():
    with pytest.raises(ValueError, match="past int64"):
        render_trapped_set(OpeningSpec(0.5, 0.1), 60, resolution=4, mode="image")

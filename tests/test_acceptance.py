"""Acceptance gate: one numbered check per test, run in file order.

Every test appends a one-line verdict to the shared summary before
asserting, so the terminal report always shows all ten lines with the
measured values, including for red criteria.  Checks on a reference
value itself (is the fit it comes from sound?) are plain asserts that run
before the measurement.
"""

import time
from fractions import Fraction
from functools import lru_cache
from statistics import median

import numpy as np
from scipy.optimize import linear_sum_assignment

import conftest
from openbaker import cli
from openbaker.classical import OpeningSpec
from openbaker.propagator import PropagatorSpec, baker_propagator, open_propagator, open_trace
from openbaker.spectra import eigenvalues, resonance_set, resonance_sets
from openbaker.stats import (
    half_height_width,
    rescaled_decay_histogram,
    tail_histogram,
    weyl_count,
    weyl_fit,
)
from openbaker.trapped import (
    area_series,
    escape_rate,
    monte_carlo_area,
    qc_sweep,
)
from oracles import brute_force_spectrum_oracle, peak_location, survivor_sets

WEYL_DIMS = (128, 180, 256, 362, 512, 724, 1024)


def record(num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    conftest.ACCEPTANCE_LINES.append(f"criterion {num:02d}: {verdict}  {detail}")
    assert ok, f"criterion {num:02d} FAIL: {detail}"


@lru_cache(maxsize=None)
def classical_fit(qc: str, dq: str):
    return escape_rate(area_series(OpeningSpec(qc, dq), 25))


def spectra(keys) -> dict:
    """{(dim, qc, dq): ResonanceSet} for the keys, solved in one resonance_sets call.

    At jobs=2 two blocks of the largest size share the cores, where jobs=1
    admits one such block at a time; the bits do not depend on jobs.
    """
    keys = list(keys)
    specs = [PropagatorSpec(dim, OpeningSpec(qc, dq)) for dim, qc, dq in keys]
    solved = {rs.spec: rs for rs in resonance_sets(specs, jobs=2)}
    return {key: solved[spec] for key, spec in zip(keys, specs)}


def multiset_distance(a, b) -> float:
    cost = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def test_criterion_01_classical_escape_rates():
    t0 = time.monotonic()
    fits = {qc: classical_fit(qc, "0.1") for qc in ("0.3", "0.5")}
    elapsed = time.monotonic() - t0
    dev3 = fits["0.3"].gamma - 0.09073
    dev5 = fits["0.5"].gamma - 0.16488
    ok = abs(dev3) <= 0.002 and abs(dev5) <= 0.002 and elapsed < 60.0
    record(
        1,
        ok,
        f"gamma(0.3)={fits['0.3'].gamma:.5f} ({dev3:+.5f}), "
        f"gamma(0.5)={fits['0.5'].gamma:.5f} ({dev5:+.5f}), {elapsed:.1f}s",
    )


def test_criterion_02_information_dimensions():
    d3 = classical_fit("0.3", "0.1").d_info
    d5 = classical_fit("0.5", "0.1").d_info
    ok = abs(d3 - 1.86910) <= 0.005 and abs(d5 - 1.76213) <= 0.005
    record(
        2,
        ok,
        f"d_I(0.3)={d3:.5f} vs 1.86910, d_I(0.5)={d5:.5f} vs 1.76213",
    )


def _window_extrema(areas, k_lo: int, k_hi: int, kind: str) -> list[int]:
    """Plateau-aware local extrema among indices [k_lo, k_hi]."""
    n = len(areas)
    hits = []
    for k in range(k_lo, k_hi + 1):
        left = k - 1
        while left >= 0 and areas[left] == areas[k]:
            left -= 1
        right = k + 1
        while right < n and areas[right] == areas[k]:
            right += 1
        if left < 0 or right >= n:
            continue
        if kind == "min" and areas[left] > areas[k] < areas[right]:
            hits.append(k)
        elif kind == "max" and areas[left] < areas[k] > areas[right]:
            hits.append(k)
    return hits


def _recount_sweep(den: int, width: int, t: int) -> list[Fraction]:
    """Survivor areas A(t) for the holes centered at q_c = k/den, by brute force.

    Shares no code with the interval recursion.  The hole of width
    width/den centered at k/den covers the grid cells k - width/2 ..
    k + width/2 - 1 (mod den).  Split [0, 1) into M = den * 2^t cells;
    for s <= t the s-th doubling image of such a cell lies inside one
    1/den cell, so the cell's midpoint (2i+1)/2M decides its fate
    exactly.  Midpoints double as integers mod 2M; a point survives a
    hole when none of its iterates s = 0..t lands on a hole cell.
    """
    m = den * 2**t
    n = np.arange(1, 2 * m, 2, dtype=np.int64)
    visited = np.zeros((m, den), dtype=bool)
    for _ in range(t + 1):
        visited[np.arange(m), n // 2 ** (t + 1)] = True
        n = 2 * n % (2 * m)
    # hits on the circular window [a, a + width) from prefix sums over
    # two copies of the cell row; a row holds at most 2(t + 1) visits
    prefix = np.zeros((m, 2 * den + 1), dtype=np.uint8)
    np.cumsum(np.hstack((visited, visited)), axis=1, out=prefix[:, 1:])
    starts = (np.arange(den) - width // 2) % den
    hits = prefix[:, starts + width] - prefix[:, starts]
    return [Fraction(int(c), m) for c in (hits == 0).sum(axis=0)]


# Exact extremum positions of the t = 9 sweep, as grid indices k with
# q_c = k/200, checked against the brute-force recount above: the global
# maxima sit at q_c = dq/2 and its mirror (the hole [0, dq), closed edge
# on the fixed point q = 0), not at q_c = 0.
SWEEP_ARGMAX = {"0.05": {5, 195}, "0.1": {10, 190}, "0.2": {20, 180}}
SWEEP_ARGMIN = {"0.05": {20, 180}, "0.1": {42, 158}, "0.2": {100}}


def test_criterion_03_sweep_shape():
    grid = [Fraction(k, 200) for k in range(200)]
    problems = []
    for dq in ("0.05", "0.1", "0.2"):
        areas = [a for _, a in qc_sweep(Fraction(dq), grid, 9)]
        label = f"dq={dq}"
        recount = _recount_sweep(200, int(Fraction(dq) * 200), 9)
        mismatched = [k / 200 for k in range(200) if areas[k] != recount[k]]
        if mismatched:
            problems.append(f"{label}: sweep != recount at q_c={mismatched[:5]}")
        if not all(areas[k] == areas[(200 - k) % 200] for k in range(200)):
            problems.append(f"{label}: asymmetric")
        for name, target, expected in (
            ("max", max(areas), SWEEP_ARGMAX[dq]),
            ("min", min(areas), SWEEP_ARGMIN[dq]),
        ):
            at = {k for k in range(200) if areas[k] == target}
            if at != expected:
                problems.append(
                    f"{label}: {name} at q_c={sorted(k / 200 for k in at)} "
                    f"not {sorted(k / 200 for k in expected)}"
                )
        if dq == "0.2":
            # strict fall from the maximum at 0.1 to a local minimum at 0.30
            if not all(areas[k] > areas[k + 1] for k in range(20, 60)):
                problems.append(f"{label}: no strict fall over [0.1,0.3]")
            if not areas[60] < areas[61]:
                problems.append(f"{label}: no local min at 0.3")
        elif not _window_extrema(areas, 44, 56, "min"):
            problems.append(f"{label}: no local min in [0.22,0.28]")
        if not _window_extrema(areas, 56, 66, "max"):
            problems.append(f"{label}: no local max in [0.28,0.33]")
    record(
        3,
        not problems,
        "; ".join(problems)
        or "qc_sweep == brute-force recount at 600 points; max at dq/2, "
        "min at 0.1/0.21/0.5, window extrema hold",
    )


def test_criterion_04_monte_carlo_oracle():
    rng = np.random.default_rng(20260825)
    worst = 0.0
    fails = []
    for i in range(20):
        qc = round(float(rng.uniform(0, 1)), 4)
        dq = round(float(rng.uniform(0.02, 0.3)), 4)
        t = int(rng.integers(1, 13))
        seed = int(rng.integers(2**32))
        opening = OpeningSpec(qc, dq)
        exact = float(area_series(opening, t).areas[t])
        est, se = monte_carlo_area(opening, t, 10**7, seed=seed)
        dev = abs(est - exact) / se if se > 0 else 0.0
        worst = max(worst, dev)
        if abs(est - exact) > 3 * se:
            fails.append(f"(q_c={qc}, dq={dq}, t={t}): {dev:.2f} SE")
    record(
        4,
        not fails,
        f"20 configs, 1e7 samples, worst {worst:.2f} SE"
        + ("; " + "; ".join(fails) if fails else ""),
    )


def test_criterion_05_closed_map_unitarity():
    worst_mod = 0.0
    worst_unit = 0.0
    for dim in (64, 256, 602):
        b = baker_propagator(dim)
        worst_mod = max(worst_mod, np.abs(np.abs(eigenvalues(b)) - 1.0).max())
        gram = b @ b.conj().T - np.eye(dim)
        worst_unit = max(worst_unit, np.abs(gram).max())
    ok = worst_mod < 1e-8 and worst_unit < 1e-11
    record(
        5,
        ok,
        f"max |nu-1|={worst_mod:.2e} (<1e-8), max |BB*-I|={worst_unit:.2e} (<1e-11)",
    )


def test_criterion_06_solver_validity():
    worst = 0.0
    for dim in (2, 4, 6, 8):
        for qc in ("0", "0.1", "0.25", "0.3", "0.5"):
            for dq in ("0.1", "0.25", "0.5"):
                spec = PropagatorSpec(dim, OpeningSpec(qc, dq))
                main = resonance_set(spec).values
                oracle = brute_force_spectrum_oracle(open_propagator(spec))
                worst = max(worst, multiset_distance(main, oracle))
    gaps = {}
    for dim in (602, 2048):
        spec = PropagatorSpec(dim, OpeningSpec("0.5", "0.1"))
        gaps[dim] = abs(complex(resonance_set(spec).values.sum()) - open_trace(spec))
    ok = worst < 1e-9 and all(gap < 1e-8 * dim for dim, gap in gaps.items())
    record(
        6,
        ok,
        f"oracle multiset distance {worst:.2e} over 60 cases (<1e-9); "
        f"trace gap N=602 {gaps[602]:.2e}, N=2048 {gaps[2048]:.2e}",
    )


def _weyl_reference(qc: str, dq: str, ref) -> tuple[float, str]:
    """Reference slope d_I - 1 for one opening and where it comes from.

    A fitted reference is only taken from an escape-rate fit whose ln A
    is already linear over the fit window.
    """
    if ref == "exact 0":
        # The survivor set keeps exactly 2 + 2t intervals, so the trapped
        # set is countable and its dimension is 0.
        opening = OpeningSpec(qc, dq)
        for t, su in zip(range(41), survivor_sets(opening)):
            assert len(su) == 2 + 2 * t, f"({qc},{dq}): {len(su)} intervals at t={t}"
        return 0.0, ref
    if ref == "fit":
        fit = classical_fit(qc, dq)
        assert fit.residual_rms <= 2e-3, (
            f"({qc},{dq}): escape fit not exponential, rms {fit.residual_rms:.1e}"
        )
        return fit.d_info - 1, f"fit rms {fit.residual_rms:.1e}"
    return ref, "fixed"


def test_criterion_07_fractal_weyl_law():
    cases = [
        ("0.3", "0.1", 0.869),
        ("0.5", "0.1", 0.762),
        ("0.3", "0.05", "fit"),
        ("0.5", "0.05", "fit"),
        ("0.3", "0.2", "fit"),
        ("0.5", "0.2", "exact 0"),
    ]
    references = {(qc, dq): _weyl_reference(qc, dq, ref) for qc, dq, ref in cases}
    solved = spectra((dim, qc, dq) for qc, dq, _ in cases for dim in WEYL_DIMS)
    details = []
    ok = True
    for qc, dq, _ in cases:
        points = [weyl_count(solved[dim, qc, dq]) for dim in WEYL_DIMS]
        fit = weyl_fit(points)
        reference, source = references[qc, dq]
        dev = fit.slope - reference
        sub_ok = abs(dev) <= 0.06
        ok = ok and sub_ok
        details.append(
            f"({qc},{dq}) slope {fit.slope:.3f} vs {reference:.3f} "
            f"({source}) [{dev:+.3f}]"
        )
    record(7, ok, "; ".join(details))


def _sigma(rs) -> float:
    return half_height_width(tail_histogram(rs))


def test_criterion_08_width_contrast():
    # 20 even dims in [500, 1200]; step 36 avoids the anomalies 602, 1782
    dims = list(range(500, 1200, 36))
    neighborhoods = {602: True, 1782: False}  # center: whether it should exceed
    solved = spectra(
        [(dim, qc, "0.1") for qc in ("0.3", "0.5") for dim in dims]
        + [(dim, "0.5", "0.1") for center in neighborhoods
           for dim in range(center - 4, center + 5, 2)]
    )
    med3 = median([_sigma(solved[dim, "0.3", "0.1"]) for dim in dims])
    med5 = median([_sigma(solved[dim, "0.5", "0.1"]) for dim in dims])
    ratio = med5 / med3
    ok_ratio = 1.1 <= ratio <= 2.0
    parts = [f"median ratio {ratio:.2f} in [1.1,2.0]: {ok_ratio}"]
    ok = ok_ratio
    for center, should_exceed in neighborhoods.items():
        sigmas = {
            dim: _sigma(solved[dim, "0.5", "0.1"])
            for dim in range(center - 4, center + 5, 2)
        }
        local = median(sigmas.values())
        own = sigmas[center]
        sub_ok = own > local if should_exceed else own < local
        ok = ok and sub_ok
        rel = "above" if should_exceed else "below"
        values = ",".join(f"{sigma:.2f}" for sigma in sigmas.values())
        parts.append(
            f"sigma({center})={own:.2f} {rel} neighborhood median {local:.2f} "
            f"(N={center - 4}..{center + 4}: {values}): {sub_ok}"
        )
    record(8, ok, "; ".join(parts))


def test_criterion_09_rescaling_collapse():
    gamma_cl = classical_fit("0.3", "0.1").gamma
    solved = spectra((dim, "0.3", "0.1") for dim in (602, 1024))
    peaks = {dim: peak_location(rescaled_decay_histogram(rs, gamma_cl))
             for (dim, _, _), rs in solved.items()}
    ok = all(0.6 <= peak <= 1.5 for peak in peaks.values())
    record(
        9,
        ok,
        f"peak(602)={peaks[602]:.3f}, peak(1024)={peaks[1024]:.3f}, window [0.6,1.5]",
    )


def test_criterion_10_determinism(tmp_path, monkeypatch):
    commands = [
        ["classical", "--dq", "0.1", "--grid", "0:0.5:0.005", "--t", "9",
         "--series-qc", "0.3", "--tmax", "12", "--fit-range", "5:10",
         "--raster-qc", "0.5", "--raster-t", "3", "--resolution", "64"],
        ["spectrum", "--n", "32,48", "--qc", "0.3", "--dq", "0.1"],
        ["stats", "cumulative", "--n", "64", "--qc", "0.3", "--dq", "0.1"],
        ["stats", "histogram", "--n", "64", "--qc", "0.5", "--dq", "0.1"],
        ["stats", "width", "--nmin", "16", "--nmax", "32", "--step", "4",
         "--qc", "0.5", "--dq", "0.1"],
        ["stats", "rescaled", "--n", "64", "--qc", "0.3", "--dq", "0.1"],
        ["weyl", "--inject", "power-law"],
    ]
    trees = {}
    for run in ("a", "b"):
        base = tmp_path / run
        base.mkdir()
        monkeypatch.chdir(base)
        for argv in commands:
            assert cli.main(argv + ["--out", "out", "--cache", "cache"]) == 0
        trees[run] = {
            p.relative_to(base / "out").as_posix(): p.read_bytes()
            for p in sorted((base / "out").rglob("*"))
            if p.is_file()
        }
    mismatched = sorted(
        set(trees["a"]) ^ set(trees["b"])
    ) + [k for k in trees["a"] if k in trees["b"] and trees["a"][k] != trees["b"][k]]
    record(
        10,
        not mismatched,
        f"{len(trees['a'])} files byte-compared across independent reruns"
        + (f"; mismatches: {mismatched}" if mismatched else ""),
    )

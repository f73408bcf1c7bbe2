"""Histogram, width, rescaling and counting statistics."""

import numpy as np
import pytest

from openbaker.classical import OpeningSpec
from openbaker.propagator import PropagatorSpec
from openbaker.spectra import ResonanceSet, resonance_set, sort_spectrum
from openbaker.stats import (
    MAX_BINS,
    ModulusHistogram,
    WeylDataPoint,
    bin_count,
    cumulative_moduli,
    half_height_width,
    modulus_histogram,
    rescaled_decay_histogram,
    synthetic_power_law_points,
    tail_histogram,
    weyl_count,
    weyl_fit,
    width_sweep,
)
from oracles import peak_location


def fake_set(moduli, dim=None) -> ResonanceSet:
    """Resonance set with prescribed moduli on the positive real axis."""
    values = sort_spectrum(np.asarray(moduli, dtype=complex))
    dim = dim if dim is not None else (len(values) if len(values) % 2 == 0 else len(values) + 1)
    spec = PropagatorSpec(dim, OpeningSpec(0.5, 0.1))
    return ResonanceSet(spec=spec, values=values)


def test_cumulative_steps():
    rs = fake_set([1.0, 0.8, 0.5, 0.0])
    nu, n = cumulative_moduli(rs)
    assert nu.tolist() == [0.0, 0.5, 0.8, 1.0]
    assert n.tolist() == [0.25, 0.5, 0.75, 1.0]


def test_histogram_full_range_integrates_to_one():
    rs = fake_set([0.0, 0.005, 0.5, 1.0])
    h = modulus_histogram(rs)
    assert h.counts.sum() == 4
    assert abs(h.density.sum() * h.bin_width - 1.0) < 1e-12
    # top edge inclusive, zero modes in the first bin
    assert h.counts[0] == 2
    assert h.counts[-1] == 1


def test_histogram_snaps_roundoff_overshoot():
    rs = fake_set([1.0 + 5e-9, 0.5])
    h = modulus_histogram(rs)
    assert h.counts.sum() == 2
    rs_far = fake_set([1.1, 0.5])
    assert modulus_histogram(rs_far).counts.sum() == 1


def test_histogram_restricted_range():
    rs = fake_set([0.95, 0.75, 0.5, 0.1])
    h = modulus_histogram(rs, lo=0.7, hi=1.0)
    assert h.counts.sum() == 2
    # normalization still uses every mode
    assert abs(h.density.sum() * h.bin_width - 0.5) < 1e-12
    assert h.left_edges[0] == 0.7 and len(h.counts) == 30


def test_histogram_validation():
    rs = fake_set([0.5, 0.6])
    with pytest.raises(ValueError, match="tile"):
        modulus_histogram(rs, bin_width=0.013)
    with pytest.raises(ValueError):
        modulus_histogram(rs, lo=0.9, hi=0.2)
    with pytest.raises(ValueError):
        modulus_histogram(rs, bin_width=0.0)
    with pytest.raises(ValueError, match="positive, got nan"):
        modulus_histogram(rs, bin_width=float("nan"))
    with pytest.raises(ValueError, match=f"more than {MAX_BINS} bins"):
        modulus_histogram(rs, bin_width=1e-9)
    assert modulus_histogram(rs, bin_width=1 / MAX_BINS).counts.size == MAX_BINS


@pytest.mark.parametrize(
    "lo, hi, message",
    [
        (float("nan"), 1.0, "lower modulus bound must be finite, got nan"),
        (float("inf"), 1.0, "lower modulus bound must be finite, got inf"),
        (float("-inf"), 1.0, "lower modulus bound must be finite, got -inf"),
        (0.0, float("nan"), "upper modulus bound must be finite, got nan"),
        (0.0, float("inf"), "upper modulus bound must be finite, got inf"),
    ],
)
def test_bin_count_names_a_bound_that_is_not_finite(lo, hi, message):
    with pytest.raises(ValueError) as err:
        bin_count(0.01, lo, hi)
    assert str(err.value) == message


def test_half_height_counts_qualifying_bins():
    h = ModulusHistogram(
        lo=0.0,
        hi=0.5,
        bin_width=0.1,
        counts=np.array([1, 2, 4, 3, 1]),
        density=np.array([1.0, 2.0, 4.0, 3.0, 1.9]),
    )
    assert abs(half_height_width(h) - 0.3) < 1e-12
    empty = ModulusHistogram(
        lo=0.0, hi=0.2, bin_width=0.1,
        counts=np.zeros(2, dtype=int), density=np.zeros(2),
    )
    with pytest.raises(ValueError, match="occupied"):
        half_height_width(empty)


def test_width_is_multiple_of_bin():
    rs = resonance_set(PropagatorSpec(64, OpeningSpec(0.5, 0.1)))
    sigma = half_height_width(tail_histogram(rs))
    assert abs(sigma / 0.01 - round(sigma / 0.01)) < 1e-9
    assert 0.01 <= sigma <= 0.3


def test_width_sweep_records_failures():
    # the middle spectrum has no modulus above tail_lo
    sets = [fake_set([0.95, 0.93, 0.2, 0.0], dim=20), fake_set([0.5, 0.3], dim=16),
            fake_set([0.75, 0.72], dim=18)]
    points, failures = width_sweep(sets, 0.1, 0.7)
    assert [(p.dim, p.sigma) for p in points] == [(20, 0.1), (18, 0.1)]
    assert len(failures) == 1 and failures[0].dim == 16
    assert "occupied" in failures[0].error
    assert all(p.q_c == 0.5 for p in points) and failures[0].q_c == 0.5


def test_rescaled_histogram_geometry():
    rs = fake_set([0.95, 0.85, 0.75, 0.0])
    rh = rescaled_decay_histogram(rs, gamma_cl=0.5, bin_width=0.1)
    assert rh.lefts[0] == 0.0
    assert (rh.lefts < rh.rights).all()
    assert (np.diff(rh.lefts) > 0).all()
    # modulus bin [0.9, 1.0) holds one mode and maps to the first row
    assert rh.density[0] == pytest.approx(1 / 4 / 0.1)
    expect_right = -2 * np.log(0.9) / 0.5
    assert rh.rights[0] == pytest.approx(expect_right)
    with pytest.raises(ValueError):
        rescaled_decay_histogram(rs, gamma_cl=0.0)


@pytest.mark.parametrize("gamma_cl", [float("nan"), float("inf")])
def test_rescaled_histogram_rejects_non_finite_rate(gamma_cl):
    rs = fake_set([0.95, 0.85, 0.75, 0.0])
    with pytest.raises(ValueError, match="finite and positive"):
        rescaled_decay_histogram(rs, gamma_cl=gamma_cl)


def test_rescaled_peak_puts_ties_toward_long_lived():
    rs = fake_set([0.95, 0.85, 0.0, 0.0])
    rh = rescaled_decay_histogram(rs, gamma_cl=1.0, bin_width=0.1)
    # two bins tie at the maximum; the reported peak is the smaller rate
    peaks = rh.density == rh.density.max()
    assert peaks.sum() == 2
    assert peak_location(rh) == pytest.approx(rh.midpoints[peaks][0])
    assert peak_location(rh) == min(rh.midpoints[peaks])


def test_weyl_count_strict_cut():
    rs = fake_set([0.5, 0.3, 0.0, 0.9])
    assert weyl_count(rs).count == 2
    assert weyl_count(rs, nu_cut=0.0).count == 3
    with pytest.raises(ValueError):
        weyl_count(rs, nu_cut=1.0)


def test_weyl_fit_validation():
    close = synthetic_power_law_points()
    with pytest.raises(ValueError, match="at least 4"):
        weyl_fit(close[:3])
    crowded = [type(p)(dim=100 + i, count=10) for i, p in enumerate(close)]
    with pytest.raises(ValueError, match="factor 4"):
        weyl_fit(crowded)
    zeroed = [type(p)(dim=p.dim, count=0) for p in close]
    with pytest.raises(ValueError, match="positive"):
        weyl_fit(zeroed)



def test_weyl_fit_counts_distinct_dimensions():
    # four points at two dimensions: a line through two log-log points
    pts = synthetic_power_law_points()
    with pytest.raises(ValueError, match="at least 4 distinct dimensions, got 2"):
        weyl_fit([pts[0]] * 3 + [pts[3]])

def test_weyl_fit_exact_power_law():
    fit = weyl_fit(synthetic_power_law_points())
    assert abs(fit.slope - 0.8) < 1e-12
    assert fit.rms_residual < 1e-12
    assert abs(10**fit.intercept_log10 - 3.0) < 1e-10


# criterion 07's counts above nu_cut = 0.3 at its openings and dimensions
WEYL_DIMS = (128, 180, 256, 362, 512, 724, 1024)
CRITERION_07_COUNTS = {
    ("0.3", "0.1"): (93, 129, 173, 237, 316, 432, 573),
    ("0.5", "0.1"): (78, 93, 123, 157, 195, 252, 313),
    ("0.3", "0.05"): (112, 154, 215, 294, 399, 541, 747),
    ("0.5", "0.05"): (109, 140, 192, 257, 339, 465, 621),
    ("0.3", "0.2"): (47, 55, 66, 82, 95, 110, 128),
    ("0.5", "0.2"): (30, 32, 37, 38, 45, 47, 51),
}


def _polyfit_oracle(dims, counts):
    x, y = np.log10(dims), np.log10(counts)
    slope, intercept = np.polyfit(x, y, 1)
    return slope, intercept, np.sqrt(np.mean((y - (slope * x + intercept)) ** 2))


def _random_points(seed):
    rng = np.random.default_rng(seed)
    dims = rng.integers(2, 5000, size=rng.integers(4, 30))
    dims[:2] = 2, 4 * 5000  # span a factor of four
    counts = rng.integers(1, 10**6, size=dims.size)
    return [WeylDataPoint(dim=int(d), count=int(c)) for d, c in zip(dims, counts)]


@pytest.mark.parametrize(
    "points",
    [[WeylDataPoint(dim, count) for dim, count in zip(WEYL_DIMS, counts)]
     for counts in CRITERION_07_COUNTS.values()]
    + [_random_points(seed) for seed in range(20)],
)
def test_weyl_fit_matches_polyfit(points):
    fit = weyl_fit(points)
    slope, intercept, rms = _polyfit_oracle([p.dim for p in points],
                                            [p.count for p in points])
    assert fit.slope == pytest.approx(slope, abs=1e-12)
    assert fit.intercept_log10 == pytest.approx(intercept, abs=1e-12)
    assert fit.rms_residual == pytest.approx(rms, abs=1e-12)


"""Eigensolver wrapper, canonical ordering, and the slow oracle."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from openbaker import spectra
from openbaker.classical import OpeningSpec
from openbaker.propagator import PropagatorSpec, baker_propagator, open_propagator
from openbaker.spectra import eigenvalues, resonance_set, sort_spectrum
from oracles import brute_force_spectrum_oracle, removed_count


def multiset_distance(a, b) -> float:
    """Largest pairing distance under the optimal matching."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    d = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(d)
    return float(d[rows, cols].max())


def test_eigenvalues_validation(monkeypatch):
    with pytest.raises(ValueError, match="square"):
        eigenvalues(np.zeros((2, 3)))
    monkeypatch.setattr(spectra, "MAX_EIGEN_DIM", 8)
    with pytest.raises(ValueError, match="dimension 10 exceeds the solver cap 8"):
        eigenvalues(np.eye(10))
    bad = np.eye(3)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        eigenvalues(bad)


def test_eigenvalues_identity():
    w = eigenvalues(np.eye(5))
    assert np.allclose(np.sort(w.real), 1.0) and np.allclose(w.imag, 0.0)


def test_sort_canonical_order():
    w = sort_spectrum(np.array([0.5 + 0j, 1.0 + 0j, -1j]))
    assert np.allclose(w, np.array([-1j, 1.0, 0.5]))
    # stable under permutation of the input
    v = sort_spectrum(np.array([1.0 + 0j, -1j, 0.5 + 0j]))
    assert (w == v).all()


def test_resonance_set_basics():
    spec = PropagatorSpec(64, OpeningSpec(0.5, 0.1))
    rs = resonance_set(spec)
    assert len(rs) == 64
    assert rs.dim == 64
    mods = rs.moduli
    assert (np.diff(mods) <= 0).all()
    assert mods[0] <= 1 + 1e-8
    # absorbed modes: as many numerical zeros as removed sites
    m = removed_count(spec)
    assert (mods < 1e-8).sum() >= m


def test_resonance_set_values_frozen():
    rs = resonance_set(PropagatorSpec(16, OpeningSpec(0.3, 0.1)))
    with pytest.raises(ValueError):
        rs.values[0] = 0


def test_oracle_two_site_closed_map():
    w = brute_force_spectrum_oracle(baker_propagator(2))
    assert multiset_distance(w, np.array([1.0 + 0j, -1j])) < 1e-12


def test_oracle_matches_main_solver_once():
    b = open_propagator(PropagatorSpec(6, OpeningSpec(0.3, 0.25)))
    assert multiset_distance(eigenvalues(b), brute_force_spectrum_oracle(b)) < 1e-12


def test_oracle_deflates_absorbed_modes():
    spec = PropagatorSpec(8, OpeningSpec(0.5, 0.25))
    w = brute_force_spectrum_oracle(open_propagator(spec))
    assert (np.abs(w) == 0).sum() == removed_count(spec)


def test_oracle_rejects_big_input():
    with pytest.raises(ValueError, match="exponential"):
        brute_force_spectrum_oracle(np.eye(9))


def test_trace_identity_small():
    b = open_propagator(PropagatorSpec(8, OpeningSpec(0.3, 0.1)))
    assert abs(eigenvalues(b).sum() - np.trace(b)) < 1e-10


def solve_recording_shapes(spec, monkeypatch):
    """resonance_set, also returning the shapes handed to the solver."""
    shapes = []

    def recording(m, *args, **kwargs):
        shapes.append(m.shape)
        return eigenvalues(m, *args, **kwargs)

    monkeypatch.setattr(spectra, "eigenvalues", recording)
    return resonance_set(spec), shapes


def is_mirror_symmetric(spec) -> bool:
    keep = spec.kept_mask()
    return bool((keep == keep[::-1]).all())


def test_parity_split_matches_oracle_on_every_symmetric_mask():
    # every mirror-symmetric mask a strip can cut from grids of N <= 8
    seen = set()
    for dim in (2, 4, 6, 8):
        for a in range(2 * dim):
            for b in range(dim + 1):
                spec = PropagatorSpec(dim, OpeningSpec(Fraction(a, 2 * dim), Fraction(b, dim)))
                key = (dim, tuple(spec.kept_mask()))
                if not is_mirror_symmetric(spec) or key in seen:
                    continue
                seen.add(key)
                oracle = brute_force_spectrum_oracle(open_propagator(spec))
                assert multiset_distance(resonance_set(spec).values, oracle) < 1e-12, key
    # empty, full, and the central and edge blocks of every even size
    assert len(seen) == sum(2 + 2 * (dim // 2 - 1) for dim in (2, 4, 6, 8))


@pytest.mark.parametrize("dim,qc,dq", [(64, "0.5", "0.1"), (130, "0", "0.2")])
def test_parity_split_matches_full_solve(dim, qc, dq, monkeypatch):
    spec = PropagatorSpec(dim, OpeningSpec(qc, dq))
    assert is_mirror_symmetric(spec)
    rs, shapes = solve_recording_shapes(spec, monkeypatch)
    assert shapes == [(dim // 2, dim // 2)] * 2
    full = eigenvalues(open_propagator(spec))
    assert multiset_distance(rs.values, full) < 1e-9
    assert (rs.values == sort_spectrum(rs.values)).all()


def test_asymmetric_mask_solves_full_matrix(monkeypatch):
    # N = 50 puts site 22 on the closed edge q = 0.45 of the centred strip,
    # while its mirror 27 sits on the open edge 0.55
    spec = PropagatorSpec(50, OpeningSpec("0.5", "0.1"))
    keep = spec.kept_mask()
    assert not keep[22] and keep[27]
    rs, shapes = solve_recording_shapes(spec, monkeypatch)
    assert shapes == [(50, 50)]
    assert multiset_distance(rs.values, eigenvalues(open_propagator(spec))) == 0


def test_mirror_opening_solves_the_canonical_mask():
    # R B R = B bit for bit, so (0.7, 0.1) is solved as the reflection of
    # its matrix, which is (0.3, 0.1)'s, and gets exactly its bits
    for dim in (10, 64, 602, 1024):
        b = baker_propagator(dim)
        assert (b[::-1, ::-1] == b).all(), dim
    low = PropagatorSpec(64, OpeningSpec("0.3", "0.1"))
    high = PropagatorSpec(64, OpeningSpec("0.7", "0.1"))
    keep, mirrored = high.canonical_mask()
    assert mirrored and not low.canonical_mask()[1]
    assert (keep == low.kept_mask()).all() and (keep == high.kept_mask()[::-1]).all()
    assert (resonance_set(high).values == resonance_set(low).values).all()


def test_resonance_set_rejects_dimension_above_cap():
    # checked before the propagator is built, for symmetric masks as well
    with pytest.raises(ValueError, match="cap"):
        resonance_set(PropagatorSpec(spectra.MAX_EIGEN_DIM + 2, OpeningSpec("0.5", "0.2")))


@pytest.mark.parametrize("qc,budget", [("0.5", 0.75), ("0.3", 1.25)])
def test_solve_peak_memory(qc, budget):
    # traced Python and numpy allocations of one solve at N = 1024, in
    # units of one N x N complex matrix: the symmetric (0.5, 0.1) never
    # forms it, the asymmetric (0.3, 0.1) forms it once with no temporaries
    dim = 1024
    spec = PropagatorSpec(dim, OpeningSpec(qc, "0.1"))
    tracemalloc.start()
    try:
        resonance_set(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < budget * dim**2 * 16, peak / 2**20

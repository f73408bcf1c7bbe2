"""Eigensolver wrapper, canonical ordering, and the slow oracle."""

import ctypes
import os
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from openbaker import cli, spectra
from openbaker.classical import OpeningSpec
from openbaker.propagator import (
    PropagatorSpec,
    baker_propagator,
    open_propagator,
    parity_block,
)
from openbaker.spectra import (
    EigensolverError,
    eigenvalues,
    resonance_set,
    sort_spectrum,
    split_blas_threads,
)
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


@pytest.fixture
def one_blas_thread():
    """Pin the real OpenBLAS thread count to 1 where it is known, then restore it."""
    api = spectra._openblas_threads()
    if api is None:
        yield
        return
    get, put = api
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_lapack_call_matches_numpy_bit_for_bit(one_blas_thread):
    if spectra._lapack_zgeev() is None:
        pytest.skip("the loaded OpenBLAS exports no zgeev")
    rng = np.random.default_rng(7)
    for n in (1, 2, 7, 130, 333, 501):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert same_bits(eigenvalues(m), np.linalg.eigvals(m)), n
    spec = PropagatorSpec(602, OpeningSpec("0.5", "0.1"))
    keep = spec.kept_mask()
    assert (keep == keep[::-1]).all()
    block = parity_block(602, keep, -1)
    assert same_bits(eigenvalues(block), np.linalg.eigvals(block))
    full = open_propagator(PropagatorSpec(130, OpeningSpec("0.3", "0.2")))
    assert same_bits(eigenvalues(full), np.linalg.eigvals(full))


def test_lapack_call_ignores_layout_and_keeps_input_unless_told(one_blas_thread):
    rng = np.random.default_rng(8)
    m = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    f = np.asfortranarray(m)
    ref = eigenvalues(m)
    assert same_bits(eigenvalues(f), ref)
    # only a writable column-major complex128 matrix is solved in place
    for copied in (m.copy(), f.real.copy(order="F"), f[:, ::-1]):
        before = copied.copy()
        eigenvalues(copied, overwrite=True)
        assert (copied == before).all()
    assert (f == m).all()
    assert same_bits(eigenvalues(f, overwrite=True), ref)
    assert (f != m).any()


def test_lapack_call_maps_info_to_errors(monkeypatch):
    def fake_zgeev(info):
        def zgeev(*args):
            args[-1]._obj.value = info  # INFO, passed by reference
        return lambda: (zgeev, ctypes.c_int64)

    monkeypatch.setattr(spectra, "_lapack_zgeev", fake_zgeev(3))
    with pytest.raises(EigensolverError, match="3 eigenvalues did not converge"):
        eigenvalues(np.eye(4))
    monkeypatch.setattr(spectra, "_lapack_zgeev", fake_zgeev(-5))
    with pytest.raises(RuntimeError, match="argument 5"):
        eigenvalues(np.eye(4))


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


class FakeBlas:
    """A (get, set) stand-in for OpenBLAS's thread count that logs each set."""

    def __init__(self, threads):
        self.threads = threads
        self.sets = []

    def get(self):
        return self.threads

    def set(self, n):
        self.sets.append(n)
        self.threads = n


def record_solves(monkeypatch, blas, fail_off_main=False):
    """Log (thread, BLAS count) for each eigenvalues call, solved by numpy."""
    calls = []

    def recording(m, overwrite=False):
        calls.append((threading.current_thread() is threading.main_thread(), blas.threads))
        if fail_off_main and not calls[-1][0]:
            raise EigensolverError("QR iteration did not converge")
        return np.linalg.eigvals(m)

    monkeypatch.setattr(spectra, "_openblas_threads", lambda: (blas.get, blas.set))
    monkeypatch.setattr(spectra, "eigenvalues", recording)
    return calls


SYMMETRIC = PropagatorSpec(64, OpeningSpec("0.5", "0.1"))


def test_symmetric_solve_pairs_blocks_only_when_it_owns_the_blas_threads(monkeypatch):
    monkeypatch.setattr(spectra, "_lapack_zgeev", lambda: "a resolved zgeev")
    blas = FakeBlas(4)
    calls = record_solves(monkeypatch, blas)
    paired = resonance_set(SYMMETRIC).values
    # the odd block on a second thread, each on half of the 4, and 4 back
    assert sorted(calls) == [(False, 2), (True, 2)]
    assert blas.sets == [2, 4] and blas.threads == 4
    assert not spectra._blas_split.locked()
    # one thread, a split already active, or no zgeev: one block after the other
    calls.clear()
    blas.threads = 1
    assert (resonance_set(SYMMETRIC).values == paired).all()
    assert calls == [(True, 1)] * 2
    calls.clear()
    blas.threads = 4
    with split_blas_threads(2):
        resonance_set(SYMMETRIC)
    assert calls == [(True, 2)] * 2 and blas.sets == [2, 4, 2, 4]
    calls.clear()
    monkeypatch.setattr(spectra, "_lapack_zgeev", lambda: None)
    resonance_set(SYMMETRIC)
    assert calls == [(True, 4)] * 2 and blas.sets == [2, 4, 2, 4]
    # an asymmetric mask is one solve on the count it was given
    calls.clear()
    monkeypatch.setattr(spectra, "_lapack_zgeev", lambda: "a resolved zgeev")
    resonance_set(PropagatorSpec(64, OpeningSpec("0.3", "0.1")))
    assert calls == [(True, 4)] and blas.sets == [2, 4, 2, 4]


def test_paired_solve_builds_both_blocks_on_the_calling_thread(monkeypatch):
    # a block built on the worker came from a second malloc arena, whose
    # kept pages made a run's peak RSS depend on the sizes solved before it
    monkeypatch.setattr(spectra, "_lapack_zgeev", lambda: "a resolved zgeev")
    calls = record_solves(monkeypatch, FakeBlas(4))
    built = []
    build = spectra.parity_block

    def recording(dim, keep, sign):
        built.append((threading.current_thread() is threading.main_thread(), sign))
        return build(dim, keep, sign)

    monkeypatch.setattr(spectra, "parity_block", recording)
    resonance_set(SYMMETRIC)
    assert built == [(True, 1), (True, -1)]
    assert sorted(calls) == [(False, 2), (True, 2)]


def test_paired_solve_restores_blas_threads_when_a_block_raises(monkeypatch):
    monkeypatch.setattr(spectra, "_lapack_zgeev", lambda: "a resolved zgeev")
    blas = FakeBlas(2)
    calls = record_solves(monkeypatch, blas, fail_off_main=True)
    with pytest.raises(EigensolverError):
        resonance_set(SYMMETRIC)
    assert sorted(calls) == [(False, 1), (True, 1)]
    assert blas.sets == [1, 2] and blas.threads == 2
    assert not spectra._blas_split.locked()


def test_solves_in_the_jobs_pool_run_on_their_share(monkeypatch):
    monkeypatch.setattr(spectra, "_lapack_zgeev", lambda: "a resolved zgeev")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    blas = FakeBlas(5)
    calls = record_solves(monkeypatch, blas)

    class NoCache:
        def get_or_compute(self, spec):
            return resonance_set(spec), False

    specs = [PropagatorSpec(dim, OpeningSpec(qc, "0.1"))
             for dim in (64, 66, 68) for qc in ("0.5", "0.3")]
    assert sum(is_mirror_symmetric(spec) for spec in specs) >= 2
    cli._solve_many(specs, NoCache(), jobs=2)
    # every block and full solve on 5 // 2, and no split inside the pool's
    assert {threads for _, threads in calls} == {2}
    assert blas.sets == [2, 5] and blas.threads == 5


def test_fallback_solves_blocks_in_turn_with_numpy(monkeypatch, one_blas_thread):
    spec = PropagatorSpec(130, OpeningSpec("0", "0.2"))
    assert is_mirror_symmetric(spec)
    solved = resonance_set(spec).values
    calls = []
    numpy_eigvals = np.linalg.eigvals

    def recording(m):
        calls.append(threading.current_thread() is threading.main_thread())
        return numpy_eigvals(m)

    monkeypatch.setattr(spectra, "_lapack_zgeev", lambda: None)
    monkeypatch.setattr(np.linalg, "eigvals", recording)
    assert same_bits(resonance_set(spec).values, solved)
    assert calls == [True, True]


def test_concurrent_solves_never_lose_the_blas_thread_count(monkeypatch):
    # more solving threads than cores, switching often: each paired solve
    # splits and restores the count, one split at a time, so the count
    # comes back whole; two splits at once would restore a halved count
    monkeypatch.setattr(spectra, "_lapack_zgeev", lambda: "a resolved zgeev")
    blas = FakeBlas(4)
    record_solves(monkeypatch, blas)
    expected = resonance_set(SYMMETRIC).values
    results = []

    def solve_some():
        for _ in range(5):
            results.append(resonance_set(SYMMETRIC).values)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=solve_some) for _ in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert len(results) == 40 and all((r == expected).all() for r in results)
    assert blas.threads == 4 and set(blas.sets) <= {2, 4}
    assert not spectra._blas_split.locked()

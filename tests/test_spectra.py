"""Eigensolver wrapper, canonical ordering, and the slow oracle."""

import ctypes
import gc
import os
import queue
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.linalg import _umath_linalg
from scipy.optimize import linear_sum_assignment

from openbaker import spectra
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
    resonance_sets,
    sort_spectrum,
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
    blas = spectra._openblas()
    if blas is None:
        yield
        return
    before = blas.get_threads()
    blas.set_threads(1)
    try:
        yield
    finally:
        blas.set_threads(before)


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def load_only(monkeypatch, *names):
    """Have ctypes load, in place of any library, one exporting only names.

    Returns the paths asked for.
    """
    paths = []

    def cdll(path):
        paths.append(path)
        return SimpleNamespace(**{name: SimpleNamespace() for name in names})

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    return paths


def test_resolver_needs_a_whole_row_of_numpys_linalg_extension(monkeypatch):
    resolve = spectra._openblas.__wrapped__  # past the cache
    # MKL and Accelerate export a zgeev_ but no OpenBLAS thread pair, so
    # eigenvalues falls back to numpy
    paths = load_only(monkeypatch, "zgeev_")
    assert resolve() is None
    assert paths == [_umath_linalg.__file__]
    # halves of two rows do not make one
    load_only(monkeypatch, "zgeev_", "openblas_get_num_threads",
              "scipy_openblas_set_num_threads64_")
    assert resolve() is None
    load_only(monkeypatch, "zgeev_", "openblas_get_num_threads", "openblas_set_num_threads")
    assert resolve().fint is ctypes.c_int32
    # the first whole row wins
    load_only(monkeypatch, "zgeev_", "openblas_get_num_threads", "openblas_set_num_threads",
              "zgeev_64_", "openblas_get_num_threads64_", "openblas_set_num_threads64_")
    assert resolve().fint is ctypes.c_int64

    def unloadable(path):
        raise OSError(f"cannot load {path}")

    monkeypatch.setattr(ctypes, "CDLL", unloadable)
    assert resolve() is None


def test_resolver_finds_the_same_symbols_after_scipy_loads_its_own_copy():
    # scipy's OpenBLAS exports scipy_zgeev_ and a thread pair of its own;
    # the lookup goes through numpy's extension, so it never sees them
    src = str(Path(spectra.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    probe = (
        "import ctypes, sys\n"
        "from openbaker import spectra\n"
        "def symbols():\n"
        "    spectra._openblas.cache_clear()\n"
        "    blas = spectra._openblas()\n"
        "    return blas and [blas.fint.__name__] + [\n"
        "        (f.__name__, ctypes.cast(f, ctypes.c_void_p).value)\n"
        "        for f in (blas.zgeev, blas.get_threads, blas.set_threads)]\n"
        "before = symbols()\n"
        "assert 'scipy' not in sys.modules\n"
        "import scipy.linalg\n"
        "print(before == symbols(), before)\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, env=env, timeout=120, check=True)
    assert result.stdout.startswith("True ")


def test_available_cores_reads_the_cpu_affinity(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2, 5}, raising=False)
    assert spectra._available_cores() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert spectra._available_cores() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert spectra._available_cores() == 1


def test_lapack_call_matches_numpy_bit_for_bit(one_blas_thread):
    if spectra._openblas() is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
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
    blas = FakeBlas(1)

    def fake_zgeev(info):
        def zgeev(*args):
            args[-1]._obj.value = info  # INFO, passed by reference
        return lambda: spectra._OpenBlas(zgeev, ctypes.c_int64, blas.get, blas.set)

    monkeypatch.setattr(spectra, "_openblas", fake_zgeev(3))
    with pytest.raises(EigensolverError, match="3 eigenvalues did not converge"):
        eigenvalues(np.eye(4))
    monkeypatch.setattr(spectra, "_openblas", fake_zgeev(-5))
    with pytest.raises(RuntimeError, match="argument 5"):
        eigenvalues(np.eye(4))
    assert blas.sets == []


def test_numpy_fallback_maps_its_error_to_eigensolver_error(monkeypatch):
    # without OpenBLAS the solve is np.linalg.eigvals, whose failure to
    # converge is a LinAlgError (numpy's message)
    def no_convergence(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(spectra, "_openblas", lambda: None)
    monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
    with pytest.raises(EigensolverError, match="failed on a 4x4 matrix: Eigenvalues did not"):
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
    prepare = spectra._prepare

    def recording(m, overwrite=False):
        shapes.append(m.shape)
        return prepare(m, overwrite)

    monkeypatch.setattr(spectra, "_prepare", recording)
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
    # each block on its kept sites only
    kept = int(spec.kept_mask()[: dim // 2].sum())
    assert kept < dim // 2 and shapes == [(kept, kept)] * 2
    full = eigenvalues(open_propagator(spec))
    assert multiset_distance(rs.values, full) < 1e-9
    assert (rs.values == sort_spectrum(rs.values)).all()


def test_asymmetric_mask_solves_its_kept_block(monkeypatch):
    # N = 50 puts site 22 on the closed edge q = 0.45 of the centred strip,
    # while its mirror 27 sits on the open edge 0.55
    spec = PropagatorSpec(50, OpeningSpec("0.5", "0.1"))
    keep = spec.kept_mask()
    assert not keep[22] and keep[27]
    rs, shapes = solve_recording_shapes(spec, monkeypatch)
    # one solve of the 45 kept sites, and the 5 absorbed ones' exact zeros
    assert shapes == [(45, 45)]
    assert (rs.values == 0).sum() == 5
    assert multiset_distance(rs.values, eigenvalues(open_propagator(spec))) < 1e-12


# masks of both kinds, mirror images, the closed map, a hole through
# q = 0, an empty one, and N = 10 (mod 20), where (0.5, 0.1) is asymmetric
ZERO_COUNT_SPECS = [PropagatorSpec(dim, OpeningSpec(qc, dq)) for dim, qc, dq in (
    (16, "0.5", "0"), (16, "0.5", "1"), (50, "0.5", "0.1"), (64, "0.5", "0.1"),
    (64, "0.3", "0.2"), (64, "0.7", "0.2"), (130, "0", "0.4"), (602, "0.5", "0.1"),
    (570, "0.3", "0.2"))]


@pytest.mark.parametrize(
    "spec", ZERO_COUNT_SPECS,
    ids=lambda spec: f"{spec.dim}-{float(spec.opening.q_c):g}-{float(spec.opening.delta_q):g}")
def test_every_absorbed_site_gives_one_exact_zero(spec, one_blas_thread):
    # A = B P has one zero column per absorbed site: the solver's spectrum
    # holds exactly that many values equal to 0, as does a full solve of A
    absorbed = spec.dim - int(spec.kept_mask().sum())
    values = resonance_set(spec).values
    full = np.linalg.eigvals(open_propagator(spec))
    assert (values == 0).sum() == (full == 0).sum() == absorbed
    # the zeros sort last, and only the near-zero cluster differs from a
    # full solve: every modulus above 0.3 agrees to 1e-10
    assert (values[values.size - absorbed :] == 0).all()
    top, full_top = values[np.abs(values) > 0.3], full[np.abs(full) > 0.3]
    assert top.size == full_top.size
    assert top.size == 0 or multiset_distance(top, full_top) < 1e-10


def test_kept_solve_matches_oracle_on_every_mask():
    # every mask a strip can cut from grids of N <= 8, mirror-symmetric or
    # not, solved through the kept blocks and their appended zeros
    seen = set()
    for dim in (2, 4, 6, 8):
        for a in range(2 * dim):
            for b in range(dim + 1):
                spec = PropagatorSpec(dim, OpeningSpec(Fraction(a, 2 * dim), Fraction(b, dim)))
                key = (dim, tuple(spec.canonical_mask()))
                if key in seen:
                    continue
                seen.add(key)
                oracle = brute_force_spectrum_oracle(open_propagator(spec))
                values = resonance_set(spec).values
                assert multiset_distance(values, oracle) < 1e-12, key
                assert (values == 0).sum() == dim - spec.kept_mask().sum(), key
    # the 20 mirror-symmetric masks and 44 canonical asymmetric ones
    assert len(seen) == 64 and sum(mask != mask[::-1] for _, mask in seen) == 44


def test_mirror_opening_solves_the_canonical_mask():
    # R B R = B bit for bit, so (0.7, 0.1) is solved as the reflection of
    # its matrix, which is (0.3, 0.1)'s, and gets exactly its bits
    for dim in (10, 64, 602, 1024):
        b = baker_propagator(dim)
        assert (b[::-1, ::-1] == b).all(), dim
    low = PropagatorSpec(64, OpeningSpec("0.3", "0.1"))
    high = PropagatorSpec(64, OpeningSpec("0.7", "0.1"))
    keep = high.canonical_mask()
    assert (low.canonical_mask() == low.kept_mask()).all()
    assert (keep == low.kept_mask()).all() and (keep == high.kept_mask()[::-1]).all()
    assert (resonance_set(high).values == resonance_set(low).values).all()


def test_resonance_set_rejects_dimension_above_cap():
    # checked before the propagator is built, for symmetric masks as well
    with pytest.raises(ValueError, match="cap"):
        resonance_set(PropagatorSpec(spectra.MAX_EIGEN_DIM + 2, OpeningSpec("0.5", "0.2")))


@pytest.mark.parametrize("qc,budget", [("0.5", 0.6), ("0.3", 0.95)])
def test_solve_peak_memory(qc, budget):
    # traced Python and numpy allocations of one solve at N = 1024, in
    # units of one N x N complex matrix, which neither forms: 922 of the
    # 1024 sites are kept, so the symmetric (0.5, 0.1) holds two blocks of
    # 461^2 entries (0.41), the asymmetric (0.3, 0.1) one of 922^2 (0.81),
    # plus zgeev's workspace and the sort
    dim = 1024
    spec = PropagatorSpec(dim, OpeningSpec(qc, "0.1"))
    tracemalloc.start()
    try:
        resonance_set(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < budget * dim**2 * 16, peak / 2**20


def test_the_prepared_call_allocates_nothing(one_blas_thread):
    # buffers, copy and workspace come from _prepare on the calling
    # thread; the call a pool worker makes is the bare zgeev and its checks
    if spectra._openblas() is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    rng = np.random.default_rng(9)
    m = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    solve = spectra._prepare(m)
    tracemalloc.start()
    try:
        w = solve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4096, peak
    assert same_bits(w, np.linalg.eigvals(m))


def test_the_finiteness_check_forms_no_full_mask():
    # np.isfinite(m) of the whole matrix is n^2 bytes of bools
    n = 1024
    m = np.ones((n, n), dtype=np.complex128, order="F")
    tracemalloc.start()
    try:
        spectra._require_finite(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n, peak
    for column in (0, n // 2, n - 1):
        for bad in (np.nan, np.inf, complex(0, -np.inf)):
            m[n // 3, column] = bad
            with pytest.raises(ValueError, match="non-finite"):
                spectra._require_finite(m)
            with pytest.raises(ValueError, match="non-finite"):
                spectra._require_finite(np.ascontiguousarray(m))
            m[n // 3, column] = 1


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

    def install(self, monkeypatch):
        """Make this the count _openblas gives, beside numpy's own zgeev.

        Where numpy's BLAS is not OpenBLAS the zgeev is None, so a test
        that installs this solves through a stand-in eigenvalues.
        """
        real = spectra._openblas()
        zgeev, fint = (real.zgeev, real.fint) if real else (None, None)
        monkeypatch.setattr(spectra, "_openblas",
                            lambda: spectra._OpenBlas(zgeev, fint, self.get, self.set))


def record_solves(monkeypatch, blas, fail_call=None):
    """Log (thread, BLAS count) for each prepared solve when it runs, solved by numpy.

    Call number fail_call raises instead, as a QR failure would.
    """
    calls = []

    def preparing(m, overwrite=False):
        def solve():
            calls.append((threading.current_thread() is threading.main_thread(), blas.threads))
            if len(calls) == fail_call:
                raise EigensolverError("QR iteration did not converge")
            return np.linalg.eigvals(m)

        return solve

    blas.install(monkeypatch)
    monkeypatch.setattr(spectra, "_prepare", preparing)
    return calls


def pool_threads() -> set:
    return {t for t in threading.enumerate() if t.name.startswith("openbaker-solve")}


SYMMETRIC = PropagatorSpec(64, OpeningSpec("0.5", "0.1"))
ASYMMETRIC = PropagatorSpec(64, OpeningSpec("0.3", "0.1"))


def test_every_block_solves_on_the_pool_at_one_blas_thread(monkeypatch):
    blas = FakeBlas(4)
    calls = record_solves(monkeypatch, blas)
    # both parity blocks of a symmetric mask on workers, on 1 thread, and 4 back
    paired = resonance_set(SYMMETRIC).values
    assert calls == [(False, 1)] * 2
    assert blas.sets == [1, 4] and blas.threads == 4
    assert spectra._blas_pins == 0
    # one thread to start with: the same bits
    calls.clear()
    blas.threads = 1
    assert same_bits(resonance_set(SYMMETRIC).values, paired)
    assert calls == [(False, 1)] * 2
    # an asymmetric mask is one solve of the full matrix, also on 1 thread
    calls.clear()
    blas.threads = 4
    resonance_set(ASYMMETRIC)
    assert calls == [(False, 1)] and blas.sets == [1, 4, 1, 1, 1, 4]
    # without a known BLAS the count is left alone
    monkeypatch.setattr(spectra, "_openblas", lambda: None)
    assert same_bits(resonance_set(SYMMETRIC).values, paired)
    assert len(blas.sets) == 6


def total_bytes(spec) -> int:
    """Bytes of a spec's blocks: two of |K_h|^2 complex entries, K_h the kept
    sites below dim/2, or one of |K|^2, K all kept sites."""
    keep = spec.kept_mask()
    if is_mirror_symmetric(spec):
        return 2 * 16 * int(keep[: spec.dim // 2].sum()) ** 2
    return 16 * int(keep.sum()) ** 2


@pytest.fixture
def schedule(monkeypatch):
    """Log the solve loop's block builds, submits and waits, in order.

    A build entry holds the block's name, (dim, sign) for a parity block
    and the spec for a mirror-asymmetric mask's kept block, the matrix
    and whether the calling thread built it.  A submit is the calling
    thread's put of a job, a wait its get of a result.  A block counts as
    alive from its submit to the put of its result, once its solve has
    ended; a submit entry holds the matrix the job's call was prepared
    from on the calling thread (None if it was not), the bytes and count
    alive just after it and the bytes the job's key gives.  The prepare
    is logged around whatever _prepare a loop starts with, so a test may
    replace _prepare after this fixture.
    """
    log, alive, lock, prepared = [], [], threading.Lock(), {}
    parity, kept = spectra.parity_block, spectra.kept_block

    def built(m, name):
        log.append(("build", name, m, threading.current_thread() is threading.main_thread()))
        return m

    def logged(prepare):
        def logging_prepare(m, overwrite=False):
            solve = prepare(m, overwrite)
            if threading.current_thread() is threading.main_thread():
                prepared[solve] = m
            return solve

        logging_prepare.inner = prepare
        return logging_prepare

    class LoggedQueue(queue.SimpleQueue):
        def __init__(self):
            # made at the start of each loop: log that loop's prepares
            if not hasattr(spectra._prepare, "inner"):
                monkeypatch.setattr(spectra, "_prepare", logged(spectra._prepare))

        def put(self, item):
            if item is not None:  # None stops a worker
                key, solve = item
                with lock:
                    if threading.current_thread() is threading.main_thread():
                        alive.append(key[2])
                        log.append(("submit", prepared.pop(solve, None), sum(alive),
                                    len(alive), key[2]))
                    else:
                        alive.remove(key[2])
            super().put(item)

        def get(self, *args, **kwargs):
            if threading.current_thread() is threading.main_thread():
                log.append(("wait",))
            return super().get(*args, **kwargs)

    monkeypatch.setattr(spectra, "parity_block",
                        lambda dim, keep, sign: built(parity(dim, keep, sign), (dim, sign)))
    blocks, specs = spectra._blocks, {}  # the spec of each (dim, canonical mask)

    def kept_for(spec):
        specs[spec.dim, spec.canonical_mask().tobytes()] = spec
        return blocks(spec)

    monkeypatch.setattr(spectra, "_blocks", kept_for)
    monkeypatch.setattr(spectra, "kept_block", lambda dim, keep: built(
        kept(dim, keep), specs[dim, keep.tobytes()]))
    monkeypatch.setattr(queue, "SimpleQueue", LoggedQueue)
    return log


def block_names(specs) -> list:
    """The build names of specs' blocks, largest spec first, ties in the order given."""
    ordered = sorted(specs, key=lambda spec: -total_bytes(spec))
    return [name for spec in ordered for name in (
        [(spec.dim, 1), (spec.dim, -1)] if is_mirror_symmetric(spec) else [spec])]


def check_schedule(log, specs, jobs, cores) -> tuple[list, list]:
    """Assert the solve loop's contract on log; return its (builds, submits).

    Every block is built on the calling thread just before its submit,
    the largest spec's first; the bytes alive stay within jobs times the
    largest spec's, and at most cores blocks are alive.
    """
    steps = [entry for entry in log if entry[0] != "wait"]
    builds, submits = steps[0::2], steps[1::2]
    assert [b[0] for b in builds] == ["build"] * len(builds)
    assert [s[0] for s in submits] == ["submit"] * len(builds)
    assert all(b[3] and s[1] is b[2] and s[4] == b[2].nbytes for b, s in zip(builds, submits))
    assert sorted(map(str, (b[1] for b in builds))) == sorted(map(str, block_names(specs)))
    assert builds[0][1] == block_names(specs)[0]
    budget = jobs * max(map(total_bytes, specs))
    assert max(s[2] for s in submits) <= budget
    assert max(s[3] for s in submits) <= cores
    return builds, submits


def test_paired_solve_builds_both_blocks_on_the_calling_thread(monkeypatch, schedule):
    # a block built on the worker came from a second malloc arena, whose
    # kept pages made a run's peak RSS depend on the sizes solved before it
    monkeypatch.setattr(spectra, "_available_cores", lambda: 2)
    calls = record_solves(monkeypatch, FakeBlas(4))
    resonance_set(SYMMETRIC)
    builds, _ = check_schedule(schedule, [SYMMETRIC], 1, 2)
    assert [b[1] for b in builds] == [(64, 1), (64, -1)]
    assert calls == [(False, 1)] * 2
    # the larger full solve goes first, then the equal specs in the order given
    schedule.clear()
    specs = [SYMMETRIC, ASYMMETRIC, SYMMETRIC]
    list(resonance_sets(specs, jobs=2))
    builds, _ = check_schedule(schedule, specs, 2, 2)
    assert [b[1] for b in builds] == [ASYMMETRIC, (64, 1), (64, -1), (64, 1), (64, -1)]
    assert calls == [(False, 1)] * 7


def test_paired_solve_restores_blas_threads_when_a_block_raises(monkeypatch):
    blas = FakeBlas(2)
    calls = record_solves(monkeypatch, blas, fail_call=2)
    before = pool_threads()
    with pytest.raises(EigensolverError):
        resonance_set(SYMMETRIC)
    assert calls == [(False, 1)] * 2
    assert blas.sets == [1, 2] and blas.threads == 2
    assert spectra._blas_pins == 0
    # the finally block joined every worker: none outlives the call
    assert pool_threads() == before


def test_early_stop_releases_the_lock_and_joins_the_pool(monkeypatch):
    # a consumer that stops after the first spectrum, by close, break or
    # an exception of its own, leaves no pin open and no worker running
    monkeypatch.setattr(spectra, "_available_cores", lambda: 2)
    blas = FakeBlas(4)
    record_solves(monkeypatch, blas)
    specs = [SYMMETRIC, ASYMMETRIC, PropagatorSpec(66, OpeningSpec("0.5", "0.1"))]
    before = pool_threads()
    solving = resonance_sets(specs, jobs=2)
    try:
        # either of the two specs handed out first, the full solve and
        # the larger symmetric one, may finish first
        assert next(solving).spec in specs[1:]
        assert spectra._blas_pins == 1 and blas.threads == 1
    finally:
        # closed even when an assertion fails, so the pin never leaks
        # into the next test
        solving.close()
    assert spectra._blas_pins == 0 and blas.threads == 4
    assert pool_threads() == before
    # no name holds these two generators, so leaving the loop frees them
    for rs in resonance_sets(specs, jobs=2):
        break
    assert spectra._blas_pins == 0 and blas.threads == 4
    with pytest.raises(KeyError):
        for rs in resonance_sets(specs, jobs=1):
            raise KeyError(rs.spec)
    assert spectra._blas_pins == 0 and blas.threads == 4
    assert pool_threads() == before
    assert blas.sets == [1, 4] * 3


def test_no_block_outlives_its_solve(monkeypatch):
    # a worker that kept its last job while waiting for the next held one
    # more block alive: each block is freed by the time its spec is
    # yielded, and an idle worker holds none
    blocks = []  # (dim, weak reference to a block built)

    def recorded(build):
        def building(dim, *args):
            block = build(dim, *args)
            blocks.append((dim, weakref.ref(block)))
            return block

        return building

    monkeypatch.setattr(spectra, "parity_block", recorded(spectra.parity_block))
    monkeypatch.setattr(spectra, "kept_block", recorded(spectra.kept_block))
    # one spec per dim, so a block's dim names its spec
    specs = [PropagatorSpec(dim, OpeningSpec(qc, dq)) for dim, qc, dq in (
        (64, "0.5", "0.1"), (66, "0.5", "0.1"), (68, "0.3", "0.1"), (70, "0.3", "0.2"))]
    count = sum(2 if is_mirror_symmetric(spec) else 1 for spec in specs)
    for cores in (1, 2, 3):
        monkeypatch.setattr(spectra, "_available_cores", lambda: cores)
        for jobs in (1, 2):
            blocks.clear()
            yielded = []
            for rs in resonance_sets(specs, jobs):
                yielded.append(rs.spec)
                mine = [ref for dim, ref in blocks if dim == rs.dim]
                assert mine and all(ref() is None for ref in mine), (cores, jobs, rs.dim)
            assert len(yielded) == len(specs)
            assert len(blocks) == count and all(ref() is None for _, ref in blocks)


def test_a_failed_solve_holds_no_block(monkeypatch):
    # a worker reports a failed call's exception without its traceback,
    # whose frame of the call would keep the block alive for as long as
    # the calling thread holds the exception
    blas = FakeBlas(1)

    def zgeev(*args):
        args[-1]._obj.value = 3  # INFO, passed by reference

    monkeypatch.setattr(spectra, "_openblas",
                        lambda: spectra._OpenBlas(zgeev, ctypes.c_int64, blas.get, blas.set))
    monkeypatch.setattr(spectra, "_available_cores", lambda: 2)
    blocks = []

    def building(dim, keep, sign):
        block = parity_block(dim, keep, sign)
        blocks.append(weakref.ref(block))
        return block

    monkeypatch.setattr(spectra, "parity_block", building)
    with pytest.raises(EigensolverError, match="29x29 matrix: 3 eigenvalues") as raised:
        resonance_set(SYMMETRIC)
    gc.collect()
    assert raised.value is not None  # the error is still held here
    assert len(blocks) == 2 and all(ref() is None for ref in blocks)


def test_a_solve_inside_the_solve_loop_gives_the_same_bits(monkeypatch):
    # the pins nest: a solve inside the loop runs at the one thread and
    # leaves the count to the loop, which restores it on exit
    blas = FakeBlas(4)
    blas.install(monkeypatch)
    outside = resonance_set(SYMMETRIC).values
    blas.sets.clear()
    for rs in resonance_sets([ASYMMETRIC]):
        assert same_bits(resonance_set(SYMMETRIC).values, outside)
        assert spectra._blas_pins == 1 and blas.threads == 1
    assert blas.sets == [1, 4] and spectra._blas_pins == 0
    # the real count, in a fresh process so the exact_escape memo is cold
    # inside the loop and a regression that hangs times out, not the suite
    src = str(Path(spectra.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    probe = (
        "from openbaker import spectra, trapped\n"
        "from openbaker.classical import OpeningSpec\n"
        "from openbaker.propagator import PropagatorSpec\n"
        "blas = spectra._openblas()\n"
        "count = blas.get_threads if blas else lambda: None\n"
        "before = count()\n"
        "spec = PropagatorSpec(16, OpeningSpec('0.5', '0.1'))\n"
        "opening = OpeningSpec('0.3', '0.2')\n"
        "def solve():\n"
        "    return spectra.resonance_set(spec).values.tobytes(), trapped.exact_escape(opening)\n"
        "for rs in spectra.resonance_sets([PropagatorSpec(16, OpeningSpec('0.3', '0.1'))]):\n"
        "    inside = solve()\n"
        "    print(count() == (1 if blas else None))\n"
        "print(spectra._blas_pins, count() == before)\n"
        "trapped._exact_escape.cache_clear()\n"
        "print(solve() == inside, inside[1].rho > 1, count() == before)\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, env=env, timeout=120, check=True)
    assert result.stdout.splitlines() == ["True", "0 True", "True True True"]


def test_loops_on_two_threads_run_at_the_same_time(monkeypatch):
    # each loop's body waits for the other's at a barrier, which a loop
    # holding the count to itself across its yields would never reach
    blas = FakeBlas(4)
    blas.install(monkeypatch)
    meet = threading.Barrier(2, timeout=30)
    seen, errors = [], []

    def loop(spec):
        try:
            for rs in resonance_sets([spec]):
                meet.wait()
                seen.append((spectra._blas_pins, blas.threads))
                meet.wait()
        except threading.BrokenBarrierError as exc:
            errors.append(exc)

    workers = [threading.Thread(target=loop, args=(spec,)) for spec in (SYMMETRIC, ASYMMETRIC)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == [] and seen == [(2, 1)] * 2
    # the first pin set one thread, the last one restored the four
    assert blas.sets == [1, 4] and spectra._blas_pins == 0


def test_raised_closed_and_concurrent_loops_restore_the_real_blas_count():
    blas = spectra._openblas()
    if blas is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    before = blas.get_threads()
    with pytest.raises(KeyError):
        for rs in resonance_sets([SYMMETRIC, ASYMMETRIC]):
            assert blas.get_threads() == 1
            raise KeyError(rs.spec)
    assert blas.get_threads() == before and spectra._blas_pins == 0
    solving = resonance_sets([SYMMETRIC, ASYMMETRIC])
    try:
        next(solving)
        assert blas.get_threads() == 1
    finally:
        solving.close()
    assert blas.get_threads() == before and spectra._blas_pins == 0
    meet = threading.Barrier(2, timeout=30)
    seen = []

    def loop():
        for rs in resonance_sets([ASYMMETRIC]):
            meet.wait()
            seen.append(blas.get_threads())
            meet.wait()

    workers = [threading.Thread(target=loop) for _ in range(2)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
    assert not any(worker.is_alive() for worker in workers)
    assert seen == [1, 1]
    assert blas.get_threads() == before and spectra._blas_pins == 0


def test_jobs_bounds_the_spectra_in_flight(monkeypatch, schedule):
    # the blocks alive hold at most jobs times the largest spec's bytes on
    # at most cores workers; the next block is handed out before a finished
    # spec is yielded, and a spec is yielded when it finishes, so a slow
    # one holds back no idle worker
    blas = FakeBlas(5)
    calls = record_solves(monkeypatch, blas)
    blocks = spectra._blocks
    decided = []

    def recording(spec):
        decided.append(spec)
        return blocks(spec)

    monkeypatch.setattr(spectra, "_blocks", recording)
    specs = [PropagatorSpec(dim, OpeningSpec(qc, dq))
             for dim in (64, 66, 68) for qc, dq in (("0.5", "0.1"), ("0.3", "0.2"))]
    # the largest in the middle, and a tie with (0.3, 0.2) at N = 68
    specs[3:3] = [PropagatorSpec(96, OpeningSpec("0.5", "0.1")),
                  PropagatorSpec(68, OpeningSpec("0.3", "0.1"))]
    assert sum(is_mirror_symmetric(spec) for spec in specs) == 4
    runs = 0
    for cores in (1, 2, 3):
        monkeypatch.setattr(spectra, "_available_cores", lambda: cores)
        for jobs in (1, 2, 5):
            schedule.clear()
            decided.clear()
            yielded, runs = [], runs + 1
            for rs in resonance_sets(specs, jobs):
                # every block's size is decided before the first is built
                assert decided == specs
                yielded.append(rs.spec)
                submitted = sum(entry[0] == "submit" for entry in schedule)
                done = sum(2 if is_mirror_symmetric(s) else 1 for s in yielded)
                assert submitted > done or submitted == len(block_names(specs))
            assert sorted(yielded, key=specs.index) == specs
            builds, _ = check_schedule(schedule, specs, jobs, cores)
            if cores == 1:
                assert [b[1] for b in builds] == block_names(specs)
    # every block and full solve on 1 thread, and the 5 back after each run
    assert {threads for _, threads in calls} == {1}
    assert blas.sets == [1, 5] * runs and blas.threads == 5
    # a full solve shares the cores with another spec's block when the
    # bytes allow it: at jobs 2 both go out before the first wait
    monkeypatch.setattr(spectra, "_available_cores", lambda: 2)
    for jobs, first in ((1, [ASYMMETRIC]), (2, [ASYMMETRIC, (64, 1)])):
        schedule.clear()
        list(resonance_sets([SYMMETRIC, ASYMMETRIC], jobs))
        check_schedule(schedule, [SYMMETRIC, ASYMMETRIC], jobs, 2)
        before_wait = schedule[: schedule.index(("wait",))]
        assert [e[1] for e in before_wait if e[0] == "build"] == first
    slow, fast = PropagatorSpec(66, OpeningSpec("0.3", "0.1")), ASYMMETRIC
    slow_size = int(slow.kept_mask().sum())  # the kept sites of N = 66
    assert slow_size > int(fast.kept_mask().sum())

    def slow_66(m, overwrite=False):
        def solve():
            if m.shape[0] == slow_size:
                time.sleep(0.3)
            return np.linalg.eigvals(m)

        return solve

    monkeypatch.setattr(spectra, "_prepare", slow_66)
    assert [rs.spec for rs in resonance_sets([slow, fast], 2)] == [fast, slow]
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        next(resonance_sets(specs, 0))


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_the_schedule_changes_no_bits(monkeypatch, cores):
    # mirror-symmetric and asymmetric (N = 10 mod 20) masks at (0.5, 0.1),
    # and full solves at (0.3, 0.2), in one list: the values are those of
    # one spec solved at a time, bit for bit
    specs = [PropagatorSpec(dim, OpeningSpec("0.5", "0.1")) for dim in (64, 70, 90, 128, 130)]
    specs += [PropagatorSpec(dim, OpeningSpec("0.3", "0.2")) for dim in (64, 90)]
    symmetric = [is_mirror_symmetric(spec) for spec in specs]
    assert symmetric == [True, False, False, True, False, False, False]
    alone = {spec: resonance_set(spec).values for spec in specs}
    monkeypatch.setattr(spectra, "_available_cores", lambda: cores)
    for jobs in (1, 2, 5):
        solved = {rs.spec: rs.values for rs in resonance_sets(specs, jobs)}
        assert list(sorted(solved, key=specs.index)) == specs
        assert all(same_bits(solved[spec], alone[spec]) for spec in specs), jobs


def test_fallback_gives_the_same_bits_with_numpy(monkeypatch, one_blas_thread):
    # the real count is pinned by the fixture, since the fallback pins none
    spec = PropagatorSpec(130, OpeningSpec("0", "0.2"))
    assert is_mirror_symmetric(spec)
    solved = resonance_set(spec).values
    calls = []
    numpy_eigvals = np.linalg.eigvals

    def recording(m):
        calls.append(threading.current_thread() is threading.main_thread())
        return numpy_eigvals(m)

    monkeypatch.setattr(spectra, "_openblas", lambda: None)
    monkeypatch.setattr(np.linalg, "eigvals", recording)
    assert same_bits(resonance_set(spec).values, solved)
    assert calls == [False, False]


def test_concurrent_solves_never_lose_the_blas_thread_count(monkeypatch):
    # more solving threads than cores, switching often: the pins are
    # counted, so only the first saves the count and only the last
    # restores it; a pin that saved another's 1 would restore a 1
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
    assert blas.threads == 4 and set(blas.sets) <= {1, 4}
    assert spectra._blas_pins == 0

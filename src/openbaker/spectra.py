"""Resonance spectra of the opened propagator.

The workhorse is LAPACK's dense nonsymmetric solver zgeev (Hessenberg
reduction plus implicitly shifted QR), called through ctypes from the
OpenBLAS numpy links.  The tests hold it to numpy's eigvals bit for bit
and to a from-scratch characteristic-polynomial oracle at tiny
dimensions, which shares none of its machinery.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .propagator import PropagatorSpec, open_propagator, parity_block

MAX_EIGEN_DIM = 4096

# numpy's OpenBLAS under the names each build exports, one row per build:
# LAPACK's complex eigensolver, the width of the integers it takes (the
# 64_ suffix marks an ILP64 build) and the thread count's get and set
_OPENBLAS_SYMBOLS = (
    ("scipy_zgeev_64_", ctypes.c_int64,
     "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("zgeev_64_", ctypes.c_int64,
     "openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("zgeev_", ctypes.c_int32, "openblas_get_num_threads", "openblas_set_num_threads"),
)

# guards the number of open _one_blas_thread pins and the count the first found
_blas_lock = threading.Lock()
_blas_pins = 0
_blas_saved = None


class EigensolverError(RuntimeError):
    """QR iteration did not converge within LAPACK's budget."""


def eigenvalues(m: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Eigenvalues of a square complex matrix, unordered.

    One call of LAPACK's zgeev, the routine np.linalg.eigvals runs on
    complex input, with the same workspace, so at equal BLAS thread
    counts the values are those of np.linalg.eigvals bit for bit.
    Unlike numpy, the call releases the interpreter lock at every size.
    With overwrite, a writable column-major complex128 m is solved in
    place and left holding LAPACK's scratch; any other m is copied first.
    Where numpy's BLAS is not OpenBLAS (_openblas) this is np.linalg.eigvals.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    if n > MAX_EIGEN_DIM:
        raise ValueError(f"dimension {n} exceeds the solver cap {MAX_EIGEN_DIM}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    blas = _openblas()
    if blas is None:
        try:
            return np.linalg.eigvals(m)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(
                f"eigenvalue iteration failed on a {n}x{n} matrix: {exc}"
            ) from exc
    zgeev, fint = blas.zgeev, blas.fint
    in_place = (overwrite and m.dtype == np.complex128
                and m.flags.f_contiguous and m.flags.writeable)
    a = m if in_place else np.array(m, dtype=np.complex128, order="F")
    w = np.empty(n, dtype=np.complex128)
    rwork = np.empty(2 * n)
    size, lda, ldv, info = fint(n), fint(max(n, 1)), fint(1), fint(0)

    def call(work, lwork):
        zgeev(b"N", b"N", ctypes.byref(size), a.ctypes.data, ctypes.byref(lda),
              w.ctypes.data, None, ctypes.byref(ldv), None, ctypes.byref(ldv),
              work.ctypes.data, ctypes.byref(fint(lwork)), rwork.ctypes.data,
              ctypes.byref(info))

    query = np.zeros(1, dtype=np.complex128)
    call(query, -1)
    lwork = max(int(query[0].real), 1)
    call(np.empty(lwork, dtype=np.complex128), lwork)
    if info.value > 0:
        raise EigensolverError(
            f"eigenvalue iteration failed on a {n}x{n} matrix: "
            f"{info.value} eigenvalues did not converge"
        )
    if info.value < 0:
        raise RuntimeError(f"zgeev rejected argument {-info.value}")
    return w


class _OpenBlas(NamedTuple):
    """One row of _OPENBLAS_SYMBOLS, resolved."""

    zgeev: Callable
    fint: type
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]


@functools.cache
def _openblas() -> _OpenBlas | None:
    """zgeev and the thread count of the OpenBLAS numpy calls, or None.

    The symbols are looked up through numpy's own linalg extension: the
    loader resolves a handle's symbols in the libraries it links, so this
    finds numpy's copy and no other, scipy's included.  It is None unless
    one row of _OPENBLAS_SYMBOLS is there whole: with MKL or Accelerate,
    and where the loader does not search a handle's dependencies
    (Windows).  ctypes releases the interpreter lock for each call.
    """
    from numpy.linalg import _umath_linalg

    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    for zgeev_name, fint, get_name, set_name in _OPENBLAS_SYMBOLS:
        zgeev, get, put = (getattr(lib, name, None)
                           for name in (zgeev_name, get_name, set_name))
        if zgeev is None or get is None or put is None:
            continue
        zgeev.argtypes = [ctypes.c_char_p, ctypes.c_char_p] + [ctypes.c_void_p] * 12
        zgeev.restype = None
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return _OpenBlas(zgeev, fint, get, put)
    return None


def _available_cores() -> int:
    """Cores this process may run on: its CPU affinity, else the host's count."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # no affinity call on this platform
        return os.cpu_count() or 1


@contextmanager
def _one_blas_thread():
    """Hold OpenBLAS at one thread while any pin is open.

    The count is process-wide, so the pins are counted: the first entry
    saves the count and sets one thread, the last exit restores it, also
    when the body raises or a loop is closed early.  Pins nest and
    overlap, within a thread and across threads; the lock guards only
    the tally.  With a BLAS other than OpenBLAS the count is left alone.
    """
    global _blas_pins, _blas_saved
    blas = _openblas()
    with _blas_lock:
        if _blas_pins == 0 and blas:
            _blas_saved = blas.get_threads()
            blas.set_threads(1)
        _blas_pins += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_pins -= 1
            if _blas_pins == 0 and blas:
                blas.set_threads(_blas_saved)


def sort_spectrum(w: np.ndarray) -> np.ndarray:
    """Canonical order: modulus descending, phase ascending on ties."""
    w = np.asarray(w, dtype=complex)
    order = np.lexsort((np.angle(w), -np.abs(w)))
    return w[order]


@dataclass(frozen=True, eq=False)
class ResonanceSet:
    """Sorted spectrum of one opened propagator."""

    spec: PropagatorSpec
    values: np.ndarray

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def moduli(self) -> np.ndarray:
        return np.abs(self.values)

    def __len__(self) -> int:
        return int(self.values.size)


def resonance_set(spec: PropagatorSpec) -> ResonanceSet:
    """Solve one opened propagator; see resonance_sets."""
    (rs,) = resonance_sets([spec])
    return rs


def _blocks(spec: PropagatorSpec) -> Iterator[np.ndarray]:
    """The matrices whose spectra make up spec's, built one at a time.

    The closed propagator commutes with the reflection R: j -> dim-1-j,
    so the opened one, A, is solved for the canonical kept mask
    (PropagatorSpec.canonical_mask): R A R, which is B with the mirrored
    columns zeroed, when the spec's own mask is the mirror image.  An
    opening and its mirror image thus get the same bits.  When the mask
    is mirror-symmetric, A commutes with R too, and its spectrum is that
    of the even and odd blocks A11 + A12 J and A11 - A12 J, where J
    reverses dim/2 indices: two solves of half the size, a quarter of the
    work.  The blocks come straight from the closed form (parity_block),
    so A is never formed.  Other masks give A itself.
    """
    keep = spec.canonical_mask()
    if (keep == keep[::-1]).all():
        yield parity_block(spec.dim, keep, 1)
        yield parity_block(spec.dim, keep, -1)
    else:
        yield open_propagator(spec, keep)


def resonance_sets(specs, jobs: int = 1) -> Iterator[ResonanceSet]:
    """Solve each spec, yielding its read-only ResonanceSet as it finishes.

    Every block (_blocks) is built on the calling thread (built on a
    worker, it came from a second malloc arena, and peak RSS then
    depended on earlier sizes) and solved in place on one pool with a
    thread per available core, at one BLAS thread, so the bits depend on
    neither jobs nor the core count.  The blocks of at most
    min(jobs, cores) specs are alive; the next is handed out before a
    finished spec is yielded, so the consumer's work overlaps the solves.
    Finished, raised or closed early, the pool is joined and the count
    restored once no other loop or solve holds it at one.
    """
    specs = list(specs)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    for spec in specs:
        if spec.dim > MAX_EIGEN_DIM:
            raise ValueError(f"dimension {spec.dim} exceeds the solver cap {MAX_EIGEN_DIM}")
    if not specs:
        return
    # imported on first use: it costs every run about 0.25 MB of peak RSS
    from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

    cores = _available_cores()
    todo = iter(specs)
    pending = []
    with _one_blas_thread():
        pool = ThreadPoolExecutor(max_workers=cores)
        try:
            def hand_out(spec):
                solves = [pool.submit(eigenvalues, b, True) for b in _blocks(spec)]
                pending.append((spec, solves))

            for spec in islice(todo, min(jobs, cores)):
                hand_out(spec)
            while pending:
                # one snapshot, so a spec is either done or has a block to wait for
                busy = [f for p in pending for f in p[1] if not f.done()]
                done = next((p for p in pending if not any(f in busy for f in p[1])), None)
                if done is None:
                    wait(busy, return_when=FIRST_COMPLETED)
                    continue
                pending.remove(done)
                spec, solves = done
                w = sort_spectrum(np.concatenate([f.result() for f in solves]))
                w.setflags(write=False)
                for following in islice(todo, 1):  # the next spec, if any
                    hand_out(following)
                yield ResonanceSet(spec=spec, values=w)
        finally:
            pool.shutdown(cancel_futures=True)

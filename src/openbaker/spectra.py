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


def _blocks(spec: PropagatorSpec) -> list[tuple[int, Callable[[], np.ndarray]]]:
    """The matrices whose spectra make up spec's, as (bytes, build) pairs.

    The closed propagator commutes with the reflection R: j -> dim-1-j,
    so the opened one, A, is solved for the canonical kept mask
    (PropagatorSpec.canonical_mask): R A R, which is B with the mirrored
    columns zeroed, when the spec's own mask is the mirror image.  An
    opening and its mirror image thus get the same bits.  When the mask
    is mirror-symmetric, A commutes with R too, and its spectrum is that
    of the even and odd blocks A11 + A12 J and A11 - A12 J, where J
    reverses dim/2 indices: two solves of half the size, a quarter of the
    work.  The blocks come straight from the closed form (parity_block),
    so A is never formed.  Other masks give A itself.  The sizes follow
    from the mask alone; no matrix is built until build is called.
    """
    keep, dim = spec.canonical_mask(), spec.dim
    if (keep == keep[::-1]).all():
        return [(16 * (dim // 2) ** 2, lambda: parity_block(dim, keep, 1)),
                (16 * (dim // 2) ** 2, lambda: parity_block(dim, keep, -1))]
    return [(16 * dim**2, lambda: open_propagator(spec, keep))]


def resonance_sets(specs, jobs: int = 1) -> Iterator[ResonanceSet]:
    """Solve each spec, yielding its read-only ResonanceSet as it finishes.

    The specs' blocks (_blocks) are handed out largest spec first, in the
    order given among equal sizes, to one pool with a thread per
    available core.  Whenever a worker is free, the first queued block
    that fits is built on the calling thread (built on a worker, it came
    from a second malloc arena, and peak RSS then depended on earlier
    sizes) and solved in place at one BLAS thread, so the bits depend on
    neither jobs, the core count nor the schedule.  A block fits while
    the bytes of blocks alive, its own included, stay within jobs times
    the largest spec's total, so blocks of different specs, a lone
    asymmetric solve's among them, share the cores whenever that allows.
    The next block is handed out before a finished spec is yielded, so
    the consumer's work overlaps the solves.  Finished, raised or closed
    early, the pool is joined and the count restored once no other loop
    or solve holds it at one.
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
    blocks = [_blocks(spec) for spec in specs]
    totals = [sum(size for size, _ in spec_blocks) for spec_blocks in blocks]
    budget = jobs * max(totals)
    queue = [(i, k, size, build) for i in sorted(range(len(specs)), key=lambda i: -totals[i])
             for k, (size, build) in enumerate(blocks[i])]
    parts = [[None] * len(spec_blocks) for spec_blocks in blocks]
    running, ready, alive = {}, [], 0
    with _one_blas_thread():
        pool = ThreadPoolExecutor(max_workers=cores)
        try:
            while queue or running or ready:
                if running:  # collect what finished, waiting only if nothing is ready
                    done, _ = wait(running, 0 if ready else None, FIRST_COMPLETED)
                    for future in done:
                        i, k, size, _ = running.pop(future)
                        alive -= size
                        parts[i][k] = future.result()
                        if all(part is not None for part in parts[i]):
                            ready.append(i)
                while len(running) < cores:  # build what fits for the free workers
                    block = next((b for b in queue if alive + b[2] <= budget), None)
                    if block is None:
                        break
                    queue.remove(block)
                    alive += block[2]
                    running[pool.submit(eigenvalues, block[3](), True)] = block
                if ready:
                    i = ready.pop(0)
                    w = sort_spectrum(np.concatenate(parts[i]))
                    w.setflags(write=False)
                    parts[i] = None
                    yield ResonanceSet(spec=specs[i], values=w)
        finally:
            pool.shutdown(cancel_futures=True)

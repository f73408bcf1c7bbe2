"""Resonance spectra of the opened propagator.

The workhorse is LAPACK's dense nonsymmetric solver (Hessenberg reduction
plus implicitly shifted QR) through numpy.  The tests hold it to a
from-scratch characteristic-polynomial oracle at tiny dimensions, which
shares none of its machinery.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .propagator import PropagatorSpec, open_propagator, parity_block

MAX_EIGEN_DIM = 4096

# OpenBLAS's (get, set) thread-count exports, most specific first: numpy's
# wheels rename them with a scipy_ prefix and a 64_ suffix, which also
# keeps scipy's own 32-bit copy (scipy_..._threads, no suffix) out
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


class EigensolverError(RuntimeError):
    """QR iteration did not converge within LAPACK's budget."""


def eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a square complex matrix, unordered."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] > MAX_EIGEN_DIM:
        raise ValueError(
            f"dimension {m.shape[0]} exceeds the solver cap {MAX_EIGEN_DIM}"
        )
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"eigenvalue iteration failed on a {m.shape[0]}x{m.shape[0]} matrix: {exc}"
        ) from exc


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS numpy loaded, or None.

    The library is found among the files mapped into the process, so on
    systems without /proc, and with other BLAS vendors, this is None.
    """
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    handles = []
    for path in paths:
        try:
            handles.append(ctypes.CDLL(path))
        except OSError:
            continue
    for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
        for handle in handles:
            get, put = getattr(handle, get_name, None), getattr(handle, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def split_blas_threads(workers: int):
    """Share the BLAS threads among `workers` concurrent solves.

    Inside the block every solve runs on max(1, t // workers) threads,
    where t is the count on entry, so the workers together start about as
    many threads as one solve did; t is restored on exit, also after an
    exception.  The count is process-wide and starts from the user's
    OPENBLAS_NUM_THREADS and CPU affinity.  With a BLAS other than
    OpenBLAS this does nothing.
    """
    api = _openblas_threads()
    if api is None:
        yield
        return
    get, put = api
    total = get()
    put(max(1, total // workers))
    try:
        yield
    finally:
        put(total)


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
    """Solve one opened propagator.

    The closed propagator commutes with the reflection R: j -> dim-1-j,
    so the opened one, A, is solved for the canonical kept mask
    (PropagatorSpec.canonical_mask): R A R when the spec's own mask is
    the mirror image.  An opening and its mirror image thus get the same
    bits.  When the mask is mirror-symmetric, A commutes with R too, and
    its spectrum is that of the even and odd blocks A11 + A12 J and
    A11 - A12 J, where J reverses dim/2 indices: two solves of half the
    size, a quarter of the work.  The blocks come straight from the
    closed form (parity_block) and are built and solved one at a time,
    so A is never formed.  Other masks solve A itself.

    The returned values are read-only, as are those SpectrumCache loads,
    so a ResonanceSet never changes once made.
    """
    if spec.dim > MAX_EIGEN_DIM:
        raise ValueError(f"dimension {spec.dim} exceeds the solver cap {MAX_EIGEN_DIM}")
    keep, mirrored = spec.canonical_mask()
    if (keep == keep[::-1]).all():
        w = np.concatenate([eigenvalues(parity_block(spec.dim, keep, s)) for s in (1, -1)])
    else:
        a = open_propagator(spec)
        w = eigenvalues(a[::-1, ::-1] if mirrored else a)
    w = sort_spectrum(w)
    w.setflags(write=False)
    return ResonanceSet(spec=spec, values=w)

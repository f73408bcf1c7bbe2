"""Torus quantization of the baker map and its opened variant.

The closed propagator B = G_N^dagger blockdiag(G_{N/2}, G_{N/2}) mixes
position and momentum through discrete Fourier kernels with half-integer
offsets (antiperiodic boundary conditions).  Its entries have a closed
form, so B and its diagonal are built in O(N^2) and O(N) without the
matrix product.  Opening the map multiplies by a diagonal projector that
kills the grid sites inside the absorbing strip, which simply zeroes the
matching columns.  The sites are picked by the classical side's exact
hole test (OpeningSpec.survives), so the projector and the trapped set
absorb the same points.  The spectrum is that of the kept rows and
columns plus one exact zero per absorbed site, so the solver gets only
those (kept_block).  For a mirror-symmetric strip they split further
into an even and an odd block (parity_block).  Both are copied from the
same closed form, run by run of kept sites, without the full matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .classical import OpeningSpec


def _check_dim(dim: int) -> None:
    if dim <= 0 or dim % 2:
        raise ValueError(f"quantization requires a positive even dimension, got {dim}")


def _kernel(dim: int, r: np.ndarray) -> np.ndarray:
    """Left-half entries of B at the indices r = (j - 2k - 1) mod 2 dim.

    For a column k < h = dim/2 the sum over the middle index is
    geometric and gives

        B_jk = (i + (-1)^r) / (2 sqrt(dim h) sin(pi (2r + 1) / (2 dim))),

    using (-1)^j = -(-1)^r.  2r + 1 is odd, so the sine never vanishes.
    It is reduced on integers to [-dim, dim) first, the sine changing
    sign with each shift by 2 dim, so the angle stays in [-pi/2, pi/2)
    where the sine has full relative precision.
    """
    turns, reduced = np.divmod(2 * r + 1 + dim, 2 * dim)
    reduced -= dim
    flip = 1 - 2 * (turns % 2)
    denom = 2 * math.sqrt(dim * (dim // 2)) * np.sin(np.pi * reduced / (2 * dim))
    return (1j + (1 - 2 * (r % 2))) * flip / denom


def _kernel_view(dim: int, rows: int, cols: int, step: int, offset: int) -> np.ndarray:
    """Read-only view V[j, k] = _kernel(dim, (j + step k + offset) mod 2 dim).

    Row j + 1 starts one entry after row j, so V is a strided window over
    the table of _kernel at every r, repeated end to end: no index array,
    and O(dim) memory.
    """
    span = abs(step) * (cols - 1) + 1
    start = (offset + min(step, 0) * (cols - 1)) % (2 * dim)
    reps = -(-(start + rows + span - 1) // (2 * dim))
    windows = sliding_window_view(np.tile(_kernel(dim, np.arange(2 * dim)), reps), span)
    return windows[start : start + rows, ::step]


def _row_twist(j: np.ndarray) -> np.ndarray:
    """Factor i (-1)^j taking column k of B to column k + dim/2."""
    return 1j * (1 - 2 * (j % 2))


def baker_propagator(dim: int) -> np.ndarray:
    """Unitary quantization of the closed map on dim grid sites.

    Column-major, the layout LAPACK solves in place.
    """
    _check_dim(dim)
    h = dim // 2
    b = np.empty((dim, dim), dtype=complex, order="F")
    b[:, :h] = _kernel_view(dim, dim, h, -2, -1)
    np.multiply(b[:, :h], _row_twist(np.arange(dim)[:, None]), out=b[:, h:])
    return b


@dataclass(frozen=True)
class PropagatorSpec:
    """Dimension plus opening; everything downstream keys off this pair."""

    dim: int
    opening: OpeningSpec

    def __post_init__(self):
        _check_dim(self.dim)

    def kept_mask(self) -> np.ndarray:
        """True at grid sites outside the strip.

        Site j sits at q_j = (2j + 1)/(2 dim), so it is kept when
        OpeningSpec.survives passes the odd integer 2j + 1 over 2 dim: the
        same exact test the classical side runs, edge sites included.
        """
        return self.opening.survives(2 * np.arange(self.dim) + 1, 2 * self.dim)

    def canonical_mask(self) -> np.ndarray:
        """kept_mask or its mirror image, whichever sorts first.

        R: j -> dim-1-j commutes with B bit for bit, so both give one spectrum.
        """
        keep = self.kept_mask()
        return keep[::-1] if keep[::-1].tobytes() < keep.tobytes() else keep


def open_propagator(spec: PropagatorSpec) -> np.ndarray:
    """Closed propagator with absorbed columns zeroed, column-major.

    Zeroing columns equals right-multiplying by the projector, with no
    floating-point product involved.
    """
    b = baker_propagator(spec.dim)
    b[:, ~spec.kept_mask()] = 0
    return b


def _runs(idx: np.ndarray) -> list[tuple[int, int, int]]:
    """(start, stop, first value) of each run of consecutive values in sorted idx."""
    cuts = [0, *(np.flatnonzero(np.diff(idx) != 1) + 1).tolist(), idx.size]
    return [(a, b, int(idx[a])) for a, b in zip(cuts, cuts[1:]) if b > a]


def _fill(out, view, rows, cols, twist=None, combine=None) -> None:
    """out[i, c] = view[rows[i], cols[c]], times twist[i], or combine(that, out[i, c]).

    A strip keeps one or two runs of consecutive sites, so each run of
    rows against each run of columns is one strided copy or ufunc call
    out of the view: no index array and no temporary.
    """
    for i0, i1, r in _runs(rows):
        for k0, k1, c in _runs(cols):
            src, dst = view[r : r + i1 - i0, c : c + k1 - k0], out[i0:i1, k0:k1]
            if combine is not None:
                combine(src, dst, out=dst)
            elif twist is not None:
                np.multiply(src, twist[i0:i1], out=dst)
            else:
                dst[...] = src


def kept_block(dim: int, keep: np.ndarray) -> np.ndarray:
    """B restricted to the kept rows and columns, B_KK, column-major.

    With the kept sites K first, A = B P is [[B_KK, 0], [B_AK, 0]], so its
    spectrum is that of B_KK plus dim - |K| exact zeros.  keep may be any
    mask, a mirror image included.  Column k >= dim/2 is column k - dim/2
    times i (-1)^j, the product baker_propagator takes, so the entries are
    those of B's kept slice bit for bit.
    """
    h = dim // 2
    kept = np.flatnonzero(keep)
    left = int(np.searchsorted(kept, h))
    view = _kernel_view(dim, dim, h, -2, -1)
    block = np.empty((kept.size, kept.size), dtype=complex, order="F")
    _fill(block[:, :left], view, kept, kept[:left])
    _fill(block[:, left:], view, kept, kept[left:] - h, _row_twist(kept)[:, None])
    return block


def parity_block(dim: int, keep: np.ndarray, sign: int) -> np.ndarray:
    """Even (sign 1) or odd (sign -1) block A11 + sign A12 J of the opened B, on kept sites.

    For a mirror-symmetric kept mask, A = B P commutes with the reflection
    R: j -> dim-1-j, and its spectrum is that of these two blocks of size
    h = dim/2, J reversing h indices.  Entry (j, k) is

        keep[k] (K[(j - 2k - 1) mod 2 dim] + sign i (-1)^j K[(j + 2k + 1 - dim) mod 2 dim])

    with K[r] = _kernel(dim, r), the second term being column dim-1-k of B.
    Its absorbed columns are zero, so as in kept_block only the rows and
    columns of the kept k < h are built; the spectrum adds h - |K_h|
    exact zeros.  The products and sums are those of slicing
    open_propagator, so the entries agree with it bit for bit.
    """
    h = dim // 2
    kept = np.flatnonzero(keep[:h])
    block = np.empty((kept.size, kept.size), dtype=complex, order="F")
    _fill(block, _kernel_view(dim, h, h, 2, 1 - dim), kept, kept, _row_twist(kept)[:, None])
    _fill(block, _kernel_view(dim, h, h, -2, -1), kept, kept,
          combine=np.add if sign > 0 else np.subtract)
    return block


def open_trace(spec: PropagatorSpec) -> complex:
    """Trace of the opened propagator from the closed form, in O(dim).

    Checks the trace identity against a stored spectrum without building
    the matrix: B_jj is column j mod dim/2 at row j, twisted for the
    right half, summed over the kept sites only.
    """
    dim, h = spec.dim, spec.dim // 2
    j = np.flatnonzero(spec.kept_mask())
    diag = _kernel(dim, (j - 2 * (j % h) - 1) % (2 * dim))
    right = j >= h
    diag[right] *= _row_twist(j[right])
    return complex(diag.sum())


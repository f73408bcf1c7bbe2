"""Torus quantization of the baker map and its opened variant.

The closed propagator B = G_N^dagger blockdiag(G_{N/2}, G_{N/2}) mixes
position and momentum through discrete Fourier kernels with half-integer
offsets (antiperiodic boundary conditions).  Its entries have a closed
form, so B and its diagonal are built in O(N^2) and O(N) without the
matrix product.  Opening the map multiplies by a diagonal projector that
kills the grid sites inside the absorbing strip, which simply zeroes the
matching columns.  For a mirror-symmetric strip the opened propagator
splits into an even and an odd block of half the size, which are built
from the same closed form without the full matrix.
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


def _kernel_table(dim: int) -> np.ndarray:
    """Left-half entries of B, indexed by r = (j - 2k - 1) mod 2 dim.

    For a column k < h = dim/2 the sum over the middle index is
    geometric and gives

        B_jk = (i + (-1)^r) / (2 sqrt(dim h) sin(pi (2r + 1) / (2 dim))),

    using (-1)^j = -(-1)^r.  2r + 1 is odd, so the sine never vanishes.
    It is reduced on integers to [-dim, dim) first, the sine changing
    sign with each shift by 2 dim, so the angle stays in [-pi/2, pi/2)
    where the sine has full relative precision.
    """
    r = np.arange(2 * dim)
    turns, reduced = np.divmod(2 * r + 1 + dim, 2 * dim)
    reduced -= dim
    flip = 1 - 2 * (turns % 2)
    denom = 2 * math.sqrt(dim * (dim // 2)) * np.sin(np.pi * reduced / (2 * dim))
    return (1j + (1 - 2 * (r % 2))) * flip / denom


def _kernel_view(dim: int, rows: int, cols: int, step: int, offset: int) -> np.ndarray:
    """Read-only view V[j, k] = _kernel_table(dim)[(j + step k + offset) mod 2 dim].

    Row j + 1 starts one entry after row j, so V is a strided window over
    the table repeated end to end: no index array, and O(dim) memory.
    """
    span = abs(step) * (cols - 1) + 1
    start = (offset + min(step, 0) * (cols - 1)) % (2 * dim)
    reps = -(-(start + rows + span - 1) // (2 * dim))
    windows = sliding_window_view(np.tile(_kernel_table(dim), reps), span)
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

        Site j sits at q_j = (2j + 1)/(2 dim), so it is absorbed when the
        odd integer 2j + 1 falls in the opening's window over 2 dim: the
        same exact test the classical side runs, edge sites included.
        """
        low, width = self.opening.window(2 * self.dim)
        return (2 * np.arange(self.dim) + 1 - low) % (2 * self.dim) >= width

    def canonical_mask(self) -> np.ndarray:
        """kept_mask or its mirror image, whichever sorts first.

        R: j -> dim-1-j commutes with B bit for bit, so both give one spectrum.
        """
        keep = self.kept_mask()
        return keep[::-1] if keep[::-1].tobytes() < keep.tobytes() else keep


def open_propagator(spec: PropagatorSpec, keep: np.ndarray | None = None) -> np.ndarray:
    """Closed propagator with absorbed columns zeroed, column-major.

    Zeroing columns equals right-multiplying by the projector, with no
    floating-point product involved.  keep, spec's kept mask by default,
    may be its mirror image: R B R = B bit for bit, so that gives R A R
    without reversing A.
    """
    b = baker_propagator(spec.dim)
    b[:, ~(spec.kept_mask() if keep is None else keep)] = 0
    return b


def parity_block(dim: int, keep: np.ndarray, sign: int) -> np.ndarray:
    """Even (sign 1) or odd (sign -1) block A11 + sign A12 J of the opened B.

    For a mirror-symmetric kept mask, A = B P commutes with the reflection
    R: j -> dim-1-j, and its spectrum is that of these two blocks of size
    h = dim/2, J reversing h indices.  Entry (j, k) is

        keep[k] (K[(j - 2k - 1) mod 2 dim] + sign i (-1)^j K[(j + 2k + 1 - dim) mod 2 dim])

    with K the kernel table, the second term being column dim-1-k of B.
    The products and sums are those of slicing open_propagator, so the
    entries agree with it bit for bit; only the h x h block is allocated,
    column-major.
    """
    h = dim // 2
    block = np.multiply(
        _kernel_view(dim, h, h, 2, 1 - dim), _row_twist(np.arange(h)[:, None]), order="F"
    )
    combine = np.add if sign > 0 else np.subtract
    combine(_kernel_view(dim, h, h, -2, -1), block, out=block)
    block[:, ~keep[:h]] = 0
    return block


def propagator_diagonal(dim: int) -> np.ndarray:
    """Diagonal of the closed propagator from the closed form, in O(dim).

    Used to check the trace identity against a stored spectrum without
    building the matrix: B_jj is column j mod dim/2 at row j, twisted for
    the right half.
    """
    _check_dim(dim)
    h = dim // 2
    j = np.arange(dim)
    diag = _kernel_table(dim)[(j - 2 * (j % h) - 1) % (2 * dim)]
    diag[h:] *= _row_twist(j[h:])
    return diag


def open_trace(spec: PropagatorSpec) -> complex:
    """Trace of the opened propagator from its diagonal alone."""
    diag = propagator_diagonal(spec.dim)
    return complex(diag[spec.kept_mask()].sum())


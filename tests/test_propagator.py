"""Quantized propagators: kernels, openings, diagonals."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from openbaker.classical import OpeningSpec
from openbaker.propagator import (
    PropagatorSpec,
    _kernel_view,
    _row_twist,
    baker_propagator,
    kept_block,
    open_propagator,
    open_trace,
    parity_block,
)
from oracles import contains_q, gn_matrix, removed_count


def test_kernel_smallest_cases():
    g1 = gn_matrix(1)
    assert abs(g1[0, 0] - (-1j)) < 1e-12
    g2 = gn_matrix(2)
    assert abs(g2[0, 0] - np.exp(-1j * np.pi / 4) / np.sqrt(2)) < 1e-12
    with pytest.raises(ValueError):
        gn_matrix(0)


@pytest.mark.parametrize("n", [3, 8, 17])
def test_kernel_unitary(n):
    g = gn_matrix(n)
    assert np.abs(g @ g.conj().T - np.eye(n)).max() < 1e-12


def test_two_site_propagator():
    b = baker_propagator(2)
    assert np.abs(b - (-1j) * gn_matrix(2).conj().T).max() < 1e-12
    w = np.sort(np.linalg.eigvals(b))
    expected = np.sort(np.array([1.0 + 0j, -1j]))
    # two eigenvalues, match as a pair either way around
    d1 = max(abs(w[0] - expected[0]), abs(w[1] - expected[1]))
    d2 = max(abs(w[0] - expected[1]), abs(w[1] - expected[0]))
    assert min(d1, d2) < 1e-10


@pytest.mark.parametrize("bad", [-2, 0, 7, 601])
def test_even_dimension_required(bad):
    with pytest.raises(ValueError, match="even dimension"):
        baker_propagator(bad)
    with pytest.raises(ValueError, match="even dimension"):
        PropagatorSpec(bad, OpeningSpec(0.5, 0.1))


def definitional_propagator(n):
    """G_n^dagger blockdiag(G_{n/2}, G_{n/2}) by dense matrix product."""
    return gn_matrix(n).conj().T @ np.kron(np.eye(2), gn_matrix(n // 2))


@pytest.mark.parametrize("n", [2, 4, 10, 64, 602])
def test_closed_form_matches_definition(n):
    b = baker_propagator(n)
    assert np.abs(b - definitional_propagator(n)).max() < 2.5e-13
    assert np.abs(b @ b.conj().T - np.eye(n)).max() < 3e-13


@pytest.mark.parametrize("n", [2, 64, 602])
def test_propagator_commutes_with_reflection(n):
    # R: j -> n-1-j; the parity split of the opened solve relies on RBR = B
    b = baker_propagator(n)
    assert np.abs(b[::-1, ::-1] - b).max() < 1e-14


@pytest.mark.parametrize("n", [2, 10, 50])
def test_propagator_unitary(n):
    b = baker_propagator(n)
    assert np.abs(b @ b.conj().T - np.eye(n)).max() < 1e-11


def test_kept_mask_small_grid():
    spec = PropagatorSpec(4, OpeningSpec(0.5, 0.5))
    assert spec.kept_mask().tolist() == [True, False, False, True]
    assert removed_count(spec) == 2


def test_kept_mask_edge_site():
    # grid point exactly on the left edge is absorbed, on the right kept
    spec = PropagatorSpec(10, OpeningSpec(Fraction(2, 5), Fraction(3, 10)))
    lo, hi = spec.opening.edges()
    assert lo == Fraction(1, 4) and hi == Fraction(11, 20)
    mask = spec.kept_mask()
    assert not mask[2]  # q = 1/4 sits on the closed edge
    assert mask[5]  # q = 11/20 sits on the open edge


def test_kept_mask_matches_site_by_site_membership():
    # N = 10 * odd puts a site on the closed edge 0.45 of (0.5, 0.1);
    # q_c = 0 and 0.975 wrap through q = 0; delta_q = 0 and 1 are the extremes
    centres = [Fraction(k, 40) for k in range(40)] + [Fraction(1, 3)]
    widths = [Fraction(w) for w in ("0", "1", "0.05", "0.1", "0.2", "0.3", "0.99")]
    for dim in (2, 4, 10, 30, 50, 64, 130, 490):
        for qc in centres:
            for dq in widths:
                spec = PropagatorSpec(dim, OpeningSpec(qc, dq))
                expected = [
                    not contains_q(spec.opening, Fraction(2 * j + 1, 2 * dim))
                    for j in range(dim)
                ]
                assert spec.kept_mask().tolist() == expected, (dim, qc, dq)


@pytest.mark.parametrize("dim", [32, 100, 602])
def test_removed_count_tracks_width(dim):
    spec = PropagatorSpec(dim, OpeningSpec(0.3, 0.1))
    assert abs(removed_count(spec) - dim * 0.1) <= 1


def test_open_propagator_columns():
    spec = PropagatorSpec(16, OpeningSpec(0.5, 0.25))
    closed = baker_propagator(16)
    opened = open_propagator(spec)
    keep = spec.kept_mask()
    assert (opened[:, ~keep] == 0).all()
    assert (opened[:, keep] == closed[:, keep]).all()


@pytest.mark.parametrize("dim", [16, 64, 2048])
def test_diagonal_shortcut(dim):
    # open_trace evaluates the closed-form diagonal at the kept sites only
    b = baker_propagator(dim)
    for qc, dq in (("0.3", "0.1"), ("0.5", "0.1"), ("0", "0.4"), ("0.5", "0"), ("0.5", "1")):
        spec = PropagatorSpec(dim, OpeningSpec(qc, dq))
        keep = spec.kept_mask()
        assert abs(open_trace(spec) - np.trace(open_propagator(spec))) < 1e-10
        assert abs(open_trace(spec) - np.diag(b)[keep].sum()) < 1e-12


def symmetric_mask(spec) -> np.ndarray:
    keep = spec.kept_mask()
    assert (keep == keep[::-1]).all(), spec
    return keep


def sliced_blocks(a):
    """A11 + A12 J and A11 - A12 J sliced from the full opened matrix."""
    h = a.shape[0] // 2
    a11, a12j = a[:h, :h], a[:h, h:][:, ::-1]
    return a11 + a12j, a11 - a12j


def kept_slice(m, keep) -> bytes:
    """The bytes of m's kept rows and columns, column-major, as a builder lays them out."""
    kept = np.flatnonzero(keep)
    return np.asfortranarray(m[np.ix_(kept, kept)]).tobytes(order="F")


# N = 602 has an odd half size; (0.5, 0) is the closed map and (0, 0.4)
# wraps through q = 0
@pytest.mark.parametrize("dim", [2, 4, 602, 1262])
@pytest.mark.parametrize(
    "qc,dq", [("0.5", "0"), ("0", "0.4"), ("0.5", "0.1"), ("0.5", "0.15"), ("0.5", "0.2")]
)
def test_parity_blocks_are_slices_of_the_opened_matrix(dim, qc, dq):
    spec = PropagatorSpec(dim, OpeningSpec(qc, dq))
    keep = symmetric_mask(spec)
    even, odd = sliced_blocks(open_propagator(spec))
    for sign, expected in ((1, even), (-1, odd)):
        block = parity_block(dim, keep, sign)
        # only the kept k < dim/2: the rows and columns of the absorbed ones
        # are never built
        assert block.shape == (keep[: dim // 2].sum(),) * 2 and block.flags.f_contiguous
        # bit for bit, signed zeros included
        assert block.tobytes(order="F") == kept_slice(expected, keep[: dim // 2])


def zeroed_columns(dim, keep):
    """B with the columns outside keep zeroed; keep may be a mirror image of a
    spec's mask, since R B R = B bit for bit."""
    b = baker_propagator(dim)
    b[:, ~keep] = 0
    return b


def zeroed_parity_block(dim, keep, sign):
    """The dim/2 x dim/2 parity block with its absorbed columns zeroed, built
    on every site as before the blocks were restricted to the kept ones."""
    h = dim // 2
    block = np.multiply(_kernel_view(dim, h, h, 2, 1 - dim), _row_twist(np.arange(h)[:, None]),
                        order="F")
    (np.add if sign > 0 else np.subtract)(_kernel_view(dim, h, h, -2, -1), block, out=block)
    block[:, ~keep[:h]] = 0
    return block


# every opening of the criterion-07 and criterion-08 kinds, a mirror
# image, an asymmetric mask at N = 10 (mod 20), the closed map, a hole
# through q = 0 and one that absorbs every site
OPENINGS = [("0.5", "0.1"), ("0.3", "0.2"), ("0.7", "0.2"), ("0.3", "0.1"), ("0.5", "0.05"),
            ("0.5", "0"), ("0", "0.4"), ("0.5", "1")]


@pytest.mark.parametrize("dim", [10, 50, 64, 602])
def test_kept_builders_are_kept_slices(dim):
    for qc, dq in OPENINGS:
        spec = PropagatorSpec(dim, OpeningSpec(qc, dq))
        for keep in (spec.kept_mask(), spec.canonical_mask()):
            block = kept_block(dim, keep)
            assert block.shape == (keep.sum(),) * 2 and block.flags.f_contiguous
            assert block.tobytes(order="F") == kept_slice(zeroed_columns(dim, keep), keep)
            if (keep == keep[::-1]).all():
                even, odd = sliced_blocks(zeroed_columns(dim, keep))
                for sign, sliced in ((1, even), (-1, odd)):
                    block = parity_block(dim, keep, sign)
                    assert block.tobytes(order="F") == kept_slice(sliced, keep[: dim // 2])
                    zeroed = zeroed_parity_block(dim, keep, sign)
                    assert block.tobytes(order="F") == kept_slice(zeroed, keep[: dim // 2])


@pytest.mark.parametrize("dim", [602, 2048])
def test_kept_builders_allocate_only_their_block(dim):
    # the calling thread builds a block while others solve, so no dim x dim
    # or dim/2 x dim/2 temporary may exist: only the block, O(dim) kernel
    # tables and numpy's fixed-size ufunc buffers (0.3-0.8 MB measured)
    allowance = 2**20
    assert allowance < 16 * (dim // 2) ** 2
    for qc, build in (("0.3", lambda keep: kept_block(dim, keep)),
                      ("0.5", lambda keep: parity_block(dim, keep, -1)),
                      ("0.7", lambda keep: kept_block(dim, keep))):
        keep = PropagatorSpec(dim, OpeningSpec(qc, "0.1")).kept_mask()
        tracemalloc.start()
        try:
            block = build(keep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= block.nbytes + allowance, (qc, (peak - block.nbytes) / 2**20)


@pytest.mark.parametrize("dim", [2, 4, 6, 10, 16])
def test_parity_blocks_match_definition(dim):
    # every mirror-symmetric mask a strip can cut from the grid
    b = definitional_propagator(dim)
    masks = set()
    for a in range(2 * dim):
        for w in range(dim + 1):
            opening = OpeningSpec(Fraction(a, 2 * dim), Fraction(w, dim))
            keep = PropagatorSpec(dim, opening).kept_mask()
            if (keep == keep[::-1]).all():
                masks.add(tuple(keep))
    assert len(masks) == dim
    for mask in masks:
        keep = np.array(mask)
        kept = np.flatnonzero(keep[: dim // 2])
        even, odd = sliced_blocks(b * keep)
        for sign, sliced in ((1, even), (-1, odd)):
            expected = sliced[np.ix_(kept, kept)]
            assert np.abs(parity_block(dim, keep, sign) - expected).max(initial=0) < 1e-12

"""Disk cache for computed spectra.

A spectrum is fixed by the dimension and the canonical kept mask, which
already encodes the grid and endpoint conventions, so entries are keyed
by a hash of those two and the solver version: openings that absorb the
same sites, or mirror images of each other, share one entry.  An entry
is one write-once file, <key>.c16: the 32-byte sha256 digest of the
values, then the values as raw little-endian complex128, 16 bytes per
mode.  It holds nothing else, so equal spectra leave equal bytes.  A load
reads the file once and checks the digest against exactly the bytes it
decodes, their length against the dimension, and the values against the
trace identity of a freshly rebuilt propagator diagonal.
"""

from __future__ import annotations

import functools
import hashlib
import os
import tempfile
from contextlib import suppress
from pathlib import Path

import numpy as np

# unused here; they stay importable for the benchmark's span tracer until
# it is re-pointed (ROADMAP item 5)
from .csvio import read_spectrum_csv, sha256_file, write_spectrum_csv  # noqa: F401
from .propagator import PropagatorSpec, open_trace
from .spectra import ResonanceSet, resonance_sets

# bump when the solver or the entry format changes; 4: every block solved
# on one BLAS thread; 5: raw complex128 payloads, not CSV; 6: the digest
# heads the payload, and no manifest
SOLVER_VERSION = 6

PAYLOAD_DTYPE = np.dtype("<c16")
DIGEST_SIZE = hashlib.sha256().digest_size

TRACE_TOL_PER_DIM = 1e-8


class CacheError(RuntimeError):
    """A cache entry exists but fails its integrity checks."""


@functools.lru_cache(maxsize=4096)
def cache_key(spec: PropagatorSpec) -> str:
    """Hash of the dimension, canonical mask and solver version; memoized."""
    keep = spec.canonical_mask()
    head = f"dim={spec.dim};solver={SOLVER_VERSION};keep=".encode("ascii")
    return hashlib.sha256(head + keep.tobytes()).hexdigest()


class SpectrumCache:
    """Write-once store of spectra, one file each, in a directory the first store makes."""

    def __init__(self, root):
        self.root = Path(root)

    def entry_path(self, spec: PropagatorSpec) -> Path:
        return self.root / (cache_key(spec) + ".c16")

    def has(self, spec: PropagatorSpec) -> bool:
        return self.entry_path(spec).exists()

    def store(self, spec: PropagatorSpec, rs: ResonanceSet) -> Path:
        """Stage digest and values, then hard-link them in; a committed entry is kept."""
        path = self.entry_path(spec)
        values = np.asarray(rs.values, dtype=PAYLOAD_DTYPE).tobytes()
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=path.name, suffix=".tmp")
        os.close(fd)
        try:
            Path(tmp).write_bytes(hashlib.sha256(values).digest() + values)
            with suppress(FileExistsError):
                os.link(tmp, path)
        finally:
            os.unlink(tmp)
        return path

    def load(self, spec: PropagatorSpec) -> ResonanceSet:
        """Read the entry once and verify it (module docstring), read-only."""
        path = self.entry_path(spec)
        data = path.read_bytes()
        actual = hashlib.sha256(memoryview(data)[DIGEST_SIZE:]).digest()
        if data[:DIGEST_SIZE] != actual:
            raise CacheError(
                f"checksum mismatch for {path.name}: "
                f"stored {data[:DIGEST_SIZE].hex()}, values {actual.hex()}"
            )
        size = len(data) - DIGEST_SIZE
        if size != PAYLOAD_DTYPE.itemsize * spec.dim:
            raise CacheError(
                f"{path.name} holds {size / PAYLOAD_DTYPE.itemsize:g} modes, "
                f"expected {spec.dim}"
            )
        values = np.frombuffer(data, PAYLOAD_DTYPE, offset=DIGEST_SIZE)  # read-only
        gap = abs(complex(values.sum()) - open_trace(spec))
        if gap > TRACE_TOL_PER_DIM * spec.dim:
            raise CacheError(
                f"trace identity violated for {path.name}: |sum - trace| = {gap:.3e}"
            )
        return ResonanceSet(spec=spec, values=values)

    def solve(self, specs, jobs: int = 1) -> tuple[dict, set]:
        """Load or solve each spec, in order; return ({spec: ResonanceSet}, hits).

        Each cache entry (mirror openings share one) is loaded once, or solved
        by resonance_sets, stored and read back while the rest solve: all get
        verified stored values.  jobs bounds the bytes of matrices alive at
        jobs times the largest miss's.  hits holds the specs stored before
        the call.  specs may be any iterable, a generator included.
        """
        specs = list(specs)
        first = {}
        for spec in specs:
            first.setdefault(cache_key(spec), spec)
        stored = {key: spec for key, spec in first.items() if self.has(spec)}
        values = {key: self.load(spec).values for key, spec in stored.items()}
        misses = [spec for key, spec in first.items() if key not in stored]
        for rs in resonance_sets(misses, jobs):
            self.store(rs.spec, rs)
            values[cache_key(rs.spec)] = self.load(rs.spec).values
        solved = {spec: ResonanceSet(spec, values[cache_key(spec)]) for spec in specs}
        return solved, {spec for spec in specs if cache_key(spec) in stored}

    def get_or_compute(self, spec: PropagatorSpec) -> tuple[ResonanceSet, bool]:
        """The one-spec form of solve: (verified spectrum, whether it was a hit)."""
        solved, hits = self.solve([spec])
        return solved[spec], spec in hits

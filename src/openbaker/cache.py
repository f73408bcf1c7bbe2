"""Disk cache for computed spectra.

A spectrum is fixed by the dimension and the canonical kept mask, which
already encodes the grid and endpoint conventions, so entries are keyed
by a hash of those two and the solver version: openings that absorb the
same sites, or mirror images of each other, share one entry.  The payload
is the solved spectrum as raw little-endian complex128 bytes, 16 per
mode, written once; a JSON manifest carries its checksum and a
timestamp.  A load reads the payload once and validates those bytes
against the checksum, their length against the dimension, and the values
against the trace identity of a freshly rebuilt propagator diagonal.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
# unused here; they stay importable for the benchmark's span tracer until
# it is re-pointed (ROADMAP item 5)
from .csvio import read_spectrum_csv, sha256_file, write_spectrum_csv  # noqa: F401
from .propagator import PropagatorSpec, open_trace
from .spectra import ResonanceSet, resonance_set

# bump when the solver or the payload format changes; 4: every block
# solved on one BLAS thread; 5: raw complex128 payloads, not CSV
SOLVER_VERSION = 5

PAYLOAD_DTYPE = np.dtype("<c16")

TRACE_TOL_PER_DIM = 1e-8


class CacheError(RuntimeError):
    """A cache entry exists but fails its integrity checks."""


@functools.lru_cache(maxsize=4096)
def cache_key(spec: PropagatorSpec) -> str:
    """Hash of the dimension, canonical mask and solver version; memoized."""
    keep, _ = spec.canonical_mask()
    head = f"dim={spec.dim};solver={SOLVER_VERSION};keep=".encode("ascii")
    return hashlib.sha256(head + keep.tobytes()).hexdigest()


@contextmanager
def _staged(path: Path):
    """A uniquely named temp file beside path, removed unless renamed away."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    os.close(fd)
    try:
        yield tmp
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


class SpectrumCache:
    """Write-once store of spectra under one directory."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def payload_path(self, spec: PropagatorSpec) -> Path:
        return self.root / (cache_key(spec) + ".c16")

    def manifest_path(self, spec: PropagatorSpec) -> Path:
        return self.root / (cache_key(spec) + ".json")

    def has(self, spec: PropagatorSpec) -> bool:
        return self.payload_path(spec).exists() and self.manifest_path(spec).exists()

    def store(self, spec: PropagatorSpec, rs: ResonanceSet) -> Path:
        """Write the payload once, then the manifest by atomic rename.

        A payload already in place is kept, and the manifest records the
        checksum of the payload on disk.
        """
        payload, manifest_path = self.payload_path(spec), self.manifest_path(spec)
        data = np.asarray(rs.values, dtype=PAYLOAD_DTYPE).tobytes()
        with _staged(payload) as tmp:
            Path(tmp).write_bytes(data)
            try:
                os.link(tmp, payload)
            except FileExistsError:
                data = payload.read_bytes()
        manifest = {
            "dim": spec.dim,
            "solver_version": SOLVER_VERSION,
            "sha256": hashlib.sha256(data).hexdigest(),
            "created": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
            "tool_version": __version__,
        }
        text = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("ascii")
        with _staged(manifest_path) as tmp:
            Path(tmp).write_bytes(text)
            os.replace(tmp, manifest_path)
        return payload

    def load(self, spec: PropagatorSpec) -> ResonanceSet:
        """Rebuild a ResonanceSet from disk, verifying integrity.

        Reads the payload once and checks those bytes against the manifest
        checksum and their length against 16 per mode, then the trace
        identity: the eigenvalue sum must match the trace of the opened
        propagator recomputed from scratch.
        """
        payload, manifest_path = self.payload_path(spec), self.manifest_path(spec)
        try:
            manifest = json.loads(manifest_path.read_text(encoding="ascii"))
        except ValueError as exc:  # not JSON, or not ASCII
            raise CacheError(f"unreadable manifest {manifest_path.name}: {exc}") from None
        if not isinstance(manifest, dict):
            raise CacheError(f"manifest {manifest_path.name} is not a JSON object")
        data = payload.read_bytes()
        actual = hashlib.sha256(data).hexdigest()
        if manifest.get("sha256") != actual:
            raise CacheError(
                f"checksum mismatch for {payload.name}: "
                f"manifest {manifest.get('sha256')}, payload {actual}"
            )
        if len(data) != PAYLOAD_DTYPE.itemsize * spec.dim:
            raise CacheError(
                f"{payload.name} holds {len(data) / PAYLOAD_DTYPE.itemsize:g} modes, "
                f"expected {spec.dim}"
            )
        values = np.frombuffer(data, PAYLOAD_DTYPE)  # read-only, over data
        gap = abs(complex(values.sum()) - open_trace(spec))
        if gap > TRACE_TOL_PER_DIM * spec.dim:
            raise CacheError(
                f"trace identity violated for {payload.name}: |sum - trace| = {gap:.3e}"
            )
        return ResonanceSet(spec=spec, values=values)

    def get_or_compute(self, spec: PropagatorSpec) -> tuple[ResonanceSet, bool]:
        """Return the cached spectrum, computing and storing on a miss.

        The result is always the verified load of the stored payload,
        which holds the solver's bits, so hits, misses and
        resonance_set(spec) hand the same numbers downstream.
        """
        if self.has(spec):
            return self.load(spec), True
        self.store(spec, resonance_set(spec))
        return self.load(spec), False

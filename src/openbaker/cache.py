"""Disk cache for computed spectra.

A spectrum is fixed by the dimension and the canonical kept mask, which
already encodes the grid and endpoint conventions, so entries are keyed
by a hash of those two and the solver version: openings that absorb the
same sites, or mirror images of each other, share one entry.  The payload
is the spectrum CSV itself, written once; a JSON manifest carries its
checksum and a timestamp.  Loads are validated against the checksum and
against the trace identity of a freshly rebuilt propagator diagonal.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
import time
from contextlib import contextmanager, suppress
from pathlib import Path

from . import __version__
from .csvio import read_spectrum_csv, sha256_file, write_spectrum_csv
from .propagator import PropagatorSpec, open_trace
from .spectra import ResonanceSet, resonance_set

# bump when the solver or the payload's number format (csvio) changes;
# 4: every block solved on one BLAS thread
SOLVER_VERSION = 4

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
    """Write-once store of spectrum CSVs under one directory."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def payload_path(self, spec: PropagatorSpec) -> Path:
        return self.root / (cache_key(spec) + ".csv")

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
        with _staged(payload) as tmp:
            write_spectrum_csv(tmp, rs.values)
            with suppress(FileExistsError):
                os.link(tmp, payload)
        manifest = {
            "dim": spec.dim,
            "solver_version": SOLVER_VERSION,
            "sha256": sha256_file(payload),
            "created": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
            "tool_version": __version__,
        }
        data = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("ascii")
        with _staged(manifest_path) as tmp:
            Path(tmp).write_bytes(data)
            os.replace(tmp, manifest_path)
        return payload

    def load(self, spec: PropagatorSpec) -> ResonanceSet:
        """Rebuild a ResonanceSet from disk, verifying integrity.

        Checks the manifest checksum against the payload bytes, then the
        trace identity: the eigenvalue sum must match the trace of the
        opened propagator recomputed from scratch.
        """
        payload, manifest_path = self.payload_path(spec), self.manifest_path(spec)
        try:
            manifest = json.loads(manifest_path.read_text(encoding="ascii"))
        except ValueError as exc:  # not JSON, or not ASCII
            raise CacheError(f"unreadable manifest {manifest_path.name}: {exc}") from None
        if not isinstance(manifest, dict):
            raise CacheError(f"manifest {manifest_path.name} is not a JSON object")
        actual = sha256_file(payload)
        if manifest.get("sha256") != actual:
            raise CacheError(
                f"checksum mismatch for {payload.name}: "
                f"manifest {manifest.get('sha256')}, payload {actual}"
            )
        values = read_spectrum_csv(payload)
        if values.size != spec.dim:
            raise CacheError(
                f"{payload.name} holds {values.size} modes, expected {spec.dim}"
            )
        gap = abs(complex(values.sum()) - open_trace(spec))
        if gap > TRACE_TOL_PER_DIM * spec.dim:
            raise CacheError(
                f"trace identity violated for {payload.name}: |sum - trace| = {gap:.3e}"
            )
        values.setflags(write=False)
        return ResonanceSet(spec=spec, values=values)

    def get_or_compute(self, spec: PropagatorSpec) -> tuple[ResonanceSet, bool]:
        """Return the cached spectrum, computing and storing on a miss.

        The result is always the verified parse-back of the stored CSV,
        which round-trips exactly, so hits, misses and resonance_set(spec)
        hand the same numbers downstream.
        """
        if self.has(spec):
            return self.load(spec), True
        self.store(spec, resonance_set(spec))
        return self.load(spec), False

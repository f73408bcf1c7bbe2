"""Disk cache for computed spectra.

Entries are keyed by a hash of the physical parameters plus convention
and solver version strings, so a change in grid or endpoint conventions
invalidates old data instead of silently mixing with it.  The payload is
the spectrum CSV itself; a JSON manifest carries the parameters, a
checksum and a timestamp.  Loads are validated against the checksum and
against the trace identity of a freshly rebuilt propagator diagonal.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from pathlib import Path

from . import __version__
from .csvio import read_spectrum_csv, sha256_file, write_spectrum_csv
from .propagator import PropagatorSpec, open_trace
from .spectra import ResonanceSet, resonance_set

# bump when endpoint/grid conventions change, or when the solver pipeline
# or the payload's number format (csvio.write_spectrum_csv) changes
CONVENTION_VERSION = 1
SOLVER_VERSION = 3

TRACE_TOL_PER_DIM = 1e-8


class CacheError(RuntimeError):
    """A cache entry exists but fails its integrity checks."""


def cache_key(spec: PropagatorSpec) -> str:
    """Stable hash of the parameters and the convention versions.

    OpeningSpec holds q_c and delta_q as exact rationals, so 0.1, "0.1"
    and Fraction(1, 10) address the same entry.
    """
    opening = spec.opening
    text = (
        f"dim={spec.dim};qc={opening.q_c};dq={opening.delta_q};"
        f"conv={CONVENTION_VERSION};solver={SOLVER_VERSION}"
    )
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _atomic_write(path: Path, write) -> None:
    """Run write(tmp) on a fresh temp file beside path, then rename it.

    Every writer stages under its own unique name, so concurrent writers
    of one entry never rename each other's staged file.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    os.close(fd)
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class SpectrumCache:
    """Content-addressed store of spectrum CSVs under one directory."""

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
        """Write payload then manifest, each through an atomic rename."""
        payload = self.payload_path(spec)
        _atomic_write(payload, lambda tmp: write_spectrum_csv(tmp, rs.values))
        manifest = {
            "dim": spec.dim,
            "q_c": str(spec.opening.q_c),
            "delta_q": str(spec.opening.delta_q),
            "convention_version": CONVENTION_VERSION,
            "solver_version": SOLVER_VERSION,
            "sha256": sha256_file(payload),
            "created": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
            "tool_version": __version__,
        }
        data = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("ascii")
        _atomic_write(self.manifest_path(spec), lambda tmp: Path(tmp).write_bytes(data))
        return payload

    def load(self, spec: PropagatorSpec) -> ResonanceSet:
        """Rebuild a ResonanceSet from disk, verifying integrity.

        Checks the manifest checksum against the payload bytes, then the
        trace identity: the eigenvalue sum must match the trace of the
        opened propagator recomputed from scratch.
        """
        payload = self.payload_path(spec)
        with open(self.manifest_path(spec), "r", encoding="ascii") as fh:
            manifest = json.load(fh)
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

"""Schema-exact CSV, PGM and manifest emission.

Every writer fixes its header and number formatting so that repeated
runs with identical inputs produce byte-identical files.  Each produced
file can get a sidecar JSON manifest recording the full parameter set,
the tool version and a content checksum.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .stats import ModulusHistogram, RescaledHistogram, WeylDataPoint, WidthPoint
from .trapped import SurvivalSeries

SWEEP_HEADER = "q_c,delta_q,t,area"
SERIES_HEADER = "t,area"
SPECTRUM_HEADER = "index,re,im,modulus,gamma"
CUMULATIVE_HEADER = "nu,n"
HISTOGRAM_HEADER = "nu_bin_left,W"
WIDTH_HEADER = "N,q_c,sigma"
RESCALED_HEADER = "gamma_over_gamma_cl,W"
WEYL_HEADER = "N,count,log10N,log10count"
# rows per write: writing each file's whole text at once, with its bytes
# beside it, raised the warm stats benchmark's peak RSS by 0.27 MB
_WRITE_ROWS = 512


def _write_text(path, header: str, lines: Iterable[str]) -> None:
    """Write header and the already formatted, newline-terminated rows.

    The rows go _WRITE_ROWS at a time, one encode and one write each, so
    only one block's text is alive beside the rows' source.  Each writer
    formats a row with one %-format: "%.Ng" renders a number exactly as
    format(float(x), ".Ng") does, infinities as inf.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = iter(lines)
    with open(path, "wb") as fh:
        fh.write((header + "\n").encode("ascii"))
        # every row ends in a newline, so only an exhausted iterator joins to ""
        while block := "".join(itertools.islice(lines, _WRITE_ROWS)):
            fh.write(block.encode("ascii"))


def write_sweep_csv(path, delta_q, t: int, rows) -> None:
    """One row per grid point: (q_c, area) pairs at fixed width and time."""
    _write_text(
        path,
        SWEEP_HEADER,
        ("%.12g,%.12g,%d,%.12g\n" % (qc, delta_q, t, area) for qc, area in rows),
    )


def write_series_csv(path, series: SurvivalSeries) -> None:
    _write_text(
        path, SERIES_HEADER, ("%d,%.12g\n" % row for row in enumerate(series.areas))
    )


def write_spectrum_csv(path, values: np.ndarray) -> None:
    """Eigenvalues in their stored order, one row per mode.

    17 significant digits identify every double, so read_spectrum_csv
    returns exactly the values written.  The columns become Python floats
    _WRITE_ROWS rows at a time, so no whole-spectrum float list is alive.
    """
    moduli = np.abs(values)
    with np.errstate(divide="ignore"):
        gammas = -2.0 * np.log(moduli)
    columns = (values.real, values.imag, moduli, gammas)
    rows = itertools.chain.from_iterable(
        zip(itertools.count(start), *(c[start : start + _WRITE_ROWS].tolist() for c in columns))
        for start in range(0, values.size, _WRITE_ROWS)
    )
    _write_text(
        path, SPECTRUM_HEADER, ("%d,%.17g,%.17g,%.17g,%.17g\n" % row for row in rows)
    )


def read_spectrum_csv(path) -> np.ndarray:
    """Parse the eigenvalue column pair back into a complex array."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().rstrip("\n")
        if header != SPECTRUM_HEADER:
            raise ValueError(f"unexpected spectrum header {header!r} in {path}")
        re, im = [], []
        for line in fh:
            parts = line.rstrip("\n").split(",")
            if len(parts) != 5:
                raise ValueError(f"malformed spectrum row in {path}: {line!r}")
            re.append(float(parts[1]))
            im.append(float(parts[2]))
    return np.array(re, dtype=float) + 1j * np.array(im, dtype=float)


def write_cumulative_csv(path, nu: np.ndarray, n: np.ndarray) -> None:
    _write_text(path, CUMULATIVE_HEADER, ("%.15g,%.15g\n" % row for row in zip(nu, n)))


def write_histogram_csv(path, hist: ModulusHistogram) -> None:
    _write_text(
        path,
        HISTOGRAM_HEADER,
        ("%.15g,%.15g\n" % row for row in zip(hist.left_edges, hist.density)),
    )


def write_width_csv(path, points: Sequence[WidthPoint]) -> None:
    _write_text(
        path,
        WIDTH_HEADER,
        ("%d,%.15g,%.15g\n" % (p.dim, p.q_c, p.sigma) for p in points),
    )


def write_rescaled_csv(path, rh: RescaledHistogram) -> None:
    """One row per decay bin, located at the bin midpoint."""
    _write_text(
        path,
        RESCALED_HEADER,
        ("%.15g,%.15g\n" % row for row in zip(rh.midpoints, rh.density)),
    )


def write_weyl_csv(path, points: Sequence[WeylDataPoint]) -> None:
    _write_text(
        path,
        WEYL_HEADER,
        (
            "%d,%d,%.15g,%.15g\n"
            % (p.dim, p.count, np.log10(p.dim), np.log10(p.count))
            for p in points
        ),
    )


def write_pgm(path, trapped: np.ndarray) -> None:
    """Binary PGM raster: trapped cells black (0), escaped white (255)."""
    trapped = np.asarray(trapped)
    if trapped.ndim != 2 or trapped.dtype != bool:
        raise ValueError("raster must be a 2-d boolean array")
    h, w = trapped.shape
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # one uint8 byte per pixel, the only copy of the raster made here
    pixels = np.full((h, w), 255, dtype=np.uint8)
    np.copyto(pixels, 0, where=trapped)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels)


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(target_path, parameters: dict) -> Path:
    """Sidecar record tying a produced file to its exact parameters.

    Deliberately timestamp-free so reruns stay byte-identical.
    """
    target_path = Path(target_path)
    record = {
        "file": target_path.name,
        "parameters": parameters,
        "sha256": sha256_file(target_path),
        "tool_version": __version__,
    }
    out = target_path.with_name(target_path.name + ".manifest.json")
    with open(out, "w", encoding="ascii", newline="\n") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return out

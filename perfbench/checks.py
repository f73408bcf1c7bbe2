"""Output checks, written independently of the openbaker package.

Each check returns ``(name, ok, detail)``.  None depends on the seed,
and none compares floating-point results of the solver bit for bit:
they hold for any solver that moves the last few bits.

- spectral invariants of an emitted spectrum: sum z against the trace
  of the opened propagator, sum z^2 against tr(B^2), |z| <= 1 + 1e-8 and
  at least as many near-zero moduli as absorbed columns;
- Weyl counts and half-height widths recounted from emitted spectra;
- survivor areas A(t <= 9) recounted exactly on dyadic cells;
- Monte Carlo areas within 5 standard errors of the series;
- byte-identical output trees across reruns.
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

import numpy as np

SPECTRUM_HEADER = "index,re,im,modulus,gamma"
TRACE_TOL_PER_DIM = 1e-8  # scale of acceptance criterion 06
MODULUS_TOL = 1e-8
NEAR_ZERO = 1e-6
TAIL_LO = 0.7
BIN_WIDTH = 0.01
NU_CUT = 0.3
MC_SE = 5.0
AREA_RTOL = 1e-11  # areas are written with 12 significant digits


def read_rows(path: Path, header: str) -> list[list[str]]:
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name}: header {lines[:1]} is not {header!r}")
    return [line.split(",") for line in lines[1:]]


def read_spectrum(path: Path) -> np.ndarray:
    rows = read_rows(path, SPECTRUM_HEADER)
    return np.array([complex(float(r[1]), float(r[2])) for r in rows])


def strip(qc: Fraction, dq: Fraction) -> tuple[Fraction, Fraction]:
    """Half-open absorbing strip [qc - dq/2, qc + dq/2) with lo in [0, 1)."""
    lo = (qc - dq / 2) % 1
    return lo, lo + dq


def kept_sites(n: int, qc: Fraction, dq: Fraction) -> np.ndarray:
    """True at grid sites q_j = (2j+1)/2n outside the strip."""
    lo, hi = strip(qc, dq)
    keep = np.ones(n, dtype=bool)
    for j in range(n):
        q = Fraction(2 * j + 1, 2 * n)
        inside = lo <= q < hi if hi <= 1 else (q >= lo or q < hi - 1)
        keep[j] = not inside
    return keep


def closed_propagator(n: int) -> np.ndarray:
    """Closed baker propagator from its closed form, in O(n^2).

    B = G_n^dagger blockdiag(G_h, G_h) with h = n/2.  For a column k < h
    the middle sum is geometric with ratio r = exp(2 pi i x),
    x = (j - 2k - 1/2)/n, and r^h = -i (-1)^j; a column h + k equals
    column k times exp(i pi (j + 1/2)) = i (-1)^j.  Phases are reduced
    on integers before the exponential, so no large angles enter.
    """
    h = n // 2
    j = np.arange(n)[:, None]
    k = np.arange(h)[None, :]
    m = (2 * j - 4 * k - 1) % (4 * n)  # x = m / 2n modulo 2
    half_phase = np.exp(1j * np.pi * m / (2 * n))  # r^(1/2)
    r = half_phase**2
    sign = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)[:, None]
    left = half_phase * (1 - (-1j) * sign) / (1 - r) / math.sqrt(n * h)
    return np.hstack((left, left * (1j * sign)))


def spectral_invariants(z: np.ndarray, n: int, qc: Fraction, dq: Fraction):
    keep = kept_sites(n, qc, dq)
    b = closed_propagator(n)[np.ix_(keep, keep)]
    tr1 = complex(np.trace(b))
    tr2 = complex(np.sum(b * b.T))
    tol = TRACE_TOL_PER_DIM * n
    gap1 = abs(complex(z.sum()) - tr1)
    gap2 = abs(complex((z * z).sum()) - tr2)
    moduli = np.abs(z)
    removed = int((~keep).sum())
    zeros = int((moduli < NEAR_ZERO).sum())
    tag = f"N={n} qc={qc} dq={dq}"
    return [
        (f"dim {tag}", z.size == n, f"{z.size} modes"),
        (f"trace {tag}", gap1 <= tol, f"|sum z - tr B| = {gap1:.2e} (tol {tol:.1e})"),
        (f"trace2 {tag}", gap2 <= tol, f"|sum z^2 - tr B^2| = {gap2:.2e} (tol {tol:.1e})"),
        (f"modulus {tag}", moduli.max() <= 1 + MODULUS_TOL, f"max |z| - 1 = {moduli.max() - 1:.2e}"),
        (f"zeros {tag}", zeros >= removed, f"{zeros} moduli < {NEAR_ZERO} vs {removed} absorbed"),
    ]


def weyl_count(z: np.ndarray, nu_cut: float = NU_CUT) -> int:
    return int((np.abs(z) > nu_cut).sum())


def half_height_width(z: np.ndarray) -> float:
    """Bins of width 0.01 over [0.7, 1] at or above half the peak density."""
    moduli = np.abs(z)
    moduli = np.where((moduli > 1) & (moduli <= 1 + MODULUS_TOL), 1.0, moduli)
    nbins = round((1 - TAIL_LO) / BIN_WIDTH)
    counts, _ = np.histogram(moduli, bins=np.linspace(TAIL_LO, 1.0, nbins + 1))
    density = counts / z.size / BIN_WIDTH
    return BIN_WIDTH * int((density >= density.max() / 2).sum())


def check_weyl(path: Path, spectra: dict[int, np.ndarray]):
    rows = read_rows(path, "N,count,log10N,log10count")
    out = [(f"weyl rows {path.name}", sorted(int(r[0]) for r in rows) == sorted(spectra),
            f"{len(rows)} rows for {len(spectra)} dims")]
    for r in rows:
        n, count = int(r[0]), int(r[1])
        expect = weyl_count(spectra[n]) if n in spectra else None
        out.append((f"weyl N={n}", count == expect, f"csv {count}, recount {expect}"))
    return out


def check_width(path: Path, spectra: dict[tuple[int, float], np.ndarray]):
    rows = read_rows(path, "N,q_c,sigma")
    out = [(f"width rows {path.name}", len(rows) == len(spectra),
            f"{len(rows)} rows for {len(spectra)} specs")]
    for r in rows:
        key = (int(r[0]), float(r[1]))
        sigma = float(r[2])
        expect = half_height_width(spectra[key]) if key in spectra else float("nan")
        out.append((f"width N={key[0]} qc={r[1]}", abs(sigma - expect) <= 1e-12,
                    f"csv {sigma}, recount {expect}"))
    return out


def dyadic_areas(qc: Fraction, dq: Fraction, t_max: int) -> list[Fraction]:
    """Exact survivor areas A(0..t_max) of the doubling map with the strip.

    With the strip edges over denominator d, every preimage edge up to
    time t_max lies on the grid k / (d 2^t_max), so survival is constant
    on each grid cell and decided by its left endpoint in integers.
    """
    lo, hi = strip(qc, dq)
    d = math.lcm(lo.denominator, hi.denominator)
    cells = d << t_max
    lo_i, hi_i = int(lo * cells), int(hi * cells)
    y = np.arange(cells, dtype=np.int64)
    alive = np.ones(cells, dtype=bool)
    areas = []
    for _ in range(t_max + 1):
        if hi_i <= cells:
            alive &= ~((y >= lo_i) & (y < hi_i))
        else:
            alive &= ~((y >= lo_i) | (y < hi_i - cells))
        areas.append(Fraction(int(alive.sum()), cells))
        y = (2 * y) % cells
    return areas


def _area_close(csv_value: float, exact: Fraction) -> bool:
    return abs(csv_value - float(exact)) <= AREA_RTOL * max(float(exact), 1e-300)


def check_sweep(path: Path):
    rows = read_rows(path, "q_c,delta_q,t,area")
    out = [(f"sweep rows {path.name}", len(rows) > 0, f"{len(rows)} rows")]
    for r in rows:
        qc, dq, t = Fraction(r[0]), Fraction(r[1]), int(r[2])
        exact = dyadic_areas(qc, dq, t)[t]
        out.append((f"sweep qc={r[0]} dq={r[1]} t={t}", _area_close(float(r[3]), exact),
                    f"csv {r[3]}, exact {float(exact)!r}"))
    return out


def series_areas(path: Path) -> list[float]:
    return [float(r[1]) for r in read_rows(path, "t,area")]


def check_series(path: Path, qc: Fraction, dq: Fraction, t_exact: int = 9):
    areas = series_areas(path)
    t_top = min(t_exact, len(areas) - 1)
    exact = dyadic_areas(qc, dq, t_top)
    return [(f"series {path.name} t={t}", _area_close(areas[t], exact[t]),
             f"csv {areas[t]!r}, exact {float(exact[t])!r}") for t in range(t_top + 1)]


def check_monte_carlo(area: float, p: float, se: float, samples: int, tag: str):
    scale = max(se, 1.0 / samples)
    return (f"monte carlo {tag}", abs(p - area) <= MC_SE * scale,
            f"mc {p!r} +- {se:.2e}, series {area!r}, {abs(p - area) / scale:.2f} SE")


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def check_identical(first: dict[str, bytes], root: Path, tag: str):
    other = tree_bytes(root)
    differ = sorted(set(first) ^ set(other)) + sorted(
        k for k in set(first) & set(other) if first[k] != other[k])
    return (f"byte-identical {tag}", not differ and bool(first),
            f"{len(first)} files" if not differ else f"differ: {differ[:5]}")

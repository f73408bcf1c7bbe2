"""Command line front end emitting figure-ready CSV files.

Four commands cover the pipeline: classical (survivor-area sweeps,
series and rasters), spectrum (cached resonance spectra), stats
(cumulative fractions, histograms, width sweeps, rescaled decay
distributions) and weyl (long-lived mode counting with a power-law
fit).  The classical references of weyl and stats rescaled are the exact
ones of the Markov partition; only classical fits the survivor areas.
Every produced file gets a sidecar manifest; plotting is left to
whatever consumes the CSVs.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from . import csvio
from .cache import CacheError, SpectrumCache
from .classical import OpeningSpec, as_fraction
from .propagator import PropagatorSpec
from .spectra import MAX_EIGEN_DIM, EigensolverError
from .stats import (
    DEFAULT_BIN_WIDTH,
    DEFAULT_NU_CUT,
    TAIL_LO,
    WidthFailure,
    bin_count,
    cumulative_moduli,
    modulus_histogram,
    rescaled_decay_histogram,
    synthetic_power_law_points,
    weyl_count,
    weyl_fit,
    width_sweep,
)
from .trapped import (
    DEFAULT_FIT_RANGE,
    ResolutionExhausted,
    area_series,
    escape_rate,
    exact_escape,
    qc_sweep,
    render_trapped_set,
)

DQ_PRESETS = ("0.05", "0.1", "0.2")
WEYL_DIM_PRESETS = (128, 180, 256, 362, 512, 724, 1024)
WIDTH_DIM_RANGE = (500, 2000)
MAX_GRID_POINTS = 100_000
# a raster holds resolution^2 one-byte cells, and its PGM one more byte
# per cell; each pixel costs t + 1 integer window tests, run a fixed-size
# block of image rows at a time; past t = 20 the survivor strips are far
# below a pixel at this cap
MAX_RESOLUTION = 2048
MAX_RASTER_T = 20
# cap on the sweep --t and the series --tmax: the partition recursion is
# O(cells) per step, but its integers grow by a bit per step; at t = 1000
# a 510-cell series takes about 0.1 s and a 101-point sweep about 2 s (a
# sweep runs per opening there: its common cells need den 2^t < 2^63)
MAX_T = 1000


def _expecting(form: str):
    """Make a parser of text an argparse type that names the form it expects."""
    def wrap(parse):
        def convert(text: str):
            try:
                return parse(text)
            except (ValueError, ZeroDivisionError):
                raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}") from None
        return convert
    return wrap


def _comma_list(parse, form: str):
    """A nonempty comma list of parse's values, repeats dropped, named by the form of one."""
    return _expecting(f"a comma list of {form}")(
        lambda text: list(dict.fromkeys(parse(part) for part in text.split(",")))
    )


_fraction = _expecting("a decimal or fraction such as 0.3 or 3/10")(as_fraction)
# an empty text is one empty element, which neither parser takes
_fractions = _comma_list(as_fraction, "decimals or fractions such as 0.1,1/5")
_ints = _comma_list(int, "integers such as 512,1024")


@_expecting("an integer")
def _jobs(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


class FitRange(NamedTuple):
    """Escape-rate fit window; prints as t_lo:t_hi, the form manifests record."""

    lo: int
    hi: int

    def __str__(self) -> str:
        return f"{self.lo}:{self.hi}"


@_expecting("two integers t_lo:t_hi")
def _fit_range(text: str) -> FitRange:
    lo, hi = (int(part) for part in text.split(":"))
    if not 0 <= lo < hi:
        raise argparse.ArgumentTypeError(f"need 0 <= t_lo < t_hi, got {text!r}")
    return FitRange(lo, hi)


@_expecting("start:stop:step with step > 0 and stop >= start, such as 0:0.5:0.005")
def _grid(text: str) -> list[Fraction]:
    """Inclusive decimal grid "start:stop:step" evaluated exactly."""
    start, stop, step = (as_fraction(p) for p in text.split(":"))
    if step <= 0 or stop < start:
        raise ValueError(text)
    count = (stop - start) // step + 1
    if count > MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(
            f"grid {text!r} has {count} points, more than {MAX_GRID_POINTS}"
        )
    return [start + k * step for k in range(count)]


@_expecting("lo:hi, such as 0:1")
def _pair(text: str) -> tuple[Fraction, Fraction]:
    lo, hi = (as_fraction(part) for part in text.split(":"))
    return lo, hi


def _num(x) -> str:
    """Compact decimal for filenames: six significant digits, as %g gives."""
    return format(float(x), "g")


def _distinct_names(parser, flag: str, values) -> None:
    """Exit if two values of one list option give the same file-name text."""
    seen = {}
    for value in values:
        other = seen.setdefault(_num(value), value)
        if other != value:
            parser.error(f"{flag} values {float(other)!r} and {float(value)!r} both "
                         f"name files {_num(value)}; their outputs would collide")


def _params(args: argparse.Namespace) -> dict:
    return {k: str(v) for k, v in sorted(vars(args).items()) if k != "func"}


def _emit(path: Path, args: argparse.Namespace) -> None:
    csvio.write_manifest(path, _params(args))
    print(f"wrote {path}")


def _solve_many(specs, cache: SpectrumCache, jobs: int) -> dict:
    """Solve specs through the cache and report each; return {spec: ResonanceSet}."""
    solved, hits = cache.solve(specs, jobs)
    for spec in solved:
        opening = spec.opening
        print(f"spectrum N={spec.dim} qc={_num(opening.q_c)} dq={_num(opening.delta_q)}: "
              f"{'cache hit' if spec in hits else 'computed'}")
    return solved


def cmd_classical(args, out: Path, cache: SpectrumCache) -> None:
    dqs = args.dq
    # every series, fit and sweep first, so a window the survivors do not
    # outlast or a partition past its cell cap fails before any file is
    # written; rasters cannot fail once _validate passes, so they stream
    fitted = []
    for qc in args.series_qc:
        for dq in dqs:
            series = area_series(OpeningSpec(qc, dq), args.tmax)
            fit = escape_rate(series, args.fit_range)
            fitted.append((series, fit, exact_escape(series.opening)))
    sweeps = [(dq, qc_sweep(dq, args.grid, args.t)) for dq in dqs]
    for dq, rows in sweeps:
        path = out / f"sweep_dq{_num(dq)}_t{args.t}.csv"
        csvio.write_sweep_csv(path, dq, args.t, rows)
        _emit(path, args)
    # rows held through the rasters raised the command's peak RSS by 0.3 MB
    del sweeps
    for series, fit, exact in fitted:
        qc, dq = series.opening.q_c, series.opening.delta_q
        path = out / f"series_qc{_num(qc)}_dq{_num(dq)}.csv"
        csvio.write_series_csv(path, series)
        _emit(path, args)
        print(
            f"qc={_num(qc)} dq={_num(dq)}: gamma={fit.gamma:.5f} "
            f"d_info={fit.d_info:.5f} rms={fit.residual_rms:.2e} "
            f"exact_gamma={exact.gamma:.5f} exact_d_info={exact.d_info:.5f}"
        )
    raster_t = args.t if args.raster_t is None else args.raster_t
    modes = ("initial", "image") if args.raster_mode == "both" else (args.raster_mode,)
    for qc in args.raster_qc:
        for dq in dqs:
            for mode in modes:
                img = render_trapped_set(
                    OpeningSpec(qc, dq), raster_t, args.resolution, mode
                )
                path = out / f"raster_qc{_num(qc)}_dq{_num(dq)}_t{raster_t}_{mode}.pgm"
                csvio.write_pgm(path, img)
                _emit(path, args)


def cmd_spectrum(args, out: Path, cache: SpectrumCache) -> None:
    opening = OpeningSpec(args.qc, args.dq)
    specs = [PropagatorSpec(dim, opening) for dim in args.n]
    solved = _solve_many(specs, cache, args.jobs)
    for spec in specs:
        path = out / (
            f"spectrum_N{spec.dim}_qc{_num(args.qc)}_dq{_num(args.dq)}.csv"
        )
        # rendered from the verified payload, so reruns write the same bytes
        csvio.write_spectrum_csv(path, solved[spec].values)
        _emit(path, args)


def cmd_stats(args, out: Path, cache: SpectrumCache) -> None:
    dq = args.dq
    tag = f"dq{_num(dq)}"
    gammas = dict.fromkeys(args.qc, args.gamma_cl)
    if args.mode == "rescaled" and args.gamma_cl is None:
        # before any solve: a hole no orbit survives fails here
        gammas = {qc: exact_escape(OpeningSpec(qc, dq)).gamma for qc in args.qc}
    width = args.mode == "width"
    dims = range(args.nmin, args.nmax + 1, args.step) if width else args.n
    # _validate built every other mode's specs, so only a width point fails here
    specs, failures = [], []
    for qc in args.qc:
        for d in dims:
            try:
                specs.append(PropagatorSpec(d, OpeningSpec(qc, dq)))
            except ValueError as exc:
                failures.append(WidthFailure(dim=d, q_c=qc, error=str(exc)))
    solved = _solve_many(specs, cache, args.jobs)
    if width:
        points, empty = width_sweep(
            (solved[spec] for spec in specs), args.bin, args.tail_lo
        )
        for f in failures + empty:
            print(f"width point N={f.dim} q_c={_num(f.q_c)} failed: {f.error}",
                  file=sys.stderr)
        path = out / f"width_{tag}.csv"
        csvio.write_width_csv(path, points)
        _emit(path, args)
        return
    for spec in specs:
        rs, qc = solved[spec], spec.opening.q_c
        stem = f"N{spec.dim}_qc{_num(qc)}_{tag}"
        if args.mode == "cumulative":
            nu, n = cumulative_moduli(rs)
            path = out / f"cumulative_{stem}.csv"
            csvio.write_cumulative_csv(path, nu, n)
        elif args.mode == "histogram":
            lo, hi = args.range
            hist = modulus_histogram(rs, args.bin, float(lo), float(hi))
            path = out / f"histogram_{stem}.csv"
            csvio.write_histogram_csv(path, hist)
        else:
            rh = rescaled_decay_histogram(rs, gammas[qc], args.bin, args.tail_lo)
            path = out / f"rescaled_{stem}.csv"
            csvio.write_rescaled_csv(path, rh)
        _emit(path, args)
    if args.mode == "rescaled":
        for qc, g in gammas.items():
            print(f"qc={_num(qc)}: gamma_cl={g:.5f}")


def cmd_weyl(args, out: Path, cache: SpectrumCache) -> None:
    if args.inject == "power-law":
        tag, pts, target = "synthetic", synthetic_power_law_points(), 4 / 5
        fit = weyl_fit(pts)
        text = (
            f"slope={fit.slope:.12g}\nintercept_log10={fit.intercept_log10:.12g}\n"
            f"target={target:.12g}\nrms_residual={fit.rms_residual:.3e}\n"
        )
        done = f"power-law self-test: slope {fit.slope:.12f} matches {target}"
    else:
        opening = OpeningSpec(args.qc, args.dq)
        dims = args.n if args.n else list(WEYL_DIM_PRESETS)
        # before any solve: a hole no orbit survives fails here
        reference = exact_escape(opening).d_info - 1
        specs = [PropagatorSpec(dim, opening) for dim in dims]
        solved = _solve_many(specs, cache, args.jobs)
        pts = [weyl_count(solved[spec], args.nu_cut) for spec in specs]
        fit = weyl_fit(pts)
        tag = f"qc{_num(args.qc)}_dq{_num(args.dq)}"
        text = (
            f"slope={fit.slope:.6f}\n"
            f"intercept_log10={fit.intercept_log10:.6f}\n"
            f"reference={reference:.6f}\n"
            f"deviation={fit.slope - reference:+.6f}\n"
            f"rms_residual={fit.rms_residual:.3e}\n"
            f"nu_cut={args.nu_cut}\n"
        )
        done = (
            f"weyl fit: slope={fit.slope:.4f} reference={reference:.4f} "
            f"deviation={fit.slope - reference:+.4f}"
        )
    path = out / f"weyl_{tag}.csv"
    csvio.write_weyl_csv(path, pts)
    _emit(path, args)
    summary = out / f"weyl_fit_{tag}.txt"
    summary.write_text(text, encoding="ascii")
    _emit(summary, args)
    if args.inject and abs(fit.slope - target) > 1e-9:
        raise ValueError(f"self-test failed: recovered {fit.slope!r}, wanted {target!r}")
    print(done)


class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors are one line; subparsers inherit the class."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the program, built on main's first call and kept.

    argparse runs a text default through the option's type on every parse
    that leaves the option out, so each Namespace gets its own default
    objects and no build parses the 101-point grid.
    """
    parser = _Parser(
        prog="openbaker",
        description="Escape dynamics and resonance statistics of the open baker map.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--cache", default=None,
                        help="spectrum cache directory (default: OUT/cache)")
    common.add_argument("--jobs", type=_jobs, default=1,
                        help="bounds the bytes of matrices alive at JOBS times the largest "
                             "spectrum's (the cores set the threads)")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classical", parents=[common],
                       help="survivor-area sweeps, series, rasters")
    c.add_argument("--dq", type=_fractions, default=",".join(DQ_PRESETS),
                   help="comma list of opening widths")
    c.add_argument("--grid", type=_grid, default="0:0.5:0.005",
                   help="q_c grid start:stop:step")
    c.add_argument("--t", type=int, default=9, help=f"sweep time step, 0..{MAX_T}")
    c.add_argument("--series-qc", type=_fractions, default=[],
                   help="emit area series for these centers")
    c.add_argument("--tmax", type=int, default=25, help=f"series length, 0..{MAX_T}")
    c.add_argument("--fit-range", type=_fit_range, default="%d:%d" % DEFAULT_FIT_RANGE,
                   help="escape-rate fit window t_lo:t_hi inside 0..--tmax")
    c.add_argument("--raster-qc", type=_fractions, default=[],
                   help="emit trapped-set rasters for these centers")
    c.add_argument("--raster-mode", choices=("initial", "image", "both"),
                   default="both")
    c.add_argument("--raster-t", type=int, default=None,
                   help="raster time step (default: --t)")
    c.add_argument("--resolution", type=int, default=512)
    c.set_defaults(func=cmd_classical)

    s = sub.add_parser("spectrum", parents=[common],
                       help="resonance spectra through the cache")
    s.add_argument("--n", type=_ints, required=True, help="comma list of dimensions")
    s.add_argument("--qc", type=_fraction, required=True)
    s.add_argument("--dq", type=_fraction, required=True)
    s.set_defaults(func=cmd_spectrum)

    st = sub.add_parser("stats", parents=[common],
                        help="statistics over cached spectra")
    st.add_argument("mode", choices=("cumulative", "histogram", "width", "rescaled"))
    st.add_argument("--n", type=_ints, default=[])
    st.add_argument("--qc", type=_fractions, default=[])
    st.add_argument("--dq", type=_fraction, required=True)
    st.add_argument("--bin", type=float, default=DEFAULT_BIN_WIDTH)
    st.add_argument("--range", type=_pair, default="0:1",
                    help="histogram modulus range lo:hi")
    st.add_argument("--tail-lo", type=float, default=TAIL_LO)
    st.add_argument("--nmin", type=int, default=WIDTH_DIM_RANGE[0])
    st.add_argument("--nmax", type=int, default=WIDTH_DIM_RANGE[1])
    st.add_argument("--step", type=int, default=2)
    st.add_argument("--gamma-cl", type=float, default=None,
                    help="classical escape rate for rescaled mode "
                         "(default: the exact rate of each opening)")
    st.set_defaults(func=cmd_stats)

    w = sub.add_parser("weyl", parents=[common],
                       help="long-lived mode counts and power-law fit")
    w.add_argument("--qc", type=_fraction)
    w.add_argument("--dq", type=_fraction)
    w.add_argument("--n", type=_ints, default=[],
                   help=f"dimensions (default {','.join(map(str, WEYL_DIM_PRESETS))})")
    w.add_argument("--nu-cut", type=float, default=DEFAULT_NU_CUT)
    w.add_argument("--inject", choices=("power-law",), default=None,
                   help="run the synthetic self-test instead of solving")
    w.set_defaults(func=cmd_weyl)
    return parser


def _check_specs(parser, qcs, dqs, dims=()) -> None:
    """Build every opening, and every spec of dims, or exit with its message."""
    try:
        for qc in qcs:
            for dq in dqs:
                opening = OpeningSpec(qc, dq)
                for dim in dims:
                    PropagatorSpec(dim, opening)
    except ValueError as exc:
        parser.error(str(exc))


def _can_be_directory(path: Path) -> bool:
    """Whether path is a directory or mkdir(parents=True) could make it one."""
    for p in (path, *path.parents):
        if p.exists():
            return p.is_dir()
    return True


def _validate(args, parser: argparse.ArgumentParser) -> None:
    """Reject bad inputs with exit status 2 before anything is built."""
    for flag, value in (("--out", args.out), ("--cache", args.cache)):
        if value is not None and not _can_be_directory(Path(value)):
            parser.error(f"{flag} {value} is not a directory")
    dims = getattr(args, "n", None)
    if dims and max(dims) > MAX_EIGEN_DIM:
        parser.error(f"--n {max(dims)} exceeds the solver cap {MAX_EIGEN_DIM}")
    if args.command == "classical":
        for flag, values in (("--dq", args.dq), ("--series-qc", args.series_qc),
                             ("--raster-qc", args.raster_qc)):
            _distinct_names(parser, flag, values)
        # the grid is monotone, so its two ends bound every centre
        centres = [args.grid[0], args.grid[-1], *args.series_qc, *args.raster_qc]
        _check_specs(parser, centres, args.dq)
        for flag, value in (("--t", args.t), ("--tmax", args.tmax)):
            if not 0 <= value <= MAX_T:
                parser.error(f"{flag} {value} is outside 0..{MAX_T}")
        if args.fit_range.hi > args.tmax:
            parser.error(f"--fit-range {args.fit_range} ends past --tmax {args.tmax}")
        raster_t = args.t if args.raster_t is None else args.raster_t
        if args.raster_qc and not 1 <= args.resolution <= MAX_RESOLUTION:
            parser.error(
                f"--resolution {args.resolution} is outside 1..{MAX_RESOLUTION}"
            )
        if args.raster_qc and not 0 <= raster_t <= MAX_RASTER_T:
            parser.error(f"raster time {raster_t} is outside 0..{MAX_RASTER_T}")
    if args.command == "spectrum":
        _check_specs(parser, [args.qc], [args.dq], args.n)
    if args.command == "stats":
        needs_n = args.mode in ("cumulative", "histogram", "rescaled")
        if needs_n and not args.n:
            parser.error(f"stats {args.mode} requires --n")
        if not args.qc:
            parser.error(f"stats {args.mode} requires --qc")
        _distinct_names(parser, "--qc", args.qc)
        # stats width reports odd dimensions as per-point failures
        _check_specs(parser, args.qc, [args.dq], args.n if needs_n else ())
        if args.mode == "width":
            if args.nmax > MAX_EIGEN_DIM:
                parser.error(
                    f"--nmax {args.nmax} exceeds the solver cap {MAX_EIGEN_DIM}"
                )
            if args.step < 1:
                parser.error(f"--step must be at least 1, got {args.step}")
            if args.nmin < 1:
                parser.error(f"--nmin must be at least 1, got {args.nmin}")
            if args.nmin > args.nmax:
                parser.error(f"--nmin {args.nmin} above --nmax {args.nmax}: no dimensions")
        if args.mode == "rescaled":
            if args.gamma_cl is None and args.dq == 0:
                parser.error("the closed map (--dq 0) has no escape rate to rescale "
                             "by; give one with --gamma-cl")
            if args.gamma_cl is not None and not 0 < args.gamma_cl < math.inf:
                parser.error(f"--gamma-cl must be finite and positive, got {args.gamma_cl}")
        if args.mode in ("width", "rescaled") and not math.isfinite(args.tail_lo):
            parser.error(f"--tail-lo must be finite, got {args.tail_lo}")
        if args.mode != "cumulative":
            lo, hi = args.range if args.mode == "histogram" else (args.tail_lo, 1.0)
            try:
                bin_count(args.bin, float(lo), float(hi))
            except OverflowError:  # a Fraction past the largest float
                parser.error("--range bounds must be finite floats")
            except ValueError as exc:
                parser.error(str(exc))
    if args.command == "weyl" and args.inject is None:
        if args.qc is None or args.dq is None:
            parser.error("weyl requires --qc and --dq unless --inject is used")
        _check_specs(parser, [args.qc], [args.dq], args.n)
        if not 0 <= args.nu_cut < 1:
            parser.error(f"--nu-cut must lie in [0, 1), got {args.nu_cut}")
        # weyl_fit's own rules, checked here so no spectrum is solved in vain
        if args.n and len(args.n) < 4:  # _ints drops repeats
            parser.error(
                f"--n needs at least 4 distinct dimensions for the fit, got {len(args.n)}"
            )
        if args.n and max(args.n) < 4 * min(args.n):
            parser.error(
                f"--n must span at least a factor 4 in dimension, got "
                f"{min(args.n)}..{max(args.n)}"
            )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(args, parser)
    out = Path(args.out)
    try:
        # each directory is made by the first file written into it
        args.func(args, out, SpectrumCache(args.cache if args.cache else out / "cache"))
    except (ValueError, ResolutionExhausted, EigensolverError, CacheError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's metrics and which end-to-end number each should move.

BENCHMARK.json lists the same names, units and directions; its schema
has no room for the predictions, so they live here and in README.md.
Time metrics are self times of the span of that name (see tracing.py),
so on a single-threaded job they partition the traced wall time.
"""

# A fixed single-thread kernel ran 1.0x to 1.6x its best time on the
# shared 2-core machine the bounds were set on, in bursts lasting seconds
# to tens of seconds, so time bounds are wide.  Any failed operation
# breaks the success_rate bound.
END_TO_END = [
    # name, unit, better, bound
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("success_rate", "ratio", "higher", 0.001),
]

COLD = "wall_s on weyl_cold and width_cold_jobs2"
COLD_RSS = "wall_s and peak_rss_mb on weyl_cold and width_cold_jobs2"
WARM = "wall_s on stats_warm, a little on the cold workloads"
STATS = "wall_s on stats_warm"
ESCAPE = ("wall_s and peak_rss_mb on classical_escape; the escape-rate "
          "slice of weyl_cold and stats_warm")
JOBS = "wall_s on width_cold_jobs2"

# name, unit, better, predicted effect
PER_LAYER = [
    ("spectra.eigvals_s", "s", "lower", COLD),
    ("spectra.eigvals_calls", "count", "lower", COLD),
    ("spectra.eig_work", "count", "lower", COLD),
    ("spectra.sort_s", "s", "lower", COLD),
    ("propagator.build_s", "s", "lower", COLD_RSS),
    ("propagator.build_bytes", "bytes", "lower", COLD_RSS),
    ("propagator.kept_mask_s", "s", "lower", COLD_RSS),
    ("propagator.open_trace_s", "s", "lower", WARM),
    ("cache.load_s", "s", "lower", WARM),
    ("cache.store_s", "s", "lower", WARM),
    ("cache.loads", "count", "lower", WARM),
    ("cache.hits", "count", "higher", WARM),
    ("cache.misses", "count", "lower", WARM),
    ("cache.loads_per_spec", "ratio", "lower", WARM),
    ("csvio.sha256_s", "s", "lower", STATS),
    ("csvio.read_spectrum_s", "s", "lower", STATS),
    ("csvio.write_spectrum_s", "s", "lower", STATS),
    ("csvio.emit_s", "s", "lower", STATS),
    ("csvio.bytes_written", "bytes", "lower", STATS),
    ("stats.width_sweep_s", "s", "lower", STATS),
    ("stats.histogram_s", "s", "lower", STATS),
    ("stats.cumulative_s", "s", "lower", STATS),
    ("stats.rescaled_s", "s", "lower", STATS),
    ("stats.weyl_s", "s", "lower", STATS),
    ("trapped.area_series_s", "s", "lower", ESCAPE),
    ("trapped.qc_sweep_s", "s", "lower", ESCAPE),
    ("trapped.render_s", "s", "lower", ESCAPE),
    ("trapped.monte_carlo_s", "s", "lower", ESCAPE),
    ("cli.solve_many_s", "s", "lower", JOBS),
    ("cli.self_s", "s", "lower", JOBS),
    ("proc.cpu_s", "s", "lower", JOBS),
    ("proc.cpu_util", "ratio", "higher", JOBS),
    ("trace.overhead_s", "s", "lower", "none; traced minus untraced wall_s"),
]

# time metric -> span name whose self time it reports
SPAN_METRICS = {
    name: name[: -len("_s")]
    for name, unit, _, _ in PER_LAYER
    if unit == "s" and name.split(".")[0] not in ("proc", "trace")
}
SPAN_METRICS["cli.self_s"] = "cli"

"""Span tracing of openbaker from outside the package.

The tracer replaces public functions at module boundaries with timing
wrappers, under the names their callers look up (``openbaker.cli.
width_sweep``, ``openbaker.cache.open_trace``, ``np.linalg.eigvals`` as
called from ``openbaker.spectra``).  Spans ``(name, start, end, parent,
thread)`` are kept in memory and written out when the job ends.

Parents are tracked per thread.  A span opened on a thread with no open
span of its own (a worker of ``--jobs``) takes the innermost open span
of the main thread as its parent, which is the call that handed out the
work.  Self time is a span's duration minus the part of it covered by
its children; with worker threads the children of one span can overlap,
so self times then add up to more than the wall time by the overlap.
"""

from __future__ import annotations

import functools
import json
import os
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, thread]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stacks: dict[int, list[int]] = {}
        self._lock = threading.Lock()
        self._main = threading.main_thread().ident
        self._invocation_specs: set = set()
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            with self._lock:
                stack = self._stacks.setdefault(ident, [])
        parent = None
        if stack:
            parent = stack[-1]
        elif ident != self._main:
            try:  # the main thread may pop its last span meanwhile
                parent = self._stacks[self._main][-1]
            except (KeyError, IndexError):
                pass
        record = [name, 0.0, 0.0, parent, ident]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[1] = perf_counter()
        try:
            yield
        finally:
            record[2] = perf_counter()
            stack.pop()

    def wrap(self, owner, attr: str, name: str | None, count=None) -> None:
        """Replace ``owner.attr`` by a wrapper that opens span ``name``.

        ``name=None`` counts without a span.  ``count(tracer, args,
        result)`` runs after each successful call.  A target the program
        no longer has is recorded in ``missing`` and skipped, so a
        refactor leaves a zero in its metric instead of a crash.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if name is None:
                result = original(*args, **kwargs)
            else:
                with tracer.span(name):
                    result = original(*args, **kwargs)
            if count is not None:
                count(tracer, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        children = defaultdict(list)
        for rec in self.spans:
            if rec[3] is not None:
                children[rec[3]].append((rec[1], rec[2]))
        totals: Counter = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - _covered(children[index], start, end)
        return dict(totals)

    def summary(self) -> dict:
        self_s = self.self_times()
        roots = [(r[1], r[2]) for r in self.spans if r[3] is None]
        return {
            "self_s": self_s,
            "counts": dict(self.counts),
            "spans": len(self.spans),
            "threads": len({r[4] for r in self.spans}),
            "accounted_s": sum(self_s.values()),
            "root_covered_s": _covered(roots, float("-inf"), float("inf")),
            "missing": self.missing,
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, thread in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "thread": thread}) + "\n")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _count_eig(tracer, args, result):
    n = args[0].shape[0]
    tracer.counts["spectra.eigvals_calls"] += 1
    tracer.counts["spectra.eig_work"] += n**3


def _count_build(tracer, args, result):
    tracer.counts["propagator.build_bytes"] += 16 * args[0].dim**2


def _count_load(tracer, args, result):
    tracer.counts["cache.loads"] += 1
    tracer._invocation_specs.add(args[1])


def _count_hit(tracer, args, result):
    tracer.counts["cache.hits" if result[1] else "cache.misses"] += 1


def _count_bytes_arg(tracer, args, result):
    tracer.counts["csvio.bytes_written"] += os.path.getsize(args[0])


def _count_bytes_result(tracer, args, result):
    tracer.counts["csvio.bytes_written"] += os.path.getsize(result)


def _end_invocation(tracer, args, result):
    # base of cache.loads_per_spec: distinct specs per CLI invocation
    tracer.counts["cache.distinct_specs"] += len(tracer._invocation_specs)
    tracer._invocation_specs.clear()


EMIT_WRITERS = (
    "write_sweep_csv", "write_series_csv", "write_cumulative_csv",
    "write_histogram_csv", "write_width_csv", "write_rescaled_csv",
    "write_weyl_csv", "write_pgm",
)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary named in layers.SPAN_METRICS."""
    import numpy as np
    from openbaker import cache, cli, csvio, propagator, spectra, stats, trapped

    w = tracer.wrap
    w(cli, "main", "cli", _end_invocation)
    w(cli, "_solve_many", "cli.solve_many")
    w(np.linalg, "eigvals", "spectra.eigvals", _count_eig)
    w(spectra, "sort_spectrum", "spectra.sort")
    w(spectra, "open_propagator", "propagator.build", _count_build)
    w(propagator.PropagatorSpec, "kept_mask", "propagator.kept_mask")
    w(cache, "open_trace", "propagator.open_trace")
    w(cache.SpectrumCache, "load", "cache.load", _count_load)
    w(cache.SpectrumCache, "store", "cache.store")
    w(cache.SpectrumCache, "get_or_compute", None, _count_hit)
    w(cache, "sha256_file", "csvio.sha256")
    w(csvio, "sha256_file", "csvio.sha256")
    w(cache, "read_spectrum_csv", "csvio.read_spectrum")
    w(cache, "write_spectrum_csv", "csvio.write_spectrum", _count_bytes_arg)
    w(cli, "_emit", "csvio.emit")
    for writer in EMIT_WRITERS:
        w(csvio, writer, "csvio.emit", _count_bytes_arg)
    w(csvio, "write_manifest", None, _count_bytes_result)
    w(cli, "width_sweep", "stats.width_sweep")
    w(cli, "modulus_histogram", "stats.histogram")
    w(stats, "modulus_histogram", "stats.histogram")
    w(stats, "tail_histogram", "stats.histogram")
    w(cli, "cumulative_moduli", "stats.cumulative")
    w(cli, "rescaled_decay_histogram", "stats.rescaled")
    w(cli, "weyl_count", "stats.weyl")
    w(cli, "weyl_fit", "stats.weyl")
    w(cli, "area_series", "trapped.area_series")
    w(cli, "qc_sweep", "trapped.qc_sweep")
    w(cli, "render_trapped_set", "trapped.render")
    w(trapped, "monte_carlo_area", "trapped.monte_carlo")

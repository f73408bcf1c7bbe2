"""The benchmark's span tracer still finds every function it wraps."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    """perfbench/tracing.py as a module, read and never written."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_trace_point_exists():
    # a renamed target would turn its per-layer metric into a silent zero
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_cli_solve_many_span_covers_every_cache_access(tmp_path, capsys):
    # cli.solve_many_s times the whole cached solve only while every
    # command reaches the cache through cli._solve_many
    from openbaker import cli

    tracing = load_tracing()
    tracer = tracing.Tracer()
    argv = ["stats", "cumulative", "--out", str(tmp_path), "--dq", "0.1",
            "--n", "16,32", "--qc", "0.3,0.7"]
    try:
        tracing.install(tracer)
        assert tracer.missing == []
        for _ in range(2):  # cold, then warm
            assert cli.main(argv) == 0, capsys.readouterr().err
    finally:
        tracer.uninstall()
    spans = tracer.spans
    names = [name for name, *_ in spans]
    assert names.count("cli") == names.count("cli.solve_many") == 2
    assert "cache.store" in names and "cache.load" in names

    def ancestors(index):
        while (index := spans[index][3]) is not None:
            yield spans[index][0]

    for index, name in enumerate(names):
        if name in ("cache.load", "cache.store"):
            assert "cli.solve_many" in ancestors(index), name

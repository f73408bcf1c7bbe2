#!/usr/bin/env python3
"""Self-tests of the benchmark, kept out of the package's test suite.

    python3 perfbench/selftest.py

- smoke: every workload at tiny sizes, untraced and traced, must report
  exactly the metrics BENCHMARK.json names, with no failed operation, and
  every per-layer metric must be nonzero on some workload;
- negative: a corrupted spectrum and a nonzero CLI exit must each be
  counted as failed operations, once, without a retry;
- the independent check code must agree with openbaker on small cases;
- without the sources, run.py must exit nonzero and print no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from layers import END_TO_END, PER_LAYER  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_layers():
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in BENCH["end_to_end"]] \
        == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] \
        == [row[:3] for row in PER_LAYER]
    assert sorted(w["name"] for w in BENCH["workloads"]) == sorted(run.WORKLOADS)


def test_smoke_every_workload_and_wrapper():
    nonzero = set()
    for workload in run.WORKLOADS:
        for trace, spec in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
            proc = bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            *_, record_line, result_line = proc.stdout.splitlines()
            record = json.loads(record_line)["record"]
            result = json.loads(result_line)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, record["failures"]
            assert result["attempted"] >= 1
            assert {k: v["unit"] for k, v in result["metrics"].items()} \
                == {m["name"]: m["unit"] for m in spec}
            if trace:
                assert record["missing_wrappers"] == [] and record["counts_repeat"]
                nonzero |= {k for k, v in result["metrics"].items() if v["value"]}
    assert nonzero >= {name for name, *_ in PER_LAYER} - {"trace.overhead_s"}, \
        {name for name, *_ in PER_LAYER} - nonzero


def _tiny_run(name: str, workload) -> run.Run:
    work = run.WORK / f"selftest-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return run.Run(workload, seconds=0, trace=False, work=work)


def test_corrupted_spectrum_is_counted():
    r = _tiny_run("corrupt", run.weyl_cold(run.random.Random(7), tiny=True))
    r.repeats(None)
    assert not r.failures, r.failures
    original = checks.read_spectrum

    def corrupted(path):
        z = original(path)
        z[0] *= 1.1  # off the unit circle and off the trace
        return z

    checks.read_spectrum = corrupted
    try:
        r.check_outputs(None)
    finally:
        checks.read_spectrum = original
    assert any(f.startswith("trace N=") for f in r.failures), r.failures
    assert any(f.startswith("modulus N=") for f in r.failures), r.failures
    shutil.rmtree(r.work)


def test_cli_failure_is_counted_without_retry():
    step = run.cli("spectrum", "--n", "7,7", "--qc", "0.3", "--dq", "0.1")
    r = _tiny_run("exit", run.Workload("odd_dimension", [step], cold=True, inputs={}))
    r.repeats(None)
    assert len(r.reps) == run.MIN_REPS
    assert r.attempted == len(r.reps) and len(r.failures) == len(r.reps), r.failures
    job = json.loads((r.work / "rep0" / "job.json").read_text())
    assert job["steps"][0]["argv"][:3] == ["spectrum", "--n", "7,7"]  # passed as given
    shutil.rmtree(r.work)


def test_checks_agree_with_openbaker():
    sys.path.insert(0, str(run.SRC))
    from openbaker import OpeningSpec, PropagatorSpec, area_series, baker_propagator

    for n in (2, 8, 64, 200):
        assert abs(checks.closed_propagator(n) - baker_propagator(n)).max() < 1e-12
    for qc, dq in (("0.3", "0.1"), ("0", "0.25"), ("0.5", "0.2"), ("0.95", "0.2")):
        for n in (10, 64, 602):
            mask = PropagatorSpec(n, OpeningSpec(qc, dq)).kept_mask()
            assert (checks.kept_sites(n, Fraction(qc), Fraction(dq)) == mask).all()
        assert checks.dyadic_areas(Fraction(qc), Fraction(dq), 9) \
            == list(area_series(OpeningSpec(qc, dq), 9).areas)


def test_refuses_without_sources():
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("weyl_cold", 0, cwd=bare)
    assert proc.returncode != 0 and proc.stdout == "", proc.stdout
    shutil.rmtree(bare)


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

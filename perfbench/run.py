#!/usr/bin/env python3
"""Benchmark of the openbaker pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; openbaker is imported from its
``src/`` directory, never from an installed copy.  Each timed repeat of
a workload's job runs in a fresh interpreter (perfbench/child.py), cold
workloads with an empty spectrum cache.  Repeats continue until the
next one would end after ``--seconds``, with at least two, so every
run also checks that a rerun writes byte-identical output.

With ``--trace 0`` the last line of standard output reports the
end-to-end metrics (medians over the untraced repeats); with
``--trace 1`` traced and untraced repeats alternate and the per-layer
metrics are reported.  The line before it is a record of the host, the
seeded inputs and every failed check.  Work files go under
``.perfbench-work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from layers import END_TO_END, PER_LAYER, SPAN_METRICS  # noqa: E402

MIN_REPS = 2
SETUP_PROBES = 4
CALIBRATION = {"kind": "calibrate", "n": 384, "repeats": 3}
DEADLINE_S = 150.0  # no child may run past this point of a run


@dataclass
class Workload:
    name: str
    steps: list  # one job; every repeat runs all steps in one fresh process
    cold: bool  # each repeat starts from an empty cache
    inputs: dict  # the seeded inputs, for the record
    spectra: list = field(default_factory=list)  # (dims, qc, dq) to check
    weyl: tuple | None = None  # (qc, dq) of the weyl step
    width: tuple | None = None  # (dims, qc values, dq) of the width step
    series: list = field(default_factory=list)  # (qc, dq) of emitted series
    prefill_base: list = field(default_factory=list)  # fixed warm entries
    prefill: list = field(default_factory=list)  # seeded warm entries


def cli(*args) -> dict:
    return {"kind": "cli", "argv": [str(a) for a in args]}


def spectrum_cmd(dims, qc, dq) -> dict:
    return cli("spectrum", "--n", ",".join(map(str, dims)), "--qc", qc, "--dq", dq)


def with_paths(steps: list, out, cache) -> list:
    """Append output and cache paths to the CLI steps.  Relative paths
    resolve in the job directory, so two repeats' manifests match."""
    return [dict(s, argv=s["argv"] + ["--out", str(out), "--cache", str(cache)])
            if s["kind"] == "cli" else s for s in steps]


def _jitter(rng: random.Random, bases, choices: int) -> list[int]:
    """One even dimension per stratum: base plus 0, 2, ... 2(choices-1)."""
    return [b + 2 * rng.randrange(choices) for b in bases]


def weyl_cold(rng, tiny):
    bases = [10, 16, 24, 48, 64] if tiny else [256, 352, 484, 666, 916, 1260]
    dims = _jitter(rng, bases, 4)
    return Workload(
        "weyl_cold",
        [cli("weyl", "--qc", "0.5", "--dq", "0.1",
             "--n", ",".join(map(str, dims)), "--jobs", "1")],
        cold=True, inputs={"dims": dims},
        spectra=[(dims, "0.5", "0.1")], weyl=("0.5", "0.1"))


def width_cold_jobs2(rng, tiny):
    start, count = (20, 4) if tiny else (560, 11)
    start += 2 * rng.randrange(3)
    dims = list(range(start, start + 2 * count, 2))
    return Workload(
        "width_cold_jobs2",
        [cli("stats", "width", "--dq", "0.2", "--qc", "0.3", "--nmin", dims[0],
             "--nmax", dims[-1], "--step", "2", "--jobs", "2")],
        cold=True, inputs={"dims": dims},
        spectra=[(dims, "0.3", "0.2")], width=(dims, ["0.3"], "0.2"))


# series centres whose interval recursion to t=25 does nearly equal work
ESCAPE_CENTRES = ("0.29", "0.31", "0.32", "0.33")


def classical_escape(rng, tiny):
    centre = rng.choice(ESCAPE_CENTRES)
    t, tmax = (6, 12) if tiny else (9, 25)
    samples = 10_000 if tiny else 5_000_000
    argv = ["classical", "--dq", "0.05,0.1", "--grid", "0:0.5:0.05" if tiny else "0:0.5:0.005",
            "--t", t, "--series-qc", centre, "--tmax", tmax, "--raster-qc", "0.3"]
    if tiny:
        argv += ["--fit-range", "5:12", "--resolution", "32"]
    steps = [cli(*argv)]
    for dq in ("0.05", "0.1"):
        steps.append({"kind": "mc", "qc": centre, "dq": dq, "t": tmax,
                      "samples": samples, "seed": rng.randrange(2**31)})
    return Workload(
        "classical_escape", steps, cold=True,
        inputs={"series_qc": centre, "mc_seeds": [s["seed"] for s in steps[1:]]},
        series=[(centre, "0.05"), (centre, "0.1")])


def stats_warm(rng, tiny):
    fixed = [12, 16, 24] if tiny else [602, 1024, 2048]
    start, count = (20, 4) if tiny else (400, 6)
    start += 2 * rng.randrange(3)
    band = list(range(start, start + 2 * count, 2))
    small = [6, 8, 10] if tiny else _jitter(rng, [256, 362, 452], 4)
    weyl_dims = small + fixed
    n = ",".join(map(str, fixed))
    steps = [
        spectrum_cmd(fixed, "0.3", "0.1"),
        spectrum_cmd(fixed, "0.5", "0.1"),
        cli("stats", "cumulative", "--n", n, "--qc", "0.3,0.5", "--dq", "0.1"),
        cli("stats", "histogram", "--n", n, "--qc", "0.3,0.5", "--dq", "0.1"),
        cli("stats", "rescaled", "--n", n, "--qc", "0.3,0.5", "--dq", "0.1"),
        cli("stats", "width", "--dq", "0.1", "--qc", "0.3", "--nmin", band[0],
            "--nmax", band[-1], "--step", "2"),
        cli("weyl", "--qc", "0.5", "--dq", "0.1", "--n", ",".join(map(str, weyl_dims))),
    ]
    return Workload(
        "stats_warm", steps, cold=False,
        inputs={"fixed": fixed, "width_dims": band, "weyl_dims": weyl_dims},
        spectra=[(fixed, "0.3", "0.1"), (band, "0.3", "0.1"), (weyl_dims, "0.5", "0.1")],
        weyl=("0.5", "0.1"), width=(band, ["0.3"], "0.1"),
        prefill_base=[spectrum_cmd(fixed, "0.3", "0.1"), spectrum_cmd(fixed, "0.5", "0.1")],
        prefill=[spectrum_cmd(band, "0.3", "0.1"), spectrum_cmd(small, "0.5", "0.1")])


WORKLOADS = {f.__name__: f for f in (weyl_cold, width_cold_jobs2, classical_escape, stats_warm)}


class Run:
    """One benchmark run: repeats, checks and the operation tally."""

    def __init__(self, workload: Workload, seconds: float, trace: bool, work: Path):
        self.w = workload
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.t0 = time.monotonic()
        self.attempted = 0
        self.failures: list[str] = []
        self.setups: list[float] = []
        self.reps: list[dict] = []
        self.host: dict = {}
        self.prefill_s = None

    def op(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}".strip())
        return ok

    def child(self, steps: list, where: Path, traced: bool = False, env=None) -> dict | None:
        """Run one job in a fresh interpreter; None if it produced no result."""
        where.mkdir(parents=True, exist_ok=True)
        job, result = where / "job.json", where / "result.json"
        job.write_text(json.dumps({"src": str(SRC), "trace": traced, "steps": steps}))
        timeout = max(1.0, DEADLINE_S - (time.monotonic() - self.t0))
        spawn = time.monotonic()
        try:
            with open(where / "log.txt", "w") as log:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "child.py"), str(job), str(result)],
                    stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
                    cwd=where, env=env, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.op(f"job in {where.name}", False, f"killed after {timeout:.0f} s")
            return None
        if proc.returncode != 0 or not result.exists():
            tail = (where / "log.txt").read_text(errors="replace")[-400:]
            self.op(f"job in {where.name}", False, f"exit {proc.returncode}: {tail}")
            return None
        res = json.loads(result.read_text())
        res["setup_s"] = res["t_ready"] - spawn
        return res

    def tally_steps(self, res: dict | None, steps: list, tag: str) -> bool:
        if res is None:
            return False
        ok = True
        for step, out in zip(steps, res["steps"]):
            label = " ".join(step["argv"][:2]) if step["kind"] == "cli" else step["kind"]
            ok &= self.op(f"{tag} {label}", out["ok"], out.get("error", f"exit {out.get('rc')}"))
        return ok

    # -- set-up: host record, warm cache --------------------------------

    def record_host(self) -> None:
        import numpy
        import scipy

        self.child([], self.work / "warmup")  # compiles bytecode, warms files
        probes = [self.child([], self.work / f"probe{i}") for i in range(SETUP_PROBES)]
        self.setups += [p["setup_s"] for p in probes if p]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        cal = self.child([CALIBRATION], self.work / "calibrate", env=env)
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        self.host = {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": probes[0]["blas_threads"] if probes[0] else None,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "calibration_eigvals_s": cal["steps"][0].get("value") if cal else None,
            "calibration": f"eigvals of a seeded complex {CALIBRATION['n']}x"
                           f"{CALIBRATION['n']} matrix, 1 BLAS thread, median of "
                           f"{CALIBRATION['repeats']}",
        }

    def warm_cache(self) -> Path:
        """Fixed entries are solved once per source tree and reused;
        seeded entries are solved in every run.  Neither is timed."""
        digest = hashlib.sha256(json.dumps(self.w.prefill_base).encode())
        for path in sorted((SRC / "openbaker").glob("*.py")):
            digest.update(path.read_bytes())
        base = WORK / f"warm-{self.w.name}-{digest.hexdigest()[:16]}"
        t = time.monotonic()
        if not base.exists():
            stage = WORK / f"{base.name}.stage{os.getpid()}"
            res = self.child(with_paths(self.w.prefill_base, "out", "cache"), stage)
            if not self.tally_steps(res, self.w.prefill_base, "prefill"):
                raise RuntimeError("warm cache prefill failed")
            if not base.exists():
                os.replace(stage / "cache", base)
            shutil.rmtree(stage, ignore_errors=True)
        cache = self.work / "cache"
        shutil.copytree(base, cache)
        res = self.child(with_paths(self.w.prefill, "out", cache), self.work / "prefill")
        self.tally_steps(res, self.w.prefill, "prefill")
        self.prefill_s = time.monotonic() - t
        return cache

    # -- timed repeats ----------------------------------------------------

    def repeats(self, shared_cache: Path | None) -> None:
        first_tree = None
        before = _listing(shared_cache)
        spans = WORK / "spans" / self.w.name  # the last traced run's spans
        if self.trace:
            shutil.rmtree(spans, ignore_errors=True)
            spans.mkdir(parents=True)
        start = time.monotonic()
        while True:
            k = len(self.reps)
            traced = self.trace and k % 2 == 1
            where = self.work / f"rep{k}"
            steps = with_paths(self.w.steps, "out", shared_cache or "cache")
            res = self.child(steps, where, traced=traced)
            ok = self.tally_steps(res, self.w.steps, f"rep{k}")
            self.reps.append({"traced": traced, "res": res, "ok": ok, "dir": where})
            if traced and res:
                shutil.move(where / "spans.jsonl", spans / f"rep{k}.jsonl")
            if ok and first_tree is None:
                first_tree = checks.tree_bytes(where / "out")  # kept for the checks
            elif ok:
                self.op(*checks.check_identical(first_tree, where / "out", f"rep{k}"))
                shutil.rmtree(where, ignore_errors=True)
            elapsed = time.monotonic() - start
            last = res["wall_s"] + res["setup_s"] if res else elapsed / (k + 1)
            if len(self.reps) >= MIN_REPS and elapsed + last > self.seconds:
                break
            if time.monotonic() - self.t0 + last > DEADLINE_S:
                break
        if shared_cache is not None:
            after = _listing(shared_cache)
            self.op("warm cache unchanged by the repeats", after == before,
                    f"{len(after - before)} new entries")

    # -- output checks ----------------------------------------------------

    def check_outputs(self, shared_cache: Path | None) -> None:
        good = [r for r in self.reps if r["ok"]]
        if not good:
            return
        rep = good[0]
        out = rep["dir"] / "out"
        cache = shared_cache or rep["dir"] / "cache"
        spectra: dict[tuple[str, str], dict[int, object]] = {}
        if self.w.spectra:
            # emitted through the CLI from the repeat's cache, all hits
            steps = [spectrum_cmd(dims, qc, dq) for dims, qc, dq in self.w.spectra]
            emit = [with_paths([s], f"g{i}", cache.resolve())[0] for i, s in enumerate(steps)]
            res = self.child(emit, self.work / "emit")
            if self.tally_steps(res, steps, "emit"):
                for i, (dims, qc, dq) in enumerate(self.w.spectra):
                    group = spectra.setdefault((qc, dq), {})
                    for n in dims:
                        found = sorted((self.work / "emit" / f"g{i}").glob(f"spectrum_N{n}_*.csv"))
                        if not self.op(f"spectrum N={n} qc={qc} dq={dq}", len(found) == 1,
                                       f"{len(found)} files"):
                            continue
                        z = checks.read_spectrum(found[0])
                        for check in checks.spectral_invariants(z, n, Fraction(qc), Fraction(dq)):
                            self.op(*check)
                        group[n] = z
        if self.w.weyl:
            found = sorted(out.glob("weyl_*.csv"))
            if self.op("weyl csv", len(found) == 1, f"{len(found)} files"):
                for check in checks.check_weyl(found[0], spectra.get(self.w.weyl, {})):
                    self.op(*check)
        if self.w.width:
            dims, qcs, dq = self.w.width
            by_key = {(n, float(Fraction(qc))): spectra[(qc, dq)][n]
                      for qc in qcs for n in dims if n in spectra.get((qc, dq), {})}
            found = sorted(out.glob("width_*.csv"))
            if self.op("width csv", len(found) == 1, f"{len(found)} files"):
                for check in checks.check_width(found[0], by_key):
                    self.op(*check)
        if self.w.series:
            for path in sorted(out.glob("sweep_*.csv")):
                for check in checks.check_sweep(path):
                    self.op(*check)
            mc = [(s, r) for s, r in zip(self.w.steps, rep["res"]["steps"]) if s["kind"] == "mc"]
            for qc, dq in self.w.series:
                found = sorted(out.glob(f"series_qc{float(qc):g}_dq{float(dq):g}.csv"))
                if not self.op(f"series qc={qc} dq={dq}", len(found) == 1, f"{len(found)} files"):
                    continue
                for check in checks.check_series(found[0], Fraction(qc), Fraction(dq)):
                    self.op(*check)
                areas = checks.series_areas(found[0])
                for step, result in mc:
                    if (step["qc"], step["dq"]) == (qc, dq):
                        p, se = result["value"]
                        self.op(*checks.check_monte_carlo(
                            areas[step["t"]], p, se, step["samples"], f"qc={qc} dq={dq}"))

    # -- metrics ----------------------------------------------------------

    def results(self, traced: bool) -> list[dict]:
        return [r["res"] for r in self.reps if r["traced"] == traced and r["res"]]

    def setup_samples(self) -> list[float]:
        return self.setups + [r["setup_s"] for r in self.results(traced=False)]

    def end_to_end(self) -> dict:
        plain = self.results(traced=False)
        med = statistics.median
        values = {
            "wall_s": med(r["wall_s"] for r in plain),
            "setup_s": med(self.setup_samples()),
            "peak_rss_mb": med(r["maxrss_kb"] / 1024 for r in plain),
            "success_rate": (self.attempted - len(self.failures)) / self.attempted,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}

    def per_layer(self) -> tuple[dict, dict]:
        plain, traced = self.results(traced=False), self.results(traced=True)
        med = statistics.median
        counts = traced[0]["trace"]["counts"]
        values = {name: med(t["trace"]["self_s"].get(span, 0.0) for t in traced)
                  for name, span in SPAN_METRICS.items()}
        values.update({name: counts.get(name, 0) for name, unit, _, _ in PER_LAYER
                       if unit in ("count", "bytes")})
        distinct = counts.get("cache.distinct_specs", 0)
        values["cache.loads_per_spec"] = counts.get("cache.loads", 0) / distinct if distinct else 0.0
        values["proc.cpu_s"] = med(t["cpu_s"] for t in traced)
        values["proc.cpu_util"] = med(t["cpu_s"] / t["wall_s"] for t in traced)
        values["trace.overhead_s"] = med(t["wall_s"] for t in traced) - med(r["wall_s"] for r in plain)
        extra = {
            "traced_wall_s": med(t["wall_s"] for t in traced),
            "accounted_s": med(t["trace"]["accounted_s"] for t in traced),
            "root_covered_s": med(t["trace"]["root_covered_s"] for t in traced),
            "threads": max(t["trace"]["threads"] for t in traced),
            "counts_repeat": all(t["trace"]["counts"] == counts for t in traced),
            "missing_wrappers": traced[0]["trace"]["missing"],
        }
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        return {name: {"value": values[name], "unit": units[name]} for name in units}, extra


def _listing(root: Path | None) -> set[str]:
    return {p.name for p in root.iterdir()} if root is not None else set()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small sizes for the self-tests")
    args = parser.parse_args(argv)
    if not (SRC / "openbaker" / "__init__.py").is_file():
        print(f"error: no openbaker sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](random.Random(args.seed), args.scale == "tiny")
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(workload, args.seconds, bool(args.trace), work)
    try:
        run.record_host()
        shared = None if workload.cold else run.warm_cache()
        run.repeats(shared)
        run.check_outputs(shared)
        if not run.results(traced=False) or (args.trace and not run.results(traced=True)):
            print("error: no repeat produced a timing", file=sys.stderr)
            for failure in run.failures[:10]:
                print(f"  {failure}", file=sys.stderr)
            return 1
        extra = {}
        if args.trace:
            metrics, extra = run.per_layer()
        else:
            metrics = run.end_to_end()
        record = {
            "workload": workload.name, "seed": args.seed, "scale": args.scale,
            "inputs": workload.inputs, "host": run.host,
            "repeats": len(run.reps), "traced_repeats": sum(r["traced"] for r in run.reps),
            "wall_s_each": [r["res"]["wall_s"] for r in run.reps if r["res"]],
            "setup_s_each": run.setup_samples(),
            "prefill_s": run.prefill_s,
            "error_rate": len(run.failures) / run.attempted,
            "failures": run.failures[:20],
            **extra,
        }
        print(json.dumps({"record": record}))
        print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                          "failed": len(run.failures), "metrics": metrics}))
        return 0
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for failure in run.failures[:10]:
            print(f"  {failure}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

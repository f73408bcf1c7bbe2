"""End-to-end command line behavior, run in process."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import openbaker
from openbaker import cli, csvio, spectra
from openbaker.cache import SpectrumCache
from openbaker.classical import OpeningSpec
from openbaker.cli import (
    MAX_GRID_POINTS,
    MAX_RASTER_T,
    MAX_RESOLUTION,
    MAX_T,
    _validate,
    build_parser,
    main,
)
from openbaker.propagator import PropagatorSpec
from openbaker.spectra import MAX_EIGEN_DIM, EigensolverError, resonance_set
from openbaker.stats import MAX_BINS, WeylDataPoint, rescaled_decay_histogram
from openbaker.trapped import exact_escape


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classical_sweep_row_count(tmp_path, capsys):
    code, out, err = run(
        ["classical", "--out", str(tmp_path), "--dq", "0.1",
         "--grid", "0:0.5:0.005", "--t", "9"],
        capsys,
    )
    assert code == 0
    sweep = tmp_path / "sweep_dq0.1_t9.csv"
    lines = sweep.read_text().splitlines()
    assert lines[0] == "q_c,delta_q,t,area"
    assert len(lines) == 1 + 101
    assert (tmp_path / (sweep.name + ".manifest.json")).exists()


def test_classical_zero_width_keeps_everything(tmp_path, capsys):
    code, out, err = run(
        ["classical", "--out", str(tmp_path), "--dq", "0",
         "--grid", "0:0.2:0.1", "--t", "5"],
        capsys,
    )
    assert code == 0
    lines = (tmp_path / "sweep_dq0_t5.csv").read_text().splitlines()[1:]
    assert all(line.endswith(",1") for line in lines)


def test_classical_series_and_raster(tmp_path, capsys):
    code, out, err = run(
        ["classical", "--out", str(tmp_path), "--dq", "0.1", "--grid", "0.5:0.5:1",
         "--series-qc", "0.5", "--tmax", "12", "--fit-range", "5:10",
         "--raster-qc", "0.5", "--raster-t", "3", "--resolution", "32"],
        capsys,
    )
    assert code == 0
    assert "gamma=" in out
    assert "exact_gamma=0.16510 exact_d_info=1.76181" in out
    series = (tmp_path / "series_qc0.5_dq0.1.csv").read_text().splitlines()
    assert series[0] == "t,area"
    assert len(series) == 1 + 13
    for mode in ("initial", "image"):
        pgm = tmp_path / f"raster_qc0.5_dq0.1_t3_{mode}.pgm"
        assert pgm.read_bytes().startswith(b"P5\n32 32\n255\n")


def test_classical_vanishing_series_fails_before_writing(tmp_path, capsys):
    # delta_q = 1 leaves no survivors from t = 1 on, inside the default
    # fit window 5:25; the delta_q = 0.1 sweep and series come first in
    # the output order, yet nothing may be written
    code, out, err = run(
        ["classical", "--out", str(tmp_path), "--dq", "0.1,1", "--grid", "0:0.5:0.1",
         "--series-qc", "0.3"],
        capsys,
    )
    assert code == 2
    assert err == (
        "error: survivor set of q_c=0.3 delta_q=1 vanished inside the fit window 5:25\n"
    )
    assert out == ""
    assert not list(tmp_path.glob("*.csv*"))


def test_classical_makes_no_cache_directory(tmp_path, capsys):
    argv = ["classical", "--out", str(tmp_path / "out"), "--dq", "0.1",
            "--grid", "0.5:0.5:1"]
    code, _, err = run(argv, capsys)
    assert code == 0, err
    assert not (tmp_path / "out" / "cache").exists()
    code, _, err = run(argv + ["--cache", str(tmp_path / "spectra")], capsys)
    assert code == 0, err
    assert not (tmp_path / "spectra").exists()


def test_fully_absorbing_opening_rasters_are_white(tmp_path, capsys):
    # delta_q = 1 leaves no survivors at all, so both rasters are empty
    code, out, err = run(
        ["classical", "--out", str(tmp_path), "--dq", "1", "--grid", "0:0.1:0.1",
         "--raster-qc", "0.5", "--t", "2", "--resolution", "8"],
        capsys,
    )
    assert code == 0, err
    for mode in ("initial", "image"):
        pgm = (tmp_path / f"raster_qc0.5_dq1_t2_{mode}.pgm").read_bytes()
        assert pgm == b"P5\n8 8\n255\n" + b"\xff" * 64


def test_spectrum_reruns_hit_cache(tmp_path, capsys):
    argv = ["spectrum", "--out", str(tmp_path), "--n", "32,48",
            "--qc", "0.5", "--dq", "0.1"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out.count("computed") == 2
    target = tmp_path / "spectrum_N32_qc0.5_dq0.1.csv"
    first = csvio.sha256_file(target)
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out.count("cache hit") == 2
    assert csvio.sha256_file(target) == first
    manifest = json.loads(
        (tmp_path / (target.name + ".manifest.json")).read_text()
    )
    assert manifest["sha256"] == first


def test_spectrum_renders_pinned_bytes(tmp_path, capsys):
    # the CSV is rendered from the cached values on every run; these are
    # the bytes of the 17-digit rendering of the solver's values, so a
    # change to the render or to the payload's round trip shows here
    argv = ["spectrum", "--out", str(tmp_path), "--n", "64", "--qc", "0.3", "--dq", "0.1"]
    for expected in ("computed", "cache hit"):
        code, out, _ = run(argv, capsys)
        assert code == 0 and expected in out
        assert csvio.sha256_file(tmp_path / "spectrum_N64_qc0.3_dq0.1.csv") == (
            "64da3464dd078698e196ea99e5bbc1fd630b54410458d72544ce109b5d246ed0"
        )


def test_spectrum_odd_dimension_fails_cleanly(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--out", str(out), "--n", "601", "--qc", "0.5", "--dq", "0.1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: quantization requires a positive even dimension, got 601" in err
    assert not out.exists()


@pytest.mark.parametrize("dim", ["0", "-2"])
def test_non_positive_dimension_is_named_as_such(tmp_path, capsys, dim):
    # 0 and -2 are even; the message names the rule they break
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--out", str(out), "--n", dim, "--qc", "0.5", "--dq", "0.1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"openbaker: error: quantization requires a positive even dimension, got {dim}"
    ]
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["spectrum", "--n", "", "--qc", "0.5", "--dq", "0.1"], "--n"),
    (["classical", "--dq", ""], "--dq"),
    (["weyl", "--n", "", "--qc", "0.5", "--dq", "0.1"], "--n"),
])
def test_an_empty_list_is_a_usage_error_naming_its_flag(
    tmp_path, capsys, monkeypatch, argv, flag
):
    def no_solve(spec):
        raise AssertionError(f"solved N={spec.dim} for an empty {flag}")

    monkeypatch.setattr(spectra, "_blocks", no_solve)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"openbaker {argv[0]}: error: argument {flag}: expected a comma list")
    assert line.endswith(", got ''")
    assert not out.exists()


def test_spectrum_mirror_openings_share_a_cache_entry(tmp_path, capsys):
    cache = tmp_path / "cache"

    def spectrum(dim, qc):
        code, out, _ = run(["spectrum", "--out", str(tmp_path), "--cache", str(cache),
                            "--n", str(dim), "--qc", qc, "--dq", "0.1"], capsys)
        assert code == 0
        return out, (tmp_path / f"spectrum_N{dim}_qc{qc}_dq0.1.csv").read_bytes()

    out_low, csv_low = spectrum(64, "0.3")
    out_high, csv_high = spectrum(64, "0.7")
    assert "computed" in out_low and "cache hit" in out_high
    assert csv_high == csv_low
    assert len(list(cache.iterdir())) == 1  # one file per entry
    # at N = 602 the edge q = 0.25 falls on site 150, which (0.3, 0.1)
    # absorbs while the mirror image of (0.7, 0.1) keeps it
    spectrum(602, "0.3")
    out_high, _ = spectrum(602, "0.7")
    assert "computed" in out_high
    assert len(list(cache.iterdir())) == 3


def test_stats_width_records_failures(tmp_path, capsys):
    code, out, err = run(
        ["stats", "width", "--out", str(tmp_path), "--dq", "0.1", "--qc", "0.5",
         "--nmin", "16", "--nmax", "19", "--step", "1"],
        capsys,
    )
    assert code == 0
    assert "width point N=17" in err and "width point N=19" in err
    rows = (tmp_path / "width_dq0.1.csv").read_text().splitlines()
    assert rows[0] == "N,q_c,sigma"
    assert [r.split(",")[0] for r in rows[1:]] == ["16", "18"]


def test_stats_width_loads_each_spec_once(tmp_path, capsys, monkeypatch):
    loads = Counter()
    load = SpectrumCache.load

    def counting_load(self, spec):
        loads[spec.dim] += 1
        return load(self, spec)

    monkeypatch.setattr(SpectrumCache, "load", counting_load)
    argv = ["stats", "width", "--out", str(tmp_path), "--dq", "0.1", "--qc", "0.5",
            "--nmin", "16", "--nmax", "22", "--step", "2"]
    for _ in ("cold", "warm"):
        loads.clear()
        code, out, err = run(argv, capsys)
        assert code == 0
        assert loads == {16: 1, 18: 1, 20: 1, 22: 1}


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_is_a_usage_error(tmp_path, capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--out", str(tmp_path), "--n", "16", "--qc", "0.5",
              "--dq", "0.1", "--jobs", jobs])
    assert exc.value.code == 2
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last.endswith(f"argument --jobs: must be at least 1, got {jobs}")


class FakeBlas:
    """A (get, set) stand-in for OpenBLAS's thread count that logs each set."""

    def __init__(self, threads):
        self.threads = threads
        self.sets = []

    def get(self):
        return self.threads

    def set(self, n):
        self.sets.append(n)
        self.threads = n

    def install(self, monkeypatch):
        """Make this the count _openblas gives, beside numpy's own zgeev."""
        real = spectra._openblas()
        if real is None:
            pytest.skip("numpy's BLAS is not OpenBLAS")
        monkeypatch.setattr(spectra, "_openblas", lambda: real._replace(
            get_threads=self.get, set_threads=self.set))


def solve_pool_threads() -> set:
    return {t for t in threading.enumerate() if t.name.startswith("openbaker-solve")}


@pytest.fixture
def recorded_pools(monkeypatch):
    """The worker count of every solve pool started, in order.

    A pool's workers share one job queue, and every pool is joined
    before the next starts.
    """
    started, queues, lock = [], [], threading.Lock()
    work = spectra._work

    def counting(jobs, done):
        with lock:
            if not queues or queues[-1] is not jobs:
                queues.append(jobs)
                started.append(0)
            started[-1] += 1
        work(jobs, done)

    monkeypatch.setattr(spectra, "_work", counting)
    return started


def test_solve_many_caps_workers(tmp_path, monkeypatch, recorded_pools):
    # the pool has one thread per available core whatever --jobs is, only
    # misses reach it, and each cache key is solved or loaded once
    blas = FakeBlas(5)
    blas.install(monkeypatch)
    cache = SpectrumCache(tmp_path)
    specs = [PropagatorSpec(dim, OpeningSpec("0.3", "0.1")) for dim in (16, 18, 20)]
    mirror = PropagatorSpec(16, OpeningSpec("0.7", "0.1"))
    monkeypatch.setattr(spectra, "_available_cores", lambda: 2)
    solved, _ = cache.solve(specs + [mirror], 64)
    assert list(solved) == specs + [mirror]
    assert all(rs.spec == spec for spec, rs in solved.items())
    assert (solved[mirror].values == solved[specs[0]].values).all()
    assert recorded_pools == [2] and blas.sets == [1, 5]
    # all hits: no pool and no change to the count
    again, _ = cache.solve(specs, 1)
    assert all((again[s].values == solved[s].values).all() for s in specs)
    assert recorded_pools == [2] and blas.sets == [1, 5]
    # one miss among hits, on 8 cores at --jobs 1
    monkeypatch.setattr(spectra, "_available_cores", lambda: 8)
    cache.solve(specs + [PropagatorSpec(22, OpeningSpec("0.3", "0.1"))], 1)
    assert recorded_pools == [2, 8] and blas.sets == [1, 5, 1, 5]
    assert len(list(tmp_path.glob("*.c16"))) == 4


def test_jobs_are_capped_by_the_cpu_affinity(tmp_path, monkeypatch, recorded_pools):
    # a process pinned to one core of an 8-core host solves on one worker
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5}, raising=False)
    specs = [PropagatorSpec(dim, OpeningSpec("0.5", "0.1")) for dim in (16, 18, 20)]
    solved, _ = SpectrumCache(tmp_path).solve(specs, 4)
    assert recorded_pools == [1]
    assert all((rs.values == resonance_set(spec).values).all()
               for spec, rs in solved.items())


def test_solve_many_restores_blas_threads_when_a_solve_raises(tmp_path, monkeypatch):
    blas = FakeBlas(4)
    prepare = spectra._prepare
    solved = []
    specs = [PropagatorSpec(dim, OpeningSpec("0.3", "0.1")) for dim in (16, 18, 20)]
    # each spec is one solve of its 14, 16 or 18 kept sites
    dims = {int(spec.kept_mask().sum()): spec.dim for spec in specs}

    def failing(m, overwrite=False):
        dim, solve = dims[m.shape[0]], prepare(m, overwrite)

        def failing_solve():
            solved.append(dim)
            if dim == 18:
                raise EigensolverError("QR iteration did not converge")
            return solve()

        return failing_solve

    blas.install(monkeypatch)
    monkeypatch.setattr(spectra, "_prepare", failing)
    monkeypatch.setattr(spectra, "_available_cores", lambda: 2)
    cache = SpectrumCache(tmp_path)
    before = solve_pool_threads()
    with pytest.raises(EigensolverError):
        cache.solve(specs, 1)
    assert blas.sets == [1, 4] and blas.threads == 4
    assert spectra._blas_pins == 0
    assert solve_pool_threads() == before
    # at --jobs 1 the largest spectrum solves alone first and is stored;
    # the failing one is not stored, and the one after it never starts
    assert solved == [20, 18]
    assert [cache.has(spec) for spec in specs] == [False, False, True]


def test_solve_many_restores_the_real_blas_thread_count(tmp_path, monkeypatch):
    blas = spectra._openblas()
    if blas is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    get = blas.get_threads
    before = get()
    seen = []
    prepare = spectra._prepare

    def recording(m, overwrite=False):
        solve = prepare(m, overwrite)

        def counted_solve():
            seen.append(get())
            return solve()

        return counted_solve

    monkeypatch.setattr(spectra, "_prepare", recording)
    monkeypatch.setattr(spectra, "_available_cores", lambda: 2)
    specs = [PropagatorSpec(dim, OpeningSpec("0.3", "0.2")) for dim in (16, 18)]
    solved, _ = SpectrumCache(tmp_path).solve(specs, jobs=2)
    assert list(solved) == specs
    assert seen == [1] * 2
    assert get() == before


def test_solve_reports_the_entries_stored_before_the_call(tmp_path, monkeypatch,
                                                          recorded_pools):
    # a mirror pair shares one entry: cold, both are misses and it is
    # solved once; warm, every spec is a hit and no pool starts
    blocks = spectra._blocks
    solved_dims = []

    def counting(spec):
        solved_dims.append(spec.dim)
        return blocks(spec)

    monkeypatch.setattr(spectra, "_blocks", counting)
    cache = SpectrumCache(tmp_path)
    low, high = (PropagatorSpec(16, OpeningSpec(qc, "0.1")) for qc in ("0.3", "0.7"))
    other = PropagatorSpec(18, OpeningSpec("0.3", "0.1"))
    solved, hits = cache.solve([low, high, other])
    assert list(solved) == [low, high, other] and hits == set()
    assert solved_dims == [16, 18] and len(recorded_pools) == 1
    again, hits = cache.solve([high, other, low])
    assert list(again) == [high, other, low] and hits == {low, high, other}
    assert all((again[s].values == solved[s].values).all() for s in solved)
    assert solved_dims == [16, 18] and len(recorded_pools) == 1


def test_stats_reports_each_spectrum_once(tmp_path, capsys):
    argv = ["stats", "cumulative", "--out", str(tmp_path), "--dq", "0.1",
            "--n", "16,32", "--qc", "0.3,0.7"]
    specs = [(n, qc) for qc in ("0.3", "0.7") for n in (16, 32)]
    for status in ("computed", "cache hit"):
        code, out, err = run(argv, capsys)
        assert code == 0, err
        assert [line for line in out.splitlines() if line.startswith("spectrum ")] == [
            f"spectrum N={n} qc={qc} dq=0.1: {status}" for n, qc in specs
        ]


def solve_to_cache(tmp_path, capsys, name, qc, dq, jobs) -> Path:
    """Run spectrum over N = 502, 504, 506 into a fresh cache; return it."""
    cache = tmp_path / f"cache-{name}"
    code, out, err = run(
        ["spectrum", "--out", str(tmp_path / f"out-{name}"), "--cache", str(cache),
         "--n", "502,504,506", "--qc", qc, "--dq", dq, "--jobs", jobs],
        capsys,
    )
    assert code == 0, err
    return cache


def tree_bytes(root: Path) -> dict:
    """{relative path: bytes} of every file below root."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def same_trees(a: Path, b: Path) -> bool:
    files = tree_bytes(a)
    assert len(files) == 3  # one per spectrum, so the comparison is not vacuous
    return files == tree_bytes(b)


@pytest.fixture
def later(monkeypatch):
    """Each call moves the clock that time.time and time.gmtime read an hour
    ahead, so a file that records when it was written differs between runs."""
    real_time, real_gmtime = time.time, time.gmtime
    offset = 0.0

    def now():
        return real_time() + offset

    def advance():
        nonlocal offset
        offset += 3600.0

    monkeypatch.setattr(time, "time", now)
    monkeypatch.setattr(time, "gmtime", lambda secs=None: real_gmtime(
        now() if secs is None else secs))
    return advance


def test_concurrent_solves_match_serial_ones(tmp_path, capsys, monkeypatch, later):
    # every block runs on one BLAS thread, so --jobs changes no byte of the
    # cache, for full solves and for parity-split ones
    monkeypatch.setattr(spectra, "_available_cores", lambda: 2)
    for qc, dq in (("0.3", "0.2"), ("0.5", "0.1")):
        pooled = solve_to_cache(tmp_path, capsys, f"{qc}-2", qc, dq, "2")
        later()
        serial = solve_to_cache(tmp_path, capsys, f"{qc}-1", qc, dq, "1")
        assert same_trees(pooled, serial)
        for dim in (502, 504, 506):
            # load re-checks the embedded digest and the trace identity
            SpectrumCache(serial).load(PropagatorSpec(dim, OpeningSpec(qc, dq)))


def test_core_count_changes_no_bits(tmp_path, capsys, monkeypatch, later):
    caches = []
    for cores in (1, 2):
        monkeypatch.setattr(spectra, "_available_cores", lambda: cores)
        caches.append(solve_to_cache(tmp_path, capsys, str(cores), "0.3", "0.2", "1"))
        later()
    assert same_trees(*caches)


def test_reruns_leave_identical_cache_trees(tmp_path, capsys, later):
    # a rerun into a fresh cache, later, writes the same bytes, and a rerun
    # that hits the cache leaves it as it was
    first = solve_to_cache(tmp_path, capsys, "first", "0.3", "0.1", "1")
    later()
    again = solve_to_cache(tmp_path, capsys, "again", "0.3", "0.1", "1")
    assert same_trees(first, again)
    before = tree_bytes(first)
    later()
    assert solve_to_cache(tmp_path, capsys, "first", "0.3", "0.1", "1") == first
    assert tree_bytes(first) == before


def test_weyl_schedule_changes_no_bytes(tmp_path, capsys, monkeypatch):
    # symmetric masks (N = 64, 256) and full solves (N = 10 mod 20) share
    # the cores differently at --jobs 1 and 2; the files are the same, and
    # the manifests differ only in the jobs they record
    monkeypatch.setattr(spectra, "_available_cores", lambda: 2)
    trees = []
    for jobs in ("1", "2"):
        (tmp_path / jobs).mkdir()
        monkeypatch.chdir(tmp_path / jobs)
        code, _, err = run(["weyl", "--qc", "0.5", "--dq", "0.1", "--n", "64,70,90,130,256",
                            "--out", "out", "--jobs", jobs], capsys)
        assert code == 0, err
        trees.append(tree_bytes(tmp_path / jobs / "out"))
    one, two = trees
    assert sorted(one) == sorted(two) and len([p for p in one if p.startswith("cache")]) == 5
    for path, data in one.items():
        if path.endswith(".manifest.json"):
            mine, theirs = json.loads(data), json.loads(two[path])
            assert (mine["parameters"].pop("jobs"), theirs["parameters"].pop("jobs")) == ("1", "2")
            assert mine == theirs, path
        else:
            assert data == two[path], path


def test_cli_import_loads_no_test_dependency(tmp_path):
    # numpy is the only runtime dependency; the rest are the tests' own
    src = str(Path(openbaker.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    # and the parser is built by main's first call, not at import; a cold
    # solve on two workers loads neither concurrent.futures nor the
    # logging it imports, about 0.25 MB of peak RSS together
    probe = ("import sys, openbaker.cli\n"
             "assert openbaker.cli.build_parser.cache_info().currsize == 0\n"
             "def loaded(*names):\n"
             "    return sorted(m for m in sys.modules if m.split('.')[0] in names)\n"
             "print(loaded('scipy', 'mpmath', 'hypothesis', 'concurrent', 'logging'))\n"
             "assert openbaker.cli.main(['stats', 'width', '--dq', '0.2', '--qc', '0.3',\n"
             "    '--nmin', '16', '--nmax', '20', '--jobs', '2', '--out', 'out']) == 0\n"
             "print(loaded('concurrent', 'logging'))\n")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, env=env, cwd=tmp_path, timeout=120, check=True)
    lines = result.stdout.splitlines()
    assert "computed" in result.stdout and (lines[0], lines[-1]) == ("[]", "[]")


def test_cli_jobs_load_neither_numpy_random_nor_numpy_ma(tmp_path):
    # their first imports add about 2 MB and 0.9 MB of peak RSS, and no
    # command needs them: the sampler's numpy.random is the library's
    src = str(Path(openbaker.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    probe = (
        "import sys\n"
        "from openbaker.cli import main\n"
        "for argv in (\n"
        "        ['spectrum', '--n', '16,18', '--qc', '0.3', '--dq', '0.1'],\n"
        "        ['stats', 'width', '--dq', '0.2', '--qc', '0.3', '--nmin', '16',\n"
        "         '--nmax', '20'],\n"
        "        ['stats', 'rescaled', '--n', '16', '--qc', '0.5', '--dq', '0.1'],\n"
        "        ['weyl', '--qc', '0.5', '--dq', '0.1', '--n', '8,12,16,32'],\n"
        "        ['classical', '--dq', '0.1', '--grid', '0:0.5:0.25', '--t', '4', '--series-qc',\n"
        "         '0.3', '--tmax', '12', '--fit-range', '5:12', '--raster-qc', '0.3',\n"
        "         '--resolution', '16']):\n"
        "    assert main(argv + ['--out', 'out']) == 0, argv\n"
        "print(sorted(m for m in ('numpy.random', 'numpy.ma') if m in sys.modules))\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=env, cwd=tmp_path, timeout=300, check=True)
    assert result.stdout.splitlines()[-1] == "[]"


def test_stats_histogram_and_cumulative(tmp_path, capsys):
    for mode, prefix in (("cumulative", "cumulative"), ("histogram", "histogram")):
        code, out, err = run(
            ["stats", mode, "--out", str(tmp_path), "--dq", "0.1",
             "--qc", "0.5", "--n", "32"],
            capsys,
        )
        assert code == 0
        assert (tmp_path / f"{prefix}_N32_qc0.5_dq0.1.csv").exists()


def test_stats_rescaled_reports_rate(tmp_path, capsys):
    # the exact rate of the opening unless --gamma-cl gives one
    opening = OpeningSpec("0.5", "0.1")
    rs = resonance_set(PropagatorSpec(64, opening))
    for extra, gamma, printed in (([], exact_escape(opening).gamma, "0.16510"),
                                  (["--gamma-cl", "0.2"], 0.2, "0.20000")):
        code, out, err = run(
            ["stats", "rescaled", "--out", str(tmp_path / "out"), "--dq", "0.1",
             "--qc", "0.5", "--n", "64", *extra],
            capsys,
        )
        assert code == 0, err
        assert f"qc=0.5: gamma_cl={printed}" in out.splitlines()
        written = tmp_path / "out" / "rescaled_N64_qc0.5_dq0.1.csv"
        assert written.read_text().splitlines()[0] == "gamma_over_gamma_cl,W"
        expected = tmp_path / "expected.csv"
        csvio.write_rescaled_csv(expected, rescaled_decay_histogram(rs, gamma))
        assert written.read_bytes() == expected.read_bytes()


def test_stats_requires_parameters(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stats", "cumulative", "--out", str(tmp_path), "--dq", "0.1",
              "--qc", "0.5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["stats", "cumulative", "--out", str(tmp_path), "--dq", "0.1",
              "--n", "32"])
    assert exc.value.code == 2


def test_weyl_selftest(tmp_path, capsys):
    code, out, err = run(["weyl", "--inject", "power-law", "--out", str(tmp_path)],
                         capsys)
    assert code == 0
    assert "self-test" in out
    assert (tmp_path / "weyl_synthetic.csv").exists()
    assert (tmp_path / "weyl_fit_synthetic.txt").exists()


def test_weyl_selftest_that_misses_its_target_exits_2(tmp_path, capsys, monkeypatch):
    # counts 3 * 16^k against dims 16^k: slope 1, not the 4/5 the self-test wants
    points = [WeylDataPoint(dim=16**k, count=3 * 16**k) for k in range(1, 5)]
    monkeypatch.setattr(cli, "synthetic_power_law_points", lambda: points)
    code, out, err = run(["weyl", "--inject", "power-law", "--out", str(tmp_path)], capsys)
    assert code == 2
    (line,) = err.splitlines()
    head, recovered = line.removesuffix(", wanted 0.8").split(" recovered ")
    assert head == "error: self-test failed:" and float(recovered) == pytest.approx(1.0)
    assert "self-test" not in out


def test_weyl_selftest_makes_no_cache_directory(tmp_path, capsys):
    # the synthetic self-test solves nothing, so it creates no cache directory
    argv = ["weyl", "--inject", "power-law", "--out", str(tmp_path / "out")]
    code, _, err = run(argv, capsys)
    assert code == 0, err
    assert sorted(p.name for p in (tmp_path / "out").iterdir() if p.is_dir()) == []
    code, _, err = run(argv + ["--cache", str(tmp_path / "spectra")], capsys)
    assert code == 0, err
    assert not (tmp_path / "spectra").exists()


def test_weyl_requires_opening_without_inject(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["weyl", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_weyl_degenerate_counts_fail_cleanly(tmp_path, capsys):
    code, out, err = run(
        ["weyl", "--out", str(tmp_path), "--qc", "0.5", "--dq", "0.96",
         "--n", "4,8,16,32"],
        capsys,
    )
    assert code == 2
    assert "error:" in err and "positive" in err


@pytest.mark.parametrize("dims, message", [
    ("64,90,128", "--n needs at least 4 distinct dimensions for the fit, got 3"),
    ("16,16,16,64", "--n needs at least 4 distinct dimensions for the fit, got 2"),
    ("64,90,128,180", "--n must span at least a factor 4 in dimension, got 64..180"),
])
def test_weyl_rejects_unfittable_dimensions_before_solving(tmp_path, capsys, dims, message):
    with pytest.raises(SystemExit) as exc:
        main(["weyl", "--out", str(tmp_path / "out"), "--qc", "0.5", "--dq", "0.1",
              "--n", dims])
    assert exc.value.code == 2
    assert capsys.readouterr().err.strip().splitlines()[-1].endswith(message)
    assert list(tmp_path.iterdir()) == []  # no output directory, no cache entry


def test_weyl_small_fit_runs(tmp_path, capsys):
    code, out, err = run(
        ["weyl", "--out", str(tmp_path), "--qc", "0.5", "--dq", "0.1",
         "--n", "16,24,32,48,64,96", "--jobs", "2"],
        capsys,
    )
    assert code == 0
    # one report line per dimension, all before the fit line
    lines = out.splitlines()
    assert lines[:6] == [f"spectrum N={n} qc=0.5 dq=0.1: computed"
                         for n in (16, 24, 32, 48, 64, 96)]
    assert lines[-1].startswith("weyl fit: slope=")
    summary = (tmp_path / "weyl_fit_qc0.5_dq0.1.txt").read_text()
    assert "reference=" in summary and "deviation=" in summary


def test_weyl_fits_a_repeated_dimension_once(tmp_path, capsys):
    # --n keeps each dimension once, in the order first given
    outputs = []
    for name, dims in (("repeated", "16,16,24,32,64"), ("distinct", "16,24,32,64")):
        code, out, err = run(["weyl", "--out", str(tmp_path / name), "--qc", "0.5",
                              "--dq", "0.1", "--n", dims], capsys)
        assert code == 0, err
        assert "weyl fit: slope=0.8795 " in out
        outputs.append([(tmp_path / name / f).read_bytes()
                        for f in ("weyl_qc0.5_dq0.1.csv", "weyl_fit_qc0.5_dq0.1.txt")])
    assert outputs[0] == outputs[1]
    assert len(outputs[0][0].splitlines()) == 5  # the header and four rows


def test_stats_writes_a_repeated_dimension_or_centre_once(tmp_path, capsys):
    code, out, err = run(["stats", "rescaled", "--out", str(tmp_path), "--n", "64,32,64",
                          "--qc", "0.5,0.3,0.5", "--dq", "0.1", "--gamma-cl", "0.2"], capsys)
    assert code == 0, err
    assert [line for line in out.splitlines() if line.startswith("wrote ")] == [
        f"wrote {tmp_path / f'rescaled_N{n}_qc{qc}_dq0.1.csv'}"
        for qc in ("0.5", "0.3") for n in (64, 32)]
    # a value is the same however it is written
    args = build_parser().parse_args(["stats", "width", "--dq", "0.1", "--qc", "0.5,1/2,0.3"])
    assert args.qc == [Fraction(1, 2), Fraction(3, 10)]


@pytest.mark.parametrize("dq, reference", [
    # the trapped set of (0.5, 0.2) is countable; the t <= 25 area fit read 0.093
    ("0.2", "0.000000"),
    ("0.1", "0.761814"),
])
def test_weyl_reference_is_the_exact_dimension(tmp_path, capsys, dq, reference):
    code, out, err = run(
        ["weyl", "--out", str(tmp_path), "--qc", "0.5", "--dq", dq,
         "--n", "16,24,32,48,64"],
        capsys,
    )
    assert code == 0, err
    exact = exact_escape(OpeningSpec("0.5", dq)).d_info - 1
    assert f"{exact:.6f}" == reference
    lines = (tmp_path / f"weyl_fit_qc0.5_dq{dq}.txt").read_text().splitlines()
    assert lines[2] == f"reference={reference}"
    slope = float(lines[0].removeprefix("slope="))
    assert float(lines[3].removeprefix("deviation=")) == pytest.approx(slope - exact, abs=2e-6)
    assert f"reference={exact:.4f}" in out


@pytest.mark.parametrize("command", [["weyl", "--n", "16,24,32,64"],
                                     ["stats", "rescaled", "--n", "16"]])
def test_hole_no_orbit_survives_fails_before_solving(tmp_path, capsys, monkeypatch, command):
    def no_solve(spec):
        raise AssertionError(f"solved N={spec.dim}")

    monkeypatch.setattr(spectra, "_blocks", no_solve)
    code, out, err = run(command + ["--out", str(tmp_path), "--qc", "0", "--dq", "0.7"],
                         capsys)
    assert code == 2
    assert err.startswith("error: no orbit avoids the hole of width 7/10 forever")
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("argv", [
    ["weyl", "--qc", "0", "--dq", "0.7", "--n", "16,24,32,64"],
    ["stats", "rescaled", "--qc", "0", "--dq", "0.7", "--n", "16"],
    ["weyl", "--qc", "0.5", "--dq", "0.000000512", "--n", "16,24,32,64"],
    ["stats", "rescaled", "--qc", "0.5", "--dq", "0.000000512", "--n", "16"],
    ["classical", "--dq", "0.000000512", "--grid", "0.5:0.5:0.1"],
    # the first width's sweep succeeds; the second hits the cell cap
    ["classical", "--dq", "0.1,0.000000512", "--grid", "0.5:0.5:0.1"],
], ids=["weyl no survivor", "rescaled no survivor", "weyl cell cap",
        "rescaled cell cap", "classical cell cap", "classical second sweep"])
def test_a_domain_error_before_the_first_output_leaves_no_out(tmp_path, capsys, argv):
    out = tmp_path / "out"
    code, stdout, err = run(argv + ["--out", str(out)], capsys)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert stdout == ""
    assert not out.exists()


def test_mirror_openings_solve_and_load_once(tmp_path, capsys, monkeypatch):
    # (0.3, 0.1) and (0.7, 0.1) absorb mirror-image sites at N = 16, 20, 64
    blocks, load = spectra._blocks, SpectrumCache.load
    solves, gets = [], []

    def counting_solve(spec):
        solves.append(spec.dim)
        return blocks(spec)

    def counting_get(self, spec):
        gets.append(spec.dim)
        return load(self, spec)

    monkeypatch.setattr(spectra, "_blocks", counting_solve)
    monkeypatch.setattr(SpectrumCache, "load", counting_get)
    monkeypatch.setattr(spectra, "_available_cores", lambda: 2)
    out = tmp_path / "out"
    code, _, err = run(["stats", "cumulative", "--out", str(out), "--n", "64",
                        "--qc", "0.3,0.7", "--dq", "0.1", "--jobs", "2"], capsys)
    assert code == 0, err
    assert solves == gets == [64]
    low, high = (out / f"cumulative_N64_qc{qc}_dq0.1.csv" for qc in ("0.3", "0.7"))
    assert low.read_bytes() == high.read_bytes()
    solves.clear()
    gets.clear()
    code, _, err = run(["stats", "width", "--out", str(out), "--nmin", "16", "--nmax", "20",
                        "--step", "4", "--qc", "0.3,0.7", "--dq", "0.1", "--jobs", "2"],
                       capsys)
    assert code == 0, err
    assert sorted(solves) == sorted(gets) == [16, 20]
    rows = [r.split(",") for r in (out / "width_dq0.1.csv").read_text().splitlines()[1:]]
    assert [r[:2] for r in rows] == [["16", "0.3"], ["20", "0.3"], ["16", "0.7"], ["20", "0.7"]]
    assert [r[2] for r in rows[:2]] == [r[2] for r in rows[2:]]


def test_bad_grid_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["classical", "--out", str(tmp_path), "--grid", "0.5:0:0.1"])
    assert exc.value.code == 2


def test_grid_above_cap_is_a_usage_error(tmp_path, capsys):
    # the point count is found from the Fractions before any list is built
    with pytest.raises(SystemExit) as exc:
        main(["classical", "--out", str(tmp_path), "--grid", "0:1:0.000000001"])
    assert exc.value.code == 2
    assert f"has 1000000001 points, more than {MAX_GRID_POINTS}" in capsys.readouterr().err
    args = build_parser().parse_args(["classical", "--grid", f"1:{MAX_GRID_POINTS}:1"])
    assert len(args.grid) == MAX_GRID_POINTS and args.grid[-1] == MAX_GRID_POINTS


def test_width_nmax_above_solver_cap_is_a_usage_error(tmp_path, capsys, monkeypatch):
    def no_solve(spec):
        raise AssertionError(f"solved N={spec.dim} before rejecting --nmax")

    monkeypatch.setattr(spectra, "_blocks", no_solve)
    with pytest.raises(SystemExit) as exc:
        main(["stats", "width", "--out", str(tmp_path), "--dq", "0.1", "--qc", "0.5",
              "--nmin", "16", "--nmax", str(MAX_EIGEN_DIM + 1)])
    assert exc.value.code == 2
    assert f"exceeds the solver cap {MAX_EIGEN_DIM}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spectrum", "--n", f"16,{MAX_EIGEN_DIM + 1}", "--qc", "0.5", "--dq", "0.1"],
         f"--n {MAX_EIGEN_DIM + 1} exceeds the solver cap {MAX_EIGEN_DIM}"),
        (["stats", "cumulative", "--n", f"16,{MAX_EIGEN_DIM + 1}", "--qc", "0.5",
          "--dq", "0.1"],
         f"--n {MAX_EIGEN_DIM + 1} exceeds the solver cap {MAX_EIGEN_DIM}"),
        (["weyl", "--n", f"16,24,32,{MAX_EIGEN_DIM + 2}", "--qc", "0.5", "--dq", "0.1"],
         f"--n {MAX_EIGEN_DIM + 2} exceeds the solver cap {MAX_EIGEN_DIM}"),
        (["weyl", "--n", "16,24,32,64", "--qc", "0.5", "--dq", "0.1", "--nu-cut", "1.5"],
         "--nu-cut must lie in [0, 1), got 1.5"),
        (["weyl", "--n", "16,24,32,64", "--qc", "0.5", "--dq", "0.1", "--nu-cut", "-0.1"],
         "--nu-cut must lie in [0, 1), got -0.1"),
        (["stats", "rescaled", "--n", "16", "--qc", "0.5", "--dq", "0.1",
          "--gamma-cl", "0"], "--gamma-cl must be finite and positive, got 0.0"),
        (["stats", "rescaled", "--n", "16", "--qc", "0.5", "--dq", "0.1",
          "--gamma-cl", "nan"], "--gamma-cl must be finite and positive, got nan"),
        (["stats", "rescaled", "--n", "16", "--qc", "0.5", "--dq", "0.1",
          "--gamma-cl", "inf"], "--gamma-cl must be finite and positive, got inf"),
        (["stats", "cumulative", "--n", "16,17", "--qc", "0.5", "--dq", "0.1"],
         "quantization requires a positive even dimension, got 17"),
        (["stats", "histogram", "--n", "16", "--qc", "0.5", "--dq", "1.5"],
         "delta_q must lie in [0, 1], got 3/2"),
        (["stats", "width", "--qc", "0.5,1", "--dq", "0.1", "--nmin", "16", "--nmax", "20"],
         "q_c must lie in [0, 1), got 1"),
        (["spectrum", "--n", "16", "--qc", "1.2", "--dq", "0.1"],
         "q_c must lie in [0, 1), got 6/5"),
        (["weyl", "--n", "16,24,32,65", "--qc", "0.5", "--dq", "0.1"],
         "quantization requires a positive even dimension, got 65"),
        (["stats", "rescaled", "--n", "16,32", "--qc", "0.5", "--dq", "0"],
         "the closed map (--dq 0) has no escape rate to rescale by; "
         "give one with --gamma-cl"),
        (["stats", "histogram", "--n", "16", "--qc", "0.5", "--dq", "0.1",
          "--range", "0:1e400"], "--range bounds must be finite floats"),
        # a bin count is capped before any array of that length is made
        (["stats", "histogram", "--n", "16", "--qc", "0.5", "--dq", "0.1", "--bin", "1e-9"],
         f"bin width 1e-09 over [0.0, 1.0] makes more than {MAX_BINS} bins"),
        (["stats", "width", "--qc", "0.5", "--dq", "0.1", "--bin", "1e-300"],
         f"bin width 1e-300 over [0.7, 1.0] makes more than {MAX_BINS} bins"),
        (["stats", "histogram", "--n", "16", "--qc", "0.5", "--dq", "0.1", "--bin", "nan"],
         "bin width must be positive, got nan"),
        (["stats", "width", "--qc", "0.5", "--dq", "0.1", "--bin", "-0.01"],
         "bin width must be positive, got -0.01"),
        # a bound that is not a number is named before the range is judged
        (["stats", "width", "--qc", "0.5", "--dq", "0.1", "--tail-lo", "nan"],
         "--tail-lo must be finite, got nan"),
        (["stats", "width", "--qc", "0.5", "--dq", "0.1", "--tail-lo", "inf"],
         "--tail-lo must be finite, got inf"),
        (["stats", "width", "--qc", "0.5", "--dq", "0.1", "--tail-lo=-inf"],
         "--tail-lo must be finite, got -inf"),
        (["stats", "rescaled", "--n", "16", "--qc", "0.5", "--dq", "0.1",
          "--tail-lo", "nan"], "--tail-lo must be finite, got nan"),
    ],
)
def test_bad_spectral_inputs_fail_before_solving(
    tmp_path, capsys, monkeypatch, argv, message
):
    def no_solve(spec):
        raise AssertionError(f"solved N={spec.dim} before rejecting the input")

    monkeypatch.setattr(spectra, "_blocks", no_solve)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.strip().splitlines()[-1].endswith(message)
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["stats", "cumulative", "--n", "16", "--qc", "0.1234567,0.1234568", "--dq", "0.1"],
         "--qc values 0.1234567 and 0.1234568 both name files 0.123457"),
        (["stats", "width", "--qc", "0.5,0.3,0.50000001", "--dq", "0.1",
          "--nmin", "16", "--nmax", "20"],
         "--qc values 0.5 and 0.50000001 both name files 0.5"),
        (["classical", "--dq", "0.1,0.2,0.1000001"],
         "--dq values 0.1 and 0.1000001 both name files 0.1"),
        (["classical", "--dq", "0.1", "--series-qc", "0.3,3/10,0.3000002"],
         "--series-qc values 0.3 and 0.3000002 both name files 0.3"),
        (["classical", "--dq", "0.1", "--raster-qc", "1/3,0.333333"],
         "--raster-qc values 0.3333333333333333 and 0.333333 both name files 0.333333"),
    ],
)
def test_values_that_name_one_file_are_refused_before_any_work(
    tmp_path, capsys, monkeypatch, argv, message
):
    def no_work(*args):
        raise AssertionError("computed before rejecting the input")

    monkeypatch.setattr(spectra, "_blocks", no_work)
    monkeypatch.setattr(cli, "qc_sweep", no_work)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"openbaker: error: {message}; their outputs would collide"
    assert not out.exists()


def test_values_that_differ_in_six_digits_keep_their_files(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["stats", "cumulative", "--n", "16", "--qc", "0.123456,0.123457", "--dq", "0.1"]
    assert main(argv + ["--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("*.csv")) == [
        "cumulative_N16_qc0.123456_dq0.1.csv", "cumulative_N16_qc0.123457_dq0.1.csv"
    ]


@pytest.mark.parametrize(
    "argv, message",
    [
        # rejected in _validate
        (["stats", "cumulative", "--n", "16,4098", "--qc", "0.5", "--dq", "0.1"],
         "openbaker: error: --n 4098 exceeds the solver cap 4096"),
        # rejected by an argparse type function of a subcommand
        (["stats", "width", "--qc", "0.5", "--dq", "0.1", "--jobs", "0"],
         "openbaker stats: error: argument --jobs: must be at least 1, got 0"),
    ],
)
def test_usage_errors_print_one_line(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines() == [message]


@pytest.mark.parametrize("flag", ["--out", "--cache"])
def test_a_file_where_a_directory_goes_is_one_line(tmp_path, capsys, flag):
    # rejected as a usage error before anything is created, also where
    # the file is a parent of the directory asked for
    blocker = tmp_path / "file"
    blocker.write_text("")
    for target in (blocker, blocker / "sub"):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--out", str(tmp_path / "out"), "--n", "16",
                  "--qc", "0.5", "--dq", "0.1", flag, str(target)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"openbaker: error: {flag} {target} is not a directory"
        ]
        assert sorted(tmp_path.iterdir()) == [blocker]


@pytest.mark.parametrize("corrupt", [
    lambda data: data[:20],
    lambda data: bytes([data[0] ^ 1]) + data[1:],
    lambda data: data[:-1] + bytes([data[-1] ^ 1]),
], ids=["shorter than the digest", "digest byte flipped", "value byte flipped"])
def test_a_corrupt_entry_is_one_line(tmp_path, capsys, corrupt):
    argv = ["spectrum", "--out", str(tmp_path), "--n", "16", "--qc", "0.5", "--dq", "0.1"]
    assert run(argv, capsys)[0] == 0
    (path,) = (tmp_path / "cache").iterdir()
    path.write_bytes(corrupt(path.read_bytes()))
    code, out, err = run(argv, capsys)
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: checksum mismatch for {path.name}: stored ")


@pytest.mark.parametrize("resize, modes", [
    (lambda data: data[:-16], "15"),
    (lambda data: data[:-5], "15.6875"),
    (lambda data: data + bytes(16), "17"),
])
def test_a_payload_of_the_wrong_length_is_one_line(tmp_path, capsys, resize, modes):
    argv = ["spectrum", "--out", str(tmp_path), "--n", "16", "--qc", "0.5", "--dq", "0.1"]
    assert run(argv, capsys)[0] == 0
    (entry,) = (tmp_path / "cache").iterdir()
    values = resize(entry.read_bytes()[32:])
    entry.write_bytes(hashlib.sha256(values).digest() + values)  # a consistent digest
    code, out, err = run(argv, capsys)
    assert code == 2
    assert err.splitlines() == [
        f"error: {entry.name} holds {modes} modes, expected 16"
    ]


@pytest.mark.parametrize("argv, message", [
    (["classical", "--grid", "0:0.5"], "argument --grid: expected start:stop:step with "
     "step > 0 and stop >= start, such as 0:0.5:0.005, got '0:0.5'"),
    (["classical", "--grid", "0.5:0:0.1"], "argument --grid: expected start:stop:step with "
     "step > 0 and stop >= start, such as 0:0.5:0.005, got '0.5:0:0.1'"),
    (["classical", "--dq", "0.1,x"], "argument --dq: expected a comma list of decimals "
     "or fractions such as 0.1,1/5, got '0.1,x'"),
    (["stats", "histogram", "--dq", "0.1", "--range", "0.2"],
     "argument --range: expected lo:hi, such as 0:1, got '0.2'"),
    (["spectrum", "--qc", "0.5", "--dq", "0.1", "--n", "a"],
     "argument --n: expected a comma list of integers such as 512,1024, got 'a'"),
    (["spectrum", "--n", "16", "--qc", "0.5", "--dq", "0.1", "--jobs", "x"],
     "argument --jobs: expected an integer, got 'x'"),
    (["spectrum", "--n", "16", "--dq", "0.1", "--qc", "x"],
     "argument --qc: expected a decimal or fraction such as 0.3 or 3/10, got 'x'"),
    (["weyl", "--qc", "0.5", "--dq", "1/0"],
     "argument --dq: expected a decimal or fraction such as 0.3 or 3/10, got '1/0'"),
])
def test_malformed_values_name_the_form_expected(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"openbaker {argv[0]}: error: {message}"


def test_parser_defaults_are_parsed():
    args = build_parser().parse_args(["classical"])
    assert len(args.grid) == 101
    assert not hasattr(args, "seed")
    assert [str(dq) for dq in args.dq] == ["1/20", "1/10", "1/5"]
    assert args.fit_range == (5, 25) and str(args.fit_range) == "5:25"
    args = build_parser().parse_args(["weyl", "--inject", "power-law"])
    assert args.n == []


def _defaults(parser: argparse.ArgumentParser) -> dict:
    """Every option's default, by subcommand."""
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {a.dest: sub.get_default(a.dest) for a in sub._actions}
            for name, sub in commands.choices.items()}


def test_main_reuses_one_parser():
    assert build_parser() is build_parser()


def test_text_defaults_are_typed_on_every_parse():
    one, two = (build_parser().parse_args(["classical"]) for _ in range(2))
    assert one.grid == two.grid and one.grid is not two.grid
    assert one.dq == two.dq and one.dq is not two.dq


def test_commands_leave_the_shared_defaults_as_built(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in (
            ["classical"],
            ["spectrum", "--n", "16", "--qc", "0.3", "--dq", "0.1"],
            ["stats", "cumulative", "--n", "16", "--qc", "0.3", "--dq", "0.1"],
            ["stats", "histogram", "--n", "16", "--qc", "0.3", "--dq", "0.1"],
            ["stats", "rescaled", "--n", "16", "--qc", "0.3", "--dq", "0.1"],
            ["stats", "width", "--dq", "0.1", "--qc", "0.3", "--nmin", "16", "--nmax", "20"],
            ["weyl", "--qc", "0.5", "--dq", "0.1", "--n", "8,12,16,32"],
            ["weyl", "--inject", "power-law"]):
        assert main(argv) == 0, argv
    capsys.readouterr()
    defaults = _defaults(build_parser())
    assert defaults == _defaults(build_parser.__wrapped__())
    empty = [(name, dest) for name, options in defaults.items()
             for dest, value in options.items() if isinstance(value, list)]
    assert sorted(empty) == [("classical", "raster_qc"), ("classical", "series_qc"),
                             ("stats", "n"), ("stats", "qc"), ("weyl", "n")]
    assert all(defaults[name][dest] == [] for name, dest in empty)


def test_a_parse_after_another_command_writes_the_same_bytes(tmp_path, capsys, monkeypatch):
    width = ["stats", "width", "--dq", "0.2", "--qc", "0.3", "--nmin", "16", "--nmax", "20"]
    files = []
    for run_dir, before in (("after_spectrum", True), ("fresh_parser", False)):
        (tmp_path / run_dir).mkdir()
        monkeypatch.chdir(tmp_path / run_dir)
        if before:
            assert main(["spectrum", "--n", "16,18", "--qc", "0.3", "--dq", "0.2"]) == 0
        else:
            build_parser.cache_clear()
        assert main(width) == 0
        files.append({p.name: p.read_bytes() for p in Path("out").iterdir()
                      if p.name.startswith("width_")})
    capsys.readouterr()
    assert sorted(files[0]) == ["width_dq0.2.csv", "width_dq0.2.csv.manifest.json"]
    assert files[0] == files[1]


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--step", "0"], "--step must be at least 1, got 0"),
        (["--nmin", "16", "--nmax", "20", "--step", "-2"],
         "--step must be at least 1, got -2"),
        (["--nmin", "22", "--nmax", "20"], "--nmin 22 above --nmax 20: no dimensions"),
        (["--tail-lo", "0.999"], "bin width 0.01 does not tile [0.999, 1.0]"),
    ],
)
def test_width_bad_dimensions_or_bins_fail_before_solving(
    tmp_path, capsys, monkeypatch, extra, message
):
    def no_solve(spec):
        raise AssertionError(f"solved N={spec.dim} before rejecting the input")

    monkeypatch.setattr(spectra, "_blocks", no_solve)
    argv = ["stats", "width", "--out", str(tmp_path), "--dq", "0.1", "--qc", "0.5",
            "--nmin", "16", "--nmax", "20"] + extra
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].endswith(message)
    assert not (tmp_path / "width_dq0.1.csv").exists()


def test_width_nmin_below_one_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # each N <= 0 would otherwise be a per-point failure with its own line,
    # in time and memory linear in |nmin|
    def no_solve(spec):
        raise AssertionError(f"solved N={spec.dim} before rejecting --nmin")

    monkeypatch.setattr(spectra, "_blocks", no_solve)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["stats", "width", "--out", str(out), "--dq", "0.1", "--qc", "0.5",
              "--nmin", "-40", "--nmax", "16"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        "openbaker: error: --nmin must be at least 1, got -40"
    ]
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--resolution", str(MAX_RESOLUTION + 1)],
         f"--resolution {MAX_RESOLUTION + 1} is outside 1..{MAX_RESOLUTION}"),
        (["--resolution", "0"], f"--resolution 0 is outside 1..{MAX_RESOLUTION}"),
        (["--raster-t", str(MAX_RASTER_T + 1)],
         f"raster time {MAX_RASTER_T + 1} is outside 0..{MAX_RASTER_T}"),
        (["--t", str(MAX_RASTER_T + 1)],
         f"raster time {MAX_RASTER_T + 1} is outside 0..{MAX_RASTER_T}"),
    ],
)
def test_raster_bounds_are_usage_errors(capsys, extra, message):
    # checked through _validate alone, so nothing is ever allocated
    parser = build_parser()
    args = parser.parse_args(["classical", "--raster-qc", "0.5"] + extra)
    with pytest.raises(SystemExit) as exc:
        _validate(args, parser)
    assert exc.value.code == 2
    assert capsys.readouterr().err.strip().endswith(message)
    # without rasters the sweep time is not a raster time
    args = parser.parse_args(["classical", "--t", str(MAX_RASTER_T + 1)])
    _validate(args, parser)


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--fit-range", "5:30"], "--fit-range 5:30 ends past --tmax 25"),
        (["--tmax", "12"], "--fit-range 5:25 ends past --tmax 12"),
        (["--fit-range", "5"],
         "argument --fit-range: expected two integers t_lo:t_hi, got '5'"),
        (["--fit-range", "9:5"], "argument --fit-range: need 0 <= t_lo < t_hi, got '9:5'"),
        (["--tmax", "-1"], f"--tmax -1 is outside 0..{MAX_T}"),
        (["--tmax", str(MAX_T + 1)], f"--tmax {MAX_T + 1} is outside 0..{MAX_T}"),
        (["--t", "-1"], f"--t -1 is outside 0..{MAX_T}"),
        (["--t", str(MAX_T + 1)], f"--t {MAX_T + 1} is outside 0..{MAX_T}"),
        (["--dq", "0.1,1.5", "--grid", "0:0.1:0.1"], "delta_q must lie in [0, 1], got 3/2"),
        (["--grid", "0.5:1.5:0.5"], "q_c must lie in [0, 1), got 3/2"),
        (["--series-qc", "0.5,1.25"], "q_c must lie in [0, 1), got 5/4"),
        (["--raster-qc", "-0.1"], "q_c must lie in [0, 1), got -1/10"),
    ],
)
def test_classical_bad_times_fail_before_writing(tmp_path, capsys, extra, message):
    out = tmp_path / "out"
    argv = ["classical", "--out", str(out), "--dq", "0.1", "--grid", "0.5:0.5:1",
            "--series-qc", "0.5"] + extra
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].endswith(message)
    assert not out.exists()

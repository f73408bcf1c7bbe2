"""One timed job in a fresh interpreter.

    python3 child.py JOB.json RESULT.json

JOB holds the path of the openbaker sources, whether to trace, and a
list of steps: ``cli`` (argv for ``openbaker.cli.main``), ``mc``
(``openbaker.trapped.monte_carlo_area``) or ``calibrate`` (a plain
eigensolve of a fixed random matrix).  The parent timestamps the spawn;
``t_ready`` is taken right before the first step, so the difference is
the set-up time (interpreter start plus ``import openbaker``).
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes

    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _calibrate(n: int, repeats: int) -> float:
    import numpy as np

    rng = np.random.default_rng(0)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        np.linalg.eigvals(m)
        times.append(time.perf_counter() - t)
    return sorted(times)[len(times) // 2]


def _run_step(step: dict, openbaker) -> dict:
    kind = step["kind"]
    try:
        if kind == "cli":
            try:
                rc = openbaker.cli.main(step["argv"])
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 2
            return {"ok": rc == 0, "rc": rc}
        if kind == "mc":
            opening = openbaker.OpeningSpec(step["qc"], step["dq"])
            p, se = openbaker.trapped.monte_carlo_area(
                opening, step["t"], step["samples"], seed=step["seed"])
            return {"ok": True, "value": [p, se]}
        if kind == "calibrate":
            return {"ok": True, "value": _calibrate(step["n"], step["repeats"])}
        return {"ok": False, "error": f"unknown step kind {kind!r}"}
    except Exception:
        return {"ok": False, "error": traceback.format_exc(limit=3)}


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import openbaker
    import openbaker.cli
    import openbaker.trapped

    if src not in Path(openbaker.__file__).resolve().parents:
        print(f"openbaker imported from {openbaker.__file__}, not {src}", file=sys.stderr)
        return 3
    tracer = None
    if job["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    t_ready = time.monotonic()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    w0 = time.perf_counter()
    if tracer is not None:
        with tracer.span("job"):
            steps = [_run_step(step, openbaker) for step in job["steps"]]
    else:
        steps = [_run_step(step, openbaker) for step in job["steps"]]
    wall = time.perf_counter() - w0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "t_ready": t_ready,
        "wall_s": wall,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "maxrss_kb": ru1.ru_maxrss,
        "steps": steps,
        "blas_threads": _blas_threads(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        tracer.write_spans(Path(result_path).with_name("spans.jsonl"))
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))

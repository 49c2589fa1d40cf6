"""Benchmark runner for gapcount: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload counting --seed 0 --seconds 50 --trace 0

Load model: one process, one caller, a closed loop. Each pass of the
workload finishes before the next starts; passes repeat while one more,
as long as the last, would still end within --seconds (at least one pass,
so a workload whose pass outlasts the run measures exactly one). gapcount
is imported from ./src of the checkout, and GAPCOUNT_THREADS and the BLAS
thread settings are left as found, so the library defaults are measured.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  wall_s       median of the pass wall times (the one pass, if only one
               fits); the pass count and every sample are on the detail line
  setup_s      median over fresh interpreters of start-to-inputs-ready time,
               half of them before the timed passes and half after
  peak_rss_mb  peak resident memory of this fresh process after its first pass
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics (see spans.py); the spans go to perfbench/results/.

Every pass's outputs are checked outside the timed region; `attempted`
and `failed` count checked operations. The last stdout line is the
result; the line before it carries the environment stamp and samples.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import EXACT_COUNTS, Tracer, metric_units
from workloads import WORKLOADS, SetupError, setup

HERE = Path(__file__).resolve().parent
# One unmeasured probe first: the first interpreter in a fresh checkout
# also writes gapcount's bytecode caches. Half of the measured probes run
# before the timed passes and half after, because a shared host changes
# speed every few seconds and probes in one burst see only one phase.
SETUP_PROBES = 10


def _openblas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS library loaded into this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return {}
    found = {}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = int(fn())
                break
    return found


def environment() -> dict:
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": _openblas_threads(),
        "GAPCOUNT_THREADS": os.environ.get("GAPCOUNT_THREADS"),
        "machine": platform.machine(),
    }


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until its inputs are ready."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise SetupError(f"set-up probe exited with {code}")
    return elapsed


def timed_pass(wl, gc, inputs):
    t0 = time.perf_counter()
    try:
        out = wl.run(gc, inputs)
    except Exception as exc:  # a raising pass fails all its operations
        out = exc
    return time.perf_counter() - t0, out


def check_outputs(wl, gc, inputs, outputs, seed) -> list[str]:
    """Failure messages over all passes, one per failed operation."""
    failures = []
    for out in outputs:
        if isinstance(out, Exception):
            msgs = [f"raised {type(out).__name__}: {out}"] * len(wl.ops)
        else:
            try:
                msgs = wl.check(gc, inputs, out, seed)
            except Exception as exc:  # malformed output
                msgs = [f"check raised {type(exc).__name__}: {exc}"] * len(wl.ops)
        failures += [f"{op}: {m}" for op, m in zip(wl.ops, msgs) if m is not None]
    return failures


def _room_for_another(start: float, seconds: float, last: float) -> bool:
    """Whether one more pass, as long as the last, still ends within the run."""
    return time.perf_counter() - start + last <= seconds


def measure(wl, gc, inputs, seconds: float) -> tuple[list[float], list, float]:
    """Pass walls and outputs, and the peak RSS in MB once the first pass is done.

    Later passes only add allocator fragmentation to ru_maxrss, which never
    goes down, so the first pass in this fresh process gives a pass's peak.
    """
    walls, outputs = [], []
    start = time.perf_counter()
    while not walls or _room_for_another(start, seconds, walls[-1]):
        wall, out = timed_pass(wl, gc, inputs)
        if not walls:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        walls.append(wall)
        outputs.append(out)
    return walls, outputs, peak_mb


def measure_traced(wl, gc, inputs, seconds: float):
    """Alternate untraced and traced passes; return walls, outputs and layers."""
    tracer = Tracer()
    untraced, traced, outputs, layers = [], [], [], []
    start = time.perf_counter()
    while not traced or _room_for_another(start, seconds, max(untraced[-1], traced[-1])):
        if len(untraced) <= len(traced):
            wall, out = timed_pass(wl, gc, inputs)
            untraced.append(wall)
        else:
            tracer.pass_id += 1
            tracer.install()
            try:
                wall, out = timed_pass(wl, gc, inputs)
            finally:
                tracer.uninstall()
            traced.append(wall)
            layers.append(tracer.layer_metrics(tracer.pass_id, wall))
        outputs.append(out)
    return untraced, traced, outputs, layers, tracer


def per_layer(untraced, traced, layers) -> tuple[dict[str, float], list[str]]:
    """Median times and first-pass counts; names of counts that did not repeat."""
    exact = set(EXACT_COUNTS)
    values = {}
    for name in metric_units():
        series = [lay[name] for lay in layers]
        values[name] = series[0] if name in exact else statistics.median(series)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    unrepeated = [n for n in EXACT_COUNTS if any(lay[n] != layers[0][n] for lay in layers)]
    return values, unrepeated


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    try:
        gc, inputs = setup(args.workload, args.seed)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env = environment()
    blas_max = max(env["blas_threads"].values(), default=0)
    if blas_max > env["nproc"]:
        print(f"perfbench: warning: {blas_max} BLAS threads on {env['nproc']} CPUs; "
              "timings will contend", file=sys.stderr)
    detail = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env}

    if args.trace == 0:
        probe_setup(wl.name, args.seed)
        setups = [probe_setup(wl.name, args.seed) for _ in range(SETUP_PROBES // 2)]
        walls, outputs, peak_mb = measure(wl, gc, inputs, args.seconds)
        setups += [probe_setup(wl.name, args.seed) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        detail.update(wall_s_samples=walls, setup_s_samples=setups)
    else:
        untraced, traced, outputs, layers, tracer = measure_traced(wl, gc, inputs, args.seconds)
        values, unrepeated = per_layer(untraced, traced, layers)
        units = metric_units()
        metrics = {name: (values[name], units[name]) for name in units}
        detail.update(untraced_wall_s=untraced, traced_wall_s=traced, absent=tracer.absent,
                      unrepeated_counts=unrepeated)
        for name in tracer.absent:
            print(f"perfbench: {name} is absent from gapcount; its figures read 0", file=sys.stderr)
        if unrepeated:
            print(f"perfbench: warning: counts differ between traced passes: {unrepeated}",
                  file=sys.stderr)

    failures = check_outputs(wl, gc, inputs, outputs, args.seed)
    for msg in failures[:20]:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    attempted = len(outputs) * len(wl.ops)
    detail.update(passes=len(outputs), failures=failures[:20])
    if args.trace == 1:
        out_dir = HERE / "results"
        out_dir.mkdir(exist_ok=True)
        dump = dict(detail, spans=[vars(s) for s in tracer.spans], layers=layers)
        (out_dir / f"{wl.name}-seed{args.seed}-trace.json").write_text(json.dumps(dump))
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

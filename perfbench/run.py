"""Benchmark of bellgate's verification workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cv_verify --seed 1 --seconds 25 --trace 0

One process, one client, closed loop: the next operation starts when the
previous one has returned and its outputs have been checked. BLAS threading
is left at the library default (one thread per core) and recorded.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
the median wall time of one operation, the peak RSS of this untraced
process, the set-up time (import plus warm-up, the median of this process
and ``SETUP_CHILDREN`` fresh ones) and the share of operations whose outputs
passed every check. It also prints the tail wall time with its percentile
and sample count; a run holds four to eight operations, too few for a tail
that repeats from run to run, so the tail carries no bound.

``--trace 1`` reports the per-layer metrics. It splits ``--seconds`` into
three phases: untraced operations (the baseline for ``trace.overhead_frac``),
traced operations, and traced operations in a child process whose BLAS is
limited to one thread (metrics suffixed ``.blas1``). Spans are written to
``perfbench/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import COUNTED_CALLS, TIMED_LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = Path(__file__).resolve().parent / "traces"
WORKLOAD_NAMES = ("qudit_sweep", "cv_verify", "bs_factorization_n60")
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 170


def layer_metric(layer: str) -> str:
    return ("cli.self" if layer == "cli" else layer) + "_s"


TIMED_METRICS = tuple(layer_metric(layer) for layer in TIMED_LAYERS)
PER_LAYER_METRICS = (
    *TIMED_METRICS,
    *(f"{name}_calls" for name in COUNTED_CALLS),
    "fock.chain_peak_mb",
    "trace.overhead_frac",
    *(f"{name}.blas1" for name in TIMED_METRICS),
)


def load_workloads():
    """Import bellgate from this checkout's ``src/``; refuse any other copy."""
    if not (SRC / "bellgate" / "__init__.py").is_file():
        sys.exit(f"perfbench: no bellgate package under {SRC}")
    sys.path.insert(0, str(SRC))
    import bellgate
    import workloads

    if Path(bellgate.__file__).resolve().parent != SRC / "bellgate":
        sys.exit(f"perfbench: imported bellgate from {bellgate.__file__}, not {SRC}")
    return workloads


def set_up(name: str):
    """Import bellgate and warm the workload up; returns (workload, seconds taken)."""
    start = time.perf_counter()
    workload = load_workloads().WORKLOADS[name]
    workload.warm_up()
    return workload, time.perf_counter() - start


def run_phase(workload, seed: int, seconds: float, tracer: Tracer | None = None):
    """Run operations until ``seconds`` have passed (at least one).

    Returns the wall time and the list of failed checks of each operation.
    Every phase starts from the same seed, so phases see the same inputs.
    """
    rng = random.Random(seed)
    walls: list[float] = []
    failures: list[list[str]] = []
    if tracer:
        tracer.install()
    try:
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            gc.collect()
            if tracer:
                tracer.op = len(walls)
            t0 = time.perf_counter()
            try:
                failed = workload.operation(rng, tracer)
            except Exception:
                failed = ["raised: " + traceback.format_exc(limit=3)]
            walls.append(time.perf_counter() - t0)
            failures.append(failed)
    finally:
        if tracer:
            tracer.restore()
    return walls, failures


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). With fewer than eleven
    samples no percentile has ten beyond it; the slowest sample is returned
    then, as the 100th percentile with none beyond.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 11:
        return ordered[n - 11], 100.0 * (n - 10) / n, 10
    return ordered[-1], 100.0, 0


def layer_metrics(tracer: Tracer, walls: list[float]) -> dict[str, float]:
    """Per-operation means of each layer's self time, plus exact call counts."""
    ops = range(len(walls))
    self_times = tracer.self_times()
    out = {
        layer_metric(layer): sum(self_times[op].get(layer, 0.0) for op in ops) / len(walls)
        for layer in TIMED_LAYERS
    }
    for name in COUNTED_CALLS:
        out[f"{name}_calls"] = tracer.calls(0, name)
    out["fock.chain_peak_mb"] = max(tracer.peaks.values(), default=0.0)
    out["trace.unattributed_s"] = (sum(walls) - sum(
        sum(self_times[op].values()) for op in ops)) / len(walls)
    return out


def write_spans(tracer: Tracer, name: str) -> Path:
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{name}.json"
    path.write_text(json.dumps({"spans": tracer.spans, "peaks_mb": tracer.peaks}))
    return path


def blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS the process has loaded, by library file."""
    libs = set()
    with open("/proc/self/maps") as maps:
        for line in maps:
            path = line.split()[-1]
            if "openblas" in Path(path).name:
                libs.add(path)
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                out[Path(path).name] = int(getattr(lib, symbol)())
                break
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "workload": workload.name,
        "seed": seed,
        "size": workload.size,
    }


def run_child(mode: str, args, seconds: float, env=None) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"perfbench: {mode} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def child_main(args) -> None:
    workload, setup_s = set_up(args.workload)
    if args.child == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return
    tracer = Tracer()
    walls, failures = run_phase(workload, args.seed, args.seconds, tracer)
    write_spans(tracer, f"{args.workload}-seed{args.seed}-blas1")
    print(json.dumps({
        "environment": environment(workload, args.seed),
        "walls": walls,
        "failures": failures,
        "metrics": layer_metrics(tracer, walls),
    }))


def report_ops(label: str, walls: list[float], failures: list[list[str]]) -> None:
    for i, (wall, failed) in enumerate(zip(walls, failures)):
        print(f"  {label} op {i}: {wall:.4f} s {'ok' if not failed else 'FAILED'}")
        for reason in failed:
            print(f"    {reason}")


def untraced_run(args, workload, setup_s: float):
    """End-to-end metrics; tracing stays off so RSS and times are the user's."""
    setups = [setup_s] + [
        run_child("setup", args, 0)["setup_s"] for _ in range(SETUP_CHILDREN)
    ]
    walls, failures = run_phase(workload, args.seed, args.seconds)
    report_ops("untraced", walls, failures)
    known_ok = True
    if hasattr(workload, "known_failure"):
        line, known_ok = workload.known_failure()
        print("  " + line)
    attempted = len(walls)
    failed = sum(1 for f in failures if f)
    value, pct, beyond = tail(walls)
    print(f"  verify_s_tail = {value:.6g} s, p{pct:.1f} of {attempted} operations"
          f" ({beyond} beyond); failed_frac = {failed / attempted:.6g};"
          f" setup samples {[round(s, 4) for s in setups]} s")
    metrics = {
        "verify_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
        "verified_frac": (attempted - failed) / attempted,
    }
    return metrics, failures, known_ok


def traced_run(args, workload):
    """Per-layer metrics from three phases of ``--seconds / 3`` each."""
    phase_s = args.seconds / 3
    base_walls, base_failures = run_phase(workload, args.seed, phase_s)
    report_ops("untraced", base_walls, base_failures)
    tracer = Tracer()
    walls, traced_failures = run_phase(workload, args.seed, phase_s, tracer)
    report_ops("traced", walls, traced_failures)
    spans = write_spans(tracer, f"{args.workload}-seed{args.seed}")
    print(f"  spans: {spans.relative_to(ROOT)}")
    layers = layer_metrics(tracer, walls)
    layers["trace.overhead_frac"] = statistics.median(walls) / statistics.median(base_walls) - 1

    blas1 = run_child("blas1", args, phase_s, env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    print("  blas1 environment: " + json.dumps(blas1["environment"]))
    report_ops("traced blas1", blas1["walls"], blas1["failures"])
    layers.update({f"{name}.blas1": blas1["metrics"][name] for name in TIMED_METRICS})
    print(f"  unattributed per op: {layers['trace.unattributed_s']:.4f} s traced,"
          f" {blas1['metrics']['trace.unattributed_s']:.4f} s blas1")
    metrics = {name: layers[name] for name in PER_LAYER_METRICS}
    return metrics, base_failures + traced_failures + blas1["failures"], True


def unit_of(metric: str) -> str:
    for suffix, unit in (("_s", "s"), ("_calls", "count"), ("_mb", "MB"),
                         ("_frac", "ratio"), (".blas1", "s")):
        if metric.endswith(suffix):
            return unit
    raise ValueError(metric)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "blas1"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        child_main(args)
        return 0

    workload, setup_s = set_up(args.workload)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment: " + json.dumps(environment(workload, args.seed)))
    if args.trace:
        metrics, failures, known_ok = traced_run(args, workload)
    else:
        metrics, failures, known_ok = untraced_run(args, workload, setup_s)
    failed = sum(1 for f in failures if f)
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": failed == 0 and known_ok,
        "attempted": len(failures),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

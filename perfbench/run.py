"""Benchmark of rarewave's two paper pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the package is imported from that
checkout's ``src``.  The workloads are ``transport_table``, ``wave_slice``
and ``wave_reports`` (see ``workloads.py`` and ``README.md``).  The seed
fixes every input.  Operations run back to back, one process, one thread,
until ``--seconds`` have passed and at least two operations have run; the
output checks run after that.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the run is made under the span
tracer and the metrics are the per-layer ones.  The line before it records
the environment.  The exit code is 0 whenever a result is printed.
"""

import os
import time

_STARTED = time.perf_counter()

# Every thread pool is pinned to one thread before numpy loads.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

MIN_STEPS = 2
# fresh processes that repeat the set-up, next to this process's own
SETUP_PROBES = 4


def use_checkout_src() -> None:
    """Make ``import rarewave`` load this checkout's sources and nothing else."""
    if not (SRC / "rarewave" / "__init__.py").is_file():
        raise SystemExit(f"no rarewave sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rarewave

    if Path(rarewave.__file__).resolve().parent != SRC / "rarewave":
        raise SystemExit(f"rarewave imported from {rarewave.__file__}, not from {SRC}")


def setup_probe(name: str, seed: int) -> float:
    """Set-up seconds of ``name`` measured in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.split()[-1])


def measure(workload, seconds: float, tracer=None):
    """Run steps until ``seconds`` have passed and at least MIN_STEPS ran.

    Returns the (start, end) of each step, the ops that raised, and the
    peak RSS in MiB at the end of step MIN_STEPS, so that the figure does
    not grow with the outputs a longer run keeps for its checks.
    """
    windows: list[tuple[float, float]] = []
    raised = 0
    peak_rss_mb = 0.0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                workload.step()
            else:
                with tracer.operation(len(windows)):
                    workload.step()
        except Exception:
            # a raised operation counts as failed; it is not retried
            traceback.print_exc()
            raised += workload.ops_per_step
        windows.append((t0, time.perf_counter()))
        if len(windows) == MIN_STEPS:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if len(windows) >= MIN_STEPS and time.perf_counter() - start >= seconds:
            return windows, raised, peak_rss_mb


def tail(samples: list[float]) -> dict:
    """The highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 20:
        return {}
    q = int(100 * (1 - 10 / n))
    return {"percentile": q, "value": statistics.quantiles(samples, n=100)[q - 1]}


def metric_units(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def run(workload, seed: int, seconds: float, trace: bool, setup_seconds: list[float]):
    """Measure ``workload`` (already set up); returns (result, environment)."""
    import numpy
    import scipy
    import scipy.fft

    import speed
    import tracer as tracing

    tr = None
    if trace:
        tr = tracing.Tracer()
        tr.install()
    try:
        with scipy.fft.set_workers(1), speed.SpeedProbe() as probe:
            fft_workers = scipy.fft.get_workers()
            windows, raised, peak_rss_mb = measure(workload, seconds, tr)
    finally:
        if tr is not None:
            tr.uninstall()
    per_op = workload.ops_per_step
    wall = [(t1 - t0) / per_op for t0, t1 in windows]
    scales = [probe.scale(t0, t1) for t0, t1 in windows]
    scaled = [w * k for w, k in zip(wall, scales)]
    op_s = statistics.median(scaled)
    attempted = len(windows) * per_op
    failed_checks, residual = workload.check()
    failed = raised + failed_checks
    if trace:
        metrics = tracing.per_layer(tr.spans, attempted, scales, tracing.span_cost(), tr.missing)
        metrics["trace.op_s"] = op_s
        OUT_DIR.mkdir(exist_ok=True)
        tr.dump(OUT_DIR / f"trace_{workload.name}_{seed}.json")
    else:
        metrics = {
            "op_s": op_s,
            "setup_s": statistics.median(setup_seconds),
            "residual": residual,
            "peak_rss_mb": peak_rss_mb,
        }
    units = metric_units("per_layer" if trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    kernel = [k for _, k in probe.samples]
    env = {
        "workload": workload.name,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_pins": {v: os.environ[v] for v in THREAD_VARS},
        "scipy_fft_workers": fft_workers,
        "op_s_scaled": scaled,
        "op_s_wall": wall,
        "op_s_wall_median": statistics.median(wall),
        "op_s_tail": tail(scaled),
        "probe_kernel_s": {
            "samples": len(kernel),
            "median": statistics.median(kernel),
            "min": min(kernel),
            "reference": speed.KERNEL_REF_S,
        },
        "setup_samples_s": setup_seconds,
    }
    return result, env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    use_checkout_src()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.setup()
    setup_seconds = [time.perf_counter() - _STARTED]
    if not args.trace:
        setup_seconds += [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    result, env = run(workload, args.seed, args.seconds, bool(args.trace), setup_seconds)
    env.update(seed=args.seed, seconds=args.seconds, trace=args.trace)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

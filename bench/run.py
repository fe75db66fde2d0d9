"""reflectmimo benchmark: one workload, one closed-loop caller, one process.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Passes run back to back while the next one is predicted to fit in ``S``
seconds (at least one).  With ``--trace 0`` the end-to-end metrics are
printed; with ``--trace 1`` a warm-up pass is followed by alternating
untraced and traced passes and the per-layer metrics are printed.  The last
stdout line is the result JSON; the line before it carries provenance.
Spans and results are also written under ``bench/_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "_out"
SETUP_SAMPLES = 5
BLAS_THREADS = "1"
_BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_EPS = 2.0 ** -52


def _tail_quantile(count: int) -> float:
    """The 95th percentile, or the highest one with at least ten samples
    beyond it, but never below the median: the tens of thousands of
    per-call samples of a point run resolve the 95th, the five or so passes
    of an experiment run only the median."""
    return min(0.95, max(0.5, 1.0 - 10.0 / count))


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if ref.startswith("ref: "):
        ref_path = ROOT / ".git" / ref[5:]
        return ref_path.read_text(encoding="utf-8").strip() if ref_path.is_file() else ref
    return ref


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _provenance(args, samples: dict) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {name: os.environ[name] for name in _BLAS_VARIABLES},
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
        "method": "closed loop, one caller, one process; wall time by "
                  "time.perf_counter; spans recorded in-process by wrappers "
                  "the benchmark installs; no machine-wide tracing and no "
                  "cache dropping",
    }


def _setup_samples(config_path: Path | None) -> list[float]:
    command = [sys.executable, str(BENCH_DIR / "probe_setup.py")]
    if config_path is not None:
        command.append(str(config_path))
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def import_program():
    """Import the package from this checkout's ``src``, never from an
    installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import reflectmimo
    if not Path(reflectmimo.__file__).resolve().is_relative_to(src):
        raise ImportError(f"reflectmimo imported from {reflectmimo.__file__}, not {src}")
    return reflectmimo


def execute_traced(workload, inputs, tracer):
    """One traced pass: its result and its per-layer metrics."""
    mark = tracer.mark()
    tracer.enabled = True
    root = tracer.open("bench.pass")
    try:
        result = workload.execute(inputs)
    finally:
        tracer.close(root)
        tracer.enabled = False
    return result, tracer.layer_metrics(mark)


def _run_passes(workload, seconds: float, tracer) -> tuple[list, list, list, list]:
    """Closed loop of passes.  Returns (every pass, untraced passes, traced
    passes, per-layer metrics of each traced pass).  Under tracing, pass 0
    is a warm-up and later passes alternate untraced and traced."""
    everything, untraced, traced, layers = [], [], [], []
    durations: list[float] = []
    start = time.perf_counter()
    index = 0
    while True:
        trace_this = tracer is not None and index > 0 and index % 2 == 0
        inputs = workload.make_inputs(index)
        pass_start = time.perf_counter()
        if trace_this:
            result, layer = execute_traced(workload, inputs, tracer)
            layers.append(layer)
            traced.append(result)
        else:
            result = workload.execute(inputs)
            if tracer is None or index > 0:
                untraced.append(result)
        durations.append(time.perf_counter() - pass_start)
        workload.check(inputs, result)
        everything.append(result)
        index += 1
        elapsed = time.perf_counter() - start
        need_more = tracer is not None and not (untraced and traced)
        if not need_more and elapsed + statistics.median(durations) > seconds:
            return everything, untraced, traced, layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for name in _BLAS_VARIABLES:
        os.environ[name] = BLAS_THREADS
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    import workloads
    from tracer import LAYER_METRICS, Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload.prepare(args.seed, OUT_DIR / tag)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        everything, untraced, traced, layers = _run_passes(workload, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    attempted = sum(p.attempted for p in everything)
    failed = sum(p.failed for p in everything)
    failures = [message for p in everything for message in p.failures]
    max_rel_err = max(p.max_rel_err for p in everything)
    latencies = [value for p in untraced for value in p.latencies]
    wall = [p.seconds for p in untraced]
    samples = {"passes": len(untraced), "traced_passes": len(traced),
               "latency_samples": len(latencies)}

    if tracer is None:
        config_path = getattr(workload, "config_path", None)
        setup = _setup_samples(config_path)
        samples["setup_samples"] = len(setup)
        samples["eval_p95_quantile"] = _tail_quantile(len(latencies))
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(wall), "s"),
            "eval_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "eval_p95_ms": (1e3 * _percentile(latencies, _tail_quantile(len(latencies))), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "accuracy_digits": (-math.log10(max(max_rel_err, _EPS)), "digits"),
        }
    else:
        # Counts must repeat exactly between runs, so they come from the
        # first traced pass rather than a median over a varying number.
        metrics = {
            name: (layers[0][name] if unit in ("count", "bytes")
                   else statistics.median(layer[name] for layer in layers), unit)
            for name, (unit, _, _) in LAYER_METRICS.items()
        }
        metrics["trace.overhead_ratio"] = (
            statistics.median(p.seconds for p in traced)
            / statistics.median(p.seconds for p in untraced), "ratio",
        )
        tracer.write(OUT_DIR / f"{tag}-spans.json")

    details = {
        "provenance": _provenance(args, samples),
        "inputs": workload.describe(),
        "fail_ratio": failed / attempted,
        "max_rel_err": max_rel_err,
        "failures": failures[:20],
        "absent_layers": tracer.absent_metrics() if tracer is not None else [],
        "pass_seconds": {"untraced": wall, "traced": [p.seconds for p in traced]},
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{tag}.json").write_text(
        json.dumps({"details": details, "result": result}, indent=2), encoding="utf-8",
    )
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

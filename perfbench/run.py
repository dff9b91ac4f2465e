"""singsynth benchmark: one workload, one run, one JSON result line.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload synth-verse --seed 1 --seconds 30 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
from a run that times the package's public functions (see spans.py) and
writes its spans to ``.perfbench/``. The last line of standard output is the
result; the line before it holds the environment and sample counts.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported: one BLAS thread, so a 2-core machine
# measures the program and not the thread scheduler.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_THREAD_VARS:
    os.environ[_name] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_package():
    """Put the checkout's own ``src`` first on the path and refuse any other
    copy of the package."""
    if not (SRC / "singsynth" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import singsynth
    if Path(singsynth.__file__).resolve().parent != SRC / "singsynth":
        sys.exit(f"perfbench: imported singsynth from {singsynth.__file__}")


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in
                 ("name", "version", "openblas configuration")},
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def cpu_ticks() -> list[int] | None:
    """The machine's aggregate CPU tick counters (user ... steal), if readable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_share(before, after) -> float | None:
    """Share of the machine's CPU ticks that the hypervisor stole in between."""
    if before is None or after is None or sum(after) == sum(before):
        return None
    return (after[7] - before[7]) / (sum(after) - sum(before))


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


def main(argv=None) -> int:
    _import_package()
    from singsynth.score import demo_lexicon
    import workloads
    from spans import Tracer

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    ticks = cpu_ticks()
    try:
        run = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, work, demo_lexicon(), tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    p90_s = percentile(run.samples_s, 90)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "cpu_steal_share": steal_share(ticks, cpu_ticks()),
        "setup_s_each": run.setup_s,
        "latency_samples": len(run.samples_s),
        "samples_beyond_p90": sum(1 for x in run.samples_s if x > p90_s),
        "failed_share": run.failed / max(run.attempted, 1),
        "longest_item_frames": run.longest_frames,
        "frames_timed": run.frames,
        **run.notes,
    }
    if tracer is None:
        latencies_ms = [1e3 * s for s in run.samples_s]
        metrics = {
            "latency_ms_p50": statistics.median(latencies_ms),
            "latency_ms_p90": percentile(latencies_ms, 90),
            "frames_per_s": run.frames / run.busy_s,
            "setup_s": statistics.median(run.setup_s),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "train_loss_mean": run.train_loss_mean,
        }
    else:
        metrics, details["bases"] = workloads.traced_metrics(run, tracer)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans_path)
        details["spans_file"] = str(spans_path.relative_to(ROOT))

    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"measured metrics {sorted(metrics)} differ from "
                           f"BENCHMARK.json's {sorted(units)}")
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

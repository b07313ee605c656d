"""Benchmark of the IDYLL reproduction: simulator throughput, the replay
tier, the job service and a figure sweep, end to end and per layer.

Run from the root of a checkout (the program is imported from ``src``):

    python3 perfbench/run.py --workload app_sim --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes a separate traced pass that reports the per-layer
metrics and writes its spans to ``.perfbench_out/``.  Every op's output
is checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md
beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent

#: workload name -> (module, class)
WORKLOADS = {
    "app_sim": ("sim_workloads", "AppSim"),
    "resident_replay": ("sim_workloads", "ResidentReplay"),
    "job_service": ("service_workload", "JobService"),
    "figure_sweep": ("sweep_workload", "FigureSweep"),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "accesses_per_s": "1/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MiB",
    "idyll_speedup": "x",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def stop_resource_tracker() -> None:
    """Stop the helper process ``multiprocessing`` starts for the worker
    pools' semaphores, and wait for it, so the benchmark leaves no
    process behind."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None and getattr(tracker, "_pid", None) is not None:
        stop()


def run(args) -> dict:
    from common import (OUT_DIR, SETUP_REPEATS, WORK_DIR, ChildPeak, peak_rss_mb,
                        fresh_import, LAYER_UNITS)
    from hostspeed import HostSpeed

    module_name, class_name = WORKLOADS[args.workload]
    workload_cls = getattr(importlib.import_module(module_name), class_name)
    work = (WORK_DIR / f"{args.workload}-{os.getpid()}").resolve()
    work.mkdir(parents=True, exist_ok=True)
    workload = workload_cls(args.seed, work)

    # Set-up (imports in a fresh interpreter plus the workload's own
    # set-up) is repeated and the median of its scaled times reported;
    # the last set-up is the one measured.
    setup_times = []
    state = None
    speed = HostSpeed(runs=2)
    for _ in range(1 if args.trace else SETUP_REPEATS):
        if state is not None:
            workload.teardown(state)
            speed.refresh()
        start = perf_counter()
        fresh_import(workload.modules)
        state = workload.setup()
        setup_times.append(speed.scale(perf_counter() - start))
    try:
        if args.trace:
            metrics, log, tracer = workload.traced(state, args.seconds)
        else:
            with ChildPeak() as children:
                metrics, log = workload.measure(state, args.seconds)
    finally:
        workload.teardown(state)

    if args.trace:
        units = LAYER_UNITS
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "metrics": metrics})
        print(f"spans: {len(tracer.spans)} kept, {tracer.dropped} dropped -> {path}")
        print(f"{'span':<38}{'calls':>10}{'self s':>11}{'total s':>11}")
        for name, calls, self_s, total_s in tracer.self_time_table():
            print(f"{name:<38}{calls:>10}{self_s:>11.4f}{total_s:>11.4f}")
    else:
        units = END_TO_END_UNITS
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = peak_rss_mb() + children.peak_mb
    shutil.rmtree(work, ignore_errors=True)
    with contextlib.suppress(OSError):
        WORK_DIR.rmdir()  # only when no other run is using it

    print(f"workload {args.workload}  seed {args.seed}  ops {log.attempted}"
          f"  measured {len(log.seconds)}  failed {log.failed}")
    for name in units:
        print(f"  {name:<34}{metrics[name]:>18.6g} {units[name]}")
    return {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path("src")
    if not (src / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout of the repository "
              "(src/repro not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src.resolve()))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    # Keep every cache the program might default to inside the checkout.
    os.environ["REPRO_CACHE"] = "0"
    os.environ["REPRO_CACHE_DIR"] = str(Path(".perfbench_work", "default-cache").resolve())
    try:
        report = run(args)
    finally:
        stop_resource_tracker()
    print(json.dumps(report, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())

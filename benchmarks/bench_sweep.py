"""Sweep-executor benchmark: serial vs parallel vs warm cache.

Runs one benchmark-scale class sweep three ways — serially, through
``--jobs`` spool worker processes, and from a warm result cache —
asserts the three result matrices are bit-identical, and writes a
``BENCH_sweep.json`` record
(wall times, simulator events/sec, cache hit/miss counts) that seeds
the repo's performance trajectory.  CI runs a reduced version of this
and uploads the JSON as an artifact.

Usage::

    PYTHONPATH=src python benchmarks/bench_sweep.py \
        --scenarios 12 --jobs 4 --output BENCH_sweep.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from typing import List, Optional, Sequence

from repro.expdesign.parameters import generate_scenarios
from repro.experiments.parallel import (
    RESULTS_FORMAT_VERSION,
    ResultCache,
    SweepStats,
    execute_cells,
    plan_class_sweep,
)


def _matrix(results) -> List[tuple]:
    return [(r.transfer_time, r.goodput_bps) for r in results]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scenarios", type=int,
        default=int(os.environ.get("REPRO_SCENARIOS", "12")),
    )
    parser.add_argument(
        "--file-size", type=int,
        default=int(os.environ.get("REPRO_FILE_SIZE", "2000000")),
    )
    parser.add_argument(
        "--jobs", type=int,
        default=int(os.environ.get("REPRO_JOBS", "4")),
    )
    parser.add_argument("--env-class", default="low-bdp-no-loss")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--output", default="BENCH_sweep.json")
    args = parser.parse_args(argv)

    scenarios = generate_scenarios(
        args.env_class, args.scenarios, seed=args.seed
    )
    lossy = "no-loss" not in args.env_class
    cells = plan_class_sweep(scenarios, args.file_size, lossy)
    print(
        f"sweep: {args.env_class}, {args.scenarios} scenarios, "
        f"{args.file_size} B -> {len(cells)} cells"
    )

    # 1. Serial baseline (no cache).
    serial_stats = SweepStats()
    t0 = time.perf_counter()
    serial = execute_cells(cells, jobs=1, cache=None, stats=serial_stats)
    serial_seconds = time.perf_counter() - t0
    print(f"serial:   {serial_seconds:8.2f} s "
          f"({serial_stats.events_processed} events)")

    # 2. Parallel cold run, populating a fresh cache as it goes.
    with tempfile.TemporaryDirectory(prefix="bench-cache-") as tmp:
        cache = ResultCache(tmp)
        cold_stats = SweepStats()
        t0 = time.perf_counter()
        parallel = execute_cells(
            cells, jobs=args.jobs, cache=cache, stats=cold_stats
        )
        parallel_seconds = time.perf_counter() - t0
        print(f"parallel: {parallel_seconds:8.2f} s (jobs={args.jobs}, "
              f"hits={cold_stats.cache_hits} misses={cold_stats.cache_misses})")

        # 3. Warm-cache rerun: must execute zero simulations.
        warm_stats = SweepStats()
        t0 = time.perf_counter()
        warm = execute_cells(
            cells, jobs=args.jobs, cache=cache, stats=warm_stats
        )
        warm_seconds = time.perf_counter() - t0
        print(f"warm:     {warm_seconds:8.2f} s "
              f"(hits={warm_stats.cache_hits} executed={warm_stats.executed})")

    # Equivalence gates.
    if _matrix(serial) != _matrix(parallel):
        print("FAIL: parallel results differ from serial", file=sys.stderr)
        return 1
    if _matrix(serial) != _matrix(warm):
        print("FAIL: cached results differ from serial", file=sys.stderr)
        return 1
    if warm_stats.executed != 0:
        print(
            f"FAIL: warm-cache rerun executed {warm_stats.executed} runs",
            file=sys.stderr,
        )
        return 1
    print("equivalence: serial == parallel == warm-cache OK")

    cores = os.cpu_count() or 1
    record = {
        "benchmark": "sweep_engine",
        "results_format_version": RESULTS_FORMAT_VERSION,
        "host": {
            "cpu_count": cores,
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "config": {
            "env_class": args.env_class,
            "scenarios": args.scenarios,
            "file_size": args.file_size,
            "seed": args.seed,
            "cells": len(cells),
            "jobs": args.jobs,
        },
        "serial": {
            "wall_seconds": round(serial_seconds, 3),
            "sim_events": serial_stats.events_processed,
            "events_per_second": round(
                serial_stats.events_processed / serial_seconds
            ) if serial_seconds > 0 else None,
        },
        "parallel": {
            "wall_seconds": round(parallel_seconds, 3),
            # On a 1-core host "speedup" would only measure worker and
            # spool overhead (historically recorded as a misleading
            # 0.89x), so the comparison is skipped, not published.
            "speedup_vs_serial": (
                round(serial_seconds / parallel_seconds, 2)
                if parallel_seconds > 0 and cores > 1 else None
            ),
            "cache_hits": cold_stats.cache_hits,
            "cache_misses": cold_stats.cache_misses,
            "runs_executed": cold_stats.executed,
        },
        "warm_cache": {
            "wall_seconds": round(warm_seconds, 3),
            "cache_hits": warm_stats.cache_hits,
            "cache_misses": warm_stats.cache_misses,
            "runs_executed": warm_stats.executed,
        },
        "identical_matrices": True,
    }
    if cores == 1:
        record["parallel"]["speedup_skipped_reason"] = (
            "single-core host: parallel wall time measures worker/spool "
            "overhead, not parallelism; speedup_vs_serial withheld"
        )
    if cores < args.jobs:
        record["note"] = (
            f"host has {cores} core(s) < jobs={args.jobs}; parallel wall "
            "time reflects worker oversubscription, not achievable speedup"
        )
    with open(args.output, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One measured repeat of one workload, in a process of its own.

Set-up, then the cold pass (scenario generation + one class sweep per
protocol into an empty on-disk cache), then warm passes from that cache
with series extraction, then the correctness checks.  ``mode`` selects
what surrounds the cold pass: nothing (``plain``, the end-to-end
numbers), the span tracer (``traced``) or the program's own
``repro.obs.metrics`` counters (``counted``).  Prints one JSON object.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Tuple

from benchmarks.e2e.workloads import PROTOCOLS, WARMUP_FILE_SIZE, WORKLOADS, Workload, build_scenarios

clock = time.perf_counter


def _digest(result_dicts: List[Optional[Dict]]) -> str:
    return hashlib.sha256(json.dumps(result_dicts, sort_keys=True).encode()).hexdigest()


def _cell_ok(result: Any, workload: Workload) -> bool:
    return (
        result is not None
        and result.completed
        and all(result.rep_completed)
        and result.file_size == workload.file_size
    )


def _warm_up(cache_root: str) -> None:
    """One 20 KB cell per protocol through the code path that is timed."""
    from repro.expdesign.parameters import Scenario
    from repro.experiments.parallel import ResultCache, execute_class_sweep
    from repro.netsim.topology import PathConfig

    path = PathConfig(10.0, 30.0, 60.0)
    execute_class_sweep(
        [Scenario("warm-up", 0, (path, path))], WARMUP_FILE_SIZE, False,
        jobs=1, cache=ResultCache(cache_root),
    )


def _cold_pass(
    workload: Workload, seed: int, scale: float, cache: Any
) -> Tuple[List, List, Dict[str, float], int]:
    """Returns (scenarios, results in plan order, wall per part, events)."""
    from repro.experiments.parallel import SweepStats, execute_class_sweep

    walls: Dict[str, float] = {}
    start = clock()
    scenarios = build_scenarios(workload, seed, scale)
    walls["scenarios"] = clock() - start
    sweeps = {}
    events = 0
    for protocol in PROTOCOLS:
        stats = SweepStats()
        start = clock()
        sweeps[protocol] = execute_class_sweep(
            scenarios, workload.file_size, workload.lossy,
            jobs=1, cache=cache, stats=stats, protocols=(protocol,),
        )
        walls[protocol] = clock() - start
        events += stats.events_processed
    results = [
        sweeps[protocol][index][1][(protocol, initial)]
        for index in range(len(scenarios))
        for protocol in PROTOCOLS
        for initial in (0, 1)
    ]
    return scenarios, results, walls, events


def _warm_pass(workload: Workload, scenarios: List, cache: Any) -> Tuple[float, List, int]:
    """Replay from the cache and extract both figure series; timed whole."""
    from repro.experiments.figures import aggregation_benefit_series, time_ratio_series
    from repro.experiments.parallel import SweepStats, execute_class_sweep

    stats = SweepStats()
    start = clock()
    sweep = execute_class_sweep(
        scenarios, workload.file_size, workload.lossy, jobs=1, cache=cache, stats=stats
    )
    ratios = time_ratio_series(sweep)
    benefit = aggregation_benefit_series(sweep)
    wall = clock() - start
    series = list(ratios.values()) + [v for split in benefit.values() for v in split.values()]
    points = [x for values in series for x in values]
    if len(points) != 8 * len(scenarios) or not all(math.isfinite(x) for x in points):
        raise RuntimeError("figure series incomplete or not finite")
    results = [
        matrix[(protocol, initial)]
        for _scenario, matrix in sweep
        for protocol in PROTOCOLS
        for initial in (0, 1)
    ]
    return wall, results, stats.executed


def run(spec: Dict[str, Any]) -> Dict[str, Any]:
    workload = WORKLOADS[spec["workload"]]
    seed, scale, mode = spec["seed"], spec["scale"], spec["mode"]

    # -- set-up: imports of the program, cache directory, warm-up cells ------
    setup_start = clock()
    from repro.experiments.parallel import ResultCache, result_to_dict
    from repro.obs import metrics

    work = tempfile.mkdtemp(prefix="child-", dir=spec["work_dir"])
    try:
        _warm_up(tempfile.mkdtemp(prefix="warmup-", dir=work))
        cache = ResultCache(tempfile.mkdtemp(prefix="cache-", dir=work))
        setup_s = clock() - setup_start

        tracer = None
        if mode == "traced":
            from benchmarks.e2e.trace import Tracer

            tracer = Tracer()
            tracer.install()
        # The checks below call the original result_to_dict imported
        # above, so nothing outside the two windows opens a span.
        window = tracer or nullcontext()
        try:
            with window, metrics.enabled() if mode == "counted" else nullcontext() as registry:
                scenarios, cold, walls, events = _cold_pass(workload, seed, scale, cache)
                counters = dict(registry.counters) if registry is not None else None
            cold_dicts = [result_to_dict(r) if r is not None else None for r in cold]
            failed = {i for i, r in enumerate(cold) if not _cell_ok(r, workload)}
            warm_walls: List[float] = []
            warm_executed = 0
            # A failed cold cell has no entry to replay; the run is
            # already incorrect, so the warm passes are skipped.
            for _ in range(spec["warm_passes"] if not failed else 0):
                with window:
                    wall, warm, executed = _warm_pass(workload, scenarios, cache)
                warm_walls.append(wall)
                warm_executed += executed
                failed.update(
                    i for i, r in enumerate(warm) if result_to_dict(r) != cold_dicts[i]
                )
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    cold_wall = sum(walls.values())
    sim_s = sum(sum(r.rep_times) for r in cold if r is not None)
    cells = len(cold)
    warm_wall = statistics.median(warm_walls) if warm_walls else None
    return {
        "workload": workload.name,
        "seed": seed,
        "mode": mode,
        "cells": cells,
        "cells_failed": len(failed),
        "results_digest": _digest(cold_dicts),
        "warm_executed": warm_executed,
        "sim_events": events,
        "sim_s": sim_s,
        "setup_s": setup_s,
        "scenarios_s": walls["scenarios"],
        "cold_wall_s": cold_wall,
        **{f"{p}_wall_s": walls[p] for p in PROTOCOLS},
        "warm_pass_s": warm_walls,
        "warm_cell_us": warm_wall / cells * 1e6 if warm_wall is not None else None,
        "sim_s_per_wall_s": sim_s / cold_wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": tracer.report() if tracer is not None else None,
        "counters": counters,
    }

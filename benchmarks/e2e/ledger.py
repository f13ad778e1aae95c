"""Metric names and units, and how a set of child runs becomes metrics.

``BENCHMARK.json`` lists the same names with their direction and bound;
``--selfcheck`` fails when the two disagree.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Sequence

from benchmarks.e2e import drivers
from benchmarks.e2e.trace import LAYERS, WRAPPER_COUNTS
from benchmarks.e2e.workloads import PROTOCOLS

ROOT = Path(__file__).resolve().parents[2]

END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "cold_wall_s": "s",
    **{f"{p}_wall_s": "s" for p in PROTOCOLS},
    "warm_cell_us": "us/cell",
    "sim_s_per_wall_s": "sim-s/wall-s",
    "peak_rss_mb": "MiB",
}

#: per-layer count -> the ``repro.obs.metrics`` counter it is read from.
PROGRAM_COUNTS: Dict[str, str] = {
    "netsim.engine.timers_scheduled": "engine.timers_scheduled",
    "netsim.engine.timers_cancelled": "engine.timers_cancelled",
    "netsim.engine.heap_compactions": "engine.heap_compactions",
    "quic.packets_sent": "quic.packets_sent",
    "quic.packets_received": "quic.packets_received",
    "quic.wire.packets_encoded": "wire.packets_encoded",
    "quic.wire.packets_decoded": "wire.packets_decoded",
    "core.scheduler_decisions": "scheduler.decisions",
    "util.reassembly_chunks": "reassembly.chunks_inserted",
    "util.reassembly_deliveries": "reassembly.deliveries",
    "cc.state_transitions": "cc.state_transitions",
}
#: Counts that repeat exactly for one commit, workload and seed.
EXACT_COUNTS = WRAPPER_COUNTS + tuple(PROGRAM_COUNTS) + tuple(
    f"{layer}.calls" for layer in LAYERS
)

PER_LAYER_UNITS: Dict[str, str] = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    "experiments.cell_ms_p50": "ms",
    "experiments.cell_ms_p90": "ms",
    "experiments.cell_ms_max": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
    **{name: "count" for name in WRAPPER_COUNTS},
    **{name: "count" for name in PROGRAM_COUNTS},
    "netsim.engine.events_per_s": "1/s",
    "netsim.engine.host_us_per_event": "us",
    "obs.metrics_on_ratio": "ratio",
    **drivers.UNITS,
}


def load_benchmark_json() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def summarise(values: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles, extremes and count of one metric's runs."""
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _q2, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "median": statistics.median(ordered), "q1": q1, "q3": q3,
        "min": ordered[0], "max": ordered[-1], "n": len(ordered), "values": list(values),
    }


def end_to_end(children: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Summary of every end-to-end metric over the plain repeats."""
    return {name: summarise([c[name] for c in children]) for name in END_TO_END_UNITS}


def _percentile(ordered: List[float], q: float) -> float:
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def per_layer(
    plain: Dict[str, Any], traced: Dict[str, Any], counted: Dict[str, Any],
    driver_values: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric from one plain, traced and counted child.

    Rates per event use the *plain* child's wall time: the traced and
    counted children pay for their instrumentation.
    """
    trace = traced["trace"]
    cells = sorted(trace["cell_ms"])
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = trace["self_s"][layer]
        out[f"{layer}.calls"] = trace["calls"][layer]
    out["experiments.cell_ms_p50"] = _percentile(cells, 0.5)
    out["experiments.cell_ms_p90"] = _percentile(cells, 0.9)
    out["experiments.cell_ms_max"] = cells[-1]
    out["trace.overhead_ratio"] = traced["cold_wall_s"] / plain["cold_wall_s"]
    out["trace.coverage"] = trace["coverage"]
    for name in WRAPPER_COUNTS:
        out[name] = trace["counts"][name]
    for name, counter in PROGRAM_COUNTS.items():
        out[name] = counted["counters"].get(counter, 0)
    out["netsim.engine.events_per_s"] = plain["sim_events"] / plain["cold_wall_s"]
    out["netsim.engine.host_us_per_event"] = plain["cold_wall_s"] / plain["sim_events"] * 1e6
    out["obs.metrics_on_ratio"] = counted["cold_wall_s"] / plain["cold_wall_s"]
    out.update(driver_values)
    return out


def check_children(children: List[Dict[str, Any]]) -> List[str]:
    """Why this set of children of one workload and seed is not correct."""
    problems = []
    digests = {c["results_digest"] for c in children}
    if len(digests) != 1:
        problems.append(f"results_digest differs between runs: {sorted(digests)}")
    for child in children:
        if child["cells_failed"]:
            problems.append(f"{child['mode']} run: {child['cells_failed']} of {child['cells']} cells failed")
        if child["warm_executed"]:
            problems.append(f"{child['mode']} run: warm passes executed {child['warm_executed']} simulations")
        trace = child.get("trace")
        if trace and trace["counts"]["netsim.engine.events"] != child["sim_events"]:
            problems.append(
                f"tracer saw {trace['counts']['netsim.engine.events']} events, "
                f"the simulators report {child['sim_events']}"
            )
    return problems

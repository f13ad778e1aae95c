"""Per-figure experiment harness (the paper's §4 evaluation).

Each ``figN()`` regenerates the series behind one figure of the paper,
printing the same quantities (time-ratio CDF percentiles, aggregation-
benefit box statistics, handover delay timeline) and returning the raw
data for programmatic checks.

Scaling: the paper runs 253 WSP scenarios per class with 20 MB (or
256 KB) transfers, each repeated 3 times.  Defaults here are reduced
(see :class:`SweepConfig`); set ``REPRO_SCENARIOS`` / ``REPRO_FILE_SIZE``
or pass ``--full`` on the CLI for paper-scale sweeps.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.expdesign.parameters import (
    PAPER_SCENARIOS_PER_CLASS,
    Scenario,
    generate_scenarios,
)
from repro.experiments.metrics import (
    experimental_aggregation_benefit,
    fraction_greater_than,
    median,
)
from repro.experiments.parallel import (
    SweepCell,
    execute_cells,
    execute_class_sweep,
    plan_class_sweep,
    plan_workload_sweep,
    resolve_jobs,
)
from repro.experiments.report import ascii_box, ascii_cdf, table, timeline
from repro.experiments.runner import (
    BulkRunResult,
    run_bulk,
    run_handover,
)
from repro.experiments.scenarios import (
    HANDOVER_SCENARIO,
    wifi_to_lte_family,
)
from repro.netsim.topology import PathConfig
from repro.quic.config import QuicConfig

#: The paper's transfer sizes.
PAPER_LARGE_FILE = 20_000_000
PAPER_SMALL_FILE = 256_000


@dataclass(frozen=True)
class SweepConfig:
    """Sweep sizing knobs (reduced defaults; --full for paper scale)."""

    scenarios: int = int(os.environ.get("REPRO_SCENARIOS", "30"))
    file_size: int = int(os.environ.get("REPRO_FILE_SIZE", "2000000"))
    small_file_size: int = int(os.environ.get("REPRO_SMALL_FILE", "256000"))
    seed: int = 42

    @staticmethod
    def paper_scale() -> "SweepConfig":
        return SweepConfig(
            scenarios=PAPER_SCENARIOS_PER_CLASS,
            file_size=PAPER_LARGE_FILE,
            small_file_size=PAPER_SMALL_FILE,
        )


#: One sweep = per-scenario result matrices, cached so figures sharing a
#: class (e.g. Fig. 3 and Fig. 4) reuse the same runs within a session.
_SWEEP_CACHE: Dict[Tuple, List[Tuple[Scenario, Dict]] ] = {}


def run_class_sweep(
    env_class: str,
    config: SweepConfig,
    file_size: Optional[int] = None,
    jobs: Optional[int] = None,
    cache: object = "auto",
) -> List[Tuple[Scenario, Dict[Tuple[str, int], BulkRunResult]]]:
    """Run the full protocol matrix over a class's WSP scenarios.

    Execution goes through :mod:`repro.experiments.parallel`: cells are
    served from the on-disk result cache when possible and the rest fan
    out over ``REPRO_JOBS`` worker processes (results are bit-identical
    to the serial path).  ``jobs``/``cache`` override the environment;
    the session-local memo above still short-circuits repeat calls
    within one process so figures sharing a class reuse sweeps without
    re-reading the disk cache.
    """
    size = file_size if file_size is not None else config.file_size
    key = (env_class, config.scenarios, size, config.seed)
    if key in _SWEEP_CACHE:
        return _SWEEP_CACHE[key]
    scenarios = generate_scenarios(env_class, config.scenarios, seed=config.seed)
    lossy = "no-loss" not in env_class
    out = execute_class_sweep(
        scenarios, size, lossy, jobs=jobs, cache=cache
    )
    _SWEEP_CACHE[key] = out
    return out


# ----------------------------------------------------------------------
# Series extraction
# ----------------------------------------------------------------------

def time_ratio_series(
    sweep: List[Tuple[Scenario, Dict]],
) -> Dict[str, List[float]]:
    """Fig. 3/5/8/9 series: per (scenario, initial path) time ratios."""
    tcp_quic: List[float] = []
    mptcp_mpquic: List[float] = []
    for _scenario, matrix in sweep:
        for initial in (0, 1):
            tcp_quic.append(
                matrix[("tcp", initial)].transfer_time
                / matrix[("quic", initial)].transfer_time
            )
            mptcp_mpquic.append(
                matrix[("mptcp", initial)].transfer_time
                / matrix[("mpquic", initial)].transfer_time
            )
    return {"tcp/quic": tcp_quic, "mptcp/mpquic": mptcp_mpquic}


def aggregation_benefit_series(
    sweep: List[Tuple[Scenario, Dict]],
) -> Dict[str, Dict[str, List[float]]]:
    """Fig. 4/6/7/10 series: EBen split by initial-path quality.

    Returns ``{"mptcp_vs_tcp"|"mpquic_vs_quic": {"best_first"|"worst_first": [...]}}``.
    """
    out = {
        "mptcp_vs_tcp": {"best_first": [], "worst_first": []},
        "mpquic_vs_quic": {"best_first": [], "worst_first": []},
    }
    for scenario, matrix in sweep:
        singles = {
            "tcp": [matrix[("tcp", 0)].goodput_bps, matrix[("tcp", 1)].goodput_bps],
            "quic": [matrix[("quic", 0)].goodput_bps, matrix[("quic", 1)].goodput_bps],
        }
        best = scenario.best_path
        for multi, single, label in (
            ("mptcp", "tcp", "mptcp_vs_tcp"),
            ("mpquic", "quic", "mpquic_vs_quic"),
        ):
            for initial in (0, 1):
                eben = experimental_aggregation_benefit(
                    matrix[(multi, initial)].goodput_bps, singles[single]
                )
                bucket = "best_first" if initial == best else "worst_first"
                out[label][bucket].append(eben)
    return out


# ----------------------------------------------------------------------
# Figures
# ----------------------------------------------------------------------

def fig3(config: SweepConfig = SweepConfig()) -> Dict[str, List[float]]:
    """Fig. 3 — GET <large>, low-BDP-no-loss: time-ratio CDFs."""
    sweep = run_class_sweep("low-bdp-no-loss", config)
    series = time_ratio_series(sweep)
    print(f"== Fig. 3: GET {config.file_size} B, low-BDP-no-loss ==")
    for label, values in series.items():
        print(ascii_cdf(values, f"time ratio {label}"))
        print(
            f"  multipath/QUIC faster in "
            f"{fraction_greater_than(values, 1.0) * 100:.0f}% of runs\n"
        )
    return series


def fig4(config: SweepConfig = SweepConfig()) -> Dict[str, Dict[str, List[float]]]:
    """Fig. 4 — low-BDP-no-loss: experimental aggregation benefit."""
    sweep = run_class_sweep("low-bdp-no-loss", config)
    data = aggregation_benefit_series(sweep)
    print(f"== Fig. 4: EBen, GET {config.file_size} B, low-BDP-no-loss ==")
    _print_eben(data)
    return data


def fig5(config: SweepConfig = SweepConfig()) -> Dict[str, List[float]]:
    """Fig. 5 — low-BDP-losses: time-ratio CDFs."""
    sweep = run_class_sweep("low-bdp-losses", config)
    series = time_ratio_series(sweep)
    print(f"== Fig. 5: GET {config.file_size} B, low-BDP-losses ==")
    for label, values in series.items():
        print(ascii_cdf(values, f"time ratio {label}"))
        print(
            f"  (MP)QUIC faster in "
            f"{fraction_greater_than(values, 1.0) * 100:.0f}% of runs\n"
        )
    return series


def fig6(config: SweepConfig = SweepConfig()) -> Dict[str, Dict[str, List[float]]]:
    """Fig. 6 — low-BDP-losses: aggregation benefit."""
    sweep = run_class_sweep("low-bdp-losses", config)
    data = aggregation_benefit_series(sweep)
    print(f"== Fig. 6: EBen, GET {config.file_size} B, low-BDP-losses ==")
    _print_eben(data)
    return data


def fig7(config: SweepConfig = SweepConfig()) -> Dict[str, Dict[str, List[float]]]:
    """Fig. 7 — high-BDP-no-loss: aggregation benefit."""
    sweep = run_class_sweep("high-bdp-no-loss", config)
    data = aggregation_benefit_series(sweep)
    print(f"== Fig. 7: EBen, GET {config.file_size} B, high-BDP-no-loss ==")
    _print_eben(data)
    return data


def fig8(config: SweepConfig = SweepConfig()) -> Dict[str, List[float]]:
    """Fig. 8 — high-BDP-losses: time-ratio CDFs."""
    sweep = run_class_sweep("high-bdp-losses", config)
    series = time_ratio_series(sweep)
    print(f"== Fig. 8: GET {config.file_size} B, high-BDP-losses ==")
    for label, values in series.items():
        print(ascii_cdf(values, f"time ratio {label}"))
    return series


def fig9(config: SweepConfig = SweepConfig()) -> Dict[str, List[float]]:
    """Fig. 9 — GET <small>, low-BDP-no-loss: time-ratio CDFs."""
    sweep = run_class_sweep(
        "low-bdp-no-loss", config, file_size=config.small_file_size
    )
    series = time_ratio_series(sweep)
    print(f"== Fig. 9: GET {config.small_file_size} B, low-BDP-no-loss ==")
    for label, values in series.items():
        print(ascii_cdf(values, f"time ratio {label}"))
    return series


def fig10(config: SweepConfig = SweepConfig()) -> Dict[str, Dict[str, List[float]]]:
    """Fig. 10 — small transfers: aggregation benefit."""
    sweep = run_class_sweep(
        "low-bdp-no-loss", config, file_size=config.small_file_size
    )
    data = aggregation_benefit_series(sweep)
    print(f"== Fig. 10: EBen, GET {config.small_file_size} B, low-BDP-no-loss ==")
    _print_eben(data)
    return data


def fig11(config: SweepConfig = SweepConfig()) -> List[Tuple[float, float]]:
    """Fig. 11 — network handover: per-request delay timeline."""
    delays = run_handover(HANDOVER_SCENARIO)
    print("== Fig. 11: MPQUIC network handover ==")
    print(timeline(delays, "request->response delay"))
    return delays


def handover_sweep(
    config: SweepConfig = SweepConfig(),
) -> Dict[Tuple[str, float], BulkRunResult]:
    """WiFi-to-LTE mobility: bulk transfer across a mid-flight failure.

    Sweeps the failure instant of :func:`wifi_to_lte_handover` for
    MPQUIC against single-path QUIC pinned to the failing (WiFi) path.
    Cells run through the sweep executor with the fault timeline as
    part of their cache identity, so re-running the sweep with the same
    timelines is a pure cache hit while a changed failure instant (or
    mode) re-executes only the affected cells.
    """
    scenarios = wifi_to_lte_family()
    cells = [
        SweepCell(
            paths=sc.paths,
            protocol=protocol,
            initial_interface=0,
            file_size=sc.file_size,
            repetitions=1,
            base_seed=1,
            timeout=sc.timeout,
            timeline=sc.timeline,
        )
        for sc in scenarios
        for protocol in ("mpquic", "quic")
    ]
    results = execute_cells(cells)
    out: Dict[Tuple[str, float], BulkRunResult] = {}
    rows = []
    for cell, res, sc in zip(
        cells, results, [s for s in scenarios for _ in ("mpquic", "quic")]
    ):
        failure_time = sc.timeline.events[0].time
        out[(cell.protocol, failure_time)] = res
        rows.append(
            (
                sc.name,
                cell.protocol,
                f"{res.transfer_time:.2f}",
                "yes" if res.completed else "timeout",
            )
        )
    print("== WiFi-to-LTE handover sweep (blackhole at t) ==")
    print(table(["scenario", "protocol", "time (s)", "completed"], rows))
    return out


def headline_percentages(config: SweepConfig = SweepConfig()) -> Dict[str, float]:
    """The §4.1 headline numbers.

    Paper values: MPQUIC beats MPTCP in 89% of low-BDP-no-loss runs;
    EBen > 0 in 77% (MPQUIC) vs 45% (MPTCP); in high-BDP-no-loss, 58%
    vs 20%.
    """
    low = run_class_sweep("low-bdp-no-loss", config)
    high = run_class_sweep("high-bdp-no-loss", config)
    ratios = time_ratio_series(low)
    eben_low = aggregation_benefit_series(low)
    eben_high = aggregation_benefit_series(high)

    def _positive(data: Dict[str, List[float]]) -> float:
        both = data["best_first"] + data["worst_first"]
        return fraction_greater_than(both, 0.0) * 100

    results = {
        "mpquic_faster_than_mptcp_pct": fraction_greater_than(
            ratios["mptcp/mpquic"], 1.0
        ) * 100,
        "low_bdp_eben_positive_mpquic_pct": _positive(eben_low["mpquic_vs_quic"]),
        "low_bdp_eben_positive_mptcp_pct": _positive(eben_low["mptcp_vs_tcp"]),
        "high_bdp_eben_positive_mpquic_pct": _positive(eben_high["mpquic_vs_quic"]),
        "high_bdp_eben_positive_mptcp_pct": _positive(eben_high["mptcp_vs_tcp"]),
    }
    print("== Headline percentages (paper: 89 / 77 / 45 / 58 / 20) ==")
    print(
        table(
            ["metric", "measured %"],
            [(k, f"{v:.0f}") for k, v in results.items()],
        )
    )
    return results


def _print_eben(data: Dict[str, Dict[str, List[float]]]) -> None:
    for label, buckets in data.items():
        for bucket, values in buckets.items():
            if values:
                print(ascii_box(values, f"{label} [{bucket}]"))
        both = buckets["best_first"] + buckets["worst_first"]
        if both:
            print(
                f"  {label}: EBen > 0 in "
                f"{fraction_greater_than(both, 0.0) * 100:.0f}% of runs\n"
            )


# ----------------------------------------------------------------------
# Ablations (design choices called out in DESIGN.md)
# ----------------------------------------------------------------------

#: Heterogeneous two-path network for ablation studies.
ABLATION_PATHS = (
    PathConfig(capacity_mbps=10.0, rtt_ms=20.0, queuing_delay_ms=50.0),
    PathConfig(capacity_mbps=3.0, rtt_ms=80.0, queuing_delay_ms=100.0),
)


def ablation_scheduler(config: SweepConfig = SweepConfig()) -> Dict[str, float]:
    """A1: MPQUIC scheduler variants on heterogeneous paths."""
    results = {}
    for scheduler, dup in (
        ("lowest_rtt", True),
        ("lowest_rtt_no_dup", False),
        ("round_robin", True),
    ):
        qc = QuicConfig(scheduler=scheduler, duplicate_on_unknown_rtt=dup)
        res = run_bulk(
            "mpquic", ABLATION_PATHS, config.file_size, quic_config=qc
        )
        results[scheduler if dup else "lowest_rtt_no_dup"] = res.transfer_time
    print("== Ablation A1: MPQUIC packet scheduler ==")
    print(table(["scheduler", "transfer time (s)"],
                [(k, f"{v:.3f}") for k, v in results.items()]))
    return results


def ablation_congestion_control(config: SweepConfig = SweepConfig()) -> Dict[str, float]:
    """A2: coupled OLIA vs uncoupled CUBIC for MPQUIC."""
    results = {}
    for cc in ("olia", "cubic2", "newreno"):
        qc = QuicConfig(multipath_cc=cc)
        res = run_bulk(
            "mpquic", ABLATION_PATHS, config.file_size, quic_config=qc
        )
        results[cc] = res.transfer_time
    print("== Ablation A2: MPQUIC multipath congestion control ==")
    print(table(["controller", "transfer time (s)"],
                [(k, f"{v:.3f}") for k, v in results.items()]))
    return results


def ablation_window_updates(config: SweepConfig = SweepConfig()) -> Dict[str, float]:
    """A3: WINDOW_UPDATE on all paths vs only the delivering path."""
    results = {}
    for all_paths in (True, False):
        qc = QuicConfig(window_update_all_paths=all_paths)
        res = run_bulk(
            "mpquic", ABLATION_PATHS, config.file_size, quic_config=qc
        )
        results["all_paths" if all_paths else "single_path"] = res.transfer_time
    print("== Ablation A3: WINDOW_UPDATE duplication across paths ==")
    print(table(["policy", "transfer time (s)"],
                [(k, f"{v:.3f}") for k, v in results.items()]))
    return results


def workload_study(config: SweepConfig = SweepConfig()) -> Dict[str, List]:
    """Open-loop traffic study: tail FCT and fairness under load.

    Sweeps the offered load (arrival rate) for a fixed mice-and-
    elephants workload across the protocol matrix, every cell a
    hybrid-fidelity :func:`repro.experiments.workload.run_workload`
    through the sweep executor (so cells cache and crash-isolate like
    any sweep).  Prints tail FCT percentiles, Jain's fairness over
    per-flow goodput and bottleneck queue occupancy per (rate,
    protocol) cell.
    """
    from repro.experiments.scenarios import WORKLOAD_BOTTLENECK
    from repro.experiments.workload import WorkloadSpec

    rates = (50.0, 100.0, 200.0)
    protocols = ("quic", "mpquic")
    specs = [
        WorkloadSpec(
            n_flows=max(40, config.scenarios * 4),
            arrival="poisson",
            arrival_rate=rate,
            size_dist="pareto",
            mean_size=min(config.small_file_size, 100_000),
            fidelity="fluid",
            n_pairs=8,
            measure_every=10,
            seed=config.seed,
        )
        for rate in rates
    ]
    cells = plan_workload_sweep(specs, WORKLOAD_BOTTLENECK, protocols=protocols)
    results = execute_cells(cells)
    rows = []
    data: Dict[str, List] = {"rate": [], "protocol": [], "results": []}
    for cell, result in zip(cells, results):
        rate = cell.workload.arrival_rate if cell.workload else 0.0
        data["rate"].append(rate)
        data["protocol"].append(cell.protocol)
        data["results"].append(result)
        rows.append((
            f"{rate:g}",
            cell.protocol,
            f"{result.completed_flows}/{result.n_flows}",
            f"{result.peak_concurrent}",
            f"{result.p50_fct * 1e3:.0f}",
            f"{result.p99_fct * 1e3:.0f}",
            f"{result.p999_fct * 1e3:.0f}",
            f"{result.jain_goodput:.3f}",
            f"{result.queue_p99_bytes / 1e3:.0f}",
        ))
    print("== Open-loop workload study (mice-and-elephants) ==")
    print(table(
        ["rate (fl/s)", "protocol", "done", "peak", "p50 (ms)",
         "p99 (ms)", "p999 (ms)", "Jain", "queue p99 (KB)"],
        rows,
    ))
    return data


def distributed_cdf_study(config: SweepConfig = SweepConfig()) -> Dict[str, object]:
    """Streamed CDFs from a distributed sweep (bounded memory).

    The consumption path for the spool coordinator's
    ``collect="aggregate"`` mode: the class sweep runs across
    worker processes over a spool directory, every
    committed cell folds into Greenwald-Khanna sketches as it lands,
    and the transfer-time CDF plus per-protocol quantile table are
    rendered *straight from the sketches* — no full result matrix is
    ever materialised, so the same path serves 10k-cell designs in
    O(sketch) coordinator memory.
    """
    from repro.experiments.distributed import run_distributed_sweep

    scenarios = generate_scenarios(
        "low-bdp-no-loss", config.scenarios, seed=config.seed
    )
    cells = plan_class_sweep(scenarios, config.file_size, lossy=False)
    outcome = run_distributed_sweep(
        cells, workers=min(resolve_jobs(None), 4), collect="aggregate"
    )
    agg = outcome.aggregate
    assert agg is not None
    summary = agg.summary()
    print(f"== Distributed sweep: GET {config.file_size} B, "
          f"low-BDP-no-loss ({summary['cells']} cells, "
          f"{summary['sketch_entries']} sketch entries) ==")
    rows = []
    for protocol, group in summary["protocols"].items():
        rows.append((
            protocol,
            f"{group['cells']}",
            f"{group['transfer_time']['p50']:.3f}",
            f"{group['transfer_time']['p99']:.3f}",
            f"{group['goodput_bps']['p50'] / 1e6:.2f}",
            f"{group['jain_goodput']:.3f}",
        ))
    print(table(
        ["protocol", "cells", "time p50 (s)", "time p99 (s)",
         "goodput p50 (Mbps)", "Jain"],
        rows,
    ))
    # An even quantile grid *is* the streamed CDF: rendering those
    # values through the empirical-CDF plotter reproduces the sketch's
    # distribution without touching per-cell data.
    grid = [v for v, _ in agg.cdf(points=50)]
    if grid:
        print(ascii_cdf(grid, "transfer time (s), all protocols"))
    return {"summary": summary, "cdf": agg.cdf(points=50)}


FIGURES = {
    "fig3": fig3, "fig4": fig4, "fig5": fig5, "fig6": fig6,
    "fig7": fig7, "fig8": fig8, "fig9": fig9, "fig10": fig10,
    "fig11": fig11, "headline": headline_percentages,
    "handover-sweep": handover_sweep,
    "ablation-scheduler": ablation_scheduler,
    "ablation-cc": ablation_congestion_control,
    "ablation-wupdate": ablation_window_updates,
    "workload": workload_study,
    "distributed-cdf": distributed_cdf_study,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's evaluation figures."
    )
    parser.add_argument(
        "figure", choices=sorted(FIGURES) + ["all"],
        help="which figure/table to regenerate",
    )
    parser.add_argument("--scenarios", type=int, default=None)
    parser.add_argument("--file-size", type=int, default=None)
    parser.add_argument("--small-file-size", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--full", action="store_true",
        help="paper scale: 253 scenarios, 20 MB / 256 KB transfers",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for sweep execution "
             "(default: $REPRO_JOBS or all cores; 1 = serial)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk result cache (results/cache)",
    )
    parser.add_argument(
        "--csv", metavar="PATH", default=None,
        help="additionally dump every run of the executed sweeps to CSV",
    )
    args = parser.parse_args(argv)
    config = SweepConfig.paper_scale() if args.full else SweepConfig()
    overrides = {}
    if args.scenarios is not None:
        overrides["scenarios"] = args.scenarios
    if args.file_size is not None:
        overrides["file_size"] = args.file_size
    if args.small_file_size is not None:
        overrides["small_file_size"] = args.small_file_size
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        config = replace(config, **overrides)
    # The fig* entry points take only a SweepConfig, so the execution
    # knobs travel via the environment the sweep executor reads.
    if args.jobs is not None:
        os.environ["REPRO_JOBS"] = str(args.jobs)
    if args.no_cache:
        os.environ["REPRO_CACHE"] = "off"
    targets = sorted(FIGURES) if args.figure == "all" else [args.figure]
    for name in targets:
        FIGURES[name](config)
    if args.csv:
        from repro.experiments.report import SWEEP_CSV_HEADERS, save_csv, sweep_to_rows

        rows: List[List[object]] = []
        for sweep in _SWEEP_CACHE.values():
            rows.extend(sweep_to_rows(sweep))
        save_csv(args.csv, SWEEP_CSV_HEADERS, rows)
        print(f"wrote {len(rows)} runs to {args.csv}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

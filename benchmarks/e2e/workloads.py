"""The four workloads: slices of the paper's figure sweeps.

A workload is a class sweep — ``scenarios`` WSP scenarios x {tcp, quic,
mptcp, mpquic} x 2 initial paths — at the file size of the figures it
stands for.  The design is the one the figure harness uses (WSP seed
42, ``SweepConfig.seed``); ``--seed`` perturbs every factor of every
path by up to +-2 %, so each seed gives other packet timings, cache keys
and result digests while the slice stays the same experiment.  (Drawing
a fresh WSP design per seed moves the metrics by what the design costs,
not by noise: over 16 seeds and slices that fit the run-time cap,
``mptcp_wall_s`` spread 12 % and the simulated seconds 40-100 %.)
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

PROTOCOLS: Tuple[str, ...] = ("tcp", "quic", "mptcp", "mpquic")
DESIGN_SEED = 42
JITTER = 0.02
#: The 20 KB cell each protocol runs once during set-up, so frame pools
#: are filled and lazy imports done before timing starts.
WARMUP_FILE_SIZE = 20_000


@dataclass(frozen=True)
class Workload:
    name: str
    env_class: str
    scenarios: int
    file_size: int
    why: str

    @property
    def lossy(self) -> bool:
        return "no-loss" not in self.env_class

    def scaled(self, scale: float) -> int:
        return max(1, round(self.scenarios * scale))


#: Scenario counts are cut from the issue's 16 / 14 / 128 / 253 so that
#: three repeats of a workload fit in a driver run (README, "Sizes").
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "bulk-clean", "low-bdp-no-loss", 8, 2_000_000,
            "Fig. 3/4 slice (8 scenarios x 2 MB, 64 cells): the steady-state "
            "per-packet path does the work; loss recovery and set-up are idle",
        ),
        Workload(
            "bulk-lossy", "low-bdp-losses", 5, 1_000_000,
            "Fig. 5/6 slice (5 scenarios x 1 MB x 3 repetitions, 40 cells): "
            "retransmission, loss timers, out-of-order reassembly, SACK/ACK "
            "ranges, cc loss paths",
        ),
        Workload(
            "short-flows", "low-bdp-no-loss", 56, 256_000,
            "Fig. 9/10 slice (56 scenarios x 256 KB, 448 cells): handshake, "
            "slow start, topology and endpoint construction dominate",
        ),
        Workload(
            "sweep-scale", "low-bdp-no-loss", 253, 20_000,
            "paper-scale design (253 scenarios x 20 KB, 2024 cells): ~14-packet "
            "cells, so plan, key hashing, result codec and cache I/O weigh most",
        ),
    )
}


def build_scenarios(workload: Workload, seed: int, scale: float = 1.0) -> List:
    """The workload's WSP design with every path factor jittered by ``seed``."""
    from repro.expdesign.parameters import Scenario, generate_scenarios

    rng = random.Random(seed)

    def jitter(value: float) -> float:
        return value * (1.0 + rng.uniform(-JITTER, JITTER))

    design = generate_scenarios(
        workload.env_class, workload.scaled(scale), seed=DESIGN_SEED
    )
    return [
        Scenario(
            s.env_class,
            s.index,
            tuple(
                replace(
                    p,
                    capacity_mbps=jitter(p.capacity_mbps),
                    rtt_ms=jitter(p.rtt_ms),
                    queuing_delay_ms=jitter(p.queuing_delay_ms),
                    loss_percent=jitter(p.loss_percent),
                )
                for p in s.paths
            ),
        )
        for s in design
    ]

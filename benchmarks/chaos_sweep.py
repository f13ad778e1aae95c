"""Chaos drill for the sweep executor: crash recovery under fault timelines.

Runs one class sweep — every cell carrying a seeded random fault
timeline (network dynamics *inside* the simulations) — through three
stages of harness-level abuse:

1. **clean** — serial, no cache: the reference matrix;
2. **crash-once** — a designated victim cell kills its worker process
   (``os._exit``) on first execution; the coordinator sees the child
   exit, takes its lease back at once and replaces the worker, the
   cell is retried, and the final matrix must be bit-identical to
   stage 1 — without waiting out a lease TTL;
3. **crash-always + resume** — the victim dies on every attempt and is
   quarantined (reported to the ``--report`` artifact); a rerun with
   the chaos hook disarmed then resumes from the on-disk cache,
   re-executing *only* the victim, and must again match stage 1.

With ``REPRO_SWEEP_TELEMETRY`` set, the sidecar the stages wrote is
checked at the end: every line must parse and carry a ``record`` from
the executor's one vocabulary.  Exit status is non-zero on any
mismatch; CI uploads the quarantine report as an artifact.

Usage::

    PYTHONPATH=src python benchmarks/chaos_sweep.py \
        --scenarios 2 --file-size 150000 --jobs 4 \
        --report CHAOS_quarantine.json
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile
import time
from dataclasses import replace
from typing import List, Optional, Sequence

from repro.expdesign.parameters import generate_scenarios
from repro.experiments.distributed import DEFAULT_LEASE_TTL
from repro.experiments.parallel import (
    TELEMETRY_RECORDS,
    ResultCache,
    SweepCell,
    SweepStats,
    execute_cells,
    plan_class_sweep,
    result_to_dict,
    write_quarantine_report,
)
from repro.netsim.faults import FaultTimeline, delay_change, loss_change, rate_change

CHAOS_ENV = (
    "REPRO_CHAOS_CRASH_KEY",
    "REPRO_CHAOS_MARKER_DIR",
    "REPRO_CHAOS_MODE",
    "REPRO_QUARANTINE_FILE",
)


def _disarm_chaos() -> None:
    for key in CHAOS_ENV:
        os.environ.pop(key, None)


def _random_timeline(rng: random.Random, cell: SweepCell) -> FaultTimeline:
    """A transient, seeded disturbance: the path degrades, then heals.

    Kept survivable on purpose — the drill tests the *harness* under
    worker crashes; the simulations themselves must all complete.
    """
    path = rng.randrange(len(cell.paths))
    start = 0.1 + rng.random() * 0.4
    duration = 0.2 + rng.random() * 0.4
    kind = rng.choice(("loss", "rate", "delay"))
    base = cell.paths[path]
    if kind == "loss":
        events = (
            loss_change(start, path, rng.uniform(2.0, 8.0)),
            loss_change(start + duration, path, base.loss_percent),
        )
    elif kind == "rate":
        events = (
            rate_change(start, path, base.capacity_mbps * rng.uniform(0.3, 0.7)),
            rate_change(start + duration, path, base.capacity_mbps),
        )
    else:
        events = (
            delay_change(start, path, base.rtt_ms * rng.uniform(1.5, 3.0)),
            delay_change(start + duration, path, base.rtt_ms),
        )
    return FaultTimeline(events)


def _matrix(results) -> List[dict]:
    return [result_to_dict(r) for r in results]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenarios", type=int, default=2)
    parser.add_argument("--file-size", type=int, default=150_000)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--env-class", default="low-bdp-no-loss")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--report", default="CHAOS_quarantine.json")
    args = parser.parse_args(argv)

    _disarm_chaos()
    scenarios = generate_scenarios(args.env_class, args.scenarios, seed=args.seed)
    rng = random.Random(args.seed)
    cells = [
        replace(cell, timeline=_random_timeline(rng, cell))
        for cell in plan_class_sweep(scenarios, args.file_size, lossy=False)
    ]
    victim = cells[len(cells) // 2]
    print(
        f"chaos sweep: {len(cells)} cells with seeded fault timelines, "
        f"victim={victim.protocol}/if{victim.initial_interface} "
        f"({victim.cache_key()[:12]}...)"
    )

    # Stage 1: clean serial reference.
    clean = execute_cells(cells, jobs=1, cache=None)
    reference = _matrix(clean)
    print(f"stage 1 (clean serial): {len(clean)} results")

    failures = 0
    with tempfile.TemporaryDirectory(prefix="chaos-") as tmp:
        # Stage 2: the victim kills its worker once; retry completes.
        os.environ["REPRO_CHAOS_CRASH_KEY"] = victim.cache_key()[:16]
        os.environ["REPRO_CHAOS_MARKER_DIR"] = os.path.join(tmp, "markers")
        stats = SweepStats()
        t0 = time.perf_counter()
        crashed_once = execute_cells(
            cells, jobs=args.jobs, cache=None, stats=stats
        )
        elapsed = time.perf_counter() - t0
        _disarm_chaos()
        print(
            f"stage 2 (crash-once, jobs={args.jobs}): retries={stats.retries} "
            f"leases_reclaimed={stats.reclaimed} "
            f"quarantined={stats.quarantined} in {elapsed:.1f}s"
        )
        if stats.retries < 1:
            print("FAIL: the chaos victim never crashed", file=sys.stderr)
            failures += 1
        if elapsed >= DEFAULT_LEASE_TTL:
            print(
                "FAIL: recovering the dead worker's cell waited out a "
                f"lease TTL ({elapsed:.1f}s)",
                file=sys.stderr,
            )
            failures += 1
        if any(r is None for r in crashed_once):
            print("FAIL: crash-once sweep left empty slots", file=sys.stderr)
            failures += 1
        elif _matrix(crashed_once) != reference:
            print(
                "FAIL: crash-once results differ from clean serial run",
                file=sys.stderr,
            )
            failures += 1
        else:
            print("stage 2: bit-identical to the clean run")

        # Stage 3: the victim dies every time -> quarantine + resume.
        cache = ResultCache(os.path.join(tmp, "cache"))
        os.environ["REPRO_CHAOS_CRASH_KEY"] = victim.cache_key()[:16]
        stats = SweepStats()
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            interrupted = execute_cells(
                cells, jobs=args.jobs, cache=cache, stats=stats, retries=1
            )
        _disarm_chaos()
        write_quarantine_report(args.report, stats.quarantine)
        print(
            f"stage 3 (crash-always): quarantined={stats.quarantined}, "
            f"report -> {args.report}"
        )
        empty = [i for i, r in enumerate(interrupted) if r is None]
        if stats.quarantined != 1 or len(stats.quarantine) != 1:
            print("FAIL: expected exactly one quarantined cell", file=sys.stderr)
            failures += 1
        if len(empty) != 1:
            print(
                f"FAIL: expected one empty slot, got {len(empty)}",
                file=sys.stderr,
            )
            failures += 1

        # Resume from the cache: only the victim re-executes.
        stats = SweepStats()
        resumed = execute_cells(cells, jobs=args.jobs, cache=cache, stats=stats)
        print(
            f"stage 3 (resume): executed={stats.executed} "
            f"cache_hits={stats.cache_hits}"
        )
        if stats.executed != 1:
            print(
                f"FAIL: resume re-executed {stats.executed} cells "
                "(expected only the quarantined victim)",
                file=sys.stderr,
            )
            failures += 1
        if any(r is None for r in resumed) or _matrix(resumed) != reference:
            print(
                "FAIL: resumed results differ from clean serial run",
                file=sys.stderr,
            )
            failures += 1
        else:
            print("stage 3: resumed sweep bit-identical to the clean run")

    sidecar = os.environ.get("REPRO_SWEEP_TELEMETRY")
    if sidecar:
        with open(sidecar) as fh:
            kinds = [json.loads(line)["record"] for line in fh]
        stray = sorted(set(kinds) - set(TELEMETRY_RECORDS))
        print(f"telemetry: {len(kinds)} records in {sidecar}")
        if stray or not kinds:
            print(
                f"FAIL: sidecar records outside the vocabulary: {stray}",
                file=sys.stderr,
            )
            failures += 1

    if failures:
        print(f"{failures} chaos gate(s) failed", file=sys.stderr)
        return 1
    print("chaos drill passed: crash retry, quarantine and resume all OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command line of the e2e benchmark.

Three ways in:

* ``--workload W --seed N --seconds S --trace 0|1`` — one run under the
  ``BENCHMARK.json`` contract; the last line of output is the result.
* no ``--workload`` — the full ledger: every workload, ``--repeats``
  plain runs each plus the traced run and the drivers, written to
  ``--output``.
* ``--compare A.json B.json`` and ``--selfcheck``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.e2e import ledger
from benchmarks.e2e.workloads import DESIGN_SEED, JITTER, WORKLOADS

PACKAGE = Path(__file__).resolve().parent
#: Scratch space (result caches, spools); inside the checkout, ignored by git.
WORK_ROOT = PACKAGE / ".work"
MIN_REPEATS = 3
WARM_PASSES = 9
#: Driver loop length and batches per driver in a full-size run.
DRIVER_LOOP_S = 0.1
DRIVER_REPS = 5
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*\Z")


def pinned_environment() -> Dict[str, str]:
    """The children's environment, or exit if it cannot be pinned.

    Every ``REPRO_*`` variable changes what the harness does (metrics,
    sanitizer, telemetry, quarantine file, chaos hooks, job count,
    cache location), so none may be set while measuring.
    """
    loose = sorted(k for k, v in os.environ.items() if k.startswith("REPRO_") and v)
    if loose:
        sys.exit(f"refusing to measure with {', '.join(loose)} set: unset and rerun")
    if not (ledger.ROOT / "src" / "repro").is_dir():
        sys.exit(f"no program to measure: {ledger.ROOT / 'src' / 'repro'} is missing")
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    # numpy's import starts an OpenBLAS thread per core, which the
    # single-threaded program never uses; how long that takes depends on
    # whether the other core was idle (0.11 s) or busy (0.06 s) just
    # before, which made set-up time flip by a third between runs.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


class Runner:
    """Spawns measured children one at a time in a scratch directory."""

    def __init__(self) -> None:
        self.env = pinned_environment()
        WORK_ROOT.mkdir(exist_ok=True)
        self.work_dir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is using it

    def child(self, **spec: Any) -> Dict[str, Any]:
        spec["work_dir"] = self.work_dir
        done = subprocess.run(
            [sys.executable, str(PACKAGE / "run.py"), "--child", json.dumps(spec)],
            env=self.env, stdout=subprocess.PIPE, text=True, check=True,
        )
        return json.loads(done.stdout.splitlines()[-1])

    def repeats(
        self, workload: str, seed: int, scale: float, seconds: float, at_least: int
    ) -> List[Dict[str, Any]]:
        """Plain runs until ``seconds`` have passed and ``at_least`` are done."""
        children: List[Dict[str, Any]] = []
        start = time.perf_counter()
        while len(children) < at_least or time.perf_counter() - start < seconds:
            children.append(self.child(
                workload=workload, seed=seed, scale=scale, mode="plain", warm_passes=WARM_PASSES
            ))
        return children

    def layers(
        self, workload: str, seed: int, scale: float, driver_values: Dict[str, float]
    ) -> Dict[str, Any]:
        """One plain, one traced and one counted run -> per-layer metrics."""
        children = [
            self.child(workload=workload, seed=seed, scale=scale, mode=mode, warm_passes=1)
            for mode in ("plain", "traced", "counted")
        ]
        return {
            "children": children,
            "metrics": ledger.per_layer(*children, driver_values),
        }

    def drivers(self, scale: float, loop_s: float, reps: int) -> Dict[str, float]:
        return self.child(mode="drivers", scale=scale, loop_s=loop_s, reps=reps)


def _print_metrics(title: str, values: Dict[str, float], units: Dict[str, str]) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:<44} {value:>16.6g} {units[name]}")


def contract_run(args: argparse.Namespace) -> int:
    """One ``BENCHMARK.json`` run: human-readable lines, then the result."""
    runner = Runner()
    try:
        if args.trace:
            driver_values = runner.drivers(1.0, DRIVER_LOOP_S, DRIVER_REPS)
            layers = runner.layers(args.workload, args.seed, 1.0, driver_values)
            children, values, units = layers["children"], layers["metrics"], ledger.PER_LAYER_UNITS
        else:
            children = runner.repeats(args.workload, args.seed, 1.0, args.seconds, MIN_REPEATS)
            values = {k: s["median"] for k, s in ledger.end_to_end(children).items()}
            units = ledger.END_TO_END_UNITS
    finally:
        runner.close()
    problems = ledger.check_children(children)
    for problem in problems:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    _print_metrics(f"{args.workload} seed={args.seed} digest={children[0]['results_digest']}", values, units)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(c["cells"] for c in children),
        "failed": sum(c["cells_failed"] for c in children),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


def full_run(
    seed: int, repeats: int, scale: float, loop_s: float, reps: int
) -> Dict[str, Any]:
    """Every workload: ``repeats`` plain runs, the traced run, the drivers."""
    runner = Runner()
    record: Dict[str, Any] = {
        "benchmark": "e2e",
        "host": {
            "node": platform.node(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "python": platform.python_version(),
        },
        "seed": seed, "design_seed": DESIGN_SEED, "jitter": JITTER,
        "repeats": repeats, "scale": scale, "warm_passes": WARM_PASSES,
        "workloads": {},
    }
    try:
        driver_values = runner.drivers(scale, loop_s, reps)
        for name, workload in WORKLOADS.items():
            children = runner.repeats(name, seed, scale, 0.0, repeats)
            layers = runner.layers(name, seed, scale, driver_values)
            summary = ledger.end_to_end(children)
            every = children + layers["children"]
            record["workloads"][name] = {
                "env_class": workload.env_class, "scenarios": workload.scaled(scale),
                "file_size": workload.file_size, "cells": children[0]["cells"],
                "results_digest": children[0]["results_digest"],
                "cells_attempted": sum(c["cells"] for c in every),
                "cells_failed": sum(c["cells_failed"] for c in every),
                "problems": ledger.check_children(every),
                "end_to_end": summary,
                "per_layer": layers["metrics"],
            }
            _print_metrics(
                f"{name}: {children[0]['cells']} cells, digest {children[0]['results_digest']}",
                {k: s["median"] for k, s in summary.items()}, ledger.END_TO_END_UNITS,
            )
            _print_metrics(f"{name}: per layer", layers["metrics"], ledger.PER_LAYER_UNITS)
            for problem in record["workloads"][name]["problems"]:
                print(f"INCORRECT: {name}: {problem}", file=sys.stderr)
    finally:
        runner.close()
    return record


def selfcheck() -> int:
    """All workloads at 1/8 scale, 2 repeats; the plumbing must hold."""
    start = time.perf_counter()
    record = full_run(seed=42, repeats=2, scale=1 / 8, loop_s=0.005, reps=1)
    spec = ledger.load_benchmark_json()
    declared = {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    emitted = {"end_to_end": ledger.END_TO_END_UNITS, "per_layer": ledger.PER_LAYER_UNITS}
    failures: List[str] = []
    for kind in declared:
        if declared[kind] != emitted[kind]:
            odd = sorted(set(declared[kind].items()) ^ set(emitted[kind].items()))
            failures.append(f"BENCHMARK.json {kind} and the code disagree on {odd}")
        failures += [f"bad metric name {n!r}" for n in emitted[kind] if not NAME.match(n)]
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        failures.append("BENCHMARK.json workloads and the code disagree")
    for name, entry in record["workloads"].items():
        failures += [f"{name}: {p}" for p in entry["problems"]]
        for kind in declared:
            if sorted(entry[kind]) != sorted(declared[kind]):
                failures.append(f"{name}: {kind} metrics printed differ from BENCHMARK.json")
        if entry["per_layer"]["trace.coverage"] < 0.95:
            failures.append(f"{name}: trace.coverage {entry['per_layer']['trace.coverage']:.3f} < 0.95")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"selfcheck took {elapsed:.1f} s (limit 60 s)")
    for failure in failures:
        print(f"SELFCHECK FAIL: {failure}", file=sys.stderr)
    print(f"selfcheck: {'FAIL' if failures else 'ok'} in {elapsed:.1f} s")
    return 1 if failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep repeating the workload at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=5, help="plain runs per workload (full ledger)")
    parser.add_argument("--output", default="e2e_record.json", help="where the full ledger is written")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        spec = json.loads(args.child)
        if spec["mode"] == "drivers":
            from benchmarks.e2e import drivers

            print(json.dumps(drivers.run_all(spec["scale"], spec["loop_s"], spec["reps"], spec["work_dir"])))
            return 0
        from benchmarks.e2e import child

        print(json.dumps(child.run(spec)))
        return 0
    if args.compare:
        from benchmarks.e2e import compare

        return compare.main(*args.compare)
    if args.selfcheck:
        return selfcheck()
    if args.workload:
        return contract_run(args)
    if args.repeats < MIN_REPEATS:
        parser.error(f"--repeats must be at least {MIN_REPEATS}")
    record = full_run(args.seed, args.repeats, 1.0, DRIVER_LOOP_S, DRIVER_REPS)
    with open(args.output, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.output}")
    bad = [n for n, e in record["workloads"].items()
           if e["problems"] or e["per_layer"]["trace.coverage"] < 0.95]
    return 1 if bad else 0

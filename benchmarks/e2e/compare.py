"""``--compare A.json B.json``: is ledger B worse than ledger A?

One row per (end-to-end metric, workload): both medians with their
quartiles, the bound from ``BENCHMARK.json`` and a verdict —

* ``worse``: B's median is worse than A's by more than the bound;
* ``unresolved``: not worse, but a side's quartile spread is wider than
  the bound and the runs overlap, so "unchanged" cannot be claimed;
* ``ok``: otherwise.

Changed result digests and exact-repeat counts are reported: they mean
the two commits simulate different things, which no timing row shows.
Exits 1 on any ``worse`` row or a larger share of failed cells.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from benchmarks.e2e import ledger


def verdict(a: Dict[str, Any], b: Dict[str, Any], bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    if sign * (b["median"] - a["median"]) > bound * abs(a["median"]):
        return "worse"
    spread = max((s["q3"] - s["q1"]) / abs(s["median"]) for s in (a, b))
    if better == "lower":
        b_always_better = max(b["values"]) < min(a["values"])
    else:
        b_always_better = min(b["values"]) > max(a["values"])
    return "unresolved" if spread > bound and not b_always_better else "ok"


def _load(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        return json.load(fh)


def _failed_share(entry: Dict[str, Any]) -> float:
    return entry["cells_failed"] / entry["cells_attempted"]


def main(path_a: str, path_b: str) -> int:
    a, b = _load(path_a), _load(path_b)
    metrics = ledger.load_benchmark_json()["end_to_end"]
    rows: List[str] = []
    notes: List[str] = []
    bad = False
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"].get(name)
        if wb is None:
            notes.append(f"{name}: missing from {path_b}")
            bad = True
            continue
        for metric in metrics:
            sa, sb = wa["end_to_end"][metric["name"]], wb["end_to_end"][metric["name"]]
            result = verdict(sa, sb, metric["bound"], metric["better"])
            bad |= result == "worse"
            rows.append(
                f"{metric['name']:<17} {name:<12} "
                f"{sa['median']:>10.4g} [{sa['q1']:.4g}, {sa['q3']:.4g}]  "
                f"{sb['median']:>10.4g} [{sb['q1']:.4g}, {sb['q3']:.4g}]  "
                f"{(sb['median'] / sa['median'] - 1) * 100:>+7.2f}%  "
                f"bound {metric['bound'] * 100:.0f}%  {result}"
            )
        if _failed_share(wb) > _failed_share(wa):
            notes.append(
                f"{name}: failed cells {wa['cells_failed']}/{wa['cells_attempted']} -> "
                f"{wb['cells_failed']}/{wb['cells_attempted']}"
            )
            bad = True
        if wa["results_digest"] != wb["results_digest"]:
            notes.append(
                f"{name}: results_digest changed {wa['results_digest'][:12]} -> "
                f"{wb['results_digest'][:12]} (simulated results differ)"
            )
        for count in ledger.EXACT_COUNTS:
            ca, cb = wa["per_layer"][count], wb["per_layer"][count]
            if ca != cb:
                notes.append(f"{name}: {count} {ca} -> {cb}")
    print(f"{'metric':<17} {'workload':<12} {'A median [q1, q3]':>32}  {'B median [q1, q3]':>32}")
    print("\n".join(rows))
    for note in notes:
        print(f"NOTE: {note}")
    print("verdict:", "WORSE" if bad else "no regression")
    return 1 if bad else 0

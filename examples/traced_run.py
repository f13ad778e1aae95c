#!/usr/bin/env python3
"""Traced run: record qlog-style telemetry for one download.

Attaches a `repro.obs.Tracer` to the quickstart scenario (two disjoint
paths, Fig. 2), then prints the per-path summary report, shows a few
events and series points, and exports the trace in every supported
format.  Re-render the report later with:

    python -m repro.obs report results/traced_run.jsonl

Run:  python examples/traced_run.py [--protocol tcp|mptcp|quic|mpquic]
"""

import argparse
from pathlib import Path

from repro.apps.bulk import BulkTransferApp
from repro.apps.transport import PROTOCOLS, make_client_server
from repro.netsim.engine import Simulator
from repro.netsim.topology import PathConfig, TwoPathTopology
from repro.obs import (
    CAT_PATH,
    Tracer,
    format_report,
    summarize,
    write_csv_series,
    write_jsonl,
    write_qlog_json,
)

OUT_DIR = Path(__file__).resolve().parent.parent / "results"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--protocol", choices=PROTOCOLS, default="mpquic")
    protocol = parser.parse_args().protocol

    sim = Simulator()
    topology = TwoPathTopology(
        sim,
        [
            PathConfig(capacity_mbps=20.0, rtt_ms=30.0, queuing_delay_ms=60.0),
            PathConfig(capacity_mbps=8.0, rtt_ms=70.0, queuing_delay_ms=120.0),
        ],
        seed=1,
    )
    tracer = Tracer()
    client, server = make_client_server(protocol, sim, topology, trace=tracer)
    app = BulkTransferApp(sim, client, server, file_size=2_000_000)
    if not app.run():
        raise SystemExit("transfer did not complete")

    print(f"Downloaded {app.bytes_received} bytes in {app.transfer_time:.3f} s\n")
    print(format_report(summarize(tracer)))

    print("\nfirst path-lifecycle events:")
    for ev in tracer.events_of(category=CAT_PATH)[:6]:
        print(f"  {ev.time:9.4f}s  {ev.host:<7}  path {ev.path_id}: {ev.name}")

    srtt = tracer.series_of("server", 1, "srtt")
    if srtt:
        print(f"\nserver path 1 srtt: {len(srtt)} samples, "
              f"first {srtt[0][1] * 1e3:.1f} ms, last {srtt[-1][1] * 1e3:.1f} ms")

    OUT_DIR.mkdir(exist_ok=True)
    write_qlog_json(tracer, OUT_DIR / "traced_run.qlog.json", title="traced_run")
    write_jsonl(tracer, OUT_DIR / "traced_run.jsonl")
    write_csv_series(tracer, OUT_DIR / "traced_run_series.csv")
    print(f"\nwrote traced_run.qlog.json / .jsonl / _series.csv to {OUT_DIR}/")


if __name__ == "__main__":
    main()

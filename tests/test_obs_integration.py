"""Integration tests: traced experiment runs, the §4.3 handover
timeline, extended connection statistics, the run_bulk median fix and
the pinned per-protocol event stream."""

import hashlib

import pytest

import repro.experiments.runner as runner_mod
from repro.experiments.runner import run_bulk, run_handover
from repro.experiments.scenarios import HANDOVER_SCENARIO
from repro.netsim.faults import link_down, link_up, loss_change, timeline
from repro.netsim.topology import PathConfig
from repro.obs import Tracer, summarize, to_qlog
from repro.quic.config import QuicConfig
from tests.test_obs_events import TWO_PATHS, traced_transfer


class TestTracedBulkRun:
    """The acceptance-criteria run: two-path MPQUIC bulk download with
    an exported qlog trace carrying per-path series + histogram."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_bulk(
            "mpquic",
            [PathConfig(10, 30, 60), PathConfig(10, 80, 120)],
            400_000,
            collect_trace=True,
        )

    def test_trace_returned_alongside_result(self, result):
        assert result.completed
        assert isinstance(result.trace, Tracer)
        assert result.rep_completed == [True]

    def test_per_path_cwnd_and_srtt_series(self, result):
        trace = result.trace
        for path_id in (0, 1):
            cwnd = trace.series_of("server", path_id, "cwnd")
            srtt = trace.series_of("server", path_id, "srtt")
            assert len(cwnd) > 10, path_id
            assert len(srtt) > 10, path_id
            # cwnd grows from the initial window during the transfer.
            assert max(v for _, v in cwnd) > cwnd[0][1]
            # The srtt series reflects the paths' distinct base RTTs.
        srtt0 = [v for _, v in trace.series_of("server", 0, "srtt")]
        srtt1 = [v for _, v in trace.series_of("server", 1, "srtt")]
        assert min(srtt1) > min(srtt0)

    def test_scheduler_histogram_favours_fast_path(self, result):
        decisions = result.trace.scheduler_decisions
        fast = decisions[("server", 0)]
        slow = decisions[("server", 1)]
        assert fast > slow > 0

    def test_qlog_export_of_run(self, result):
        doc = to_qlog(result.trace)
        server = next(
            t for t in doc["traces"] if t["vantage_point"]["name"] == "server"
        )
        assert "path0:cwnd" in server["time_series"]
        assert "path1:cwnd" in server["time_series"]
        assert server["scheduler_decisions"]["0"] > 0

    def test_no_trace_by_default(self):
        res = run_bulk("mpquic", TWO_PATHS, 100_000)
        assert res.trace is None

    @pytest.mark.parametrize("protocol", ["tcp", "mptcp", "quic"])
    def test_other_protocols_feed_the_typed_stream(self, protocol):
        """The TCP/MPTCP/QUIC emit sites reach the Tracer too."""
        res = run_bulk(protocol, TWO_PATHS, 100_000, collect_trace=True)
        assert res.completed
        sends = res.trace.events_of("transport", "packet_sent")
        assert len(sends) > 20
        summary = summarize(res.trace)
        assert any(ps.packets_sent for ps in summary.paths.values())


class TestHandoverTimeline:
    """Fig. 11: the path is marked potentially failed *before* the
    traffic shifts onto the surviving path."""

    @pytest.fixture(scope="class")
    def trace(self):
        tr = Tracer()
        run_handover(HANDOVER_SCENARIO, trace=tr)
        return tr

    def test_potentially_failed_emitted_after_failure(self, trace):
        pf = trace.events_of("path", "potentially_failed")
        assert pf
        assert all(ev.path_id == 0 for ev in pf)
        assert min(ev.time for ev in pf) >= HANDOVER_SCENARIO.failure_time
        # Both detection mechanisms appear: the local RTO and the
        # peer's PATHS-frame signal (paper §4.3).
        sources = {ev.data.get("source") for ev in pf}
        assert {"rto", "peer"} <= sources

    def test_traffic_shifts_after_failure_detection(self, trace):
        t_pf = min(
            ev.time for ev in trace.events_of("path", "potentially_failed")
        )
        # Before the failure, path 0 (lower RTT) carries the traffic.
        pre0 = trace.events_of(
            "transport", "packet_sent", "client", 0,
            t_max=HANDOVER_SCENARIO.failure_time,
        )
        pre1 = trace.events_of(
            "transport", "packet_sent", "client", 1,
            t_max=HANDOVER_SCENARIO.failure_time,
        )
        assert len(pre0) > len(pre1)
        # After detection, path 1 takes over; path 0 only sees probes.
        post0 = trace.events_of(
            "transport", "packet_sent", "client", 0, t_min=t_pf
        )
        post1 = trace.events_of(
            "transport", "packet_sent", "client", 1, t_min=t_pf
        )
        assert len(post1) > 5 * max(len(post0), 1)

    def test_summary_timeline_orders_failure_after_validation(self, trace):
        timeline = summarize(trace).handover_timeline
        names = [name for _, _, path_id, name in timeline if path_id == 0]
        assert names.index("validated") < names.index("potentially_failed")


class TestExtendedConnectionStats:
    @pytest.fixture(scope="class")
    def lossy_run(self):
        return traced_transfer(
            [PathConfig(8, 30, 60, loss_percent=2.0),
             PathConfig(8, 30, 60, loss_percent=2.0)],
            size=400_000, seed=4,
        )

    def test_loss_and_retransmit_counters(self, lossy_run):
        _, client, server, _ = lossy_run
        stats = server.stats
        assert stats.packets_lost > 0
        assert stats.loss_events > 0
        assert stats.loss_events <= stats.packets_lost
        assert stats.frames_retransmitted > 0
        assert stats.stream_bytes_retransmitted > 0

    def test_duplicated_packet_counter(self, lossy_run):
        _, client, server, _ = lossy_run
        # Duplication onto the RTT-unknown second path right after the
        # handshake (paper §3).
        assert server.stats.packets_duplicated >= 1
        per_path = server.duplicated_packets_per_path()
        assert sum(per_path.values()) == server.stats.packets_duplicated

    def test_per_path_accessors(self, lossy_run):
        _, client, server, _ = lossy_run
        lost = server.packets_lost_per_path()
        retrans = server.retransmitted_bytes_per_path()
        assert set(lost) == set(server.paths)
        assert sum(lost.values()) >= server.stats.loss_events
        assert sum(retrans.values()) == sum(
            p.stream_bytes_retransmitted for p in server.paths.values()
        )
        stats = server.path_stats()
        for path_id, per_path in stats.items():
            assert per_path["retransmitted_bytes"] == retrans[path_id]


class TestMedianSkewFix:
    def _patch_runs(self, monkeypatch, outcomes):
        """Script _single_bulk outcomes: list of (ok, duration)."""
        it = iter(outcomes)

        def fake_single_bulk(*args, **kwargs):
            ok, duration = next(it)
            return ok, duration, 0  # (ok, duration, sim_events)

        monkeypatch.setattr(runner_mod, "_single_bulk", fake_single_bulk)

    def test_timeouts_excluded_from_median(self, monkeypatch):
        self._patch_runs(
            monkeypatch, [(True, 10.0), (False, 4000.0), (True, 12.0)]
        )
        res = runner_mod.run_bulk("mpquic", TWO_PATHS, 1000, repetitions=3)
        assert res.transfer_time == 11.0  # median of completed reps only
        assert res.completed is False  # one rep failed
        assert res.failed_repetitions == 1
        assert res.rep_completed == [True, False, True]
        assert res.rep_times == [10.0, 4000.0, 12.0]

    def test_all_failed_falls_back_to_timeout(self, monkeypatch):
        self._patch_runs(monkeypatch, [(False, 4000.0)] * 3)
        res = runner_mod.run_bulk("mpquic", TWO_PATHS, 1000, repetitions=3)
        assert res.transfer_time == 4000.0
        assert res.completed is False
        assert res.failed_repetitions == 3

    def test_all_completed_unchanged(self, monkeypatch):
        self._patch_runs(
            monkeypatch, [(True, 9.0), (True, 11.0), (True, 10.0)]
        )
        res = runner_mod.run_bulk("mpquic", TWO_PATHS, 1000, repetitions=3)
        assert res.transfer_time == 10.0
        assert res.completed is True
        assert res.failed_repetitions == 0


LOSSY_PATHS = [
    PathConfig(10, 30, 60, loss_percent=2.0),
    PathConfig(5, 60, 60, loss_percent=2.0),
]

#: protocol -> (run_bulk arguments, event count, SHA-256 of the stream).
#: Counts and digests were generated at the commit *before* the stacks
#: moved from the tuple-based ``trace.log`` to typed ``emit``, so a match
#: proves the migration event for event.  Between them the four cases
#: reach every migrated site: send/recv/rto/tail_loss_probe, QUIC
#: migrated/rebind, MPQUIC duplicated, and the TCP flow's three.
PINNED_STREAMS = {
    "tcp": (
        dict(
            paths=[PathConfig(10, 30, 60, loss_percent=6.0), PathConfig(10, 30, 60)],
            file_size=150_000, base_seed=7,
        ),
        397,
        "158926c9238ff3c6593ed25afe7bca82ebde812238d9c414e637e8854ebbfdb5",
    ),
    "mptcp": (
        dict(
            paths=LOSSY_PATHS, file_size=300_000, base_seed=4,
            timeline=timeline(link_down(0.2, 0), link_up(1.5, 0)),
        ),
        899,
        "201e131c691a401ef00fee371ebe6e1019eac7ac4a46b845558dc7815afce86f",
    ),
    "quic": (
        dict(
            paths=TWO_PATHS, file_size=300_000,
            quic_config=QuicConfig(migrate_on_failure=True),
            timeline=timeline(loss_change(0.25, 0, 100.0)),
        ),
        1500,
        "804db611a569373cd38fc72e700264b9cb4d5627ab28b24dbcf92c746158085c",
    ),
    "mpquic": (
        dict(
            paths=LOSSY_PATHS, file_size=300_000, base_seed=4,
            timeline=timeline(link_down(0.3, 0), link_up(0.9, 0)),
        ),
        1396,
        "682378ee152a87453e18abc9027c41c2a54f60824959ef22b395a8ab9d501a45",
    ),
}


def stream_digest(trace):
    """SHA-256 over every event's time, host, category, name, path id
    and key-sorted payload (keys *and* values), in emission order."""
    h = hashlib.sha256()
    for ev in trace.events:
        h.update(repr((
            ev.time, ev.host, ev.category, ev.name, ev.path_id,
            sorted(ev.data.items()),
        )).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("protocol", sorted(PINNED_STREAMS))
def test_event_stream_pinned(protocol):
    kwargs, count, digest = PINNED_STREAMS[protocol]
    res = run_bulk(protocol, collect_trace=True, timeout=60.0, **kwargs)
    assert res.completed
    assert len(res.trace.events) == count
    assert stream_digest(res.trace) == digest

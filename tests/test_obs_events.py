"""Unit tests for the structured telemetry layer (`repro.obs.events`).

Covers: the typed event model, event-emission ordering through a real
connection, time-series sampling/throttling, the layer hooks, and the
``events_of`` filters including the time window.
"""


from repro.cc.newreno import NewReno
from repro.core.connection import MultipathQuicConnection
from repro.core.scheduler import LowestRttScheduler
from repro.netsim.engine import Simulator
from repro.netsim.topology import PathConfig, TwoPathTopology
from repro.obs import Tracer
from repro.quic.config import QuicConfig
from repro.quic.rtt import RttEstimator


def traced_transfer(paths, size=300_000, config=None, seed=1, until=30.0):
    sim = Simulator()
    topo = TwoPathTopology(sim, paths, seed=seed)
    trace = Tracer()
    client = MultipathQuicConnection(
        sim, topo.client, "client", config or QuicConfig(), trace
    )
    server = MultipathQuicConnection(
        sim, topo.server, "server", config or QuicConfig(), trace
    )
    state, done = {}, {}

    def osd(sid, data, fin):
        if sid not in state:
            state[sid] = True
            server.send_stream_data(sid, b"t" * size, fin=True)

    server.on_stream_data = osd
    client.on_stream_data = (
        lambda sid, d, fin: done.update(t=sim.now) if fin else None
    )
    client.on_established = lambda: client.send_stream_data(
        client.open_stream(), b"GET", fin=True
    )
    client.connect()
    sim.run_until(lambda: "t" in done, timeout=until)
    return trace, client, server, done


TWO_PATHS = [PathConfig(10, 30, 60), PathConfig(10, 30, 60)]


class TestTracerBasics:
    def test_disabled_tracer_records_nothing(self):
        tr = Tracer(enabled=False)
        tr.emit(1.0, "h", "cc", "state_changed", 0)
        tr.sample(1.0, "h", 0, "cwnd", 100.0)
        tr.sched_decision(1.0, "h", 0)
        assert not tr.events
        assert not tr.series and not tr.scheduler_decisions

    def test_sample_throttling(self):
        tr = Tracer(sample_interval=1.0)
        for t in (0.0, 0.2, 0.4, 1.1, 1.2, 2.5):
            tr.sample(t, "h", 0, "cwnd", t)
        times = [t for t, _ in tr.series_of("h", 0, "cwnd")]
        assert times == [0.0, 1.1, 2.5]

    def test_events_of_filters(self):
        tr = Tracer()
        tr.emit(0.1, "a", "cc", "state_changed", 0)
        tr.emit(0.2, "b", "cc", "state_changed", 1)
        tr.emit(0.3, "a", "path", "new", 1)
        assert len(tr.events_of(category="cc")) == 2
        assert len(tr.events_of(host="a")) == 2
        assert len(tr.events_of(path_id=1)) == 2
        assert len(tr.events_of(t_min=0.15, t_max=0.25)) == 1

    def test_events_of_time_window(self):
        tr = Tracer()
        for t in (0.1, 0.5, 1.0, 1.5):
            tr.emit(t, "h", "transport", "packet_sent", 0, packet_number=int(t * 10))
        window = tr.events_of(name="packet_sent", t_min=0.5, t_max=1.0)
        assert [ev.time for ev in window] == [0.5, 1.0]
        assert tr.events_of(t_min=1.6) == []
        # Bounds are inclusive and composable with other criteria.
        assert len(tr.events_of(host="h", t_max=0.1)) == 1


class TestLayerHooks:
    def test_cc_state_change_hook(self):
        cc = NewReno(mss=1000)
        seen = []
        cc.telemetry = lambda name, ctrl, now: seen.append((name, ctrl.state))
        cc.on_loss_event(1.0, 0.9)
        assert seen and seen[0][0] == "state_changed"

    def test_rtt_sample_hook(self):
        est = RttEstimator()
        seen = []
        est.on_sample = seen.append
        est.update(0.05)
        est.update(0.06)
        assert len(seen) == 2 and seen[0] is est

    def test_scheduler_choose_reports_selection(self):
        sched = LowestRttScheduler()

        class FakePath:
            def __init__(self, pid, rtt):
                self.path_id = pid
                self.rtt_known = True
                self.rtt = type("R", (), {"smoothed": rtt})()

            def can_send_data(self):
                return True

        a, b = FakePath(0, 0.05), FakePath(1, 0.02)
        assert sched.choose([a, b]) is b
        assert sched.choose([]) is None


class TestConnectionEventStream:
    def test_event_times_are_monotonic(self):
        trace, *_ = traced_transfer(TWO_PATHS)
        times = [ev.time for ev in trace.events]
        assert times == sorted(times)

    def test_path_lifecycle_ordering(self):
        """path:new precedes path:validated which precedes data flow."""
        trace, *_ = traced_transfer(TWO_PATHS)
        for host in ("client", "server"):
            for path_id in (0, 1):
                new = trace.events_of("path", "new", host, path_id)
                validated = trace.events_of("path", "validated", host, path_id)
                assert len(new) == 1, (host, path_id)
                assert len(validated) == 1, (host, path_id)
                assert new[0].time <= validated[0].time
                sends = trace.events_of(
                    "transport", "packet_sent", host, path_id
                )
                assert sends and sends[0].time >= new[0].time

    def test_cwnd_and_srtt_series_sampled_per_path(self):
        trace, client, server, _ = traced_transfer(TWO_PATHS)
        for path_id in (0, 1):
            cwnd = trace.series_of("server", path_id, "cwnd")
            srtt = trace.series_of("server", path_id, "srtt")
            assert len(cwnd) > 5
            assert len(srtt) > 5
            assert all(v > 0 for _, v in cwnd)
            # The series agrees with the live path state at the end.
            last_cwnd = cwnd[-1][1]
            assert last_cwnd == server.paths[path_id].cc.cwnd_bytes

    def test_goodput_series_is_cumulative(self):
        trace, *_ = traced_transfer(TWO_PATHS, size=200_000)
        series = trace.series_of("client", -1, "goodput_bytes")
        values = [v for _, v in series]
        assert values == sorted(values)
        assert values[-1] >= 200_000

    def test_metrics_updated_events_emitted(self):
        trace, *_ = traced_transfer(TWO_PATHS)
        updates = trace.events_of("recovery", "metrics_updated", "server", 0)
        assert updates
        assert all("smoothed_rtt" in ev.data for ev in updates)

    def test_scheduler_histogram_counts_data_packets(self):
        trace, client, server, _ = traced_transfer(TWO_PATHS)
        total = sum(
            count
            for (host, _), count in trace.scheduler_decisions.items()
            if host == "server"
        )
        # Every counted decision produced a data packet send.
        sends = len(trace.events_of("transport", "packet_sent", "server"))
        assert 0 < total <= sends

    def test_loss_events_emitted_under_loss(self):
        trace, *_ = traced_transfer(
            [PathConfig(10, 30, 60, loss_percent=2.0),
             PathConfig(10, 30, 60, loss_percent=2.0)],
            size=400_000, seed=4,
        )
        lost = trace.events_of("transport", "packet_lost", "server")
        assert lost
        retrans = trace.events_of("recovery", "retransmit", "server")
        assert retrans
        assert all(ev.data["bytes"] > 0 for ev in retrans)

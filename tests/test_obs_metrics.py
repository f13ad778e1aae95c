"""The opt-in performance-metrics registry (REPRO_METRICS=1).

Three properties under test, mirroring the sanitizer's contract:
the wiring costs nothing when metrics are off (no registry method is
ever reached from the hot paths), the counters are *accurate* (the
engine counter equals the simulator's own events_processed), and the
exclusive scope stack attributes essentially all of a run's wall time
to subsystems.
"""

import json

import pytest

from repro.netsim.engine import Simulator
from repro.obs import events as obs_events
from repro.obs import metrics
from repro.obs.events import Tracer

from tests.helpers import TWO_CLEAN_PATHS, run_transfer


class TestSwitch:
    def test_off_by_default(self):
        # The suite runs without REPRO_METRICS; the global must be off.
        assert metrics.METRICS is False

    def test_enabled_context_restores_previous_state(self):
        before = metrics.METRICS
        with metrics.enabled():
            assert metrics.METRICS is True
            with metrics.enabled(False):
                assert metrics.METRICS is False
            assert metrics.METRICS is True
        assert metrics.METRICS is before

    def test_enabled_resets_registry_unless_fresh_false(self):
        with metrics.enabled():
            metrics.REGISTRY.inc("x")
        with metrics.enabled():
            assert "x" not in metrics.REGISTRY.counters
        with metrics.enabled(fresh=False):
            metrics.REGISTRY.inc("y")
        with metrics.enabled(fresh=False):
            assert metrics.REGISTRY.counters["y"] == 1


class _RecordingRegistry:
    """Stand-in registry that records every method touch."""

    def __init__(self, calls):
        self._calls = calls

    def __getattr__(self, name):
        def recorder(*args, **kwargs):
            self._calls.append((name, args))
        return recorder


class TestZeroOverheadWiring:
    """With metrics off, no hot path ever reaches the registry."""

    def test_no_registry_calls_during_a_full_transfer(self, monkeypatch):
        calls = []
        monkeypatch.setattr(metrics, "REGISTRY", _RecordingRegistry(calls))
        for protocol in ("mpquic", "tcp", "mptcp"):
            with metrics.enabled(False, fresh=False):
                result = run_transfer(protocol, TWO_CLEAN_PATHS, file_size=200_000)
            assert result.ok
            assert calls == [], protocol

    def test_same_transfer_feeds_the_registry_when_enabled(self):
        with metrics.enabled() as reg:
            result = run_transfer("mpquic", TWO_CLEAN_PATHS, file_size=200_000)
            counters = dict(reg.counters)
        assert result.ok
        # Every instrumented family except the wire codec (the
        # simulator passes packets in memory) and the congestion
        # controller (clean paths never leave slow start) fires.
        for name in (
            "engine.events_processed",
            "engine.timers_scheduled",
            "engine.timers_cancelled",
            "quic.packets_sent",
            "quic.packets_received",
            "scheduler.decisions",
            "reassembly.chunks_inserted",
            "reassembly.deliveries",
        ):
            assert counters.get(name, 0) > 0, name

    def test_cc_state_transitions_counted_on_loss(self):
        from repro.cc.newreno import NewReno

        with metrics.enabled() as reg:
            cc = NewReno()
            cc.on_loss_event(1.0, sent_time=0.5)
            cc.on_rto(2.0)
            counters = dict(reg.counters)
        assert counters["cc.state_transitions"] == 2

    def test_counter_names_are_canonical(self):
        with metrics.enabled() as reg:
            run_transfer("mpquic", TWO_CLEAN_PATHS, file_size=200_000)
            counters = dict(reg.counters)
        unknown = set(counters) - set(metrics.INSTRUMENTED_COUNTERS)
        assert not unknown, f"undocumented metric names: {unknown}"


class TestAccuracy:
    def test_engine_counter_matches_simulator_accounting(self):
        with metrics.enabled() as reg:
            result = run_transfer("mpquic", TWO_CLEAN_PATHS, file_size=200_000)
            processed = reg.counters["engine.events_processed"]
        assert processed == result.sim.events_processed

    def test_packet_counters_match_transport_stats(self):
        with metrics.enabled() as reg:
            result = run_transfer("mpquic", TWO_CLEAN_PATHS, file_size=200_000)
            counters = dict(reg.counters)
        client = result.client.connection
        server = result.server.connection
        sent = client.stats.packets_sent + server.stats.packets_sent
        received = (
            client.stats.packets_received + server.stats.packets_received
        )
        assert counters["quic.packets_sent"] == sent
        assert counters["quic.packets_received"] == received

    def test_heap_compactions_counted_under_churn(self):
        with metrics.enabled() as reg:
            sim = Simulator()
            for i in range(300):
                sim.schedule(1.0 + i * 1e-6, lambda: None).cancel()
            sim.schedule(2.0, lambda: None)
            sim.run()
            counters = dict(reg.counters)
        assert counters.get("engine.heap_compactions", 0) > 0
        assert counters["engine.timers_cancelled"] == 300

    def test_wire_codec_counters(self):
        from repro.quic.frames import PingFrame
        from repro.quic.packet import Packet

        with metrics.enabled() as reg:
            packet = Packet(
                path_id=0, packet_number=7, frames=(PingFrame(),),
                multipath=True,
            )
            assert Packet.decode(packet.encode()) == packet
            snap = reg.snapshot()
        assert snap["counters"]["wire.packets_encoded"] == 1
        assert snap["counters"]["wire.packets_decoded"] == 1
        hist = snap["histograms"]["wire.encoded_packet_bytes"]
        assert hist["count"] == 1
        assert hist["min"] == hist["max"] > 0


class TestWallTimeAttribution:
    def test_exclusive_scopes_sum_to_outer_elapsed(self):
        reg = metrics.MetricsRegistry()
        reg.enter("outer")
        reg.enter("inner")
        reg.exit()
        reg.enter("inner")
        reg.exit()
        reg.exit()
        snap = reg.snapshot()
        total = snap["wall_time_total_seconds"]
        assert set(snap["wall_time_seconds"]) == {"outer", "inner"}
        assert sum(snap["wall_time_seconds"].values()) == pytest.approx(total)

    def test_transfer_attribution_covers_most_of_the_run(self):
        """ISSUE acceptance: subsystem wall time >= 80% of sim wall time."""
        with metrics.enabled() as reg:
            t0 = metrics.clock()
            result = run_transfer("mpquic", TWO_CLEAN_PATHS, file_size=500_000)
            elapsed = metrics.clock() - t0
            snap = reg.snapshot()
        assert result.ok
        wall = snap["wall_time_seconds"]
        total = snap["wall_time_total_seconds"]
        assert sum(wall.values()) == pytest.approx(total)
        # The transport does the work, and the exclusive-scope stack
        # re-attributes it out of the engine's dispatch loop.
        assert wall.get("quic", 0.0) > 0.0
        assert wall.get("engine", 0.0) > 0.0
        assert total >= 0.8 * elapsed

    @pytest.mark.parametrize("protocol", ["tcp", "mptcp"])
    def test_tcp_stacks_bill_deliveries_to_themselves(self, protocol):
        """The simulator bills a delivery callback to the link that
        scheduled it; without the re-scope in ``_datagram_received``
        ~90 % of a (MP)TCP transfer was billed to ``netsim``."""
        with metrics.enabled() as reg:
            result = run_transfer(protocol, TWO_CLEAN_PATHS, file_size=500_000)
            snap = reg.snapshot()
        assert result.ok
        own = snap["wall_time_seconds"].get(protocol, 0.0)
        assert own > 0.4 * snap["wall_time_total_seconds"]

    def test_scope_stack_balanced_after_callback_exception(self):
        with metrics.enabled() as reg:
            sim = Simulator()

            def boom():
                raise RuntimeError("callback failure")

            sim.schedule(1.0, boom)
            with pytest.raises(RuntimeError, match="callback failure"):
                sim.run()
            assert reg._stack == []

    def test_timed_scope_is_noop_when_off(self):
        with metrics.enabled(False):
            with metrics.timed("harness"):
                pass
            assert metrics.REGISTRY.wall == {}
        with metrics.enabled():
            with metrics.timed("harness"):
                pass
            assert "harness" in metrics.REGISTRY.wall


class TestSubsystemOf:
    @pytest.mark.parametrize(
        "module,expected",
        [
            ("repro.quic.connection", "quic"),
            ("repro.netsim.engine", "netsim"),
            ("repro.apps.bulk", "apps"),
            ("tests.helpers", "other"),
            ("heapq", "other"),
            (None, "other"),
        ],
    )
    def test_mapping(self, module, expected):
        assert metrics.subsystem_of(module) == expected


class TestHistogram:
    def test_power_of_two_buckets(self):
        hist = metrics.Histogram()
        for value in (0, 1, 2, 3, 1000, 1400):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 6
        assert snap["min"] == 0 and snap["max"] == 1400
        # 0 -> bucket 0; 1 -> 1; 2,3 -> 2; 1000 -> 10; 1400 -> 11.
        assert snap["buckets"] == {"0": 1, "1": 1, "2": 2, "10": 1, "11": 1}

    def test_empty_snapshot_has_no_extremes(self):
        snap = metrics.Histogram().snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None and snap["max"] is None


class TestExport:
    def test_category_comes_from_the_registry(self):
        # Regression pin for the obs-schema fix: metrics.py used to
        # carry its own ``CATEGORY = "metrics"`` literal (it cannot
        # import events at module level), which is exactly the drift
        # the whole-program obs-schema rule flags.  The single source
        # of truth is the registry constant, imported at call time.
        assert obs_events.CAT_METRICS in obs_events.CATEGORIES
        assert not hasattr(metrics, "CATEGORY")
        with metrics.enabled() as reg:
            reg.inc("engine.events_processed")
            tracer = Tracer()
            metrics.emit_into(tracer, now=0.0)
        assert {e.category for e in tracer.events} == {obs_events.CAT_METRICS}

    def test_emit_into_produces_metrics_events(self):
        with metrics.enabled() as reg:
            reg.inc("engine.events_processed", 5)
            reg.gauge("heap.size", 17.0)
            reg.observe("wire.encoded_packet_bytes", 1300)
            with metrics.timed("engine"):
                pass
            tracer = Tracer()
            emitted = metrics.emit_into(tracer, now=2.5)
        assert emitted == len(tracer.events) == 5
        assert {e.category for e in tracer.events} == {obs_events.CAT_METRICS}
        by_name = {e.name: e for e in tracer.events}
        assert by_name["counter"].data == {
            "metric": "engine.events_processed", "value": 5,
        }
        assert by_name["gauge"].data["metric"] == "heap.size"
        assert by_name["histogram"].data["count"] == 1
        assert by_name["wall_time"].data["subsystem"] == "engine"
        assert by_name["snapshot"].data["counters"] == 1
        assert all(e.time == 2.5 for e in tracer.events)

    def test_report_renders_metrics_section(self):
        from repro.obs.summary import format_report, summarize

        with metrics.enabled() as reg:
            reg.inc("engine.events_processed", 41)
            with metrics.timed("engine"):
                pass
            tracer = Tracer()
            metrics.emit_into(tracer)
        report = format_report(summarize(tracer))
        assert "runtime metrics (REPRO_METRICS):" in report
        assert "engine.events_processed: 41" in report
        assert "metrics=" in report  # per-category event counts

    def test_write_snapshot_round_trips(self, tmp_path):
        target = tmp_path / "metrics" / "snapshot.json"
        with metrics.enabled() as reg:
            reg.inc("engine.events_processed", 3)
            metrics.write_snapshot(target)
        data = json.loads(target.read_text())
        assert data["counters"] == {"engine.events_processed": 3}
        assert "wall_time_total_seconds" in data

"""Distributed sweep executor: leases, crash recovery, streaming folds.

The contract under test: a sweep spread over independent worker
processes through a spool directory finishes with results
bit-identical to the serial loop, no matter which process dies when —
a SIGKILLed worker's lease expires and is reclaimed, a restarted
coordinator recovers committed cells from the cache, a corrupt entry
or cell file quarantines instead of crashing — and aggregate mode
folds commits into bounded-memory sketches without ever building the
result matrix.
"""

import json
import os
import signal
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import distributed as dist
from repro.experiments.metrics import StreamingJain, jain_index
from repro.experiments.parallel import (
    TELEMETRY_RECORDS,
    SweepCell,
    result_to_dict,
    run_cell,
)
from repro.netsim.topology import PathConfig

PATHS = (
    PathConfig(capacity_mbps=8.0, rtt_ms=20.0, queuing_delay_ms=10.0),
    PathConfig(capacity_mbps=4.0, rtt_ms=40.0, queuing_delay_ms=20.0),
)


def _syn_cells(n, seed=1):
    """Cheap cells for the synthetic runner (no simulation executes)."""
    return [
        SweepCell(
            paths=(),
            protocol=("mpquic" if i % 2 else "quic"),
            initial_interface="wifi",
            file_size=100_000 + i,
            repetitions=1,
            base_seed=seed,
        )
        for i in range(n)
    ]


def _sim_cells(file_size=150_000):
    return [
        SweepCell(
            paths=PATHS,
            protocol=protocol,
            initial_interface=0,
            file_size=file_size,
            repetitions=1,
            base_seed=1,
        )
        for protocol in ("quic", "mpquic")
    ]


def _telemetry_records(spool):
    with open(spool.telemetry_path) as fh:
        return [json.loads(line) for line in fh]


class TestSpool:
    def test_init_creates_layout_and_tokens(self, tmp_path):
        cells = _syn_cells(5)
        spool = dist.init_spool(tmp_path / "s", cells, runner="synthetic")
        assert spool.keys == tuple(c.cache_key() for c in cells)
        assert sorted(os.listdir(spool.todo_dir)) == sorted(spool.keys)
        for key in spool.keys:
            assert spool.load_cell(key).cache_key() == key

    def test_reinit_same_plan_is_idempotent(self, tmp_path):
        cells = _syn_cells(3)
        first = dist.init_spool(tmp_path / "s", cells, runner="synthetic")
        again = dist.init_spool(tmp_path / "s", cells, runner="synthetic")
        assert again.keys == first.keys

    def test_different_plan_is_refused(self, tmp_path):
        dist.init_spool(tmp_path / "s", _syn_cells(3), runner="synthetic")
        with pytest.raises(dist.SpoolError, match="different sweep plan"):
            dist.init_spool(tmp_path / "s", _syn_cells(4), runner="synthetic")

    def test_missing_or_corrupt_manifest_raises(self, tmp_path):
        with pytest.raises(dist.SpoolError, match="no spool manifest"):
            dist.Spool.open(tmp_path / "nope")
        (tmp_path / "s").mkdir()
        (tmp_path / "s" / "manifest.json").write_text("{torn")
        with pytest.raises(dist.SpoolError, match="corrupt spool manifest"):
            dist.Spool.open(tmp_path / "s")

    def test_format_version_mismatch_raises(self, tmp_path):
        spool = dist.init_spool(
            tmp_path / "s", _syn_cells(1), runner="synthetic"
        )
        manifest = json.loads((spool.root / "manifest.json").read_text())
        manifest["format"] = -1
        (spool.root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(dist.SpoolError, match="format"):
            dist.Spool.open(spool.root)

    def test_unknown_runner_refused(self, tmp_path):
        with pytest.raises(ValueError, match="unknown runner"):
            dist.init_spool(tmp_path / "s", _syn_cells(1), runner="magic")


class TestLeaseProtocol:
    """Deterministic single-step checks; every call takes `now`."""

    def _spool(self, tmp_path, n=2, ttl=10.0, max_attempts=3):
        return dist.init_spool(
            tmp_path / "s", _syn_cells(n), runner="synthetic",
            ttl=ttl, max_attempts=max_attempts,
        )

    def test_claim_has_exactly_one_winner(self, tmp_path):
        spool = self._spool(tmp_path)
        key = spool.keys[0]
        assert dist.claim_cell(spool, key, "w0", now=100.0)
        assert not dist.claim_cell(spool, key, "w1", now=100.0)
        assert not (spool.todo_dir / key).exists()

    def test_fresh_lease_is_not_reclaimed(self, tmp_path):
        spool = self._spool(tmp_path, ttl=10.0)
        key = spool.keys[0]
        dist.claim_cell(spool, key, "w0", now=100.0)
        assert dist.reclaim_expired(spool, now=105.0, worker_id="w1") == 0
        assert not (spool.todo_dir / key).exists()

    def test_expired_lease_is_reclaimed_and_requeued(self, tmp_path):
        spool = self._spool(tmp_path, ttl=10.0)
        key = spool.keys[0]
        dist.claim_cell(spool, key, "w0", now=100.0)
        assert dist.reclaim_expired(spool, now=111.0, worker_id="w1") == 1
        assert (spool.todo_dir / key).exists()
        assert dist.failure_count(spool, key) == 1
        assert "lease expired" in dist.failure_errors(spool, key)[0]

    def test_renewal_extends_the_deadline(self, tmp_path):
        spool = self._spool(tmp_path, ttl=10.0)
        key = spool.keys[0]
        dist.claim_cell(spool, key, "w0", now=100.0)
        assert dist.renew_lease(spool, key, "w0", now=108.0)
        # Would have expired at 110 without the renewal (now 118).
        assert dist.reclaim_expired(spool, now=112.0, worker_id="w1") == 0

    def test_renewal_after_reclaim_reports_loss(self, tmp_path):
        spool = self._spool(tmp_path, ttl=10.0)
        key = spool.keys[0]
        dist.claim_cell(spool, key, "w0", now=100.0)
        dist.reclaim_expired(spool, now=111.0, worker_id="w1")
        assert not dist.renew_lease(spool, key, "w0", now=112.0)

    def test_claim_in_progress_gets_mtime_grace(self, tmp_path):
        # A lease file still holding the renamed token's content (the
        # claimer died between rename and stamp) must not read as
        # instantly expired — it gets mtime + TTL.
        spool = self._spool(tmp_path, ttl=10.0)
        key = spool.keys[0]
        lease = spool.leases_dir / f"{key}.w0.lease"
        os.rename(spool.todo_dir / key, lease)  # claim without stamp
        now = os.stat(lease).st_mtime
        owner, deadline = dist.read_lease(lease, now, spool.ttl)
        assert owner == "?"
        assert deadline == pytest.approx(now + spool.ttl)
        assert dist.reclaim_expired(spool, now=now, worker_id="w1") == 0
        # ... and one TTL later it is reclaimable like any dead lease.
        assert (
            dist.reclaim_expired(
                spool, now=now + spool.ttl + 1.0, worker_id="w1"
            )
            == 1
        )

    def test_exhausted_attempts_quarantine_on_reclaim(self, tmp_path):
        spool = self._spool(tmp_path, ttl=10.0, max_attempts=2)
        key = spool.keys[0]
        now = 100.0
        for _ in range(2):  # claim, die, reclaim — twice
            dist.claim_cell(spool, key, "w0", now=now)
            now += spool.ttl + 1.0
            dist.reclaim_expired(spool, now=now, worker_id="w1")
        assert dist.is_quarantined(spool, key)
        assert not (spool.todo_dir / key).exists()
        entries = dist.quarantine_entries(spool)
        assert [e["cache_key"] for e in entries] == [key]
        assert entries[0]["attempts"] == 2

    def test_ensure_tokens_requeues_lost_cells(self, tmp_path):
        spool = self._spool(tmp_path, n=3)
        lost = spool.keys[0]
        os.unlink(spool.todo_dir / lost)  # simulate a vanished token
        assert dist.ensure_tokens(spool) == 1
        assert (spool.todo_dir / lost).exists()
        assert dist.ensure_tokens(spool) == 0  # now a fixed point


class TestLeaseStateMachine:
    """Property test: random claim/renew/expire/reclaim/commit walks.

    Invariants, whatever the interleaving: expired foreign leases are
    always reclaimable; no cell is ever lost (every key stays
    committed, quarantined, queued or leased); and a key is never
    committed twice with different digests — any surviving cache entry
    equals the deterministic re-execution bit for bit.
    """

    OPS = ("claim", "renew", "expire", "reclaim", "commit", "fail")

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(OPS),
                st.integers(min_value=0, max_value=2),  # worker
                st.integers(min_value=0, max_value=3),  # cell
            ),
            max_size=40,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_walk_preserves_invariants(self, ops):
        with tempfile.TemporaryDirectory() as tmp:
            cells = _syn_cells(4)
            spool = dist.init_spool(
                Path(tmp) / "s", cells, runner="synthetic",
                ttl=1000.0, max_attempts=10_000,
            )
            keys = list(spool.keys)
            cache = spool.cache()
            now = 1_000_000.0
            for op, w, c in ops:
                worker = f"w{w}"
                key = keys[c]
                if op == "claim":
                    dist.claim_cell(spool, key, worker, now)
                elif op == "renew":
                    dist.renew_lease(spool, key, worker, now)
                elif op == "expire":
                    now += spool.ttl + 1.0
                elif op == "reclaim":
                    dist.reclaim_expired(spool, now, "reaper")
                elif op == "commit":
                    # Commits are legal even from a zombie whose lease
                    # was reclaimed: idempotent by construction.
                    cache.put(
                        spool.load_cell(key),
                        dist.synthetic_result(spool.load_cell(key)),
                    )
                    dist.release_lease(spool, key, worker)
                elif op == "fail":
                    lease = spool.leases_dir / f"{key}.{worker}.lease"
                    if lease.exists():
                        dist.record_failure(spool, key, "boom", worker)
                        dist.release_to_todo(spool, key, worker)

                # Inline invariant: no key ever unaccounted for.
                committed, quarantined = dist.terminal_keys(spool)
                queued = set(os.listdir(spool.todo_dir))
                leased = {
                    p.name.split(".", 1)[0]
                    for p in dist._lease_files(spool)
                }
                missing = (
                    set(keys) - committed - quarantined - queued - leased
                )
                # A committed key may legitimately lose its token; only
                # non-terminal keys must stay claimable or leased.
                assert not missing

            # Expired leases are always reclaimable: after a reclaim
            # pass no foreign lease is past its deadline.
            dist.reclaim_expired(spool, now, "reaper")
            for lease in dist._lease_files(spool):
                owner, deadline = dist.read_lease(lease, now, spool.ttl)
                assert deadline >= now or owner == "reaper"

            # Drain to the end: every cell reaches a terminal state.
            dist.ensure_tokens(spool)
            dist.worker_loop(spool.root, worker_id="drainer")
            committed, quarantined = dist.terminal_keys(spool)
            assert committed | quarantined == set(keys)
            assert not quarantined  # attempts bound is unreachable here

            # Never two different digests: whatever sequence of
            # (possibly duplicate) commits happened, each entry equals
            # the deterministic re-execution.
            for key in keys:
                stored = cache.get_key(key)
                expected = dist.synthetic_result(spool.load_cell(key))
                assert result_to_dict(stored) == result_to_dict(expected)


class TestWorkerDrain:
    def test_single_worker_drains_spool(self, tmp_path):
        cells = _syn_cells(20)
        spool = dist.init_spool(tmp_path / "s", cells, runner="synthetic")
        stats = dist.worker_loop(spool.root, worker_id="w0")
        assert stats.executed == 20
        committed, _ = dist.terminal_keys(spool)
        assert committed == set(spool.keys)
        records = _telemetry_records(spool)
        kinds = [r["record"] for r in records]
        assert set(kinds) <= set(TELEMETRY_RECORDS)
        assert kinds.count("worker_start") == 1
        assert kinds.count("worker_end") == 1
        # One terminal ``cell`` record per cell, in the front's shape.
        cell_records = [r for r in records if r["record"] == "cell"]
        assert sorted(r["cache_key"] for r in cell_records) == sorted(spool.keys)
        assert {r["status"] for r in cell_records} == {"executed"}
        assert all(r["attempts"] == 1 and r["worker_pid"] for r in cell_records)

    def test_corrupt_cell_file_quarantines_not_crashes(self, tmp_path):
        cells = _syn_cells(4)
        spool = dist.init_spool(
            tmp_path / "s", cells, runner="synthetic", max_attempts=2,
        )
        bad = spool.keys[1]
        (spool.cells_dir / f"{bad}.pkl").write_bytes(b"\x80notapickle")
        stats = dist.worker_loop(spool.root, worker_id="w0")
        assert stats.executed == 3
        assert stats.quarantined == 1
        committed, quarantined = dist.terminal_keys(spool)
        assert quarantined == {bad}
        assert committed == set(spool.keys) - {bad}
        entry = dist.quarantine_entries(spool)[0]
        assert entry["cache_key"] == bad
        assert entry["attempts"] >= 2

    def test_subprocess_workers_match_serial(self, tmp_path):
        cells = _sim_cells()
        serial = [run_cell(c) for c in cells]
        outcome = dist.coordinate(
            tmp_path / "s", cells, workers=2, collect="results",
            runner="simulation", ttl=10.0,
        )
        assert outcome.stats.complete
        assert outcome.stats.workers_spawned == 2
        assert [result_to_dict(r) for r in outcome.results] == [
            result_to_dict(r) for r in serial
        ]


class TestCrashRecovery:
    def test_sigkilled_worker_is_reclaimed_and_sweep_completes(
        self, tmp_path
    ):
        # A worker killed -9 mid-cell stops heartbeating; its lease
        # expires and a later worker reclaims and re-runs the cell.
        # Results must equal the serial run exactly.
        cells = _sim_cells(file_size=2_000_000)
        serial = [run_cell(c) for c in cells]
        spool = dist.init_spool(
            tmp_path / "s", cells, runner="simulation", ttl=1.0,
        )
        victim = dist.spawn_worker(spool, "victim")
        try:
            deadline = time.time() + 30.0
            while time.time() < deadline and not dist._lease_files(spool):
                time.sleep(0.02)
            assert dist._lease_files(spool), "worker never claimed a cell"
        finally:
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=10.0)
        stats = dist.worker_loop(spool.root, worker_id="rescuer")
        committed, quarantined = dist.terminal_keys(spool)
        assert committed == set(spool.keys)
        assert not quarantined
        outcome = dist.coordinate(
            spool.root, collect="results", workers=0,
        )
        assert outcome.stats.complete
        assert [result_to_dict(r) for r in outcome.results] == [
            result_to_dict(r) for r in serial
        ]
        # The kill is visible in the protocol's records: either the
        # rescuer reclaimed the victim's expired lease, or the victim
        # died before stamping and the token was simply re-claimed.
        assert stats.executed >= 1

    def test_coordinator_restart_recovers_bit_identically(self, tmp_path):
        cells = _syn_cells(30)
        spool = dist.init_spool(
            tmp_path / "s", cells, runner="synthetic", ttl=5.0,
        )
        # Phase 1: a worker commits part of the sweep, then everything
        # stops (the "coordinator crashed" state — it keeps no state,
        # so there is nothing else to lose).
        dist.worker_loop(spool.root, worker_id="w0", max_cells=10)
        committed_before, _ = dist.terminal_keys(spool)
        assert len(committed_before) == 10
        # Phase 2: a fresh coordinator against the same spool recovers
        # the 10 from cache and drives the remaining 20 to completion.
        outcome = dist.coordinate(
            spool.root, cells, workers=1, collect="results",
            runner="synthetic", ttl=5.0,
        )
        assert outcome.stats.complete
        assert outcome.stats.committed == 30
        for cell, got in zip(cells, outcome.results):
            assert result_to_dict(got) == result_to_dict(
                dist.synthetic_result(cell)
            )
        starts = [
            r for r in _telemetry_records(spool)
            if r["record"] == "sweep_start"
        ]
        assert len(starts) == 1  # phase 1 had no coordinator at all

    def test_corrupt_cache_entry_is_requeued_and_reexecuted(self, tmp_path):
        cells = _syn_cells(6)
        spool = dist.init_spool(
            tmp_path / "s", cells, runner="synthetic", ttl=5.0,
        )
        dist.worker_loop(spool.root, worker_id="w0")
        # Corrupt one committed entry on disk (torn write).
        key = spool.keys[2]
        entry_path = spool.root / "cache" / key[:2] / f"{key}.json"
        entry_path.write_text(entry_path.read_text()[:40])
        with pytest.warns(RuntimeWarning, match="corrupt sweep-cache"):
            outcome = dist.coordinate(
                spool.root, cells, workers=1, collect="results",
                runner="synthetic", ttl=5.0,
            )
        assert outcome.stats.complete
        assert outcome.stats.corrupt_entries == 1
        assert entry_path.with_name(entry_path.name + ".corrupt").exists()
        # The re-executed cell is bit-identical to what was lost.
        assert result_to_dict(outcome.results[2]) == result_to_dict(
            dist.synthetic_result(cells[2])
        )

    def test_worker_spawn_failure_degrades_to_inline(
        self, tmp_path, monkeypatch
    ):
        def refuse(spool, worker_id):
            raise PermissionError("no subprocesses here")

        monkeypatch.setattr(dist, "spawn_worker", refuse)
        cells = _syn_cells(5)
        with pytest.warns(RuntimeWarning, match="cannot spawn"):
            outcome = dist.coordinate(
                tmp_path / "s", cells, workers=2, collect="results",
                runner="synthetic", ttl=5.0,
            )
        assert outcome.stats.complete
        assert outcome.stats.committed == 5


class TestStreamingAggregation:
    def test_aggregate_mode_never_builds_the_matrix(self, tmp_path):
        cells = _syn_cells(120)
        spool = dist.init_spool(
            tmp_path / "s", cells, runner="synthetic", ttl=5.0,
        )
        dist.worker_loop(spool.root, worker_id="w0")
        streamed = []
        outcome = dist.coordinate(
            spool.root, cells, workers=0, collect="aggregate",
            runner="synthetic", on_result=lambda k, r: streamed.append(k),
        )
        assert outcome.stats.complete
        assert outcome.results == []  # no matrix, ever
        agg = outcome.aggregate
        assert agg is not None
        assert agg.cells == 120
        assert agg.completed == 120
        assert len(streamed) == 120
        # Bounded memory: stored sketch entries never exceed what was
        # inserted, and the summary exposes the evidence.
        summary = agg.summary()
        assert summary["sketch_entries"] <= 4 * 120 * 2
        assert set(summary["protocols"]) == {"quic", "mpquic"}

    def test_sketch_quantiles_match_exact_for_small_n(self, tmp_path):
        cells = _syn_cells(101)
        spool = dist.init_spool(
            tmp_path / "s", cells, runner="synthetic", ttl=5.0,
        )
        dist.worker_loop(spool.root, worker_id="w0")
        outcome = dist.coordinate(
            spool.root, cells, workers=0, collect="aggregate",
            runner="synthetic",
        )
        agg = outcome.aggregate
        times = sorted(
            dist.synthetic_result(c).transfer_time for c in cells
        )
        exact_median = times[len(times) // 2]
        assert agg.total.transfer_time.p50() == pytest.approx(
            exact_median, rel=0.02
        )

    def test_streaming_jain_matches_batch_jain(self):
        values = [float(v) for v in (1, 2, 3, 5, 8, 13, 21)]
        streaming = StreamingJain()
        for v in values:
            streaming.add(v)
        assert streaming.value() == pytest.approx(jain_index(values))
        # merge(): two partial folds equal one full fold.
        left, right = StreamingJain(), StreamingJain()
        for v in values[:3]:
            left.add(v)
        for v in values[3:]:
            right.add(v)
        left.merge(right)
        assert left.value() == pytest.approx(jain_index(values))
        assert StreamingJain().value() == 1.0

    def test_cdf_points_form_a_cdf(self, tmp_path):
        cells = _syn_cells(40)
        spool = dist.init_spool(
            tmp_path / "s", cells, runner="synthetic", ttl=5.0,
        )
        dist.worker_loop(spool.root, worker_id="w0")
        outcome = dist.coordinate(
            spool.root, cells, workers=0, collect="aggregate",
            runner="synthetic",
        )
        points = outcome.aggregate.cdf(points=21)
        assert len(points) == 21
        values = [v for v, _ in points]
        fracs = [f for _, f in points]
        assert values == sorted(values)
        assert fracs[0] == 0.0 and fracs[-1] == 1.0
        from repro.experiments.metrics import QuantileSketch

        assert QuantileSketch().cdf_points() == []
        with pytest.raises(ValueError):
            outcome.aggregate.cdf(points=1)


class TestCLI:
    def _drained_spool(self, tmp_path, n=8):
        cells = _syn_cells(n)
        spool = dist.init_spool(
            tmp_path / "s", cells, runner="synthetic", ttl=5.0,
        )
        return spool

    def test_worker_and_status_subcommands(self, tmp_path, capsys):
        spool = self._drained_spool(tmp_path)
        assert dist.main(["worker", str(spool.root), "--worker-id", "cli0"]) == 0
        out = capsys.readouterr().out
        assert "committed=8" in out
        assert dist.main(["status", str(spool.root)]) == 0
        out = capsys.readouterr().out
        assert "committed=8" in out and "queued=0" in out

    def test_coordinate_subcommand_writes_output(self, tmp_path, capsys):
        spool = self._drained_spool(tmp_path)
        dist.worker_loop(spool.root, worker_id="w0")
        output = tmp_path / "summary.json"
        code = dist.main([
            "coordinate", str(spool.root),
            "--collect", "aggregate", "--output", str(output),
        ])
        assert code == 0
        payload = json.loads(output.read_text())
        assert payload["stats"]["complete"] is True
        assert payload["stats"]["committed"] == 8
        assert payload["aggregate"]["cells"] == 8

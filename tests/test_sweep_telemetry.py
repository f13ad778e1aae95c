"""Streamed sweep telemetry: the JSONL sidecar and its invariants.

The load-bearing property: every sweep cell gets exactly one terminal
``cell`` record — cached, executed, or quarantined — so the sidecar's
cell count equals the sweep's cell count on every code path, including
crash-retry, quarantine and the spool-backed ``jobs > 1`` path, where
worker processes write their records into the same sidecar.
"""

import json
import threading
import warnings

from repro.expdesign.parameters import generate_scenarios
from repro.experiments.parallel import (
    TELEMETRY_RECORDS,
    ResultCache,
    SweepStats,
    emit,
    execute_cells,
    plan_class_sweep,
)


def _cells(count=1, file_size=100_000):
    scenarios = generate_scenarios("low-bdp-no-loss", count, seed=42)
    return plan_class_sweep(scenarios, file_size, False)


def _records(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def _cell_records(path):
    return [r for r in _records(path) if r["record"] == "cell"]


def _keys(cells):
    return sorted(c.cache_key() for c in cells)


class TestSidecar:
    def test_one_terminal_record_per_cell(self, tmp_path):
        cells = _cells()[:4]
        sidecar = tmp_path / "telemetry.jsonl"
        results = execute_cells(
            cells, jobs=1, cache=None, telemetry=sidecar
        )
        assert all(r is not None for r in results)
        records = _records(sidecar)
        assert records[0]["record"] == "sweep_start"
        assert records[0]["cells"] == len(cells)
        assert records[-1]["record"] == "sweep_end"
        cell_records = _cell_records(sidecar)
        assert sorted(r["cache_key"] for r in cell_records) == _keys(cells)
        for record in cell_records:
            assert record["status"] == "executed"
            assert record["wall_seconds"] > 0
            assert record["worker_pid"] > 0
            assert record["attempts"] == 1
            assert record["events"] > 0
            assert record["events_per_second"] > 0

    def test_spooled_sweep_keeps_one_terminal_record_per_cell(self, tmp_path):
        # jobs > 1: two cells come from the cache (the front's records),
        # the rest are executed by worker processes that append to the
        # very same sidecar; every line stays inside the one vocabulary.
        cells = _cells()
        cache = ResultCache(tmp_path / "cache")
        execute_cells(cells[:2], jobs=1, cache=cache, telemetry=None)
        sidecar = tmp_path / "telemetry.jsonl"
        stats = SweepStats()
        execute_cells(
            cells, jobs=2, cache=cache, stats=stats, telemetry=sidecar
        )
        records = _records(sidecar)
        assert {r["record"] for r in records} <= set(TELEMETRY_RECORDS)
        assert records[0]["record"] == "sweep_start"
        assert records[0]["cells"] == len(cells)
        assert records[-1]["record"] == "sweep_end"
        assert records[-1]["executed"] == stats.executed == len(cells) - 2
        cell_records = _cell_records(sidecar)
        assert sorted(r["cache_key"] for r in cell_records) == _keys(cells)
        statuses = [r["status"] for r in cell_records]
        assert statuses.count("cached") == 2
        assert statuses.count("executed") == len(cells) - 2
        kinds = [r["record"] for r in records]
        assert kinds.count("worker_start") == kinds.count("worker_end") == 2

    def test_cached_cells_get_cached_records(self, tmp_path):
        cells = _cells()[:4]
        cache = ResultCache(tmp_path / "cache")
        execute_cells(cells, jobs=1, cache=cache, telemetry=None)
        sidecar = tmp_path / "telemetry.jsonl"
        execute_cells(cells, jobs=1, cache=cache, telemetry=sidecar)
        cell_records = _cell_records(sidecar)
        assert len(cell_records) == len(cells)
        assert all(r["status"] == "cached" for r in cell_records)
        end = _records(sidecar)[-1]
        assert end["record"] == "sweep_end"
        assert end["cache_hits"] == len(cells)
        assert end["executed"] == 0

    def test_sweep_end_mirrors_stats(self, tmp_path):
        cells = _cells()[:3]
        sidecar = tmp_path / "telemetry.jsonl"
        stats = SweepStats()
        execute_cells(
            cells, jobs=1, cache=None, stats=stats, telemetry=sidecar
        )
        end = _records(sidecar)[-1]
        assert end["executed"] == stats.executed == len(cells)
        assert end["events_processed"] == stats.events_processed
        assert end["wall_seconds"] > 0

    def test_append_mode_accumulates_sweeps(self, tmp_path):
        cells = _cells()[:2]
        sidecar = tmp_path / "telemetry.jsonl"
        for _ in range(2):
            execute_cells(cells, jobs=1, cache=None, telemetry=sidecar)
        records = _records(sidecar)
        assert sum(r["record"] == "sweep_start" for r in records) == 2
        assert len(_cell_records(sidecar)) == 2 * len(cells)


class TestRetryAndQuarantine:
    def test_quarantined_cell_still_gets_one_terminal_record(
        self, tmp_path, monkeypatch
    ):
        cells = _cells()[:3]
        # Crash the middle cell on every attempt (no marker dir), in
        # process (jobs=1 + raise mode).
        monkeypatch.setenv(
            "REPRO_CHAOS_CRASH_KEY", cells[1].cache_key()[:16]
        )
        monkeypatch.setenv("REPRO_CHAOS_MODE", "raise")
        sidecar = tmp_path / "telemetry.jsonl"
        stats = SweepStats()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            results = execute_cells(
                cells, jobs=1, cache=None, stats=stats, retries=2,
                telemetry=sidecar,
            )
        assert results[1] is None
        assert results[0] is not None and results[2] is not None
        cell_records = _cell_records(sidecar)
        assert len(cell_records) == len(cells)
        by_key = {r["cache_key"]: r for r in cell_records}
        victim = by_key[cells[1].cache_key()]
        assert victim["status"] == "quarantined"
        assert victim["attempts"] == 3
        assert "chaos drill" in victim["error"]
        failures = [
            r for r in _records(sidecar) if r["record"] == "attempt_failed"
        ]
        assert [f["attempt"] for f in failures] == [1, 2, 3]
        assert {f["cache_key"] for f in failures} == {cells[1].cache_key()}
        end = _records(sidecar)[-1]
        assert end["quarantined"] == 1
        assert end["retries"] == 2

    def test_recovered_cell_reports_its_attempts(self, tmp_path, monkeypatch):
        cells = _cells()[:2]
        marker_dir = tmp_path / "markers"
        monkeypatch.setenv(
            "REPRO_CHAOS_CRASH_KEY", cells[0].cache_key()[:16]
        )
        monkeypatch.setenv("REPRO_CHAOS_MODE", "raise")
        monkeypatch.setenv("REPRO_CHAOS_MARKER_DIR", str(marker_dir))
        sidecar = tmp_path / "telemetry.jsonl"
        results = execute_cells(
            cells, jobs=1, cache=None, retries=2, telemetry=sidecar
        )
        assert all(r is not None for r in results)
        by_key = {r["cache_key"]: r for r in _cell_records(sidecar)}
        assert by_key[cells[0].cache_key()]["status"] == "executed"
        # crashed once, then recovered
        assert by_key[cells[0].cache_key()]["attempts"] == 2
        assert by_key[cells[1].cache_key()]["attempts"] == 1


class TestEnvironmentWiring:
    def test_env_knob_creates_sidecar(self, tmp_path, monkeypatch):
        sidecar = tmp_path / "sub" / "env_telemetry.jsonl"
        monkeypatch.setenv("REPRO_SWEEP_TELEMETRY", str(sidecar))
        cells = _cells()[:1]
        execute_cells(cells, jobs=1, cache=None)
        records = _records(sidecar)
        assert records[0]["record"] == "sweep_start"
        assert records[0]["cells"] == 1

    def test_silent_without_env_or_tty(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_SWEEP_TELEMETRY", raising=False)
        monkeypatch.delenv("REPRO_PROGRESS", raising=False)
        monkeypatch.chdir(tmp_path)
        # pytest's captured stderr is not a tty, so: fully silent.
        execute_cells(_cells()[:1], jobs=1, cache=None)
        assert capsys.readouterr().err == ""
        assert list(tmp_path.iterdir()) == []

    def test_progress_line_renders_eta(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_PROGRESS", "1")
        cells = _cells()[:2]
        execute_cells(
            cells, jobs=1, cache=None, telemetry=tmp_path / "t.jsonl"
        )
        text = capsys.readouterr().err
        assert f"[{len(cells)}/{len(cells)}]" in text
        assert "eta=" in text
        assert text.endswith("\n")  # final line is terminated
        # telemetry=None silences the progress line too.
        execute_cells(cells, jobs=1, cache=None, telemetry=None)
        assert capsys.readouterr().err == ""


class TestResultEquivalence:
    def test_telemetry_does_not_change_results(self, tmp_path):
        cells = _cells()[:4]
        with_telemetry = execute_cells(
            cells, jobs=1, cache=None, telemetry=tmp_path / "t.jsonl"
        )
        without = execute_cells(cells, jobs=1, cache=None, telemetry=None)
        assert [
            (r.transfer_time, r.goodput_bps) for r in with_telemetry
        ] == [(r.transfer_time, r.goodput_bps) for r in without]


class TestLineAtomicAppends:
    def test_threads_hammering_one_sidecar_never_interleave(self, tmp_path):
        # Concurrent writers sharing one sidecar (the sweep's worker
        # processes, or threads here) must never interleave partial
        # lines: each record is a single os.write on an O_APPEND
        # descriptor.  Long, distinctive payloads make any torn or
        # spliced line fail json parsing or the echo check.
        sidecar = tmp_path / "telemetry.jsonl"
        n_threads, per_thread = 8, 150

        def hammer(thread_no):
            payload = f"t{thread_no}-" + "x" * (400 + 37 * thread_no)
            for i in range(per_thread):
                emit(sidecar, {
                    "record": "attempt_failed",
                    "serial": thread_no * per_thread + i,
                    "error": payload,
                })

        threads = [
            threading.Thread(target=hammer, args=(t,))
            for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads)

        failed = _records(sidecar)  # json.loads raises on a torn line
        assert len(failed) == n_threads * per_thread
        assert sorted(r["serial"] for r in failed) == list(
            range(n_threads * per_thread)
        )
        for r in failed:
            thread_no = int(r["error"].split("-", 1)[0][1:])
            assert r["error"] == (
                f"t{thread_no}-" + "x" * (400 + 37 * thread_no)
            )

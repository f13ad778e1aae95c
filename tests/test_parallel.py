"""Tests for the sweep executor's front and its persistent result cache.

The contract under test: fanning a class sweep out over worker
processes (or serving it from the on-disk cache) must be invisible in
the results — the matrices are bit-identical to the serial loop over
``run_scenario_protocol_matrix`` — and that guarantee survives crashed
workers, raising cells and interrupted sweeps.
"""

import json
import pickle
import tempfile
import time
from dataclasses import replace

import pytest

from repro.expdesign.parameters import generate_scenarios
from repro.experiments import parallel
from repro.experiments.distributed import DEFAULT_LEASE_TTL
from repro.experiments.parallel import (
    ResultCache,
    SweepCell,
    SweepStats,
    cache_enabled,
    default_cache,
    execute_cells,
    execute_class_sweep,
    plan_class_sweep,
    resolve_jobs,
    resolve_retries,
    result_from_dict,
    result_to_dict,
    run_cell,
)
from repro.experiments.runner import run_scenario_protocol_matrix
from repro.netsim.topology import PathConfig
from repro.quic.config import QuicConfig

#: Two fast scenarios' worth of sweep (file small enough for quick runs).
SWEEP_SCENARIOS = 2
SWEEP_FILE_SIZE = 200_000

PATHS = (
    PathConfig(capacity_mbps=8.0, rtt_ms=20.0, queuing_delay_ms=10.0),
    PathConfig(capacity_mbps=4.0, rtt_ms=40.0, queuing_delay_ms=20.0),
)


def _cell(**overrides) -> SweepCell:
    base = dict(
        paths=PATHS,
        protocol="quic",
        initial_interface=0,
        file_size=SWEEP_FILE_SIZE,
        repetitions=1,
        base_seed=1,
    )
    base.update(overrides)
    return SweepCell(**base)


def _matrix_numbers(sweep):
    """Flatten a sweep to the comparable (time, goodput) matrix."""
    out = []
    for _scenario, matrix in sweep:
        for key in sorted(matrix):
            r = matrix[key]
            out.append((key, r.transfer_time, r.goodput_bps))
    return out


class TestPlan:
    def test_plan_order_matches_serial_loop(self):
        scenarios = generate_scenarios("low-bdp-no-loss", 2, seed=42)
        cells = plan_class_sweep(scenarios, SWEEP_FILE_SIZE, lossy=False)
        assert len(cells) == 2 * 4 * 2  # scenarios x protocols x interfaces
        # Scenario-major, protocol order as in the paper's matrix.
        assert [c.protocol for c in cells[:8]] == [
            "tcp", "tcp", "quic", "quic", "mptcp", "mptcp", "mpquic", "mpquic"
        ]
        assert [c.initial_interface for c in cells[:4]] == [0, 1, 0, 1]
        assert cells[0].base_seed == scenarios[0].index + 1
        assert cells[8].base_seed == scenarios[1].index + 1

    def test_lossy_classes_get_three_repetitions(self):
        scenarios = generate_scenarios("low-bdp-losses", 1, seed=42)
        cells = plan_class_sweep(scenarios, SWEEP_FILE_SIZE, lossy=True)
        assert all(c.repetitions == 3 for c in cells)


class TestEquivalence:
    def test_parallel_matches_serial_matrices(self):
        """The acceptance gate: identical transfer_time/goodput matrices."""
        scenarios = generate_scenarios(
            "low-bdp-no-loss", SWEEP_SCENARIOS, seed=42
        )
        serial = [
            (
                s,
                run_scenario_protocol_matrix(
                    s.paths, SWEEP_FILE_SIZE, lossy=False, base_seed=s.index + 1
                ),
            )
            for s in scenarios
        ]
        parallel = execute_class_sweep(
            scenarios, SWEEP_FILE_SIZE, lossy=False, jobs=2, cache=None
        )
        assert _matrix_numbers(serial) == _matrix_numbers(parallel)

    def test_cached_rerun_matches_and_executes_nothing(self, tmp_path):
        scenarios = generate_scenarios("low-bdp-no-loss", 1, seed=42)
        cache = ResultCache(tmp_path / "cache")
        cold_stats = SweepStats()
        cold = execute_class_sweep(
            scenarios, SWEEP_FILE_SIZE, lossy=False,
            jobs=1, cache=cache, stats=cold_stats,
        )
        warm_stats = SweepStats()
        warm = execute_class_sweep(
            scenarios, SWEEP_FILE_SIZE, lossy=False,
            jobs=1, cache=cache, stats=warm_stats,
        )
        assert cold_stats.executed == 8 and cold_stats.cache_hits == 0
        assert warm_stats.executed == 0 and warm_stats.cache_hits == 8
        assert _matrix_numbers(cold) == _matrix_numbers(warm)


class TestCacheKey:
    def test_hit_on_identical_config(self):
        assert _cell().cache_key() == _cell().cache_key()
        qc = QuicConfig()
        assert (
            _cell(quic_config=qc).cache_key()
            == _cell(quic_config=QuicConfig()).cache_key()
        )

    def test_miss_on_changed_seed(self):
        assert _cell(base_seed=1).cache_key() != _cell(base_seed=2).cache_key()

    def test_miss_on_changed_file_size(self):
        assert (
            _cell(file_size=100).cache_key() != _cell(file_size=200).cache_key()
        )

    def test_miss_on_changed_protocol_config(self):
        plain = _cell(quic_config=QuicConfig())
        tuned = _cell(quic_config=QuicConfig(scheduler="round_robin"))
        assert plain.cache_key() != tuned.cache_key()

    def test_miss_on_changed_paths(self):
        other = (PATHS[0], replace(PATHS[1], loss_percent=1.0))
        assert _cell().cache_key() != _cell(paths=other).cache_key()

    def test_miss_on_protocol_and_interface(self):
        assert _cell(protocol="tcp").cache_key() != _cell().cache_key()
        assert (
            _cell(initial_interface=1).cache_key() != _cell().cache_key()
        )

    def test_key_memo_stays_out_of_pickles_and_copies(self):
        # A cell hashes once per object, but a spooled cell must be
        # re-hashed for real on load (that re-hash is a verification),
        # and a modified copy must never inherit the original's key.
        cell = _cell()
        key = cell.cache_key()
        assert b"_key" not in pickle.dumps(cell)
        loaded = pickle.loads(pickle.dumps(cell))
        assert "_key" not in vars(loaded)
        assert loaded == cell and loaded.cache_key() == key
        assert replace(cell, base_seed=2).cache_key() != key


class TestCacheStore:
    def test_round_trip_preserves_result(self, tmp_path):
        cell = _cell()
        result = run_cell(cell)
        cache = ResultCache(tmp_path / "c")
        cache.put(cell, result)
        loaded = cache.get(cell)
        assert result_to_dict(loaded) == result_to_dict(result)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cell = _cell()
        cache = ResultCache(tmp_path / "c")
        cache.put(cell, run_cell(cell))
        path = cache._path(cell.cache_key())
        path.write_text("{not json")
        with pytest.warns(RuntimeWarning, match="corrupt sweep-cache"):
            assert cache.get(cell) is None

    def test_truncated_entry_warns_quarantines_and_recovers(self, tmp_path):
        # A torn write (killed worker, full disk) must read as a miss
        # with a RuntimeWarning — never an unhandled exception — and
        # the corrupt file is set aside so a fresh commit lands.
        cell = _cell()
        result = run_cell(cell)
        cache = ResultCache(tmp_path / "c")
        cache.put(cell, result)
        path = cache._path(cell.cache_key())
        raw = path.read_text()
        path.write_text(raw[: len(raw) // 2])
        with pytest.warns(RuntimeWarning, match="corrupt sweep-cache"):
            assert cache.get(cell) is None
        assert cache.corrupt == 1
        assert cache.corrupt_keys == [cell.cache_key()]
        assert path.with_name(path.name + ".corrupt").exists()
        assert not path.exists()
        # Recommit over the quarantined slot, then read back cleanly.
        cache.put(cell, result)
        assert result_to_dict(cache.get(cell)) == result_to_dict(result)

    def test_digest_mismatch_is_rejected(self, tmp_path):
        # An entry whose payload was tampered with (or half-overwritten
        # by a buggy writer) fails its content digest and is refused
        # even though it parses as valid JSON.
        cell = _cell()
        cache = ResultCache(tmp_path / "c")
        cache.put(cell, run_cell(cell))
        path = cache._path(cell.cache_key())
        data = json.loads(path.read_text())
        data["result"]["transfer_time"] += 1.0
        path.write_text(json.dumps(data))
        with pytest.warns(RuntimeWarning, match="digest mismatch"):
            assert cache.get(cell) is None
        assert cache.corrupt == 1

    def test_payload_carries_content_digest(self, tmp_path):
        cell = _cell()
        cache = ResultCache(tmp_path / "c")
        cache.put(cell, run_cell(cell))
        data = json.loads(cache._path(cell.cache_key()).read_text())
        assert data["digest"] == parallel.result_digest(data["result"])

    def test_entry_without_digest_is_rejected(self, tmp_path):
        # The content digest is mandatory: an entry without one cannot
        # be verified, so it is set aside like any other corrupt entry
        # and the cell re-runs.
        cell = _cell()
        cache = ResultCache(tmp_path / "c")
        cache.put(cell, run_cell(cell))
        path = cache._path(cell.cache_key())
        data = json.loads(path.read_text())
        del data["digest"]
        path.write_text(json.dumps(data))
        with pytest.warns(RuntimeWarning, match="no content digest"):
            assert cache.get(cell) is None
        assert cache.corrupt == 1
        assert path.with_name(path.name + ".corrupt").exists()

    def test_serialisation_round_trip(self):
        result = run_cell(_cell())
        again = result_from_dict(result_to_dict(result))
        assert again.transfer_time == result.transfer_time
        assert again.goodput_bps == result.goodput_bps
        assert again.rep_times == result.rep_times
        assert again.details == result.details


class TestEnvironmentKnobs:
    def test_repro_cache_off_bypasses(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        assert not cache_enabled()
        assert default_cache() is None

    def test_repro_cache_on_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert cache_enabled()
        assert default_cache() is not None

    def test_cache_off_executes_every_time(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "never"))
        cells = [_cell()]
        stats = SweepStats()
        execute_cells(cells, jobs=1, cache="auto", stats=stats)
        stats2 = SweepStats()
        execute_cells(cells, jobs=1, cache="auto", stats=stats2)
        assert stats.executed == 1 and stats2.executed == 1
        assert not (tmp_path / "never").exists()

    def test_resolve_jobs_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3
        assert resolve_jobs(5) == 5  # explicit wins over env
        monkeypatch.delenv("REPRO_JOBS")
        assert resolve_jobs() >= 1

    def test_jobs_floor_is_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1

    def test_non_integer_jobs_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "auto")
        with pytest.raises(ValueError, match="REPRO_JOBS.*'auto'"):
            resolve_jobs()
        assert resolve_jobs(2) == 2  # an explicit count never reads it

    def test_non_integer_retries_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "2.5")
        with pytest.raises(ValueError, match="REPRO_RETRIES.*'2.5'"):
            resolve_retries()


class TestProcessPool:
    """``jobs > 1``: worker processes over a temporary spool."""

    def test_pool_execution_matches_inprocess(self, tmp_path, monkeypatch):
        """Same cells through real worker processes: identical results,
        and the temporary spool is gone afterwards."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        cells = [
            _cell(protocol=p, initial_interface=i)
            for p in ("tcp", "quic") for i in (0, 1)
        ]
        inproc = execute_cells(cells, jobs=1, cache=None)
        stats = SweepStats()
        pooled = execute_cells(cells, jobs=2, cache=None, stats=stats)
        assert [result_to_dict(r) for r in inproc] == [
            result_to_dict(r) for r in pooled
        ]
        assert stats.executed == 4 and stats.workers_spawned == 2
        assert list(tmp_path.iterdir()) == []  # no spool left behind

    def test_duplicated_cell_fills_both_slots(self, tmp_path):
        """A plan naming one cell twice spools it once and returns it
        in both slots (and commits it to the caller's cache)."""
        cells = [_cell(), _cell(protocol="tcp"), _cell()]
        cache = ResultCache(tmp_path / "cache")
        stats = SweepStats()
        results = execute_cells(cells, jobs=2, cache=cache, stats=stats)
        assert all(r is not None for r in results)
        assert result_to_dict(results[0]) == result_to_dict(results[2])
        assert stats.executed == 2 and stats.cache_misses == 3
        assert cache.get(cells[0]) is not None


def _arm_chaos(monkeypatch, victim, mode="raise", marker_dir=None):
    """Make ``victim`` crash via the chaos drill hooks.

    ``mode="raise"`` raises in-process (usable at ``jobs=1``); the
    default ``os._exit`` variant kills the worker — only safe under
    ``jobs > 1``.  A ``marker_dir`` limits each cell to one crash.
    """
    monkeypatch.setenv("REPRO_CHAOS_CRASH_KEY", victim.cache_key()[:16])
    monkeypatch.setenv("REPRO_CHAOS_MODE", mode)
    if marker_dir is not None:
        monkeypatch.setenv("REPRO_CHAOS_MARKER_DIR", str(marker_dir))
    else:
        monkeypatch.delenv("REPRO_CHAOS_MARKER_DIR", raising=False)


class TestCrashIsolation:
    def test_raising_cell_is_retried_to_success(self, monkeypatch, tmp_path):
        cells = [_cell(), _cell(protocol="tcp")]
        clean = execute_cells(cells, jobs=1, cache=None)
        stats = SweepStats()
        _arm_chaos(monkeypatch, cells[0], marker_dir=tmp_path / "markers")
        results = execute_cells(cells, jobs=1, cache=None, stats=stats)
        assert stats.retries == 1 and stats.quarantined == 0
        assert [result_to_dict(r) for r in results] == [
            result_to_dict(r) for r in clean
        ]

    def test_repeated_failure_is_quarantined(self, monkeypatch):
        cells = [_cell(), _cell(protocol="tcp")]
        stats = SweepStats()
        _arm_chaos(monkeypatch, cells[0])  # crashes on every attempt
        with pytest.warns(RuntimeWarning, match="quarantined"):
            results = execute_cells(
                cells, jobs=1, cache=None, stats=stats, retries=1
            )
        assert results[0] is None and results[1] is not None
        assert stats.quarantined == 1 and stats.retries == 1
        assert len(stats.quarantine) == 1
        entry = stats.quarantine[0]
        assert entry["cache_key"] == cells[0].cache_key()
        assert entry["attempts"] == 2 and len(entry["errors"]) == 2
        assert "chaos drill" in entry["errors"][0]

    def test_quarantine_report_written_even_when_clean(
        self, monkeypatch, tmp_path
    ):
        report = tmp_path / "quarantine.json"
        monkeypatch.setenv("REPRO_QUARANTINE_FILE", str(report))
        execute_cells([_cell(protocol="tcp")], jobs=1, cache=None)
        payload = json.loads(report.read_text())
        assert payload["quarantined"] == []
        assert payload["quarantined_cells"] == 0

    def test_dead_worker_recovers_bit_identical(self, monkeypatch, tmp_path):
        """A worker killed mid-cell (``os._exit(17)``) loses only its
        own cell: the coordinator sees the child exit, takes its lease
        back at once — no lease TTL is waited out — and the final matrix
        matches the clean serial run."""
        cells = [
            _cell(protocol=p, initial_interface=i)
            for p in ("tcp", "quic") for i in (0, 1)
        ]
        clean = execute_cells(cells, jobs=1, cache=None)
        stats = SweepStats()
        _arm_chaos(
            monkeypatch, cells[1], mode="exit",
            marker_dir=tmp_path / "markers",
        )
        t0 = time.monotonic()
        results = execute_cells(cells, jobs=2, cache=None, stats=stats)
        assert time.monotonic() - t0 < DEFAULT_LEASE_TTL / 2
        assert stats.reclaimed >= 1 and stats.retries >= 1
        assert stats.workers_spawned >= 3  # the dead worker was replaced
        assert stats.quarantined == 0
        assert [result_to_dict(r) for r in results] == [
            result_to_dict(r) for r in clean
        ]

    def test_interrupted_sweep_resumes_from_cache(self, monkeypatch, tmp_path):
        """Cells finished before a failure are served from disk on the
        next invocation; only the failed cell re-executes."""
        cells = [_cell(), _cell(protocol="tcp")]
        clean = execute_cells(cells, jobs=1, cache=None)
        cache = ResultCache(tmp_path / "cache")
        _arm_chaos(monkeypatch, cells[0])
        with pytest.warns(RuntimeWarning, match="quarantined"):
            first = execute_cells(
                cells, jobs=1, cache=cache, retries=0
            )
        assert first[0] is None and first[1] is not None
        # The "interruption" is over: disarm chaos and resume.
        monkeypatch.delenv("REPRO_CHAOS_CRASH_KEY")
        stats = SweepStats()
        resumed = execute_cells(cells, jobs=1, cache=cache, stats=stats)
        assert stats.cache_hits == 1 and stats.executed == 1
        assert [result_to_dict(r) for r in resumed] == [
            result_to_dict(r) for r in clean
        ]

    def test_resolve_retries_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "5")
        assert resolve_retries() == 5
        assert resolve_retries(1) == 1  # explicit wins over env
        monkeypatch.delenv("REPRO_RETRIES")
        assert resolve_retries() == parallel.DEFAULT_RETRIES
        assert resolve_retries(-3) == 0


class TestQuarantineHygiene:
    def _entry(self, key, attempts, errors):
        return {
            "cache_key": key,
            "protocol": "quic",
            "initial_interface": 0,
            "base_seed": 1,
            "attempts": attempts,
            "errors": errors,
        }

    def test_dedupe_keeps_one_entry_per_key_latest_wins(self):
        entries = [
            self._entry("k1", 1, ["boom"]),
            self._entry("k2", 1, ["other"]),
            self._entry("k1", 3, ["boom", "boom again"]),
        ]
        deduped = parallel.dedupe_quarantine(entries)
        assert [e["cache_key"] for e in deduped] == ["k1", "k2"]
        k1 = deduped[0]
        assert k1["attempts"] == 3  # the later entry won
        assert k1["errors"] == ["boom", "boom again"]

    def test_dedupe_caps_error_history(self):
        errors = [f"attempt {i}" for i in range(20)]
        deduped = parallel.dedupe_quarantine(
            [self._entry("k", 20, errors)]
        )
        kept = deduped[0]["errors"]
        assert len(kept) == parallel.MAX_QUARANTINE_ERRORS
        assert kept[-1] == "attempt 19"  # most recent survive

    def test_clip_error_bounds_traceback_length(self):
        long = "x" * (parallel.MAX_QUARANTINE_ERROR_CHARS * 3)
        clipped = parallel.clip_error(long)
        assert len(clipped) < parallel.MAX_QUARANTINE_ERROR_CHARS + 100
        assert "clipped" in clipped
        short = "y" * 10
        assert parallel.clip_error(short) == short

    def test_report_file_is_deduplicated(self, tmp_path):
        report = tmp_path / "quarantine.json"
        parallel.write_quarantine_report(
            report,
            [
                self._entry("k", 1, ["a"]),
                self._entry("k", 2, ["a", "b"]),
            ],
        )
        payload = json.loads(report.read_text())
        assert payload["quarantined_cells"] == 1
        assert len(payload["quarantined"]) == 1
        assert payload["quarantined"][0]["attempts"] == 2

    def test_backoff_delay_is_bounded(self):
        delays = [parallel.backoff_delay(r) for r in range(1, 12)]
        assert delays[0] == parallel.RETRY_BACKOFF_BASE
        assert all(
            d <= parallel.RETRY_BACKOFF_MAX for d in delays
        )
        assert delays == sorted(delays)

"""Benchmark harness: emission, schema, and regression comparison."""

import json

import pytest

from repro.bench import BENCHMARKS, compare_benchmarks, run_benchmarks

REQUIRED_KEYS = {"name", "wall_s", "ops", "ops_per_s", "peak_rss_kb", "quick"}


class TestRunBenchmarks:
    def test_emits_json_with_schema(self, tmp_path):
        records = run_benchmarks(
            names=["engine_drain", "tlb_lookup"], quick=True, repeat=1,
            output_dir=tmp_path,
        )
        for name in ("engine_drain", "tlb_lookup"):
            path = tmp_path / f"BENCH_{name}.json"
            assert path.exists()
            record = json.loads(path.read_text())
            assert REQUIRED_KEYS <= set(record)
            assert record["name"] == name
            assert record["wall_s"] > 0
            assert record["ops_per_s"] > 0
            assert record["peak_rss_kb"] > 0
            assert record == records[name]

    def test_unknown_benchmark_rejected(self, tmp_path):
        with pytest.raises(KeyError):
            run_benchmarks(names=["nope"], output_dir=tmp_path)

    def test_registry_has_micro_and_macro(self):
        assert {"engine_drain", "tlb_lookup", "irmb_probe_merge"} <= set(BENCHMARKS)
        assert any(name.startswith("macro_") for name in BENCHMARKS)


class TestCompareBenchmarks:
    def _record(self, name, wall_s, quick=True):
        return {
            "name": name, "wall_s": wall_s, "ops": 100,
            "ops_per_s": 100 / wall_s, "peak_rss_kb": 1, "quick": quick,
        }

    def _write_baseline(self, tmp_path, record):
        (tmp_path / f"BENCH_{record['name']}.json").write_text(json.dumps(record))

    def test_within_threshold_passes(self, tmp_path):
        self._write_baseline(tmp_path, self._record("engine_drain", 1.0))
        current = {"engine_drain": self._record("engine_drain", 1.05)}
        assert compare_benchmarks(current, tmp_path, threshold=0.10) == []

    def test_regression_detected(self, tmp_path):
        self._write_baseline(tmp_path, self._record("engine_drain", 1.0))
        current = {"engine_drain": self._record("engine_drain", 1.25)}
        messages = compare_benchmarks(current, tmp_path, threshold=0.10)
        assert len(messages) == 1
        assert "engine_drain" in messages[0]

    def test_missing_baseline_is_not_a_failure(self, tmp_path):
        current = {"engine_drain": self._record("engine_drain", 1.0)}
        assert compare_benchmarks(current, tmp_path) == []

    def test_mismatched_sizing_skipped(self, tmp_path):
        self._write_baseline(tmp_path, self._record("engine_drain", 0.1, quick=False))
        current = {"engine_drain": self._record("engine_drain", 1.0, quick=True)}
        assert compare_benchmarks(current, tmp_path) == []

    @pytest.mark.parametrize("speedup, regressed", [(2.9, True), (3.1, False)])
    def test_replay_ratio_floor(self, tmp_path, speedup, regressed):
        """A record with vs_event_speedup is gated on that in-process
        ratio alone: 10x its baseline's wall time passes above the floor."""
        self._write_baseline(tmp_path, self._record("fastpath_batch_replay", 0.1))
        record = self._record("fastpath_batch_replay", 1.0)
        record["vs_event_speedup"] = speedup
        messages = compare_benchmarks({"fastpath_batch_replay": record}, tmp_path)
        assert bool(messages) == regressed


class TestCliIntegration:
    def test_bench_subcommand_quick(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "bench", "--quick", "--repeat", "1",
            "--only", "engine_drain", "--output-dir", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "BENCH_engine_drain.json").exists()

    def test_bench_compare_regression_exit_code(self, tmp_path):
        from repro.cli import main

        out1 = tmp_path / "base"
        code = main([
            "bench", "--quick", "--repeat", "1",
            "--only", "engine_drain", "--output-dir", str(out1),
        ])
        assert code == 0
        # Forge an impossibly fast baseline: the live run must "regress".
        record = json.loads((out1 / "BENCH_engine_drain.json").read_text())
        record["wall_s"] = record["wall_s"] / 100
        (out1 / "BENCH_engine_drain.json").write_text(json.dumps(record))
        code = main([
            "bench", "--quick", "--repeat", "1", "--only", "engine_drain",
            "--output-dir", str(tmp_path / "cur"), "--compare", str(out1),
        ])
        assert code == 1


class TestAdvisoryDeltas:
    """ops/s and peak-RSS deltas are printed next to the wall-time
    verdict but never gate: only wall_s can fail a comparison."""

    def _record(self, name, wall_s, ops_per_s=None, rss=None, quick=True):
        return {
            "name": name, "wall_s": wall_s, "ops": 100,
            "ops_per_s": ops_per_s if ops_per_s is not None else 100 / wall_s,
            "peak_rss_kb": rss if rss is not None else 1, "quick": quick,
        }

    def _write_baseline(self, tmp_path, record):
        (tmp_path / f"BENCH_{record['name']}.json").write_text(json.dumps(record))

    def test_deltas_shown_on_compare_line(self, tmp_path, capsys):
        self._write_baseline(
            tmp_path, self._record("engine_drain", 1.0, ops_per_s=100.0, rss=1000)
        )
        current = {
            "engine_drain": self._record(
                "engine_drain", 1.0, ops_per_s=150.0, rss=1100
            )
        }
        assert compare_benchmarks(current, tmp_path, threshold=0.10) == []
        out = capsys.readouterr().out
        assert "ops/s +50.0%" in out
        assert "rss +10.0%" in out

    def test_deltas_never_gate(self, tmp_path):
        """A 10x throughput collapse and 10x RSS blow-up with flat wall
        time must still pass."""
        self._write_baseline(
            tmp_path, self._record("engine_drain", 1.0, ops_per_s=1000.0, rss=100)
        )
        current = {
            "engine_drain": self._record(
                "engine_drain", 1.0, ops_per_s=100.0, rss=1000
            )
        }
        assert compare_benchmarks(current, tmp_path, threshold=0.10) == []

    def test_regression_line_still_carries_deltas(self, tmp_path, capsys):
        self._write_baseline(
            tmp_path, self._record("engine_drain", 1.0, ops_per_s=100.0, rss=1000)
        )
        current = {
            "engine_drain": self._record(
                "engine_drain", 2.0, ops_per_s=50.0, rss=1000
            )
        }
        messages = compare_benchmarks(current, tmp_path, threshold=0.10)
        assert len(messages) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "ops/s -50.0%" in out

    def test_old_baseline_without_fields_is_tolerated(self, tmp_path, capsys):
        """Baselines written before these fields existed produce no
        advisory bracket rather than a crash."""
        base = {"name": "engine_drain", "wall_s": 1.0, "quick": True}
        self._write_baseline(tmp_path, base)
        current = {"engine_drain": self._record("engine_drain", 1.0)}
        assert compare_benchmarks(current, tmp_path, threshold=0.10) == []
        out = capsys.readouterr().out
        assert "[" not in out

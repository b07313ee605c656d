"""Sweep journal: durable appends, torn-line tolerance, replay, and
the cross-host merge powering distributed --resume-sweep."""

import json

import pytest

from repro.experiments.journal import (
    SweepJournal,
    host_journal_path,
    journal_path,
    merged_replay,
    merged_terminal_keys,
)


class TestJournalWrites:
    def test_records_are_jsonl(self, tmp_path):
        journal = SweepJournal(tmp_path / "s.jsonl")
        journal.record("done", "k1", app="PR", attempt=1)
        journal.record("failed", "k2", reason="boom", attempt=1)
        journal.close()
        lines = (tmp_path / "s.jsonl").read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {"app": "PR", "attempt": 1, "event": "done", "key": "k1"}

    def test_appends_across_reopens(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with SweepJournal(path) as journal:
            journal.record("failed", "k", attempt=1)
        with SweepJournal(path) as journal:
            journal.record("done", "k", attempt=2)
        assert len(path.read_text().splitlines()) == 2

    def test_creates_parent_directories(self, tmp_path):
        journal = SweepJournal(tmp_path / "a" / "b" / "s.jsonl")
        journal.record("done", "k")
        journal.close()
        assert (tmp_path / "a" / "b" / "s.jsonl").exists()


class TestJournalReplay:
    def test_last_record_wins(self, tmp_path):
        journal = SweepJournal(tmp_path / "s.jsonl")
        journal.record("failed", "k", attempt=1)
        journal.record("failed", "k", attempt=2)
        journal.record("done", "k", attempt=3)
        journal.close()
        state = journal.replay()
        assert state["k"]["event"] == "done"
        assert state["k"]["attempt"] == 3

    def test_terminal_keys_excludes_retryable_failures(self, tmp_path):
        journal = SweepJournal(tmp_path / "s.jsonl")
        journal.record("done", "a")
        journal.record("quarantined", "b", reason="poison")
        journal.record("failed", "c", attempt=1)
        journal.close()
        assert journal.terminal_keys() == {"a": "done", "b": "quarantined"}

    def test_torn_trailing_line_skipped(self, tmp_path):
        """A supervisor SIGKILLed mid-append leaves a torn last line;
        replay must keep everything before it."""
        path = tmp_path / "s.jsonl"
        journal = SweepJournal(path)
        journal.record("done", "a")
        journal.record("done", "b")
        journal.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"event": "done", "key": "c", "trunc')
        state = SweepJournal(path).replay()
        assert set(state) == {"a", "b"}

    def test_garbage_lines_skipped(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('not json\n{"event": "done", "key": "a"}\n[1,2]\n42\n')
        assert SweepJournal(path).terminal_keys() == {"a": "done"}

    def test_missing_file_is_empty(self, tmp_path):
        journal = SweepJournal(tmp_path / "absent.jsonl")
        assert journal.replay() == {}
        assert journal.terminal_keys() == {}


class TestJournalPath:
    def test_lives_next_to_cache(self, tmp_path):
        path = journal_path(tmp_path, "fig11_overall_performance")
        assert path == tmp_path / "journals" / "fig11_overall_performance.jsonl"

    def test_host_journal_is_a_sibling(self, tmp_path):
        canonical = journal_path(tmp_path, "sweep")
        hosted = host_journal_path(tmp_path, "sweep", "h1")
        assert hosted.parent == canonical.parent
        assert hosted.name == "sweep.host-h1.jsonl"


class TestFsyncModes:
    def test_batch_is_default_and_flushes_per_line(self, tmp_path):
        path = tmp_path / "s.jsonl"
        journal = SweepJournal(path)
        assert journal.fsync_mode == "batch"
        journal.record("done", "a")
        # Flushed (readable by another opener) even before sync/close.
        assert '"key":"a"' in path.read_text()
        journal.sync()
        journal.close()

    def test_always_mode_accepted(self, tmp_path):
        journal = SweepJournal(tmp_path / "s.jsonl", fsync="always")
        assert journal.fsync_mode == "always"
        journal.record("done", "a")
        journal.close()
        assert journal.terminal_keys() == {"a": "done"}

    def test_unknown_mode_raises(self, tmp_path):
        with pytest.raises(ValueError, match="paranoid"):
            SweepJournal(tmp_path / "s.jsonl", fsync="paranoid")

    def test_stamp_adds_wallclock_ts(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with SweepJournal(path, stamp=True) as journal:
            journal.record("done", "a")
        entry = json.loads(path.read_text())
        assert isinstance(entry["ts"], float)


class TestMergedReplay:
    """Cross-host merge: coordinator journal + per-host siblings fold
    last-writer-wins by ``ts``, powering distributed --resume-sweep."""

    def _write(self, path, records):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")

    def test_merges_overlapping_host_journals_by_ts(self, tmp_path):
        canonical = journal_path(tmp_path, "sweep")
        self._write(canonical, [{"event": "failed", "key": "a", "ts": 1.0}])
        self._write(
            host_journal_path(tmp_path, "sweep", "h0"),
            [{"event": "done", "key": "a", "ts": 3.0, "attempt": 2}],
        )
        self._write(
            host_journal_path(tmp_path, "sweep", "h1"),
            [{"event": "failed", "key": "a", "ts": 2.0}],
        )
        state = merged_replay(canonical)
        assert state["a"]["event"] == "done"
        assert state["a"]["attempt"] == 2
        assert merged_terminal_keys(canonical) == {"a": "done"}

    def test_disjoint_host_journals_union(self, tmp_path):
        canonical = journal_path(tmp_path, "sweep")
        self._write(
            host_journal_path(tmp_path, "sweep", "h0"),
            [{"event": "done", "key": "a", "ts": 1.0}],
        )
        self._write(
            host_journal_path(tmp_path, "sweep", "h1"),
            [{"event": "done", "key": "b", "ts": 1.5}],
        )
        assert merged_terminal_keys(canonical) == {"a": "done", "b": "done"}

    def test_quarantine_beats_straggling_done(self, tmp_path):
        """A dead host's last-breath done (later ts) must not resurrect
        a key the coordinator already quarantined."""
        canonical = journal_path(tmp_path, "sweep")
        self._write(
            canonical,
            [{"event": "quarantined", "key": "a", "ts": 2.0, "reason": "host died"}],
        )
        self._write(
            host_journal_path(tmp_path, "sweep", "h0"),
            [{"event": "done", "key": "a", "ts": 9.0}],
        )
        state = merged_replay(canonical)
        assert state["a"]["event"] == "quarantined"
        assert merged_terminal_keys(canonical) == {"a": "quarantined"}

    def test_torn_line_in_host_journal_skipped(self, tmp_path):
        canonical = journal_path(tmp_path, "sweep")
        self._write(canonical, [{"event": "done", "key": "a", "ts": 1.0}])
        hosted = host_journal_path(tmp_path, "sweep", "h0")
        hosted.parent.mkdir(parents=True, exist_ok=True)
        hosted.write_text(
            json.dumps({"event": "done", "key": "b", "ts": 2.0})
            + '\n{"event": "done", "key": "c", "ts": 3.0, "tr'
        )
        assert merged_terminal_keys(canonical) == {"a": "done", "b": "done"}

    def test_unstamped_records_sort_before_stamped(self, tmp_path):
        """Legacy single-host records (no ts) keep file order among
        themselves and lose to any stamped record for the same key."""
        canonical = journal_path(tmp_path, "sweep")
        self._write(
            canonical,
            [{"event": "failed", "key": "a"}, {"event": "done", "key": "b"}],
        )
        self._write(
            host_journal_path(tmp_path, "sweep", "h0"),
            [{"event": "done", "key": "a", "ts": 0.5}],
        )
        state = merged_replay(canonical)
        assert state["a"]["event"] == "done"
        assert state["b"]["event"] == "done"

    def test_missing_canonical_still_merges_hosts(self, tmp_path):
        canonical = journal_path(tmp_path, "sweep")
        self._write(
            host_journal_path(tmp_path, "sweep", "h0"),
            [{"event": "done", "key": "a", "ts": 1.0}],
        )
        assert merged_terminal_keys(canonical) == {"a": "done"}

    def test_single_file_matches_plain_replay(self, tmp_path):
        path = tmp_path / "solo.jsonl"
        with SweepJournal(path) as journal:
            journal.record("failed", "a", attempt=1)
            journal.record("done", "a", attempt=2)
            journal.record("quarantined", "b", reason="poison")
        assert merged_replay(path) == SweepJournal(path).replay()

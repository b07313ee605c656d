"""Differential fuzz harness: the adversarial arm of replay-tier
equivalence.

Three layers of checking:

* a short random campaign must come back clean (the real gate), and a
  known residual divergence is pinned so a fix shows up as a flip;
* a *sabotaged* kernel must be caught, proving the harness can actually
  see a divergence (a fuzzer that never fails is indistinguishable from
  a fuzzer that never looks);
* the repro-spec plumbing (JSON round-trip, CLI --spec replay) must
  work, because a fuzz failure is only useful if it can be replayed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.experiments.fuzz import (
    FuzzSpec,
    check_spec,
    fuzz,
    random_specs,
    run_variants,
)
from repro.gpu.fastpath import FastPath

REPO = Path(__file__).resolve().parents[2]


class TestCampaign:
    def test_short_campaign_is_clean(self):
        failures = fuzz(runs=10, master_seed=2026)
        assert failures == []

    def test_specs_are_deterministic(self):
        a = list(random_specs(8, master_seed=5))
        b = list(random_specs(8, master_seed=5))
        assert a == b

    def test_specs_cover_degenerate_corners(self):
        specs = list(random_specs(200, master_seed=1))
        assert any(s.accesses == 0 for s in specs), "empty lanes never drawn"
        assert any(s.accesses == 1 for s in specs), "single access never drawn"
        assert any(s.batch_limit == 1 for s in specs)
        assert any(s.num_gpus == 8 for s in specs)
        assert any(s.inflight_per_cu == 1 for s in specs)


class TestDetection:
    """The harness must detect a broken kernel, not just pass clean ones."""

    def test_sabotaged_kernel_is_caught(self, monkeypatch):
        real = FastPath._commit

        def sabotaged(self, rec, issues, esc, cap):
            count = real(self, rec, issues, esc, cap)
            if count:
                rec.lane.gpu.instructions += 1  # drift one counter
            return count

        monkeypatch.setattr(FastPath, "_commit", sabotaged)
        # Private-only pages: the lanes park and replay heavily, so the
        # sabotage is guaranteed to fire.
        spec = FuzzSpec(seed=123, num_gpus=2, accesses=200,
                        shared_pages=0, private_pages=4)
        report = check_spec(spec)
        assert report is not None
        assert "repro: repro fuzz --spec" in report
        assert spec.to_json() in report

    def test_sabotage_report_names_the_tier(self, monkeypatch):
        real = FastPath._commit

        def sabotaged(self, rec, issues, esc, cap):
            count = real(self, rec, issues, esc, cap)
            rec.lane.gpu._n_local.value += count  # double-count locals
            return count

        monkeypatch.setattr(FastPath, "_commit", sabotaged)
        report = check_spec(FuzzSpec(seed=7, num_gpus=2, accesses=200,
                                     shared_pages=0, private_pages=4))
        assert report is not None and "fastpath vs event" in report


class TestSpecPlumbing:
    def test_json_round_trip(self):
        spec = FuzzSpec(seed=99, num_gpus=4, lanes=3, accesses=30,
                        scheme="broadcast", batch_limit=2)
        assert FuzzSpec.from_json(spec.to_json()) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown FuzzSpec fields"):
            FuzzSpec.from_json('{"seed": 1, "bogus": 2}')

    def test_variants_include_reference_tier(self):
        results = run_variants(FuzzSpec(seed=4, num_gpus=1, accesses=8))
        assert set(results) == {"event", "fastpath"}

    def test_cli_spec_replay(self, capsys):
        spec = FuzzSpec(seed=11, num_gpus=2, accesses=20)
        rc = cli_main(["fuzz", "--spec", spec.to_json()])
        out = capsys.readouterr().out
        assert rc == 0 and "all replay tiers agree" in out

    def test_cli_campaign(self, capsys):
        rc = cli_main(["fuzz", "--runs", "3", "--seed", "8", "--quiet"])
        out = capsys.readouterr().out
        assert rc == 0 and "fuzz campaign clean: 3 cases" in out


class TestKnownDivergence:
    @pytest.mark.xfail(strict=True, reason=(
        "same-instant resume sequencing: a lane unparked by the "
        "discovery pass schedules its wake-up at unpark time, so at a "
        "same-cycle tie (GPUs 4 and 6 touch one page at cycle 11670) it "
        "wakes before the sibling the event path woke first and the two "
        "swap places in the migration-gate queue "
        "(migration_waiting_total 24839 vs 24840)"
    ))
    def test_same_instant_tie_order(self):
        spec = FuzzSpec(seed=183198011, num_gpus=8, lanes=1, accesses=60,
                        shared_pages=24, private_pages=8, scheme="idyll",
                        batch_limit=4096, inflight_per_cu=1, sim_seed=11)
        assert check_spec(spec) is None

    # The divergent specs `repro fuzz --runs 300` reports for seeds 99
    # and 7, each named by the fields where the fast path and the event
    # path disagree.  None has a diagnosed cause yet.
    @pytest.mark.parametrize("spec", [
        pytest.param(
            FuzzSpec(seed=179560246, num_gpus=2, lanes=2, accesses=30,
                     shared_pages=0, private_pages=8, scheme="idyll",
                     batch_limit=1, inflight_per_cu=1, sim_seed=11),
            marks=pytest.mark.xfail(strict=True, reason=(
                "campaign seed 99, private pages only: exec_time 13666 "
                "vs 13794")),
            id="seed99-private-exec_time",
        ),
        pytest.param(
            FuzzSpec(seed=1029111071, num_gpus=8, lanes=1, accesses=30,
                     shared_pages=24, private_pages=8, scheme="idyll",
                     batch_limit=4096, inflight_per_cu=1, sim_seed=7),
            marks=pytest.mark.xfail(strict=True, reason=(
                "campaign seed 99: demand_miss_total_latency 177136 vs "
                "177139 (exec_time agrees)")),
            id="seed99-shared-miss_latency",
        ),
        pytest.param(
            FuzzSpec(seed=651011932, num_gpus=8, lanes=2, accesses=60,
                     shared_pages=0, private_pages=8, scheme="idyll",
                     batch_limit=1, inflight_per_cu=1, sim_seed=7),
            marks=pytest.mark.xfail(strict=True, reason=(
                "campaign seed 99, private pages only: exec_time 17955 "
                "vs 17819")),
            id="seed99-private-exec_time-8gpu",
        ),
        pytest.param(
            FuzzSpec(seed=341225188, num_gpus=4, lanes=1, accesses=30,
                     shared_pages=24, private_pages=4, scheme="broadcast",
                     batch_limit=2, inflight_per_cu=1, sim_seed=7),
            marks=pytest.mark.xfail(strict=True, reason=(
                "campaign seed 7: migration_waiting_total 4399 vs 4398")),
            id="seed7-broadcast-migration_waiting",
        ),
    ])
    def test_campaign_divergence(self, spec):
        assert check_spec(spec) is None


class TestStdlibOnly:
    def test_run_and_fuzz_import_only_stdlib(self):
        """A run and a fuzz replay load nothing but the standard library
        and the package itself: the simulator has no third-party
        dependency, hard or optional."""
        script = """
import sys
before = set(sys.modules)
from repro.experiments.runner import simulate
from repro.cli import main
from repro.config import baseline_config
simulate("SC", baseline_config(2), lanes=2, accesses_per_lane=60, seed=1)
assert main(["fuzz", "--spec", '{"seed": 3, "accesses": 30}']) == 0
tops = {m.partition(".")[0] for m in set(sys.modules) - before}
# __mp_main__ is multiprocessing's alias for the main module.
print(sorted(tops - set(sys.stdlib_module_names) - {"repro", "__mp_main__"}))
"""
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(REPO / "src")), cwd=REPO,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

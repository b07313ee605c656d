"""Tests of the benchmark itself: every workload runs at a tiny size,
traced and untraced, and every output check rejects a corrupted output.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import run
from common import LAYER_UNITS, ChildPeak
from service_workload import JobService
from sim_workloads import SCHEMES, AppSim, ResidentReplay, check_result
from sweep_workload import FigureSweep
from tracer import LAYER_HOOKS, Tracer

REPO = Path(__file__).resolve().parent.parent


class TinyAppSim(AppSim):
    GPUS, LANES, ACCESSES = 2, 1, 60
    MIN_ROTATIONS = 1


class TinyResident(ResidentReplay):
    GPUS, LANES, ACCESSES = 2, 2, 120


class TinyJobs(JobService):
    GPUS, LANES, ACCESSES = 1, 1, 40
    MIN_JOBS = 4
    TRACE_JOBS = 4


class TinySweep(FigureSweep):
    LANES, ACCESSES = 1, 30
    MIN_OPS = 1


TINY = [TinyAppSim, TinyResident, TinyJobs, TinySweep]


def _run(workload, traced: bool):
    state = workload.setup()
    try:
        if traced:
            return workload.traced(state, 0.0)
        return workload.measure(state, 0.0)
    finally:
        workload.teardown(state)


@pytest.mark.parametrize("cls", TINY, ids=lambda c: c.__name__)
def test_workload_measures_without_failures(cls, tmp_path):
    metrics, log = _run(cls(3, tmp_path), traced=False)
    assert log.failed == 0, log.failures
    assert log.attempted >= 1
    assert set(metrics) == {"accesses_per_s", "op_p50_s", "idyll_speedup"}
    assert all(value > 0 for value in metrics.values()), metrics


@pytest.mark.parametrize("cls", TINY, ids=lambda c: c.__name__)
def test_traced_pass_reports_every_layer_metric(cls, tmp_path):
    metrics, log, tracer = _run(cls(3, tmp_path), traced=True)
    assert log.failed == 0, log.failures
    assert set(metrics) == set(LAYER_UNITS)
    if cls in (TinyAppSim, TinyResident):
        assert metrics["tlb.lookup_calls"] > 0
    else:  # the simulations run in worker processes
        assert metrics["tlb.lookup_calls"] == 0 and metrics["cache.get_s"] > 0
    assert tracer.spans and not tracer._restore


def test_a_failed_op_ends_the_loop(monkeypatch, tmp_path):
    """A failing op adds no wall time, so the loop must not wait for
    ``--seconds`` of it."""
    workload = TinyResident(3, tmp_path)
    state = workload.setup()
    for scheme in SCHEMES:
        workload._reference(state, scheme)  # the untimed references still run
    monkeypatch.setattr(workload, "_run", lambda config, trace: 1 / 0)
    _, log = workload.measure(state, 3600.0)
    assert log.attempted == 1 and log.failed >= 1


def test_wrappers_are_removed_after_a_pass(tmp_path):
    import repro.gpu.gpu as gpu_mod

    original = gpu_mod.GPU.__dict__["access"]
    _run(TinyResident(1, tmp_path), traced=True)
    assert gpu_mod.GPU.__dict__["access"] is original


def test_counts_repeat_exactly(tmp_path):
    """Per-layer counts are exact: two traced passes agree on them."""
    first, _, _ = _run(TinyAppSim(5, tmp_path), traced=True)
    second, _, _ = _run(TinyAppSim(5, tmp_path), traced=True)
    counts = [name for name, unit in LAYER_UNITS.items() if unit == "count"]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_child_peak_sees_a_live_child():
    with ChildPeak() as children:
        subprocess.run([sys.executable, "-c", "import time; time.sleep(0.3)"], check=True)
    assert children.peak_mb > 1


def test_generator_wrapper_forwards_sends_and_throws():
    class Box:
        def gen(self):
            got = yield 1
            try:
                yield got * 2
            except KeyError:
                yield "caught"
            return "end"

    tracer = Tracer()
    wrapped = tracer._wrap_gen("box.gen", Box.gen)
    it = wrapped(Box())
    assert next(it) == 1
    assert it.send(21) == 42
    assert it.throw(KeyError()) == "caught"
    with pytest.raises(StopIteration) as stop:
        next(it)
    assert stop.value.value == "end"
    assert tracer.merged().calls["box.gen"] == 1


def test_host_speed_scales_by_the_probes_around_an_op(monkeypatch):
    probes = iter([0.04, 0.06, 0.02, 0.03, 0.07, 0.09, 0.01, 0.01])
    monkeypatch.setattr(hostspeed, "probe_seconds", lambda: next(probes))
    speed = hostspeed.HostSpeed(runs=2)  # probes 0.04 and 0.06: mean 0.05
    # after: mean 0.025; the op ran at a mean probe time of 0.0375
    assert speed.scale(1.5) == pytest.approx(1.5 * hostspeed.NOMINAL_S / 0.0375)
    speed.refresh()  # mean 0.08 replaces the probe after the last op
    # after: mean 0.01; the op ran at a mean probe time of 0.045
    assert speed.scale(0.9) == pytest.approx(0.9 * hostspeed.NOMINAL_S / 0.045)


# -- the output checks reject corrupted outputs ------------------------------


@pytest.fixture(scope="module")
def sim_result():
    from repro.config import baseline_config
    from repro.experiments.runner import simulate

    return simulate("SC", baseline_config(2), lanes=1, accesses_per_lane=50, seed=2)


def test_sim_check_accepts_equal_result(sim_result):
    assert check_result(sim_result, sim_result.accesses, sim_result) == ""


def test_sim_check_rejects_one_altered_counter(sim_result):
    altered = dataclasses.replace(sim_result, l1_hits=sim_result.l1_hits + 1)
    assert check_result(altered, sim_result.accesses, sim_result)


def test_sim_check_rejects_short_run_and_abort(sim_result):
    assert check_result(sim_result, sim_result.accesses + 1, sim_result)
    aborted = dataclasses.replace(sim_result, aborted=True, abort_reason="watchdog")
    assert check_result(aborted, sim_result.accesses, aborted)


def test_service_check_rejects_one_flipped_artifact_byte(tmp_path):
    from repro.metrics.export import result_to_json_bytes

    jobs = TinyJobs(4, tmp_path)
    spec = jobs.job(0)[0]
    artifact = result_to_json_bytes(jobs.reference(spec))
    assert jobs.check(spec, artifact) == ""
    flipped = bytearray(artifact)
    flipped[len(flipped) // 2] ^= 0x01
    assert jobs.check(spec, bytes(flipped))


def test_sweep_check_rejects_one_changed_series_value(tmp_path):
    sweep = TinySweep(6, tmp_path)
    _, series, cache = sweep.run_op()
    assert sweep.check(series, cache) == ""
    label = sorted(series)[0]
    app = sorted(series[label])[0]
    series[label][app] += 1e-9
    assert sweep.check(series, cache)


def test_hooks_name_existing_attributes():
    import importlib

    for module, path, _name, _kind in LAYER_HOOKS:
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part)


# -- the command line ---------------------------------------------------------


def test_command_prints_result_line(monkeypatch, capsys, tmp_path):
    monkeypatch.chdir(REPO)
    monkeypatch.setenv("REPRO_CACHE", "0")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setitem(run.WORKLOADS, "resident_replay", ("test_perfbench", "TinyResident"))
    assert run.main(["--workload", "resident_replay", "--seed", "1", "--seconds", "0",
                     "--trace", "0"]) == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0
    assert set(doc["metrics"]) == set(run.END_TO_END_UNITS)


def test_command_refuses_a_directory_without_the_program(monkeypatch, capsys, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "app_sim", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_matches_the_command():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS

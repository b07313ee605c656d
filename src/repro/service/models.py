"""Job specifications and records for the simulation service.

A :class:`JobSpec` is the validated form of a ``POST /jobs`` payload.
Validation is strict and runs *before* admission: a malformed spec is a
400 at the door, never a poison task burning worker retries.  Specs are
plain-JSON round-trippable (:meth:`JobSpec.to_dict` /
:meth:`JobSpec.from_dict`) because the crash-safe job journal persists
them verbatim — a restarted server rebuilds every accepted job from its
``queued`` record alone.

A job is one or more *runs* (``kind="run"`` is exactly one;
``kind="sweep"`` fans a list of runs into the worker pool under a
single job id).  Each run resolves to the same
:func:`repro.experiments.runner.simulate` inputs the CLI uses, and its
task key is the same content-addressed cache key — so a completed
artifact is byte-equal to what ``repro run --json`` would have
produced, and repeated submissions of the same run hit the cache
instead of the workers.
"""

from __future__ import annotations

import dataclasses
import time
import uuid
from typing import Any, Dict, List, Optional, Tuple

from ..config import (
    ConfigError,
    InvalidationScheme,
    MigrationPolicy,
    SystemConfig,
    baseline_config,
)
from ..experiments.cache import cache_key
from ..experiments.runner import _env_int
from ..workloads.dnn import DNN_MODELS
from ..workloads.suite import APPS

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "JobRecord",
    "JobSpec",
    "RunSpec",
    "SpecError",
    "new_job_id",
]

#: job lifecycle: queued -> running -> done | failed.
JOB_STATES = ("queued", "running", "done", "failed")
TERMINAL_STATES = frozenset({"done", "failed"})

#: admission-time bounds — a public endpoint must not let one request
#: ask for an unbounded simulation.
MAX_GPUS = 32
MAX_LANES = 64
MAX_ACCESSES = 1_000_000
MAX_SCALE = 64.0
MAX_SWEEP_RUNS = 64


class SpecError(ValueError):
    """A job payload failed validation (HTTP 400, pre-admission)."""


def new_job_id() -> str:
    """Short, URL-safe, collision-resistant job identifier."""
    return uuid.uuid4().hex[:12]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SpecError(message)


def _as_int(payload: Dict[str, Any], field: str, default: Optional[int]) -> Optional[int]:
    value = payload.get(field, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{field} must be an integer, got {value!r}")
    return value


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """One fully-resolved simulation request inside a job."""

    app: str
    gpus: int = 4
    # Defaults mirror `repro run` exactly: a spec that omits a field
    # must produce the same bytes as the CLI invocation that omits the
    # matching flag.
    scheme: str = InvalidationScheme.BROADCAST.value
    policy: str = MigrationPolicy.ACCESS_COUNTER.value
    scale: float = 1.0
    lanes: int = 4
    accesses: int = 1200
    seed: int = 7
    faults: Optional[str] = None
    audit: Optional[int] = None
    no_fastpath: bool = False

    @classmethod
    def from_dict(cls, payload: Dict[str, Any], defaults: "RunSpec") -> "RunSpec":
        """Validate one run dict, falling back to ``defaults`` for any
        field the payload omits."""
        _require(isinstance(payload, dict), "run spec must be a JSON object")
        unknown = set(payload) - {f.name for f in dataclasses.fields(cls)}
        _require(not unknown, f"unknown run spec field(s): {sorted(unknown)}")
        app = payload.get("app", defaults.app)
        _require(isinstance(app, str) and bool(app), "app is required")
        _require(
            app in APPS or app in DNN_MODELS,
            f"unknown app {app!r}; see `repro list`",
        )
        gpus = _as_int(payload, "gpus", defaults.gpus)
        _require(1 <= gpus <= MAX_GPUS, f"gpus must be in [1, {MAX_GPUS}]")
        lanes = _as_int(payload, "lanes", defaults.lanes)
        _require(1 <= lanes <= MAX_LANES, f"lanes must be in [1, {MAX_LANES}]")
        accesses = _as_int(payload, "accesses", defaults.accesses)
        _require(
            1 <= accesses <= MAX_ACCESSES,
            f"accesses must be in [1, {MAX_ACCESSES}]",
        )
        seed = _as_int(payload, "seed", defaults.seed)
        _require(seed >= 0, "seed cannot be negative")
        scale = payload.get("scale", defaults.scale)
        _require(
            isinstance(scale, (int, float)) and 0 < float(scale) <= MAX_SCALE,
            f"scale must be in (0, {MAX_SCALE}]",
        )
        scheme = payload.get("scheme", defaults.scheme)
        try:
            InvalidationScheme(scheme)
        except ValueError:
            raise SpecError(
                f"unknown scheme {scheme!r}; one of "
                f"{[s.value for s in InvalidationScheme]}"
            ) from None
        policy = payload.get("policy", defaults.policy)
        try:
            MigrationPolicy(policy)
        except ValueError:
            raise SpecError(
                f"unknown policy {policy!r}; one of "
                f"{[p.value for p in MigrationPolicy]}"
            ) from None
        audit = _as_int(payload, "audit", defaults.audit)
        if audit is not None:
            _require(audit > 0, "audit interval must be positive")
        faults = payload.get("faults", defaults.faults)
        if faults is not None:
            _require(isinstance(faults, str), "faults must be a spec string")
        no_fastpath = payload.get("no_fastpath", defaults.no_fastpath)
        _require(isinstance(no_fastpath, bool), "no_fastpath must be a boolean")
        spec = cls(
            app=app, gpus=gpus, scheme=scheme, policy=policy,
            scale=float(scale), lanes=lanes, accesses=accesses, seed=seed,
            faults=faults, audit=audit, no_fastpath=no_fastpath,
        )
        spec.to_config()  # fault-spec syntax errors surface as 400s here
        return spec

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    def to_config(self) -> SystemConfig:
        """The same config construction as ``repro run`` (cli.py), so
        service runs and CLI runs share cache keys and results."""
        config = baseline_config(self.gpus).with_scheme(
            InvalidationScheme(self.scheme)
        )
        config = config.with_policy(MigrationPolicy(self.policy))
        if self.no_fastpath:
            config = config.with_fastpath(False)
        if self.faults:
            from ..faults.profiles import parse_fault_spec

            try:
                fault_config, chaos_path = parse_fault_spec(
                    self.faults, with_trace=True
                )
            except ConfigError as exc:
                raise SpecError(f"bad faults spec: {exc}") from None
            if chaos_path is not None:
                # A trace= spec names a server-side file; a public job
                # API must not dereference client-supplied paths.
                raise SpecError(
                    "chaos trace specs (trace=...) are not accepted over "
                    "the job API; use uniform fault presets"
                )
            config = config.with_faults(fault_config)
        if self.audit is not None:
            config = config.with_faults(
                audit_interval=self.audit, audit_on_quiesce=True
            )
        return config

    def simulate_args(self) -> Dict[str, Any]:
        """The keyword arguments of ``simulate()`` for this run."""
        return dict(app=self.app, config=self.to_config(), scale=self.scale,
                    lanes=self.lanes, accesses_per_lane=self.accesses,
                    seed=self.seed)

    def task_key(self) -> str:
        """Content-addressed cache key — identical to the key a CLI
        runner with the same sizing flags would compute, which is what
        makes the result cache the service's artifact store."""
        return cache_key(**self.simulate_args())


def default_run_spec() -> RunSpec:
    """Server-side defaults for omitted run fields (environment-tunable
    the same way the experiment runners are)."""
    return RunSpec(
        app="",
        lanes=_env_int("REPRO_LANES", 4),
        accesses=_env_int("REPRO_ACCESSES", 1200),
    )


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """A validated job: one run, or a sweep of runs, plus checkpoint
    policy.  ``checkpoint_every`` (cycles) makes the job's tasks
    preemptible and crash-resumable via RCKP checkpoints."""

    kind: str
    runs: Tuple[RunSpec, ...]
    checkpoint_every: Optional[int] = None

    @classmethod
    def from_dict(cls, payload: Any) -> "JobSpec":
        _require(isinstance(payload, dict), "job spec must be a JSON object")
        kind = payload.get("kind", "run")
        _require(kind in ("run", "sweep"), f"unknown job kind {kind!r}")
        checkpoint_every = _as_int(payload, "checkpoint_every", None)
        if checkpoint_every is not None:
            _require(checkpoint_every > 0, "checkpoint_every must be positive")
        defaults = default_run_spec()
        run_fields = {f.name for f in dataclasses.fields(RunSpec)}
        base = {k: v for k, v in payload.items() if k in run_fields}
        if kind == "run":
            runs = (RunSpec.from_dict(base, defaults),)
        else:
            raw_runs = payload.get("runs")
            _require(
                isinstance(raw_runs, list) and raw_runs,
                "sweep jobs need a non-empty 'runs' list",
            )
            _require(
                len(raw_runs) <= MAX_SWEEP_RUNS,
                f"sweep jobs are capped at {MAX_SWEEP_RUNS} runs",
            )
            # Top-level run fields are sweep-wide defaults: merge each
            # entry over them so every field is validated exactly once.
            runs = tuple(
                RunSpec.from_dict(
                    {**base, **entry} if isinstance(entry, dict) else entry,
                    defaults,
                )
                for entry in raw_runs
            )
        extra = set(payload) - run_fields - {"kind", "runs", "checkpoint_every"}
        _require(not extra, f"unknown job spec field(s): {sorted(extra)}")
        return cls(kind=kind, runs=runs, checkpoint_every=checkpoint_every)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "runs": [run.to_dict() for run in self.runs],
            "checkpoint_every": self.checkpoint_every,
        }

    @classmethod
    def from_journal(cls, payload: Dict[str, Any]) -> "JobSpec":
        """Rebuild from a journaled ``to_dict`` rendering (already
        validated at admission; trusted)."""
        runs = tuple(RunSpec(**run) for run in payload["runs"])
        return cls(
            kind=payload["kind"],
            runs=runs,
            checkpoint_every=payload.get("checkpoint_every"),
        )

    def task_keys(self) -> List[str]:
        return [run.task_key() for run in self.runs]


@dataclasses.dataclass
class JobRecord:
    """Server-side state of one accepted job."""

    id: str
    spec: JobSpec
    state: str = "queued"
    created: float = dataclasses.field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    attempts: int = 0
    error: Optional[str] = None
    #: task key -> terminal status ("done" | "quarantined" | None).
    tasks: Dict[str, Optional[str]] = dataclasses.field(default_factory=dict)
    #: True when the job was rebuilt from the journal after a restart.
    recovered: bool = False

    def pending_tasks(self) -> List[str]:
        return [key for key, status in self.tasks.items() if status is None]

    def to_dict(self) -> Dict[str, Any]:
        """Public JSON shape for ``GET /jobs/{id}``."""
        done = sum(1 for s in self.tasks.values() if s == "done")
        return {
            "id": self.id,
            "state": self.state,
            "kind": self.spec.kind,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "attempts": self.attempts,
            "error": self.error,
            "recovered": self.recovered,
            "tasks": {"total": len(self.tasks), "done": done},
            "spec": self.spec.to_dict(),
        }

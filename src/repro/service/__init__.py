"""Simulation-as-a-service: an HTTP job API over the sweep machinery.

The package turns the CLI reproduction into a long-running server:

* :mod:`~repro.service.models` — job specs (validated, journalable) and
  job records;
* :mod:`~repro.service.queue` — the bounded admission queue whose depth
  drives 429 ``Retry-After`` backpressure;
* :mod:`~repro.service.events` — per-job progress event logs and their
  SSE rendering;
* :mod:`~repro.service.manager` — the :class:`JobManager`: admission,
  a :class:`~repro.experiments.parallel.SweepSupervisor`-backed worker
  pool, the crash-safe job journal, and graceful drain;
* :mod:`~repro.service.server` — the dependency-free stdlib HTTP
  server (``POST /jobs``, polling, SSE streaming, artifacts, health
  and metrics endpoints).

Robustness is inherited rather than reimplemented: worker SIGKILL /
hang / poison handling, exponential-backoff retries and RCKP resume
come from the supervisor; artifact storage is the content-addressed
result cache; the job ledger reuses the sweep journal's append-only
JSONL format.
"""

from .manager import JobManager, ServiceDraining
from .models import JobRecord, JobSpec, SpecError
from .queue import AdmissionQueue
from .server import JobHTTPServer, serve

__all__ = [
    "AdmissionQueue",
    "JobHTTPServer",
    "JobManager",
    "JobRecord",
    "JobSpec",
    "ServiceDraining",
    "SpecError",
    "serve",
]

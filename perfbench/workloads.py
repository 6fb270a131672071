"""The benchmark's workload table, shared by the orchestrator, the input
generator and the pass client.  Why each workload exists is recorded in
``BENCHMARK.json`` and ``README.md``.

Every workload is a closed loop driven by one client process: the client
issues the next request only when the library hands back the previous
one (or batch).  The seed goes to ``BenchmarkConfig.seed``, so it changes
the simulated models' answers; the dataset keeps its own fixed seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

#: Per-request latency of the ``corpus-endpoint`` models.  On a shared
#: 2-CPU VM the speed of pure-Python code swung by up to ~1.6x within
#: minutes; a fixed endpoint wait per request (as a cloud API has) makes
#: the CPU-bound layers about half of the pass, so host swings move
#: ``records_per_s`` half as much, while every layer still blocks it.
#: Two passes of it take under a minute.
ENDPOINT_LATENCY_SECONDS = 0.004

#: Per-request endpoint latency of the ``fleet-offload`` replay tables.
#: Over the whole corpus a run of two passes took 70-85 s, too long to
#: repeat runs of both workloads within an hour, so the workload covers
#: every other problem.  Its spread is then set by the host's speed moving
#: the coordinator's CPU work: two sets of ten runs spread by 13% and 5%
#: (quartiles over median) at 8 ms, five runs by 14% at 12 ms.
FLEET_LATENCY_SECONDS = 0.008

#: Global rate limit of the replayed endpoint: every offloaded request
#: debits the store's distributed bucket, but at this rate it never binds.
FLEET_RATE_LIMIT = 100_000.0
FLEET_BURST = 64

#: Records re-scored per run by the independent legacy oracle.
ORACLE_SAMPLE = 64


@dataclass(frozen=True)
class Workload:
    name: str
    models: tuple[str, ...]
    #: ``serial``: ``evaluate_model`` per model on one benchmark object,
    #: each simulated model behind a ``RemoteEndpointModel`` when
    #: ``latency_seconds`` is set; ``fleet``: ``MultiModelScheduler`` over
    #: a self-hosted ``FleetExecutor`` with generation offloaded through
    #: replayed ``ModelSpec`` endpoints.
    kind: str
    #: Per-request endpoint latency.
    latency_seconds: float = 0.0
    #: Whether the inputs include in-process serial records to compare with.
    serial_reference: bool = False
    #: Timed passes per run at the least; more start while ``--seconds`` have
    #: not gone by.  ``setup_s`` is the median over the passes' set-ups.
    min_passes: int = 2
    #: Every ``problem_stride``-th problem of the dataset, in its order.
    problem_stride: int = 1

    def problems(self, dataset) -> list:
        return list(dataset)[:: self.problem_stride]

    def parameters(self, nproc: int) -> dict:
        problems = "all" if self.problem_stride == 1 else f"1 in {self.problem_stride}, in dataset order"
        params = {"models": list(self.models), "kind": self.kind, "problems": problems}
        params["latency_ms"] = self.latency_seconds * 1000
        if self.kind == "serial":
            params["score_cache"] = "empty file per pass"
        if self.kind == "fleet":
            params.update(fleet_workers=nproc, rate_limit=FLEET_RATE_LIMIT, burst=FLEET_BURST)
        return params


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="corpus-endpoint",
            models=("gpt-4", "llama-7b"),
            kind="serial",
            latency_seconds=ENDPOINT_LATENCY_SECONDS,
        ),
        # Not in BENCHMARK.json: with no endpoint wait the pass is pure
        # CPU, and five runs of one fixed seed spread by 23% (quartiles over
        # median) on a 2-CPU shared VM, against a 25% bound.  Kept for
        # ``--trace 1`` ledgers of the CPU-only path.
        Workload(
            name="corpus-cold",
            models=("gpt-4", "llama-7b"),
            kind="serial",
            min_passes=3,
        ),
        Workload(
            name="fleet-offload",
            models=("gpt-4", "llama-7b"),
            kind="fleet",
            latency_seconds=FLEET_LATENCY_SECONDS,
            serial_reference=True,
            problem_stride=2,
        ),
    )
}


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""

    return len(os.sched_getaffinity(0))

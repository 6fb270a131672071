"""One timed pass of one workload, in a fresh interpreter.

Started by ``run.py`` with the monotonic time of its launch; everything
from that moment to the first submitted request is set-up (imports,
dataset build, score-cache load, fleet boot and worker reference warm-up),
except reading the benchmark's own pre-generated inputs, which is timed
separately and subtracted.  The pass itself is one closed loop through the
library's public entry points.  Outputs go to files under ``--out``:

* ``<out>.json``  — timings, CPU, peak RSS, cache and fleet stats, the
  expected request keys and a YAML-loader probe;
* ``<out>.records.jsonl`` — every record, for the correctness gate;
* ``<out>.spans.json`` — the spans (traced passes only).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import workloads


def _probe_yaml_loaders() -> dict[str, list[str]]:
    """Which PyYAML loader classes the library's two parse paths build."""

    import yaml

    from repro.yamlkit.labels import parse_labeled_yaml
    from repro.yamlkit.parsing import load_all_documents

    built: list[str] = []
    classes = {
        name: getattr(yaml, name)
        for name in dir(yaml)
        if name.endswith("Loader") and isinstance(getattr(yaml, name), type)
    }
    originals = {name: cls.__init__ for name, cls in classes.items()}

    def recorder(name, init):
        def __init__(self, *args, **kwargs):
            if type(self).__name__ == name:
                built.append(name)
            init(self, *args, **kwargs)

        return __init__

    probes = {
        "yamlkit.parsing": lambda: load_all_documents("a: 1\n---\nb: [2]\n"),
        "yamlkit.labels": lambda: parse_labeled_yaml("a: 1  # *\n"),
    }
    found: dict[str, list[str]] = {}
    try:
        for name, cls in classes.items():
            cls.__init__ = recorder(name, originals[name])
        for path, probe in probes.items():
            built.clear()
            probe()
            found[path] = sorted(set(built))
    finally:
        for name, cls in classes.items():
            cls.__init__ = originals[name]
    return found


def _peak_rss_mb() -> tuple[float, float]:
    """Peak resident set of this process, and the largest of its reaped children."""

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, children / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True, help="directory of generated inputs")
    parser.add_argument("--cache", help="score-cache file this pass uses")
    parser.add_argument("--out", required=True, help="output path prefix")
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    nproc = workloads.nproc()

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer().install()

    from repro.core import BenchmarkConfig, CloudEvalBenchmark
    from repro.dataset.builder import build_dataset
    from repro.pipeline.records import record_to_dict

    dataset = build_dataset()
    problems = workload.problems(dataset)
    config = BenchmarkConfig(seed=args.seed, score_cache=args.cache)
    bench = CloudEvalBenchmark(dataset, config)

    input_seconds = 0.0
    executor = None
    jobs = None
    boot_submits = 0
    event_log = args.out + ".events.jsonl"
    if workload.kind == "fleet":
        from repro.evalcluster.fleet import FleetExecutor
        from repro.llm.remote import ModelSpec, ReplayTransport
        from repro.pipeline.scheduler import ModelJob

        jobs = []
        for model in workload.models:
            started = time.monotonic()
            with open(os.path.join(args.inputs, f"replay-{model}.json"), encoding="utf-8") as handle:
                responses = json.load(handle)
            input_seconds += time.monotonic() - started
            spec = ModelSpec(
                name=model,
                transport=ReplayTransport(responses, latency_seconds=workload.latency_seconds),
                rate_limit=workloads.FLEET_RATE_LIMIT,
                burst=workloads.FLEET_BURST,
            )
            jobs.append(ModelJob(spec.build(), bench.requests(model, problems)[1], model_spec=spec))

        executor = FleetExecutor(num_workers=nproc, event_log=event_log).warm(problems)
        # Boot the store and the workers; set-up ends once every worker has
        # heartbeated, which it does only after its reference warm-up.
        while True:
            executor.map(abs, [0])
            boot_submits += 1
            if len(executor.stats().heartbeat_ages) >= nproc:
                break
            time.sleep(0.05)

    setup_s = time.monotonic() - args.launched - input_seconds
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    try:
        if tracer is not None:
            with tracer.root():
                evaluations = _run_pass(workload, bench, problems, executor, jobs)
        else:
            evaluations = _run_pass(workload, bench, problems, executor, jobs)
        wall_s = time.perf_counter() - wall0
        cpu_s = time.process_time() - cpu0
        fleet = None
        if executor is not None:
            stats = executor.stats()
            fleet = {"requeued": stats.requeued, "abandoned": stats.abandoned, "workers": nproc}
    finally:
        if executor is not None:
            executor.close()
    client_rss_mb, children_rss_mb = _peak_rss_mb()

    cache = bench.score_cache()
    expected = {model: bench.requests(model, problems)[1] for model in workload.models}
    records = [record for model in workload.models for record in evaluations[model].records]
    with open(args.out + ".records.jsonl", "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record_to_dict(record)) + "\n")
    if tracer is not None:
        tracer.dump(args.out + ".spans.json")
    result = {
        "setup_s": setup_s,
        "input_s": input_seconds,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "records": len(records),
        "peak_rss_mb": max(client_rss_mb, children_rss_mb),
        "client_rss_mb": client_rss_mb,
        "children_rss_mb": children_rss_mb,
        "cache": None if cache is None else {"hits": cache.hits, "misses": cache.misses, "writes": cache.writes},
        "fleet": fleet,
        "event_log": event_log if executor is not None else None,
        "boot_submits": boot_submits,
        "expected": [
            [model, request.problem.problem_id, request.shots, request.sample_index]
            for model in workload.models
            for request in expected[model]
        ],
        "yaml_loaders": _probe_yaml_loaders(),
    }
    with open(args.out + ".json", "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def _run_pass(workload, bench, problems, executor, jobs) -> dict:
    """The timed closed loop; returns the evaluation of every model."""

    if workload.kind == "serial":
        return {model: bench.evaluate_model(_serial_model(workload, bench, model)) for model in workload.models}
    from repro.pipeline.scheduler import MultiModelScheduler
    from repro.scoring.compiled import ReferenceStore

    scheduler = MultiModelScheduler(jobs, executor=executor, store=ReferenceStore())
    try:
        return scheduler.run()
    finally:
        scheduler.close()


def _serial_model(workload, bench, model: str):
    """The model a serial pass queries: the seeded (calibrated) simulated
    model, behind a fixed-latency endpoint when the workload has one."""

    if not workload.latency_seconds:
        return model
    from repro.llm.remote import RemoteEndpointModel

    resolved, _requests = bench.requests(model)
    return RemoteEndpointModel(resolved, latency_seconds=workload.latency_seconds)


if __name__ == "__main__":
    sys.exit(main())

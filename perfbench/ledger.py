"""The per-layer ledger of a traced pass.

Self time of a span is its duration minus the part of it its direct
children cover (children on other threads included, overlaps merged).
Every layer row sums the self times of its spans; ``pipeline.self`` is the
self time of the pass span itself — stage and scheduler code that runs
outside every wrapped layer function.  Rows are per record unless the
name says otherwise.

Self times add up to the traced wall by construction, so the ledger checks
the layers against two quantities it does not derive from them:

* wall: the named layers must cover all but :data:`PIPELINE_SELF_CAP` of
  the traced wall — work on the pass thread outside every wrapped
  function lands in ``pipeline.self`` and pushes it over the cap;
* CPU: the process CPU time of the pass (``time.process_time``) must equal
  the thread CPU inside spans plus the CPU that the threads which are a
  layer of their own (:data:`THREAD_LAYERS`) spend outside spans, within
  :data:`CPU_TOLERANCE`.  Thread CPU is read from ``/proc`` at the end of
  the pass, or, for a thread that ended during it, taken at the end of its
  last span.  CPU on any other thread, or after a thread's last span, is a
  gap (``trace.reconcile_error_share``).

A span that escapes its parent or has a negative self time fails the
check too.

``fleet-offload`` work happens in worker processes the benchmark does not
trace; its rows come from program outputs instead: the executor's JSONL
event log (submit, claim, done), the records' worker-measured
``generate_seconds``/``score_seconds`` and ``MasterStats``.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

from tracer import ROOT

#: Largest share of the traced wall ``pipeline.self`` may take.
PIPELINE_SELF_CAP = 0.10

#: Largest |process CPU - span CPU - thread-layer CPU| / process CPU accepted.
CPU_TOLERANCE = 0.05

#: Thread-name prefix -> layer, for the CPU threads spend outside every
#: span: the self-hosted fleet's store server serves every frame on its
#: own threads, and the scheduler's generation threads pick and hand over
#: batches between ``prepare_batch`` calls.
THREAD_LAYERS = {"fleet-store": "evalcluster.store_server", "leaderboard-": "pipeline.scheduler"}

#: Layer span -> per-layer metric reporting its self time in ms per record.
LAYER_METRICS = {
    "pipeline.prepare": "pipeline.prepare_ms",
    "llm.endpoint": "llm.endpoint_ms",
    "llm.generate": "llm.generate_ms",
    "llm.prompt": "llm.prompt_ms",
    "postprocess.extract": "postprocess.extract_ms",
    "scoring.compile": "scoring.compile_ms",
    "scoring.score": "scoring.score_self_ms",
    "yamlkit.parse": "yamlkit.parse_ms",
    "mlkit.bleu": "mlkit.bleu_ms",
    "yamlkit.edit_distance": "yamlkit.edit_distance_ms",
    "scoring.exact": "scoring.exact_ms",
    "scoring.kv_exact": "scoring.kv_exact_ms",
    "scoring.kv_wildcard": "scoring.kv_wildcard_ms",
    "testexec.unit_test": "testexec.unit_test_ms",
    "kubesim.apply": "kubesim.apply_ms",
    "scoring.cache_get": "scoring.cache_get_ms",
    "scoring.cache_put": "scoring.cache_put_ms",
    "evalcluster.cost_predict": "evalcluster.cost_predict_ms",
    "evalcluster.fleet_map": "evalcluster.fleet_map_ms",
    "evalcluster.store_call": "evalcluster.store_call_ms",
}

#: Every per-layer metric, its unit, and its direction (BENCHMARK.json order).
PER_LAYER = (
    [(metric, "ms", "lower") for metric in LAYER_METRICS.values()]
    + [
        ("evalcluster.store_server_cpu_ms", "ms", "lower"),
        ("pipeline.scheduler_cpu_ms", "ms", "lower"),
        ("pipeline.self_ms", "ms", "lower"),
        ("scoring.compiles", "count", "lower"),
        ("yamlkit.parse_error_share", "share", "lower"),
        ("scoring.scored_share", "share", "lower"),
        ("scoring.cache_hit_share", "share", "higher"),
        ("scoring.cache_load_s", "s", "lower"),
        ("evalcluster.store_calls", "count", "lower"),
        ("evalcluster.queue_wait_p50_ms", "ms", "lower"),
        ("evalcluster.queue_wait_p90_ms", "ms", "lower"),
        ("evalcluster.job_ms", "ms", "lower"),
        ("evalcluster.worker_generate_ms", "ms", "lower"),
        ("evalcluster.worker_score_ms", "ms", "lower"),
        ("evalcluster.wire_ms", "ms", "lower"),
        ("evalcluster.worker_busy_share", "share", "higher"),
        ("evalcluster.requeued", "count", "lower"),
        ("evalcluster.abandoned", "count", "lower"),
        ("run.cpu_ms_per_record", "ms", "lower"),
        ("run.cpu_util", "share", "higher"),
        ("trace.overhead_share", "share", "lower"),
        ("trace.wait_share", "share", "lower"),
        ("trace.reconcile_error_share", "share", "lower"),
    ]
)


def _union(intervals: list[tuple[float, float]]) -> float:
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


def span_ledger(trace: dict, records: int) -> dict:
    """Self time per layer, the pass's own self time, and the two checks."""

    spans = trace["spans"]
    roots = [span for span in spans if span["name"] == ROOT]
    if len(roots) != 1:
        raise ValueError(f"expected one {ROOT!r} span, found {len(roots)}")
    root = roots[0]
    children: dict[int, list[dict]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)

    in_pass: set[int] = {root["id"]}
    order = [root]
    for span in order:
        for child in children[span["id"]]:
            in_pass.add(child["id"])
            order.append(child)

    rows: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "wall": 0.0, "cpu": 0.0, "errors": 0})
    span_cpu_by_thread: dict[int, float] = defaultdict(float)
    bad = 0
    for span in order:
        kids = children[span["id"]]
        self_wall = span["end"] - span["start"] - _union([(kid["start"], kid["end"]) for kid in kids])
        self_cpu = span["cpu"] - sum(kid["cpu"] for kid in kids if kid["thread"] == span["thread"])
        if self_wall < -1e-6 or any(
            kid["start"] < span["start"] - 1e-6 or kid["end"] > span["end"] + 1e-6 for kid in kids
        ):
            bad += 1
        row = rows["pipeline.self" if span is root else span["name"]]
        row["calls"] += 1
        row["wall"] += self_wall
        row["cpu"] += self_cpu
        row["errors"] += int(bool(span["error"]))
        span_cpu_by_thread[span["thread"]] += self_cpu

    # CPU each live thread spent outside every span, grouped by layer or name.
    outside: dict[str, dict[str, float]] = defaultdict(lambda: {"threads": 0, "cpu": 0.0})
    for thread in trace["threads"]:
        cpu = max(0.0, thread["cpu"] - span_cpu_by_thread.get(thread["id"], 0.0))
        name = next(
            (layer for prefix, layer in THREAD_LAYERS.items() if thread["name"].startswith(prefix)),
            thread["name"],
        )
        outside[name]["threads"] += 1
        outside[name]["cpu"] += cpu
    process_cpu = trace["process_cpu"]
    accounted = sum(span_cpu_by_thread.values()) + sum(
        outside[layer]["cpu"] for layer in THREAD_LAYERS.values() if layer in outside
    )

    wall = root["end"] - root["start"]
    setup = defaultdict(float)
    for span in spans:
        if span["id"] not in in_pass:
            setup[span["name"]] += span["end"] - span["start"]
    return {
        "wall": wall,
        "records": records,
        "rows": dict(rows),
        "threads": dict(outside),
        "process_cpu": process_cpu,
        "accounted_cpu": accounted,
        "cpu_gap": abs(process_cpu - accounted) / process_cpu if process_cpu > 0 else 0.0,
        "self_share": rows["pipeline.self"]["wall"] / wall if wall > 0 else 0.0,
        "bad_spans": bad,
        "setup": dict(setup),
    }


def reconciled(ledger: dict) -> bool:
    return (
        not ledger["bad_spans"]
        and ledger["cpu_gap"] <= CPU_TOLERANCE
        and ledger["self_share"] <= PIPELINE_SELF_CAP
    )


def _percentile(values: list[float], share: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(share * (len(ordered) - 1))))
    return ordered[index]


def fleet_ledger(event_log: str, boot_submits: int, records: list[dict], wall: float, workers: int) -> dict:
    """Queue, job and wire timings of the fleet from its event log."""

    events = []
    with open(event_log, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                events.append(json.loads(line))
    counter = 0
    submitted: dict[int, tuple[float, int]] = {}  # job number -> (submit t, tasks)
    claims: dict[int, float] = {}
    done: dict[int, float] = {}
    submits_seen = 0
    for event in events:
        kind = event["event"]
        if kind == "submit":
            count, tasks, chunk = event["count"], event["tasks"], event["chunk"]
            submits_seen += 1
            for index in range(count):
                counter += 1
                if submits_seen > boot_submits:
                    size = chunk if index < count - 1 else tasks - chunk * (count - 1)
                    submitted[counter] = (event["t"], size)
        elif kind in ("claim", "done"):
            number = int(str(event["job"]).rsplit("-", 1)[1])
            target = claims if kind == "claim" else done
            target.setdefault(number, event["t"])

    queue_waits = [claims[n] - submitted[n][0] for n in submitted if n in claims]
    timed_jobs = [n for n in submitted if n in claims and n in done]
    job_seconds = [done[n] - claims[n] for n in timed_jobs]
    job_tasks = sum(submitted[n][1] for n in timed_jobs)
    generate = [r["generate_seconds"] for r in records]
    score = [r["score_seconds"] for r in records]
    per_record_work = (sum(generate) + sum(score)) / len(records) if records else 0.0
    per_record_job = sum(job_seconds) / job_tasks if job_tasks else 0.0
    return {
        "jobs": len(submitted),
        "jobs_claim_observed": len(queue_waits),
        "queue_wait_p50_ms": 1000 * _percentile(queue_waits, 0.5),
        "queue_wait_p90_ms": 1000 * _percentile(queue_waits, 0.9),
        "job_ms": 1000 * statistics.fmean(job_seconds) if job_seconds else 0.0,
        "worker_generate_ms": 1000 * statistics.fmean(generate) if generate else 0.0,
        "worker_score_ms": 1000 * statistics.fmean(score) if score else 0.0,
        "wire_ms": 1000 * (per_record_job - per_record_work) if job_tasks else 0.0,
        "worker_busy_share": (sum(generate) + sum(score)) / (workers * wall) if wall > 0 else 0.0,
        "scored": sum(1 for value in score if value > 0),
    }


def per_layer_metrics(
    ledger: dict,
    fleet: dict | None,
    result: dict,
    untraced_wall: float,
) -> dict[str, float]:
    """The per-layer metric values of one traced pass (0 where a layer is absent)."""

    records = ledger["records"]
    rows = ledger["rows"]
    per_record = 1000.0 / records
    metrics = {metric: 0.0 for metric, _unit, _better in PER_LAYER}
    for span_name, metric in LAYER_METRICS.items():
        if span_name in rows:
            metrics[metric] = rows[span_name]["wall"] * per_record
    for layer in THREAD_LAYERS.values():
        if layer in ledger["threads"]:
            metrics[layer + "_cpu_ms"] = ledger["threads"][layer]["cpu"] * per_record
    metrics["pipeline.self_ms"] = rows["pipeline.self"]["wall"] * per_record
    metrics["scoring.compiles"] = float(rows.get("scoring.compile", {}).get("calls", 0))
    parse = rows.get("yamlkit.parse")
    if parse and parse["calls"]:
        metrics["yamlkit.parse_error_share"] = parse["errors"] / parse["calls"]
    scored = rows.get("scoring.score", {}).get("calls", 0)
    metrics["evalcluster.store_calls"] = rows.get("evalcluster.store_call", {}).get("calls", 0) / records
    cache = result.get("cache")
    if cache and cache["hits"] + cache["misses"]:
        metrics["scoring.cache_hit_share"] = cache["hits"] / (cache["hits"] + cache["misses"])
    metrics["scoring.cache_load_s"] = ledger["setup"].get("scoring.cache_load", 0.0)
    if fleet is not None:
        scored += fleet["scored"]
        for key in (
            "queue_wait_p50_ms",
            "queue_wait_p90_ms",
            "job_ms",
            "worker_generate_ms",
            "worker_score_ms",
            "wire_ms",
            "worker_busy_share",
        ):
            metrics["evalcluster." + key] = fleet[key]
        metrics["evalcluster.requeued"] = float(result["fleet"]["requeued"])
        metrics["evalcluster.abandoned"] = float(result["fleet"]["abandoned"])
    metrics["scoring.scored_share"] = scored / records
    metrics["run.cpu_ms_per_record"] = result["cpu_s"] * per_record
    metrics["run.cpu_util"] = result["cpu_s"] / result["wall_s"]
    metrics["trace.overhead_share"] = result["wall_s"] / untraced_wall - 1.0
    layer_wall = sum(row["wall"] for row in rows.values())
    layer_cpu = sum(max(0.0, row["cpu"]) for row in rows.values())
    metrics["trace.wait_share"] = (layer_wall - layer_cpu) / layer_wall if layer_wall > 0 else 0.0
    metrics["trace.reconcile_error_share"] = ledger["cpu_gap"]
    return metrics


def format_ledger(workload: str, ledger: dict, fleet: dict | None) -> str:
    """One table per workload, rows sorted by their share of the layer time."""

    records = ledger["records"]
    rows = ledger["rows"]
    total = sum(row["wall"] for row in rows.values()) or 1.0
    lines = [
        f"per-layer ledger: {workload} (traced pass, {records} records, wall {ledger['wall']:.3f} s)",
        f"  {'layer':<24} {'calls':>7} {'wall ms/rec':>12} {'cpu ms/rec':>11} {'wait ms/rec':>12} {'share':>7}",
    ]
    for name, row in sorted(rows.items(), key=lambda item: -item[1]["wall"]):
        wall = row["wall"] * 1000 / records
        cpu = max(0.0, row["cpu"]) * 1000 / records
        lines.append(
            f"  {name:<24} {row['calls']:>7} {wall:>12.4f} {cpu:>11.4f} {max(0.0, wall - cpu):>12.4f} "
            f"{row['wall'] / total:>7.1%}"
        )
    for name, thread in sorted(ledger["threads"].items(), key=lambda item: -item[1]["cpu"]):
        lines.append(
            f"  thread CPU outside spans: {name:<24} {thread['threads']:>3} threads "
            f"{thread['cpu'] * 1000 / records:>9.4f} cpu ms/rec"
            f"{'' if name in THREAD_LAYERS.values() else ' (no layer)'}"
        )
    lines.append(
        f"  wall check: pipeline.self is {ledger['self_share']:.2%} of the traced wall "
        f"{ledger['wall']:.3f} s (cap {PIPELINE_SELF_CAP:.0%}); bad spans {ledger['bad_spans']}"
    )
    lines.append(
        f"  CPU check: process {ledger['process_cpu']:.3f} s vs spans + thread layers "
        f"{ledger['accounted_cpu']:.3f} s (gap {ledger['cpu_gap']:.2%}, tolerance {CPU_TOLERANCE:.0%})"
    )
    if ledger["setup"]:
        setup = ", ".join(f"{name} {seconds:.3f} s" for name, seconds in sorted(ledger["setup"].items()))
        lines.append(f"  set-up spans (outside the pass): {setup}")
    if fleet is not None:
        lines.append(
            f"  fleet (from the event log, records and MasterStats; {fleet['jobs']} jobs, "
            f"claim observed for {fleet['jobs_claim_observed']}):"
        )
        for key in (
            "queue_wait_p50_ms",
            "queue_wait_p90_ms",
            "job_ms",
            "worker_generate_ms",
            "worker_score_ms",
            "wire_ms",
            "worker_busy_share",
        ):
            lines.append(f"    evalcluster.{key:<22} {fleet[key]:>10.4f}")
    return "\n".join(lines)

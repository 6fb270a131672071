"""CloudEval-YAML throughput benchmark: one command, closed-loop workloads.

    python3 perfbench/run.py --workload corpus-endpoint --seed 1 --seconds 10 --trace 0

Run from the repository root.  Each run:

1. generates its inputs from ``--seed`` before any timer starts (the
   serial reference records and the replay tables);
2. starts timed passes, each in a fresh interpreter (``client.py``), until
   ``--seconds`` have gone by since the first one started and the
   workload's minimum number of passes is done;
3. checks every record of every pass (``gate.py``) — a disagreement counts
   in ``failed`` and makes the exit code 1;
4. prints every pass's values, the run manifest and, as the last line, one
   JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, each the median
over the run's passes: ``records_per_s``, ``setup_s`` and ``peak_rss_mb``.
With ``--trace 1`` the run makes one untraced and one traced pass of the
same inputs, prints the per-layer ledger of the traced one and reports the
per-layer metrics (``ledger.PER_LAYER``); end-to-end numbers never come
from a traced pass.

``--corrupt`` flips one score of one seeded-random record of the last pass
before the gate sees it, to show that the gate catches it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import ledger
import workloads
from gate import Gate, record_key
from tracer import load_spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

#: Longest a single child process (input generation or one pass) may take.
CHILD_TIMEOUT = 150.0

END_TO_END = (("records_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _start(args: list[str]) -> subprocess.Popen:
    # Children write their chatter to our stderr: stdout's last line is the result.
    return subprocess.Popen(
        [sys.executable, *args],
        env=_child_env(),
        cwd=ROOT,
        stdout=sys.stderr,
        start_new_session=True,
    )


def _wait(procs: list[subprocess.Popen]) -> None:
    """Wait for every child; on a failure or timeout stop them all."""

    deadline = time.monotonic() + CHILD_TIMEOUT
    try:
        for proc in procs:
            code = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            if code != 0:
                raise RuntimeError(f"{' '.join(proc.args[1:3])} exited with {code}")
    finally:
        for proc in procs:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _manifest(workload: workloads.Workload, seed: int, seconds: int, trace: int, nproc: int) -> dict:
    import yaml

    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": nproc,
        "python": platform.python_version(),
        "pyyaml": yaml.__version__,
        "yaml_with_libyaml": bool(getattr(yaml, "__with_libyaml__", False)),
        "git_commit": _git_commit(),
        "parameters": workload.parameters(nproc),
    }


def _generate_inputs(workload: workloads.Workload, seed: int, work: str, nproc: int) -> None:
    """Write the run's serial reference records and replay tables under ``work``."""

    if not workload.serial_reference:
        return
    groups = [workload.models[index::nproc] for index in range(nproc)]
    procs = []
    for group in filter(None, groups):
        command = [os.path.join(HERE, "inputs.py"), "--workload", workload.name, "--seed", str(seed), "--out", work]
        procs.append(_start(command + ["--models", ",".join(group)]))
    _wait(procs)


def _run_pass(workload, seed: int, work: str, index: int, trace: int) -> dict:
    out = os.path.join(work, f"pass-{index}")
    command = [
        os.path.join(HERE, "client.py"),
        "--workload", workload.name,
        "--seed", str(seed),
        "--inputs", work,
        "--out", out,
        "--trace", str(trace),
    ]
    if workload.kind != "fleet":
        cache = out + ".cache.jsonl"
        open(cache, "w").close()
        command += ["--cache", cache]
    launched = time.monotonic()
    _wait([_start(command + ["--launched", repr(launched)])])
    with open(out + ".json", encoding="utf-8") as handle:
        result = json.load(handle)
    with open(out + ".records.jsonl", encoding="utf-8") as handle:
        result["record_list"] = [json.loads(line) for line in handle if line.strip()]
    result["spans_path"] = out + ".spans.json"
    return result


def _load_serial(workload, work: str) -> dict[tuple, dict] | None:
    if not workload.serial_reference:
        return None
    serial = {}
    for model in workload.models:
        with open(os.path.join(work, f"serial-{model}.jsonl"), encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    record = json.loads(line)
                    serial[record_key(record)] = record
    return serial


def _corrupt(records: list[dict], seed: int) -> str:
    victim = random.Random(seed).choice(records)
    victim["scores"]["unit_test"] = 1.0 - victim["scores"]["unit_test"]
    return f"{victim['model_name']}/{victim['problem_id']}"


def _pass_line(index: int, result: dict, traced: bool) -> str:
    rate = result["records"] / result["wall_s"]
    return (
        f"  pass {index}{' (traced)' if traced else '':9} records={result['records']} "
        f"wall_s={result['wall_s']:.4f} records_per_s={rate:.4f} setup_s={result['setup_s']:.4f} "
        f"peak_rss_mb={result['peak_rss_mb']:.1f} (client {result['client_rss_mb']:.1f}, "
        f"largest child {result['children_rss_mb']:.1f}) cpu_util={result['cpu_s'] / result['wall_s']:.4f} "
        f"input_load_s={result['input_s']:.4f}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true", help="corrupt one record to exercise the gate")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the library source is missing ({SRC}/repro); run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    # A termination request unwinds through the finally blocks, which stop
    # every child process group and remove the scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = workloads.WORKLOADS[args.workload]
    nproc = workloads.nproc()
    manifest = _manifest(workload, args.seed, args.seconds, args.trace, nproc)
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=WORK)
    try:
        started = time.monotonic()
        _generate_inputs(workload, args.seed, work, nproc)
        inputs_s = time.monotonic() - started

        passes: list[dict] = []
        measure_start = time.monotonic()
        if args.trace:
            for trace in (0, 1):
                passes.append(_run_pass(workload, args.seed, work, len(passes), trace))
        else:
            while len(passes) < workload.min_passes or time.monotonic() - measure_start < args.seconds:
                passes.append(_run_pass(workload, args.seed, work, len(passes), 0))
        measured_s = time.monotonic() - measure_start

        from repro.dataset.builder import build_dataset

        corrupted = _corrupt(passes[-1]["record_list"], args.seed) if args.corrupt else None
        gate = Gate(build_dataset(), args.seed, workloads.ORACLE_SAMPLE, _load_serial(workload, work))
        failed = 0
        for index, result in enumerate(passes):
            expected = [tuple(key) for key in result["expected"]]
            failed += gate.check(index, expected, result["record_list"])
        attempted = sum(len(result["expected"]) for result in passes)

        print(f"workload {workload.name} seed {args.seed}: inputs {inputs_s:.2f} s, "
              f"{len(passes)} passes in {measured_s:.2f} s")
        for index, result in enumerate(passes):
            print(_pass_line(index, result, bool(args.trace and index == 1)))
        manifest["yaml_loaders"] = passes[0]["yaml_loaders"]
        print("manifest " + json.dumps(manifest, sort_keys=True))
        print(f"gate: {attempted} requests, {failed} failed, {gate.oracle_checked} re-scored by the legacy "
              f"oracle{', serial records compared' if workload.serial_reference else ''}"
              f"{f', corrupted {corrupted}' if corrupted else ''}")
        for pass_index, key, message in gate.failures[:10]:
            print(f"  FAILED pass {pass_index} {key}: {message}")
        answers = hashlib.sha256()
        for record in passes[0]["record_list"]:
            answers.update(record["raw_response"].encode("utf-8") + b"\0")
        print(f"answers digest (changes with the seed): {answers.hexdigest()[:16]}")

        if args.trace:
            metrics, reconciled = _per_layer(workload, passes)
            if not reconciled:
                print("ledger: the layers do not reconcile to the traced wall and the process CPU")
                failed += 1
        else:
            values = {
                "records_per_s": [r["records"] / r["wall_s"] for r in passes],
                "setup_s": [r["setup_s"] for r in passes],
                "peak_rss_mb": [r["peak_rss_mb"] for r in passes],
            }
            metrics = {
                name: {"value": statistics.median(values[name]), "unit": unit} for name, unit in END_TO_END
            }
            for name, unit in END_TO_END:
                runs = ", ".join(f"{value:.4f}" for value in values[name])
                print(f"{name} = {metrics[name]['value']:.4f} {unit} (median of {len(values[name])}: {runs})")
        correct = failed == 0
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _per_layer(workload: workloads.Workload, passes: list[dict]) -> tuple[dict, bool]:
    untraced, traced = passes
    records = traced["record_list"]
    spans = ledger.span_ledger(load_spans(traced["spans_path"]), len(records))
    fleet = None
    if traced["event_log"]:
        fleet = ledger.fleet_ledger(
            traced["event_log"], traced["boot_submits"], records, traced["wall_s"], traced["fleet"]["workers"]
        )
    print(ledger.format_ledger(workload.name, spans, fleet))
    values = ledger.per_layer_metrics(spans, fleet, traced, untraced["wall_s"])
    units = {name: unit for name, unit, _better in ledger.PER_LAYER}
    for name in units:
        print(f"{name} = {values[name]:.6g} {units[name]}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}, ledger.reconciled(spans)


if __name__ == "__main__":
    sys.exit(main())

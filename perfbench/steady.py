"""Run the benchmark over several seeds and report how steady it is.

    python3 perfbench/steady.py --seeds 1-10 [--workloads corpus-endpoint,fleet-offload]

Runs ``run.py`` once per (workload, seed) with ``run_seconds`` from
``BENCHMARK.json``, prints every run's value of every end-to-end metric
(no run is dropped or re-run), and for each metric the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the quartile spread
as a share of the median, next to the metric's bound.  A spread above a
third of its bound is flagged, and so is a ``setup_s`` spread above its
whole bound (set-up is a few seconds of imports and boot, the noisiest
figure).  Exits 1 when a run fails or a spread is flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)

    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in _seeds(args.seeds):
            command = [*spec["command"], "--workload", workload, "--seed", str(seed)]
            command += ["--seconds", str(spec["run_seconds"]), "--trace", "0"]
            started = time.monotonic()
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=200)
            elapsed = time.monotonic() - started
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})\n{proc.stdout}{proc.stderr[-2000:]}")
                continue
            for line in lines[:-1]:
                if line.startswith("  pass") or line.startswith("workload"):
                    print(line)
            row = {name: result["metrics"][name]["value"] for name in bounds}
            for name, value in row.items():
                values[name].append(value)
            print(
                f"{workload} seed {seed}: " + " ".join(f"{k}={v:.4f}" for k, v in row.items()) + f" ({elapsed:.1f} s)",
                flush=True,
            )
        for name, series in values.items():
            if len(series) < 2:
                continue
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / statistics.median(series)
            flagged = spread > (bounds[name] if name == "setup_s" else bounds[name] / 3)
            ok = ok and not flagged
            print(
                f"{workload} {name}: n={len(series)} median={statistics.median(series):.4f} "
                f"q1={q1:.4f} q3={q3:.4f} spread={spread:.2%} bound={bounds[name]:.0%}"
                f"{' FLAGGED' if flagged else ''}",
                flush=True,
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

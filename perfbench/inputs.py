"""Generate a run's inputs from its seed, before any timer starts.

For each model given, writes the ``fleet-offload`` inputs over that
workload's problems:

* ``replay-<model>.json`` — the ``prompt -> response`` table the replay
  endpoint serves, recorded from the simulated model seeded with
  ``BenchmarkConfig(seed=...)``;
* ``serial-<model>.jsonl`` — the records of the in-process serial
  ``evaluate_model`` of that replay endpoint model, which the gate
  compares the fleet's records against.  A few problems of the corpus
  share their question text; the endpoint sees one prompt for them and
  replays the first answer, so the reference is the model the fleet
  queries rather than the simulated model.

    python3 perfbench/inputs.py --workload fleet-offload --seed 7 --out DIR --models gpt-4,llama-7b
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--models", required=True)
    args = parser.parse_args(argv)

    from repro.core import BenchmarkConfig, CloudEvalBenchmark
    from repro.dataset.builder import build_dataset
    from repro.llm.remote import ModelSpec, ReplayTransport
    from repro.pipeline.records import record_to_dict

    dataset = build_dataset()
    problems = workloads.WORKLOADS[args.workload].problems(dataset)
    bench = CloudEvalBenchmark(dataset, BenchmarkConfig(seed=args.seed))
    for model in args.models.split(","):
        resolved, requests = bench.requests(model, problems)
        table: dict[str, str] = {}
        for request in requests:
            answer = resolved.generate(request.problem, shots=request.shots, sample_index=request.sample_index)
            table.setdefault(request.prompt(), answer)
        with open(os.path.join(args.out, f"replay-{model}.json"), "w", encoding="utf-8") as handle:
            json.dump(table, handle)
        evaluation = bench.evaluate_model(ModelSpec(name=model, transport=ReplayTransport(table)).build(), problems)
        with open(os.path.join(args.out, f"serial-{model}.jsonl"), "w", encoding="utf-8") as handle:
            for record in evaluation.records:
                handle.write(json.dumps(record_to_dict(record)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

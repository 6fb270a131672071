"""The correctness gate every run passes through.

A request fails when any of these holds for it:

* it has no record, or more than one (records for requests nobody made
  count as failures too);
* its record is error-marked — a failed endpoint call or a degraded fleet
  slot both carry an ``error``;
* it is in the seeded oracle sample and the independent legacy scorer
  (``score_answer_legacy``, which re-derives every reference artifact
  from the raw YAML) disagrees on any numeric score;
* the workload has serial reference records and its record differs from
  the in-process serial record of the same model, problem and seed;
* an earlier pass of the same run produced a different record for it
  (every pass is deterministic, so passes must agree exactly).

Records are compared on every field except the measured
``generate_seconds``/``score_seconds``.
"""

from __future__ import annotations

import random
from collections import Counter

NUMERIC_SCORES = ("bleu", "edit_distance", "exact_match", "kv_exact", "kv_wildcard", "unit_test")
TIMING_FIELDS = ("generate_seconds", "score_seconds")


def record_key(record: dict) -> tuple:
    return (record["model_name"], record["problem_id"], record["shots"], record["sample_index"])


def comparable(record: dict) -> dict:
    return {field: value for field, value in record.items() if field not in TIMING_FIELDS}


def differing(expected: dict, actual: dict) -> str:
    """The fields (scores by name) on which two comparable records differ."""

    fields = []
    for field in sorted(set(expected) | set(actual)):
        if expected.get(field) == actual.get(field):
            continue
        if field == "scores":
            names = set(expected.get(field) or {}) | set(actual.get(field) or {})
            fields += [f"scores.{n}" for n in sorted(names) if expected[field].get(n) != actual[field].get(n)]
        else:
            fields.append(field)
    return ", ".join(fields)


class Gate:
    """Checks passes of one run; collects the failed request keys and why."""

    def __init__(self, dataset, seed: int, oracle_sample: int, serial: dict[tuple, dict] | None) -> None:
        self.dataset = dataset
        self.rng = random.Random(seed)
        self.oracle_sample = oracle_sample
        self.serial = serial
        self.first: dict[tuple, dict] | None = None
        self.failures: list[tuple[int, tuple, str]] = []
        self.oracle_checked = 0

    def check(self, pass_index: int, expected: list[tuple], records: list[dict]) -> int:
        """Check one pass; returns how many of its requests failed."""

        failed: dict[tuple, str] = {}
        expected_keys = Counter(expected)
        counts = Counter(record_key(record) for record in records)
        for key in expected_keys:
            if counts[key] != 1 or expected_keys[key] != 1:
                failed[key] = f"{counts[key]} records for the request"
        for key in counts:
            if key not in expected_keys:
                failed[key] = "record for a request that was never made"

        by_key = {record_key(record): record for record in records}
        for key, record in by_key.items():
            if record["error"]:
                failed.setdefault(key, f"error-marked record: {record['error']}")
            if self.serial is not None:
                reference = self.serial.get(key)
                if reference is None:
                    failed.setdefault(key, "no in-process serial record")
                elif comparable(reference) != comparable(record):
                    diff = differing(comparable(reference), comparable(record))
                    failed.setdefault(key, f"differs from the in-process serial record on {diff}")
            if self.first is not None and key in self.first:
                if comparable(self.first[key]) != comparable(record):
                    diff = differing(comparable(self.first[key]), comparable(record))
                    failed.setdefault(key, f"differs from the same run's first pass on {diff}")
        if self.first is None:
            self.first = by_key
            for key, message in self._oracle(by_key).items():
                failed.setdefault(key, message)
        self.failures.extend((pass_index, key, message) for key, message in failed.items())
        return len(failed)

    def _oracle(self, by_key: dict[tuple, dict]) -> dict[tuple, str]:
        from repro.scoring.aggregate import score_answer_legacy

        keys = sorted(by_key)
        sample = self.rng.sample(keys, min(self.oracle_sample, len(keys)))
        failed = {}
        for key in sample:
            record = by_key[key]
            problem = self.dataset.get(record["problem_id"])
            card = score_answer_legacy(problem, record["raw_response"], run_unit_tests=True)
            wrong = [
                name for name in NUMERIC_SCORES if getattr(card, name) != record["scores"][name]
            ]
            if wrong:
                failed[key] = f"legacy oracle disagrees on {', '.join(wrong)}"
        self.oracle_checked += len(sample)
        return failed

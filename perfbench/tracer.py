"""Spans around the library's public layer functions, recorded from outside.

The traced pass wraps the public functions of each layer (the names the
library's own modules call them by) in spans.  A span records its name,
start and end (``perf_counter``), the thread CPU time it consumed, its
parent span, the record (problem id) it worked for, its thread, and
whether the call raised.  Spans are kept in memory and written out once,
when the pass ends, so tracing costs one list append per call.

Beside the spans, the pass span records the process CPU time it covered
and the CPU time of every live thread (from ``/proc``) at its start and
end: the ledger checks the spans against them, so CPU spent on a thread
or code path that no span covers shows as a gap.

Nothing under ``src/`` knows about tracing: :meth:`Tracer.install`
replaces attributes on the library's modules and classes for the life of
the (fresh, single-pass) interpreter.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable

#: Span name of a reference compile; calls that happen *inside* a compile
#: (tokenizing, line splitting, normalising the reference) belong to it.
COMPILE = "scoring.compile"


def _problem_of_arg(index: int) -> Callable[[tuple, dict], str | None]:
    def get(args: tuple, kwargs: dict) -> str | None:
        value = args[index] if len(args) > index else None
        return getattr(value, "problem_id", None)

    return get


def _request_problem(args: tuple, kwargs: dict) -> str | None:
    return getattr(getattr(args[0], "problem", None), "problem_id", None)


#: (module, attribute path, span name, record-id getter, skip inside a compile)
LAYER_FUNCTIONS: tuple[tuple[str, str, str, Callable | None, bool], ...] = (
    ("repro.pipeline.pipeline", "EvaluationPipeline.prepare_batch", "pipeline.prepare", None, False),
    ("repro.llm.remote", "RemoteEndpointModel.generate", "llm.endpoint", _problem_of_arg(1), False),
    ("repro.llm.simulated", "SimulatedModel.generate", "llm.generate", _problem_of_arg(1), False),
    ("repro.llm.interface", "GenerationRequest.prompt", "llm.prompt", _request_problem, False),
    ("repro.pipeline.stages", "extract_yaml", "postprocess.extract", None, False),
    ("repro.scoring.compiled", "compile_reference", COMPILE, _problem_of_arg(0), False),
    ("repro.pipeline.stages", "score_extracted", "scoring.score", _problem_of_arg(0), False),
    ("repro.scoring.compiled", "load_all_documents", "yamlkit.parse", None, False),
    ("repro.scoring.compiled", "yaml_tokenize", "mlkit.bleu", None, True),
    ("repro.scoring.compiled", "sentence_bleu_compiled", "mlkit.bleu", None, False),
    ("repro.scoring.compiled", "significant_lines", "yamlkit.edit_distance", None, True),
    ("repro.scoring.compiled", "scaled_edit_similarity_lines", "yamlkit.edit_distance", None, False),
    ("repro.scoring.compiled", "normalize_text", "scoring.exact", None, True),
    ("repro.scoring.compiled", "key_value_exact_match_docs", "scoring.kv_exact", None, False),
    ("repro.scoring.compiled", "key_value_wildcard_match_docs", "scoring.kv_wildcard", None, False),
    ("repro.scoring.compiled", "execute_unit_test", "testexec.unit_test", None, False),
    ("repro.kubesim.kubectl", "Kubectl.apply_parsed", "kubesim.apply", None, False),
    ("repro.scoring.cache", "ScoreCache.__init__", "scoring.cache_load", None, False),
    ("repro.scoring.cache", "ScoreCache.get", "scoring.cache_get", None, False),
    ("repro.scoring.cache", "ScoreCache.put_batch", "scoring.cache_put", None, False),
    ("repro.evalcluster.cost", "CostModel.predict_problems_seconds", "evalcluster.cost_predict", None, False),
    ("repro.evalcluster.fleet", "FleetExecutor.map", "evalcluster.fleet_map", None, False),
    ("repro.evalcluster.fleet", "RemoteStore.call", "evalcluster.store_call", None, False),
)

ROOT = "pass"

# Field order of one recorded span.
FIELDS = ("id", "name", "parent", "record", "thread", "start", "end", "cpu", "error")

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def thread_cpu() -> dict[int, tuple[str, float]]:
    """Native thread id -> (thread name, CPU seconds so far) for every live thread."""

    found = {}
    for thread in threading.enumerate():
        try:
            with open(f"/proc/self/task/{thread.native_id}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # the thread ended meanwhile
        # utime and stime, fields 14 and 15 of stat(5), once pid and name are cut off.
        found[thread.native_id] = (thread.name, (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS)
    return found


class _Open:
    __slots__ = ("id", "name", "record")

    def __init__(self, span_id: int, name: str, record: str | None) -> None:
        self.id = span_id
        self.name = name
        self.record = record


class Tracer:
    """In-memory span recorder with one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: _Open | None = None
        self.process_cpu = 0.0
        self.threads: list[dict] = []
        # Native thread id -> (name, thread CPU time when its latest span
        # ended), so that a thread which ends during the pass, out of
        # ``/proc``'s sight, still counts up to its last span.
        self._seen: dict[int, tuple[str, float]] = {}

    def _stack(self) -> list[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, record: str | None = None):
        stack = self._stack()
        if stack:
            parent: _Open | None = stack[-1]
        else:
            # A span opened on a thread with nothing open (a scheduler
            # generator thread) belongs to the pass that started it.
            parent = self._root
        if record is None and parent is not None:
            record = parent.record
        current = _Open(next(self._ids), name, record)
        stack.append(current)
        error = False
        cpu0 = time.thread_time()
        start = time.perf_counter()
        try:
            yield current
        except BaseException:
            error = True
            raise
        finally:
            end = time.perf_counter()
            cpu1 = time.thread_time()
            stack.pop()
            thread = threading.get_native_id()
            self._seen[thread] = (threading.current_thread().name, cpu1)
            self.spans.append(
                (
                    current.id,
                    name,
                    parent.id if parent is not None else None,
                    record,
                    thread,
                    start,
                    end,
                    cpu1 - cpu0,
                    error,
                )
            )

    @contextmanager
    def root(self):
        """The span of the timed pass; every layer span descends from it."""

        threads0 = thread_cpu()
        cpu0 = time.process_time()
        with self.span(ROOT) as current:
            self._root = current
            try:
                yield current
            finally:
                self._root = None
        self.process_cpu = time.process_time() - cpu0
        # A thread started during the pass counts from zero.  One that ended
        # during it counts up to the end of its last span; the rest of its
        # CPU, and all of it when it ran no span, shows as unaccounted.
        threads1 = thread_cpu()
        for native_id, seen in self._seen.items():
            threads1.setdefault(native_id, seen)
        self.threads = [
            {"id": native_id, "name": name, "cpu": cpu - threads0.get(native_id, (name, 0.0))[1]}
            for native_id, (name, cpu) in threads1.items()
        ]

    def wrap(
        self,
        function: Callable,
        name: str,
        record_of: Callable[[tuple, dict], str | None] | None,
        skip_in_compile: bool,
    ) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            if skip_in_compile and stack and stack[-1].name == COMPILE:
                return function(*args, **kwargs)
            record = record_of(args, kwargs) if record_of is not None else None
            with tracer.span(name, record):
                return function(*args, **kwargs)

        return traced

    def install(self) -> "Tracer":
        """Wrap every layer function in :data:`LAYER_FUNCTIONS`."""

        for module_name, path, name, record_of, skip in LAYER_FUNCTIONS:
            owner: Any = importlib.import_module(module_name)
            *owners, attribute = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            setattr(owner, attribute, self.wrap(original, name, record_of, skip))
        return self

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            payload = {"fields": FIELDS, "spans": self.spans, "process_cpu": self.process_cpu, "threads": self.threads}
            json.dump(payload, handle)


def load_spans(path: str) -> dict:
    """The dumped trace: ``spans`` as dicts, ``process_cpu`` and ``threads``."""

    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    fields = payload.pop("fields")
    payload["spans"] = [dict(zip(fields, row)) for row in payload["spans"]]
    return payload

"""Per-layer tracing for the benchmark, done from outside the program.

The wrappers below replace public functions and methods of ``repro`` for the
length of one traced run and restore them afterwards; nothing under ``src/``
knows about them.  A *span* wrapper records ``(name, start, end, parent)``
for every call into an in-memory list; a *count* wrapper only counts calls
(and, for predicates, how many returned true), for the hot per-row functions
where a span per call would cost more than the work it measures.

A layer's self time is the sum of its spans' durations minus the time its
child spans cover, so nested layers (a violation sweep inside a chase step
inside a service pump) are never counted twice.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from typing import Callable, Dict, List, Sequence, Tuple

#: (layer, module, attribute path, kind).  ``kind`` is ``span``, ``count``
#: (calls), ``count_true`` (calls and truthy results) or ``count_len``
#: (calls and summed ``len`` of the result, for byte strings).
#: A module-level function is patched where its *caller* looked it up, since
#: ``from x import f`` copies the reference into the calling module.
WRAPPED: Sequence[Tuple[str, str, str, str]] = (
    # service: the repository's public surface
    ("service", "repro.service.repository", "RepositoryService.submit", "span"),
    ("service", "repro.service.repository", "RepositoryService.pump", "span"),
    ("service", "repro.service.repository", "RepositoryService.answer", "span"),
    # concurrency: scheduling glue, dependency tracking, conflicts, aborts
    ("concurrency.schedule", "repro.concurrency.optimistic", "OptimisticScheduler.pump", "span"),
    ("concurrency.track", "repro.concurrency.dependencies", "PreciseTracker.dependencies", "span"),
    ("concurrency.conflict_check", "repro.concurrency.optimistic", "find_direct_conflicts", "span"),
    ("concurrency.abort", "repro.concurrency.optimistic", "OptimisticScheduler._abort", "span"),
    # core: the chase step's stages
    ("core.detect", "repro.concurrency.execution", "violations_for_writes", "span"),
    ("core.revalidate", "repro.core.planner", "RepairPlanner.refresh_queue", "span"),
    ("core.plan", "repro.core.planner", "RepairPlanner.next_deterministic_writes", "span"),
    ("core.plan", "repro.core.planner", "RepairPlanner.build_request", "span"),
    ("core.still_holds", "repro.core.violations", "Violation.still_holds", "count_true"),
    # query: conjunctive matching
    ("query.find_matches", "repro.query.compiled", "CompiledConjunction.find_matches", "count"),
    ("query.atom_matches", "repro.core.atoms", "Atom.match", "count"),
    # storage: the multiversion store and its durable mirror
    ("storage.apply", "repro.storage.versioned", "VersionedDatabase.apply_writes", "span"),
    ("storage.rollback", "repro.storage.versioned", "VersionedDatabase.rollback", "span"),
    ("storage.compact", "repro.storage.versioned", "VersionedDatabase.compact_below", "span"),
    ("storage.more_specific", "repro.storage.versioned", "VersionedView.more_specific_tuples", "span"),
    ("storage.durable_append", "repro.storage.durable", "WriteLogSegments._append_records", "span"),
    ("storage.durable_bytes", "repro.storage.durable", "dumps", "count_len"),
    # codec: envelope encoding on the in-process byte transport
    ("codec.encode", "repro.federation.transport", "encode_envelope", "span"),
    ("codec.decode", "repro.federation.transport", "decode_envelope", "span"),
    # federation: exchange, transport, network glue, socket coordinator
    ("federation.exchange", "repro.federation.peer", "envelopes_for_commit", "span"),
    ("federation.exchange", "repro.federation.peer", "coalesce_envelopes", "span"),
    ("federation.exchange", "repro.federation.network", "_coalesce_batch", "span"),
    ("federation.transport", "repro.federation.transport", "Transport.send", "span"),
    ("federation.transport", "repro.federation.transport", "Transport.pump", "span"),
    ("federation.network", "repro.federation.network", "FederatedNetwork.submit", "span"),
    ("federation.network", "repro.federation.network", "FederatedNetwork.pump", "span"),
    ("federation.network", "repro.federation.network", "FederatedNetwork.answer", "span"),
    ("federation.coordinator", "repro.federation.process_network", "ProcessFederation.submit", "span"),
    ("federation.coordinator", "repro.federation.process_network", "ProcessFederation.poll", "span"),
    ("federation.coordinator", "repro.federation.process_network", "ProcessFederation.answer", "span"),
    ("federation.coordinator", "repro.federation.process_network", "ProcessFederation.drain", "span"),
)


class SpanRecorder:
    """Spans kept in memory as ``(name, start, end, parent index)`` rows."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: One row per finished span: [name id, start, end, parent index].
        self.spans: List[List[float]] = []
        self._stack: List[int] = []
        self.calls: Dict[str, int] = {}
        self.truthy: Dict[str, int] = {}
        self.lengths: Dict[str, int] = {}

    def name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def self_seconds(self) -> Dict[str, float]:
        """Per-layer self time: span time minus child-span time."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[int(parent)] += end - start
        totals: Dict[str, float] = {name: 0.0 for name in self.names}
        for index, (name_id, start, end, _) in enumerate(self.spans):
            name = self.names[int(name_id)]
            totals[name] += (end - start) - child_time[index]
        return totals

    def write_jsonl(self, path: str) -> None:
        """Write every span as one JSON line (names resolved)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            for index, (name_id, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index,
                    "name": self.names[int(name_id)],
                    "start": start,
                    "end": end,
                    "parent": int(parent) if parent >= 0 else None,
                }) + "\n")


def _span_wrapper(recorder: SpanRecorder, name: str, original: Callable) -> Callable:
    name_id = recorder.name_id(name)
    spans = recorder.spans
    stack = recorder._stack
    clock = recorder.clock

    def wrapper(*args, **kwargs):
        # The slot is reserved before the call so children (which finish
        # first) can already point at their parent's final index.
        index = len(spans)
        row = [name_id, clock(), 0.0, stack[-1] if stack else -1]
        spans.append(row)
        stack.append(index)
        try:
            return original(*args, **kwargs)
        finally:
            stack.pop()
            row[2] = clock()

    return wrapper


def _count_wrapper(recorder: SpanRecorder, name: str, original: Callable, kind: str) -> Callable:
    calls = recorder.calls
    truthy = recorder.truthy
    lengths = recorder.lengths
    calls[name] = 0
    if kind == "count":
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
    elif kind == "count_true":
        truthy[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = original(*args, **kwargs)
            if result:
                truthy[name] += 1
            return result
    else:
        lengths[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = original(*args, **kwargs)
            lengths[name] += len(result) + 1  # the record's newline
            return result
    return wrapper


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class LayerTracer:
    """Installs the wrappers of :data:`WRAPPED`; restores them on uninstall."""

    def __init__(self):
        self.recorder = SpanRecorder()
        self._saved: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        for layer, module_name, path, kind in WRAPPED:
            owner, attribute = _resolve(module_name, path)
            original = getattr(owner, attribute)
            if kind == "span":
                wrapped = _span_wrapper(self.recorder, layer, original)
            else:
                wrapped = _count_wrapper(self.recorder, layer, original, kind)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

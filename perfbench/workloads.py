"""The four benchmark workloads: inputs, systems, the closed loop, checks.

All load is closed-loop and comes from this one single-threaded process.
Each logical client keeps one update outstanding and, once it completes,
thinks for one loop iteration before submitting its next one.  Frontier
questions are answered with a fixed strategy one loop iteration after they
appear.  One loop iteration is: due submissions, one ``pump()`` (or one
``poll()`` of the socket coordinator), completed tickets noted, due answers.

Each workload's store, mappings and operations are one draw of the
repository's generators from ``DATA_SEED``; README.md says why the traffic
is fixed and why each workload exists.
"""

from __future__ import annotations

import functools
import itertools
import os
import resource
import shutil
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.violations import satisfies_all
from repro.federation import (
    FederatedNetwork,
    ProcessFederation,
    Transport,
    check_convergence,
    databases_equivalent,
    reference_chase,
)
from repro.service import RepositoryService
from repro.workload import (
    INSERT_WORKLOAD,
    MIXED_WORKLOAD,
    ExperimentConfig,
    build_environment,
    build_workload,
    conservative_answer,
)
from repro.workload.federated_loop import expanding_answer
from repro.workload.federation_gen import (
    FederationScenarioConfig,
    generate_federation_environment,
)

#: Every workload's store, mappings and operations are one draw of the
#: repository's generators from this seed (the experiment harness default).
DATA_SEED = 2009

#: Loop iterations a client thinks between updates, and a question waits
#: before it is answered.
THINK_ITERATIONS = 1
ANSWER_DELAY_ITERATIONS = 1

#: Seconds within which an episode must commit every update and drain;
#: updates still outstanding then count as failed.
EPISODE_DEADLINE_SECONDS = 60.0

#: How long one socket-coordinator poll may block waiting for peer events
#: when the loop itself has nothing due next iteration.
POLL_TIMEOUT_SECONDS = 0.05

#: Working files (durable segments, peer sockets) live under the checkout.
WORK_DIR = os.path.join(".perfbench", "work")


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    """Everything a workload's system is built from."""

    #: One operation stream per client, in submission order.
    streams: List[list]
    #: The peer each client submits at (``None`` for the single repository).
    client_peers: List[Optional[str]]
    environment: object
    mappings: list


def _repo_inputs(config: ExperimentConfig, kind: str, clients: int) -> Inputs:
    environment = build_environment(config, seed=DATA_SEED)
    operations = build_workload(environment, kind, DATA_SEED)
    streams = [operations[index::clients] for index in range(clients)]
    return Inputs(streams, [None] * clients, environment, list(environment.mappings))


def _federation_inputs(config: FederationScenarioConfig, per_peer: int) -> Inputs:
    environment = generate_federation_environment(config)
    streams: List[list] = []
    client_peers: List[Optional[str]] = []
    for peer in sorted(environment.operations):
        operations = environment.operations[peer]
        for index in range(per_peer):
            streams.append(operations[index::per_peer])
            client_peers.append(peer)
    return Inputs(streams, client_peers, environment, list(environment.mappings))


# ----------------------------------------------------------------------
# Systems: one adapter per flavour, all driven by the same closed loop
# ----------------------------------------------------------------------
class RepoSystem:
    """One :class:`RepositoryService`; clients are sessions."""

    answer_strategy = staticmethod(conservative_answer)

    def __init__(self, inputs: Inputs, durable: bool):
        self.inputs = inputs
        self.durable_dir = None
        if durable:
            self.durable_dir = _fresh_work_dir("durable")
        self.service = RepositoryService(
            inputs.environment.initial,
            inputs.mappings,
            tracker="PRECISE",
            durable_dir=self.durable_dir,
        )
        self.sessions = [
            self.service.open_session("client{}".format(index))
            for index in range(len(inputs.streams))
        ]
        self._answerer = 0

    def submit(self, client: int, operation):
        return self.service.submit(self.sessions[client].session_id, operation)

    def advance(self, may_block: bool) -> None:
        self.service.pump()

    def open_questions(self):
        return [(question.decision_id, None, question) for question in self.service.inbox()]

    def answer(self, inbox, question) -> None:
        # Round-robin answerers: usually not the client that asked.
        session = self.sessions[self._answerer % len(self.sessions)]
        self._answerer += 1
        self.service.answer(session.session_id, question.decision_id, self.answer_strategy(question))

    def drain(self, deadline: float) -> None:
        pass

    def snapshot(self):
        return self.service.snapshot()

    def counters(self) -> Dict[str, float]:
        statistics = self.service.statistics
        return {
            "steps": statistics.steps,
            "aborts": statistics.aborts,
            "cascading_abort_requests": statistics.cascading_abort_requests,
            "executions": statistics.updates_executed,
            "commits": self.service.metrics.committed,
            "queue_wait_p50_s": self.service.metrics.queue_waits.percentile(0.5),
        }

    def close(self) -> None:
        if self.durable_dir is not None:
            shutil.rmtree(self.durable_dir, ignore_errors=True)


class _FederationSystem:
    """What both federation flavours share: ``self.network`` speaks the
    :class:`FederatedNetwork` surface (``ProcessFederation`` shadows it)."""

    answer_strategy = staticmethod(expanding_answer)

    def submit(self, client: int, operation):
        return self.network.submit(self.inputs.client_peers[client], operation)

    def open_questions(self):
        return [
            ((peer, question.key), peer, question)
            for peer in self.network.peer_names()
            for question in self.network.inbox(peer)
        ]

    def answer(self, inbox, question) -> None:
        self.network.answer(inbox, question, self.answer_strategy(question))

    def snapshot(self):
        return self.network.global_snapshot()


class InProcessFederationSystem(_FederationSystem):
    """A :class:`FederatedNetwork` over the byte (wire-codec) transport."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        environment = inputs.environment
        self.network = FederatedNetwork(
            environment.schema,
            environment.initial,
            inputs.mappings,
            environment.ownership,
            transport=Transport(wire=True),
        )
        self.drain_rounds = 0

    def advance(self, may_block: bool) -> None:
        self.network.pump()

    def drain(self, deadline: float) -> None:
        self.drain_rounds = self.network.run_until_quiescent(
            answer_strategy=self.answer_strategy
        )

    def counters(self) -> Dict[str, float]:
        totals = {"steps": 0, "aborts": 0, "cascading_abort_requests": 0, "executions": 0, "commits": 0}
        waits: List[float] = []
        for peer in self.network.peers():
            statistics = peer.service.statistics
            totals["steps"] += statistics.steps
            totals["aborts"] += statistics.aborts
            totals["cascading_abort_requests"] += statistics.cascading_abort_requests
            totals["executions"] += statistics.updates_executed
            totals["commits"] += peer.service.metrics.committed
            waits.append(peer.service.metrics.queue_waits.percentile(0.5))
        transport = self.network.transport
        totals.update({
            "queue_wait_p50_s": max(waits),
            "wire_bytes": transport.wire_bytes_sent,
            "frames": transport.sent,
            "payloads": transport.payloads_sent,
            "deliveries_deferred": self.network.deliveries_deferred,
            "drain_rounds": self.drain_rounds,
        })
        return totals

    def close(self) -> None:
        pass


class SocketFederationSystem(_FederationSystem):
    """A :class:`ProcessFederation`: one OS process per peer over UDS."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        environment = inputs.environment
        self.workdir = _fresh_work_dir("sockets")
        self.children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
        self.started = time.perf_counter()
        try:
            self.network = ProcessFederation(
                environment.schema,
                environment.initial,
                inputs.mappings,
                environment.ownership,
                transport="unix",
                workdir=self.workdir,
                trace=False,
            )
        except BaseException:
            # The federation already stopped whatever peers it started.
            shutil.rmtree(self.workdir, ignore_errors=True)
            raise
        self.drain_rounds = 0
        self.peer_cpu_s = 0.0
        self.peer_wall_s = 0.0
        self._closed = False

    def advance(self, may_block: bool) -> None:
        self.network.poll(POLL_TIMEOUT_SECONDS if may_block else 0.0)

    def drain(self, deadline: float) -> None:
        self.drain_rounds = self.network.drain(
            answer_strategy=self.answer_strategy,
            timeout=max(1.0, deadline - time.perf_counter()),
        )

    def counters(self) -> Dict[str, float]:
        totals = {
            "steps": 0, "aborts": 0, "cascading_abort_requests": 0, "executions": 0,
            "commits": 0, "frames": 0, "payloads": 0, "deliveries_deferred": 0,
        }
        waits: List[float] = []
        for status in self.network.metrics().values():
            metrics = status["metrics"]
            totals["steps"] += metrics["scheduler_steps"]
            totals["aborts"] += metrics["scheduler_aborts"]
            totals["cascading_abort_requests"] += metrics["scheduler_cascading_abort_requests"]
            totals["executions"] += metrics["scheduler_updates_executed"]
            totals["commits"] += status["committed"]
            totals["frames"] += sum(status["sent"].values())
            totals["payloads"] += status["payloads_received"]
            totals["deliveries_deferred"] += status["deliveries_deferred"]
            waits.append(metrics.get("queue_wait_p50_seconds", 0.0))
        totals["queue_wait_p50_s"] = max(waits) if waits else 0.0
        totals["drain_rounds"] = self.drain_rounds
        return totals

    def close(self) -> None:
        """Stop and reap the peers; measure their CPU from outside."""
        if self._closed:
            return
        self._closed = True
        try:
            self.network.close()
            self.network.assert_reaped()
        finally:
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            self.peer_wall_s = time.perf_counter() - self.started
            self.peer_cpu_s = (
                after.ru_utime - self.children_before.ru_utime
                + after.ru_stime - self.children_before.ru_stime
            )
            shutil.rmtree(self.workdir, ignore_errors=True)


_WORK_DIRS = itertools.count()


def _fresh_work_dir(kind: str) -> str:
    # Relative on purpose: Unix socket paths are limited to ~100 bytes, and
    # the peers inherit this process's working directory.
    path = os.path.join(WORK_DIR, "{}-{}-{}".format(kind, os.getpid(), next(_WORK_DIRS)))
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
@dataclass
class LoopResult:
    """What one closed-loop episode observed from outside the system."""

    #: Submit-to-done seconds of every committed user update.
    turnarounds: List[float] = field(default_factory=list)
    attempted: int = 0
    committed: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: First submission to drained, seconds.
    wall_s: float = 0.0
    #: Last ticket done to quiescence confirmed, seconds.
    drain_s: float = 0.0
    #: This process's CPU seconds over the episode (``time.process_time``).
    cpu_s: float = 0.0


def closed_loop(system, streams: Sequence[list]) -> LoopResult:
    """Drive *system* with one client per stream until every stream is done.

    The loop then drains the system.  Updates still outstanding
    ``EPISODE_DEADLINE_SECONDS`` after the start count as failed, as do
    updates outstanding when the system raises; the error text is kept.
    """
    result = LoopResult()
    cursor = [0] * len(streams)
    outstanding: List[Optional[tuple]] = [None] * len(streams)
    thinking = [0] * len(streams)
    asked: Dict[object, int] = {}
    cpu_started = time.process_time()
    started = time.perf_counter()
    deadline = started + EPISODE_DEADLINE_SECONDS
    iteration = 0
    last_done = started
    try:
        while True:
            iteration += 1
            for client, stream in enumerate(streams):
                if outstanding[client] is not None or cursor[client] >= len(stream):
                    continue
                if thinking[client]:
                    thinking[client] -= 1
                    continue
                operation = stream[cursor[client]]
                cursor[client] += 1
                result.attempted += 1
                submitted_at = time.perf_counter()
                outstanding[client] = (system.submit(client, operation), submitted_at)
            # Block for peer events only when no client or answer is due
            # next iteration, so waiting never delays the load itself.
            system.advance(may_block=not asked and not any(thinking))
            now = time.perf_counter()
            for client, entry in enumerate(outstanding):
                if entry is None or not entry[0].is_done:
                    continue
                ticket, submitted_at = entry
                outstanding[client] = None
                thinking[client] = THINK_ITERATIONS
                last_done = now
                if ticket.status.value == "committed":
                    result.committed += 1
                    result.turnarounds.append(now - submitted_at)
                else:
                    result.failed += 1
                    result.errors.append("update ended {}".format(ticket.status.value))
            open_keys = set()
            for key, inbox, question in system.open_questions():
                open_keys.add(key)
                asked_at = asked.setdefault(key, iteration)
                if iteration - asked_at >= ANSWER_DELAY_ITERATIONS:
                    system.answer(inbox, question)
                    del asked[key]
            for key in [key for key in asked if key not in open_keys]:
                del asked[key]  # cancelled by an abort-restart
            if all(entry is None for entry in outstanding) and all(
                position >= len(stream) for position, stream in zip(cursor, streams)
            ):
                break
            if now > deadline:
                raise TimeoutError(
                    "updates still outstanding after {:.0f}s".format(EPISODE_DEADLINE_SECONDS)
                )
        system.drain(deadline)
        result.drain_s = time.perf_counter() - last_done
    except Exception as error:  # the episode is reported failed, never hangs
        result.errors.append("{}: {}".format(type(error).__name__, error))
        result.failed += sum(1 for entry in outstanding if entry is not None)
    result.wall_s = time.perf_counter() - started
    result.cpu_s = time.process_time() - cpu_started
    return result


# ----------------------------------------------------------------------
# Workload definitions
# ----------------------------------------------------------------------
@dataclass
class Workload:
    name: str
    #: ``make_inputs(size)`` with size ``full`` (measured) or ``tiny`` (smoke).
    make_inputs: Callable[[str], Inputs]
    make_system: Callable[[Inputs], object]
    #: ``make_check(inputs)`` gives one run's ``check(system, snapshot)``,
    #: which returns "" or what is wrong with an episode's output.
    make_check: Callable[[Inputs], Callable[[object, object], str]]


#: One episode's inputs per workload and size.  Episodes are short enough
#: that a run repeats each several times and reports medians.
REPO_INSERT = {
    "full": (ExperimentConfig(num_relations=20, max_mappings=25, num_initial_tuples=1500,
                              num_updates=8 * 25), 8),
    "tiny": (ExperimentConfig(num_relations=8, max_mappings=10, num_initial_tuples=60,
                              num_updates=8 * 4), 8),
}
REPO_CONTENDED = {
    "full": (ExperimentConfig(num_relations=20, max_mappings=25, num_initial_tuples=120,
                              num_updates=16 * 13), 16),
    "tiny": (ExperimentConfig(num_relations=8, max_mappings=10, num_initial_tuples=40,
                              num_updates=16 * 2), 16),
}
FEDERATION = {
    "full": FederationScenarioConfig(num_peers=2, cross_mappings=10, relations_per_peer=5,
                                     initial_tuples=1200, operations_per_peer=250, seed=DATA_SEED),
    "tiny": FederationScenarioConfig(num_peers=2, cross_mappings=4, relations_per_peer=4,
                                     initial_tuples=40, operations_per_peer=8, seed=DATA_SEED),
}
#: Clients (outstanding operations) per federation peer.
CLIENTS_PER_PEER = 2


def _passed_once(make_check):
    """Wrap *make_check* so a snapshot identical to one that already passed
    passes without being checked again (in-process episodes repeat exactly)."""

    def make(inputs: Inputs):
        check = make_check(inputs)
        passed = set()

        def checked(system, snapshot) -> str:
            key = frozenset(
                (relation, frozenset(snapshot.tuples(relation)))
                for relation in snapshot.relations()
            )
            if key in passed:
                return ""
            problem = check(system, snapshot)
            if not problem:
                passed.add(key)
            return problem

        return checked

    return make


@_passed_once
def _repo_check(inputs: Inputs):
    def check(system: RepoSystem, snapshot) -> str:
        if not satisfies_all(inputs.mappings, snapshot):
            return "committed snapshot violates a mapping"
        return ""

    return check


def _all_operations(inputs: Inputs) -> List:
    """Every client's operations, interleaved round-robin across clients."""
    merged = []
    for position in range(max(len(stream) for stream in inputs.streams)):
        for stream in inputs.streams:
            if position < len(stream):
                merged.append(stream[position])
    return merged


@_passed_once
def _inprocess_check(inputs: Inputs):
    environment = inputs.environment

    @functools.lru_cache(maxsize=None)
    def reference():
        return reference_chase(
            environment.schema, environment.initial, inputs.mappings, _all_operations(inputs)
        )

    def check(system: InProcessFederationSystem, snapshot) -> str:
        report = check_convergence(system.network, reference())
        return "" if report.equivalent else report.summary()

    return check


@_passed_once
def _socket_check(inputs: Inputs):
    # The differential oracle: the same operations, run once through the
    # in-process federation, must reach an equivalent global state.
    @functools.lru_cache(maxsize=None)
    def replayed():
        replay = InProcessFederationSystem(inputs)
        loop = closed_loop(replay, inputs.streams)
        if loop.errors:
            raise RuntimeError("in-process replay failed: {}".format(loop.errors[0]))
        return replay.snapshot()

    def check(system: SocketFederationSystem, snapshot) -> str:
        if not databases_equivalent(snapshot, replayed()):
            return "socket federation diverged from the in-process federation"
        return ""

    return check


def workload(name: str) -> Workload:
    for candidate in WORKLOADS:
        if candidate.name == name:
            return candidate
    raise KeyError(name)


WORKLOADS = [
    Workload(
        "repo-insert",
        lambda size: _repo_inputs(REPO_INSERT[size][0], INSERT_WORKLOAD, REPO_INSERT[size][1]),
        lambda inputs: RepoSystem(inputs, durable=False),
        _repo_check,
    ),
    Workload(
        "repo-contended",
        lambda size: _repo_inputs(REPO_CONTENDED[size][0], MIXED_WORKLOAD, REPO_CONTENDED[size][1]),
        lambda inputs: RepoSystem(inputs, durable=True),
        _repo_check,
    ),
    Workload(
        "fed-inproc",
        lambda size: _federation_inputs(FEDERATION[size], CLIENTS_PER_PEER),
        InProcessFederationSystem,
        _inprocess_check,
    ),
    Workload(
        "fed-socket",
        lambda size: _federation_inputs(FEDERATION[size], CLIENTS_PER_PEER),
        SocketFederationSystem,
        _socket_check,
    ),
]

"""The federated network: every peer in one process, over a simulated transport.

A :class:`FederatedNetwork` is the in-process driver of the peer runtime
(:mod:`repro.federation.peer`).  Every peer runs its own full update-exchange
service over the relations it owns, and the tgd mappings that link peers are
driven by commit-time exchange over a simulated
:class:`~repro.federation.transport.Transport`:

* a user operation submitted at a peer executes at the *owner* of its target
  relation — locally, or routed as a :class:`~repro.federation.envelopes.RemoteUpdate`
  through the owner's admission queue;
* when an update commits, its writes fire the cross-peer mappings whose LHS
  the committing peer owns; the resulting head firings (and, for deletions,
  retractions) travel as envelopes and are re-submitted at the destination;
* frontier questions raised while chasing a forwarded update are routed back
  to the *originating* peer's federated inbox, answered there, and the answer
  travels back to resume the parked update;
* :meth:`FederatedNetwork.quiescent` holds when the transport is empty and
  every peer is idle, at which point the union of the peers' committed
  stores is a chase fixpoint of the union mapping set (differentially tested
  against the single-repository engine in
  :mod:`repro.federation.convergence`).

All of that protocol lives in :class:`~repro.federation.peer.Peer`; the
network only moves messages.  It is cooperatively scheduled like everything
else in this reproduction: :meth:`pump` is one federation round (transport
pump → :meth:`Peer.deliver` → one :meth:`Peer.step` per peer, whose flush
sends onto the transport), and :meth:`run_until_quiescent` loops it,
optionally answering open questions with a strategy.  The driver's own
decisions: a delivery refused by a full admission queue goes back onto the
transport, and a local submission that overflows admission raises to the
submitting client.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..core.frontier import FrontierOperation
from ..core.schema import DatabaseSchema
from ..core.tgd import Tgd
from ..core.update import UserOperation
from ..obs.metrics import MetricsRegistry
from ..obs.trace import default_tracer
from ..service.admission import AdmissionConfig
from ..service.tickets import TicketStatus
from ..storage.interface import DatabaseView
from ..storage.memory import FrozenDatabase
from .exchange import ExchangeRules, FederationError

# ``perfbench/layers.py`` times exchange coalescing under this name.
from .exchange import coalesce_envelopes as _coalesce_batch  # noqa: F401
from .peer import FederatedQuestion, Peer, validate_ownership
from .transport import Transport


@dataclass
class FederatedTicket:
    """The network-level handle of one user submission.

    Its status turns terminal when the peer it was submitted at reports so:
    at once for local execution, and for routed execution only once the
    commit notice crosses the transport (partitions delay knowledge, as they
    should).
    """

    ticket_id: int
    peer: str
    target: str
    operation: UserOperation
    status: TicketStatus = TicketStatus.QUEUED

    @property
    def is_remote(self) -> bool:
        return self.peer != self.target

    @property
    def is_done(self) -> bool:
        return self.status in (TicketStatus.COMMITTED, TicketStatus.FAILED)

    def describe(self) -> str:
        return "federated ticket #{} {}@{} -> {}: {}".format(
            self.ticket_id,
            self.status.value,
            self.peer,
            self.target,
            self.operation.describe(),
        )


@dataclass
class FederationPumpReport:
    """What one federation round did."""

    delivered: int = 0
    steps: int = 0
    committed: int = 0


#: ``strategy(question) -> choice`` used by :meth:`run_until_quiescent`.
AnswerStrategy = Callable[[FederatedQuestion], Union[FrontierOperation, int]]


class FederatedNetwork:
    """A set of named peers exchanging updates over a simulated transport."""

    def __init__(
        self,
        schema: DatabaseSchema,
        initial: DatabaseView,
        mappings: Sequence[Tgd],
        ownership: Dict[str, Sequence[str]],
        tracker: str = "PRECISE",
        transport: Optional[Transport] = None,
        admission: Union[AdmissionConfig, Dict[str, AdmissionConfig], None] = None,
        max_total_steps: int = 1_000_000,
        coalesce_envelopes: bool = True,
        group_commit: bool = True,
        tracer=None,
        stage_rounds: int = 1,
    ):
        self.schema = schema
        self._tracer = tracer if tracer is not None else default_tracer()
        self.owner_of = validate_ownership(schema, ownership)
        self.rules = ExchangeRules(mappings, self.owner_of)
        self.transport = transport if transport is not None else Transport()
        if tracer is not None:
            # An explicitly traced network traces its transport too (a
            # transport built separately defaults to the process tracer).
            self.transport.tracer = tracer
        #: Construction parameters a peer (re)build needs: a reborn peer
        #: (:meth:`restart_peer`) gets the same tracker, admission policy,
        #: budgets, tracer and staging as its predecessor.
        self._initial = initial
        self._admission = admission
        self._peer_options = dict(
            tracker=tracker,
            max_total_steps=max_total_steps,
            group_commit=group_commit,
            tracer=self._tracer,
            coalesce=coalesce_envelopes,
            stage_rounds=stage_rounds,
        )
        self._peers: Dict[str, Peer] = {
            name: self._build_peer(name) for name in ownership
        }
        self._tickets: Dict[int, FederatedTicket] = {}
        self._next_ticket_id = 1
        #: One registry whose ``collect()`` is the whole :meth:`metrics`
        #: snapshot: federation totals over the peers' counters, then the
        #: transport and per-peer service metrics as producers.
        self.registry = MetricsRegistry()
        self.registry.gauge("peers").set_function(lambda: len(self._peers))
        for counter in (
            "updates_routed",
            "firings_delivered",
            "retractions_delivered",
            "questions_routed",
            "answers_routed",
            "answers_dropped",
            "question_cancellations",
            "deliveries_deferred",
            "firings_emitted",
            "retractions_emitted",
            "envelopes_coalesced",
        ):
            self.registry.gauge(counter).set_function(
                lambda counter=counter: sum(
                    getattr(peer, counter) for peer in self._peers.values()
                )
            )
        self.registry.register_producer(lambda: self.transport.metrics())
        self.registry.register_producer(self._peer_service_metrics)

    def _build_peer(self, name: str, restore: Optional[str] = None) -> Peer:
        admission = self._admission
        if isinstance(admission, dict):
            # Heterogeneous federations: each peer may run its own admission
            # policy (slow archive, fast edge).
            admission = admission.get(name)
        return Peer.build(
            name,
            self.rules,
            self._initial,
            send=lambda destination, payload: self.transport.send(
                name, destination, payload
            ),
            restore=restore,
            admission=admission,
            **self._peer_options,
        )

    @property
    def deliveries_deferred(self) -> int:
        """Deliveries a full admission queue refused (every refusal counts)."""
        return self.registry.gauge("deliveries_deferred").value

    @property
    def tracer(self):
        """The tracer the whole federation records into."""
        return self._tracer

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def peer(self, name: str) -> Peer:
        """Look a peer up by name."""
        try:
            return self._peers[name]
        except KeyError:
            raise FederationError("unknown peer {!r}".format(name))

    def peers(self) -> List[Peer]:
        """Every peer, in declaration order."""
        return list(self._peers.values())

    def peer_names(self) -> List[str]:
        """The peer names, in declaration order."""
        return list(self._peers)

    def partition(self, a: str, b: str) -> None:
        """Cut the link between two peers (messages queue, nothing is lost)."""
        self.peer(a), self.peer(b)  # validate names
        self.transport.partition(a, b)

    def heal(self, a: str, b: str) -> None:
        """Reconnect two peers; held envelopes flow again on the next pump."""
        self.transport.heal(a, b)

    # ------------------------------------------------------------------
    # Peer checkpoint and restart
    # ------------------------------------------------------------------
    def checkpoint_peer(self, name: str, path: str) -> None:
        """Persist one peer's restartable state (see :meth:`Peer.checkpoint`)."""
        self.peer(name).checkpoint(path)

    def restart_peer(self, name: str, path: str) -> Peer:
        """Kill peer *name* and rebuild it from a checkpoint file.

        The old peer object (service, store, scheduler, sessions) is simply
        dropped — that *is* the crash.  The replacement is restored by
        :meth:`Peer.build` exactly as a socket peer process is.  Envelopes
        in flight on the transport are untouched and deliver to the reborn
        peer as usual.  Open federated questions the killed peer was
        *asking* are dropped from every inbox: their decisions died with the
        old service, and the re-submitted updates re-ask them under fresh
        decision ids.

        *path* must be the peer's latest checkpoint, with nothing delivered
        to, submitted at, answered at or stepped forward by the peer since
        (:meth:`Peer.holds_checkpoint`) — the instant the socket
        federation's ``checkpoint_peer(halt=True)`` freezes its victim at.
        Anything else raises :class:`FederationError` and leaves the peer
        running: its federated inbox and routed submissions live in the
        peer, and a restart from an older checkpoint would lose the ones
        that changed since.
        """
        if not self.peer(name).holds_checkpoint(path):
            raise FederationError(
                "peer {!r} has moved on since checkpoint {!r}: restart from "
                "a checkpoint taken after its last activity".format(name, path)
            )
        reborn = self._peers[name] = self._build_peer(name, restore=path)
        for peer in self._peers.values():
            peer.drop_questions(name)
        return reborn

    # ------------------------------------------------------------------
    # Submission and the federation round
    # ------------------------------------------------------------------
    def submit(self, peer_name: str, operation: UserOperation) -> FederatedTicket:
        """Submit a user operation at *peer_name*; it executes at the owner.

        A local admission overflow raises
        :class:`~repro.service.admission.AdmissionError` to the caller, who
        backs off; no ticket is registered.
        """
        peer = self.peer(peer_name)
        ticket_id = self._next_ticket_id
        self._next_ticket_id += 1
        target = peer.submit(ticket_id, operation)
        ticket = FederatedTicket(ticket_id, peer_name, target, operation)
        self._tickets[ticket_id] = ticket
        return ticket

    def ticket(self, ticket_id: int) -> FederatedTicket:
        """Look a federated ticket up by id."""
        try:
            return self._tickets[ticket_id]
        except KeyError:
            raise FederationError("unknown federated ticket #{}".format(ticket_id))

    def pump(self) -> FederationPumpReport:
        """One federation round: deliver, then one work round per peer."""
        report = FederationPumpReport()
        for envelope in self.transport.pump():
            peer = self._peers[envelope.destination]
            for payload in peer.deliver(envelope.payload):
                # The destination's admission queue is full.  Nothing may be
                # lost: the payload goes back on the wire (bare, even if it
                # arrived bundled) and is retried on a later pump.
                self.transport.send(envelope.source, envelope.destination, payload)
            self._apply_events(peer)
            report.delivered += 1
        for peer in self._peers.values():
            service_report = peer.step()
            self._apply_events(peer)
            report.steps += service_report.steps
            report.committed += len(service_report.committed)
        return report

    def _apply_events(self, peer: Peer) -> None:
        """Mirror the terminal states a peer reported onto federated tickets."""
        if not peer.events:
            return
        for event in peer.take_events():
            if event[0] == "ticket":
                self._tickets[event[1]].status = event[2]

    # ------------------------------------------------------------------
    # The federated inbox
    # ------------------------------------------------------------------
    def inbox(self, peer_name: str) -> List[FederatedQuestion]:
        """The open questions answerable at *peer_name*, oldest first."""
        questions = self.peer(peer_name).inbox
        if not questions:
            return []
        return [question for _, question in sorted(questions.items())]

    def answer(
        self,
        peer_name: str,
        question: FederatedQuestion,
        choice: Union[FrontierOperation, int],
    ) -> None:
        """A client at *peer_name* answers one of its open federated questions.

        Local questions resume immediately; remote ones travel back to the
        executing peer as a :class:`QuestionAnswer` envelope (and are subject
        to the same delays and partitions as everything else).
        """
        peer = self.peer(peer_name)
        if question.key not in peer.inbox:
            raise FederationError(
                "question {} is not open at peer {!r}".format(question.key, peer_name)
            )
        peer.answer(question.key, choice)

    # ------------------------------------------------------------------
    # Quiescence and draining
    # ------------------------------------------------------------------
    def quiescent(self) -> bool:
        """``True`` when no queue anywhere can produce further work."""
        return not self.transport.in_flight and all(
            peer.is_idle() for peer in self._peers.values()
        )

    def watermark_quiescent(self) -> bool:
        """The conservation form of :meth:`quiescent`.

        Same distributed condition, decided the way the socket federation's
        watermark drain decides it: per-directed-link send watermarks equal
        to their delivery watermarks (``sent - delivered`` is the queue
        length, so conservation ⇔ nothing in flight) plus every peer idle.
        :meth:`run_until_quiescent` asserts this agrees with
        :meth:`quiescent` on every round — a built-in differential between
        the two formulations.
        """
        return self.transport.watermarks_conserved() and all(
            peer.is_idle() for peer in self._peers.values()
        )

    def run_until_quiescent(
        self,
        answer_strategy: Optional[AnswerStrategy] = None,
        max_rounds: int = 10_000,
    ) -> int:
        """Pump until the federation drains; returns the number of rounds.

        With *answer_strategy*, every open federated question is answered by
        (a client of) the peer whose inbox holds it, each round.  Without one,
        the loop still drains workloads that never park.  Raises
        ``RuntimeError`` when *max_rounds* pass without quiescence — e.g.
        while a partition still holds envelopes.
        """
        for round_number in range(1, max_rounds + 1):
            self.pump()
            if answer_strategy is not None:
                for peer_name in self._peers:
                    for question in self.inbox(peer_name):
                        self.answer(peer_name, question, answer_strategy(question))
            settled = self.watermark_quiescent()
            if settled != self.quiescent():
                raise FederationError(
                    "watermark quiescence ({}) disagrees with queue-scan "
                    "quiescence ({}) on round {}".format(
                        settled, not settled, round_number
                    )
                )
            if settled:
                return round_number
        raise RuntimeError(
            "federation failed to drain within {} rounds "
            "(transport in flight: {}, partitions: {})".format(
                max_rounds, self.transport.in_flight, self.transport.partitions()
            )
        )

    # ------------------------------------------------------------------
    # Global state
    # ------------------------------------------------------------------
    def global_snapshot(self) -> FrozenDatabase:
        """The union of every peer's committed owned relations."""
        contents: Dict[str, frozenset] = {}
        for relation in self.schema.relation_names():
            owner = self.peer(self.owner_of[relation])
            contents[relation] = frozenset(
                owner.service.scheduler.committed_view().tuples(relation)
            )
        return FrozenDatabase(self.schema, contents)

    def tickets(self) -> List[FederatedTicket]:
        """Every federated ticket, in submission order."""
        return [self._tickets[ticket_id] for ticket_id in sorted(self._tickets)]

    def _peer_service_metrics(self) -> Dict[str, object]:
        """Per-peer service metrics producer (looks peers up live, so a
        peer reborn by :meth:`restart_peer` reports its new service)."""
        data: Dict[str, object] = {}
        for name, peer in self._peers.items():
            snapshot = peer.service.metrics_snapshot()
            for key in (
                "committed",
                "parks",
                "resumes",
                "restarts",
                "store_log_entries",
                "store_versions",
            ):
                data["peer_{}_{}".format(name, key)] = snapshot[key]
        return data

    def metrics(self) -> Dict[str, object]:
        """Aggregated federation, transport and per-peer service metrics."""
        return self.registry.collect()

"""The peer runtime: one federation member's update-exchange protocol.

A :class:`Peer` owns a subset of the federation's relations and wraps its own
:class:`~repro.service.repository.RepositoryService` — its own multiversion
store, dependency tracker, optimistic scheduler, admission queue and frontier
inbox.  Everything a peer does to take part in update exchange lives here,
written once:

* **routing** — a user submission executes here when this peer owns its
  target relation, otherwise it travels to the owner as a
  :class:`~repro.federation.envelopes.RemoteUpdate` (:meth:`Peer.submit`);
* **delivery** of every payload kind (:meth:`Peer.deliver`): update-bearing
  payloads re-enter through the admission queue, question payloads keep the
  federated inbox, answers resume parked updates, commit notices resolve
  routed tickets;
* **commit-time exchange** — a scheduler commit listener turns committed
  write sets into cross-peer firings, retractions and commit notices,
  coalesced per commit batch;
* **one work round** (:meth:`Peer.step`): retry deferred admissions, pump
  the service, diff the service inbox into question routing, report routed
  failures, mirror finished tickets, and flush;
* **staging** — a per-destination :class:`StagingWindow` with cross-round
  re-coalescing, and per-destination bundling (:func:`bundle_pairs`);
* **idleness** (:meth:`Peer.is_idle`, :attr:`Peer.activity_seq`) and
  checkpoint/restore of all of the above (:meth:`Peer.build`,
  :meth:`Peer.checkpoint`).

The peer holds no transport or socket code.  It sends through a
``send(destination, payload)`` callable and reports what happened as
:attr:`Peer.events`; two drivers run it.
:class:`~repro.federation.network.FederatedNetwork` runs every peer in one
process over the simulated transport, one :meth:`Peer.step` per peer per
pump.  The socket host (:mod:`repro.federation.proc`) runs one peer per OS
process and steps it to a fixpoint on every wakeup.  Where the two differ —
what to do with a delivery admission refused, a local submission that
overflows admission — the driver decides and the peer only reports.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple as PyTuple

from ..codec.wire import (
    _decode_origin,
    _encode_origin,
    decode_frontier_request,
    decode_payload,
    decode_user_operation,
    encode_frontier_request,
    encode_payload,
    encode_user_operation,
)
from ..core.frontier import FrontierOperation, FrontierRequest
from ..core.oracle import OracleError
from ..core.terms import NullFactory
from ..core.update import DeleteOperation, InsertOperation, UserOperation
from ..obs.trace import SpanContext
from ..service.admission import AdmissionError
from ..service.repository import RepositoryService
from ..service.tickets import RemoteOrigin, TicketStatus
from ..storage.memory import FrozenDatabase
from .envelopes import (
    Bundle,
    CommitNotice,
    ExchangeFiring,
    ExchangeRetraction,
    QuestionAnswer,
    QuestionCancelled,
    QuestionOpened,
    RemoteUpdate,
)
from .exchange import ExchangeRules, FederationError, coalesce_envelopes, envelopes_for_commit
from .operations import RemoteFiringOperation, RemoteRetractionOperation

#: ``send(destination, payload)``: how a driver puts one message on its wire.
Send = Callable[[str, object], object]


# ----------------------------------------------------------------------
# Topology
# ----------------------------------------------------------------------
def validate_ownership(schema, ownership: Dict[str, Sequence[str]]) -> Dict[str, str]:
    """Check that every relation has exactly one owner; returns ``relation -> peer``."""
    owner_of: Dict[str, str] = {}
    for peer_name, relations in ownership.items():
        for relation in relations:
            if relation not in schema:
                raise FederationError(
                    "peer {!r} claims unknown relation {!r}".format(peer_name, relation)
                )
            if relation in owner_of:
                raise FederationError(
                    "relation {!r} claimed by both {!r} and {!r}".format(
                        relation, owner_of[relation], peer_name
                    )
                )
            owner_of[relation] = peer_name
    unowned = [name for name in schema.relation_names() if name not in owner_of]
    if unowned:
        raise FederationError("no peer owns relation(s) {}".format(sorted(unowned)))
    return owner_of


def _route(owner_of: Dict[str, str], peer_name: str, operation: UserOperation) -> str:
    """The peer a user operation submitted at *peer_name* executes at."""
    if isinstance(operation, (InsertOperation, DeleteOperation)):
        return owner_of[operation.row.relation]
    # Null replacements (and anything exotic) execute where submitted: a
    # labeled null's occurrences are confined to the peer that minted it
    # under this exchange model.
    return peer_name


# ----------------------------------------------------------------------
# Federated questions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FederatedQuestion:
    """One open frontier question as seen from a peer's federated inbox."""

    executing_peer: str
    decision_id: int
    request: FrontierRequest
    origin: RemoteOrigin
    description: str
    #: Trace context of the parked update (``None`` when tracing is off).
    trace: Optional[SpanContext] = field(default=None, compare=False)

    @property
    def key(self) -> PyTuple[str, int]:
        return (self.executing_peer, self.decision_id)

    def alternatives(self) -> List[FrontierOperation]:
        return self.request.alternatives()


def _encode_trace(context: Optional[SpanContext]) -> Optional[Dict[str, str]]:
    if context is None:
        return None
    return {"ti": context.trace_id, "si": context.span_id}


def _decode_trace(body: Optional[Dict[str, str]]) -> Optional[SpanContext]:
    if body is None:
        return None
    return SpanContext(trace_id=body["ti"], span_id=body["si"])


def encode_question(question: FederatedQuestion) -> Dict:
    """A question as a codec-JSON body (control events and checkpoints)."""
    return {
        "executing": question.executing_peer,
        "decision": question.decision_id,
        "request": encode_frontier_request(question.request),
        "origin": _encode_origin(question.origin),
        "desc": question.description,
        "tr": _encode_trace(question.trace),
    }


def decode_question(body: Dict) -> FederatedQuestion:
    """The inverse of :func:`encode_question`."""
    return FederatedQuestion(
        executing_peer=body["executing"],
        decision_id=int(body["decision"]),
        request=decode_frontier_request(body["request"]),
        origin=_decode_origin(body["origin"]),
        description=body["desc"],
        trace=_decode_trace(body.get("tr")),
    )


# ----------------------------------------------------------------------
# Staging and bundling
# ----------------------------------------------------------------------
def bundle_pairs(
    pairs: Sequence[PyTuple[str, object]], bundle: bool = True
) -> List[PyTuple[str, object]]:
    """Turn staged ``(destination, payload)`` pairs into wire messages.

    Destinations keep their first-seen order.  With *bundle*, each
    destination's payloads become one message: bare when there is one, a
    :class:`~repro.federation.envelopes.Bundle` otherwise (one queue slot,
    one delay, one delivery).  The bundle carries the first traced member's
    context, so the whole flush appears as one wire hop in that update's
    trace.  Without *bundle*, every payload is its own message.
    """
    by_destination: Dict[str, List[object]] = {}
    for destination, payload in pairs:
        by_destination.setdefault(destination, []).append(payload)
    messages: List[PyTuple[str, object]] = []
    for destination, batch in by_destination.items():
        if not bundle:
            messages.extend((destination, payload) for payload in batch)
        elif len(batch) == 1:
            messages.append((destination, batch[0]))
        else:
            trace = next(
                (
                    payload.trace
                    for payload in batch
                    if getattr(payload, "trace", None) is not None
                ),
                None,
            )
            messages.append((destination, Bundle(tuple(batch), trace=trace)))
    return messages


class StagingWindow:
    """Per-destination send-side payload staging with two flush triggers.

    Payloads headed for the same destination accumulate here instead of
    being sent at once, and the buffer flushes when the *first* trigger
    trips:

    * ``rounds`` — K work rounds have passed since the buffer opened (K=1:
      flush in the round it was staged, the passthrough default);
    * ``delay`` — T seconds have passed since the buffer opened (0 disables).

    A wider window lets the coalescer cancel and dedup across more commits
    and puts more payloads in each message (throughput); a narrow one bounds
    how long a staged payload can sit (latency).
    """

    __slots__ = ("rounds", "delay", "_batches", "_opened_round", "_deadline",
                 "flushed_batches", "payloads_staged")

    def __init__(self, rounds: int = 1, delay: float = 0.0):
        self.rounds = max(1, int(rounds))
        self.delay = max(0.0, float(delay))
        self._batches: Dict[str, List[object]] = {}
        self._opened_round: Dict[str, int] = {}
        self._deadline: Dict[str, float] = {}
        self.flushed_batches = 0
        self.payloads_staged = 0

    @property
    def passthrough(self) -> bool:
        """True when the default knobs make staging a no-op window."""
        return self.rounds <= 1 and not self.delay

    def stage(self, destination: str, payload: object, round_number: int, now: float) -> None:
        batch = self._batches.get(destination)
        if batch is None:
            batch = self._batches[destination] = []
            self._opened_round[destination] = round_number
            self._deadline[destination] = (
                now + self.delay if self.delay > 0 else float("inf")
            )
        batch.append(payload)
        self.payloads_staged += 1

    def staged_count(self) -> int:
        """Payloads currently parked in the window (a quiescence input)."""
        return sum(len(batch) for batch in self._batches.values())

    def next_deadline(self) -> Optional[float]:
        """The earliest T-trigger deadline among open buffers (None if none)."""
        deadlines = [due for due in self._deadline.values() if due != float("inf")]
        return min(deadlines) if deadlines else None

    def due(self, round_number: int, now: float, force: bool = False) -> List[str]:
        """Destinations whose window tripped, in staging order."""
        return [
            destination
            for destination in self._batches
            if force
            or round_number - self._opened_round[destination] + 1 >= self.rounds
            or now >= self._deadline[destination]
        ]

    def take(self, destination: str) -> List[object]:
        """Remove and return one destination's staged batch."""
        batch = self._batches.pop(destination)
        del self._opened_round[destination]
        del self._deadline[destination]
        self.flushed_batches += 1
        return batch


# ----------------------------------------------------------------------
# The peer
# ----------------------------------------------------------------------
class Peer:
    """A named member of the federation (see the module docstring)."""

    def __init__(
        self,
        name: str,
        service: RepositoryService,
        rules: ExchangeRules,
        firing_factory: NullFactory,
        send: Send,
        coalesce: bool = True,
        stage_rounds: int = 1,
        stage_delay: float = 0.0,
    ):
        self.name = name
        self.service = service
        self.owned = frozenset(
            relation for relation, owner in rules.owner_of.items() if owner == name
        )
        self._rules = rules
        self._firing_factory = firing_factory
        self._send = send
        self._tracer = service.tracer
        #: Relations whose writes can produce exchange envelopes here; write
        #: sets touching none of them skip commit-time exchange entirely.
        self._exchange_relations = rules.exchange_relations(name)
        #: Coalesce each commit batch's (and each staged window's) payloads
        #: and bundle every flush per destination.  ``False`` sends payload
        #: by payload (the reference the coalescing differential compares to).
        self._coalesce = coalesce
        #: The session envelope deliveries are submitted under.
        self.gateway = service.open_session("federation:{}".format(name))
        #: ``(destination, payload)`` pairs produced this round, awaiting
        #: :meth:`flush`.
        self.outbox: List[PyTuple[str, object]] = []
        self.staging = StagingWindow(stage_rounds, stage_delay)
        #: Work rounds taken (:meth:`step` calls): the staging window's clock.
        self.rounds = 0
        #: The federated inbox: questions answerable by this peer's clients.
        self.inbox: Dict[PyTuple[str, int], FederatedQuestion] = {}
        #: Outcomes for the driver, oldest first: ``("question", question)``,
        #: ``("question-gone", key)`` and ``("ticket", fid, status)`` (a
        #: submission made here reached a terminal state).
        self.events: List[tuple] = []
        #: Update-bearing payloads and local submissions (``(fid, operation)``)
        #: the driver deferred after admission refused them; each
        #: :meth:`step` retries them first.
        self.retry: List[object] = []
        self.submit_retry: List[PyTuple[int, UserOperation]] = []
        #: fid -> service ticket of submissions executing here.
        self._local: Dict[int, object] = {}
        #: fid -> root span (or ``None``) of submissions routed elsewhere,
        #: awaiting their commit notice.
        self._routed: Dict[int, object] = {}
        #: Open service decisions we know about: decision_id -> origin of the
        #: asking ticket (``None`` when the question is answerable locally).
        self._known_questions: Dict[int, Optional[RemoteOrigin]] = {}
        #: Routed decisions answered through a delivered QuestionAnswer (their
        #: disappearance from the inbox is success, not cancellation).
        self._answered_remote: Set[int] = set()
        #: Local ticket ids whose terminal state the origin peer awaits.
        self._notify: Dict[int, RemoteOrigin] = {}
        self.updates_routed = 0
        self.firings_delivered = 0
        self.retractions_delivered = 0
        self.questions_routed = 0
        self.answers_routed = 0
        self.answers_dropped = 0
        self.question_cancellations = 0
        #: Update-bearing deliveries admission refused (a local retry that
        #: is refused again does not count again).
        self.deliveries_deferred = 0
        self.firings_emitted = 0
        self.retractions_emitted = 0
        self.notices_emitted = 0
        #: Payloads the coalescer dropped before the wire.
        self.envelopes_coalesced = 0
        #: Monotonic activity sequence: advances on every delivery, submit,
        #: answer, work round that made progress and flush that sent.  An
        #: unchanged seq between two observations (plus conserved link
        #: watermarks) means nothing moved in between.
        self.activity_seq = 0
        #: The checkpoint ``extra`` this peer was restored from (drivers keep
        #: their own restart bookkeeping there); empty for a fresh peer.
        self.restored: Dict = {}
        #: ``(path, activity_seq)`` of the checkpoint this peer last wrote or
        #: was restored from (see :meth:`holds_checkpoint`).
        self._checkpointed: Optional[PyTuple[str, int]] = None
        service.add_batch_commit_listener(self._on_batch_commit)

    @classmethod
    def build(
        cls,
        name: str,
        rules: ExchangeRules,
        initial,
        send: Send,
        restore: Optional[str] = None,
        tracer=None,
        coalesce: bool = True,
        stage_rounds: int = 1,
        stage_delay: float = 0.0,
        **service_options,
    ) -> "Peer":
        """Build peer *name* fresh, or restore it from the checkpoint *restore*.

        *initial* is the **union** initial database: a fresh peer keeps only
        its owned relations but avoids every null in the whole of it.
        *service_options* (tracker, admission, budgets) go to the service.

        A restored peer's service comes back from the checkpoint: committed
        store, pending operations re-submitted with their origins, null and
        decision-id numbering resumed.  Its exchange bookkeeping is re-linked
        onto the re-submitted tickets: commit-notice obligations, submissions
        executing here, routed submissions awaiting notices, the federated
        inbox and both retry queues.
        """
        local = rules.local_mappings(name)
        service_options.update(tracer=tracer, trace_peer=name)
        staging = dict(coalesce=coalesce, stage_rounds=stage_rounds, stage_delay=stage_delay)
        if restore is None:
            schema = initial.schema
            contents = {
                relation: frozenset(initial.tuples(relation))
                if rules.owner_of[relation] == name
                else frozenset()
                for relation in schema.relation_names()
            }
            service = RepositoryService(
                FrozenDatabase(schema, contents),
                local,
                # Peer-unique null prefixes: two peers' chases must never mint
                # the same labeled null, or shipping a head row would silently
                # identify two unrelated unknowns at the destination.
                null_factory=NullFactory.avoiding_view(initial, prefix=name + "s"),
                **service_options,
            )
            firing_factory = NullFactory.avoiding_view(initial, prefix=name + "f")
            return cls(name, service, rules, firing_factory, send, **staging)
        restored = RepositoryService.restore(restore, local, **service_options)
        extra = restored.extra
        peer = cls(
            name,
            restored.service,
            rules,
            NullFactory.from_state(extra["firing_factory"]),
            send,
            **staging,
        )
        resubmitted = restored.resubmitted
        for old_ticket_id, origin in extra.get("notify", ()):
            if old_ticket_id in resubmitted:
                ticket_id = resubmitted[old_ticket_id].ticket_id
                peer._notify[ticket_id] = _decode_origin(origin)
        for fid, old_ticket_id in extra.get("local", ()):
            # A submission missing here finished before the checkpoint and
            # was already reported.
            if old_ticket_id in resubmitted:
                peer._local[fid] = resubmitted[old_ticket_id]
        peer._routed = {fid: None for fid in extra.get("routed", ())}
        for body in extra.get("inbox", ()):
            question = decode_question(body)
            peer.inbox[question.key] = question
        peer.retry = [decode_payload(body) for body in extra.get("retry", ())]
        peer.submit_retry = [
            (fid, decode_user_operation(body))
            for fid, body in extra.get("submit_retry", ())
        ]
        peer.restored = extra
        peer._checkpointed = (os.path.abspath(restore), peer.activity_seq)
        return peer

    # ------------------------------------------------------------------
    # Client calls: submit and answer
    # ------------------------------------------------------------------
    def submit(self, fid: int, operation: UserOperation) -> str:
        """Route federated submission *fid*; returns the executing peer.

        A local submission goes straight into the service and raises
        :class:`~repro.service.admission.AdmissionError` when admission is
        full (nothing is registered; the driver decides whether the client
        backs off or the peer retries).  A routed one is sent to its owner
        at once, and resolves when the owner's commit notice comes back.
        """
        self.activity_seq += 1
        target = _route(self._rules.owner_of, self.name, operation)
        if target == self.name:
            self._local[fid] = self.service.submit(self.gateway.session_id, operation)
            return target
        span = None
        trace = None
        if self._tracer.enabled:
            # A routed submission roots its trace here at the origin (the
            # executing service's ticket span becomes a child); the root
            # closes when the commit notice makes it back.
            span = self._tracer.start_span(
                "update",
                peer=self.name,
                kind="user",
                op_type=type(operation).__name__,
                op=operation.describe(),
                ticket=fid,
                routed_to=target,
            )
            trace = span.context
        self._routed[fid] = span
        self.updates_routed += 1
        self._send(
            target,
            RemoteUpdate(
                operation=operation, origin=RemoteOrigin(self.name, fid), trace=trace
            ),
        )
        return target

    def answer(self, key: PyTuple[str, int], choice) -> None:
        """A client of this peer answers the inbox question *key*.

        A local question resumes at once; a remote one travels back to its
        executing peer as a :class:`QuestionAnswer`.  A key no longer in the
        inbox (the question was cancelled while the answer was on its way)
        counts as a dropped answer.
        """
        self.activity_seq += 1
        question = self.inbox.pop(key, None)
        if question is None:
            self.answers_dropped += 1
            return
        if question.executing_peer == self.name:
            self._answer_service(question.decision_id, choice)
            return
        self.answers_routed += 1
        self._send(
            question.executing_peer,
            QuestionAnswer(
                executing_peer=question.executing_peer,
                decision_id=question.decision_id,
                choice=choice,
                answered_by=self.name,
                trace=question.trace,
            ),
        )

    def drop_questions(self, executing_peer: str) -> None:
        """Forget inbox questions asked by *executing_peer*'s (dead) service."""
        for key in [key for key in self.inbox if key[0] == executing_peer]:
            del self.inbox[key]

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def deliver(self, message: object) -> List[object]:
        """Deliver one wire message; returns the payloads admission refused.

        A :class:`~repro.federation.envelopes.Bundle` unpacks in order, so
        delivery is indistinguishable from its payloads arriving back to back
        on a FIFO link.  A refused update-bearing payload is never lost: the
        driver re-sends it or parks it in :attr:`retry`.
        """
        self.activity_seq += 1
        payloads = message.payloads if isinstance(message, Bundle) else (message,)
        refused: List[object] = []
        for payload in payloads:
            if isinstance(payload, (RemoteUpdate, ExchangeFiring, ExchangeRetraction)):
                if not self._admit(payload):
                    self.deliveries_deferred += 1
                    refused.append(payload)
            elif isinstance(payload, QuestionOpened):
                self.questions_routed += 1
                self._open_question(
                    FederatedQuestion(
                        executing_peer=payload.executing_peer,
                        decision_id=payload.decision_id,
                        request=payload.request,
                        origin=payload.origin,
                        description=payload.ticket_description,
                        trace=payload.trace,
                    )
                )
            elif isinstance(payload, QuestionCancelled):
                if self._close_question((payload.executing_peer, payload.decision_id)):
                    self.question_cancellations += 1
            elif isinstance(payload, QuestionAnswer):
                if self._answer_service(payload.decision_id, payload.choice):
                    self._answered_remote.add(payload.decision_id)
            elif isinstance(payload, CommitNotice):
                fid = payload.origin.ticket_id
                if fid in self._routed:  # anything else is not ours: ignore it
                    span = self._routed.pop(fid)
                    if span is not None:
                        self._tracer.end_span(span, status=payload.status.value)
                    self.events.append(("ticket", fid, payload.status))
            else:  # pragma: no cover - the payload union is closed
                raise FederationError("undeliverable payload {!r}".format(payload))
        return refused

    def _admit(self, payload) -> bool:
        """Submit one update-bearing payload; False when admission is full."""
        if isinstance(payload, RemoteUpdate):
            operation = payload.operation
        elif isinstance(payload, ExchangeFiring):
            operation = RemoteFiringOperation(
                payload.tgd, payload.assignment(), payload.head_rows
            )
        else:
            operation = RemoteRetractionOperation(payload.tgd, payload.assignment())
        try:
            ticket = self.service.submit(
                self.gateway.session_id,
                operation,
                origin=payload.origin,
                trace=payload.trace,
            )
        except AdmissionError:
            return False
        if isinstance(payload, RemoteUpdate):
            # Its terminal state must be reported home.
            self._notify[ticket.ticket_id] = payload.origin
        elif isinstance(payload, ExchangeFiring):
            self.firings_delivered += 1
        else:
            self.retractions_delivered += 1
        return True

    def _answer_service(self, decision_id: int, choice) -> bool:
        try:
            self.service.answer(self.gateway.session_id, decision_id, choice)
        except OracleError:
            # The asking update aborted (its question was cancelled) while
            # the answer was in flight; its restart will ask afresh.
            self.answers_dropped += 1
            return False
        return True

    def _open_question(self, question: FederatedQuestion) -> None:
        self.inbox[question.key] = question
        self.events.append(("question", question))

    def _close_question(self, key: PyTuple[str, int]) -> bool:
        if self.inbox.pop(key, None) is None:
            return False
        self.events.append(("question-gone", key))
        return True

    # ------------------------------------------------------------------
    # The work round
    # ------------------------------------------------------------------
    def step(self):
        """One work round; returns the service's pump report.

        Retry deferred admissions, pump the service, route question changes,
        report routed failures, mirror finished tickets, then :meth:`flush`.
        :attr:`activity_seq` advances when the round made progress.
        """
        self.rounds += 1
        progress = self._retry_admissions()
        report = self.service.pump()
        if report.steps or report.admitted or report.committed:
            progress = True
        if self._scan_questions():
            progress = True
        self._scan_failures()
        self._mirror_tickets()
        if self.outbox:
            progress = True
        if progress:
            self.activity_seq += 1
        self.flush()
        return report

    def _retry_admissions(self) -> bool:
        progress = False
        if self.retry:
            pending = self.retry
            self.retry = [payload for payload in pending if not self._admit(payload)]
            progress = len(self.retry) != len(pending)
        if self.submit_retry:
            pending_submits, self.submit_retry = self.submit_retry, []
            for fid, operation in pending_submits:
                try:
                    self._local[fid] = self.service.submit(
                        self.gateway.session_id, operation
                    )
                except AdmissionError:
                    self.submit_retry.append((fid, operation))
                    continue
                progress = True
        return progress

    def _mirror_tickets(self) -> None:
        """Report (and stop tracking) local submissions that finished."""
        for fid, ticket in list(self._local.items()):
            if ticket.is_done:
                del self._local[fid]
                self.events.append(("ticket", fid, ticket.status))

    def flush(self, force: bool = False) -> int:
        """Stage the outbox and send what is due; returns payloads sent.

        In the passthrough window the whole outbox goes out now.  Otherwise
        payloads park per destination until their window trips (all of them
        when *force*), and each released batch is coalesced again: payloads
        from *different* rounds can now cancel and dedup, which per-batch
        coalescing cannot see.
        """
        if not self.outbox and not self.staging.staged_count():
            return 0
        if self.staging.passthrough:
            pairs, self.outbox = self.outbox, []
        else:
            now = time.monotonic()
            for destination, payload in self.outbox:
                self.staging.stage(destination, payload, self.rounds, now)
            self.outbox = []
            pairs = []
            for destination in self.staging.due(self.rounds, now, force=force):
                batch = [(destination, payload) for payload in self.staging.take(destination)]
                if self._coalesce and len(batch) > 1:
                    kept = coalesce_envelopes(batch)
                    self.envelopes_coalesced += len(batch) - len(kept)
                    batch = kept
                pairs.extend(batch)
        for destination, message in bundle_pairs(pairs, self._coalesce):
            self._send(destination, message)
        if pairs:
            self.activity_seq += 1
        return len(pairs)

    def is_idle(self) -> bool:
        """Nothing left to do here: service quiescent, nothing staged or deferred."""
        return (
            not self.outbox
            and not self.retry
            and not self.submit_retry
            and not self.staging.staged_count()
            and self.service.is_quiescent
        )

    def take_events(self) -> List[tuple]:
        """Hand the driver the outcomes recorded since the last call."""
        events, self.events = self.events, []
        return events

    # ------------------------------------------------------------------
    # Commit-time exchange
    # ------------------------------------------------------------------
    def _on_batch_commit(self, commits) -> None:
        """Scheduler batch listener: one staging round per commit batch.

        The whole batch's envelopes are produced first, coalesced together
        (duplicates across the batch's members are exactly what a per-commit
        listener could never see), and only then put in the outbox.
        """
        staged: List[PyTuple[str, object]] = []
        for priority, writes in commits:
            self._stage_commit(priority, writes, staged)
        if self._coalesce and len(staged) > 1:
            coalesced = coalesce_envelopes(staged)
            self.envelopes_coalesced += len(staged) - len(coalesced)
            staged = coalesced
        for destination, payload in staged:
            if isinstance(payload, ExchangeFiring):
                self.firings_emitted += 1
            elif isinstance(payload, ExchangeRetraction):
                self.retractions_emitted += 1
            elif isinstance(payload, CommitNotice):
                self.notices_emitted += 1
            self.outbox.append((destination, payload))

    def _stage_commit(
        self,
        priority: int,
        writes,
        staged: List[PyTuple[str, object]],
    ) -> None:
        """Produce one committed update's envelopes into *staged*."""
        ticket = self.service.ticket_for_priority(priority)
        if ticket is not None and ticket.origin is not None:
            origin = ticket.origin
        else:
            origin = RemoteOrigin(
                self.name, ticket.ticket_id if ticket is not None else 0
            )
        context = ticket.trace_context if ticket is not None else None
        if writes and any(
            logged.write.relation in self._exchange_relations for logged in writes
        ):
            view = self.service.scheduler.store.view_for(priority)
            produced = envelopes_for_commit(
                self._rules, self.name, writes, view, self._firing_factory, origin
            )
            if context is not None:
                # Outgoing envelopes continue the committing update's trace,
                # so the receiving peer's chase parents into it.
                produced = [
                    (destination, replace(payload, trace=context))
                    for destination, payload in produced
                ]
            staged.extend(produced)
        if ticket is not None and ticket.ticket_id in self._notify:
            notify_origin = self._notify.pop(ticket.ticket_id)
            notice = CommitNotice(origin=notify_origin, status=TicketStatus.COMMITTED)
            if context is not None:
                notice = replace(notice, trace=context)
            staged.append((notify_origin.peer, notice))

    def _scan_failures(self) -> None:
        """Report routed updates that died without committing.

        The commit listener only ever sees commits; a routed update stopped
        by a budget stall ends ``FAILED`` through the service's stall path,
        and its originating peer must still learn the terminal state or its
        federated ticket (and closed-loop client) would wait forever.
        """
        for ticket_id in list(self._notify):
            ticket = self.service.ticket(ticket_id)
            if ticket.status is not TicketStatus.FAILED:
                continue
            origin = self._notify.pop(ticket_id)
            self.notices_emitted += 1
            notice = CommitNotice(origin=origin, status=TicketStatus.FAILED)
            if ticket.trace_context is not None:
                notice = replace(notice, trace=ticket.trace_context)
            self.outbox.append((origin.peer, notice))

    # ------------------------------------------------------------------
    # Question routing
    # ------------------------------------------------------------------
    def _scan_questions(self) -> bool:
        """Diff the service inbox into question routing; True if it changed.

        Questions newly opened for *locally originated* updates enter this
        peer's federated inbox; those of remote-origin updates are sent to
        the originating peer as :class:`QuestionOpened`.  A known question
        that left the service inbox leaves the federated inbox too, and a
        remote-origin one is cancelled at its origin unless it left because
        we answered it.
        """
        questions = self.service.inbox()
        if not self._known_questions and not questions:
            # Nothing known, nothing open: the diff is empty (the common
            # case on every quiet round).
            return False
        changed = False
        open_ids: Set[int] = set()
        for question in questions:
            open_ids.add(question.decision_id)
            if question.decision_id in self._known_questions:
                continue
            changed = True
            origin = question.ticket.origin
            if origin is None or origin.peer == self.name:
                self._known_questions[question.decision_id] = None
                self._open_question(
                    FederatedQuestion(
                        executing_peer=self.name,
                        decision_id=question.decision_id,
                        request=question.request,
                        origin=RemoteOrigin(self.name, question.ticket.ticket_id),
                        description=question.ticket.describe(),
                        trace=question.ticket.trace_context,
                    )
                )
                continue
            self._known_questions[question.decision_id] = origin
            self.outbox.append(
                (
                    origin.peer,
                    QuestionOpened(
                        executing_peer=self.name,
                        decision_id=question.decision_id,
                        request=question.request,
                        origin=origin,
                        ticket_description=question.ticket.describe(),
                        trace=question.ticket.trace_context,
                    ),
                )
            )
        for decision_id in list(self._known_questions):
            if decision_id in open_ids:
                continue
            changed = True
            origin = self._known_questions.pop(decision_id)
            self._close_question((self.name, decision_id))
            answered = decision_id in self._answered_remote
            self._answered_remote.discard(decision_id)
            if origin is not None and not answered:
                self.outbox.append(
                    (
                        origin.peer,
                        QuestionCancelled(
                            executing_peer=self.name,
                            decision_id=decision_id,
                            origin=origin,
                        ),
                    )
                )
        return changed

    # ------------------------------------------------------------------
    # Checkpoint (durability across peer restarts)
    # ------------------------------------------------------------------
    def checkpoint(self, path: str, extra: Optional[Dict] = None) -> Dict:
        """Persist this peer's service plus its exchange bookkeeping.

        Staged payloads are flushed first: their contents are decided, and a
        checkpoint must not strand them.  On top of the service checkpoint
        (committed store, watermark, pending inbox, null-factory and
        decision-id state) the peer stores its *firing* null-factory state —
        outgoing :class:`ExchangeFiring` envelopes mint nulls too, and a
        reborn peer must never re-mint one already living in another peer's
        store — plus the bookkeeping :meth:`build` re-links: commit-notice
        obligations, submissions executing here and routed from here, the
        federated inbox (less the questions this service was asking: they
        die with it and the restored updates re-ask them), and both retry
        queues.  Anything in flight on the wire survives on the wire.

        *extra* lets the driver piggyback its own restart bookkeeping; the
        peer's own keys win on collision.
        """
        self.flush(force=True)
        body = dict(extra or {})
        body.update({
            "peer": self.name,
            "firing_factory": list(self._firing_factory.state()),
            "notify": [
                [ticket_id, _encode_origin(origin)]
                for ticket_id, origin in sorted(self._notify.items())
            ],
            "local": sorted(
                [fid, ticket.ticket_id]
                for fid, ticket in self._local.items()
                if not ticket.is_done
            ),
            "routed": sorted(self._routed),
            "inbox": [
                encode_question(question)
                for _, question in sorted(self.inbox.items())
                if question.executing_peer != self.name
            ],
            "retry": [encode_payload(payload) for payload in self.retry],
            "submit_retry": [
                [fid, encode_user_operation(operation)]
                for fid, operation in self.submit_retry
            ],
        })
        written = self.service.checkpoint(path, extra=body)
        self._checkpointed = (os.path.abspath(path), self.activity_seq)
        return written

    def holds_checkpoint(self, path: str) -> bool:
        """Whether restoring *path* loses nothing of this peer.

        True when *path* is the checkpoint this peer last wrote (or was
        restored from) and nothing has happened here since: no delivery,
        submit, answer, productive round or send.  Bookkeeping that changed
        after a checkpoint is not in it — a question delivered since, a
        routed submission's commit notice awaited since — so a restart from
        an older checkpoint would strand those updates.
        """
        return self._checkpointed == (os.path.abspath(path), self.activity_seq)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def owned_snapshot(self) -> Dict[str, frozenset]:
        """The committed contents of this peer's owned relations."""
        snapshot = self.service.snapshot()
        return {
            relation: frozenset(snapshot.tuples(relation)) for relation in self.owned
        }

    def describe(self) -> str:
        return "peer {} ({} relations, {} mappings)".format(
            self.name, len(self.owned), len(self._rules.local_mappings(self.name))
        )

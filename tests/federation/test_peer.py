"""The peer runtime driven by hand: no transport, no socket.

Each test builds :class:`~repro.federation.peer.Peer` objects directly,
delivers payloads itself and records what the peer sends, so the protocol's
race paths — answers crossing cancellations, admission refusals, stray
commit notices, restarts — run deterministically.  The drivers
(:class:`FederatedNetwork`, the socket ``PeerHost``) only move these
messages; whatever holds here holds under both.
"""

from __future__ import annotations

import pytest

from repro.core.frontier import UnifyOperation
from repro.core.schema import DatabaseSchema
from repro.core.tgd import parse_tgds
from repro.core.tuples import make_tuple
from repro.core.update import InsertOperation
from repro.federation import (
    CommitNotice,
    FederatedNetwork,
    QuestionAnswer,
    QuestionCancelled,
    QuestionOpened,
    RemoteUpdate,
    Transport,
)
from repro.federation.exchange import ExchangeRules, FederationError
from repro.federation.peer import Peer
from repro.obs.trace import Tracer
from repro.service import AdmissionConfig
from repro.service.tickets import RemoteOrigin, TicketStatus
from repro.storage.memory import FrozenDatabase
from repro.workload.federated_loop import conservative_answer, expanding_answer
from repro.workload.federation_gen import (
    FederationScenarioConfig,
    generate_federation_environment,
)

SCHEMA = DatabaseSchema.from_dict(
    {"Seed": ["x"], "Person": ["name"], "Father": ["child", "father"]}
)
MAPPINGS = parse_tgds(
    [
        "Seed(x) -> Person(x)",                             # cross a -> b
        "Person(x) -> exists y . Father(x, y), Person(y)",  # parks at b
    ]
)
OWNERSHIP = {"a": ["Seed"], "b": ["Person", "Father"]}
RULES = ExchangeRules(
    MAPPINGS,
    {relation: peer for peer, relations in OWNERSHIP.items() for relation in relations},
)
INITIAL = FrozenDatabase(SCHEMA, {name: frozenset() for name in SCHEMA.relation_names()})


def _peer(name, restore=None, **options):
    """A peer whose every message lands in the returned list, unbundled."""
    sent = []
    peer = Peer.build(
        name,
        RULES,
        INITIAL,
        send=lambda destination, payload: sent.append((destination, payload)),
        restore=restore,
        coalesce=False,
        **options,
    )
    return peer, sent


def _sent(sent, kind):
    return [payload for _, payload in sent if isinstance(payload, kind)]


def _park_routed_update(b, sent, name="alice", fid=1):
    """Deliver a routed Person insert to *b*; returns the question it sends home."""
    assert b.deliver(
        RemoteUpdate(
            InsertOperation(make_tuple("Person", name)), origin=RemoteOrigin("a", fid)
        )
    ) == []
    b.step()
    [opened] = [
        payload
        for payload in _sent(sent, QuestionOpened)
        if payload.origin.ticket_id == fid
    ]
    return opened


def _unify(request):
    return [
        alternative
        for alternative in request.alternatives()
        if isinstance(alternative, UnifyOperation)
    ][0]


def test_answer_after_its_question_was_cancelled_is_dropped_at_the_origin():
    b, b_sent = _peer("b")
    opened = _park_routed_update(b, b_sent)
    a, a_sent = _peer("a")
    a.deliver(opened)
    key = ("b", opened.decision_id)
    assert list(a.inbox) == [key]
    a.deliver(
        QuestionCancelled(
            executing_peer="b", decision_id=opened.decision_id, origin=opened.origin
        )
    )
    assert a.inbox == {} and a.question_cancellations == 1
    assert [event[0] for event in a.take_events()] == ["question", "question-gone"]
    # The client's answer crossed the cancellation: nothing goes on the wire.
    a.answer(key, _unify(opened.request))
    assert a.answers_dropped == 1
    assert _sent(a_sent, QuestionAnswer) == []


def test_answer_for_a_dead_decision_is_dropped_at_the_executor(tmp_path):
    b, b_sent = _peer("b")
    opened = _park_routed_update(b, b_sent)
    path = str(tmp_path / "b.ckpt")
    b.checkpoint(path)
    # The restart kills the question's decision; the restored update asks
    # again under a fresh decision id, while the old answer is in flight.
    reborn, reborn_sent = _peer("b", restore=path)
    reborn.step()
    [asked_again] = _sent(reborn_sent, QuestionOpened)
    assert asked_again.decision_id != opened.decision_id
    late = QuestionAnswer(
        executing_peer="b",
        decision_id=opened.decision_id,
        choice=_unify(opened.request),
        answered_by="a",
    )
    assert reborn.deliver(late) == []  # OracleError inside, absorbed
    assert reborn.answers_dropped == 1
    # The live decision still takes its answer, and the update commits.
    reborn.deliver(
        QuestionAnswer(
            executing_peer="b",
            decision_id=asked_again.decision_id,
            choice=_unify(asked_again.request),
            answered_by="a",
        )
    )
    reborn.step()
    assert reborn.answers_dropped == 1
    [notice] = _sent(reborn_sent, CommitNotice)
    assert notice.status is TicketStatus.COMMITTED


def test_delivery_refused_by_full_admission_is_accepted_on_retry():
    a, a_sent = _peer(
        "a",
        admission=AdmissionConfig(max_in_flight=1, batch_size=1, max_queue_depth=1),
    )
    updates = [
        RemoteUpdate(
            InsertOperation(make_tuple("Seed", "s{}".format(index))),
            origin=RemoteOrigin("b", index),
        )
        for index in range(3)
    ]
    refused = [payload for update in updates for payload in a.deliver(update)]
    assert refused == updates[1:]
    assert a.deliveries_deferred == 2
    a.retry.extend(refused)  # the socket driver's decision: retry locally
    for _ in range(20):
        a.step()
        if a.is_idle():
            break
    assert a.is_idle() and a.retry == []
    assert a.service.count("Seed") == 3
    assert a.deliveries_deferred == 2  # retries are not new refusals
    notices = _sent(a_sent, CommitNotice)
    assert sorted(notice.origin.ticket_id for notice in notices) == [0, 1, 2]


def test_commit_notice_for_an_unknown_ticket_is_ignored():
    a, a_sent = _peer("a")
    assert a.submit(5, InsertOperation(make_tuple("Person", "carol"))) == "b"
    [routed] = _sent(a_sent, RemoteUpdate)
    assert routed.origin == RemoteOrigin("a", 5)
    a.deliver(CommitNotice(origin=RemoteOrigin("a", 99), status=TicketStatus.COMMITTED))
    assert a.take_events() == []
    a.deliver(CommitNotice(origin=RemoteOrigin("a", 5), status=TicketStatus.COMMITTED))
    assert a.take_events() == [("ticket", 5, TicketStatus.COMMITTED)]
    # A duplicate notice for a resolved ticket is just as unknown.
    a.deliver(CommitNotice(origin=RemoteOrigin("a", 5), status=TicketStatus.FAILED))
    assert a.take_events() == []


def test_checkpoint_restore_round_trips_the_bookkeeping(tmp_path):
    b, b_sent = _peer("b")
    opened = _park_routed_update(b, b_sent)
    a, _ = _peer("a")
    a.deliver(opened)  # an inbox question executing elsewhere
    a.submit(7, InsertOperation(make_tuple("Person", "dave")))  # routed
    deferred = RemoteUpdate(
        InsertOperation(make_tuple("Seed", "s9")), origin=RemoteOrigin("b", 3)
    )
    a.retry.append(deferred)
    a.submit_retry.append((8, InsertOperation(make_tuple("Seed", "s8"))))
    path = str(tmp_path / "a.ckpt")
    a.checkpoint(path, extra={"host": {"payloads_received": 4}})

    reborn, _ = _peer("a", restore=path)
    assert reborn.retry == [deferred]
    assert reborn.submit_retry == a.submit_retry
    assert sorted(reborn._routed) == [7]
    assert reborn.inbox == a.inbox
    assert reborn.restored["host"] == {"payloads_received": 4}
    # The restored peer finishes the deferred work and resolves the routed
    # ticket on its notice, exactly as the original would have.
    reborn.step()
    assert reborn.retry == [] and reborn.submit_retry == []
    assert reborn.service.count("Seed") == 2
    reborn.deliver(CommitNotice(origin=RemoteOrigin("a", 7), status=TicketStatus.COMMITTED))
    assert ("ticket", 7, TicketStatus.COMMITTED) in reborn.take_events()


def test_drained_run_tracks_no_finished_tickets():
    config = FederationScenarioConfig(
        num_peers=3, cross_mappings=6, remote_insert_fraction=0.4, seed=2
    )
    environment = generate_federation_environment(config)
    network = FederatedNetwork(
        environment.schema,
        environment.initial,
        list(environment.mappings),
        environment.ownership,
        transport=Transport(delay=1),
    )
    for peer, operations in environment.operations.items():
        for operation in operations:
            network.submit(peer, operation)
    network.run_until_quiescent(answer_strategy=expanding_answer, max_rounds=5_000)
    assert all(ticket.is_done for ticket in network.tickets())
    for peer in network.peers():
        assert peer._local == {} and peer._routed == {}, peer.name


def test_restarted_peer_keeps_the_network_tracer(tmp_path):
    tracer = Tracer()
    network = FederatedNetwork(
        SCHEMA, INITIAL, MAPPINGS, OWNERSHIP, transport=Transport(), tracer=tracer
    )
    network.submit("a", InsertOperation(make_tuple("Seed", "s1")))
    network.run_until_quiescent(answer_strategy=conservative_answer)
    path = str(tmp_path / "b.ckpt")
    network.checkpoint_peer("b", path)
    reborn = network.restart_peer("b", path)
    assert reborn.service.tracer is tracer
    before = len(tracer.spans)
    network.submit("b", InsertOperation(make_tuple("Person", "erin")))
    network.run_until_quiescent(answer_strategy=conservative_answer)
    reborn_spans = [span for span in tracer.spans[before:] if span.peer == "b"]
    assert reborn_spans, "the reborn peer's spans missed the network's tracer"
    assert any(
        span.name == "update" and span.attrs.get("kind") == "user"
        for span in reborn_spans
    )


@pytest.mark.parametrize("rounds", [1, 3])
def test_staged_window_flushes_on_its_round_and_on_checkpoint(tmp_path, rounds):
    b, b_sent = _peer("b", stage_rounds=rounds)
    b.deliver(
        RemoteUpdate(
            InsertOperation(make_tuple("Person", "frank")), origin=RemoteOrigin("a", 1)
        )
    )
    b.step()
    assert len(_sent(b_sent, QuestionOpened)) == (1 if rounds == 1 else 0)
    assert b.staging.staged_count() == (0 if rounds == 1 else 1)
    b.checkpoint(str(tmp_path / "b.ckpt"))  # a checkpoint strands nothing
    assert len(_sent(b_sent, QuestionOpened)) == 1 and b.staging.staged_count() == 0


def test_restart_refuses_a_checkpoint_the_peer_has_moved_past(tmp_path):
    network = FederatedNetwork(SCHEMA, INITIAL, MAPPINGS, OWNERSHIP, transport=Transport())
    ticket = network.submit("a", InsertOperation(make_tuple("Seed", "s1")))
    stale = str(tmp_path / "stale.ckpt")
    network.checkpoint_peer("a", stale)
    # The firing reaches b, parks there, and its question is delivered to
    # a's inbox after the checkpoint: restoring it would lose the question.
    for _ in range(10):
        network.pump()
        if network.inbox("a"):
            break
    assert network.inbox("a")
    old = network.peer("a")
    with pytest.raises(FederationError, match="moved on"):
        network.restart_peer("a", stale)
    assert network.peer("a") is old and network.inbox("a")
    fresh = str(tmp_path / "fresh.ckpt")
    network.checkpoint_peer("a", fresh)
    reborn = network.restart_peer("a", fresh)
    assert reborn is not old and network.inbox("a")
    network.run_until_quiescent(answer_strategy=conservative_answer)
    assert ticket.status is TicketStatus.COMMITTED


def test_restart_accepts_a_checkpoint_with_idle_rounds_after_it(tmp_path):
    network = FederatedNetwork(SCHEMA, INITIAL, MAPPINGS, OWNERSHIP, transport=Transport())
    network.submit("a", InsertOperation(make_tuple("Seed", "s1")))
    network.run_until_quiescent(answer_strategy=conservative_answer)
    path = str(tmp_path / "b.ckpt")
    network.checkpoint_peer("b", path)
    for _ in range(3):
        network.pump()  # nothing reaches b: its state is still the checkpoint's
    before = network.peer("b").owned_snapshot()
    network.restart_peer("b", path)
    network.restart_peer("b", path)  # a reborn peer holds the file it came from
    assert network.peer("b").owned_snapshot() == before
    assert network.quiescent()

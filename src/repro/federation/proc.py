"""The socket driver: one federation peer behind a socket, in its own OS process.

This is the other half of the multi-process federation (the coordinator side
lives in :mod:`repro.federation.process_network`).  A :class:`PeerHost` is
what runs *inside* each spawned process: it builds one
:class:`~repro.federation.peer.Peer` — the same peer runtime the in-process
:class:`~repro.federation.network.FederatedNetwork` drives — from a
codec-JSON config file, listens on its socket address, and moves the peer's
messages over sockets.  The exchange protocol itself (delivery, routing,
question inbox, ticket mirroring, staging, idleness) is the peer's, so a
drained socket federation runs the *same* protocol as the in-process one and
the differential oracle applies.

Two kinds of traffic cross the host's sockets, both as
:mod:`repro.codec.framing` frames:

* **envelope frames** between peers — the wire codec *is* the protocol: one
  frame wraps one ``encode_envelope`` document, and a per-destination flush
  travels as a single frame carrying one
  :class:`~repro.federation.envelopes.Bundle` (many payloads, one
  round-trip);
* **control frames** between the coordinator and each peer — submissions,
  question answers, status polls, partition holds, checkpoint/halt and exit
  — with the peer's events (ticket terminals, question opened/gone) pushed
  back on the same connection.

The host is single-threaded and reactive: a ``selectors`` loop blocks on the
sockets, and every wakeup steps the peer to a fixpoint and flushes the links
before sleeping again.  Where it differs from the in-process driver, the
host decides: a delivery or submission that admission refuses is retried
locally (a remote client cannot back off), and a wakeup works until nothing
moves instead of one round.  When the coordinator's connection closes —
including because the coordinating process was killed — the host exits,
which is what keeps test teardown free of orphan processes.

The module doubles as the ``repro-peer`` console entry point::

    repro-peer --config /path/to/peer-config.json
"""

from __future__ import annotations

import argparse
import os
import selectors
import signal
import sys
import time
import traceback
from random import Random
from typing import Dict, List, Optional, Tuple

from ..codec.framing import FRAME_CONTROL, FRAME_ENVELOPE, encode_frame
from ..codec.wire import (
    WIRE_VERSION,
    CodecError,
    _decode_choice,
    decode_envelope,
    decode_schema,
    decode_tgd,
    decode_tuple,
    decode_user_operation,
    dumps,
    encode_envelope,
    encode_schema,
    encode_tgd,
    encode_tuple,
    loads,
    payload_kind,
)
from ..obs.flight import FlightRecorder
from ..obs.trace import NOOP_TRACER, Tracer
from ..service.admission import AdmissionConfig, AdmissionError
from ..storage.memory import FrozenDatabase
from .envelopes import Bundle
from .exchange import ExchangeRules, FederationError
from .peer import Peer, encode_question
from .socket_transport import (
    ChannelClosed,
    FrameChannel,
    FrameListener,
    OutgoingLink,
    SocketAddress,
    SocketTransportError,
    monotonic,
)

#: The reserved peer name the coordinator identifies itself with.
COORDINATOR = "@coordinator"


# ----------------------------------------------------------------------
# Peer config files (written by the coordinator, read by the peer process)
# ----------------------------------------------------------------------
def encode_admission(admission: Optional[AdmissionConfig]) -> Optional[Dict]:
    if admission is None:
        return None
    return {
        "max_in_flight": admission.max_in_flight,
        "batch_size": admission.batch_size,
        "max_queue_depth": admission.max_queue_depth,
        "compatible_groups": admission.compatible_groups,
    }


def decode_admission(body: Optional[Dict]) -> Optional[AdmissionConfig]:
    if body is None:
        return None
    return AdmissionConfig(
        max_in_flight=int(body["max_in_flight"]),
        batch_size=int(body["batch_size"]),
        max_queue_depth=None
        if body["max_queue_depth"] is None
        else int(body["max_queue_depth"]),
        compatible_groups=bool(body["compatible_groups"]),
    )


def encode_peer_config(
    name: str,
    schema,
    initial,
    mappings,
    ownership: Dict[str, Tuple[str, ...]],
    addresses: Dict[str, SocketAddress],
    tracker: str = "PRECISE",
    admission: Optional[AdmissionConfig] = None,
    max_total_steps: int = 1_000_000,
    group_commit: bool = True,
    coalesce: bool = True,
    link_delay: float = 0.0,
    reorder_seed: Optional[int] = None,
    trace: bool = False,
    trace_path: Optional[str] = None,
    restore: Optional[str] = None,
    telemetry_interval: float = 0.0,
    flight_dir: Optional[str] = None,
    flight_capacity: int = 512,
    stage_rounds: int = 1,
    stage_delay: float = 0.0,
) -> bytes:
    """One peer's complete startup description, as canonical codec JSON.

    *initial* is the **union** initial database: the peer filters its own
    store down to owned relations but needs the whole thing for null-factory
    avoidance, exactly like the in-process network's constructor.
    """
    body = {
        "v": WIRE_VERSION,
        "t": "peer-config",
        "name": name,
        "schema": encode_schema(schema),
        "mappings": [encode_tgd(tgd) for tgd in mappings],
        "ownership": [
            [peer, list(relations)] for peer, relations in ownership.items()
        ],
        "initial": {
            relation: [encode_tuple(row) for row in sorted(
                initial.tuples(relation), key=repr
            )]
            for relation in schema.relation_names()
        },
        "addresses": {
            peer: address.to_body() for peer, address in addresses.items()
        },
        "tracker": tracker,
        "admission": encode_admission(admission),
        "max_total_steps": max_total_steps,
        "group_commit": group_commit,
        "coalesce": coalesce,
        "link_delay": link_delay,
        "reorder_seed": reorder_seed,
        "trace": trace,
        "trace_path": trace_path,
        "restore": restore,
        "telemetry_interval": telemetry_interval,
        "flight_dir": flight_dir,
        "flight_capacity": flight_capacity,
        "stage_rounds": stage_rounds,
        "stage_delay": stage_delay,
    }
    return dumps(body) + b"\n"


# ----------------------------------------------------------------------
# The host
# ----------------------------------------------------------------------
class PeerHost:
    """One peer's event loop: sockets in, the peer runtime, sockets out."""

    def __init__(self, config: Dict):
        if config.get("v") != WIRE_VERSION:
            raise CodecError(
                "unsupported peer-config version {!r} (this build speaks {})".format(
                    config.get("v"), WIRE_VERSION
                )
            )
        if config.get("t") != "peer-config":
            raise CodecError("not a peer config")
        self.name = config["name"]
        self.schema = decode_schema(config["schema"])
        owner_of = {
            relation: peer
            for peer, relations in config["ownership"]
            for relation in relations
        }
        rules = ExchangeRules([decode_tgd(body) for body in config["mappings"]], owner_of)
        initial = FrozenDatabase(self.schema, {
            relation: frozenset(decode_tuple(body) for body in rows)
            for relation, rows in config["initial"].items()
        })
        addresses = {
            peer: SocketAddress.from_body(body)
            for peer, body in config["addresses"].items()
        }
        self._trace_path = config.get("trace_path")
        if config.get("trace"):
            # One tracer per process, ids prefixed with the peer name so the
            # coordinator's merged multi-file export cannot collide.
            self.tracer = Tracer(prefix="{}.".format(self.name))
        else:
            # Explicitly the noop even under REPRO_TRACE=1: the inherited
            # environment must not wire peer processes to *unprefixed*
            # process-local tracers whose ids would collide when merged.
            self.tracer = NOOP_TRACER

        # -- sockets -----------------------------------------------------
        self._listener = FrameListener(addresses[self.name])
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, self._listener)
        link_delay = float(config.get("link_delay") or 0.0)
        reorder_seed = config.get("reorder_seed")
        self._links: Dict[str, OutgoingLink] = {}
        for peer, address in addresses.items():
            if peer == self.name:
                continue
            rng = None
            if reorder_seed is not None:
                # Seed with a string: deterministic across processes (unlike
                # hash()), distinct per directed link.
                rng = Random("{}:{}:{}".format(reorder_seed, self.name, peer))
            self._links[peer] = OutgoingLink(
                peer, address, delay=link_delay, rng=rng
            )
        self._hello = encode_frame(
            FRAME_CONTROL, dumps({"t": "hello", "peer": self.name})
        )
        self._coordinator: Optional[FrameChannel] = None
        self._pending_events: List[bytes] = []

        # -- the peer ----------------------------------------------------
        self.peer = Peer.build(
            self.name,
            rules,
            initial,
            send=self._enqueue_payload,
            restore=config.get("restore"),
            tracer=self.tracer,
            coalesce=config["coalesce"],
            stage_rounds=int(config.get("stage_rounds") or 1),
            stage_delay=float(config.get("stage_delay") or 0.0),
            tracker=config["tracker"],
            admission=decode_admission(config["admission"]),
            max_total_steps=config["max_total_steps"],
            group_commit=config["group_commit"],
        )
        # Wire counters survive a restart: the coordinator's drain barrier
        # compares every sender's frames_sent against this peer's
        # frames_received, and a reborn peer restarting at zero could never
        # catch up with a survivor's full history.
        restored = self.peer.restored.get("host", {})
        #: Frames decoded per source peer (the drain accounting the
        #: coordinator compares with senders' ``frames_sent``).
        self.frames_received: Dict[str, int] = {
            peer: int(count) for peer, count in restored.get("frames_received", ())
        }
        for peer, count in restored.get("frames_sent", ()):
            if peer in self._links:
                self._links[peer].frames_sent = int(count)
        self.payloads_received = int(restored.get("payloads_received", 0))
        self._halted = False
        self._exit = False
        #: The peer activity seq the last went-idle push reported (-1 = never).
        self._idle_pushed_at = -1

        # -- telemetry + flight recorder --------------------------------
        #: Unsolicited heartbeat cadence in seconds (0 = telemetry off).
        self._telemetry_interval = float(config.get("telemetry_interval") or 0.0)
        self._telemetry_seq = 0
        self._next_telemetry = (
            monotonic() + self._telemetry_interval
            if self._telemetry_interval > 0
            else None
        )
        #: Last absolute metrics snapshot sent, for heartbeat deltas.
        self._last_telemetry_metrics: Dict[str, object] = {}
        flight_dir = config.get("flight_dir") or os.environ.get(
            "REPRO_FLIGHT_DIR"
        )
        self.flight = FlightRecorder(
            flight_dir,
            self.name,
            capacity=int(config.get("flight_capacity") or 512),
        )
        #: How many tracer spans the flight recorder has already captured.
        self._flight_span_index = 0
        # Wire counters join the metrics registry as a producer: the full
        # collect() the status path serves includes them uniformly (keys:
        # wire_frames_sent, wire_frames_received, ...).
        self.peer.service.metrics.registry.register_producer(
            self._wire_metrics, prefix="wire_"
        )

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def run(self) -> None:
        try:
            # SIGTERM (the coordinator's terminate escalation, or an operator)
            # must leave a postmortem: the handler raises so a select blocked
            # without a timeout unblocks (PEP 475 would otherwise retry it).
            signal.signal(signal.SIGTERM, self._on_sigterm)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
        try:
            while not self._exit:
                for key, _ in self._selector.select(self._select_timeout()):
                    ready = key.data
                    if ready is self._listener:
                        self._accept()
                    else:
                        self._read_channel(ready)
                if not self._halted:
                    self._work()
                    self._flush()
                # Heartbeats keep beating while halted: a frozen-for-kill
                # peer is still alive, and the watchdog should know.
                self._telemetry_tick()
                self._idle_push()
        except Exception:
            self._flight_dump(
                "unhandled-exception", error=traceback.format_exc(limit=20)
            )
            raise
        finally:
            self._shutdown()

    def _on_sigterm(self, signum, frame) -> None:
        self._flight_dump("sigterm")
        self._exit = True
        raise SystemExit(0)

    def _select_timeout(self) -> Optional[float]:
        if self._exit:
            return 0.0
        due = []
        if self._next_telemetry is not None:
            due.append(self._next_telemetry)
        if not self._halted:
            due.extend(
                link.next_due()
                for link in self._links.values()
                if link.next_due() is not None
            )
            if self.peer.retry or self.peer.submit_retry:
                # Admission frees on commits; retry shortly even without input.
                due.append(monotonic() + 0.01)
            if self.peer.staging.staged_count():
                deadline = self.peer.staging.next_deadline()
                if deadline is not None:
                    due.append(deadline)
                else:
                    # Round-triggered windows need work rounds to keep
                    # advancing while the sockets are silent, or a staged
                    # batch could sit forever.
                    due.append(monotonic() + 0.002)
        if not due:
            return None  # only control traffic matters now
        return max(0.0, min(due) - monotonic())

    def _accept(self) -> None:
        channel = self._listener.accept()
        self._selector.register(channel, selectors.EVENT_READ, channel)

    def _read_channel(self, channel: FrameChannel) -> None:
        try:
            frames = channel.receive()
        except ChannelClosed:
            try:
                self._selector.unregister(channel)
            except KeyError:  # pragma: no cover - already gone
                pass
            if channel is self._coordinator:
                # The coordinating process is gone; there is nobody left to
                # drive or drain this peer.  Exiting here is the orphan
                # protection the harness teardown relies on.
                self._flight_dump("orphan-exit")
                self._exit = True
            return
        for frame in frames:
            if frame.kind == FRAME_CONTROL:
                self._handle_control(channel, loads(frame.payload))
            else:
                self._handle_envelope(channel.label, frame.payload)

    def _handle_envelope(self, source: str, payload_bytes: bytes) -> None:
        self.frames_received[source] = self.frames_received.get(source, 0) + 1
        if self.tracer.enabled:
            before = self.tracer.clock()
            payload = decode_envelope(payload_bytes)
            decode_seconds = self.tracer.clock() - before
            context = getattr(payload, "trace", None)
            if context is not None:
                # The receive half of the wire hop: codec CPU in the attrs,
                # parented into the payload's trace like the in-process
                # transport's wire span.
                self.tracer.record_span(
                    "wire",
                    before,
                    before + decode_seconds,
                    phase="wire",
                    parent=context,
                    peer=self.name,
                    kind=payload_kind(payload),
                    destination=self.name,
                    bytes=len(payload_bytes),
                    decode_seconds=decode_seconds,
                )
        else:
            payload = decode_envelope(payload_bytes)
        self.payloads_received += len(payload) if isinstance(payload, Bundle) else 1
        refused = self.peer.deliver(payload)
        # A full admission queue defers, never loses: the peer retries the
        # refused payloads on later work rounds.
        self.peer.retry.extend(refused)
        if self.flight.enabled:
            self.flight.record(
                "delivery", source=source, payload=payload_kind(payload),
                deferred=len(refused),
            )
        self._forward_events()

    # ------------------------------------------------------------------
    # Control handling
    # ------------------------------------------------------------------
    def _handle_control(self, channel: FrameChannel, body: Dict) -> None:
        kind = body["t"]
        if self.flight.enabled and kind in (
            "submit", "answer", "checkpoint", "exit", "hold", "release"
        ):
            self.flight.record("control", control=kind)
        if kind == "hello":
            channel.label = body["peer"]
            if channel.label == COORDINATOR:
                self._coordinator = channel
                pending, self._pending_events = self._pending_events, []
                for frame in pending:
                    self._send_event_frame(frame)
        elif kind == "submit":
            fid = int(body["fid"])
            operation = decode_user_operation(body["op"])
            try:
                self.peer.submit(fid, operation)
            except AdmissionError:
                # Flood submission must be loss-free: the submitting client
                # is a remote process, so admission overflow is backpressure
                # here, not a client error.
                self.peer.submit_retry.append((fid, operation))
        elif kind == "answer":
            # A question cancelled while this answer was in flight counts as
            # a dropped answer inside the peer: a real federation must
            # tolerate the race the in-process driver cannot have.
            self.peer.answer(
                (body["executing"], int(body["decision"])),
                _decode_choice(body["choice"]),
            )
        elif kind == "status":
            self._send_control(channel, self._status_reply(body.get("round", 0)))
        elif kind == "hold":
            self._links[body["peer"]].held = True
        elif kind == "release":
            self._links[body["peer"]].held = False
        elif kind == "reset-link":
            # The destination process was replaced: drop the (possibly
            # half-dead) connection so the next flush dials the reborn
            # listener.  Queued frames are kept — delivery stays
            # at-least-once.
            self._links[body["peer"]].reset()
        elif kind == "drop-questions":
            self.peer.drop_questions(body["executing"])
        elif kind == "checkpoint":
            self._handle_checkpoint(channel, body)
        elif kind == "snapshot":
            self._send_control(channel, {
                "t": "snapshot-reply",
                "relations": {
                    relation: [encode_tuple(row) for row in sorted(rows, key=repr)]
                    for relation, rows in self.peer.owned_snapshot().items()
                },
            })
        elif kind == "trace-export":
            count = self.tracer.export_jsonl(body["path"])
            self._send_control(
                channel, {"t": "trace-exported", "path": body["path"], "spans": count}
            )
        elif kind == "exit":
            self._exit = True
        else:
            raise FederationError("unknown control message {!r}".format(kind))

    def _handle_checkpoint(self, channel: FrameChannel, body: Dict) -> None:
        # Reach a local fixpoint, then push every queued frame out regardless
        # of simulated link delay or an open staging window: the frames'
        # contents are already decided, and a checkpoint must not strand
        # them in a dying process.
        self._work()
        self.peer.flush(force=True)
        self._flush(force=True)
        host_extra = {
            # Exact at checkpoint time: every link toward this peer is held
            # and this peer is caught up (coordinator's checkpoint protocol),
            # so the counters restored from here continue the same streams.
            "frames_received": sorted(self.frames_received.items()),
            "frames_sent": sorted(
                (peer, link.frames_sent) for peer, link in self._links.items()
            ),
            "payloads_received": self.payloads_received,
        }
        self.peer.checkpoint(body["path"], extra={"host": host_extra})
        if body.get("halt"):
            # Freeze: no more work or flushes — the coordinator is about to
            # kill this process, and work done after the checkpoint would
            # fork the state the reborn peer restores.
            self._halted = True
        self._send_control(channel, {"t": "checkpoint-done", "path": body["path"]})

    # ------------------------------------------------------------------
    # Work, events and the links
    # ------------------------------------------------------------------
    def _work(self) -> None:
        """Step the peer until a round makes no progress."""
        while True:
            before = self.peer.activity_seq
            self.peer.step()
            self._forward_events()
            if self.peer.activity_seq == before:
                return

    def _forward_events(self) -> None:
        """Push the peer's reported outcomes to the coordinator, in order."""
        for event in self.peer.take_events():
            if event[0] == "question":
                question = event[1]
                body = encode_question(question)
                body.update(t="question", inbox=self.name)
                self.flight.record(
                    "question",
                    executing=question.executing_peer,
                    decision=question.decision_id,
                )
            elif event[0] == "question-gone":
                executing, decision = event[1]
                body = {
                    "t": "question-gone",
                    "executing": executing,
                    "decision": decision,
                    "inbox": self.name,
                }
            else:
                _, fid, status = event
                body = {"t": "ticket", "fid": fid, "status": status.value}
                self.flight.record("ticket", fid=fid, status=status.value)
            self._event(body)

    def _enqueue_payload(self, destination: str, payload: object) -> None:
        """The peer's ``send``: encode one message onto its outgoing link."""
        if self.tracer.enabled:
            before = self.tracer.clock()
            encoded = encode_envelope(payload)
            encode_seconds = self.tracer.clock() - before
            context = getattr(payload, "trace", None)
            if context is not None:
                self.tracer.record_span(
                    "wire",
                    before,
                    before + encode_seconds,
                    phase="wire",
                    parent=context,
                    peer=self.name,
                    kind=payload_kind(payload),
                    destination=destination,
                    bytes=len(encoded),
                    encode_seconds=encode_seconds,
                )
        else:
            encoded = encode_envelope(payload)
        self._links[destination].enqueue(
            encode_frame(FRAME_ENVELOPE, encoded), monotonic()
        )

    def _flush(self, force: bool = False) -> None:
        now = float("inf") if force else monotonic()
        before = sum(link.frames_sent for link in self._links.values())
        for link in self._links.values():
            link.flush(now, hello=self._hello)
        if sum(link.frames_sent for link in self._links.values()) != before:
            # Frames moving onto sockets is activity the drain must see.
            self.peer.activity_seq += 1

    # ------------------------------------------------------------------
    # Telemetry and the flight recorder
    # ------------------------------------------------------------------
    def _wire_metrics(self) -> Dict[str, object]:
        """Socket-layer counters, published through the metrics registry."""
        return {
            "frames_sent": sum(
                link.frames_sent for link in self._links.values()
            ),
            "frames_received": sum(self.frames_received.values()),
            "payloads_received": self.payloads_received,
            "deliveries_deferred": self.peer.deliveries_deferred,
            "answers_dropped": self.peer.answers_dropped,
            "payloads_staged": self.peer.staging.payloads_staged,
            "staged_flushes": self.peer.staging.flushed_batches,
        }

    def _telemetry_tick(self) -> None:
        """Emit one heartbeat frame and sync the flight recorder when due."""
        if self._next_telemetry is None:
            return
        now = monotonic()
        if now < self._next_telemetry:
            return
        self._next_telemetry = now + self._telemetry_interval
        self._telemetry_seq += 1
        self.flight.record("heartbeat", seq=self._telemetry_seq)
        self._flight_sync()
        if self._coordinator is not None and not self._coordinator.closed:
            # Only a connected coordinator gets heartbeats: queueing them
            # while disconnected would flood stale frames on reconnect.
            frame = encode_frame(
                FRAME_CONTROL, dumps(self._telemetry_body())
            )
            try:
                self._coordinator.send_bytes(frame)
            except SocketTransportError:
                pass

    def _telemetry_body(self) -> Dict:
        """One unsolicited heartbeat: the status shape plus seq + deltas."""
        body = self._status_reply(0)
        del body["round"]
        body["t"] = "telemetry"
        body["seq"] = self._telemetry_seq
        body["wall"] = time.time()
        body["links"] = {
            peer: link.stats() for peer, link in self._links.items()
        }
        # Metrics travel as deltas against the previous heartbeat: numeric
        # keys carry the difference (the timeline re-accumulates them into
        # absolutes), non-numeric keys pass through as-is.
        metrics = body["metrics"]
        delta: Dict[str, object] = {}
        for key, value in metrics.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                base = self._last_telemetry_metrics.get(key, 0)
                if isinstance(base, (int, float)) and not isinstance(base, bool):
                    delta[key] = value - base
                    continue
            delta[key] = value
        self._last_telemetry_metrics = metrics
        body["metrics"] = delta
        body["metrics_delta"] = True
        return body

    def _is_idle(self) -> bool:
        """The peer is idle and every outgoing link has drained."""
        return self.peer.is_idle() and not any(
            link.queued for link in self._links.values()
        )

    def _idle_push(self) -> None:
        """Push one unsolicited went-idle status delta to the coordinator.

        The event-driven half of the watermark drain: the moment this peer
        settles (service quiescent, nothing staged, queued, or parked) it
        pushes a telemetry frame carrying its final per-link watermarks and
        activity seq, so the coordinator's ``drain()`` blocks on its
        selector instead of pacing status rounds.  One push per activity
        seq — a peer that stays idle stays silent — and it fires regardless
        of ``telemetry_interval``, so the watermark drain works with
        periodic heartbeats off.
        """
        if self._coordinator is None or self._coordinator.closed:
            return
        if self.peer.activity_seq == self._idle_pushed_at:
            return
        if self._halted or not self._is_idle():
            return
        self._idle_pushed_at = self.peer.activity_seq
        self._telemetry_seq += 1
        # Same discipline as the periodic heartbeat: the flight ring syncs
        # to disk *before* the frame goes out, so anything the coordinator
        # learns from this push is already covered by a postmortem dump.
        self.flight.record("heartbeat", seq=self._telemetry_seq, idle=True)
        self._flight_sync()
        frame = encode_frame(FRAME_CONTROL, dumps(self._telemetry_body()))
        try:
            self._coordinator.send_bytes(frame)
        except SocketTransportError:
            pass

    def _flight_sync(self) -> None:
        """Copy tracer spans recorded since the last sync into the flight ring."""
        if not self.flight.enabled:
            return
        spans = self.tracer.spans
        if self._flight_span_index > len(spans):
            self._flight_span_index = 0  # the tracer was cleared
        for span in spans[self._flight_span_index:]:
            self.flight.record_span(span.to_record())
        self._flight_span_index = len(spans)
        self.flight.flush()

    def _flight_dump(self, reason: str, **fields: object) -> None:
        """Postmortem: sync, re-capture the span tail, and dump to disk."""
        if not self.flight.enabled:
            return
        self._flight_sync()
        # Re-emit the recent span tail: spans captured *open* at an earlier
        # heartbeat have closed since, and the dump must carry their final
        # records (merge_spans dedups, preferring the closed record).
        spans = self.tracer.spans
        for span in spans[-64:]:
            self.flight.record_span(span.to_record())
        self.flight.dump(reason, **fields)

    # ------------------------------------------------------------------
    # Events and replies
    # ------------------------------------------------------------------
    def _event(self, body: Dict) -> None:
        frame = encode_frame(FRAME_CONTROL, dumps(body))
        if self._coordinator is None or self._coordinator.closed:
            self._pending_events.append(frame)
            return
        self._send_event_frame(frame)

    def _send_event_frame(self, frame: bytes) -> None:
        try:
            self._coordinator.send_bytes(frame)
        except SocketTransportError:
            self._pending_events.append(frame)

    def _send_control(self, channel: FrameChannel, body: Dict) -> None:
        try:
            channel.send_frame(FRAME_CONTROL, dumps(body))
        except SocketTransportError:  # pragma: no cover - peer died mid-reply
            pass

    def _status_reply(self, round_number: int) -> Dict:
        peer = self.peer
        snapshot = peer.service.metrics_snapshot()
        return {
            "t": "status-reply",
            "round": round_number,
            "peer": self.name,
            "quiescent": self._is_idle(),
            "halted": self._halted,
            "outbox": len(peer.outbox),
            "staged": peer.staging.staged_count(),
            "queued": sum(link.queued for link in self._links.values()),
            "activity_seq": peer.activity_seq,
            "retry": len(peer.retry) + len(peer.submit_retry),
            "held": sorted(
                name for name, link in self._links.items() if link.held
            ),
            "sent": {
                name: link.frames_sent for name, link in self._links.items()
            },
            "received": dict(self.frames_received),
            "payloads_received": self.payloads_received,
            "open_questions": len(peer.inbox),
            "committed": snapshot["committed"],
            # The *full* registry collect, not a hand-kept key list: every
            # registered instrument and producer (service counters, store
            # gauges, scheduler stats, wire_ counters) rides the status
            # path uniformly.  tests/federation/test_telemetry.py pins the
            # shape so a new instrument cannot silently drop off again.
            "metrics": snapshot,
            "deliveries_deferred": peer.deliveries_deferred,
            "answers_dropped": peer.answers_dropped,
            "firings_emitted": peer.firings_emitted,
            "retractions_emitted": peer.retractions_emitted,
            "notices_emitted": peer.notices_emitted,
            "envelopes_coalesced": peer.envelopes_coalesced,
        }

    def _shutdown(self) -> None:
        # A graceful shutdown still closes the flight record (first-reason
        # wins: a sigterm/orphan-exit/exception dump keeps its reason).
        self._flight_dump("shutdown")
        if self._trace_path and self.tracer.enabled:
            try:
                self.tracer.export_jsonl(self._trace_path)
            except OSError:  # pragma: no cover - export is best effort
                pass
        for link in self._links.values():
            link.close()
        for key in list(self._selector.get_map().values()):
            ready = key.data
            if ready is not self._listener:
                ready.close()
        self._selector.close()
        self._listener.close()


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    """``repro-peer``: run one federation peer from a config file."""
    parser = argparse.ArgumentParser(
        prog="repro-peer",
        description="Run one update-exchange federation peer as a process.",
    )
    parser.add_argument(
        "--config",
        required=True,
        help="path to a codec-JSON peer config (written by ProcessFederation)",
    )
    arguments = parser.parse_args(argv)
    with open(arguments.config, "rb") as handle:
        config = loads(handle.read())
    host = PeerHost(config)
    try:
        host.run()
    except Exception:  # pragma: no cover - surfaced via the process log
        traceback.print_exc()
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Exchange envelope payloads: what peers actually say to each other.

Every payload is a small immutable value carried by a transport
:class:`~repro.federation.transport.Envelope`.  The update-bearing payloads
(:class:`RemoteUpdate`, :class:`ExchangeFiring`, :class:`ExchangeRetraction`)
are re-submitted through the destination peer's admission queue on delivery;
the question-routing payloads implement the paper's collaboration loop across
peers — a frontier question raised while chasing a forwarded update travels
back to the peer whose users caused it, and the answer travels forward again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple as PyTuple, Union

from ..core.frontier import FrontierOperation, FrontierRequest
from ..core.terms import DataTerm, Variable
from ..core.tgd import Tgd
from ..core.tuples import Tuple
from ..core.update import UserOperation
from ..obs.trace import SpanContext
from ..service.tickets import RemoteOrigin, TicketStatus

#: Hashable form of an exported variable assignment.
AssignmentItems = FrozenSet[PyTuple[Variable, DataTerm]]


def freeze_assignment(assignment: Dict[Variable, DataTerm]) -> AssignmentItems:
    """The hashable (frozenset-of-items) form of an assignment."""
    return frozenset(assignment.items())


@dataclass(frozen=True)
class RemoteUpdate:
    """A user operation routed to the peer owning its target relation."""

    operation: UserOperation
    origin: RemoteOrigin
    #: Originating update's trace context (``None`` when tracing is off).
    #: ``compare=False`` keeps equality/hashing — and with them golden
    #: decode comparisons and coalescing dedup — independent of tracing.
    trace: Optional[SpanContext] = field(default=None, compare=False)


@dataclass(frozen=True)
class ExchangeFiring:
    """Forward exchange: a cross-peer mapping's LHS matched at the source."""

    tgd: Tgd
    assignment_items: AssignmentItems
    head_rows: PyTuple[Tuple, ...]
    origin: RemoteOrigin
    #: Originating update's trace context (``None`` when tracing is off).
    #: ``compare=False`` keeps equality/hashing — and with them golden
    #: decode comparisons and coalescing dedup — independent of tracing.
    trace: Optional[SpanContext] = field(default=None, compare=False)

    def assignment(self) -> Dict[Variable, DataTerm]:
        return dict(self.assignment_items)


@dataclass(frozen=True)
class ExchangeRetraction:
    """Backward exchange: a deletion destroyed the last RHS match remotely."""

    tgd: Tgd
    assignment_items: AssignmentItems
    removed_row: Tuple
    origin: RemoteOrigin
    #: Originating update's trace context (``None`` when tracing is off).
    #: ``compare=False`` keeps equality/hashing — and with them golden
    #: decode comparisons and coalescing dedup — independent of tracing.
    trace: Optional[SpanContext] = field(default=None, compare=False)

    def assignment(self) -> Dict[Variable, DataTerm]:
        return dict(self.assignment_items)


@dataclass(frozen=True)
class QuestionOpened:
    """A forwarded update parked on a frontier question; route it home."""

    executing_peer: str
    decision_id: int
    request: FrontierRequest
    origin: RemoteOrigin
    ticket_description: str
    #: Originating update's trace context (``None`` when tracing is off).
    #: ``compare=False`` keeps equality/hashing — and with them golden
    #: decode comparisons and coalescing dedup — independent of tracing.
    trace: Optional[SpanContext] = field(default=None, compare=False)


@dataclass(frozen=True)
class QuestionCancelled:
    """The parked update aborted (and restarted); the question is moot."""

    executing_peer: str
    decision_id: int
    origin: RemoteOrigin
    #: Originating update's trace context (``None`` when tracing is off).
    #: ``compare=False`` keeps equality/hashing — and with them golden
    #: decode comparisons and coalescing dedup — independent of tracing.
    trace: Optional[SpanContext] = field(default=None, compare=False)


@dataclass(frozen=True)
class QuestionAnswer:
    """A client at the originating peer answered a routed question."""

    executing_peer: str
    decision_id: int
    choice: Union[FrontierOperation, int]
    answered_by: str
    #: Originating update's trace context (``None`` when tracing is off).
    #: ``compare=False`` keeps equality/hashing — and with them golden
    #: decode comparisons and coalescing dedup — independent of tracing.
    trace: Optional[SpanContext] = field(default=None, compare=False)


@dataclass(frozen=True)
class CommitNotice:
    """A routed user update reached a terminal state at its executing peer."""

    origin: RemoteOrigin
    status: TicketStatus
    #: Originating update's trace context (``None`` when tracing is off).
    #: ``compare=False`` keeps equality/hashing — and with them golden
    #: decode comparisons and coalescing dedup — independent of tracing.
    trace: Optional[SpanContext] = field(default=None, compare=False)


ExchangePayload = Union[
    RemoteUpdate,
    ExchangeFiring,
    ExchangeRetraction,
    QuestionOpened,
    QuestionCancelled,
    QuestionAnswer,
    CommitNotice,
]


@dataclass(frozen=True)
class Bundle:
    """Several payloads travelling as one envelope (a per-destination flush).

    The transport treats the bundle as a single message — one queue slot, one
    delivery, one delay — which is exactly the point: a commit batch's worth
    of exchange envelopes to the same destination pays the per-message fixed
    costs once.  Receivers unpack and process the payloads in order, so a
    bundle is semantically identical to sending its payloads back-to-back on
    a FIFO link (and *stronger* under reordering: the bundle cannot be
    interleaved).
    """

    payloads: PyTuple[object, ...]
    #: Trace context of the first traced member (``None`` when tracing is
    #: off); ``compare=False`` keeps bundle equality content-only.
    trace: Optional[SpanContext] = field(default=None, compare=False)

    def __len__(self) -> int:
        return len(self.payloads)

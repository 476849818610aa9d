"""Wire frames exchanged between brokers.

A published message is identified by a globally unique ``msg_id``. As it
moves through the overlay it is wrapped in :class:`PacketFrame` copies; each
copy carries the subset of subscribers it is responsible for
(``destinations``) and the ordered list of brokers that have sent it
(``routing_path``) — the in-band state DCRD uses for loop avoidance and
upstream rerouting (§III-D).

Every *distinct* copy additionally carries a globally unique ``transfer_id``
assigned when the copy is created. Retransmissions of a copy reuse the id,
so (a) the hop-by-hop :class:`AckFrame` can name exactly which transmission
it confirms even when several copies of one message are in flight between
the same pair of brokers, and (b) receivers can suppress byte-identical
duplicates caused by lost ACKs.

Frames are immutable; every hop builds new copies via
:meth:`PacketFrame.forwarded`. Frame construction sits on the data-plane
hot path (one copy per hop per message, plus retransmissions), so both
frame types are hand-written ``__slots__`` classes rather than frozen
dataclasses: a plain ``__init__`` skips the frozen-dataclass
``object.__setattr__`` indirection per field. Loop-avoidance membership
tests scan ``routing_path`` itself: paths are a handful of hops, so a
tuple scan costs less than keeping a second, set-shaped copy of the path
on every frame (frames queued behind a backlog would pin it).
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Optional, Tuple

from repro import probes as _probes

_message_counter = itertools.count(1)
_transfer_counter = itertools.count(1)

_INF = float("inf")
# Bare allocation for the copy fast paths (forwarded/with_destinations),
# which write every slot themselves instead of round-tripping __init__.
_new_frame = object.__new__


def next_message_id() -> int:
    """Allocate a fresh globally unique message id."""
    return next(_message_counter)


def next_transfer_id() -> int:
    """Allocate a fresh globally unique transfer (copy) id."""
    return next(_transfer_counter)


def reset_message_ids() -> None:
    """Reset both id counters (tests and independent experiment repetitions)."""
    global _message_counter, _transfer_counter
    _message_counter = itertools.count(1)
    _transfer_counter = itertools.count(1)


# ---------------------------------------------------------------------------
# Ordering stamper hook. Mirrors the probe-slot discipline: ``None`` by
# default, so the ordering-off publish path pays one module-attribute load
# and one ``is None`` check — the same footprint class the fingerprint
# suite pins for probe sites. When an OrderingPlan activates, its stamper
# is installed here and every fresh frame gets an
# :class:`repro.ordering.tags.OrderTag` before the publish probe fires.
# ---------------------------------------------------------------------------
ORDER_STAMPER = None


def set_order_stamper(stamper) -> None:
    """Install (or with ``None`` remove) the publish-time order stamper."""
    global ORDER_STAMPER
    ORDER_STAMPER = stamper


class PacketFrame:
    """One copy of a published message in flight between two brokers.

    Attributes
    ----------
    msg_id:
        Globally unique id of the published message.
    transfer_id:
        Globally unique id of this copy; shared by its retransmissions.
    topic:
        Topic the message was published on.
    origin:
        Broker hosting the publisher.
    publish_time:
        Virtual time at which the publisher emitted the message.
    destinations:
        Subscriber broker ids this copy must still reach.
    routing_path:
        Ordered brokers that have *sent* this copy (each sender appends
        itself before transmitting — Algorithm 2, line 20).
    source_route:
        Remaining explicit hops, used by the source-routed baselines
        (Multipath, FEC); their paths are fixed at publish time. Empty for
        DCRD/tree/oracle frames.
    fragment_index / fragments_needed:
        Forward-error-correction metadata (the FEC extension): this copy is
        fragment ``fragment_index`` of a message that is decodable once any
        ``fragments_needed`` *distinct* fragments arrive.
        ``fragments_needed == 0`` (the default) marks a self-contained
        packet that delivers on first arrival.
    size:
        Relative payload size in units of one full message (1.0 for normal
        packets; ``1/k`` for (n, k)-code fragments). Feeds the
        volume-based traffic metric and, on finite-capacity links, scales
        the serialisation time.
    priority:
        Urgency for priority-queueing link disciplines: the absolute
        virtual time of the copy's earliest destination deadline (lower =
        more urgent). ``inf`` (the default) means "no deadline known";
        FIFO links ignore this field entirely.
    order_tag:
        Delivery-ordering metadata stamped at publish time when an
        ordering plan is active (``None`` otherwise — the default for
        every ordering-off run). Shared by all copies of a message and
        excluded from ``_key()``: equality/dedup semantics are about the
        copy's wire identity, which the tag (a pure function of
        ``msg_id``) does not change.

    Instances are immutable by convention: every mutation-shaped operation
    (:meth:`forwarded`, :meth:`with_destinations`) returns a new frame.
    """

    __slots__ = (
        "msg_id",
        "transfer_id",
        "topic",
        "origin",
        "publish_time",
        "destinations",
        "routing_path",
        "source_route",
        "fragment_index",
        "fragments_needed",
        "size",
        "priority",
        "order_tag",
    )

    def __init__(
        self,
        msg_id: int,
        transfer_id: int,
        topic: int,
        origin: int,
        publish_time: float,
        destinations: FrozenSet[int],
        routing_path: Tuple[int, ...],
        source_route: Tuple[int, ...] = (),
        fragment_index: int = -1,
        fragments_needed: int = 0,
        size: float = 1.0,
        priority: float = _INF,
        order_tag=None,
    ) -> None:
        self.msg_id = msg_id
        self.transfer_id = transfer_id
        self.topic = topic
        self.origin = origin
        self.publish_time = publish_time
        self.destinations = destinations
        self.routing_path = routing_path
        self.source_route = source_route
        self.fragment_index = fragment_index
        self.fragments_needed = fragments_needed
        self.size = size
        self.priority = priority
        self.order_tag = order_tag

    @staticmethod
    def fresh(
        msg_id: int,
        topic: int,
        origin: int,
        publish_time: float,
        destinations: FrozenSet[int],
        routing_path: Tuple[int, ...] = (),
        source_route: Tuple[int, ...] = (),
        fragment_index: int = -1,
        fragments_needed: int = 0,
        size: float = 1.0,
        priority: float = _INF,
    ) -> "PacketFrame":
        """Create a brand-new copy with its own transfer id."""
        frame = PacketFrame(
            msg_id,
            next_transfer_id(),
            topic,
            origin,
            publish_time,
            destinations,
            routing_path,
            source_route,
            fragment_index,
            fragments_needed,
            size,
            priority,
        )
        stamper = ORDER_STAMPER
        if stamper is not None:
            frame.order_tag = stamper(frame)
        probe = _probes.on_publish
        if probe is not None:
            probe(frame)
        return frame

    def forwarded(
        self,
        sender: int,
        destinations: FrozenSet[int],
        source_route: Tuple[int, ...] = (),
        priority: Optional[float] = None,
    ) -> "PacketFrame":
        """A new copy for the next hop, with *sender* appended to the path.

        ``priority`` overrides the inherited urgency (used when a copy's
        destination subset has a different earliest deadline than its
        parent frame). Slots are written directly (no ``__init__``
        marshalling) — this runs once per forwarded copy.
        """
        copy = _new_frame(PacketFrame)
        copy.msg_id = self.msg_id
        copy.transfer_id = next(_transfer_counter)
        copy.topic = self.topic
        copy.origin = self.origin
        copy.publish_time = self.publish_time
        copy.destinations = destinations
        copy.routing_path = self.routing_path + (sender,)
        copy.source_route = source_route
        copy.fragment_index = self.fragment_index
        copy.fragments_needed = self.fragments_needed
        copy.size = self.size
        copy.priority = self.priority if priority is None else priority
        copy.order_tag = self.order_tag
        probe = _probes.on_fork
        if probe is not None:
            probe(self.transfer_id, copy.transfer_id)
        return copy

    def with_destinations(self, destinations: FrozenSet[int]) -> "PacketFrame":
        """The same copy (same ``transfer_id``) narrowed to *destinations*.

        Used by the broker when it strips itself from a received copy's
        destination set; everything else — including the transfer id, so
        ACK matching and dedup still work — is preserved.
        """
        copy = _new_frame(PacketFrame)
        copy.msg_id = self.msg_id
        copy.transfer_id = self.transfer_id
        copy.topic = self.topic
        copy.origin = self.origin
        copy.publish_time = self.publish_time
        copy.destinations = destinations
        copy.routing_path = self.routing_path
        copy.source_route = self.source_route
        copy.fragment_index = self.fragment_index
        copy.fragments_needed = self.fragments_needed
        copy.size = self.size
        copy.priority = self.priority
        copy.order_tag = self.order_tag
        return copy

    def visited(self, node: int) -> bool:
        """Whether *node* already appears on the routing path."""
        return node in self.routing_path

    def upstream_of(self, node: int) -> int:
        """The broker *node* originally received this copy from.

        Per §III-D this is read from the routing path: the entry immediately
        before *node*'s first appearance; if *node* has not sent the copy
        yet, its upstream is the last sender on the path. Returns ``-1``
        when no upstream exists (*node* is the origin).
        """
        path = self.routing_path
        if node not in path:
            # Common case (the receiver is not on the path yet): a scan
            # instead of a raised-and-caught ValueError from tuple.index.
            return path[-1] if path else -1
        index = path.index(node)
        return path[index - 1] if index > 0 else -1

    def dedup_key(self) -> int:
        """Key identifying byte-identical retransmitted copies."""
        return self.transfer_id

    def _key(self) -> tuple:
        return (
            self.msg_id,
            self.transfer_id,
            self.topic,
            self.origin,
            self.publish_time,
            self.destinations,
            self.routing_path,
            self.source_route,
            self.fragment_index,
            self.fragments_needed,
            self.size,
            self.priority,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not PacketFrame:
            return NotImplemented
        return self._key() == other._key()  # type: ignore[union-attr]

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PacketFrame(msg_id={self.msg_id}, transfer_id={self.transfer_id}, "
            f"topic={self.topic}, origin={self.origin}, "
            f"publish_time={self.publish_time}, destinations={set(self.destinations)}, "
            f"routing_path={self.routing_path}, source_route={self.source_route}, "
            f"fragment_index={self.fragment_index}, "
            f"fragments_needed={self.fragments_needed}, size={self.size}, "
            f"priority={self.priority})"
        )


class AckFrame:
    """Hop-by-hop acknowledgement of one :class:`PacketFrame` copy.

    ``acker`` is the broker confirming reception; ``transfer_id`` names the
    copy being confirmed (Algorithm 2 caches one packet per transmission and
    releases it on the matching ACK).
    """

    __slots__ = ("msg_id", "acker", "transfer_id")

    def __init__(self, msg_id: int, acker: int, transfer_id: int) -> None:
        self.msg_id = msg_id
        self.acker = acker
        self.transfer_id = transfer_id

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not AckFrame:
            return NotImplemented
        return (
            self.msg_id == other.msg_id
            and self.acker == other.acker
            and self.transfer_id == other.transfer_id
        )

    def __hash__(self) -> int:
        return hash((self.msg_id, self.acker, self.transfer_id))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AckFrame(msg_id={self.msg_id}, acker={self.acker}, "
            f"transfer_id={self.transfer_id})"
        )

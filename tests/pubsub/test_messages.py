"""Unit tests for wire frames and id allocation."""

from hypothesis import given, strategies as st

from repro.pubsub.messages import (
    AckFrame,
    PacketFrame,
    next_message_id,
    next_transfer_id,
    reset_message_ids,
)


def make_frame(**overrides):
    defaults = dict(
        msg_id=1,
        topic=0,
        origin=0,
        publish_time=0.0,
        destinations=frozenset({3, 4}),
        routing_path=(),
    )
    defaults.update(overrides)
    return PacketFrame.fresh(**defaults)


class TestIds:
    def test_message_ids_monotonic(self):
        first = next_message_id()
        second = next_message_id()
        assert second == first + 1

    def test_reset_restarts_counters(self):
        next_message_id()
        next_transfer_id()
        reset_message_ids()
        assert next_message_id() == 1
        assert next_transfer_id() == 1

    def test_fresh_frames_get_distinct_transfer_ids(self):
        a = make_frame()
        b = make_frame()
        assert a.transfer_id != b.transfer_id


class TestForwarding:
    def test_forwarded_appends_sender_to_path(self):
        frame = make_frame(routing_path=(0,))
        copy = frame.forwarded(sender=1, destinations=frozenset({3}))
        assert copy.routing_path == (0, 1)
        assert copy.destinations == frozenset({3})

    def test_forwarded_preserves_message_identity(self):
        frame = make_frame()
        copy = frame.forwarded(sender=0, destinations=frame.destinations)
        assert copy.msg_id == frame.msg_id
        assert copy.topic == frame.topic
        assert copy.origin == frame.origin
        assert copy.publish_time == frame.publish_time

    def test_forwarded_allocates_new_transfer_id(self):
        frame = make_frame()
        copy = frame.forwarded(sender=0, destinations=frame.destinations)
        assert copy.transfer_id != frame.transfer_id

    def test_forwarded_carries_source_route(self):
        frame = make_frame(source_route=(5, 6))
        copy = frame.forwarded(0, frame.destinations, source_route=(6,))
        assert copy.source_route == (6,)

    def test_visited(self):
        frame = make_frame(routing_path=(0, 2))
        assert frame.visited(2)
        assert not frame.visited(3)


class TestUpstream:
    def test_origin_has_no_upstream(self):
        frame = make_frame(routing_path=())
        assert frame.upstream_of(0) == -1

    def test_receiver_upstream_is_last_sender(self):
        # 0 sent to 1: at node 1, the upstream is 0.
        frame = make_frame(routing_path=(0,))
        assert frame.upstream_of(1) == 0

    def test_sender_upstream_is_predecessor_of_first_appearance(self):
        # Path 0 -> 1 -> 2, bounced back: node 1's upstream is 0.
        frame = make_frame(routing_path=(0, 1, 2))
        assert frame.upstream_of(1) == 0

    def test_origin_on_path_upstream_is_minus_one(self):
        frame = make_frame(routing_path=(0, 1))
        assert frame.upstream_of(0) == -1

    def test_repeated_appearance_uses_first(self):
        # 0 -> 1 -> 2 -> (bounce) 1 -> 3: node 1 appears twice; its
        # upstream stays 0.
        frame = make_frame(routing_path=(0, 1, 2, 1))
        assert frame.upstream_of(1) == 0


class TestDedup:
    def test_dedup_key_is_transfer_id(self):
        frame = make_frame()
        assert frame.dedup_key() == frame.transfer_id

    def test_distinct_copies_have_distinct_keys(self):
        frame = make_frame()
        copy = frame.forwarded(0, frame.destinations)
        assert frame.dedup_key() != copy.dedup_key()


class TestPriorityAndSize:
    def test_default_priority_is_inf(self):
        assert make_frame().priority == float("inf")

    def test_forwarded_inherits_priority(self):
        frame = make_frame(priority=3.5)
        copy = frame.forwarded(0, frame.destinations)
        assert copy.priority == 3.5

    def test_forwarded_priority_override(self):
        frame = make_frame(priority=3.5)
        copy = frame.forwarded(0, frame.destinations, priority=1.25)
        assert copy.priority == 1.25

    def test_forwarded_preserves_size_and_fragments(self):
        frame = make_frame(size=0.5, fragment_index=1, fragments_needed=2)
        copy = frame.forwarded(0, frame.destinations)
        assert copy.size == 0.5
        assert copy.fragment_index == 1
        assert copy.fragments_needed == 2


def scan_upstream(path, node):
    """§III-D's upstream rule as a plain left-to-right scan of the path."""
    for index, hop in enumerate(path):
        if hop == node:
            return path[index - 1] if index > 0 else -1
    return path[-1] if path else -1


class TestRoutingPath:
    """Loop-avoidance queries read ``routing_path`` and nothing else.

    Hops are drawn from a few broker ids, so chains revisit brokers the
    way bounced copies do (a bounce sends a copy back to a broker already
    on its path).
    """

    @given(
        start=st.lists(st.integers(0, 5), max_size=4),
        hops=st.lists(st.integers(0, 5), max_size=8),
    )
    def test_visited_and_upstream_match_a_tuple_scan(self, start, hops):
        frame = make_frame(routing_path=tuple(start))
        for hop in hops:
            frame = frame.forwarded(hop, frame.destinations)
        path = tuple(start) + tuple(hops)
        assert frame.routing_path == path
        for node in range(7):
            assert frame.visited(node) == any(hop == node for hop in path)
            assert frame.upstream_of(node) == scan_upstream(path, node)

    def test_bounced_path_upstream_is_first_appearance(self):
        frame = make_frame(routing_path=(0, 7, 3, 7))
        assert frame.upstream_of(7) == 0
        assert frame.upstream_of(3) == 7
        assert frame.upstream_of(0) == -1
        assert frame.upstream_of(9) == 7

    def test_forwarded_does_not_mutate_parent(self):
        frame = make_frame(routing_path=(0,))
        copy = frame.forwarded(5, frame.destinations)
        assert copy.routing_path == (0, 5)
        assert frame.routing_path == (0,)
        assert not frame.visited(5)

    def test_with_destinations_preserves_routing_path(self):
        frame = make_frame(routing_path=(0, 5))
        copy = frame.with_destinations(frozenset({4}))
        assert copy.routing_path == frame.routing_path
        assert copy.transfer_id == frame.transfer_id


class TestAckFrame:
    def test_fields(self):
        ack = AckFrame(msg_id=7, acker=3, transfer_id=99)
        assert ack.msg_id == 7 and ack.acker == 3 and ack.transfer_id == 99

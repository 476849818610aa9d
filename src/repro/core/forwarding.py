"""DCRD forwarding: Algorithms 1 and 2 as an event-driven strategy.

Algorithm 1 (routing setup) runs at :meth:`DcrdStrategy.setup` and again
after every link-monitoring cycle: for every (topic, subscriber) pair the
strategy solves the ``<d, r>`` recursion and stores the resulting
:class:`~repro.core.computation.DrTable` (per-broker sending lists in
Theorem 1 order).

Algorithm 2 (the per-packet while loop) cannot block in a discrete-event
world, so each received packet becomes a :class:`_DeliveryTask` — a state
machine at broker ``X`` holding:

* ``pending`` — destinations not yet acknowledged downstream (the paper's
  ``flag[i] = 0`` set);
* ``failed_neighbors`` — neighbours that exhausted their ``m``-transmission
  budget within this task (the "X has tried" memory of the while loop).

Dispatch groups pending destinations by their next hop — the first node on
each destination's sending list that is neither on the routing path nor
already failed (lines 8–19) — and sends one copy per distinct hop through
the shared ARQ layer. An ACK flags the copy's destinations done (lines
23–26); an ARQ failure marks the neighbour failed and re-dispatches its
destinations. A destination with no qualified next hop is bounced to the
upstream broker read from the routing path (lines 10–12); when even that is
impossible (the broker is the origin, or the upstream link failed too) the
destination is abandoned and recorded as given up.

Receiving a bounced packet simply starts a new task at the upstream broker —
"the upstream node running the same DCRD algorithm tries the next node on
its sending list" (§III) falls out naturally because the bounced copy's
routing path disqualifies everything already explored.

The whole state machine is event-driven against the
:mod:`repro.substrate` contract — timing flows exclusively through the
shared :class:`~repro.routing.arq.ArqSender` and transmission through
``ctx.network`` — so the identical forwarding logic runs on the
discrete-event kernel and on the live asyncio TCP transport; the
conformance suite (``tests/integration/test_live_conformance.py``)
asserts both substrates deliver the same pairs under the same scripted
faults.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro import probes as _probes
from repro.core.computation import ControlPlaneSolver, DrTable
from repro.perf import PerfStats
from repro.pubsub.messages import AckFrame, PacketFrame
from repro.pubsub.topics import TopicSpec
from repro.routing.arq import ArqSender
from repro.routing.base import RoutingStrategy, RuntimeContext


class _DeliveryTask:
    """Algorithm 2 running for one received packet copy at one broker."""

    __slots__ = (
        "strategy",
        "node",
        "frame",
        "pending",
        "failed_neighbors",
        "upstream",
        "_hop_of_copy",
    )

    def __init__(self, strategy: "DcrdStrategy", node: int, frame: PacketFrame) -> None:
        self.strategy = strategy
        self.node = node
        self.frame = frame
        self.pending: Set[int] = set(frame.destinations)
        self.failed_neighbors: Set[int] = set()
        # Lazily resolved by _dispatch (-2 = unset): replayed dispatches
        # never consult the upstream at all.
        self.upstream = -2
        self._hop_of_copy: Dict[int, int] = {}
        # Flow cache: the initial dispatch (empty failed set, untouched
        # pending set) is a pure function of the control state and the
        # frame's (topic, routing path, destination) flow signature, so the
        # computed plan — next-hop groups plus abandoned destinations — is
        # memoised on the strategy and replayed for every later copy of
        # the same flow. Table changes clear the cache (see
        # _invalidate_dispatch_cache); per-frame side effects (forwarded
        # copies, ARQ sends, abandon bookkeeping, probes) are re-executed
        # in the recorded order, so a replay is trace-identical to a
        # recomputation.
        cache = strategy._dispatch_cache
        key = (frame.topic, node, frame.routing_path, frame.destinations)
        plan = cache.get(key)
        if plan is None:
            # The frozenset is iterated while ``pending`` (a distinct set)
            # is mutated, so no defensive copy is needed.
            plan = self._dispatch(frame.destinations, record=True)
            if len(cache) < strategy.DISPATCH_CACHE_CAP:
                cache[key] = plan
        else:
            self._replay(plan)

    # ------------------------------------------------------------------
    def _dispatch(
        self, subscribers: FrozenSet[int], record: bool = False
    ) -> Optional[tuple]:
        """Assign each pending destination to a next hop and send copies.

        The next hop of a destination (lines 9–12) is the first node on its
        sending list that is neither on the routing path (``path_set`` makes
        that test O(1)) nor already failed, else the upstream broker. The
        selection is inlined here with its loop invariants (path, failed
        set, upstream fallback, table plumbing) hoisted out of the
        per-subscriber iteration.

        With ``record=True`` (initial dispatch only) the computed plan is
        returned for the strategy's flow cache: ``(abandons, groups)``
        where ``groups`` is ``((hop, destinations, is_bounce), ...)`` in
        send order.
        """
        groups: Dict[int, Set[int]] = {}
        abandoned = [] if record else None
        pending = self.pending
        frame = self.frame
        path = frame.path_set
        node = self.node
        failed = self.failed_neighbors
        upstream = self.upstream
        if upstream == -2:
            upstream = self.upstream = frame.upstream_of(node)
        bounce = upstream if upstream >= 0 and upstream not in failed else None
        tables_get = self.strategy._tables.get
        # Packed (topic, subscriber) key — matches the interning used for
        # link directions: one int hash per lookup, no tuple allocation.
        topic_key = frame.topic << 21
        for subscriber in subscribers:
            if subscriber not in pending:
                continue
            hop = bounce
            table = tables_get(topic_key | subscriber)
            if table is not None:
                sending_list = table._orders.get(node)
                if sending_list is None:
                    sending_list = table.sending_list(node)
                for candidate in sending_list:
                    if candidate in path or candidate in failed or candidate == node:
                        continue
                    hop = candidate
                    break
            if hop is None:
                pending.discard(subscriber)
                self.strategy.abandon(self.node, self.frame, subscriber)
                if abandoned is not None:
                    abandoned.append(subscriber)
                continue
            group = groups.get(hop)
            if group is None:
                groups[hop] = {subscriber}
            else:
                group.add(subscriber)
        if not groups:
            return (tuple(abandoned), ()) if record else None
        strategy = self.strategy
        strategy.frames_forwarded += len(groups)
        arq_send = strategy.arq.send
        hop_of_copy = self._hop_of_copy
        node = self.node
        frame = self.frame
        probe_bounce = _probes.on_bounce
        plan = [] if record else None
        for hop, dests in groups.items():
            destinations = frozenset(dests)
            copy = frame.forwarded(node, destinations)
            hop_of_copy[copy.transfer_id] = hop
            is_bounce = hop == bounce
            if probe_bounce is not None and is_bounce:
                # The upstream fallback won over every sending-list
                # candidate: this copy is a §III-D bounce.
                probe_bounce(strategy.ctx.sim._now, node, hop, copy)
            if plan is not None:
                plan.append((hop, destinations, is_bounce))
            arq_send(node, hop, copy, self._on_acked, self._on_failed)
        return (tuple(abandoned), tuple(plan)) if record else None

    def _replay(self, plan: tuple) -> None:
        """Re-execute a cached dispatch plan for a fresh frame of the flow."""
        abandons, groups = plan
        strategy = self.strategy
        node = self.node
        frame = self.frame
        if abandons:
            pending = self.pending
            for subscriber in abandons:
                pending.discard(subscriber)
                strategy.abandon(node, frame, subscriber)
        if not groups:
            return
        strategy.frames_forwarded += len(groups)
        arq_send = strategy.arq.send
        hop_of_copy = self._hop_of_copy
        probe_bounce = _probes.on_bounce
        on_acked = self._on_acked
        on_failed = self._on_failed
        forwarded = frame.forwarded
        for hop, destinations, is_bounce in groups:
            copy = forwarded(node, destinations)
            hop_of_copy[copy.transfer_id] = hop
            if is_bounce and probe_bounce is not None:
                probe_bounce(strategy.ctx.sim._now, node, hop, copy)
            arq_send(node, hop, copy, on_acked, on_failed)

    # ------------------------------------------------------------------
    # ARQ callbacks
    # ------------------------------------------------------------------
    def _on_acked(self, copy: PacketFrame) -> None:
        """Lines 23–26: the next hop took responsibility for these dests."""
        self._hop_of_copy.pop(copy.transfer_id, None)
        self.pending -= copy.destinations

    def _on_failed(self, copy: PacketFrame) -> None:
        """m transmissions went unACKed: mark the hop dead, re-dispatch."""
        hop = self._hop_of_copy.pop(copy.transfer_id)
        self.failed_neighbors.add(hop)
        probe = _probes.on_failover
        if probe is not None:
            probe(self.strategy.ctx.sim._now, self.node, hop, copy)
        self._dispatch(copy.destinations)


class DcrdStrategy(RoutingStrategy):
    """Delay-Cognizant Reliable Delivery (the paper's contribution)."""

    name = "DCRD"
    uses_acks = True
    #: Upper bound on memoised dispatch plans (safety valve for workloads
    #: with unbounded flow diversity; steady-state runs stay far below it).
    DISPATCH_CACHE_CAP = 65536

    #: Reuse tables no changed edge can reach between refreshes. Flip to
    #: False (per instance) to force the from-scratch reference behaviour:
    #: every refresh with changed estimates re-solves every pair.
    incremental = True

    def __init__(self, ctx: RuntimeContext) -> None:
        super().__init__(ctx)
        self.arq = ArqSender(ctx)
        # Both table maps are keyed by the packed pair id
        # ``(topic << 21) | subscriber`` (node ids fit 21 bits, like the
        # overlay's packed direction ids), so the per-subscriber dispatch
        # lookup hashes one int instead of building a tuple.
        self._tables: Dict[int, DrTable] = {}
        # Flow cache for initial dispatch plans (see _DeliveryTask); any
        # table change clears it, so cached plans never outlive the control
        # state they were computed from.
        self._dispatch_cache: Dict[tuple, tuple] = {}
        self._monitor_version: int = -1
        # The solver of the last rebuild, valid while the monitor version
        # is unchanged; subscription churn solves new pairs on it.
        self._solver: Optional[ControlPlaneSolver] = None
        self.perf = PerfStats()
        self.tasks_started = 0
        self.abandoned = 0
        self.table_rebuilds = 0

    # ------------------------------------------------------------------
    # Control plane (Algorithm 1)
    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Solve the ``<d, r>`` recursion for every (topic, subscriber) pair."""
        self._rebuild_tables()
        # handle_ack is a pure delegation to the ARQ layer; skip the hop on
        # the per-ACK hot path unless a subclass overrides it. Bound here
        # rather than in __init__ so subclasses that swap in their own
        # ArqSender (e.g. the adaptive-RTO extension) are honoured.
        if type(self).handle_ack is DcrdStrategy.handle_ack:
            self.handle_ack = self.arq.handle_ack

    def on_monitor_refresh(self) -> None:
        """Re-run Algorithm 1 when the monitor publishes new estimates."""
        self._rebuild_tables()

    def _rebuild_tables(self) -> None:
        monitor = self.ctx.monitor
        version = monitor.version
        if version == self._monitor_version:
            # Estimates unchanged since the last rebuild: every table is
            # still the exact solution. O(1) thanks to the version counter.
            self.perf.incr("control_plane.refreshes_noop")
            return
        # Change tracking is only valid across a single version step with
        # incrementality on; anything else (first build, missed refreshes,
        # moved latency estimates) falls back to treating every edge as
        # changed, which disables reuse below.
        track_changes = (
            self.incremental
            and self._monitor_version == version - 1
            and not monitor.last_alpha_changed
        )
        changed = monitor.last_changed if track_changes else None
        self._monitor_version = version
        self.table_rebuilds += 1
        self._dispatch_cache.clear()
        self.perf.incr("control_plane.refreshes")
        with self.perf.timer("control_plane.solve_time_s"):
            solver = self._solver = self._new_solver()
            # Group the pairs to re-solve by publisher, one batch each, and
            # remember each pair's slot so tables publish in workload order.
            batches: Dict[int, List[Tuple[int, float]]] = {}
            slots: List[Tuple[int, int, int]] = []
            for spec in self.ctx.workload.topics:
                topic_key = spec.topic << 21
                for sub in spec.subscriptions:
                    key = topic_key | sub.node
                    previous = self._tables.get(key)
                    if (
                        changed is not None
                        and previous is not None
                        and previous.deadline == sub.deadline
                        and not solver.table_affected(
                            spec.publisher, sub.deadline, changed
                        )
                    ):
                        # No changed edge can reach this table's positive-
                        # budget region: the from-scratch solve would
                        # reproduce it bit for bit, so keep it.
                        self.perf.incr("control_plane.tables_reused")
                        continue
                    batch = batches.setdefault(spec.publisher, [])
                    slots.append((key, spec.publisher, len(batch)))
                    batch.append((sub.node, sub.deadline))
            solved = {
                publisher: solver.solve_batch(publisher, pairs)
                for publisher, pairs in batches.items()
            }
            for key, publisher, index in slots:
                self._publish(key, solved[publisher][index])

    def _new_solver(self) -> ControlPlaneSolver:
        """A solver over the monitor's current estimates."""
        return ControlPlaneSolver(
            self.ctx.topology,
            self.ctx.monitor.estimates(),
            m=self.ctx.params.m,
            perf=self.perf,
        )

    def _publish(self, key: int, table: DrTable) -> None:
        """Store a solved table under its packed pair key."""
        probe = _probes.on_table_solved
        if probe is not None:
            # Raw solver output, before any subclass reorders its published
            # copy (the naive-order ablation violates Theorem 1 on purpose).
            # Filter family: handlers may substitute the table (the
            # sanitizer's missort mutation does).
            table = probe(table)
        self._tables[key] = table

    def table(self, topic: int, subscriber: int) -> DrTable:
        """The control state of one (topic, subscriber) pair."""
        try:
            return self._tables[(topic << 21) | subscriber]
        except KeyError:
            raise KeyError((topic, subscriber)) from None

    def sending_list(self, topic: int, subscriber: int, node: int) -> Tuple[int, ...]:
        """Node *node*'s ordered candidates for *subscriber* of *topic*.

        Unknown pairs (e.g. a subscriber that unsubscribed while copies
        were in flight) yield an empty list, so the forwarding task
        abandons the destination cleanly.
        """
        table = self._tables.get((topic << 21) | subscriber)
        if table is None:
            return ()
        return table.sending_list(node)

    # ------------------------------------------------------------------
    # Subscription churn (incremental Algorithm 1)
    # ------------------------------------------------------------------
    def on_subscription_added(self, topic: int, subscription) -> None:
        """Solve the recursion for just the new (topic, subscriber) pair.

        The last rebuild's solver still holds the current estimates while
        the monitor version is unchanged, so its link table, adjacency
        arrays and Dijkstra maps are reused.
        """
        solver = self._solver
        if solver is None or self._monitor_version != self.ctx.monitor.version:
            solver = self._new_solver()
        spec = self.ctx.workload.topic(topic)
        table = solver.solve(spec.publisher, subscription.node, subscription.deadline)
        self._publish((topic << 21) | subscription.node, table)
        self._dispatch_cache.clear()

    def on_subscription_removed(self, topic: int, node: int) -> None:
        """Drop the pair's control state; in-flight copies self-abandon."""
        key = (topic << 21) | node
        self._tables.pop(key, None)
        self._dispatch_cache.clear()

    # ------------------------------------------------------------------
    # Data plane (Algorithm 2)
    # ------------------------------------------------------------------
    def publish(self, spec: TopicSpec, msg_id: int) -> None:
        """Inject a fresh packet at the publisher's broker.

        The fan-out set comes from the workload's shared
        :class:`~repro.pubsub.topics.SubscriptionIndex` when *spec* is the
        workload's current spec for the topic — one indexed lookup instead
        of rebuilding a frozenset per publish, which keeps publish cost
        independent of subscriber count. Foreign specs (tests injecting
        synthetic topics) fall back to the direct construction.
        """
        index = self.ctx.workload.index()
        index.refresh()
        if index._specs.get(spec.topic) is spec:
            destinations = index._destinations[spec.topic]
        else:
            destinations = frozenset(spec.subscriber_nodes)
        destinations = self._deliver_local_at_origin(spec, msg_id, destinations)
        if not destinations:
            return
        frame = PacketFrame.fresh(
            msg_id=msg_id,
            topic=spec.topic,
            origin=spec.publisher,
            publish_time=self.ctx.sim.now,
            destinations=destinations,
        )
        self._start_task(spec.publisher, frame)

    def handle_data(self, node: int, sender: int, frame: PacketFrame) -> None:
        """A copy arrived (fresh or bounced): run Algorithm 2 at *node*."""
        self._start_task(node, frame)

    def handle_ack(self, node: int, sender: int, ack: AckFrame) -> None:
        """Route hop-by-hop ACKs into the ARQ layer."""
        self.arq.handle_ack(node, sender, ack)

    # ------------------------------------------------------------------
    def _start_task(self, node: int, frame: PacketFrame) -> None:
        self.tasks_started += 1
        _DeliveryTask(self, node, frame)

    def abandon(self, node: int, frame: PacketFrame, subscriber: int) -> None:
        """Record a destination no broker could make progress on.

        The persistency-mode extension overrides this hook to store the
        packet instead of dropping it (§III's persistency mode).
        """
        self.abandoned += 1
        probe = _probes.on_abandon
        if probe is not None:
            probe(self.ctx.sim._now, node, frame, subscriber)
        self.ctx.metrics.record_give_up(frame.msg_id, subscriber)

    def _deliver_local_at_origin(
        self, spec: TopicSpec, msg_id: int, destinations: FrozenSet[int]
    ) -> FrozenSet[int]:
        if spec.publisher in destinations:
            self.ctx.metrics.record_delivery(msg_id, spec.publisher, self.ctx.sim.now)
            return destinations - {spec.publisher}
        return destinations

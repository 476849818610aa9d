"""The distributed ``<d, r>`` recursion (Eq. 2 and Eq. 3) and its solver.

The paper seeds the recursion at the subscriber (``<0, 1>``) and lets every
broker recompute its own ``<d_X, r_X>`` from its neighbours' advertised
values, filtered by the delay budget and ordered by Theorem 1. We solve the
same recursion with synchronous (Jacobi) rounds: round ``k`` recomputes all
nodes from the round ``k-1`` values, which mirrors the hop-by-hop gossip of
the distributed protocol and is deterministic. Cyclic dependencies (two
brokers on each other's sending lists) are permitted, exactly as in the
paper. A node moves only if its ``d`` or ``r`` changes by more than
``tol`` or its reachability flips; a table is solved when a round moves
nothing, and rounds are capped at ``max(64, 2 * N)``. The result, a
:class:`DrTable`, holds each broker's ``<d, r>`` and ordered sending list.

:class:`ControlPlaneSolver` builds the pair-independent artifacts once
per refresh (Eq. 1 link table, padded ``[nodes x max degree]`` adjacency
arrays, one budget Dijkstra per publisher), and
:meth:`~ControlPlaneSolver.solve_batch` advances all subscribers of one
publisher together as ``[subscribers x nodes x degree]`` numpy arrays. The
arithmetic is the scalar recursion's, operation for operation, so tables
are bit-for-bit those of a per-node Python loop (kept as the test oracle
in ``tests/core/scalar_oracle.py``):

* Theorem 1 is a stable argsort on ``d_via / r_via`` over slots already
  sorted by neighbour id, so ties break on neighbour id. Ineligible slots
  carry ``<0, 0>``; their ``0 / 0`` key is NaN, which sorts last, and they
  add exactly nothing to Eq. 3;
* Eq. 3 is folded slot by slot in list order, with the scalar loop's
  sequence of IEEE operations;
* every non-subscriber node is recomputed every round. A node none of
  whose neighbours moved sees the inputs of its last evaluation and does
  not move, so the updates equal those of a dirty-set iteration.

Many tables never converge: a broker flips between a finite ``<d, r>`` and
``<inf, 0>`` as a neighbour crosses its budget boundary, an exact limit
cycle. A round is a pure function of the previous ``(d, r)`` state, so a
table whose state repeats — first at round ``seen``, again ``p`` rounds
later — stops there and takes its stored state of round
``seen + (max_rounds - seen) mod p``: the state the iteration holds at
the cap. It reports ``rounds = max_rounds`` and ``converged = False``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import networkx as nx
import numpy as np

from repro.core.linkmath import link_params_m
from repro.overlay.monitor import LinkEstimate
from repro.overlay.topology import Edge, Topology, canonical_edge
from repro.perf import PerfStats
from repro.util.validation import require, require_positive


@dataclass(frozen=True)
class ViaNeighbor:
    """Eq. 2 values for reaching the subscriber via one neighbour.

    ``d_via = alpha_Xi + d_i`` and ``r_via = gamma_Xi * r_i``, where the
    link parameters are the m-transmission values of Eq. 1.
    """

    neighbor: int
    d_via: float
    r_via: float


@dataclass(frozen=True)
class NodeState:
    """One broker's control state for one (publisher, subscriber) pair."""

    d: float
    r: float
    sending_list: Tuple[ViaNeighbor, ...]

    @property
    def neighbor_order(self) -> Tuple[int, ...]:
        """Sending-list neighbour ids, in Theorem 1 order."""
        return tuple(via.neighbor for via in self.sending_list)


def aggregate_dr(vias: Sequence[ViaNeighbor]) -> Tuple[float, float]:
    """Eq. 3: fold an *ordered* sending list into ``(d_X, r_X)``.

    An empty list yields ``(inf, 0)``: the broker cannot reach the
    subscriber within budget through anyone.
    """
    survive = 1.0  # probability all neighbours tried so far failed
    weighted = 0.0
    cumulative_delay = 0.0
    for via in vias:
        cumulative_delay += via.d_via
        weighted += cumulative_delay * via.r_via * survive
        survive *= 1.0 - via.r_via
    r = 1.0 - survive
    if r <= 0.0:
        return float("inf"), 0.0
    return weighted / r, r


class SolvedStates(Mapping[int, NodeState]):
    """The per-node :class:`NodeState` map of one solved table, built lazily.

    A solve leaves each node's ``<d, r>`` and its sorted candidate arrays;
    a :class:`NodeState` (with its :class:`ViaNeighbor` tuple) is only
    materialised when a node is looked up, since the data plane reads the
    lists of a small share of brokers and building all of them eagerly
    costs more than the solve.
    """

    __slots__ = ("_d", "_r", "_neighbors", "_d_via", "_r_via", "_counts", "_built")

    def __init__(
        self,
        d: List[float],
        r: List[float],
        neighbors: np.ndarray,
        d_via: np.ndarray,
        r_via: np.ndarray,
        counts: List[int],
    ) -> None:
        self._d = d
        self._r = r
        # Row ``node`` holds the node's candidates in Theorem 1 order; the
        # first ``counts[node]`` entries form its sending list.
        self._neighbors = neighbors
        self._d_via = d_via
        self._r_via = r_via
        self._counts = counts
        self._built: Dict[int, NodeState] = {}

    def __getitem__(self, node: int) -> NodeState:
        state = self._built.get(node)
        if state is None:
            if not isinstance(node, (int, np.integer)) or not 0 <= node < len(self._d):
                raise KeyError(node)
            count = self._counts[node]
            vias = tuple(
                map(
                    ViaNeighbor,
                    self._neighbors[node, :count].tolist(),
                    self._d_via[node, :count].tolist(),
                    self._r_via[node, :count].tolist(),
                )
            )
            state = NodeState(d=self._d[node], r=self._r[node], sending_list=vias)
            self._built[node] = state
        return state

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self._d)))

    def __len__(self) -> int:
        return len(self._d)

    def __repr__(self) -> str:
        return repr(dict(self))


@dataclass
class DrTable:
    """Control state of all brokers for one (publisher, subscriber) pair.

    ``states`` is a :class:`SolvedStates` for solver output; any other
    mapping (a plain dict, say) works too.
    """

    publisher: int
    subscriber: int
    deadline: float
    states: Mapping[int, NodeState]
    budgets: Dict[int, float]
    rounds: int
    converged: bool
    #: Lazy per-node cache of :meth:`sending_list` results. The forwarding
    #: data plane asks for the same node's list once per dispatched
    #: destination; ``NodeState.neighbor_order`` rebuilds its tuple on every
    #: access, so memoise it here (states are immutable after the solve).
    _orders: Dict[int, Tuple[int, ...]] = field(
        default_factory=dict, compare=False, repr=False
    )

    def state(self, node: int) -> NodeState:
        """The :class:`NodeState` of *node*."""
        return self.states[node]

    def sending_list(self, node: int) -> Tuple[int, ...]:
        """Ordered candidate next hops of *node* for this subscriber."""
        order = self._orders.get(node)
        if order is None:
            order = self.states[node].neighbor_order
            self._orders[node] = order
        return order

    def budget(self, node: int) -> float:
        """``D_XS``: the remaining delay requirement at *node*."""
        return self.budgets[node]

    def reachable(self, node: int) -> bool:
        """Whether *node* expects to deliver within budget at all."""
        return self.states[node].r > 0.0


def _estimate_weight_graph(
    topology: Topology, estimates: Mapping[Edge, LinkEstimate]
) -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from(topology.nodes)
    for edge in topology.edges():
        graph.add_edge(*edge, weight=estimates[edge].alpha)
    return graph


class SolverDistanceCache:
    """Cross-solver memo of per-publisher Dijkstra maps.

    The budget Dijkstra (:meth:`ControlPlaneSolver.distances_from`) depends
    only on the **alpha-weighted graph** — not on gammas, ``m``, deadlines,
    or the strategy — so neighbouring sweep cells that share a topology
    (same strategy axis, same failure axis under analytic monitoring, a
    different seed elsewhere in the grid) re-run byte-identical Dijkstras.
    This cache keys the per-publisher distance maps by the exact
    ``(num_nodes, sorted (edge, alpha))`` tuple and hands successive
    solvers the *same* lazily filled dict, eliding the repeat calls.

    Exactness: a map is only ever shared between weight graphs whose keys
    — every edge and every alpha, compared as floats — are identical, and
    Dijkstra is a deterministic function of that graph, so a cached map is
    bit-for-bit the map a fresh solve would compute. Sharing is therefore
    invisible to results (only ``control_plane.dijkstra_calls`` shrinks).

    Install an instance into :data:`DIST_CACHE` to enable (the sweep
    engine does this per worker process); the default ``None`` keeps the
    historical per-solver behaviour.
    """

    def __init__(self, max_graphs: int = 8) -> None:
        require(max_graphs >= 1, "max_graphs must be >= 1")
        self._max_graphs = max_graphs
        self._maps: Dict[tuple, Dict[int, Dict[int, float]]] = {}
        self._order: List[tuple] = []
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _key(topology: Topology, estimates: Mapping[Edge, LinkEstimate]) -> tuple:
        return (
            topology.num_nodes,
            tuple(sorted((edge, est.alpha) for edge, est in estimates.items())),
        )

    def distances_for(
        self, topology: Topology, estimates: Mapping[Edge, LinkEstimate]
    ) -> Dict[int, Dict[int, float]]:
        """The shared per-publisher distance dict of this weight graph."""
        key = self._key(topology, estimates)
        shared = self._maps.get(key)
        if shared is not None:
            self.hits += 1
            # LRU touch.
            self._order.remove(key)
            self._order.append(key)
            return shared
        self.misses += 1
        shared = {}
        self._maps[key] = shared
        self._order.append(key)
        if len(self._order) > self._max_graphs:
            evicted = self._order.pop(0)
            del self._maps[evicted]
        return shared


#: Optional cross-solver distance cache. ``None`` (the default) gives every
#: solver its own private memo; the sweep engine installs a per-process
#: instance so cells sharing a topology reuse solved Dijkstra maps.
DIST_CACHE: Optional[SolverDistanceCache] = None


class ControlPlaneSolver:
    """Shared-artifact solver for all ``<d, r>`` tables of one refresh.

    Constructing the solver resolves everything that is independent of the
    (publisher, subscriber) pair — the Eq. 1 ``(alpha_m, gamma_m)`` table,
    the padded usable-adjacency arrays, and the alpha-weighted graph for
    budget Dijkstras — exactly once. Per-publisher shortest-delay maps are
    then computed lazily and cached, so solving all subscribers of one
    publisher costs a single ``single_source_dijkstra_path_length`` call.

    One solver instance is valid for one immutable estimates snapshot;
    build a fresh instance after every monitoring refresh.
    """

    def __init__(
        self,
        topology: Topology,
        estimates: Mapping[Edge, LinkEstimate],
        m: int = 1,
        max_rounds: Optional[int] = None,
        tol: float = 1e-9,
        perf: Optional[PerfStats] = None,
    ) -> None:
        require(m >= 1, f"m must be >= 1, got {m}")
        self.topology = topology
        self.estimates = estimates
        self.m = m
        num_nodes = topology.num_nodes
        if max_rounds is None:
            max_rounds = max(64, 2 * num_nodes)
        self.max_rounds = max_rounds
        self.tol = tol
        self.perf = perf

        # Per-link m-transmission parameters (Eq. 1), symmetric.
        link_m: Dict[Edge, Tuple[float, float]] = {}
        for edge in topology.edges():
            estimate = estimates[edge]
            link_m[edge] = link_params_m(estimate.alpha, estimate.gamma, m)

        # Each node's usable links (dead ones — gamma 0 / alpha inf —
        # dropped) in ascending neighbour order, padded to the widest row
        # with never-eligible ``gamma = 0`` slots.
        links_of = [
            [
                (neighbor, *link_m[canonical_edge(node, neighbor)])
                for neighbor in topology.neighbors(node)
            ]
            for node in topology.nodes
        ]
        links_of = [
            [link for link in links if math.isfinite(link[1]) and link[2] > 0.0]
            for links in links_of
        ]
        width = max([1] + [len(links) for links in links_of])
        padded = np.array(
            [links + [(0, 0.0, 0.0)] * (width - len(links)) for links in links_of]
        ).reshape(num_nodes, width, 3)
        self._neighbor = padded[:, :, 0].astype(np.intp)
        self._alpha = padded[:, :, 1]
        self._gamma = padded[:, :, 2]
        self._usable = self._gamma > 0.0
        self._degree = np.array([topology.degree(node) for node in topology.nodes])

        self._weight_graph = _estimate_weight_graph(topology, estimates)
        # With a process-level DIST_CACHE installed, solvers built against
        # an identical alpha-weighted graph share one per-publisher memo:
        # the maps are deterministic functions of that graph, so sharing is
        # bit-identical to recomputing (see SolverDistanceCache).
        cache = DIST_CACHE
        if cache is not None:
            self._dist_cache = cache.distances_for(topology, estimates)
        else:
            self._dist_cache: Dict[int, Dict[int, float]] = {}

    # ------------------------------------------------------------------
    def distances_from(self, publisher: int) -> Dict[int, float]:
        """Shortest alpha-weighted delays from *publisher* (cached)."""
        dist = self._dist_cache.get(publisher)
        if dist is None:
            dist = nx.single_source_dijkstra_path_length(
                self._weight_graph, publisher, weight="weight"
            )
            self._dist_cache[publisher] = dist
            if self.perf is not None:
                self.perf.incr("control_plane.dijkstra_calls")
        return dist

    def table_affected(
        self, publisher: int, deadline: float, changed_edges: Iterable[Edge]
    ) -> bool:
        """Whether any changed edge can influence the (publisher, deadline)
        table at all.

        An edge both of whose endpoints have non-positive budget
        (``dist(P, endpoint) >= deadline``) is provably inert: those
        brokers hold ``<inf, 0>`` in every round regardless of the edge's
        parameters, and no other broker ever reads the edge. Only valid
        for gamma-only changes (alpha changes move the distances
        themselves).
        """
        dist = self.distances_from(publisher)
        inf = float("inf")
        for u, v in changed_edges:
            if dist.get(u, inf) < deadline or dist.get(v, inf) < deadline:
                return True
        return False

    # ------------------------------------------------------------------
    def _candidates(
        self, d: np.ndarray, r: np.ndarray, budget: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Eq. 2 and Theorem 1 for every node of every row.

        *d*, *r* and *budget* are ``[rows, nodes]``. Returns, slot-major
        (``[degree, rows, nodes]``) and in Theorem 1 order with eligible
        slots first: the flat ``[rows, nodes, degree]`` index of each
        slot, its ``d_via`` and its ``r_via`` (``<0, 0>`` where
        ineligible); plus the ``[rows, nodes, degree]`` eligibility mask.
        """
        d_i = d[:, self._neighbor]
        r_i = r[:, self._neighbor]
        # Algorithm 1 line 4: a neighbour must expect delivery within the
        # remaining budget; hopeless neighbours cannot help either.
        eligible = (d_i < budget[:, :, None]) & (r_i > 0.0) & self._usable
        d_via = np.where(eligible, self._alpha + d_i, 0.0)
        r_via = np.where(eligible, self._gamma * r_i, 0.0)
        # Ineligible slots divide 0 by 0: their NaN key sorts last.
        order = np.argsort(d_via / r_via, axis=-1, kind="stable")
        width = order.shape[-1]
        flat = order.transpose(2, 0, 1) + np.arange(
            0, order.size, width
        ).reshape(order.shape[:2])
        return (
            flat,
            d_via.reshape(-1)[flat],
            r_via.reshape(-1)[flat],
            eligible,
        )

    def _round(
        self, d: np.ndarray, r: np.ndarray, budget: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One Jacobi round: Eq. 3 folded over the sorted candidates."""
        _, d_via, r_via, _ = self._candidates(d, r, budget)
        cumulative = d_via[0]
        weighted = cumulative * r_via[0]
        survive = 1.0 - r_via[0]
        for slot in range(1, len(d_via)):
            r_slot = r_via[slot]
            cumulative = cumulative + d_via[slot]
            weighted = weighted + cumulative * r_slot * survive
            survive = survive * (1.0 - r_slot)
        r_x = 1.0 - survive
        reachable = r_x > 0.0
        return (
            np.where(reachable, weighted / r_x, math.inf),
            np.where(reachable, r_x, 0.0),
        )

    def solve(self, publisher: int, subscriber: int, deadline: float) -> DrTable:
        """Solve one (publisher, subscriber) pair against this refresh."""
        return self.solve_batch(publisher, [(subscriber, deadline)])[0]

    def solve_batch(
        self, publisher: int, pairs: Sequence[Tuple[int, float]]
    ) -> List[DrTable]:
        """Solve all ``(subscriber, deadline)`` *pairs* of one publisher.

        The tables advance through their Jacobi rounds together; each
        leaves the batch when it converges, hits ``max_rounds`` or repeats
        a state (see the module docstring). The result is aligned with
        *pairs*.
        """
        for _, deadline in pairs:
            require_positive(deadline, "deadline")
        rows = len(pairs)
        if not rows:
            return []
        num = self.topology.num_nodes
        max_rounds = self.max_rounds
        tol = self.tol
        inf = math.inf

        # Remaining budget at each broker: D_XS = D_PS - shortest_delay(P, X),
        # with shortest delays taken over the monitor's alpha estimates.
        dist = np.full(num, inf)
        for node, delay in self.distances_from(publisher).items():
            dist[node] = delay
        subscribers = np.array([sub for sub, _ in pairs], dtype=np.intp)
        deadlines = np.array([deadline for _, deadline in pairs], dtype=float)
        budget = deadlines[:, None] - dist[None, :]

        every = np.arange(rows)
        d = np.full((rows, num), inf)
        r = np.zeros((rows, num))
        d[every, subscribers] = 0.0
        r[every, subscribers] = 1.0
        rounds = np.zeros(rows, dtype=np.int64)
        # With the subscriber as the only node there is nothing to iterate.
        converged = np.full(rows, num == 1)
        # A moved node schedules its neighbours, the subscriber excepted,
        # for the next round; a round that schedules nobody ends the solve.
        others = np.tile(self._degree, (rows, 1))
        for row, subscriber in enumerate(subscribers.tolist()):
            others[row, list(self.topology.neighbors(subscriber))] -= 1
        schedules = others > 0

        # The rows still iterating, and each one's visited states: a state
        # key (the raw d and r bytes) maps to the round it was reached in,
        # in insertion order, so the n-th key is the state of round n.
        active = every if num > 1 and max_rounds > 0 else every[:0]
        cur_d, cur_r = d[active], r[active]
        seen: List[Dict[bytes, int]] = [
            {cur_d[i].tobytes() + cur_r[i].tobytes(): 0} for i in range(len(active))
        ]
        recomputes = 0
        jumps = 0
        step = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            while len(active):
                step += 1
                recomputes += len(active) * (num - 1)
                new_d, new_r = self._round(cur_d, cur_r, budget[active])
                moved = (
                    (np.abs(new_r - cur_r) > tol)
                    | (np.isinf(new_d) != np.isinf(cur_d))
                    | (np.isfinite(new_d) & (np.abs(new_d - cur_d) > tol))
                )
                moved[np.arange(len(active)), subscribers[active]] = False
                cur_d = np.where(moved, new_d, cur_d)
                cur_r = np.where(moved, new_r, cur_r)
                # Nothing scheduled for the next round: the table is solved.
                done = ~(moved & schedules[active]).any(axis=1)
                converged[active[done]] = True
                if step == max_rounds:
                    done[:] = True
                else:
                    for i in np.flatnonzero(~done):
                        key = cur_d[i].tobytes() + cur_r[i].tobytes()
                        first = seen[i].setdefault(key, step)
                        if first == step:
                            continue
                        # A repeated state: the iteration cycles with
                        # period step - first up to the round cap, so take
                        # the state it holds at the cap.
                        target = first + (max_rounds - first) % (step - first)
                        state = np.frombuffer(list(seen[i])[target])
                        cur_d[i], cur_r[i] = state[:num], state[num:]
                        done[i] = True
                        jumps += 1
                finished = active[done]
                d[finished] = cur_d[done]
                r[finished] = cur_r[done]
                rounds[finished] = np.where(converged[finished], step, max_rounds)
                if done.any():
                    keep = np.flatnonzero(~done)
                    active = active[keep]
                    cur_d, cur_r = cur_d[keep], cur_r[keep]
                    seen = [seen[i] for i in keep]

            # The sending lists: Theorem 1 order over the final values.
            flat, d_via, r_via, eligible = self._candidates(d, r, budget)
        counts = eligible.sum(axis=-1)
        neighbors = self._neighbor.reshape(-1)[flat % self._neighbor.size]
        # Node-major again, so a node's list is one contiguous row.
        neighbors, d_via, r_via = (
            np.ascontiguousarray(values.transpose(1, 2, 0))
            for values in (neighbors, d_via, r_via)
        )
        counts[every, subscribers] = 0

        if self.perf is not None:
            for name, amount in (
                ("tables_solved_cold", rows),
                ("jacobi_rounds", int(rounds.sum())),
                ("node_recomputes", recomputes),
                ("tables_unconverged", int((~converged).sum())),
                ("tables_round_cap", int((rounds >= max_rounds).sum())),
                ("cycles_jumped", jumps),
            ):
                self.perf.incr(f"control_plane.{name}", amount)

        nodes = self.topology.nodes
        return [
            DrTable(
                publisher=publisher,
                subscriber=subscriber,
                deadline=deadline,
                states=SolvedStates(
                    d[row].tolist(),
                    r[row].tolist(),
                    neighbors[row],
                    d_via[row],
                    r_via[row],
                    counts[row].tolist(),
                ),
                budgets=dict(zip(nodes, budget[row].tolist())),
                rounds=int(rounds[row]),
                converged=bool(converged[row]),
            )
            for row, (subscriber, deadline) in enumerate(pairs)
        ]


def compute_dr_table(
    topology: Topology,
    estimates: Mapping[Edge, LinkEstimate],
    publisher: int,
    subscriber: int,
    deadline: float,
    m: int = 1,
    max_rounds: Optional[int] = None,
    tol: float = 1e-9,
) -> DrTable:
    """Solve the ``<d, r>`` recursion for one (publisher, subscriber) pair.

    Parameters
    ----------
    topology:
        The overlay graph.
    estimates:
        Per-link :class:`LinkEstimate` beliefs from the monitor.
    publisher / subscriber:
        Broker ids of the pair.
    deadline:
        ``D_PS``, the end-to-end delay requirement in seconds.
    m:
        Per-link transmission budget (Eq. 1).
    max_rounds:
        Hard bound on Jacobi rounds; default ``max(64, 2 * num_nodes)``
        (cyclic feedback damps geometrically, so the constant floor covers
        small graphs with weak links).
    tol:
        Convergence threshold on the max change of any ``d`` or ``r``.

    This is the one-shot convenience wrapper; to solve many pairs against
    the same estimates, build one :class:`ControlPlaneSolver` (or call
    :func:`compute_dr_tables`) so the link table, adjacency arrays, and
    per-publisher Dijkstra are shared instead of rebuilt per pair.
    """
    solver = ControlPlaneSolver(
        topology, estimates, m=m, max_rounds=max_rounds, tol=tol
    )
    return solver.solve(publisher, subscriber, deadline)


def compute_dr_tables(
    topology: Topology,
    estimates: Mapping[Edge, LinkEstimate],
    publisher: int,
    pairs: Sequence[Tuple[int, float]],
    m: int = 1,
    max_rounds: Optional[int] = None,
    tol: float = 1e-9,
    perf: Optional[PerfStats] = None,
) -> List[DrTable]:
    """Solve all subscribers of one publisher as one batch.

    *pairs* are ``(subscriber, deadline)`` tuples; the result list is
    aligned with them. Each table is bit-identical to a
    :func:`compute_dr_table` call for its pair.
    """
    solver = ControlPlaneSolver(
        topology, estimates, m=m, max_rounds=max_rounds, tol=tol, perf=perf
    )
    return solver.solve_batch(publisher, pairs)

"""The scalar per-node Jacobi solver, kept only as a test oracle.

This is the ``<d, r>`` solve as it was written before the batched numpy
solver replaced it: one Python ``recompute`` per dirty node per round,
Theorem 1 via a tuple sort, Eq. 3 via a running loop, and no cycle
detection (a cycling table simply runs to ``max_rounds``). The batched
solver in :mod:`repro.core.computation` must reproduce its ``d``, ``r``,
sending lists, ``rounds`` and ``converged`` bit for bit.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Tuple

import networkx as nx

from repro.core.linkmath import link_params_m
from repro.overlay.monitor import LinkEstimate
from repro.overlay.topology import Edge, Topology, canonical_edge


class OracleTable:
    """What the scalar solve produced for one (publisher, subscriber) pair."""

    def __init__(self, d, r, lists, budgets, rounds, converged):
        self.d: List[float] = d
        self.r: List[float] = r
        #: Per node, the ordered ``(neighbor, d_via, r_via)`` sending list.
        self.lists: List[Tuple[Tuple[int, float, float], ...]] = lists
        self.budgets: Dict[int, float] = budgets
        self.rounds: int = rounds
        self.converged: bool = converged


def scalar_solve(
    topology: Topology,
    estimates: Mapping[Edge, LinkEstimate],
    publisher: int,
    subscriber: int,
    deadline: float,
    m: int = 1,
    max_rounds: Optional[int] = None,
    tol: float = 1e-9,
) -> OracleTable:
    """Solve one pair with the scalar dirty-set Jacobi loop."""
    num = topology.num_nodes
    if max_rounds is None:
        max_rounds = max(64, 2 * num)
    links_of: List[List[Tuple[int, float, float]]] = [[] for _ in range(num)]
    for node in topology.nodes:
        for neighbor in topology.neighbors(node):
            estimate = estimates[canonical_edge(node, neighbor)]
            alpha_m, gamma_m = link_params_m(estimate.alpha, estimate.gamma, m)
            if math.isfinite(alpha_m) and gamma_m > 0.0:
                links_of[node].append((neighbor, alpha_m, gamma_m))
    graph = nx.Graph()
    graph.add_nodes_from(topology.nodes)
    for edge in topology.edges():
        graph.add_edge(*edge, weight=estimates[edge].alpha)
    dist = nx.single_source_dijkstra_path_length(graph, publisher, weight="weight")
    inf = float("inf")
    budgets = {node: deadline - dist.get(node, inf) for node in topology.nodes}

    d = [inf] * num
    r = [0.0] * num
    d[subscriber], r[subscriber] = 0.0, 1.0

    def candidates(node: int) -> List[Tuple[float, int, float, float]]:
        budget = budgets[node]
        found = []
        for neighbor, alpha_m, gamma_m in links_of[node]:
            d_i, r_i = d[neighbor], r[neighbor]
            if not (d_i < budget) or r_i <= 0.0:
                continue
            d_via = alpha_m + d_i
            r_via = gamma_m * r_i
            found.append((d_via / r_via, neighbor, d_via, r_via))
        found.sort()
        return found

    def recompute(node: int) -> Tuple[float, float]:
        survive = 1.0
        weighted = 0.0
        cumulative = 0.0
        found = candidates(node)
        if not found:
            return inf, 0.0
        for _, _, d_via, r_via in found:
            cumulative += d_via
            weighted += cumulative * r_via * survive
            survive *= 1.0 - r_via
        r_x = 1.0 - survive
        if r_x <= 0.0:
            return inf, 0.0
        return weighted / r_x, r_x

    rounds = 0
    converged = False
    dirty = set(topology.nodes) - {subscriber}
    while rounds < max_rounds and dirty:
        rounds += 1
        updates = []
        for node in dirty:
            new_d, new_r = recompute(node)
            cur_d, cur_r = d[node], r[node]
            if (
                abs(new_r - cur_r) > tol
                or math.isinf(new_d) != math.isinf(cur_d)
                or (math.isfinite(new_d) and abs(new_d - cur_d) > tol)
            ):
                updates.append((node, new_d, new_r))
        dirty = set()
        for node, new_d, new_r in updates:
            d[node], r[node] = new_d, new_r
            dirty.update(topology.neighbors(node))
        dirty.discard(subscriber)
        if not updates:
            converged = True
            break
    if not converged and not dirty:
        converged = True

    lists = [
        ()
        if node == subscriber
        else tuple((nb, d_via, r_via) for _, nb, d_via, r_via in candidates(node))
        for node in topology.nodes
    ]
    return OracleTable(d, r, lists, budgets, rounds, converged)

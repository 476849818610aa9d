"""Equivalence of the batched control-plane solver.

The batched numpy solver (:meth:`ControlPlaneSolver.solve_batch`) must be
behaviourally invisible: every table — ``d``, ``r``, sending lists,
``rounds`` and ``converged`` — is bit-for-bit what the scalar per-node
Jacobi loop (``tests/core/scalar_oracle.py``) computes, including tables
whose iteration cycles and is jumped to the round cap; per-pair solves
equal batched ones; reused tables are the exact previous objects; and a
whole run's summary does not depend on the reuse machinery.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.computation import (
    ControlPlaneSolver,
    compute_dr_table,
    compute_dr_tables,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_environment
from repro.extensions.churn import ChurnProcess
from repro.overlay.links import OverlayNetwork
from repro.overlay.monitor import LinkEstimate, LinkMonitor
from repro.overlay.topology import Topology, random_regular
from repro.perf import PerfStats
from repro.pubsub.topics import Subscription
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from tests.conftest import make_topology
from tests.core.scalar_oracle import scalar_solve


def build_world(seed, mode, loss_rate=0.02, num_nodes=30, degree=4):
    """A topology + sampled/analytic monitor whose estimates can be refreshed."""
    rng = np.random.default_rng(seed)
    topology = random_regular(num_nodes, degree, rng)
    streams = RandomStreams(seed)
    sim = Simulator()
    network = OverlayNetwork(sim, topology, streams, loss_rate=loss_rate)
    monitor = LinkMonitor(topology, network, streams, mode=mode)
    return topology, monitor


def make_pairs(topology, publishers=(0, 1, 2), per_publisher=3, factor=2.5):
    """(publisher, subscriber, deadline) pairs spread over *publishers*."""
    pairs = []
    subscriber = len(publishers)
    for index in range(per_publisher * len(publishers)):
        publisher = publishers[index % len(publishers)]
        deadline = factor * topology.shortest_delay(publisher, subscriber)
        pairs.append((publisher, subscriber, deadline))
        subscriber += 2
    return pairs


def assert_matches_oracle(table, oracle):
    """Bit-for-bit equality of a solved table and the scalar oracle's."""
    assert table.rounds == oracle.rounds
    assert table.converged == oracle.converged
    assert table.budgets == oracle.budgets
    for node, state in table.states.items():
        assert (state.d, state.r) == (oracle.d[node], oracle.r[node]), node
        vias = tuple((v.neighbor, v.d_via, v.r_via) for v in state.sending_list)
        assert vias == oracle.lists[node], node


#: The figure worlds of the paper's evaluation (Pf 0.06, analytic monitor).
FIGURE_WORLDS = {
    "fig2": dict(topology_kind="full_mesh"),
    "fig3": dict(topology_kind="regular", degree=5),
    "fig4": dict(topology_kind="regular", degree=3),
    "fig5": dict(topology_kind="regular", degree=8, num_nodes=160),
}


class TestScalarOracle:
    """Strategy tables on the figure worlds equal the scalar solve."""

    @staticmethod
    def check_world(world, seed, topics=None):
        config = ExperimentConfig(failure_probability=0.06).with_updates(
            **FIGURE_WORLDS[world]
        )
        env = build_environment(config, "DCRD", seed)
        estimates = env.ctx.monitor.estimates()
        specs = env.ctx.workload.topics
        unconverged = 0
        for spec in specs if topics is None else specs[:topics]:
            for sub in spec.subscriptions:
                table = env.strategy.table(spec.topic, sub.node)
                oracle = scalar_solve(
                    env.ctx.topology,
                    estimates,
                    spec.publisher,
                    sub.node,
                    sub.deadline,
                    m=env.ctx.params.m,
                )
                assert_matches_oracle(table, oracle)
                unconverged += not table.converged
        return unconverged

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("world", ["fig2", "fig3", "fig4"])
    def test_small_worlds(self, world, seed):
        self.check_world(world, seed)

    def test_fig5_world(self):
        """160 nodes: two publishers' batches, cycling tables included."""
        assert self.check_world("fig5", 0, topics=2) > 0

    def test_degree3_worlds_cycle(self):
        """The degree-3 world has cycling tables, so the jump is exercised."""
        assert self.check_world("fig4", 2) > 0


class TestCycleJump:
    """A hand-built line whose table cycles with period 4.

    ``1 - 0 - 2`` with publisher 0, subscriber 2 and a 50 ms deadline.
    Node 0 first reaches the subscriber directly (``<30 ms, 0.5>``). Node
    1, with a 40 ms budget, then qualifies node 0 as a next hop. Once node
    0 also uses node 1, its expected delay rises to 44 ms, past node 1's
    budget; node 1 drops to ``<inf, 0>`` and node 0 falls back. From round
    1 on, the states repeat with period 4.
    """

    TOPOLOGY = make_topology([(0, 1, 0.01), (0, 2, 0.03)])
    ESTIMATES = {
        (0, 1): LinkEstimate(alpha=0.01, gamma=0.9),
        (0, 2): LinkEstimate(alpha=0.03, gamma=0.5),
    }

    def solve(self, max_rounds=None, perf=None):
        solver = ControlPlaneSolver(
            self.TOPOLOGY, self.ESTIMATES, max_rounds=max_rounds, perf=perf
        )
        return solver.solve(0, 2, 0.05)

    def test_jumps_to_the_state_at_the_cap(self):
        perf = PerfStats()
        table = self.solve(perf=perf)
        assert (table.rounds, table.converged) == (64, False)
        # Round 64 is phase 4 of the cycle: node 0 holds the value it got
        # through both neighbours, while node 1 has just dropped out of
        # budget — so node 0's list, built from the final values, is (2,).
        assert table.state(0).r == pytest.approx(1 - 0.5 * (1 - 0.9 * 0.9 * 0.5))
        assert not table.reachable(1)
        assert table.sending_list(0) == (2,)
        assert perf.get("control_plane.cycles_jumped") == 1
        assert perf.get("control_plane.tables_unconverged") == 1
        assert perf.get("control_plane.tables_round_cap") == 1
        # The logical rounds still count, although only five were run.
        assert perf.get("control_plane.jacobi_rounds") == 64
        assert perf.get("control_plane.node_recomputes") == 5 * 2

    @pytest.mark.parametrize("max_rounds", range(1, 14))
    def test_every_phase_matches_the_scalar_solve(self, max_rounds):
        table = self.solve(max_rounds=max_rounds)
        oracle = scalar_solve(
            self.TOPOLOGY, self.ESTIMATES, 0, 2, 0.05, max_rounds=max_rounds
        )
        assert_matches_oracle(table, oracle)

    def test_batch_mixes_cycling_and_converging_rows(self):
        solver = ControlPlaneSolver(self.TOPOLOGY, self.ESTIMATES)
        pairs = [(2, 0.05), (1, 0.05), (2, 0.2), (2, 0.05)]
        tables = solver.solve_batch(0, pairs)
        for table, (subscriber, deadline) in zip(tables, pairs):
            oracle = scalar_solve(self.TOPOLOGY, self.ESTIMATES, 0, subscriber, deadline)
            assert_matches_oracle(table, oracle)
        assert [table.converged for table in tables] == [False, True, True, False]


@st.composite
def small_worlds(draw):
    """A connected graph of 1-7 nodes with random estimates and pairs."""
    num = draw(st.integers(min_value=1, max_value=7))
    edges = {}
    for node in range(1, num):
        edges[(draw(st.integers(min_value=0, max_value=node - 1)), node)] = None
    for _ in range(draw(st.integers(min_value=0, max_value=num))):
        u = draw(st.integers(min_value=0, max_value=num - 1))
        v = draw(st.integers(min_value=0, max_value=num - 1))
        if u != v:
            edges[(min(u, v), max(u, v))] = None
    delay = st.sampled_from([0.005, 0.01, 0.02, 0.03, 0.045])
    gamma = st.one_of(
        st.sampled_from([0.0, 0.5, 0.8, 0.9, 1.0]),
        st.floats(min_value=0.01, max_value=1.0),
    )
    estimates = {
        edge: LinkEstimate(alpha=draw(delay), gamma=draw(gamma)) for edge in edges
    }
    if num == 1:
        graph = nx.Graph()
        graph.add_node(0)
        topology = Topology(graph, {})
    else:
        topology = make_topology(
            [(u, v, estimates[(u, v)].alpha) for u, v in edges]
        )
    nodes = topology.num_nodes
    publisher = draw(st.integers(min_value=0, max_value=nodes - 1))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=nodes - 1),
                st.sampled_from([0.01, 0.03, 0.05, 0.08, 0.15]),
            ),
            min_size=1,
            max_size=6,
        )
    )
    max_rounds = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=12)))
    m = draw(st.integers(min_value=1, max_value=3))
    return topology, estimates, publisher, pairs, max_rounds, m


@given(world=small_worlds())
@settings(deadline=None, max_examples=300)
def test_batched_solve_matches_scalar_oracle(world):
    """Random small graphs, deadlines, round caps and ``m``."""
    topology, estimates, publisher, pairs, max_rounds, m = world
    solver = ControlPlaneSolver(topology, estimates, m=m, max_rounds=max_rounds)
    tables = solver.solve_batch(publisher, pairs)
    for table, (subscriber, deadline) in zip(tables, pairs):
        oracle = scalar_solve(
            topology, estimates, publisher, subscriber, deadline,
            m=m, max_rounds=max_rounds,
        )
        assert_matches_oracle(table, oracle)


class TestBatchedColdSolves:
    @pytest.mark.parametrize("mode", ["analytic", "sampled"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_to_per_pair(self, mode, seed):
        """A batch solves each pair exactly as a batch of one does."""
        topology, monitor = build_world(seed, mode)
        estimates = monitor.estimates()
        pairs = make_pairs(topology)
        for publisher in {p for p, _, _ in pairs}:
            pub_pairs = [(s, dl) for p, s, dl in pairs if p == publisher]
            batched = compute_dr_tables(topology, estimates, publisher, pub_pairs)
            for table, (subscriber, deadline) in zip(batched, pub_pairs):
                reference = compute_dr_table(
                    topology, estimates, publisher, subscriber, deadline
                )
                assert table == reference
                assert table.rounds == reference.rounds
                assert table.converged == reference.converged

    def test_one_dijkstra_per_publisher(self):
        """The budget Dijkstra is shared across a publisher's subscribers."""
        topology, monitor = build_world(0, "analytic")
        perf = PerfStats()
        solver = ControlPlaneSolver(topology, monitor.estimates(), perf=perf)
        for publisher, subscriber, deadline in make_pairs(topology):
            solver.solve(publisher, subscriber, deadline)
        assert perf.get("control_plane.dijkstra_calls") == 3
        assert perf.get("control_plane.tables_solved_cold") == 9

    def test_states_are_a_lazy_mapping(self):
        """Solved states behave like the dict of NodeStates they replace."""
        topology, monitor = build_world(0, "analytic")
        table = ControlPlaneSolver(topology, monitor.estimates()).solve(0, 5, 0.5)
        materialised = dict(table.states)
        assert len(table.states) == topology.num_nodes
        assert list(table.states) == list(topology.nodes)
        assert table.states == materialised
        assert table.states[3] is table.states[3]
        assert -1 not in table.states and topology.num_nodes not in table.states
        assert table.state(5).sending_list == ()
        assert (table.state(5).d, table.state(5).r) == (0.0, 1.0)
        with pytest.raises(KeyError):
            table.states[topology.num_nodes]


class TestIncrementalRefresh:
    @pytest.mark.parametrize("mode", ["analytic", "sampled"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exactly_matches_from_scratch(self, mode, seed):
        """Reuse across two chained refreshes equals cold solving."""
        topology, monitor = build_world(seed, mode)
        pairs = make_pairs(topology)
        cold0 = ControlPlaneSolver(topology, monitor.estimates())
        previous = {(p, s): cold0.solve(p, s, dl) for p, s, dl in pairs}

        for _ in range(2):  # chain: reused tables feed the next refresh
            monitor.refresh()
            changed = monitor.last_changed
            estimates = monitor.estimates()
            solver = ControlPlaneSolver(topology, estimates)
            for publisher, subscriber, deadline in pairs:
                kept = previous[(publisher, subscriber)]
                if not solver.table_affected(publisher, deadline, changed):
                    current = kept
                else:
                    current = solver.solve(publisher, subscriber, deadline)
                reference = compute_dr_table(
                    topology, estimates, publisher, subscriber, deadline
                )
                assert current == reference
                assert current.rounds == reference.rounds
                assert current.converged == reference.converged
                previous[(publisher, subscriber)] = current

    def test_unaffected_table_detected_and_exact(self):
        """A changed edge outside the deadline horizon is provably inert."""
        topology, monitor = build_world(3, "analytic")
        solver0 = ControlPlaneSolver(topology, monitor.estimates())
        publisher, subscriber = 0, topology.neighbors(0)[0]
        # Deadline just beyond the direct link: only nearby brokers have a
        # positive budget, so a far edge cannot influence the table.
        deadline = 1.5 * topology.shortest_delay(publisher, subscriber)
        table = solver0.solve(publisher, subscriber, deadline)
        distances = solver0.distances_from(publisher)
        far_edges = [
            (u, v)
            for u, v in topology.edges()
            if min(distances[u], distances[v]) >= deadline
        ]
        assert far_edges, "scenario needs at least one out-of-horizon edge"
        assert not solver0.table_affected(publisher, deadline, far_edges)
        # And indeed re-solving from scratch reproduces the table exactly.
        assert solver0.solve(publisher, subscriber, deadline) == table


class TestChurnSolver:
    """Subscription adds solve on the last rebuild's solver."""

    CONFIG = ExperimentConfig(topology_kind="regular", degree=5, duration=5.0)

    def add(self, env, topic, node, deadline):
        spec = env.ctx.workload.topic(topic)
        subscription = Subscription(node=node, deadline=deadline)
        env.strategy.on_subscription_added(topic, subscription)
        reference = compute_dr_table(
            env.ctx.topology,
            env.ctx.monitor.estimates(),
            spec.publisher,
            node,
            deadline,
            m=env.ctx.params.m,
        )
        return env.strategy.table(topic, node), reference

    def test_add_reuses_the_rebuild_solver(self):
        env = build_environment(self.CONFIG, "DCRD", 0)
        strategy = env.strategy
        solver = strategy._solver
        dijkstras = strategy.perf.get("control_plane.dijkstra_calls")
        table, reference = self.add(env, 0, 7, 0.2)
        assert table == reference and table.rounds == reference.rounds
        assert strategy._solver is solver
        # The publisher's Dijkstra map was already cached.
        assert strategy.perf.get("control_plane.dijkstra_calls") == dijkstras

    def test_add_after_unseen_refresh_uses_fresh_estimates(self):
        config = self.CONFIG.with_updates(monitor_mode="sampled", loss_rate=0.05)
        env = build_environment(config, "DCRD", 0)
        monitor = env.ctx.monitor
        version = monitor.version
        while monitor.version == version:
            monitor.refresh()  # the strategy has not been told
        table, reference = self.add(env, 0, 7, 0.2)
        assert table == reference and table.rounds == reference.rounds


def run_dcrd(config, seed, incremental, churn_rate=None):
    """One DCRD run with the incremental control plane toggled."""
    env = build_environment(config, "DCRD", seed)
    env.strategy.incremental = incremental
    churn = None
    if churn_rate is not None:
        churn = ChurnProcess(
            env.ctx,
            env.strategy,
            rate=churn_rate,
            deadline_factor=config.deadline_factor,
            stop_time=config.duration,
        )
        churn.start()
    return env.execute()


class TestStrategyDeterminism:
    """run_single results are invariant to the incremental machinery.

    ``MetricsSummary`` equality covers every reported metric (the ``perf``
    diagnostics field is excluded by design — wall-clock times differ).
    """

    CONFIG = ExperimentConfig(
        topology_kind="regular",
        degree=5,
        failure_probability=0.06,
        duration=20.0,
        monitor_period=5.0,  # several refreshes, so table reuse engages
    )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_identical_summaries(self, seed):
        reference = run_dcrd(self.CONFIG, seed, incremental=False)
        incremental = run_dcrd(self.CONFIG, seed, incremental=True)
        assert incremental == reference
        assert incremental.as_dict() == reference.as_dict()

    def test_identical_summaries_sampled_monitor(self):
        config = self.CONFIG.with_updates(monitor_mode="sampled", loss_rate=0.01)
        reference = run_dcrd(config, 0, incremental=False)
        incremental = run_dcrd(config, 0, incremental=True)
        assert incremental == reference

    @pytest.mark.parametrize("seed", [0, 1])
    def test_identical_summaries_under_churn(self, seed):
        config = self.CONFIG.with_updates(monitor_mode="sampled", loss_rate=0.01)
        reference = run_dcrd(config, seed, incremental=False, churn_rate=2.0)
        incremental = run_dcrd(config, seed, incremental=True, churn_rate=2.0)
        assert incremental == reference

    def test_perf_counters_exposed(self):
        summary = run_dcrd(
            self.CONFIG.with_updates(monitor_mode="sampled"), 0, incremental=True
        )
        perf = summary.perf
        assert perf.get("control_plane.table_rebuilds", 0) >= 1
        assert perf.get("control_plane.dijkstra_calls", 0) >= 1
        assert perf.get("control_plane.solve_time_s", 0) > 0
        assert perf.get("sim.events_processed", 0) > 0
        assert perf.get("monitor.refreshes", 0) >= 1
        # Non-convergence is reported, and every jumped cycle is a table
        # that reached the round cap without converging.
        for name in ("tables_unconverged", "tables_round_cap", "cycles_jumped"):
            assert f"control_plane.{name}" in perf
        assert (
            perf["control_plane.cycles_jumped"]
            <= perf["control_plane.tables_round_cap"]
            <= perf["control_plane.tables_unconverged"]
        )
        # The diagnostics stay out of the deterministic report dict.
        assert "perf" not in summary.as_dict()


def test_round_cap_rounds_are_logical():
    """Counted Jacobi rounds equal the tables' rounds, jumped or not."""
    config = ExperimentConfig(
        failure_probability=0.06, topology_kind="regular", degree=3
    )
    env = build_environment(config, "DCRD", 2)
    tables = [
        env.strategy.table(spec.topic, sub.node)
        for spec in env.ctx.workload.topics
        for sub in spec.subscriptions
    ]
    perf = env.strategy.perf
    assert perf.get("control_plane.jacobi_rounds") == sum(t.rounds for t in tables)
    assert perf.get("control_plane.tables_unconverged") == sum(
        not t.converged for t in tables
    )
    assert perf.get("control_plane.cycles_jumped") > 0

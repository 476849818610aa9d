#!/usr/bin/env python3
"""Profile one control-plane refresh at Figure-5 scale.

Runs the same scenario as the ``control_plane`` microbenchmark — 160
nodes at degree 8, sampled-mode monitoring, 24 standing (publisher,
subscriber) pairs over 5 publishers, one monitoring refresh — under
:mod:`cProfile`, once for the per-pair from-scratch baseline and once for
the batched refresh (shared solver, reuse of tables no changed edge
reaches, one batch per publisher), and prints the top entries by cumulative
time for each. Use this to see *where* a control-plane regression landed
before reaching for the microbenchmark's single number.

Usage::

    PYTHONPATH=src python scripts/profile_control_plane.py [--top N]
"""

from __future__ import annotations

import argparse
import cProfile
import pstats

import numpy as np

from repro.core.computation import ControlPlaneSolver, compute_dr_table
from repro.overlay.links import OverlayNetwork
from repro.overlay.monitor import LinkMonitor
from repro.overlay.topology import random_regular
from repro.perf import format_perf, PerfStats
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams

NUM_NODES = 160
DEGREE = 8
NUM_PAIRS = 24
NUM_PUBLISHERS = 5


def build_workload():
    """The microbenchmark's refresh scenario (see bench_kernel_performance)."""
    rng = np.random.default_rng(7)
    topology = random_regular(NUM_NODES, DEGREE, rng)
    streams = RandomStreams(7)
    sim = Simulator()
    network = OverlayNetwork(sim, topology, streams, loss_rate=1e-4)
    monitor = LinkMonitor(topology, network, streams, mode="sampled")

    publishers = list(range(NUM_PUBLISHERS))
    cold_solver = ControlPlaneSolver(topology, monitor.estimates())
    pairs, previous = [], {}
    subscriber = 10
    while len(pairs) < NUM_PAIRS and subscriber < topology.num_nodes:
        publisher = publishers[len(pairs) % NUM_PUBLISHERS]
        if subscriber not in publishers:
            deadline = 2.5 * topology.shortest_delay(publisher, subscriber)
            table = cold_solver.solve(publisher, subscriber, deadline)
            if table.converged:
                pairs.append((publisher, subscriber, deadline))
                previous[(publisher, subscriber)] = table
        subscriber += 1

    monitor.refresh()
    return topology, monitor.snapshot(), monitor.last_changed, pairs, previous


def profile(label: str, fn, top: int):
    """Run *fn* under cProfile, print its top entries, return its result."""
    print(f"=== {label} ===")
    profiler = cProfile.Profile()
    profiler.enable()
    result = fn()
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(top)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--top", type=int, default=20, help="profile entries to print"
    )
    args = parser.parse_args()

    topology, estimates, changed, pairs, previous = build_workload()
    perf = PerfStats()

    def from_scratch():
        return [
            compute_dr_table(topology, estimates, pub, sub, deadline)
            for pub, sub, deadline in pairs
        ]

    def incremental():
        solver = ControlPlaneSolver(topology, estimates, perf=perf)
        tables, batches = {}, {}
        for pub, sub, deadline in pairs:
            if solver.table_affected(pub, deadline, changed):
                batches.setdefault(pub, []).append((sub, deadline))
            else:
                tables[(pub, sub)] = previous[(pub, sub)]
        for pub, batch in batches.items():
            for (sub, _), table in zip(batch, solver.solve_batch(pub, batch)):
                tables[(pub, sub)] = table
        return [tables[(pub, sub)] for pub, sub, _ in pairs]

    cold = profile("per-pair from-scratch baseline", from_scratch, args.top)
    refreshed = profile("batched refresh with reuse", incremental, args.top)
    # Reuse and batching must not change a single table.
    assert refreshed == cold
    print("Batched-refresh perf counters:")
    print(format_perf(perf.snapshot()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

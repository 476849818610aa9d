"""The benchmark's four workloads and how one iteration of each runs.

An *iteration* builds one world and runs it once, in a fresh process
(see ``iteration.py``). Every function here returns plain data, so the
parent process never imports the program.

Seeds: the topology and subscriptions of every simulated workload come
from :data:`WORLD_SEED`, so every seed measures the same world and the same
amount of work. ``--seed`` drives the run's hazards: the failure schedule,
random losses, the sampled monitor's probes and, on ``overload20``, when
the ACK blackout strikes. ``live-ring`` runs a scripted world with
drop-all fault rules, whose delivered set no seed can change.
"""

from __future__ import annotations

import dataclasses
import random
import resource
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_environment, build_topology
from repro.overlay.links import FrameKind
from repro.pubsub.topics import generate_workload
from repro.sim.random import RandomStreams

import repro.extensions  # noqa: F401  (registers DCRD+adaptive)

from harness import digest, percentile, samples_beyond, tail_percentile

#: Seed of every simulated workload's topology and subscriptions.
WORLD_SEED = 0


@dataclasses.dataclass(frozen=True)
class SimWorkload:
    """One simulated world: a config, a strategy and an optional trigger."""

    config: ExperimentConfig
    strategy: str
    #: ``(earliest, latest, width)``: for ``width`` simulated seconds from
    #: a seed-drawn start in ``[earliest, latest)``, every ACK on every
    #: link is dropped. A scripted fault that ignites overload.
    ack_blackout: Optional[Tuple[float, float, float]] = None


SIM_WORKLOADS: Dict[str, SimWorkload] = {
    # Fig. 5's hardest cell, with exactly one (sampled) monitor refresh,
    # at t = 40 s of the 70 s run.
    "paper160": SimWorkload(
        ExperimentConfig(
            topology_kind="regular",
            degree=8,
            num_nodes=160,
            failure_probability=0.06,
            duration=60.0,
            monitor_mode="sampled",
            monitor_period=40.0,
        ),
        "DCRD",
    ),
    # Fig. 3's world at 20x the paper's publish rate: the data plane. The
    # sampled monitor lets the seed move routes; under the analytic one
    # the median delay is one fixed path on nearly every seed.
    "dataplane20": SimWorkload(
        ExperimentConfig(
            topology_kind="regular",
            degree=5,
            failure_probability=0.06,
            duration=120.0,
            publish_interval=0.05,
            monitor_mode="sampled",
        ),
        "DCRD",
    ),
    # The ROADMAP's congestion row: 8 pkt/s per topic over 20 ms-per-frame
    # links, adaptive RTO. Its collapse is metastable: left alone, one
    # random loss decides whether it happens (1 of hazard seeds 0-9 on
    # this world). A 100 ms ACK blackout at t = 3.0-3.2 s ignites it on
    # every seed.
    "overload20": SimWorkload(
        ExperimentConfig(
            topology_kind="regular",
            degree=5,
            failure_probability=0.0,
            duration=10.0,
            publish_interval=0.125,
            link_service_time=0.02,
        ),
        "DCRD+adaptive",
        ack_blackout=(3.0, 3.2, 0.1),
    ),
}

LIVE_WORKLOAD = "live-ring"

#: live-ring's load: 1000 messages at 200 msg/s, three subscribers each.
LIVE_PUBLISHES = 1000
LIVE_INTERVAL = 0.005

def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def delay_stats(delays: List[float]) -> Dict[str, Any]:
    """Median, p99 and the tail rule's verdict over *delays*."""
    ordered = sorted(delays)
    count = len(ordered)
    tail = tail_percentile(count)
    return {
        "delay_p50_s": percentile(ordered, 50.0) if ordered else None,
        "delay_p99_s": percentile(ordered, 99.0) if ordered else None,
        "delay_count": count,
        "delay_p99_beyond": samples_beyond(count, 99.0) if ordered else 0,
        "delay_tail_pct": tail,
        "delay_tail_s": percentile(ordered, tail) if tail is not None else None,
    }


# ---------------------------------------------------------------------------
# Simulated workloads
# ---------------------------------------------------------------------------
def _drop_acks(_src: int, _dst: int, kind: FrameKind, _frame: Any) -> bool:
    return kind is FrameKind.ACK


def build_world(workload: SimWorkload, seed: int, config: ExperimentConfig, call=None):
    """Topology, subscriptions and the wired environment of one run.

    The topology and subscriptions are built from :data:`WORLD_SEED`'s
    streams and injected; everything else derives from *seed*. With
    ``seed == WORLD_SEED`` this is the world ``build_environment(config,
    strategy, seed)`` builds. *call* wraps each step (the traced run passes
    a span recorder's ``wrap``); by default steps run directly.
    """
    call = call or (lambda _name, fn: fn)
    streams = RandomStreams(WORLD_SEED)
    topology = call("overlay.topology", build_topology)(config, streams)
    subscriptions = call("pubsub.workload", generate_workload)(
        topology,
        streams.get("workload"),
        num_topics=config.num_topics,
        publish_interval=config.publish_interval,
        ps_range=config.ps_range,
        deadline_factor=config.deadline_factor,
        deadline_factor_choices=config.deadline_factor_choices,
    )
    env = call("experiments.build_environment", build_environment)(
        config, workload.strategy, seed, topology=topology, workload=subscriptions
    )
    if workload.ack_blackout is not None:
        earliest, latest, width = workload.ack_blackout
        start = random.Random(seed).uniform(earliest, latest)
        network = env.ctx.network
        env.ctx.sim.schedule(start, network.install_fault_filter, _drop_acks)
        env.ctx.sim.schedule(start + width, network.install_fault_filter, None)
    return env


def sim_outcome(env, summary) -> Dict[str, Any]:
    """Outcome metrics, fingerprint and output checks of a finished run."""
    metrics = env.ctx.metrics
    delivered = sorted(
        (outcome.msg_id, outcome.subscriber)
        for outcome in metrics.outcomes()
        if outcome.delivered
    )
    result = {
        "expected": summary.expected_deliveries,
        "delivered": summary.delivered,
        "delivery_ratio": summary.delivery_ratio,
        "qos_delivery_ratio": summary.qos_delivery_ratio,
        "packets_per_subscriber": summary.packets_per_subscriber,
        "fingerprint": digest([summary.as_dict(), delivered]),
        "perf": summary.perf,
    }
    result.update(delay_stats(metrics.delays()))
    result["checks"] = {
        "delivered_le_expected": summary.delivered <= summary.expected_deliveries
        and len(delivered) == summary.delivered,
        "p99_has_10_beyond": result["delay_p99_beyond"] >= 10,
    }
    return result


def table_counts(env) -> Dict[str, int]:
    """Converged / round-capped counts over every subscription's table."""
    from repro.core.computation import ControlPlaneSolver

    strategy = env.strategy
    max_rounds = ControlPlaneSolver(
        env.ctx.topology, env.ctx.monitor.estimates(), m=env.ctx.params.m
    ).max_rounds
    tables = [
        strategy.table(spec.topic, sub.node)
        for spec in env.ctx.workload.topics
        for sub in spec.subscriptions
    ]
    return {
        "tables": len(tables),
        "unconverged": sum(1 for table in tables if not table.converged),
        "round_cap": sum(1 for table in tables if table.rounds >= max_rounds),
    }


def sim_iteration(name: str, seed: int, sanitize: bool = False) -> Dict[str, Any]:
    """Build and run one world, timed from outside."""
    workload = SIM_WORKLOADS[name]
    config = workload.config.with_updates(sanitize=sanitize)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    env = build_world(workload, seed, config)
    t1 = time.perf_counter()
    summary = env.execute()
    t2 = time.perf_counter()
    result: Dict[str, Any] = dict(
        setup_s=t1 - t0,
        run_s=t2 - t1,
        wall_s=t2 - t0,
        cpu_s=time.process_time() - cpu0,
        peak_rss_mb=peak_rss_mb(),
    )
    result.update(sim_outcome(env, summary))
    return result


# ---------------------------------------------------------------------------
# live-ring
# ---------------------------------------------------------------------------
def live_scenario():
    """The link_loss ring: dead 0-3 chord, subscribers 2, 3, 4, m = 2."""
    from repro.live.scenarios import make_scenario

    return dataclasses.replace(
        make_scenario("link_loss"),
        name="live-ring",
        publishes=LIVE_PUBLISHES,
        publish_interval=LIVE_INTERVAL,
    )


class LiveTally:
    """Probe observer: wall time of the first publish, DATA transmissions."""

    def __init__(self) -> None:
        self.first_publish: Optional[float] = None
        self.data_sent = 0

    def probe_handlers(self):
        return {"publish": self._on_publish, "transmit": self._on_transmit}

    def _on_publish(self, _frame) -> None:
        if self.first_publish is None:
            self.first_publish = time.perf_counter()

    def _on_transmit(self, *_args) -> None:
        self.data_sent += 1


def live_outcome(result: Dict[str, Any], data_sent: int) -> Dict[str, Any]:
    """Outcome metrics and output checks of one live run."""
    expected = result["expected"]
    delivered = len(result["delivered"])
    deadlines = dict(live_scenario().subscribers)
    on_time = sum(
        1 for _msg, node, delay in result["delays"] if delay <= deadlines[node]
    )
    outcome = {
        "expected": expected,
        "delivered": delivered,
        "delivery_ratio": delivered / expected,
        "qos_delivery_ratio": on_time / expected,
        "packets_per_subscriber": data_sent / expected,
        "fingerprint": digest(sorted(result["delivered"])),
        "retransmissions": result["retransmissions"],
    }
    outcome.update(delay_stats([delay for _, _, delay in result["delays"]]))
    outcome["checks"] = {
        "delivered_le_expected": delivered <= expected,
        "max_accepts_per_transfer_is_1": result["max_accepts_per_transfer"] == 1,
        "in_flight_is_0": result["in_flight"] == 0,
        "p99_has_10_beyond": outcome["delay_p99_beyond"] >= 10,
    }
    return outcome


def live_iteration(seed: int, sanitize: bool = False) -> Dict[str, Any]:
    """One blocking live run; set-up is the boot before the first publish."""
    from repro import probes
    from repro.live.runtime import run_live_scenario

    tally = LiveTally()
    probes.attach(tally)
    try:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        result = run_live_scenario(live_scenario(), seed=seed, sanitize=sanitize)
        t2 = time.perf_counter()
        cpu = time.process_time() - cpu0
    finally:
        probes.detach(tally)
    outcome = live_outcome(result, tally.data_sent)
    outcome.update(
        setup_s=tally.first_publish - t0,
        run_s=t2 - tally.first_publish,
        wall_s=t2 - t0,
        cpu_s=cpu,
        peak_rss_mb=peak_rss_mb(),
    )
    if sanitize:
        outcome["checks"]["sanitizer_clean"] = result["violations"] == 0
    return outcome

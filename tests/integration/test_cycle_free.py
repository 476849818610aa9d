"""The data plane leaves no cyclic garbage behind.

:meth:`repro.sim.engine.Simulator.run` pauses the cyclic collector for the
whole event loop, which is only sound if events do not build reference
cycles: anything caught in one stays allocated until the run ends. These
runs pin that invariant for every registered strategy on two small worlds
that exercise the retry paths — a FIFO world whose queues outgrow the ACK
timer, and a world with broker crashes — plain and with the sanitizer,
the tracer and total ordering attached.

Each measured run follows a warm-up run of the same cell: the first run of
a process leaves import-time function, cell and type objects that are
cyclic by nature and not the data plane's.
"""

import gc

import pytest

import repro.extensions  # noqa: F401  (registers the extension strategies)
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import STRATEGIES, build_environment

WORLD = dict(
    topology_kind="regular",
    num_nodes=10,
    degree=3,
    num_topics=3,
    m=2,
    duration=3.0,
    drain=1.0,
)

WORLDS = {
    "fifo-backlog": dict(publish_interval=0.02, link_service_time=0.02),
    "node-failures": dict(
        publish_interval=0.2,
        node_failure_probability=0.3,
        failure_probability=0.05,
    ),
}

OBSERVED = dict(sanitize=True, trace=True, ordering="total")


def _cyclic_garbage(config: ExperimentConfig, strategy: str) -> int:
    """Objects only the cyclic collector can free after one run."""
    env = build_environment(config, strategy, 0)
    gc.collect()
    gc.disable()
    try:
        env.execute()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("observed", [False, True], ids=["plain", "observed"])
@pytest.mark.parametrize("world", sorted(WORLDS))
@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_run_leaves_no_cyclic_garbage(strategy, world, observed):
    config = ExperimentConfig(
        **WORLD, **WORLDS[world], **(OBSERVED if observed else {})
    )
    _cyclic_garbage(config, strategy)  # warm-up
    assert _cyclic_garbage(config, strategy) == 0

"""End-to-end message journeys read back from a FrameTracer."""

import pytest

from repro.core.forwarding import DcrdStrategy
from tests.conftest import (
    attach_brokers,
    build_ctx,
    data_hops,
    make_topology,
    single_topic_workload,
)


def diamond():
    return make_topology(
        [(0, 1, 0.010), (1, 3, 0.010), (0, 2, 0.020), (2, 3, 0.020)]
    )


def test_clean_delivery_has_two_hops(frame_tracer):
    topo = diamond()
    workload = single_topic_workload(0, [(3, 1.0)])
    ctx = build_ctx(topo, workload)
    strategy = DcrdStrategy(ctx)
    strategy.setup()
    attach_brokers(ctx, strategy)
    spec = workload.topics[0]
    ctx.metrics.expect(1, 0, 0.0, {s.node: s.deadline for s in spec.subscriptions})
    strategy.publish(spec, msg_id=1)
    ctx.sim.run(until=10.0)

    assert data_hops(frame_tracer) == [(0, 1), (1, 3)]
    journey = frame_tracer.journey(1, 3)
    assert journey.complete
    assert journey.chain == (0, 1, 3)
    assert [(h.src, h.dst, h.attempts) for h in journey.hops] == [
        (0, 1, 1),
        (1, 3, 1),
    ]
    assert journey.total_delay == pytest.approx(0.020)

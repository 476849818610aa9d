"""The traced iteration: spans, counters and a profile, all from outside.

Every instrument here wraps a public function or attribute of the program,
or attaches to the :mod:`repro.probes` bus, for the duration of one traced
iteration only; nothing under ``src/`` knows it is being measured. The
untraced iterations that give the end-to-end metrics run none of this.
"""

from __future__ import annotations

import contextlib
import math
import signal
import time
from pathlib import Path
from typing import Any, Dict, Iterator

import repro
from repro import probes
from repro.experiments import runner
from repro.sim.process import PeriodicProcess

from harness import SpanRecorder, fold_profile, percentile, self_times, total_by_name
from workloads import (
    SIM_WORKLOADS,
    LiveTally,
    build_world,
    live_outcome,
    live_scenario,
    peak_rss_mb,
    sim_outcome,
    table_counts,
)

PACKAGE_ROOT = Path(repro.__file__).resolve().parent
BENCH_ROOT = Path(__file__).resolve().parent

#: Simulated seconds between two reads of every link direction's backlog.
BACKLOG_PERIOD = 0.02

#: CPU seconds between two profile samples.
PROFILE_INTERVAL = 0.001


@contextlib.contextmanager
def patched(owner: Any, name: str, replacement: Any) -> Iterator[None]:
    """Set ``owner.name`` for the block, then restore what was there."""
    had_own = name in vars(owner)
    original = vars(owner).get(name)
    setattr(owner, name, replacement)
    try:
        yield
    finally:
        if had_own:
            setattr(owner, name, original)
        else:
            delattr(owner, name)


class SamplingProfiler:
    """CPU-time sampling: each ``SIGPROF`` tick charges the running file.

    A tick is handled at the next bytecode boundary of the main thread, so
    a native call (a numpy kernel, ``heapq``) is charged to the Python
    file that made it. Ticks are scaled to the CPU time the block used.
    """

    def __init__(self, interval: float = PROFILE_INTERVAL) -> None:
        self.interval = interval
        self.ticks: Dict[str, int] = {}
        self.cpu_s = 0.0

    def _tick(self, _signum, frame) -> None:
        if frame is not None:
            name = frame.f_code.co_filename
            self.ticks[name] = self.ticks.get(name, 0) + 1

    def __enter__(self) -> "SamplingProfiler":
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        self._cpu0 = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        self.cpu_s = time.process_time() - self._cpu0
        signal.signal(signal.SIGPROF, self._previous)

    def layer_seconds(self) -> Dict[str, float]:
        total = sum(self.ticks.values())
        per_file = {
            name: self.cpu_s * count / total for name, count in self.ticks.items()
        } if total else {}
        return fold_profile(per_file, PACKAGE_ROOT, BENCH_ROOT)


class RetryTally:
    """Probe observer counting DATA sends, ACK timeouts, failovers, bounces.

    It handles none of the ARQ timer families, so latent-timer elision
    stays on and the run does the same work as an untraced one.
    """

    FAMILIES = ("transmit", "ack_timeout", "failover", "bounce")

    def __init__(self) -> None:
        self.counts = dict.fromkeys(self.FAMILIES, 0)

    def probe_handlers(self):
        counts = self.counts

        def counter(family: str):
            def bump(*_args) -> None:
                counts[family] += 1

            return bump

        return {family: counter(family) for family in self.FAMILIES}


class BacklogSampler:
    """A sim-clock process reading every direction's queueing backlog.

    Links of infinite capacity never queue (``queueing_backlog`` is 0 by
    definition), so the sampler only runs on finite-capacity worlds.
    """

    def __init__(self, env, period: float = BACKLOG_PERIOD) -> None:
        network = env.ctx.network
        directions = [
            pair for u, v in env.ctx.topology.edges() for pair in ((u, v), (v, u))
        ]
        self.peak = 0.0
        self.ticks = 0
        if env.config.link_service_time is None:
            return

        def sample() -> None:
            self.ticks += 1
            for src, dst in directions:
                backlog = network.queueing_backlog(src, dst)
                if backlog > self.peak:
                    self.peak = backlog

        PeriodicProcess(env.ctx.sim, period, sample).start()


def span_checks(recorder: SpanRecorder) -> Dict[str, bool]:
    """Every span closed, and self time plus children equals duration."""
    own = self_times(recorder.spans)
    child_sum: Dict[int, float] = {}
    for span in recorder.spans:
        if span.parent is not None:
            child_sum[span.parent] = child_sum.get(span.parent, 0.0) + span.duration
    balanced = all(
        abs(own[span.span_id] + child_sum.get(span.span_id, 0.0) - span.duration)
        <= 1e-9
        for span in recorder.spans
    )
    return {
        "spans_closed": not any(math.isnan(span.end) for span in recorder.spans),
        "span_self_plus_children_is_duration": balanced,
    }


def traced_sim(name: str, seed: int) -> Dict[str, Any]:
    """One fully instrumented iteration of a simulated workload."""
    workload = SIM_WORKLOADS[name]
    config = workload.config
    strategy_cls = runner.STRATEGIES[workload.strategy]
    recorder = SpanRecorder(run=f"{name}-{seed}-traced")
    wrap = recorder.wrap
    tally = RetryTally()
    profiler = SamplingProfiler()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    with profiler, patched(runner, "summarize", wrap("metrics.summary", runner.summarize)):
        root = recorder.open("iteration")
        setup = recorder.open("setup")
        with patched(strategy_cls, "setup", wrap("core.solve_setup", strategy_cls.setup)):
            env = build_world(workload, seed, config, call=wrap)
        recorder.close(setup)
        setup_s = recorder.spans[setup].duration
        monitor, strategy = env.ctx.monitor, env.strategy
        monitor.refresh = wrap("overlay.monitor_refresh", monitor.refresh)
        strategy.on_monitor_refresh = wrap("core.solve_refresh", strategy.on_monitor_refresh)
        backlog = BacklogSampler(env)
        probes.attach(tally)
        try:
            summary = wrap("experiments.execute", env.execute)()
        finally:
            probes.detach(tally)
        recorder.close(root)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    outcome = sim_outcome(env, summary)
    perf = summary.perf
    spans = recorder.spans
    data_plane = total_by_name(spans, "experiments.execute", self_only=True)
    # The sampler's own ticks are kernel events the untraced run never pops.
    events = perf["sim.events_processed"] - backlog.ticks
    retransmissions = perf.get("arq.retransmissions", 0.0)
    failovers = tally.counts["failover"]
    first_sends = tally.counts["transmit"] - retransmissions
    end_tables = table_counts(env)
    stats = env.ctx.network.stats
    lost = sum(
        sum(counter.values())
        for counter in (
            stats.lost_failure,
            stats.lost_random,
            stats.lost_node_down,
            stats.lost_injected,
            stats.dropped_expired,
        )
    )
    layers = {
        "core.solve_setup_s": total_by_name(spans, "core.solve_setup"),
        "core.solve_refresh_s": total_by_name(spans, "core.solve_refresh"),
        "core.jacobi_rounds": perf.get("control_plane.jacobi_rounds", 0.0),
        "core.node_recomputes": perf.get("control_plane.node_recomputes", 0.0),
        "core.dijkstra_calls": perf.get("control_plane.dijkstra_calls", 0.0),
        "core.tables_cold": perf.get("control_plane.tables_solved_cold", 0.0),
        "core.tables_warm": perf.get("control_plane.tables_warm_started", 0.0),
        "core.tables_reused": perf.get("control_plane.tables_reused", 0.0),
        "core.tables": end_tables["tables"],
        "core.tables_unconverged": end_tables["unconverged"],
        "core.tables_round_cap": end_tables["round_cap"],
        "sim.events": events,
        "sim.data_plane_s": data_plane,
        "sim.events_per_s": events / data_plane,
        "core.tasks_started": perf.get("data_plane.tasks_started", 0.0),
        "core.frames_forwarded": perf.get("data_plane.frames_forwarded", 0.0),
        "core.abandoned": perf.get("data_plane.abandoned", 0.0),
        "routing.retransmissions": retransmissions,
        "routing.timers_elided": perf.get("arq.timers_elided", 0.0),
        "routing.timers_cancelled": perf.get("arq.timers_cancelled", 0.0),
        "routing.ack_timeouts": tally.counts["ack_timeout"],
        "routing.failovers": failovers,
        "routing.bounces": tally.counts["bounce"],
        "routing.amplification": (retransmissions + failovers) / first_sends
        if first_sends
        else 0.0,
        "overlay.topology_s": total_by_name(spans, "overlay.topology"),
        "pubsub.workload_s": total_by_name(spans, "pubsub.workload"),
        "overlay.monitor_refresh_s": total_by_name(spans, "overlay.monitor_refresh"),
        "overlay.data_sent": stats.data_sent(),
        "overlay.frames_lost": lost,
        "overlay.backlog_max_s": backlog.peak,
        "metrics.summary_s": total_by_name(spans, "metrics.summary"),
        "metrics.delay_samples": outcome["delay_count"],
    }
    # The ROADMAP counts unconverged tables under the analytic monitor:
    # rebuild the world with it (untimed, outside every span).
    analytic = build_world(workload, seed, config.with_updates(monitor_mode="analytic"))
    layers["core.tables_unconverged_analytic"] = table_counts(analytic)["unconverged"]
    return _traced_result(
        recorder, profiler, layers, outcome, setup_s, wall, cpu
    )


def traced_live(seed: int) -> Dict[str, Any]:
    """One instrumented live run, plus its simulator twin (untimed)."""
    from repro.core.forwarding import DcrdStrategy
    from repro.live.codec import FrameCodec
    from repro.live.runtime import run_live_scenario
    from repro.live.scenarios import run_sim_scenario

    recorder = SpanRecorder(run=f"live-ring-{seed}-traced")
    codec = {"encode_s": 0.0, "decode_s": 0.0, "frames": 0, "bytes": 0}
    encode, decode = FrameCodec.encode_payload, FrameCodec.decode_payload

    def timed_encode(self, sender, frame):
        start = time.perf_counter()
        payload = encode(self, sender, frame)
        codec["encode_s"] += time.perf_counter() - start
        codec["frames"] += 1
        codec["bytes"] += len(payload)
        return payload

    def timed_decode(self, payload):
        start = time.perf_counter()
        try:
            return decode(self, payload)
        finally:
            codec["decode_s"] += time.perf_counter() - start

    tally = LiveTally()
    profiler = SamplingProfiler()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    wrap = recorder.wrap
    with profiler, patched(FrameCodec, "encode_payload", timed_encode), patched(
        FrameCodec, "decode_payload", timed_decode
    ), patched(DcrdStrategy, "setup", wrap("core.solve_setup", DcrdStrategy.setup)):
        probes.attach(tally)
        try:
            result = wrap("live.run", run_live_scenario)(
                live_scenario(), seed=seed, sanitize=False
            )
        finally:
            probes.detach(tally)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    outcome = live_outcome(result, tally.data_sent)
    twin = run_sim_scenario(live_scenario(), seed=seed, sanitize=False)
    twin_delays = sorted(delay for _, _, delay in twin["delays"])
    outcome["checks"]["sim_twin_same_delivered_set"] = (
        twin["delivered"] == result["delivered"]
    )
    layers = {
        "core.solve_setup_s": total_by_name(recorder.spans, "core.solve_setup"),
        "live.codec_encode_s": codec["encode_s"],
        "live.codec_decode_s": codec["decode_s"],
        "live.frames": codec["frames"],
        "live.bytes": codec["bytes"],
        "live.retransmissions": result["retransmissions"],
        "metrics.delay_samples": outcome["delay_count"],
    }
    traced = _traced_result(
        recorder, profiler, layers, outcome, tally.first_publish - t0, wall, cpu
    )
    traced["twin_p50_s"] = percentile(twin_delays, 50.0)
    return traced


def _traced_result(recorder, profiler, layers, outcome, setup_s, wall, cpu):
    for layer, seconds in profiler.layer_seconds().items():
        layers[f"layer.{layer}_self_s"] = seconds
    outcome["checks"].update(span_checks(recorder))
    outcome.update(
        layers=layers,
        spans=[span.as_dict() for span in recorder.spans],
        setup_s=setup_s,
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mb=peak_rss_mb(),
    )
    return outcome

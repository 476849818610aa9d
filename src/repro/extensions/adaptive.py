"""Adaptive ACK timeouts: fixing DCRD's congestion collapse.

The congestion study (:mod:`repro.extensions.congestion`) exposes a failure
mode the paper never evaluates: on finite-capacity links, queueing delay
makes the static ``factor * alpha`` ACK timer fire on frames that were
merely *queued*, not lost. The sender then retransmits **and** walks its
sending list while the original copy still arrives — every spurious timeout
multiplies offered load, which deepens the queues, which causes more
timeouts: classic congestion collapse (observed experimentally: QoS falls
to <1% and traffic explodes ~25x at 2x overload).

The classical fix is TCP's retransmission-timeout estimator.
:class:`AdaptiveTimeoutPolicy` implements Jacobson/Karn per link direction:

* before any sample exists, the RTO is a deliberately *conservative*
  ``initial_rto`` (RFC 6298 starts TCP at 1 s for the same reason): if the
  very first timer undercuts the true no-load RTT, every first attempt
  "fails" before its ACK lands and — with Karn filtering — the estimator
  can never learn. This bootstrap problem is exactly what the static paper
  timer exhibits on finite-capacity links;
* ``srtt`` and ``rttvar`` are EWMAs of observed ACK round trips
  (first-attempt samples only — Karn's rule — fed by the ARQ layer);
* timeout = ``srtt + 4 * rttvar`` (+slack), clamped to
  ``[floor, ceiling]`` where the floor is the static paper timer (never be
  *more* aggressive than the baseline) and the ceiling bounds how long a
  truly dead neighbour can stall failure detection.

:class:`AdaptiveDcrdStrategy` is DCRD with this policy plugged into its
ARQ layer; everything else — sending lists, bouncing, Theorem 1 — is
untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.forwarding import DcrdStrategy
from repro.routing.arq import ArqSender, MonitorTimeoutPolicy
from repro.routing.base import RuntimeContext
from repro.util.validation import require, require_positive


@dataclass
class _RttState:
    """Jacobson estimator state for one link direction."""

    srtt: float
    rttvar: float


class AdaptiveTimeoutPolicy:
    """Per-link Jacobson/Karn retransmission-timeout estimation."""

    def __init__(
        self,
        ctx: RuntimeContext,
        alpha: float = 0.125,
        beta: float = 0.25,
        var_factor: float = 4.0,
        initial_rto: float = 0.5,
        ceiling: float = 5.0,
    ) -> None:
        require(0.0 < alpha < 1.0, "alpha must be in (0, 1)")
        require(0.0 < beta < 1.0, "beta must be in (0, 1)")
        require_positive(var_factor, "var_factor")
        require_positive(initial_rto, "initial_rto")
        require_positive(ceiling, "ceiling")
        require(ceiling >= initial_rto, "ceiling must cover initial_rto")
        self.ctx = ctx
        self.alpha = alpha
        self.beta = beta
        self.var_factor = var_factor
        self.initial_rto = initial_rto
        self.ceiling = ceiling
        # Keyed by the packed direction id (src << 21 | dst).
        self._state: Dict[int, _RttState] = {}
        self.samples = 0
        # Never undercut the paper's static timer; the static policy
        # memoises it per direction until the monitor publishes new
        # estimates.
        self._floor = MonitorTimeoutPolicy(ctx).timeout

    def timeout(self, src: int, dst: int) -> float:
        """Current RTO for the (src, dst) direction."""
        floor = self._floor(src, dst)
        state = self._state.get((src << 21) | dst)
        if state is None:
            # Conservative bootstrap until the first unambiguous sample.
            return min(max(floor, self.initial_rto), self.ceiling)
        rto = state.srtt + self.var_factor * state.rttvar
        rto += self.ctx.params.ack_timeout_slack
        return min(max(rto, floor), self.ceiling)

    def on_sample(self, src: int, dst: int, rtt: float) -> None:
        """Fold one unambiguous RTT observation into the estimator."""
        self.samples += 1
        key = (src << 21) | dst
        state = self._state.get(key)
        if state is None:
            self._state[key] = _RttState(srtt=rtt, rttvar=rtt / 2.0)
            return
        deviation = abs(state.srtt - rtt)
        state.rttvar = (1.0 - self.beta) * state.rttvar + self.beta * deviation
        state.srtt = (1.0 - self.alpha) * state.srtt + self.alpha * rtt


class AdaptiveDcrdStrategy(DcrdStrategy):
    """DCRD with congestion-aware (Jacobson/Karn) ACK timeouts."""

    name = "DCRD+adaptive"

    def __init__(self, ctx: RuntimeContext, rto_ceiling: float = 5.0) -> None:
        super().__init__(ctx)
        self.rto_policy = AdaptiveTimeoutPolicy(ctx, ceiling=rto_ceiling)
        self.arq = ArqSender(ctx, timeout_policy=self.rto_policy)

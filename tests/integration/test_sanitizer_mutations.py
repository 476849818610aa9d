"""Mutation smoke: deliberately break an invariant, the sanitizer must bite.

A sanitizer that never fires is indistinguishable from one that checks
nothing. These tests flip the test-only mutation flags in
:mod:`repro.sanity` — each one injects a specific, realistic bug — and
assert that the run dies with an :class:`InvariantViolation` of exactly
the matching kind:

* ``MUTATE_MISSORT_SENDING_LIST`` hands the data plane a sending list out
  of Theorem-1 (d, r) order → ``sending_list_order`` at table-build time;
* ``MUTATE_SKIP_TIMER_CANCEL`` leaks ACK timers instead of cancelling them
  when the ACK arrives → ``timer_orphan`` in the end-of-drain check.

With the sanitizer *off*, the flags must be completely inert — the flags
live inside sanitizer-guarded branches, so production runs cannot pay for
(or be bitten by) them.
"""

import pytest

from repro import probes, sanity
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_environment, run_single
from repro.sanity import InvariantViolation

CONFIG = ExperimentConfig(
    topology_kind="regular",
    degree=5,
    num_nodes=16,
    num_topics=3,
    failure_probability=0.04,
    loss_rate=0.01,
    m=2,
    duration=6.0,
    drain=4.0,
    sanitize=True,
)


@pytest.fixture
def missort_mutation(monkeypatch):
    monkeypatch.setattr(sanity, "MUTATE_MISSORT_SENDING_LIST", True)


@pytest.fixture
def skip_cancel_mutation(monkeypatch):
    monkeypatch.setattr(sanity, "MUTATE_SKIP_TIMER_CANCEL", True)


def test_missorted_sending_list_is_caught(missort_mutation):
    """An out-of-order sending list dies at table construction."""
    with pytest.raises(InvariantViolation) as excinfo:
        # The violation fires inside strategy.setup(), i.e. already during
        # build_environment — before a single event runs.
        build_environment(CONFIG, "DCRD", seed=3)
    assert excinfo.value.kind == sanity.SENDING_LIST_ORDER
    report = excinfo.value.report()
    assert "sending_list_order" in report


def test_missort_does_not_leak_installed_sanitizer(missort_mutation):
    """An aborted build must uninstall its sanitizer (try/finally)."""
    with pytest.raises(InvariantViolation):
        build_environment(CONFIG, "DCRD", seed=3)
    assert not any(isinstance(o, sanity.Sanitizer) for o in probes.observers())


def test_leaked_ack_timer_is_caught(skip_cancel_mutation):
    """Skipping the ACK-path timer cancel surfaces as a timer orphan."""
    with pytest.raises(InvariantViolation) as excinfo:
        run_single(CONFIG, "DCRD", seed=3)
    assert excinfo.value.kind == sanity.TIMER_ORPHAN
    assert excinfo.value.details["orphans"] >= 1


def test_violation_report_carries_context(skip_cancel_mutation):
    """The structured report names the kind and the offending details."""
    with pytest.raises(InvariantViolation) as excinfo:
        run_single(CONFIG, "DCRD", seed=3)
    report = excinfo.value.report()
    assert "timer_orphan" in report
    assert "first_token" in report


def test_violation_report_embeds_trace_excerpt(skip_cancel_mutation):
    """--sanitize --trace: the violation carries the offending frame's
    lifecycle excerpt, captured at raise time from the installed tracer."""
    with pytest.raises(InvariantViolation) as excinfo:
        run_single(CONFIG.with_updates(trace=True), "DCRD", seed=3)
    violation = excinfo.value
    assert violation.kind == sanity.TIMER_ORPHAN
    assert violation.frames  # the leaked timer's outstanding copy
    assert violation.trace_excerpt
    frame = violation.frames[0]
    # Every excerpt line is about the offending frame, and its lifecycle
    # (the transmit whose timer leaked) is actually in there.
    assert all(
        f"msg={frame.msg_id}" in line or f"transfer={frame.transfer_id}" in line
        for line in violation.trace_excerpt
    )
    assert any("transmit" in line for line in violation.trace_excerpt)
    report = violation.report()
    assert "trace excerpt:" in report
    assert violation.trace_excerpt[-1] in report


def test_excerpt_absent_without_tracer(skip_cancel_mutation):
    """Sanitize-only runs keep the old report shape (no excerpt section)."""
    with pytest.raises(InvariantViolation) as excinfo:
        run_single(CONFIG, "DCRD", seed=3)
    assert excinfo.value.trace_excerpt == ()
    assert "trace excerpt:" not in excinfo.value.report()


@pytest.mark.parametrize(
    "flag", ["MUTATE_MISSORT_SENDING_LIST", "MUTATE_SKIP_TIMER_CANCEL"]
)
def test_mutations_inert_without_sanitizer(monkeypatch, flag):
    """Flags only matter under the sanitizer: plain runs are bit-identical."""
    plain_config = CONFIG.with_updates(sanitize=False)
    baseline = run_single(plain_config, "DCRD", seed=3).as_dict()
    monkeypatch.setattr(sanity, flag, True)
    mutated = run_single(plain_config, "DCRD", seed=3).as_dict()
    assert mutated == baseline

"""Reliability campaigns: measuring the price of fault tolerance.

A reliability campaign runs the same workload twice from the same seed —
once under a :class:`~repro.platforms.faults.FaultPlan` and once
fault-free — and reports what the chaos cost: success rate, platform
retries, GB-s wasted on doomed attempts, per-run cost amplification and
tail-latency inflation.  This quantifies the paper's central trade: the
recovery machinery (Step Functions Retry/Catch, Durable Functions event
sourcing) buys fault tolerance with latency and money.

Everything is derived from ``(spec.seed, spec.fault_plan)``, so a
reliability outcome is bit-identical across the serial runner,
:class:`~repro.core.parallel.ParallelRunner` workers and cache hits,
exactly like the other campaign types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Generator, List

from repro.core.audit import finalize_report
from repro.core.costs import cost_report
from repro.core.deployments.base import Deployment
from repro.core.experiment import CampaignResult
from repro.core.metrics import breakdown_from_spans, percentile

if TYPE_CHECKING:   # pragma: no cover - import cycle guard
    from repro.core.parallel import CampaignOutcome, CampaignSpec


@dataclass(frozen=True)
class ReliabilitySummary:
    """The chaos bill for one deployment under one fault plan."""

    deployment: str
    platform: str
    total_runs: int
    successes: int
    failures: int
    #: retries the platforms performed absorbing the injected faults
    retries: int
    injected_crashes: int
    injected_errors: int
    injected_stragglers: int
    delayed_messages: int
    duplicated_messages: int
    host_crashes: int
    #: GB-s billed to invocation attempts that then crashed
    wasted_gb_s: float
    cost_per_run: float
    baseline_cost_per_run: float
    #: faulted cost / fault-free cost — the price of reliability
    cost_amplification: float
    p50_latency_s: float
    p99_latency_s: float
    baseline_p50_latency_s: float
    baseline_p99_latency_s: float
    #: faulted p99 / fault-free p99
    tail_inflation: float
    mean_recovery_time_s: float

    @property
    def success_rate(self) -> float:
        if self.total_runs == 0:
            return 0.0
        return self.successes / self.total_runs


def _direct(invoke: Callable[[], Generator]) -> Generator:
    return invoke()


def tolerant_pass(spec: "CampaignSpec", deployment: Deployment,
                  call: Callable = _direct):
    """One closed-loop campaign pass, tolerant of failed runs.

    Mirrors :meth:`ExperimentRunner.run_campaign` exactly — same
    settle/think cadence, same breakdown windows — except that a run
    raising (a fault the platform could not absorb, or a mitigation
    giving up) is recorded as a failure instead of aborting the
    campaign.  Each invoke is ``call(start)``, where ``start()`` begins
    one invocation: the identity, or a
    :meth:`~repro.core.mitigation.MitigationEngine.call` wrapping it.

    Returns ``(campaign, cost, failures, success_times)``;
    ``success_times`` are the absolute completion times of *every*
    successful run, warmup included (the MTTR evidence).
    """
    from repro.core.overload import classify_error

    testbed = deployment.testbed
    auditor = testbed.auditor
    telemetry = deployment.stack.telemetry
    campaign = CampaignResult(deployment=deployment.name)
    kwargs = dict(spec.invoke_kwargs)
    failures = 0
    success_times: List[float] = []

    for index in range(spec.warmup + spec.iterations):
        window_start = testbed.now
        span_cursor = len(telemetry.spans)
        run = None
        if auditor is not None:
            auditor.note_arrival()
        try:
            run = testbed.run(call(lambda: deployment.invoke(**kwargs)))
            success_times.append(testbed.now)
            if auditor is not None:
                auditor.note_outcome("succeeded")
        except Exception as error:  # noqa: BLE001 - the failure IS the measurement
            if auditor is not None:
                auditor.note_outcome(classify_error(error))
            if index >= spec.warmup:
                failures += 1
        testbed.advance(spec.settle_time_s)
        if index >= spec.warmup and run is not None:
            campaign.runs.append(run)
            campaign.breakdowns.append(breakdown_from_spans(
                telemetry, since=window_start, until=testbed.now,
                start_hint=span_cursor))
        testbed.advance(spec.think_time_s)

    cost = cost_report(deployment, per_runs=spec.warmup + spec.iterations)
    return campaign, cost, failures, success_times


def amplification(value: float, baseline: float) -> float:
    """``value / baseline`` of a faulted vs a fault-free measurement."""
    if baseline <= 0:
        return 1.0 if value <= 0 else float("inf")
    return value / baseline


def execute_reliability_spec(spec: "CampaignSpec") -> "CampaignOutcome":
    """Run the faulted pass and its fault-free baseline; summarize.

    Only the faulted pass is audited: it is the one exercising retries,
    duplicates and crash recovery, and the baseline pass would double
    every check for no extra signal.
    """
    from repro.core.parallel import CampaignOutcome

    deployment = spec.deploy()
    testbed = deployment.testbed
    campaign, cost, failures, _ = tolerant_pass(spec, deployment)
    baseline_campaign, baseline_cost, _, _ = tolerant_pass(
        spec, spec.deploy(baseline=True))

    faults = testbed.faults
    latencies = campaign.latencies
    baseline_latencies = baseline_campaign.latencies
    p50 = percentile(latencies, 50) if latencies else 0.0
    p99 = percentile(latencies, 99) if latencies else 0.0
    base_p50 = (percentile(baseline_latencies, 50)
                if baseline_latencies else 0.0)
    base_p99 = (percentile(baseline_latencies, 99)
                if baseline_latencies else 0.0)
    recovery_times = faults.host_recovery_times if faults else []

    summary = ReliabilitySummary(
        deployment=spec.deployment,
        platform=cost.platform,
        total_runs=spec.iterations,
        successes=len(campaign.runs),
        failures=failures,
        retries=faults.platform_retries if faults else 0,
        injected_crashes=faults.crashes if faults else 0,
        injected_errors=faults.transient_errors if faults else 0,
        injected_stragglers=faults.stragglers if faults else 0,
        delayed_messages=faults.delayed_messages if faults else 0,
        duplicated_messages=faults.duplicated_messages if faults else 0,
        host_crashes=faults.host_crashes if faults else 0,
        wasted_gb_s=faults.wasted_gb_s if faults else 0.0,
        cost_per_run=cost.total,
        baseline_cost_per_run=baseline_cost.total,
        cost_amplification=amplification(cost.total, baseline_cost.total),
        p50_latency_s=p50,
        p99_latency_s=p99,
        baseline_p50_latency_s=base_p50,
        baseline_p99_latency_s=base_p99,
        tail_inflation=amplification(p99, base_p99),
        mean_recovery_time_s=(sum(recovery_times) / len(recovery_times)
                              if recovery_times else 0.0))

    return CampaignOutcome(spec=spec, campaign=campaign, cost=cost,
                           reliability=summary,
                           audit=finalize_report(testbed, spec))

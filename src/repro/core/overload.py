"""Overload campaigns: drive every platform past saturation, openly.

The paper's closed-loop protocol never saturates either platform; an
overload campaign does it on purpose.  It reuses the open-loop arrival
models of :mod:`repro.core.arrivals` to offer load at a fixed rate past
the platforms' service capacity and reports what each overload-protection
layer did with the excess:

* AWS rejects at admission — token-bucket/concurrency 429s that Step
  Functions absorbs with capped, jittered backoff until attempts run out;
* Azure pushes back at the queues — a bounded dispatch queue answering
  HTTP 429 at the trigger, plus deadline-based load shedding of accepted
  work that waited too long;
* GCP rejects at the instance cap — gen1's one-request-per-instance
  model 429s the excess, and Workflows retries with capped exponential
  backoff.

Per-platform throttle/retry counters come from the platform's
:class:`~repro.platforms.backend.PlatformBackend`, so a new backend
plugs into overload reporting without touching this module.

Every request therefore ends in exactly one of four buckets — succeeded,
throttled, shed, failed — and the :class:`OverloadSummary` reports
goodput, throttle/shed rates, retry amplification and tail latency per
swept rate.  Like every campaign type, the result is a pure function of
the :class:`~repro.core.parallel.CampaignSpec`, bit-identical across the
serial runner, :class:`~repro.core.parallel.ParallelRunner` workers and
cache replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    PoissonArrivals,
    UniformArrivals,
)
from repro.core.audit import finalize_report
from repro.core.costs import cost_report
from repro.core.experiment import CampaignResult
from repro.core.metrics import percentile
from repro.platforms.backend import get_backend
from repro.platforms.base import LoadShedError, ThrottlingError

if TYPE_CHECKING:   # pragma: no cover - import cycle guard
    from repro.core.parallel import CampaignOutcome, CampaignSpec

#: Arrival-process kinds an overload spec may name.
ARRIVAL_KINDS = ("poisson", "uniform", "bursty")

#: Burst shape used by ``arrival="bursty"`` when the spec's ``batch``
#: field is left at 0.
DEFAULT_BURST_SIZE = 10
BURSTS_PER_HOUR = 30.0

#: Error-message markers for classifying failures that crossed a
#: workflow boundary (e.g. an AWS-Step execution that FAILED with
#: ``Lambda.TooManyRequestsException`` surfaces as a RuntimeError).
_THROTTLE_MARKERS = ("TooManyRequests", "Throttling", "429",
                     "depth bound", "token bucket")
_SHED_MARKERS = ("shed after waiting",)


def classify_error(error: BaseException) -> str:
    """Which bucket a failed request lands in: throttled, shed or failed.

    Typed exceptions win; otherwise the error text is matched so that
    rejections wrapped by workflow layers (Step Functions FAILED records,
    orchestration failures) still land in the right bucket.
    """
    if isinstance(error, LoadShedError):
        return "shed"
    if isinstance(error, ThrottlingError):
        return "throttled"
    text = str(error)
    if any(marker in text for marker in _THROTTLE_MARKERS):
        return "throttled"
    if any(marker in text for marker in _SHED_MARKERS):
        return "shed"
    return "failed"


@dataclass(frozen=True)
class OverloadSummary:
    """What one deployment did with one offered arrival rate."""

    deployment: str
    platform: str
    rate_per_s: float
    horizon_s: float
    #: scheduled arrivals over the horizon
    offered: int
    succeeded: int
    #: requests ultimately rejected 429 (admission or exhausted backoff)
    throttled: int
    #: accepted requests dropped past their queue-wait budget
    shed: int
    #: requests that errored for any non-overload reason
    failed: int
    #: platform-level 429 events, including ones retries absorbed
    throttle_events: int
    #: invocation re-attempts the platform performed absorbing 429s
    retries: int
    goodput_per_s: float
    throttle_rate: float
    shed_rate: float
    failure_rate: float
    #: total attempts per offered request (1.0 = no retry traffic)
    retry_amplification: float
    p50_latency_s: float
    p99_latency_s: float

    @property
    def success_rate(self) -> float:
        if self.offered == 0:
            return 0.0
        return self.succeeded / self.offered

    @property
    def delivered_fraction(self) -> float:
        """Goodput as a fraction of the offered rate."""
        if self.rate_per_s <= 0:
            return 0.0
        return self.goodput_per_s / self.rate_per_s


def arrival_process(spec: "CampaignSpec") -> ArrivalProcess:
    """The arrival model an overload spec asks for."""
    rate = spec.arrival_rate_per_s
    if spec.arrival == "uniform":
        return UniformArrivals(rate_per_s=rate)
    if spec.arrival == "bursty":
        return BurstyArrivals(rate_per_s=rate,
                              burst_size=spec.batch or DEFAULT_BURST_SIZE,
                              bursts_per_hour=BURSTS_PER_HOUR)
    return PoissonArrivals(rate_per_s=rate)


def _ratio(value: float, baseline: float) -> float:
    if baseline <= 0:
        return 0.0
    return value / baseline


def execute_overload_spec(spec: "CampaignSpec") -> "CampaignOutcome":
    """Run one open-loop overload pass and summarize the four buckets.

    Mirrors :class:`~repro.core.arrivals.LoadGenerator` but tolerates —
    indeed, measures — rejected work: a request raising is classified via
    :func:`classify_error` instead of aborting the campaign, so at any
    offered rate the run completes without an unhandled exception.
    """
    from repro.core.parallel import CampaignOutcome

    deployment = spec.deploy()
    testbed = deployment.testbed
    auditor = testbed.auditor
    rng = testbed.streams.get(f"load.{deployment.name}")
    offsets = arrival_process(spec).schedule(rng, spec.horizon_s)
    kwargs = dict(spec.invoke_kwargs)
    campaign = CampaignResult(deployment=deployment.name)
    counts = {"throttled": 0, "shed": 0, "failed": 0}

    def fire(env, delay):
        yield env.timeout(delay)
        if auditor is not None:
            auditor.note_arrival()
        try:
            run = yield from deployment.invoke(**kwargs)
        except Exception as error:  # noqa: BLE001 - the bucket IS the datum
            counts[classify_error(error)] += 1
            if auditor is not None:
                auditor.note_outcome(classify_error(error))
            return None
        campaign.runs.append(run)
        if auditor is not None:
            auditor.note_outcome("succeeded")
        return run

    env = testbed.env
    processes = [env.process(fire(env, offset)) for offset in offsets]

    def driver(env):
        if processes:
            yield env.all_of(processes)

    env.run(until=env.process(driver(env)))
    campaign.runs.sort(key=lambda run: run.started_at)

    offered = len(offsets)
    succeeded = len(campaign.runs)
    backend = get_backend(deployment.platform)
    throttle_events = backend.throttle_count(testbed)
    retries = backend.retry_count(testbed)
    if testbed.faults is not None:
        retries += testbed.faults.platform_retries
    latencies = campaign.latencies

    summary = OverloadSummary(
        deployment=spec.deployment,
        platform=deployment.platform,
        rate_per_s=spec.arrival_rate_per_s,
        horizon_s=spec.horizon_s,
        offered=offered,
        succeeded=succeeded,
        throttled=counts["throttled"],
        shed=counts["shed"],
        failed=counts["failed"],
        throttle_events=throttle_events,
        retries=retries,
        goodput_per_s=_ratio(succeeded, spec.horizon_s),
        throttle_rate=_ratio(counts["throttled"], offered),
        shed_rate=_ratio(counts["shed"], offered),
        failure_rate=_ratio(counts["failed"], offered),
        retry_amplification=(1.0 if offered == 0
                             else (offered + retries) / offered),
        p50_latency_s=percentile(latencies, 50) if latencies else 0.0,
        p99_latency_s=percentile(latencies, 99) if latencies else 0.0)

    cost = cost_report(deployment, per_runs=max(1, offered))
    return CampaignOutcome(spec=spec, campaign=campaign, cost=cost,
                           overload=summary,
                           audit=finalize_report(testbed, spec))

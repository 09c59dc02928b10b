"""GCP variants through every campaign type, and three-platform identity.

The acceptance bar for the third platform: all campaign types (latency,
cold start, reliability, overload — each under the invariant auditor via
the suite-wide default) run on the GCP variants, and a spec executed
serially, through the :class:`ParallelRunner` worker pool, or replayed
from the on-disk cache is bit-identical on every platform.
"""

import json

import pytest

from repro.core import (
    CampaignSpec,
    ParallelRunner,
    ResultCache,
    execute_spec,
)
from repro.core.persistence import to_document
from repro.platforms.faults import FaultPlan

pytestmark = pytest.mark.gcp


def outcome_blob(outcome) -> str:
    """Every observable of an outcome, as one comparable string."""
    return json.dumps({
        "campaign": to_document(outcome.campaign, "campaign"),
        "cost": to_document(outcome.cost, "cost"),
        "idle": outcome.idle_transactions,
        "reliability": repr(outcome.reliability),
        "overload": repr(outcome.overload),
    }, sort_keys=True, default=repr)


# -- every campaign type on the GCP variants -----------------------------------------


@pytest.mark.parametrize("deployment", ["GCP-Func", "GCP-Flows"])
def test_latency_campaign(deployment):
    spec = CampaignSpec(deployment=deployment, workload="ml-training",
                        scale="small", iterations=3, warmup=1, seed=17)
    outcome = execute_spec(spec)
    assert len(outcome.campaign.latencies) == 3
    assert all(latency > 0 for latency in outcome.campaign.latencies)
    assert outcome.cost.platform == "gcp"
    assert outcome.cost.total > 0
    assert outcome.audit is not None and outcome.audit.passed


def test_inference_campaign():
    spec = CampaignSpec(deployment="GCP-Flows", workload="ml-inference",
                        scale="small", iterations=2, warmup=1, seed=17)
    outcome = execute_spec(spec)
    assert len(outcome.campaign.latencies) == 2
    # Per-step transactions were metered: GCP-Flows is the stateful
    # variant, so the workflow's step charges must show up.
    assert outcome.cost.transaction_count > 0


def test_video_campaign():
    spec = CampaignSpec(deployment="GCP-Flows", workload="video",
                        fanout=4, campaign="latency", iterations=1,
                        warmup=0, think_time_s=0.0, settle_time_s=0.0,
                        seed=17, invoke_kwargs={"n_workers": 4})
    outcome = execute_spec(spec)
    assert len(outcome.campaign.latencies) == 1
    assert outcome.campaign.runs[0].value["n_detections"] == 4


def test_coldstart_campaign():
    spec = CampaignSpec(deployment="GCP-Flows", workload="ml-training",
                        scale="small", campaign="coldstart",
                        interval_s=3600.0, days=0.25, seed=17)
    outcome = execute_spec(spec)
    delays = outcome.campaign.cold_start_delays
    assert delays
    # Hourly arrivals against a 900 s keep-alive: every request pays a
    # gen1 cold start (1.5-4 s), so the median sits well above warm
    # dispatch overheads.
    assert min(delays) >= 1.5


def test_reliability_campaign():
    plan = FaultPlan(crash_probability=0.2, retry_max_attempts=3)
    spec = CampaignSpec(deployment="GCP-Flows", workload="ml-training",
                        scale="small", campaign="reliability",
                        iterations=3, warmup=1, seed=17,
                        fault_plan=plan.to_items())
    outcome = execute_spec(spec)
    summary = outcome.reliability
    assert summary.platform == "gcp"
    assert 0.0 < summary.success_rate <= 1.0
    assert summary.cost_amplification >= 1.0
    assert outcome.audit is not None and outcome.audit.passed


def test_overload_campaign():
    spec = CampaignSpec(deployment="GCP-Func", workload="ml-training",
                        scale="small", campaign="overload",
                        arrival="poisson", arrival_rate_per_s=2.0,
                        horizon_s=40.0, seed=17,
                        calibration_overrides={"gcp.max_instances": 2})
    outcome = execute_spec(spec)
    summary = outcome.overload
    assert summary.platform == "gcp"
    assert summary.offered == (summary.succeeded + summary.throttled
                               + summary.shed + summary.failed)
    # Two gen1 instances against 2 req/s of 14-second work must throttle.
    assert summary.throttled > 0
    assert summary.shed == 0          # GCP has no shedding path
    assert outcome.audit is not None and outcome.audit.passed


def test_overload_workflow_retries_absorb_429s():
    """GCP-Flows overload: the Workflows retry policy re-offers throttled
    calls, so retry amplification exceeds the direct-function variant's."""
    spec = CampaignSpec(deployment="GCP-Flows", workload="ml-training",
                        scale="small", campaign="overload",
                        arrival="poisson", arrival_rate_per_s=1.0,
                        horizon_s=30.0, seed=17,
                        calibration_overrides={"gcp.max_instances": 2})
    outcome = execute_spec(spec)
    assert outcome.overload.retries > 0
    assert outcome.overload.retry_amplification > 1.0


# -- bit-identity: serial / worker pool / cache replay ------------------------------


THREE_PLATFORM_SPECS = [
    CampaignSpec(deployment=name, workload="ml-training", scale="small",
                 iterations=3, warmup=1, seed=23)
    for name in ("AWS-Step", "Az-Dorch", "GCP-Flows")
]


def test_serial_parallel_and_cache_replay_are_bit_identical(tmp_path):
    serial = [execute_spec(spec) for spec in THREE_PLATFORM_SPECS]

    cache = ResultCache(str(tmp_path))
    pooled = ParallelRunner(workers=2, cache=cache).run(
        THREE_PLATFORM_SPECS)
    replayed = ParallelRunner(workers=2, cache=cache).run(
        THREE_PLATFORM_SPECS)

    for reference, worker, replay in zip(serial, pooled, replayed):
        assert not worker.cached
        assert replay.cached
        assert outcome_blob(reference) == outcome_blob(worker)
        assert outcome_blob(reference) == outcome_blob(replay)


def test_reliability_and_overload_specs_are_deterministic():
    plan = FaultPlan(crash_probability=0.15, retry_max_attempts=3)
    specs = [
        CampaignSpec(deployment="GCP-Flows", workload="ml-training",
                     scale="small", campaign="reliability", iterations=2,
                     warmup=1, seed=31, fault_plan=plan.to_items()),
        CampaignSpec(deployment="GCP-Func", workload="ml-training",
                     scale="small", campaign="overload",
                     arrival="poisson", arrival_rate_per_s=1.0,
                     horizon_s=30.0, seed=31,
                     calibration_overrides={"gcp.max_instances": 2}),
    ]
    serial = [execute_spec(spec) for spec in specs]
    pooled = ParallelRunner(workers=2, cache=None).run(specs)
    for reference, worker in zip(serial, pooled):
        assert outcome_blob(reference) == outcome_blob(worker)

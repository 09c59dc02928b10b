"""Golden outcomes: one small audited spec per campaign kind.

``golden_outcomes.json`` holds, for each spec below, the outcome
document and its ``payload_checksum`` as recorded when the fixture was
made.  Executing the spec today must give the same checksum (outcomes
stay bit-identical), and decoding the stored document must give an
outcome equal to the executed one (caches and journals written by
earlier versions still load).

The perfbench references only cover latency, coldstart and overload
campaigns; this is the bit-identity check on reliability, resilience
and fanout.

Re-record (only when an outcome change is intended) with::

    PYTHONPATH=src python tests/core/test_outcome_golden.py
"""

import json
from pathlib import Path

import pytest

from repro.core import CampaignSpec, FaultPlan, MitigationPolicy, execute_spec
from repro.core.persistence import (
    outcome_from_dict,
    outcome_to_dict,
    payload_checksum,
)

FIXTURE = Path(__file__).with_name("golden_outcomes.json")

SPECS = {
    "latency": CampaignSpec(
        deployment="Az-Dent", workload="ml-training", scale="small",
        campaign="latency", iterations=3, warmup=1, seed=11,
        idle_window_s=600.0, audit=True),
    "coldstart": CampaignSpec(
        deployment="GCP-Func", workload="ml-training", scale="small",
        campaign="coldstart", interval_s=3600.0, days=0.25, seed=12,
        audit=True),
    "fanout": CampaignSpec(
        deployment="AWS-Lambda", workload="ml-training", scale="small",
        campaign="fanout", batch=4, seed=13, audit=True),
    "reliability": CampaignSpec(
        deployment="AWS-Step", workload="ml-training", scale="small",
        campaign="reliability", iterations=3, warmup=1, seed=83,
        fault_plan=FaultPlan(crash_probability=0.2, error_probability=0.1,
                             retry_max_attempts=3,
                             retry_interval_s=1.0).to_items(),
        audit=True),
    "resilience": CampaignSpec(
        deployment="Az-Dorch", workload="ml-training", scale="small",
        campaign="resilience", iterations=3, warmup=1, seed=84,
        fault_plan=FaultPlan(outage_windows=((60.0, 45.0),),
                             outage_mode="crash", retry_max_attempts=2,
                             retry_interval_s=1.0).to_items(),
        mitigation=MitigationPolicy(
            breaker_failure_threshold=4, breaker_recovery_timeout_s=20.0,
            hedge_after_s=30.0, max_hedges=1, deadline_factor=8.0,
            deadline_min_s=10.0, request_timeout_s=240.0).to_items(),
        slo_availability=0.99, audit=True),
    "overload": CampaignSpec(
        deployment="Az-Dorch", workload="ml-training", scale="small",
        campaign="overload", arrival="poisson", arrival_rate_per_s=0.5,
        horizon_s=30.0, seed=15, audit=True),
}


def _record() -> dict:
    golden = {}
    for name, spec in SPECS.items():
        document = outcome_to_dict(execute_spec(spec))
        golden[name] = {"spec": spec.canonical(),
                        "checksum": payload_checksum(document),
                        "document": json.loads(json.dumps(
                            document, sort_keys=True, default=repr))}
    return golden


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_campaign_kind(golden):
    from repro.core.parallel import CAMPAIGN_TYPES
    assert sorted(golden) == sorted(CAMPAIGN_TYPES)
    assert sorted(SPECS) == sorted(CAMPAIGN_TYPES)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_outcome_matches_golden(golden, name):
    spec = SPECS[name]
    entry = golden[name]
    assert entry["spec"] == json.loads(json.dumps(spec.canonical()))
    outcome = execute_spec(spec)
    assert outcome.audit is not None and outcome.audit.passed
    assert payload_checksum(outcome_to_dict(outcome)) == entry["checksum"]
    assert outcome_from_dict(entry["document"], spec) == outcome


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(_record(), indent=1, sort_keys=True)
                       + "\n")
    print(f"wrote {FIXTURE}")

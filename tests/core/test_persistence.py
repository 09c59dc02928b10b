"""Tests for JSON persistence of campaigns, summaries and outcomes."""

import json

import pytest

from repro.core import (
    OverloadSummary,
    ReliabilitySummary,
    ResilienceSummary,
    Testbed,
    build_ml_training_deployments,
    cost_report,
    execute_spec,
)
from repro.core.audit import AuditReport
from repro.core.costs import CostReport
from repro.core.experiment import CampaignResult, ExperimentRunner
from repro.core.persistence import (
    from_document,
    load_results,
    outcome_from_dict,
    outcome_to_dict,
    save_results,
    to_document,
)
from tests.core.test_outcome_golden import SPECS


@pytest.fixture(scope="module")
def campaign_and_report():
    testbed = Testbed(seed=2)
    deployment = build_ml_training_deployments(testbed, "small")["AWS-Step"]
    runner = ExperimentRunner(think_time_s=10.0, settle_time_s=2.0)
    campaign = runner.run_campaign(deployment, iterations=4, warmup=0)
    return campaign, cost_report(deployment, per_runs=4)


@pytest.fixture(scope="module")
def outcomes():
    """One executed outcome per campaign kind that carries a summary,
    plus a latency outcome (campaign, cost and audit documents)."""
    return {kind: execute_spec(SPECS[kind])
            for kind in ("latency", "reliability", "overload", "resilience")}


#: document kind -> (type, the outcome it is taken from)
DOCUMENT_KINDS = {
    "campaign": (CampaignResult, "latency"),
    "cost": (CostReport, "latency"),
    "audit": (AuditReport, "latency"),
    "reliability": (ReliabilitySummary, "reliability"),
    "overload": (OverloadSummary, "overload"),
    "resilience": (ResilienceSummary, "resilience"),
    "outcome": (None, "resilience"),
}


@pytest.mark.parametrize("kind", sorted(DOCUMENT_KINDS))
def test_codec_round_trip(outcomes, kind):
    """Every document kind survives JSON text exactly and rejects a
    wrong ``kind`` tag or ``format_version``."""
    cls, source = DOCUMENT_KINDS[kind]
    outcome = outcomes[source]
    if cls is None:
        obj = outcome
        encode = outcome_to_dict

        def decode(data):
            return outcome_from_dict(data, outcome.spec)
    else:
        obj = getattr(outcome, kind)

        def encode(value):
            return to_document(value, kind)

        def decode(data):
            return from_document(cls, data, kind)

    document = encode(obj)
    assert document["kind"] == kind
    assert document["format_version"] == 1
    assert decode(document) == obj
    text = json.dumps(document, default=repr)
    assert decode(json.loads(text)) == obj

    wrong_kind = json.loads(text)
    wrong_kind["kind"] = "cost" if kind != "cost" else "campaign"
    with pytest.raises(ValueError, match="expected"):
        decode(wrong_kind)
    wrong_version = json.loads(text)
    wrong_version["format_version"] = 99
    with pytest.raises(ValueError, match="version"):
        decode(wrong_version)


def test_campaign_roundtrip(campaign_and_report):
    campaign, _ = campaign_and_report
    restored = from_document(CampaignResult,
                             to_document(campaign, "campaign"), "campaign")
    assert restored.deployment == campaign.deployment
    assert restored.latencies == campaign.latencies
    assert restored.stats() == campaign.stats()
    assert len(restored.breakdowns) == len(campaign.breakdowns)


def test_kind_mismatch_rejected(campaign_and_report):
    campaign, report = campaign_and_report
    with pytest.raises(ValueError, match="expected"):
        from_document(CampaignResult, to_document(report, "cost"), "campaign")
    with pytest.raises(ValueError, match="expected"):
        from_document(CostReport, to_document(campaign, "campaign"), "cost")


def test_version_mismatch_rejected(campaign_and_report):
    campaign, _ = campaign_and_report
    data = to_document(campaign, "campaign")
    data["format_version"] = 99
    with pytest.raises(ValueError, match="version"):
        from_document(CampaignResult, data, "campaign")


def test_save_and_load_results_file(tmp_path, campaign_and_report):
    campaign, report = campaign_and_report
    path = save_results(tmp_path / "nested" / "results.json",
                        campaigns=[campaign], cost_reports=[report],
                        metadata={"scale": "small", "seed": 2})
    assert path.exists()
    loaded = load_results(path)
    assert loaded["metadata"]["scale"] == "small"
    assert loaded["campaigns"][0].latencies == campaign.latencies
    assert loaded["cost_reports"][0] == report


def test_saved_file_is_plain_json(tmp_path, campaign_and_report):
    campaign, _ = campaign_and_report
    path = save_results(tmp_path / "r.json", campaigns=[campaign])
    data = json.loads(path.read_text())
    assert data["kind"] == "results"
    assert data["format_version"] == 1


def test_exotic_run_values_stringified(tmp_path):
    from repro.core.deployments.base import RunResult
    from repro.core.experiment import CampaignResult

    class Exotic:
        def __repr__(self):
            return "Exotic()"

    campaign = CampaignResult(deployment="x")
    campaign.runs.append(RunResult(
        deployment="x", started_at=0.0, finished_at=1.0, value=Exotic()))
    path = save_results(tmp_path / "r.json", campaigns=[campaign])
    loaded = load_results(path)
    assert loaded["campaigns"][0].runs[0].value == "Exotic()"

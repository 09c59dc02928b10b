"""Tests for the figure registry: every paper artifact as specs + reducer."""

import pytest

from repro.core import ExperimentRunner, ParallelRunner, Testbed
from repro.core.deployments import build_ml_training_deployments
from repro.core.figures import FIGURES, run_figure, select_variants
from repro.core.persistence import spec_from_dict, spec_to_dict

#: the smallest parameters that still exercise each figure end to end
TINY = {
    "latency": {"iterations": 1, "variants": ["AWS-Lambda", "GCP-Func"]},
    "inference": {"iterations": 1, "variants": ["AWS-Step"]},
    "coldstart": {"days": 2 / 24, "platforms": ["aws"]},
    "video": {"workers": [2], "variants": ["AWS-Step"]},
    "cost": {"workers": 2, "measured_runs": 1, "runs_per_month": 10,
             "variants": ["AWS-Step", "Az-Dorch"]},
    "takeaways": {"iterations": 1},
}


def test_every_figure_has_tiny_params():
    assert sorted(TINY) == sorted(FIGURES)


@pytest.mark.parametrize("name", sorted(TINY))
def test_figure_runs_in_process_and_renders(name):
    figure = FIGURES[name]
    p = figure.params(**TINY[name])
    specs = figure.specs(p)
    assert specs
    for spec in specs:
        # Specs survive the journal/cache codec and its validation.
        assert spec_from_dict(spec_to_dict(spec)) == spec
    outcomes = ParallelRunner(workers=1).run(specs)
    assert figure.render(figure.reduce(p, specs, outcomes)).strip()


def test_unknown_figure_parameter_is_rejected():
    with pytest.raises(TypeError, match="bogus"):
        run_figure("latency", bogus=1)


def test_platform_selection_that_leaves_no_variant_is_rejected():
    assert select_variants(["AWS-Step", "Az-Dorch"], ["azure"]) == [
        "Az-Dorch"]
    with pytest.raises(ValueError, match="no variants left"):
        run_figure("video", variants=["AWS-Step"], platforms=["gcp"])


def _hand_driven_campaign():
    """A campaign driven outside the registry, which advances the
    process-wide run-id counter past one digit."""
    testbed = Testbed(seed=5)
    deployment = build_ml_training_deployments(testbed, "small")[
        "AWS-Lambda"]
    ExperimentRunner(think_time_s=0.0, settle_time_s=0.0).run_campaign(
        deployment, iterations=12, warmup=0)


def test_figure_result_does_not_depend_on_earlier_campaigns():
    """Run ids name blobs and payloads; a figure run after an unrelated
    hand-driven campaign must reduce to the same result as one run
    first."""
    params = {"workers": [2], "variants": ["Az-Dorch"]}
    first = run_figure("video", **params)
    _hand_driven_campaign()
    assert run_figure("video", **params) == first

"""The paper's two headline numbers (abstract / conclusion).

* "AWS is 89 % more expensive than Azure for machine learning training"
  — comparing the stateful implementations (AWS-Step vs Az-Dorch) per
  run, large dataset.
* "Azure is 2× faster than AWS for the machine learning inference
  application" — Az-Dorch vs AWS-Step median latency, large dataset.
"""

from conftest import _bench_runner, ml_training_campaign, once

from repro.core.figures import run_figure


def test_headline_training_cost_gap(benchmark):
    def run_both():
        return {name: ml_training_campaign(name, "large")[1]
                for name in ("AWS-Step", "Az-Dorch")}

    reports = once(benchmark, run_both)
    gap = reports["AWS-Step"].total / reports["Az-Dorch"].total - 1
    print(f"\nML training cost per run: AWS-Step=${reports['AWS-Step'].total:.6f}, "
          f"Az-Dorch=${reports['Az-Dorch'].total:.6f} → AWS +{gap:.0%} "
          f"(paper: +89%)")
    # AWS is substantially more expensive for the training workflow.
    assert gap > 0.20


def test_headline_inference_speed_gap(benchmark):
    def run_both():
        result = run_figure("inference", _bench_runner(), scale="large",
                            iterations=20, variants=["AWS-Step", "Az-Dorch"],
                            seed=47)
        return {name: outcome.campaign.stats().median
                for name, outcome in result.items()}

    medians = once(benchmark, run_both)
    speedup = medians["AWS-Step"] / medians["Az-Dorch"]
    print(f"\nML inference median latency: AWS-Step={medians['AWS-Step']:.1f}s, "
          f"Az-Dorch={medians['Az-Dorch']:.1f}s → Azure {speedup:.2f}x "
          f"faster (paper: 2x)")
    # Azure durable inference is decisively faster than AWS-Step.
    assert speedup > 1.3

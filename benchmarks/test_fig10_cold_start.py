"""Fig 10 — ML training cold-start delay (4 days, one request per hour).

Paper: "Azure Durable extensions (Orchestrators and Entities) often lead
to less than 2 seconds of start time, whereas AWS-Step start time is
3-5 seconds, and the Az-Queue implementation experiences 10-20 seconds".
"""

from conftest import _bench_runner, once

from repro.core.figures import FIGURES, run_figure
from repro.core.metrics import percentile


def test_fig10_cold_start_four_day_campaign(benchmark):
    def run_all():
        # AWS and Azure: Az-Queue, AWS-Step, Az-Dorch and Az-Dent.
        return run_figure("coldstart", _bench_runner(), days=4.0, seed=17,
                          platforms=["aws", "azure"])

    result = once(benchmark, run_all)
    print()
    print(FIGURES["coldstart"].render(result))
    delays = {name: outcome.campaign.cold_start_delays
              for name, outcome in result.items()}
    medians = {name: percentile(values, 50)
               for name, values in delays.items()}
    for name, values in delays.items():
        print(f"  {name}: min={min(values):.2f}s max={max(values):.2f}s "
              f"n={len(values)}")

    # Every hourly request went cold (96 samples per variant).
    assert all(len(values) == 96 for values in delays.values())

    # Paper's ranking, highest to lowest: Az-Queue ≫ AWS-Step > durable.
    assert medians["Az-Queue"] > medians["AWS-Step"] > medians["Az-Dorch"]
    assert medians["AWS-Step"] > medians["Az-Dent"]

    # Paper's magnitudes.
    assert medians["Az-Dorch"] < 2.5
    assert medians["Az-Dent"] < 2.5
    assert 2.5 <= medians["AWS-Step"] <= 6.0
    assert 10.0 <= medians["Az-Queue"] <= 21.0

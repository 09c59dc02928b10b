"""Shared fixtures and helpers for the benchmark (figure/table) harness.

Every module in this directory regenerates one table or figure from the
paper.  Run them with::

    pytest benchmarks/ --benchmark-only -s

``-s`` shows the rendered tables.  Each benchmark prints the paper's
reported numbers next to the measured ones and asserts the qualitative
claim (who wins, roughly by how much, where the crossover is).

The shared ML-training campaigns run through
:class:`repro.core.ParallelRunner` with an on-disk result cache under
``.benchmarks/campaign_cache`` (``make clean`` drops it), so the figure
suite pays for each 100-iteration campaign once per calibration, not
once per invocation.  ``REPRO_BENCH_WORKERS`` caps the worker-process
fan-out (default: the machine's CPU count).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.core import ExperimentRunner, ParallelRunner, Testbed
from repro.core.cache import ResultCache
from repro.core.parallel import ml_training_specs


@pytest.fixture
def runner():
    return ExperimentRunner(think_time_s=30.0, settle_time_s=5.0)


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    The interesting output of these benches is the simulation's *virtual*
    measurements; wall-clock timing is recorded for bookkeeping only, so
    one round is enough.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def fresh_testbed(seed: int = 0) -> Testbed:
    return Testbed(seed=seed)


#: The paper collects "over one hundred iterations"; with the campaign
#: cache amortizing reruns we match it instead of sampling it.
CAMPAIGN_ITERATIONS = 100

ML_VARIANTS = ["AWS-Lambda", "AWS-Step", "Az-Func", "Az-Queue", "Az-Dorch",
               "Az-Dent"]
AZURE_VARIANTS = ["Az-Func", "Az-Queue", "Az-Dorch", "Az-Dent"]
AWS_VARIANTS = ["AWS-Lambda", "AWS-Step"]

_ML_CAMPAIGNS = {}


def _bench_runner() -> ParallelRunner:
    workers = int(os.environ.get("REPRO_BENCH_WORKERS")
                  or os.cpu_count() or 1)
    cache_root = (os.environ.get("REPRO_CACHE_DIR")
                  or Path(__file__).resolve().parent.parent
                  / ".benchmarks" / "campaign_cache")
    return ParallelRunner(workers=workers, cache=ResultCache(cache_root))


def ml_training_campaign(name: str, scale: str,
                         iterations: int = CAMPAIGN_ITERATIONS):
    """Cached latency campaign for one ML-training variant.

    Fig 6, Fig 7, Fig 8 and Fig 11 all read the same campaigns, so the
    first request for a ``(scale, iterations)`` runs every variant in one
    :class:`ParallelRunner` batch (one shared workload prewarm before
    the worker processes fork) and later requests hit the in-process
    memo or the on-disk cache.  Returns ``(campaign, cost)`` where
    ``cost`` is the variant's :class:`~repro.core.costs.CostReport`
    amortized over the campaign's ``warmup + iterations`` runs.
    """
    key = (name, scale, iterations)
    if key not in _ML_CAMPAIGNS:
        batch = ML_VARIANTS if name in ML_VARIANTS else [name]
        specs = ml_training_specs(batch, scale, iterations, seed=29)
        for spec, outcome in zip(specs, _bench_runner().run(specs)):
            _ML_CAMPAIGNS[(spec.deployment, scale, iterations)] = (
                outcome.campaign, outcome.cost)
    return _ML_CAMPAIGNS[key]

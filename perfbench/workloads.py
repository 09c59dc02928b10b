"""The benchmark's workloads: a seeded spec list each, plus set-up.

The seed goes only into the specs generated here (``seed`` and
``workload_seed``); the program sees nothing but the specs.  Why each
workload exists is in ``README.md`` next to this file.
"""

from __future__ import annotations

from typing import List

#: workload name -> how its child process runs the spec list
WORKLOADS = {
    "video": "serial",
    "durable-overload": "serial",
    "step-overload": "serial",
    "paper-sweep": "runner",
}

#: workload name -> children a run of ``run_seconds`` starts, one
#: repetition of the spec list each; sized so that a run lasts about
#: ``run_seconds`` on the host named in README.md, except that
#: durable-overload, whose few long children spread the most, gets half
#: as long again
REPETITIONS = {
    "video": 10,
    "durable-overload": 6,
    "step-overload": 10,
    "paper-sweep": 9,
}

#: video: closed-loop latency campaigns at the paper's fan-out width
VIDEO_VARIANTS = ("AWS-Step", "Az-Dorch", "GCP-Flows")
VIDEO_FANOUT = 20
VIDEO_ITERATIONS = 2

#: overload: open-loop Poisson arrivals, several campaigns with seeds
#: drawn from the run's seed, so that one seed's arrival count sways
#: the run less.  The horizon keeps Durable's history-replay table scans
#: the largest layer of durable-overload; shortening it shrinks that
#: (quadratic) work faster than the rest.
OVERLOAD_RATE_PER_S = 2.0
OVERLOAD_HORIZON_S = 100.0
OVERLOAD_CAMPAIGNS = 3

#: paper-sweep: every ML variant through the runner, cold then warm
SWEEP_TRAINING = ("AWS-Lambda", "AWS-Step", "Az-Func", "Az-Queue",
                  "Az-Dorch", "Az-Dent", "GCP-Func", "GCP-Flows")
SWEEP_INFERENCE = ("AWS-Step", "Az-Dorch", "Az-Dent", "GCP-Flows")
SWEEP_COLDSTART = ("AWS-Step", "Az-Dorch", "GCP-Flows")
SWEEP_ITERATIONS = 10
SWEEP_COLDSTART_DAYS = 1.0


def specs_for(workload: str, seed: int) -> List:
    """The workload's spec list for ``seed`` (every spec audited)."""
    from repro.core.parallel import CampaignSpec

    common = dict(seed=seed, workload_seed=seed, audit=True)
    if workload == "video":
        return [CampaignSpec(deployment=name, workload="video",
                             fanout=VIDEO_FANOUT,
                             iterations=VIDEO_ITERATIONS, **common)
                for name in VIDEO_VARIANTS]
    if workload in ("durable-overload", "step-overload"):
        deployment = "Az-Dorch" if workload == "durable-overload" \
            else "AWS-Step"
        return [CampaignSpec(deployment=deployment, workload="ml-training",
                             campaign="overload", arrival="poisson",
                             arrival_rate_per_s=OVERLOAD_RATE_PER_S,
                             horizon_s=OVERLOAD_HORIZON_S,
                             seed=OVERLOAD_CAMPAIGNS * seed + campaign,
                             workload_seed=seed, audit=True)
                for campaign in range(OVERLOAD_CAMPAIGNS)]
    if workload == "paper-sweep":
        return ([CampaignSpec(deployment=name, workload="ml-training",
                              iterations=SWEEP_ITERATIONS, **common)
                 for name in SWEEP_TRAINING]
                + [CampaignSpec(deployment=name, workload="ml-inference",
                                iterations=SWEEP_ITERATIONS, **common)
                   for name in SWEEP_INFERENCE]
                + [CampaignSpec(deployment=name, workload="ml-training",
                                campaign="coldstart",
                                days=SWEEP_COLDSTART_DAYS, **common)
                   for name in SWEEP_COLDSTART])
    raise ValueError(f"unknown workload {workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")


def build_artifacts(specs) -> None:
    """Build, and use once, the real-compute artifacts the specs need,
    through the public memoizing ``ml_workload`` and ``video_workload``
    (the set-up a user pays once per command)."""
    from repro.core.deployments.ml import ml_workload
    from repro.core.deployments.video import video_workload

    for spec in specs:
        if spec.workload == "video":
            video_workload(spec.fanout, spec.workload_seed).chunks()
        else:
            ml_workload(spec.scale, spec.workload_seed).trained

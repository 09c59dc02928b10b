"""The paper's artifacts, each declared once as campaign specs plus a reducer.

``FIGURES[name]`` is a :class:`Figure`: ``specs(p)`` builds the
campaigns that measure the artifact from its parameters ``p``,
``reduce(p, specs, outcomes)`` reads their outcomes into its result and
``render(result)`` is what ``repro <name>`` prints.  The CLI, ``repro
paper`` and the figure benchmarks all run the specs through
``ParallelRunner``, so each artifact is cached and independent of
whatever ran before it.

>>> video = FIGURES["video"]
>>> specs = video.specs(video.params(workers=[1, 4]))
>>> [(spec.deployment, spec.fanout) for spec in specs][:3]
[('AWS-Step', 1), ('Az-Dorch', 1), ('GCP-Flows', 1)]
>>> sorted(FIGURES["cost"].defaults)
['measured_runs', 'platforms', 'runs_per_month', 'seed', 'variants', 'workers']
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.costs import CostReport, monthly_projection
from repro.core.metrics import percentile
from repro.core.parallel import (
    VARIANT_PLATFORMS,
    WORKLOAD_VARIANTS,
    CampaignOutcome,
    CampaignSpec,
    ParallelRunner,
)
from repro.core.report import render_bars, render_table
from repro.platforms.backend import backend_names

#: the idle window metered after Azure durable runs (Fig 15, §V)
IDLE_HOUR_S = 3600.0


@dataclass(frozen=True)
class Figure:
    """One paper artifact; ``defaults`` names its parameters and
    ``passed(result)`` is the CLI exit status."""

    defaults: Dict[str, Any]
    specs: Callable[[SimpleNamespace], List[CampaignSpec]]
    reduce: Callable[..., Any]
    render: Callable[[Any], str]
    passed: Callable[[Any], bool] = lambda result: True

    def params(self, **overrides: Any) -> SimpleNamespace:
        """The defaults with ``overrides`` applied."""
        unknown = sorted(set(overrides) - set(self.defaults))
        if unknown:
            raise TypeError(f"unknown figure parameters {unknown}; this "
                            f"figure takes {sorted(self.defaults)}")
        return SimpleNamespace(**{**self.defaults, **overrides})


def run_figure(name: str, runner: Optional[ParallelRunner] = None,
               **params: Any) -> Any:
    """Figure ``name``'s reduced result; the default runner executes
    in this process without a cache."""
    figure = FIGURES[name]
    p = figure.params(**params)
    specs = figure.specs(p)
    outcomes = (runner or ParallelRunner(workers=1)).run(specs)
    return figure.reduce(p, specs, outcomes)


def select_variants(names: Sequence[str],
                    platforms: Optional[Sequence[str]] = None) -> List[str]:
    """The variants from ``names`` whose platform is in ``platforms``
    (default: every registered backend)."""
    platforms = list(platforms or backend_names())
    kept = [name for name in names if VARIANT_PLATFORMS[name] in platforms]
    if not kept:
        raise ValueError(
            f"no variants left after --platforms {','.join(platforms)}; "
            f"the requested variants were {list(names)}")
    return kept


def _by_variant(p: SimpleNamespace, specs: List[CampaignSpec],
                outcomes: List[CampaignOutcome]
                ) -> Dict[str, CampaignOutcome]:
    return {spec.deployment: outcome
            for spec, outcome in zip(specs, outcomes)}


# -- ML latency: Figs 6/7/8/11, the GCP extension, both headlines -------------


def _ml_defaults(workload: str) -> Dict[str, Any]:
    return dict(scale="small", iterations=10,
                variants=WORKLOAD_VARIANTS[workload], seed=0, platforms=None)


def _ml_specs(workload: str) -> Callable[[SimpleNamespace],
                                         List[CampaignSpec]]:
    def specs(p: SimpleNamespace) -> List[CampaignSpec]:
        return [CampaignSpec(deployment=name, workload=workload,
                             scale=p.scale, iterations=p.iterations,
                             warmup=1, seed=p.seed)
                for name in select_variants(p.variants, p.platforms)]
    return specs


def _stats_table(title: str, columns: Sequence[str]
                 ) -> Callable[[Dict[str, CampaignOutcome]], str]:
    """Per-variant latency statistics under ``title.format(spec=...)``."""
    def render(result: Dict[str, CampaignOutcome]) -> str:
        rows = []
        for name, outcome in result.items():
            stats = outcome.campaign.stats()
            rows.append([name] + [getattr(stats, column)
                                  for column in columns])
        return render_table(
            ["variant"] + [f"{column} s" for column in columns], rows,
            title=title.format(spec=next(iter(result.values())).spec))
    return render


# -- cold start: Fig 10 -------------------------------------------------------


def _coldstart_specs(p: SimpleNamespace) -> List[CampaignSpec]:
    variants = select_variants(["Az-Queue", "AWS-Step", "Az-Dorch",
                                "Az-Dent", "GCP-Flows"], p.platforms)
    return [CampaignSpec(deployment=name, workload="ml-training",
                         scale="small", campaign="coldstart",
                         interval_s=3600.0, days=p.days, seed=p.seed)
            for name in variants]


def _render_coldstart(result: Dict[str, CampaignOutcome]) -> str:
    data = {name: percentile(outcome.campaign.cold_start_delays, 50)
            for name, outcome in result.items()}
    request_count = len(next(iter(result.values())).campaign.runs)
    return render_bars(data, title=f"Cold start delay, median of "
                                   f"{request_count} hourly "
                                   "requests", unit="s")


# -- video latency vs fan-out: Fig 12 -----------------------------------------


def _video_spec(name: str, workers: int, seed: int) -> CampaignSpec:
    """One video run at fan-out ``workers``, nothing before or after it."""
    return CampaignSpec(deployment=name, workload="video", fanout=workers,
                        campaign="latency", iterations=1, warmup=0,
                        think_time_s=0.0, settle_time_s=0.0, seed=seed,
                        invoke_kwargs={"n_workers": workers})


def _video_specs(p: SimpleNamespace) -> List[CampaignSpec]:
    names = select_variants(p.variants, p.platforms)
    return [_video_spec(name, count, seed)
            for count in p.workers for name in names for seed in p.seeds]


def _reduce_video(p: SimpleNamespace, specs: List[CampaignSpec],
                  outcomes: List[CampaignOutcome]
                  ) -> Dict[str, Dict[int, float]]:
    """``{variant: {workers: median latency over the seeds}}``."""
    samples: Dict[str, Dict[int, List[float]]] = {}
    for spec, outcome in zip(specs, outcomes):
        samples.setdefault(spec.deployment, {}).setdefault(
            spec.fanout, []).append(outcome.campaign.latencies[0])
    return {name: {count: percentile(latencies, 50)
                   for count, latencies in series.items()}
            for name, series in samples.items()}


def _render_video(series: Dict[str, Dict[int, float]]) -> str:
    rows = [[count] + [by_workers[count] for by_workers in series.values()]
            for count in next(iter(series.values()))]
    return render_table(["workers"] + [f"{name} (s)" for name in series],
                        rows, title="Video processing latency vs workers")


# -- monthly video cost: Fig 15 -----------------------------------------------


@dataclass(frozen=True)
class MonthlyCosts:
    """Fig 15: each variant's per-run cost projected to a month."""

    workers: int
    runs_per_month: int
    reports: Dict[str, CostReport]


def _cost_specs(p: SimpleNamespace) -> List[CampaignSpec]:
    # Only Azure durable keeps billing while idle.
    return [CampaignSpec(
        deployment=name, workload="video", fanout=p.workers,
        campaign="latency", iterations=p.measured_runs, warmup=0,
        think_time_s=30.0, settle_time_s=0.0, seed=p.seed,
        idle_window_s=IDLE_HOUR_S if name == "Az-Dorch" else 0.0)
        for name in select_variants(p.variants, p.platforms)]


def _reduce_cost(p: SimpleNamespace, specs: List[CampaignSpec],
                 outcomes: List[CampaignOutcome]) -> MonthlyCosts:
    reports = {spec.deployment: monthly_projection(
        outcome.cost, p.runs_per_month,
        idle_transactions_per_month=outcome.idle_transactions * 24 * 30)
        for spec, outcome in zip(specs, outcomes)}
    return MonthlyCosts(p.workers, p.runs_per_month, reports)


def _render_cost(costs: MonthlyCosts) -> str:
    rows = [[name, report.compute_cost, report.transaction_cost,
             report.total, f"{report.transaction_share:.0%}"]
            for name, report in costs.reports.items()]
    return render_table(
        ["variant", "compute $/mo", "transactions $/mo", "total $/mo",
         "tx share"],
        rows, title=f"Monthly video cost, {costs.workers} workers, "
                    f"{costs.runs_per_month} runs/month")


# -- the §V key takeaways -----------------------------------------------------


@dataclass(frozen=True)
class Takeaway:
    """One verdict: the paper's claim, whether it held, and the numbers."""

    section: str
    claim: str
    holds: bool
    evidence: str


def _takeaway_specs(p: SimpleNamespace) -> List[CampaignSpec]:
    latency = FIGURES["latency"]
    ml = [replace(spec, idle_window_s=(
              IDLE_HOUR_S if spec.deployment in ("AWS-Step", "Az-Dorch")
              else 0.0))
          for spec in latency.specs(latency.params(
              iterations=p.iterations, seed=p.seed,
              variants=["AWS-Lambda", "AWS-Step", "Az-Func", "Az-Dorch",
                        "Az-Dent"]))]
    video = [_video_spec(name, workers, p.seed) for name, workers
             in (("Az-Dorch", 40), ("Az-Dorch", 80), ("AWS-Step", 80))]
    # One run at 20 workers, then an idle hour of Azure polling.
    video += [replace(_video_spec(name, 20, p.seed),
                      idle_window_s=IDLE_HOUR_S)
              for name in ("AWS-Step", "Az-Dorch")]
    return ml + video


def _reduce_takeaways(p: SimpleNamespace, specs: List[CampaignSpec],
                      outcomes: List[CampaignOutcome]) -> List[Takeaway]:
    """The §V-A (ML training) and §V-B (video) key-takeaway bullets."""
    ml = {spec.deployment: outcome for spec, outcome in zip(specs, outcomes)
          if spec.workload == "ml-training"}
    video = {(spec.deployment, spec.fanout): outcome
             for spec, outcome in zip(specs, outcomes)
             if spec.workload == "video"}
    dorch, func = ml["Az-Dorch"].cost, ml["Az-Func"].cost
    step = ml["AWS-Step"].campaign.stats().median
    lam = ml["AWS-Lambda"].campaign.stats().median
    azure_idle = ml["Az-Dorch"].idle_transactions
    aws_idle = ml["AWS-Step"].idle_transactions
    dent_exec = ml["Az-Dent"].campaign.p99_breakdown().execution_time
    dorch_exec = ml["Az-Dorch"].campaign.p99_breakdown().execution_time
    azure_40, azure_80, aws_80 = (
        video[key].campaign.latencies[0]
        for key in (("Az-Dorch", 40), ("Az-Dorch", 80), ("AWS-Step", 80)))
    # One run plus one idle hour of each stateful video variant.
    costs = {name: monthly_projection(
                 video[name, 20].cost, 1, idle_transactions_per_month=(
                     video[name, 20].idle_transactions))
             for name in ("AWS-Step", "Az-Dorch")}
    return [
        Takeaway("V-A", "Azure Durable imposes additional GB-s and "
                        "transaction cost over the stateless function",
                 dorch.gb_s > func.gb_s
                 and dorch.transaction_cost > func.transaction_cost,
                 f"GB-s/run {dorch.gb_s:.1f} vs {func.gb_s:.1f}; "
                 f"tx $/run {dorch.transaction_cost:.2e} vs "
                 f"{func.transaction_cost:.2e}"),
        Takeaway("V-A", "AWS Step shows comparable performance to AWS "
                        "Lambda",
                 step < lam * 1.25, f"median {step:.1f}s vs {lam:.1f}s"),
        Takeaway("V-A", "AWS's price model charges nothing while idle; "
                        "Azure keeps accruing storage transactions",
                 azure_idle > 0 and aws_idle == 0,
                 f"idle hour: Azure {azure_idle:,} tx, AWS {aws_idle} "
                 "transitions"),
        Takeaway("V-A", "running an operation in an entity is slower than "
                        "the same operation in a stateless activity",
                 dent_exec > dorch_exec,
                 f"p99 execution {dent_exec:.1f}s (Dent) vs "
                 f"{dorch_exec:.1f}s (Dorch)"),
        Takeaway("V-B", "Azure durable shows resistance towards scheduling "
                        "parallel workers (long-tail completion)",
                 azure_80 > azure_40 * 0.85 and azure_80 > 2 * aws_80,
                 f"Az-Dorch 40w={azure_40:.0f}s, 80w={azure_80:.0f}s; "
                 f"AWS-Step 80w={aws_80:.0f}s"),
        Takeaway("V-B", "the cost of transitions in Azure durable exceeds "
                        "the AWS state-machine transition cost",
                 costs["Az-Dorch"].transaction_cost
                 > costs["AWS-Step"].transaction_cost,
                 f"${costs['Az-Dorch'].transaction_cost:.2e} vs "
                 f"${costs['AWS-Step'].transaction_cost:.2e} "
                 "(one run + one idle hour)"),
        Takeaway("V-B", "Azure computation cost (GB-s) is lower than "
                        "AWS's",
                 costs["Az-Dorch"].gb_s < costs["AWS-Step"].gb_s,
                 f"{costs['Az-Dorch'].gb_s:.0f} vs "
                 f"{costs['AWS-Step'].gb_s:.0f} GB-s"),
    ]


def render_takeaways(takeaways: List[Takeaway]) -> str:
    """A scorecard: one check/cross per claim with its evidence."""
    if not takeaways:
        raise ValueError("no takeaways to render")
    lines = []
    for takeaway in takeaways:
        mark = "[ok]" if takeaway.holds else "[??]"
        lines.append(f"{mark} ({takeaway.section}) {takeaway.claim}")
        lines.append(f"       {takeaway.evidence}")
    held = sum(1 for takeaway in takeaways if takeaway.holds)
    lines.append(f"\n{held}/{len(takeaways)} key takeaways reproduced")
    return "\n".join(lines)


#: every paper artifact a campaign spec expresses, by CLI command name
FIGURES: Dict[str, Figure] = {
    "latency": Figure(_ml_defaults("ml-training"), _ml_specs("ml-training"),
                      _by_variant,
                      _stats_table("ML training latency ({spec.scale}, "
                                   "{spec.iterations} iterations)",
                                   ("median", "p95", "p99"))),
    "inference": Figure(_ml_defaults("ml-inference"),
                        _ml_specs("ml-inference"), _by_variant,
                        _stats_table("ML inference latency ({spec.scale})",
                                     ("median", "p99"))),
    "coldstart": Figure(dict(days=4.0, seed=0, platforms=None),
                        _coldstart_specs, _by_variant, _render_coldstart),
    "video": Figure(dict(workers=(1, 5, 10, 20, 40, 80), seeds=(0,),
                         variants=("AWS-Step", "Az-Dorch", "GCP-Flows"),
                         platforms=None),
                    _video_specs, _reduce_video, _render_video),
    "cost": Figure(dict(workers=20, measured_runs=4, runs_per_month=30,
                        variants=("AWS-Step", "Az-Dorch", "GCP-Flows"),
                        seed=0, platforms=None),
                   _cost_specs, _reduce_cost, _render_cost),
    "takeaways": Figure(
        dict(iterations=8, seed=0), _takeaway_specs, _reduce_takeaways,
        render_takeaways,
        passed=lambda takeaways: all(item.holds for item in takeaways)),
}

#: ``repro paper``: the condensed figures and their parameters, in order
PAPER = (("latency", {"scale": "small", "iterations": 8}),
         ("video", {"workers": [1, 20, 80]}),
         ("coldstart", {"days": 1.0}))

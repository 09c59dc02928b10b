"""The paper's contribution: the cross-platform evaluation harness.

This package wires the two platform simulations and the two workloads
into the six deployment variants of Table II, runs the measurement
campaigns of §IV, and renders every table and figure of §V.
"""

from repro.core.testbed import Testbed
from repro.core.deployments import (
    Deployment,
    RunResult,
    build_ml_inference_deployments,
    build_ml_training_deployments,
    build_video_deployments,
)
from repro.core.experiment import (
    CampaignResult,
    ColdStartCampaign,
    ExperimentRunner,
)
from repro.core.metrics import (
    LatencyBreakdown,
    LatencyStats,
    cdf_points,
    percentile,
    summarize,
)
from repro.core.arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    DiurnalArrivals,
    LoadGenerator,
    PoissonArrivals,
    UniformArrivals,
)
from repro.core.costs import CostReport, cost_report
from repro.core.parallel import (
    CampaignOutcome,
    CampaignSpec,
    ChaosPlan,
    ParallelRunner,
    PartialSweepResult,
    SpecExecutionError,
    SpecFailure,
    SpecTimeout,
    SweepError,
    WorkerCrash,
    execute_spec,
)
from repro.core.cache import ResultCache
from repro.core.checkpoint import JournalError, SweepJournal
from repro.core.reliability import ReliabilitySummary, execute_reliability_spec
from repro.core.overload import OverloadSummary, execute_overload_spec
from repro.core.mitigation import (
    CircuitOpenError,
    MitigationEngine,
    MitigationPolicy,
    MitigationTimeout,
)
from repro.core.resilience import ResilienceSummary, execute_resilience_spec
from repro.core.fuzz import (
    FuzzError,
    FuzzSessionResult,
    FuzzVerdict,
    SpecGenerator,
    check_spec,
    replay_corpus,
    run_fuzz,
    shrink,
)
from repro.platforms.faults import FaultInjector, FaultPlan
from repro.core.workflow import (
    Workflow,
    map_over,
    parallel,
    sequence,
    task,
)

__all__ = [
    "ArrivalProcess",
    "BurstyArrivals",
    "CampaignOutcome",
    "CampaignResult",
    "CampaignSpec",
    "ChaosPlan",
    "JournalError",
    "ParallelRunner",
    "PartialSweepResult",
    "ResultCache",
    "SpecExecutionError",
    "SpecFailure",
    "SpecTimeout",
    "SweepError",
    "SweepJournal",
    "WorkerCrash",
    "execute_spec",
    "DiurnalArrivals",
    "LoadGenerator",
    "PoissonArrivals",
    "UniformArrivals",
    "ColdStartCampaign",
    "CostReport",
    "Deployment",
    "ExperimentRunner",
    "FaultInjector",
    "FaultPlan",
    "ReliabilitySummary",
    "execute_reliability_spec",
    "OverloadSummary",
    "execute_overload_spec",
    "CircuitOpenError",
    "MitigationEngine",
    "MitigationPolicy",
    "MitigationTimeout",
    "ResilienceSummary",
    "execute_resilience_spec",
    "FuzzError",
    "FuzzSessionResult",
    "FuzzVerdict",
    "SpecGenerator",
    "check_spec",
    "replay_corpus",
    "run_fuzz",
    "shrink",
    "LatencyBreakdown",
    "LatencyStats",
    "RunResult",
    "Testbed",
    "Workflow",
    "build_ml_inference_deployments",
    "build_ml_training_deployments",
    "build_video_deployments",
    "cdf_points",
    "cost_report",
    "percentile",
    "summarize",
    "map_over",
    "parallel",
    "sequence",
    "task",
]

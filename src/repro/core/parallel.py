"""Campaign execution: fan independent campaigns out, safely.

The paper's protocol is "over one hundred iterations of each
implementation" across six variants — hours of serial simulation, yet
every campaign is an independent, deterministic discrete-event run given
``(deployment, workload, calibration, seed)``.  This module makes that
independence explicit:

* :class:`CampaignSpec` — a frozen, picklable description of one
  campaign (variant, workload, scale, calibration overrides, seed,
  iteration counts, campaign type).
* :func:`execute_spec` — a pure worker function: builds a fresh
  :class:`Testbed` from the spec and replays it.  Running a spec in the
  parent process, a worker process, or from a cache file yields
  bit-identical results.
* :class:`ParallelRunner` — the one campaign runner.  It streams
  outcomes back in spec order, consults an optional
  :class:`repro.core.cache.ResultCache`, checkpoints every completed
  outcome to an optional :class:`repro.core.checkpoint.SweepJournal`,
  and reports failures as typed per-spec records
  (:class:`PartialSweepResult`) instead of discarding finished work.

**Execution mode** follows from the runner's arguments, not from an
option.  A spec runs in its own worker process whenever there is a
process boundary to use or enforce — ``workers > 1``, a
``spec_timeout_s``, a :class:`ChaosPlan` or a restart budget
``max_restarts > 0``.  Otherwise it runs in the calling process, with no
fork, no signal handlers and no supervision overhead.  In worker mode
the runner supervises each worker:

* **Isolation** — a fresh ``multiprocessing.Process`` per spec, at most
  ``workers`` at once, so a SIGKILL, OOM kill or segfault costs one
  attempt of one spec, never the sweep.
* **Heartbeats** — every worker beats a shared timestamp from a
  background thread; a worker whose heart stops for
  :data:`STALL_TIMEOUT_S` is killed even if its deadline is far away.
* **Deadlines** — ``spec_timeout_s`` bounds each attempt's wall-clock
  time; a late worker is SIGKILLed and the spec becomes a
  :class:`SpecTimeout` once restarts are exhausted.
* **Bounded restarts** — crashed, stalled and timed-out specs are
  relaunched up to ``max_restarts`` times with capped exponential
  backoff.  A :class:`SpecExecutionError` is never retried: the
  simulation is a pure function of the spec, so it would fail again.
* **Signal safety** — SIGINT/SIGTERM stop the sweep *after* draining
  every completed result from worker pipes into the journal; a second
  signal forces immediate exit.
* **Self-chaos** — a :class:`ChaosPlan` SIGKILLs the runner's own
  workers at seeded points, which is how the test suite proves recovery
  yields byte-identical outcomes.

When worker processes cannot be started at all (sandboxed
interpreters), worker mode degrades to the in-process path: no crash
isolation, but journaling and typed failures still hold.

Example
-------
>>> from repro.core.parallel import CampaignSpec
>>> spec = CampaignSpec(deployment="AWS-Lambda", scale="small",
...                     iterations=5, seed=29)
>>> spec.campaign
'latency'
>>> len(spec.spec_hash())
64
"""

from __future__ import annotations

import hashlib
import itertools
import json
import multiprocessing
import os
import random
import signal
import sys
import threading
import time
import traceback
from collections import deque
from dataclasses import asdict, dataclass, field, fields
from multiprocessing.connection import wait as _connection_wait
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core import audit as audit_mod
from repro.core.costs import CostReport, cost_report
from repro.core.deployments import DEPLOYMENTS, ml_workload, video_workload
from repro.core.deployments.base import Deployment
from repro.core.experiment import (
    CampaignResult,
    ColdStartCampaign,
    ExperimentRunner,
)
from repro.core.overload import (
    ARRIVAL_KINDS,
    OverloadSummary,
    execute_overload_spec,
)
from repro.core.reliability import ReliabilitySummary, execute_reliability_spec
from repro.core.resilience import ResilienceSummary, execute_resilience_spec
from repro.core.testbed import Testbed
from repro.platforms.backend import backend_names, get_backend
from repro.platforms.faults import FaultPlan

if TYPE_CHECKING:
    from repro.core.checkpoint import SweepJournal

#: how often workers refresh their heartbeat timestamp
HEARTBEAT_INTERVAL_S = 0.2
#: how long the supervisor waits on worker pipes per scheduling round
POLL_INTERVAL_S = 0.05
#: delay before the first restart; doubles per attempt up to the cap
BACKOFF_BASE_S = 0.25
BACKOFF_CAP_S = 5.0
#: a worker whose heartbeat is older than this is killed as stalled
#: (``None`` disables stall detection)
STALL_TIMEOUT_S: Optional[float] = 30.0


class SweepError(Exception):
    """Base of the typed sweep-failure taxonomy.

    Every subclass pickles cleanly (workers raise across process
    boundaries) and names the failing spec's content hash, so a log
    line identifies exactly which configuration of a thousand-spec
    sweep went wrong.
    """


class SpecExecutionError(SweepError):
    """One spec's campaign raised inside a worker.

    Deterministic by construction — the simulation is a pure function
    of the spec — so the runner reports these instead of retrying them.
    """

    def __init__(self, spec: "CampaignSpec", message: str,
                 traceback_text: str = "",
                 cause: Optional[BaseException] = None):
        super().__init__(spec, message, traceback_text)
        self.spec = spec
        self.spec_hash = spec.spec_hash()
        self.message = message
        self.traceback_text = traceback_text
        #: the original exception when it was raised in this process or
        #: unpickled from a worker (not preserved across re-pickling)
        self.cause = cause

    @property
    def repro_hint(self) -> str:
        """Ready-to-paste command reconstructing the failing spec."""
        from repro.core.audit import spec_repro_hint
        return spec_repro_hint(self.spec)

    def __str__(self) -> str:
        return (f"spec {self.spec_hash[:12]} ({self.spec.deployment} "
                f"{self.spec.campaign}) failed: {self.message}\n"
                f"  repro: {self.repro_hint}")

    def __reduce__(self):
        # Rebuild from args alone: ``cause`` is whatever the campaign
        # raised and need not be picklable, so it must not ride along in
        # ``__dict__`` when a worker ships this failure to its parent.
        return (type(self),
                (self.spec, self.message, self.traceback_text))


class WorkerCrash(SweepError):
    """A worker died (SIGKILL, OOM, segfault, stalled heartbeat)
    without reporting a result for its spec."""

    def __init__(self, spec: "CampaignSpec", detail: str):
        super().__init__(spec, detail)
        self.spec = spec
        self.spec_hash = spec.spec_hash()
        self.detail = detail

    def __str__(self) -> str:
        return (f"worker for spec {self.spec_hash[:12]} "
                f"({self.spec.deployment} {self.spec.campaign}) "
                f"crashed: {self.detail}")


class SpecTimeout(SweepError):
    """An attempt exceeded its wall-clock deadline and was killed.

    Wall-clock, not simulated time — a deadline miss usually means a
    swamped machine rather than a broken spec, which is why timeouts
    are retried (bounded) like crashes.
    """

    def __init__(self, spec: "CampaignSpec", timeout_s: float):
        super().__init__(spec, timeout_s)
        self.spec = spec
        self.spec_hash = spec.spec_hash()
        self.timeout_s = timeout_s

    def __str__(self) -> str:
        return (f"spec {self.spec_hash[:12]} ({self.spec.deployment} "
                f"{self.spec.campaign}) exceeded its {self.timeout_s:g}s "
                f"wall-clock deadline")


WORKLOADS = tuple(DEPLOYMENTS)
#: deployment variants each workload can build, in the builders' order
WORKLOAD_VARIANTS = {workload: tuple(table)
                     for workload, table in DEPLOYMENTS.items()}
#: which registered backend each deployment variant runs on
VARIANT_PLATFORMS = {name: cls.platform for table in DEPLOYMENTS.values()
                     for name, cls in table.items()}


def _frozen_items(value: Any) -> Tuple[Tuple[str, Any], ...]:
    """Dicts/pair-lists become sorted key/value tuples so specs stay
    hashable and hash independently of insertion order."""
    pairs = value.items() if isinstance(value, dict) else value
    return tuple(sorted((tuple(pair) for pair in pairs),
                        key=lambda pair: pair[0]))


def _deep_freeze(value: Any) -> Any:
    """Recursively turn lists/tuples into tuples so nested structures
    (outage windows, ...) stay hashable inside a frozen spec."""
    if isinstance(value, (list, tuple)):
        return tuple(_deep_freeze(item) for item in value)
    return value


@dataclass(frozen=True)
class CampaignSpec:
    """Everything needed to replay one campaign in any process.

    ``calibration_overrides`` and ``invoke_kwargs`` accept plain dicts
    for convenience; they are normalized to sorted tuples so the spec
    stays hashable and picklable.  Override keys use the
    ``"<platform>.field"`` convention of
    :class:`repro.core.sweep.GridSweep` (``"aws.field"``,
    ``"azure.field"``, ``"gcp.field"``, ...).
    """

    deployment: str
    workload: str = "ml-training"
    scale: str = "small"              # ML dataset scale
    fanout: int = 20                  # video workload worker count
    seed: int = 0                     # testbed RNG seed
    workload_seed: int = 0            # dataset/model generation seed
    campaign: str = "latency"
    iterations: int = 10              # latency: measured runs
    warmup: int = 1                   # latency: unmeasured lead-in runs
    think_time_s: float = 30.0
    settle_time_s: float = 5.0
    interval_s: float = 3600.0        # coldstart: request spacing
    days: float = 4.0                 # coldstart: campaign length
    batch: int = 0                    # fanout: concurrent invocations
    idle_window_s: float = 0.0        # post-campaign idle metering window
    arrival: str = "poisson"          # overload: arrival-process kind
    arrival_rate_per_s: float = 0.0   # overload: offered open-loop rate
    horizon_s: float = 0.0            # overload: arrival window length
    calibration_overrides: Tuple[Tuple[str, Any], ...] = ()
    invoke_kwargs: Tuple[Tuple[str, Any], ...] = ()
    #: sorted ``FaultPlan.to_items()`` pairs; empty = fault-free
    fault_plan: Tuple[Tuple[str, Any], ...] = ()
    #: sorted ``MitigationPolicy.to_items()`` pairs (resilience
    #: campaigns); empty = the default policy (hard timeout only)
    mitigation: Tuple[Tuple[str, Any], ...] = ()
    #: resilience: SLO targets the summary renders verdicts against
    slo_availability: float = 0.999
    slo_p99_s: float = 0.0            # 0 = no latency SLO
    #: run the invariant auditor?  None defers to
    #: :data:`repro.core.audit.DEFAULT_AUDIT` at execution time.
    audit: Optional[bool] = None

    def __post_init__(self):
        if self.workload not in WORKLOADS:
            raise ValueError(f"workload must be one of {WORKLOADS}")
        if self.deployment not in WORKLOAD_VARIANTS[self.workload]:
            raise ValueError(
                f"deployment {self.deployment!r} is not a "
                f"{self.workload} variant; choose from "
                f"{WORKLOAD_VARIANTS[self.workload]}")
        if self.campaign not in CAMPAIGN_TYPES:
            raise ValueError(f"campaign must be one of {CAMPAIGN_TYPES}")
        if (self.campaign in ("latency", "reliability", "resilience")
                and self.iterations <= 0):
            raise ValueError("iterations must be positive")
        if not 0.0 < self.slo_availability <= 1.0:
            raise ValueError("slo_availability must lie in (0, 1]")
        if self.slo_p99_s < 0:
            raise ValueError("slo_p99_s must be non-negative")
        if self.campaign == "overload":
            if self.arrival not in ARRIVAL_KINDS:
                raise ValueError(
                    f"arrival must be one of {ARRIVAL_KINDS}")
            if self.arrival_rate_per_s <= 0:
                raise ValueError(
                    "overload campaigns need arrival_rate_per_s > 0")
            if self.horizon_s <= 0:
                raise ValueError("overload campaigns need horizon_s > 0")
        object.__setattr__(self, "calibration_overrides",
                           _frozen_items(self.calibration_overrides))
        object.__setattr__(self, "invoke_kwargs",
                           _frozen_items(self.invoke_kwargs))
        if self.fault_plan:
            normalized = tuple(sorted(
                (str(name), _deep_freeze(value))
                for name, value in self.fault_plan))
            object.__setattr__(self, "fault_plan", normalized)
            FaultPlan.from_items(normalized)   # validate eagerly
        if self.mitigation:
            from repro.core.mitigation import MitigationPolicy
            normalized = tuple(sorted(
                (str(name), _deep_freeze(value))
                for name, value in self.mitigation))
            object.__setattr__(self, "mitigation", normalized)
            MitigationPolicy.from_items(normalized)   # validate eagerly
        known_platforms = backend_names()
        for name, _ in self.calibration_overrides:
            platform, _, parameter = str(name).partition(".")
            if platform not in known_platforms or not parameter:
                raise ValueError(
                    f"override keys look like '<platform>.field' with a "
                    f"registered platform {known_platforms}, got {name!r}")
        if self.audit:
            for name, value in self.calibration_overrides:
                if str(name).endswith(".telemetry_spans") and not value:
                    raise ValueError(
                        f"audit=True needs telemetry spans: override "
                        f"{name!r}={value!r} would starve the auditor "
                        f"of the execution-span evidence it checks "
                        f"billing against (drop the override or set "
                        f"audit=False)")

    # -- identity ---------------------------------------------------------------

    def canonical(self) -> Dict[str, Any]:
        """A stable, JSON-ready dict of every field (for hashing)."""
        payload = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if isinstance(value, tuple):
                value = [list(item) for item in value]
            payload[spec_field.name] = value
        return payload

    def spec_hash(self) -> str:
        """Content hash of the spec itself (not the calibration)."""
        blob = json.dumps(self.canonical(), sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode()).hexdigest()

    def calibration_hash(self) -> str:
        """Content hash of the *effective* calibrations (defaults plus
        this spec's overrides), so editing a default constant in any
        platform's calibration module invalidates cached results."""
        blob = repr(sorted((name, asdict(calibration))
                           for name, calibration
                           in self.calibrations().items()))
        return hashlib.sha256(blob.encode()).hexdigest()

    # -- materialization -------------------------------------------------------

    def fault_plan_obj(self) -> Optional[FaultPlan]:
        """The spec's :class:`FaultPlan`, or ``None`` when fault-free."""
        if not self.fault_plan:
            return None
        return FaultPlan.from_items(self.fault_plan)

    def mitigation_obj(self):
        """The spec's :class:`~repro.core.mitigation.MitigationPolicy`
        (the hard-timeout-only default when no pairs were given)."""
        from repro.core.mitigation import MitigationPolicy
        return MitigationPolicy.from_items(self.mitigation)

    def calibrations(self) -> Dict[str, Any]:
        """Fresh default calibrations (one per registered platform) with
        this spec's overrides applied, keyed by backend name."""
        calibrations = {name: get_backend(name).default_calibration()
                        for name in backend_names()}
        for name, value in self.calibration_overrides:
            platform, _, parameter = str(name).partition(".")
            target = calibrations[platform]
            if not hasattr(target, parameter):
                raise AttributeError(
                    f"{type(target).__name__} has no field {parameter!r}")
            setattr(target, parameter, value)
        # setattr bypasses __post_init__, so re-validate the results.
        for calibration in calibrations.values():
            calibration.validate()
        return calibrations

    def deploy(self, baseline: bool = False) -> Deployment:
        """Build and deploy this spec's variant on a fresh testbed.

        The testbed carries the spec's fault plan and, when the spec is
        audited, an invariant auditor; a ``baseline`` testbed has
        neither (the fault-free comparison pass of the reliability and
        resilience campaigns).  The testbed is ``deployment.testbed``.

        Resets the process-global run-id counter
        (:attr:`Deployment._run_ids`) first: run ids name blob keys and
        run values, and must not depend on how many campaigns this
        process happened to run earlier.  Consequently a spec must not
        execute concurrently with a hand-driven campaign *on the same
        testbed* in the same process (worker processes are unaffected).
        """
        Deployment._run_ids = itertools.count(1)
        testbed = Testbed(
            seed=self.seed, calibrations=self.calibrations(),
            fault_plan=None if baseline else self.fault_plan_obj(),
            audit=not baseline and audit_mod.enabled_for(self.audit))
        if self.workload == "video":
            workload = video_workload(self.fanout, self.workload_seed)
        else:
            workload = ml_workload(self.scale, self.workload_seed)
        deployment = DEPLOYMENTS[self.workload][self.deployment](
            testbed, workload)
        deployment.deploy()
        return deployment


@dataclass
class CampaignOutcome:
    """One executed spec: the campaign, its cost report and idle meter.

    Each summary is set by the campaign kind of the same name; the
    outcome's stored document is derived from these annotations.
    """

    spec: CampaignSpec
    campaign: CampaignResult
    cost: CostReport
    #: transactions metered during ``spec.idle_window_s`` of idle time
    idle_transactions: int = 0
    reliability: Optional[ReliabilitySummary] = None
    overload: Optional[OverloadSummary] = None
    resilience: Optional[ResilienceSummary] = None
    #: set when the spec was audited
    audit: Optional[audit_mod.AuditReport] = None
    #: True when this outcome was served from a result cache
    cached: bool = field(default=False, compare=False)


def _latency_campaign(spec: CampaignSpec, deployment: Deployment
                      ) -> Tuple[CampaignResult, int]:
    runner = ExperimentRunner(think_time_s=spec.think_time_s,
                              settle_time_s=spec.settle_time_s)
    campaign = runner.run_campaign(deployment, spec.iterations,
                                   warmup=spec.warmup,
                                   invoke_kwargs=dict(spec.invoke_kwargs))
    return campaign, spec.warmup + spec.iterations


def _coldstart_campaign(spec: CampaignSpec, deployment: Deployment
                        ) -> Tuple[CampaignResult, int]:
    protocol = ColdStartCampaign(interval_s=spec.interval_s, days=spec.days)
    return protocol.run(deployment), protocol.request_count


def _fanout_campaign(spec: CampaignSpec, deployment: Deployment
                     ) -> Tuple[CampaignResult, int]:
    runner = ExperimentRunner(think_time_s=spec.think_time_s,
                              settle_time_s=spec.settle_time_s)
    batch = spec.batch or spec.fanout
    runs = runner.run_parallel_batch(deployment, batch,
                                     invoke_kwargs=dict(spec.invoke_kwargs))
    return CampaignResult(deployment=deployment.name, runs=runs), batch


def _paper_protocol(run: Callable) -> Callable[[CampaignSpec],
                                                CampaignOutcome]:
    """An executor for one of the paper's protocols: drive the variant
    with ``run``, read its cost meters per run, then meter
    ``spec.idle_window_s`` of idle time."""
    def execute(spec: CampaignSpec) -> CampaignOutcome:
        deployment = spec.deploy()
        testbed = deployment.testbed
        campaign, per_runs = run(spec, deployment)
        cost = cost_report(deployment, per_runs=per_runs)
        idle_transactions = 0
        if spec.idle_window_s > 0:
            before = len(deployment.stack.meter)
            testbed.advance(spec.idle_window_s)
            idle_transactions = len(deployment.stack.meter) - before
        return CampaignOutcome(
            spec=spec, campaign=campaign, cost=cost,
            idle_transactions=idle_transactions,
            audit=audit_mod.finalize_report(testbed, spec))
    return execute


#: every campaign kind and its executor; a kind's summary (if any) is
#: the :class:`CampaignOutcome` field of the same name
CAMPAIGNS: Dict[str, Callable[[CampaignSpec], CampaignOutcome]] = {
    "latency": _paper_protocol(_latency_campaign),
    "coldstart": _paper_protocol(_coldstart_campaign),
    "fanout": _paper_protocol(_fanout_campaign),
    "reliability": execute_reliability_spec,
    "overload": execute_overload_spec,
    "resilience": execute_resilience_spec,
}
CAMPAIGN_TYPES = tuple(CAMPAIGNS)


def execute_spec(spec: CampaignSpec) -> CampaignOutcome:
    """Run one campaign spec on a fresh testbed (the pure worker).

    Deterministic: the testbed, its RNG streams and the workload are all
    derived from the spec alone (see :meth:`CampaignSpec.deploy`), so
    the same spec produces bit-identical results in any process.
    """
    return CAMPAIGNS[spec.campaign](spec)


def _prewarm_workloads(specs: Iterable[CampaignSpec]) -> None:
    """Memoize the real-compute workload artifacts in this process.

    Worker processes are forked where the platform allows it, so paying
    for dataset generation and model training, or for each chunk's
    sampled face detections, once here means every worker inherits the
    memo instead of computing it again per process.
    """
    for spec in specs:
        if spec.workload in ("ml-training", "ml-inference"):
            ml_workload(spec.scale, spec.workload_seed).trained
        else:
            workload = video_workload(spec.fanout, spec.workload_seed)
            for chunk in workload.chunks():
                workload.detect_sample(chunk.start_frame)


# -- sweep results -----------------------------------------------------------------


@dataclass(frozen=True)
class ChaosPlan:
    """Seeded self-chaos: SIGKILL our own workers mid-spec.

    The decision to kill attempt ``a`` of spec ``i`` is drawn from
    ``Random(f"chaos:{seed}:{i}:{a}")`` — fully deterministic, so a
    chaos test can assert exact recovery behaviour.  ``max_kills_per_spec``
    bounds the kills below the runner's restart budget so every spec
    eventually completes.
    """

    kill_probability: float = 1.0
    kill_after_s: float = 0.05
    max_kills_per_spec: int = 1
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.kill_probability <= 1.0:
            raise ValueError("kill_probability must lie in [0, 1]")
        if self.kill_after_s < 0:
            raise ValueError("kill_after_s must be non-negative")
        if self.max_kills_per_spec < 0:
            raise ValueError("max_kills_per_spec must be non-negative")

    def should_kill(self, index: int, attempt: int,
                    kills_so_far: int) -> bool:
        if kills_so_far >= self.max_kills_per_spec:
            return False
        stream = random.Random(f"chaos:{self.seed}:{index}:{attempt}")
        return stream.random() < self.kill_probability


@dataclass
class SpecFailure:
    """One spec that exhausted supervision: its typed terminal error."""

    index: int
    spec: CampaignSpec
    error: SweepError
    attempts: int

    @property
    def kind(self) -> str:
        return type(self.error).__name__

    def __str__(self) -> str:
        return (f"[{self.kind} after {self.attempts} "
                f"attempt{'s' if self.attempts != 1 else ''}] {self.error}")


@dataclass
class PartialSweepResult:
    """A finished sweep, failures included instead of raised away.

    ``outcomes`` is in spec order with ``None`` holes where a spec
    failed terminally; ``failures`` explains each hole.  Completed
    outcomes are never discarded — they are already in the journal and
    cache by the time this object exists.
    """

    outcomes: List[Optional[CampaignOutcome]]
    failures: List[SpecFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def completed(self) -> List[CampaignOutcome]:
        return [outcome for outcome in self.outcomes if outcome is not None]

    def raise_if_failed(self) -> List[CampaignOutcome]:
        """``outcomes`` when clean; raises the first failure otherwise."""
        if self.failures:
            error = self.failures[0].error
            raise error from getattr(error, "cause", None)
        return self.outcomes  # type: ignore[return-value]


# -- worker side -------------------------------------------------------------------


def _worker_main(conn, heartbeat, spec: CampaignSpec,
                 heartbeat_interval_s: float) -> None:
    """Run one spec in a child process, beating while it works.

    SIGINT is ignored here: a terminal Ctrl-C reaches the whole process
    group, and shutdown (drain pipes, then kill) is the supervisor's
    job, not each worker's.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass
    stop = threading.Event()

    def beat() -> None:
        while not stop.is_set():
            heartbeat.value = time.monotonic()
            stop.wait(heartbeat_interval_s)

    thread = threading.Thread(target=beat, daemon=True)
    thread.start()
    try:
        try:
            outcome = execute_spec(spec)
        except BaseException as error:
            conn.send(("error", f"{type(error).__name__}: {error}",
                       traceback.format_exc()))
        else:
            conn.send(("ok", outcome))
    finally:
        stop.set()
        conn.close()


class _Task:
    """A spec awaiting (re)execution."""

    __slots__ = ("index", "spec", "attempt", "not_before")

    def __init__(self, index: int, spec: CampaignSpec,
                 attempt: int = 1, not_before: float = 0.0):
        self.index = index
        self.spec = spec
        self.attempt = attempt
        self.not_before = not_before


class _Worker:
    """Supervisor-side bookkeeping for one live worker process."""

    __slots__ = ("task", "process", "conn", "heartbeat", "deadline",
                 "kill_at")

    def __init__(self, task: _Task, process, conn, heartbeat,
                 deadline: Optional[float], kill_at: Optional[float]):
        self.task = task
        self.process = process
        self.conn = conn
        self.heartbeat = heartbeat
        self.deadline = deadline
        self.kill_at = kill_at


class _PoolUnavailable(Exception):
    """Worker processes cannot be started; use the in-process path."""


# -- the runner --------------------------------------------------------------------


class ParallelRunner:
    """Drives a batch of campaign specs, in parallel when it helps.

    Results come back as :class:`CampaignOutcome` objects in spec order
    and are bit-identical to running each spec serially through
    :class:`ExperimentRunner` (asserted by
    ``tests/core/test_parallel.py``), whichever execution mode the
    arguments select (see the module docstring).  With a ``cache``,
    completed specs are reused across invocations instead of
    re-simulated; with a ``journal`` (a path or a
    :class:`~repro.core.checkpoint.SweepJournal`), each completed
    outcome is checkpointed the moment it exists.

    :meth:`sweep` returns a :class:`PartialSweepResult`; :meth:`run` is
    the strict form, ``sweep(specs).raise_if_failed()``: every healthy
    spec completes and is cached before the first typed failure is
    raised, so a re-run after the fix only pays for the broken ones.

    ``workers`` defaults to the machine's CPU count.
    """

    def __init__(self, workers: Optional[int] = None, cache: Any = None,
                 journal: Optional[Union[str, Path, SweepJournal]] = None,
                 spec_timeout_s: Optional[float] = None,
                 max_restarts: int = 0,
                 chaos: Optional[ChaosPlan] = None):
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError("workers must be positive")
        if spec_timeout_s is not None and spec_timeout_s <= 0:
            raise ValueError("spec_timeout_s must be positive (or None)")
        if max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        if journal is not None:
            # Imported here: checkpoint imports this module.
            from repro.core.checkpoint import SweepJournal
            if not isinstance(journal, SweepJournal):
                journal = SweepJournal(journal)
        self.workers = workers
        self.cache = cache
        self.journal = journal
        self.spec_timeout_s = spec_timeout_s
        self.max_restarts = max_restarts
        self.chaos = chaos
        self._interrupted: Optional[int] = None
        self._interrupt_count = 0
        self._previous_handlers: Dict[int, Any] = {}

    @property
    def in_process(self) -> bool:
        """True when no argument asks for a process boundary, so specs
        run in the calling process."""
        return (self.workers <= 1 and self.spec_timeout_s is None
                and self.chaos is None and self.max_restarts == 0)

    # -- public entry points ----------------------------------------------------

    def run(self, specs: Sequence[CampaignSpec]) -> List[CampaignOutcome]:
        """Outcomes in spec order; raises the first typed failure."""
        return self.sweep(specs).raise_if_failed()

    def sweep(self, specs: Sequence[CampaignSpec],
              argv: Optional[Sequence[str]] = None,
              resume: bool = True) -> PartialSweepResult:
        """Execute ``specs``; never raises away completed work.

        Interrupts are the exception: in worker mode SIGINT/SIGTERM
        drain completed outcomes and then raise ``KeyboardInterrupt``;
        in-process, ``KeyboardInterrupt`` propagates at once.  Either
        way the journal already holds every completed outcome.
        ``argv`` is recorded in a new journal's manifest.
        """
        specs = list(specs)
        outcomes: List[Optional[CampaignOutcome]] = [None] * len(specs)
        failures: List[SpecFailure] = []

        if self.journal is not None:
            self.journal.create_or_open(specs, argv=argv, resume=resume)
            # Journal and cache mirror each other: journaled outcomes
            # seed the cache (below, cache hits are journaled), so after
            # a resume either store alone can replay the whole sweep.
            for index, outcome in self.journal.completed(specs).items():
                outcomes[index] = outcome
                if self.cache is not None:
                    self.cache.put(outcome.spec, outcome)

        pending: Deque[_Task] = deque()
        for index, spec in enumerate(specs):
            if outcomes[index] is not None:
                continue
            hit = self.cache.get(spec) if self.cache is not None else None
            if hit is not None:
                hit.cached = True
                outcomes[index] = hit
                if self.journal is not None:
                    self.journal.record(index, hit)
            else:
                pending.append(_Task(index, spec))

        if pending and self.in_process:
            self._run_inline(pending, outcomes, failures)
        elif pending:
            self._install_signal_handlers()
            try:
                try:
                    self._run_processes(pending, outcomes, failures)
                except _PoolUnavailable:
                    self._run_inline(pending, outcomes, failures)
            finally:
                self._restore_signal_handlers()
            if self._interrupted is not None:
                raise KeyboardInterrupt(
                    f"sweep interrupted by signal {self._interrupted}; "
                    f"completed outcomes are journaled")

        failures.sort(key=lambda failure: failure.index)
        return PartialSweepResult(outcomes=outcomes, failures=failures)

    def resume(self, argv: Optional[Sequence[str]] = None,
               ) -> PartialSweepResult:
        """Finish a journaled sweep using the manifest's own spec list."""
        if self.journal is None:
            raise ValueError("resume() needs a journal")
        manifest = self.journal.open()
        return self.sweep(manifest.specs(), argv=argv)

    # -- completion plumbing ----------------------------------------------------

    def _complete(self, index: int, outcome: CampaignOutcome,
                  outcomes: List[Optional[CampaignOutcome]]) -> None:
        """Flush one finished spec everywhere, the moment it finishes."""
        outcomes[index] = outcome
        if self.journal is not None:
            self.journal.record(index, outcome)
        if self.cache is not None:
            self.cache.put(outcome.spec, outcome)

    def _retry_or_fail(self, task: _Task, error: SweepError,
                       pending: Deque[_Task],
                       failures: List[SpecFailure]) -> None:
        if task.attempt <= self.max_restarts:
            delay = min(BACKOFF_CAP_S,
                        BACKOFF_BASE_S * (2 ** (task.attempt - 1)))
            pending.append(_Task(task.index, task.spec,
                                 attempt=task.attempt + 1,
                                 not_before=time.monotonic() + delay))
        else:
            failures.append(SpecFailure(index=task.index, spec=task.spec,
                                        error=error,
                                        attempts=task.attempt))

    # -- in-process execution ---------------------------------------------------

    def _run_inline(self, pending: Deque[_Task],
                    outcomes: List[Optional[CampaignOutcome]],
                    failures: List[SpecFailure]) -> None:
        """Execute specs in this process, in order.

        ``execute_spec`` is looked up in this module at call time, so a
        caller that wraps the module global (tracing) sees every spec.
        """
        while pending:
            if self._interrupted is not None:
                return
            task = pending.popleft()
            try:
                outcome = execute_spec(task.spec)
            except Exception as error:
                failures.append(SpecFailure(
                    index=task.index, spec=task.spec,
                    error=SpecExecutionError(
                        task.spec, f"{type(error).__name__}: {error}",
                        traceback.format_exc(), cause=error),
                    attempts=task.attempt))
                continue
            self._complete(task.index, outcome, outcomes)

    # -- worker-process execution -----------------------------------------------

    def _run_processes(self, pending: Deque[_Task],
                       outcomes: List[Optional[CampaignOutcome]],
                       failures: List[SpecFailure]) -> None:
        try:
            _prewarm_workloads([task.spec for task in pending])
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else None)
        except Exception as error:
            raise _PoolUnavailable(str(error)) from error

        active: List[_Worker] = []
        kills: Dict[int, int] = {}
        launched_any = False
        try:
            while pending or active:
                if self._interrupted is not None:
                    self._drain_and_stop(active, outcomes)
                    return
                now = time.monotonic()
                while pending and len(active) < self.workers:
                    task = self._pop_eligible(pending, now)
                    if task is None:
                        break
                    try:
                        active.append(
                            self._launch(context, task, kills))
                        launched_any = True
                    except (OSError, ValueError, AttributeError,
                            ImportError) as error:
                        if launched_any:
                            # Mid-sweep launch failure: treat as a
                            # crash of this attempt, keep supervising.
                            self._retry_or_fail(
                                task,
                                WorkerCrash(task.spec,
                                            f"launch failed: {error}"),
                                pending, failures)
                        else:
                            # Nothing launched yet: the pool is unusable.
                            # Re-queue this task first — it was already
                            # popped, and the inline path only sees what
                            # is still in the deque.
                            pending.appendleft(task)
                            raise _PoolUnavailable(str(error)) from error
                self._reap(active, pending, outcomes, failures, kills)
        finally:
            for worker in active:
                self._kill(worker)
                self._finish(worker)

    def _pop_eligible(self, pending: Deque[_Task],
                      now: float) -> Optional[_Task]:
        for _ in range(len(pending)):
            task = pending.popleft()
            if task.not_before <= now:
                return task
            pending.append(task)
        return None

    def _launch(self, context, task: _Task,
                kills: Dict[int, int]) -> _Worker:
        parent_conn, child_conn = context.Pipe(duplex=False)
        heartbeat = context.Value("d", time.monotonic())
        process = context.Process(
            target=_worker_main,
            args=(child_conn, heartbeat, task.spec, HEARTBEAT_INTERVAL_S),
            daemon=True)
        process.start()
        child_conn.close()
        now = time.monotonic()
        deadline = (now + self.spec_timeout_s
                    if self.spec_timeout_s is not None else None)
        kill_at = None
        if self.chaos is not None and self.chaos.should_kill(
                task.index, task.attempt, kills.get(task.index, 0)):
            kill_at = now + self.chaos.kill_after_s
        return _Worker(task, process, parent_conn, heartbeat,
                       deadline, kill_at)

    def _reap(self, active: List[_Worker], pending: Deque[_Task],
              outcomes: List[Optional[CampaignOutcome]],
              failures: List[SpecFailure],
              kills: Dict[int, int]) -> None:
        if not active:
            time.sleep(POLL_INTERVAL_S)
            return
        try:
            ready = set(_connection_wait(
                [worker.conn for worker in active],
                timeout=POLL_INTERVAL_S))
        except OSError:
            ready = set()
        now = time.monotonic()
        for worker in list(active):
            task = worker.task
            if worker.conn in ready:
                try:
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    message = None
                active.remove(worker)
                self._finish(worker)
                if message is None:
                    exitcode = worker.process.exitcode
                    self._retry_or_fail(
                        task,
                        WorkerCrash(task.spec,
                                    f"died without a result "
                                    f"(exitcode {exitcode})"),
                        pending, failures)
                elif message[0] == "ok":
                    self._complete(task.index, message[1], outcomes)
                else:
                    failures.append(SpecFailure(
                        index=task.index, spec=task.spec,
                        error=SpecExecutionError(task.spec, message[1],
                                                 message[2]),
                        attempts=task.attempt))
                continue
            if worker.kill_at is not None and now >= worker.kill_at:
                worker.kill_at = None
                kills[task.index] = kills.get(task.index, 0) + 1
                self._kill(worker)
                continue   # death surfaces through the pipe next round
            if worker.deadline is not None and now >= worker.deadline:
                active.remove(worker)
                self._kill(worker)
                self._finish(worker)
                self._retry_or_fail(
                    task, SpecTimeout(task.spec, self.spec_timeout_s),
                    pending, failures)
                continue
            if STALL_TIMEOUT_S is not None and \
                    now - worker.heartbeat.value > STALL_TIMEOUT_S:
                active.remove(worker)
                self._kill(worker)
                self._finish(worker)
                self._retry_or_fail(
                    task,
                    WorkerCrash(task.spec,
                                f"heartbeat stalled for more than "
                                f"{STALL_TIMEOUT_S:g}s"),
                    pending, failures)

    def _drain_and_stop(self, active: List[_Worker],
                        outcomes: List[Optional[CampaignOutcome]]) -> None:
        """Signal path: flush every already-completed result, then kill.

        Workers that finished before the signal have their outcome
        sitting in the pipe; journal those.  Workers still mid-spec are
        killed — their specs stay missing and resume re-runs them.  A
        drained *error* is reported to stderr: the failure is
        deterministic, so resume will only reproduce it, and the user
        should learn about the broken spec before re-running the sweep.
        """
        for worker in active:
            try:
                while worker.conn.poll(0):
                    message = worker.conn.recv()
                    if not message:
                        continue
                    if message[0] == "ok":
                        self._complete(worker.task.index, message[1],
                                       outcomes)
                    else:
                        spec = worker.task.spec
                        print(f"spec {spec.spec_hash()[:12]} "
                              f"({spec.deployment} {spec.campaign}) "
                              f"failed before the interrupt and will "
                              f"fail again on resume: {message[1]}",
                              file=sys.stderr)
            except (EOFError, OSError):
                pass
        for worker in active:
            self._kill(worker)
            self._finish(worker)
        active.clear()

    def _kill(self, worker: _Worker) -> None:
        try:
            if worker.process.is_alive():
                worker.process.kill()
        except (OSError, AttributeError, ValueError):
            pass

    def _finish(self, worker: _Worker) -> None:
        try:
            worker.process.join(timeout=5.0)
        except (OSError, AssertionError, ValueError):
            pass
        try:
            worker.conn.close()
        except OSError:
            pass

    # -- signals ----------------------------------------------------------------

    def _install_signal_handlers(self) -> None:
        self._interrupted = None
        self._interrupt_count = 0
        self._previous_handlers = {}
        if threading.current_thread() is not threading.main_thread():
            return
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                self._previous_handlers[signum] = signal.signal(
                    signum, self._on_signal)
            except (ValueError, OSError):
                pass

    def _restore_signal_handlers(self) -> None:
        for signum, handler in self._previous_handlers.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):
                pass
        self._previous_handlers = {}

    def _on_signal(self, signum, frame) -> None:
        self._interrupted = signum
        self._interrupt_count += 1
        if self._interrupt_count >= 2:
            # Second signal: the user means *now*.  The journal already
            # holds everything completed before the first signal.
            raise KeyboardInterrupt

"""ML training and inference deployments — all six Table II variants.

Data larger than the platform payload limits (dataframes, matrices,
models) moves through blob storage; only keys and small summaries cross
function boundaries, exactly as the paper describes (§IV-A: "since the
dataframes are often larger than 256 KB, we had to transfer them via the
remote storage").
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Dict, Generator, List, Optional, Type

from repro.azure import EntityId, EntitySpec, OrchestratorSpec, QueueChain
from repro.azure.app import TRIGGER_HTTP
from repro.core.deployments.base import Deployment, RunResult
from repro.core.stage_models import (
    ML_DURATIONS,
    ML_LARGE_ROWS,
    ML_SMALL_ROWS,
    ml_work_models,
)
from repro.core.testbed import Testbed
from repro.platforms.base import FunctionSpec
from repro.storage.payload import MB
from repro.telemetry import SpanKind
from repro.workloads.ml import make_car_pricing_dataset, train_test_split
from repro.workloads.ml.pipeline import MLPipeline
from repro.workloads.ml.selection import default_candidates


class MLWorkload:
    """Shared real-compute artifacts for one dataset scale.

    One instance per (scale, seed) backs every deployment variant so all
    six run the same real pipeline and move identically-sized payloads.
    """

    def __init__(self, scale: str, seed: int = 0):
        if scale not in ML_DURATIONS:
            raise ValueError(f"scale must be one of {sorted(ML_DURATIONS)}")
        self.scale = scale
        self.seed = seed
        rows = ML_SMALL_ROWS if scale == "small" else ML_LARGE_ROWS
        full = make_car_pricing_dataset(rows, seed=seed)
        self.train_dataset, self.test_dataset = train_test_split(
            full, test_fraction=0.2, seed=seed)
        self.pipeline = MLPipeline(seed=seed)
        self.candidates = default_candidates(seed)

    @property
    def trained(self):
        """The real trained pipeline (computed once, memoized)."""
        return self.pipeline.train(self.train_dataset)

    # -- payload sizes (bytes) ---------------------------------------------------

    # The frames never change, and summing their categorical strings is
    # the costly part of ``Frame.payload_size``: size each frame once.
    @cached_property
    def dataset_bytes(self) -> int:
        return self.train_dataset.features.payload_size

    @cached_property
    def test_dataset_bytes(self) -> int:
        return self.test_dataset.features.payload_size

    @property
    def prepared_bytes(self) -> int:
        n_features = 14 + self.trained.encoder.n_output_features
        return self.train_dataset.n_rows * n_features * 8

    @property
    def reduced_bytes(self) -> int:
        return self.train_dataset.n_rows * self.trained.pca.n_components * 8

    @property
    def best_model_bytes(self) -> int:
        return self.trained.best.payload_size

    def candidate_result(self, name: str):
        for result in self.trained.results:
            if result.candidate.name == name:
                return result
        raise KeyError(f"no candidate named {name!r}")

    def summary_of(self, name: str) -> Dict[str, Any]:
        """A ≤64 KB-safe summary of one trained candidate."""
        result = self.candidate_result(name)
        return {"name": name, "error": result.error,
                "model_bytes": result.payload_size}


_WORKLOADS: Dict[tuple, MLWorkload] = {}


def ml_workload(scale: str, seed: int = 0) -> MLWorkload:
    """Process-wide cache of ML workloads (real training runs once)."""
    key = (scale, seed)
    if key not in _WORKLOADS:
        _WORKLOADS[key] = MLWorkload(scale, seed)
    return _WORKLOADS[key]


def _train_model_name(algorithm: str) -> str:
    return {"random_forest": "train_rf", "kneighbors": "train_knn",
            "lasso": "train_lasso"}[algorithm]


# ---------------------------------------------------------------------------
# Stage handler factories (shared by every variant on both platforms).
# ---------------------------------------------------------------------------

def make_prepare_handler(workload: MLWorkload):
    """Stage 1: fetch raw dataset, feature-engineer, store prepared matrix."""
    def handler(ctx, event) -> Generator:
        dataset = yield from ctx.blob.get(event["dataset_key"])
        yield from ctx.work("deserialize",
                            units=workload.dataset_bytes / MB)
        trained = workload.trained      # real compute, memoized
        yield from ctx.work("prepare")
        prepared_key = f"runs/{event['run_id']}/prepared"
        yield from ctx.blob.put(prepared_key, {"encoder": trained.encoder},
                                size=workload.prepared_bytes)
        return {"run_id": event["run_id"], "prepared_key": prepared_key}
    return handler


def make_reduce_handler(workload: MLWorkload):
    """Stage 2: fetch prepared matrix, PCA, store reduced matrix."""
    def handler(ctx, event) -> Generator:
        yield from ctx.blob.get(event["prepared_key"])
        yield from ctx.work("deserialize",
                            units=workload.prepared_bytes / MB)
        trained = workload.trained
        yield from ctx.work("reduce")
        reduced_key = f"runs/{event['run_id']}/reduced"
        yield from ctx.blob.put(reduced_key, {"pca": trained.pca},
                                size=workload.reduced_bytes)
        return {"run_id": event["run_id"], "reduced_key": reduced_key}
    return handler


def make_train_one_handler(workload: MLWorkload):
    """Train a single named candidate on the reduced matrix."""
    def handler(ctx, event) -> Generator:
        yield from ctx.blob.get(event["reduced_key"])
        yield from ctx.work("deserialize",
                            units=workload.reduced_bytes / MB)
        result = workload.candidate_result(event["candidate"])
        yield from ctx.work(
            _train_model_name(result.candidate.algorithm))
        model_key = f"runs/{event['run_id']}/models/{event['candidate']}"
        yield from ctx.blob.put(model_key, result.model,
                                size=result.payload_size)
        summary = workload.summary_of(event["candidate"])
        summary.update({"run_id": event["run_id"], "model_key": model_key})
        return summary
    return handler


def make_train_all_handler(workload: MLWorkload):
    """Train every candidate sequentially (the chain variants)."""
    def handler(ctx, event) -> Generator:
        yield from ctx.blob.get(event["reduced_key"])
        yield from ctx.work("deserialize",
                            units=workload.reduced_bytes / MB)
        summaries = []
        for result in workload.trained.results:
            yield from ctx.work(
                _train_model_name(result.candidate.algorithm))
            model_key = (f"runs/{event['run_id']}/models/"
                         f"{result.candidate.name}")
            yield from ctx.blob.put(model_key, result.model,
                                    size=result.payload_size)
            summary = workload.summary_of(result.candidate.name)
            summary["model_key"] = model_key
            summaries.append(summary)
        return {"run_id": event["run_id"], "results": summaries}
    return handler


def make_select_handler(workload: MLWorkload):
    """Pick the lowest-error candidate and publish it as the best model."""
    def handler(ctx, event) -> Generator:
        results = event["results"]
        yield from ctx.work("select")
        best = min(results, key=lambda summary: summary["error"])
        best_key = f"runs/{event['run_id']}/best"
        yield from ctx.blob.put(best_key, {"best": best["name"]},
                                size=workload.best_model_bytes)
        return {"run_id": event["run_id"], "best": best["name"],
                "error": best["error"], "best_key": best_key}
    return handler


def make_monolith_handler(workload: MLWorkload):
    """The whole pipeline inside one function (AWS-Lambda / Az-Func)."""
    def handler(ctx, event) -> Generator:
        dataset = yield from ctx.blob.get(event["dataset_key"])
        yield from ctx.work("deserialize",
                            units=workload.dataset_bytes / MB)
        trained = workload.trained
        yield from ctx.work("prepare")
        yield from ctx.work("reduce")
        for result in trained.results:
            yield from ctx.work(
                _train_model_name(result.candidate.algorithm))
        yield from ctx.work("select")
        best_key = f"runs/{event['run_id']}/best"
        yield from ctx.blob.put(best_key, trained.best.model,
                                size=workload.best_model_bytes)
        return {"run_id": event["run_id"],
                "best": trained.best.candidate.name,
                "error": trained.best.error, "best_key": best_key}
    return handler


# ---------------------------------------------------------------------------
# AWS deployments.
# ---------------------------------------------------------------------------

class AWSLambdaMLTraining(Deployment):
    """Table II 'AWS-Lambda': one stateless Lambda runs everything."""

    name = "AWS-Lambda"
    platform = "aws"
    stateful = False
    description = "One stateless Lambda function."
    function_count = 1
    code_size_mb = 63.1

    def __init__(self, testbed: Testbed, workload: MLWorkload):
        super().__init__(testbed)
        self.workload = workload
        self.dataset_key = f"datasets/{workload.scale}"

    def setup(self) -> Generator:
        self.testbed.lambdas.register(FunctionSpec(
            name="ml-train-monolith",
            handler=make_monolith_handler(self.workload),
            memory_mb=1536, timeout_s=900.0,
            work_models=ml_work_models(self.workload.scale)))
        yield from self.testbed.aws.blob.put(
            self.dataset_key, self.workload.train_dataset,
            size=self.workload.dataset_bytes)

    def invoke(self) -> Generator:
        run_id = self.next_run_id()
        started = self.testbed.now
        result = yield from self.testbed.lambdas.invoke(
            "ml-train-monolith",
            {"run_id": run_id, "dataset_key": self.dataset_key})
        return RunResult(
            deployment=self.name, started_at=started,
            finished_at=self.testbed.now, value=result.value,
            cold_start_delay=result.cold_start_duration or None,
            execution_time=result.duration)


class AWSStepMLTraining(Deployment):
    """Table II 'AWS-Step': a 4-state machine calling one Lambda each."""

    name = "AWS-Step"
    platform = "aws"
    stateful = True
    description = ("Workflow implementation using AWS Step Functions, "
                   "calling AWS Lambda functions on each state.")
    function_count = 4
    code_size_mb = 271.2

    machine_name = "ml-training"

    def __init__(self, testbed: Testbed, workload: MLWorkload):
        super().__init__(testbed)
        self.workload = workload
        self.dataset_key = f"datasets/{workload.scale}"

    def setup(self) -> Generator:
        lambdas = self.testbed.lambdas
        models = ml_work_models(self.workload.scale)
        stages = [
            ("aws-ml-prepare", make_prepare_handler(self.workload)),
            ("aws-ml-reduce", make_reduce_handler(self.workload)),
            ("aws-ml-train", make_train_all_handler(self.workload)),
            ("aws-ml-select", make_select_handler(self.workload)),
        ]
        for name, handler in stages:
            lambdas.register(FunctionSpec(
                name=name, handler=handler, memory_mb=1536,
                timeout_s=900.0, work_models=models))
        self.testbed.stepfunctions.create_state_machine(self.machine_name, {
            "Comment": "ML training workflow (paper Figure 2)",
            "StartAt": "Prepare",
            "States": {
                "Prepare": {"Type": "Task", "Resource": "aws-ml-prepare",
                            "Next": "Reduce"},
                "Reduce": {"Type": "Task", "Resource": "aws-ml-reduce",
                           "Next": "Train"},
                "Train": {"Type": "Task", "Resource": "aws-ml-train",
                          "Next": "Select"},
                "Select": {"Type": "Task", "Resource": "aws-ml-select",
                           "End": True},
            },
        })
        yield from self.testbed.aws.blob.put(
            self.dataset_key, self.workload.train_dataset,
            size=self.workload.dataset_bytes)

    def invoke(self) -> Generator:
        run_id = self.next_run_id()
        started = self.testbed.now
        record = yield from self.testbed.stepfunctions.start_execution(
            self.machine_name,
            {"run_id": run_id, "dataset_key": self.dataset_key})
        if record.status != "SUCCEEDED":
            raise RuntimeError(
                f"AWS-Step training failed: {record.error}")
        cold = _first_execution_delay(self.testbed.aws.telemetry, started)
        return RunResult(
            deployment=self.name, started_at=started,
            finished_at=self.testbed.now, value=record.output,
            cold_start_delay=cold)


# ---------------------------------------------------------------------------
# Azure deployments.
# ---------------------------------------------------------------------------

#: Measured memory per Azure stage (MB) — Azure bills on consumption.
AZURE_MEASURED_MEMORY = {
    "prepare": 1024, "reduce": 1024, "train": 1024, "select": 512,
    "monolith": 1024, "inference": 1024,
}


class AzureFuncMLTraining(Deployment):
    """Table II 'Az-Func': one stateless Azure function."""

    name = "Az-Func"
    platform = "azure"
    stateful = False
    description = "One stateless Azure function."
    function_count = 1
    code_size_mb = 304.0

    def __init__(self, testbed: Testbed, workload: MLWorkload):
        super().__init__(testbed)
        self.workload = workload
        self.dataset_key = f"datasets/{workload.scale}"

    def setup(self) -> Generator:
        self.testbed.app.register(FunctionSpec(
            name="az-ml-monolith",
            handler=make_monolith_handler(self.workload),
            memory_mb=1536, timeout_s=1800.0,
            measured_memory_mb=AZURE_MEASURED_MEMORY["monolith"],
            work_models=ml_work_models(self.workload.scale)))
        yield from self.testbed.azure.blob.put(
            self.dataset_key, self.workload.train_dataset,
            size=self.workload.dataset_bytes)

    def invoke(self) -> Generator:
        run_id = self.next_run_id()
        started = self.testbed.now
        result = yield from self.testbed.app.invoke(
            "az-ml-monolith",
            {"run_id": run_id, "dataset_key": self.dataset_key},
            trigger=TRIGGER_HTTP)
        return RunResult(
            deployment=self.name, started_at=started,
            finished_at=self.testbed.now, value=result.value,
            cold_start_delay=(result.queue_wait if result.cold_start
                              else None),
            queue_time=result.queue_wait, execution_time=result.duration)


def _register_azure_stage_functions(testbed: Testbed,
                                    workload: MLWorkload) -> None:
    """Register the four per-stage Azure functions (idempotent)."""
    models = ml_work_models(workload.scale)
    stages = [
        ("az-ml-prepare", make_prepare_handler(workload), "prepare"),
        ("az-ml-reduce", make_reduce_handler(workload), "reduce"),
        ("az-ml-train", make_train_all_handler(workload), "train"),
        ("az-ml-train-one", make_train_one_handler(workload), "train"),
        ("az-ml-select", make_select_handler(workload), "select"),
    ]
    for name, handler, memory_key in stages:
        if name in testbed.app.function_names:
            continue
        testbed.app.register(FunctionSpec(
            name=name, handler=handler, memory_mb=1536, timeout_s=1800.0,
            measured_memory_mb=AZURE_MEASURED_MEMORY[memory_key],
            work_models=models))


class AzureQueueMLTraining(Deployment):
    """Table II 'Az-Queue': isolated functions chained via Azure queues."""

    name = "Az-Queue"
    platform = "azure"
    stateful = False
    description = "Isolated functions connecting through Azure queues."
    function_count = 4
    code_size_mb = 304.0

    def __init__(self, testbed: Testbed, workload: MLWorkload):
        super().__init__(testbed)
        self.workload = workload
        self.dataset_key = f"datasets/{workload.scale}"
        self.chain: Optional[QueueChain] = None

    def setup(self) -> Generator:
        _register_azure_stage_functions(self.testbed, self.workload)
        self.chain = QueueChain(
            self.testbed.app, self.testbed.azure.meter,
            ["az-ml-prepare", "az-ml-reduce", "az-ml-train", "az-ml-select"],
            name="ml-training-chain")
        yield from self.testbed.azure.blob.put(
            self.dataset_key, self.workload.train_dataset,
            size=self.workload.dataset_bytes)

    def invoke(self) -> Generator:
        run_id = self.next_run_id()
        started = self.testbed.now
        chain_run = yield from self.chain.run(
            {"run_id": run_id, "dataset_key": self.dataset_key,
             "results": []})
        cold = _first_execution_delay(self.testbed.azure.telemetry, started)
        return RunResult(
            deployment=self.name, started_at=started,
            finished_at=self.testbed.now, value=chain_run.value,
            cold_start_delay=cold, queue_time=chain_run.queue_time,
            execution_time=chain_run.execution_time)


#: Orchestrator inline CPU per episode: the paper's Figure 4 orchestrator
#: re-reads its input data at the top of every replay, so the cost scales
#: with the dataset.
ORCHESTRATOR_INLINE_CPU_S = {"small": 0.3, "large": 1.5}
SUB_ORCHESTRATOR_INLINE_CPU_S = {"small": 0.15, "large": 0.8}


class AzureDorchMLTraining(Deployment):
    """Table II 'Az-Dorch': durable orchestrator calling activities."""

    name = "Az-Dorch"
    platform = "azure"
    stateful = True
    description = ("Workflow implemented using Azure Durable orchestrators, "
                   "calling isolated functions through call_activity.")
    function_count = 6
    code_size_mb = 304.0

    orchestrator_name = "ml-training-dorch"

    def __init__(self, testbed: Testbed, workload: MLWorkload):
        super().__init__(testbed)
        self.workload = workload
        self.dataset_key = f"datasets/{workload.scale}"

    def setup(self) -> Generator:
        _register_azure_stage_functions(self.testbed, self.workload)
        candidates = [candidate.name
                      for candidate in self.workload.candidates]

        def orchestrator(context):
            meta = context.input
            prepared = yield context.call_activity("az-ml-prepare", meta)
            reduced = yield context.call_activity("az-ml-reduce", prepared)
            tasks = [
                context.call_activity(
                    "az-ml-train-one",
                    {"run_id": meta["run_id"], "candidate": name,
                     "reduced_key": reduced["reduced_key"]})
                for name in candidates]
            results = yield context.task_all(tasks)
            best = yield context.call_activity(
                "az-ml-select",
                {"run_id": meta["run_id"],
                 "results": [_strip_model_key(result)
                             for result in results]})
            return best

        self.testbed.durable.register_orchestrator(OrchestratorSpec(
            self.orchestrator_name, orchestrator, measured_memory_mb=512,
            inline_cpu_s=ORCHESTRATOR_INLINE_CPU_S[self.workload.scale]))
        yield from self.testbed.azure.blob.put(
            self.dataset_key, self.workload.train_dataset,
            size=self.workload.dataset_bytes)

    def invoke(self) -> Generator:
        run_id = self.next_run_id()
        client = self.testbed.durable.client
        instance_id = yield from client.start_new(
            self.orchestrator_name,
            {"run_id": f"dorch-{run_id}", "dataset_key": self.dataset_key})
        value = yield from client.wait_for_completion(instance_id)
        instance = client.get_status(instance_id)
        return RunResult(
            deployment=self.name, started_at=instance.running_at,
            finished_at=instance.completed_at, value=value,
            cold_start_delay=instance.cold_start_delay)


def _strip_model_key(summary: Dict[str, Any]) -> Dict[str, Any]:
    return {"name": summary["name"], "error": summary["error"]}


class AzureDentMLTraining(Deployment):
    """Table II 'Az-Dent': orchestrator calling stateful entities.

    Feature engineering lives in entities (Encoding / Scalar /
    DReduction); small models train inside Trainer entities, large ones
    in a sub-orchestrator; a ModelSelection entity collects the best fit
    (paper Figures 3-4).
    """

    name = "Az-Dent"
    platform = "azure"
    stateful = True
    description = ("Workflow implemented using Azure Durable orchestrators, "
                   "calling stateful entities for operations through "
                   "call_entity.")
    function_count = 7
    code_size_mb = 304.0

    orchestrator_name = "ml-training-dent"
    sub_orchestrator_name = "ml-train-heavy-sub"

    def __init__(self, testbed: Testbed, workload: MLWorkload):
        super().__init__(testbed)
        self.workload = workload
        self.dataset_key = f"datasets/{workload.scale}"

    def setup(self) -> Generator:
        workload = self.workload
        _register_azure_stage_functions(self.testbed, workload)
        self._register_entities()
        heavy = [candidate for candidate in workload.candidates
                 if candidate.heavy]
        light = [candidate for candidate in workload.candidates
                 if not candidate.heavy]

        def sub_orchestrator(context):
            meta = context.input
            summary = yield context.call_activity("az-ml-train-one", meta)
            summary = _strip_model_key(summary)
            yield context.call_entity(
                EntityId("ModelSelection", "best_fit"), "report", summary)
            return summary

        def orchestrator(context):
            meta = context.input
            run_id = meta["run_id"]
            prepared = yield context.call_entity(
                EntityId("Encoding", "OneHot"), "encode", meta)
            reduced = yield context.call_entity(
                EntityId("DReduction", "PCA"), "decompose", prepared)
            tasks = []
            for candidate in heavy:
                tasks.append(context.call_sub_orchestrator(
                    self.sub_orchestrator_name,
                    {"run_id": run_id, "candidate": candidate.name,
                     "reduced_key": reduced["reduced_key"]}))
            for candidate in light:
                tasks.append(context.call_entity(
                    EntityId("Trainer", candidate.name), "train",
                    {"run_id": run_id, "candidate": candidate.name,
                     "reduced_key": reduced["reduced_key"]}))
            results = yield context.task_all(tasks)
            for result in results[len(heavy):]:
                yield context.call_entity(
                    EntityId("ModelSelection", "best_fit"), "report",
                    _strip_model_key(result))
            best = yield context.call_entity(
                EntityId("ModelSelection", "best_fit"), "get")
            return best

        scale = self.workload.scale
        self.testbed.durable.register_orchestrator(OrchestratorSpec(
            self.sub_orchestrator_name, sub_orchestrator,
            measured_memory_mb=512,
            inline_cpu_s=SUB_ORCHESTRATOR_INLINE_CPU_S[scale]))
        self.testbed.durable.register_orchestrator(OrchestratorSpec(
            self.orchestrator_name, orchestrator, measured_memory_mb=512,
            inline_cpu_s=ORCHESTRATOR_INLINE_CPU_S[scale]))
        yield from self.testbed.azure.blob.put(
            self.dataset_key, workload.train_dataset,
            size=workload.dataset_bytes)

    def _register_entities(self) -> None:
        workload = self.workload
        registered = self.testbed.durable.taskhub.entities

        def encode_op(ctx, state, meta) -> Generator:
            yield from ctx.blob.get(meta["dataset_key"])
            yield from ctx.work("deserialize",
                                units=workload.dataset_bytes / MB)
            trained = workload.trained
            yield from ctx.work("prepare")
            prepared_key = f"runs/{meta['run_id']}/prepared"
            yield from ctx.blob.put(prepared_key, {"enc": True},
                                    size=workload.prepared_bytes)
            return trained.encoder, {"run_id": meta["run_id"],
                                     "prepared_key": prepared_key}

        def decompose_op(ctx, state, meta) -> Generator:
            yield from ctx.blob.get(meta["prepared_key"])
            yield from ctx.work("deserialize",
                                units=workload.prepared_bytes / MB)
            trained = workload.trained
            yield from ctx.work("reduce")
            reduced_key = f"runs/{meta['run_id']}/reduced"
            yield from ctx.blob.put(reduced_key, {"pca": True},
                                    size=workload.reduced_bytes)
            return trained.pca, {"run_id": meta["run_id"],
                                 "reduced_key": reduced_key}

        def train_op(ctx, state, meta) -> Generator:
            yield from ctx.blob.get(meta["reduced_key"])
            yield from ctx.work("deserialize",
                                units=workload.reduced_bytes / MB)
            result = workload.candidate_result(meta["candidate"])
            yield from ctx.work(
                _train_model_name(result.candidate.algorithm))
            summary = {"name": meta["candidate"], "error": result.error}
            return result.model, summary

        def report_op(ctx, state, summary) -> Generator:
            yield from ctx.busy(0.01)
            if state is None or summary["error"] < state["error"]:
                return dict(summary), True
            return state, False

        models = ml_work_models(workload.scale)
        specs = [
            EntitySpec("Encoding", {"encode": encode_op},
                       measured_memory_mb=1024),
            EntitySpec("DReduction", {"decompose": decompose_op},
                       measured_memory_mb=1024),
            EntitySpec("Trainer", {"train": train_op},
                       measured_memory_mb=1024),
            EntitySpec("ModelSelection", {"report": report_op},
                       measured_memory_mb=512),
        ]
        for spec in specs:
            if spec.name in registered:
                continue
            self.testbed.durable.register_entity(spec)
            # Entity executions charge stage work models too.
            fn = self.testbed.app.get_function(f"entity::{spec.name}")
            fn.work_models = models

    def invoke(self) -> Generator:
        run_id = self.next_run_id()
        client = self.testbed.durable.client
        instance_id = yield from client.start_new(
            self.orchestrator_name,
            {"run_id": f"dent-{run_id}", "dataset_key": self.dataset_key})
        value = yield from client.wait_for_completion(instance_id)
        instance = client.get_status(instance_id)
        return RunResult(
            deployment=self.name, started_at=instance.running_at,
            finished_at=instance.completed_at, value=value,
            cold_start_delay=instance.cold_start_delay)


# ---------------------------------------------------------------------------
# GCP deployments (the cross-platform extension's third data point).
# ---------------------------------------------------------------------------

class GCPFuncMLTraining(Deployment):
    """'GCP-Func': one stateless Cloud Function runs everything."""

    name = "GCP-Func"
    platform = "gcp"
    stateful = False
    description = "One stateless Cloud Function (gen1)."
    function_count = 1
    code_size_mb = 63.1

    def __init__(self, testbed: Testbed, workload: MLWorkload):
        super().__init__(testbed)
        self.workload = workload
        self.dataset_key = f"datasets/{workload.scale}"

    def setup(self) -> Generator:
        self.testbed.cloudfunctions.register(FunctionSpec(
            name="gcp-ml-monolith",
            handler=make_monolith_handler(self.workload),
            memory_mb=1536, timeout_s=900.0,
            work_models=ml_work_models(self.workload.scale)))
        yield from self.testbed.gcp.blob.put(
            self.dataset_key, self.workload.train_dataset,
            size=self.workload.dataset_bytes)

    def invoke(self) -> Generator:
        run_id = self.next_run_id()
        started = self.testbed.now
        result = yield from self.testbed.cloudfunctions.invoke(
            "gcp-ml-monolith",
            {"run_id": run_id, "dataset_key": self.dataset_key})
        return RunResult(
            deployment=self.name, started_at=started,
            finished_at=self.testbed.now, value=result.value,
            cold_start_delay=result.cold_start_duration or None,
            execution_time=result.duration)


class GCPWorkflowsMLTraining(Deployment):
    """'GCP-Flows': a 4-call-step workflow chaining one function per stage.

    The structural analogue of AWS-Step — same four stages, same blob
    hand-offs — expressed in the step dialect: each call step reads and
    rebinds the ``data`` variable over a synchronous HTTP round-trip,
    and every step (not every transition) is billed.
    """

    name = "GCP-Flows"
    platform = "gcp"
    stateful = True
    description = ("Workflow implementation using GCP Workflows, calling "
                   "Cloud Functions from each step.")
    function_count = 4
    code_size_mb = 271.2

    workflow_name = "ml-training"

    def __init__(self, testbed: Testbed, workload: MLWorkload):
        super().__init__(testbed)
        self.workload = workload
        self.dataset_key = f"datasets/{workload.scale}"

    def setup(self) -> Generator:
        functions = self.testbed.cloudfunctions
        models = ml_work_models(self.workload.scale)
        stages = [
            ("gcp-ml-prepare", make_prepare_handler(self.workload)),
            ("gcp-ml-reduce", make_reduce_handler(self.workload)),
            ("gcp-ml-train", make_train_all_handler(self.workload)),
            ("gcp-ml-select", make_select_handler(self.workload)),
        ]
        for name, handler in stages:
            functions.register(FunctionSpec(
                name=name, handler=handler, memory_mb=1536,
                timeout_s=900.0, work_models=models))
        self.testbed.workflows.create_workflow(self.workflow_name, [
            {"name": "Prepare", "call": "gcp-ml-prepare",
             "args": "$.data", "result": "data"},
            {"name": "Reduce", "call": "gcp-ml-reduce",
             "args": "$.data", "result": "data"},
            {"name": "Train", "call": "gcp-ml-train",
             "args": "$.data", "result": "data"},
            {"name": "Select", "call": "gcp-ml-select",
             "args": "$.data", "result": "data"},
            {"name": "Done", "return": "$.data"},
        ])
        yield from self.testbed.gcp.blob.put(
            self.dataset_key, self.workload.train_dataset,
            size=self.workload.dataset_bytes)

    def invoke(self) -> Generator:
        run_id = self.next_run_id()
        started = self.testbed.now
        record = yield from self.testbed.workflows.execute(
            self.workflow_name,
            {"run_id": run_id, "dataset_key": self.dataset_key})
        if record.status != "SUCCEEDED":
            raise RuntimeError(
                f"GCP-Flows training failed: {record.error}")
        cold = _first_execution_delay(self.testbed.gcp.telemetry, started)
        return RunResult(
            deployment=self.name, started_at=started,
            finished_at=self.testbed.now, value=record.output,
            cold_start_delay=cold)


# ---------------------------------------------------------------------------
# Inference deployments (paper Figure 4 / Figure 9).
# ---------------------------------------------------------------------------

def make_inference_stage_handlers(workload: MLWorkload):
    """Stateless handlers for the inference path."""

    def apply_prepare(ctx, event) -> Generator:
        yield from ctx.blob.get(event["dataset_key"])
        yield from ctx.work("deserialize",
                            units=workload.test_dataset_bytes / MB)
        yield from ctx.work("apply_prepare")
        key = f"infer/{event['run_id']}/prepared"
        yield from ctx.blob.put(key, {"applied": True},
                                size=workload.prepared_bytes)
        return {"run_id": event["run_id"], "prepared_key": key}

    def apply_reduce(ctx, event) -> Generator:
        yield from ctx.blob.get(event["prepared_key"])
        yield from ctx.work("deserialize",
                            units=workload.prepared_bytes / MB)
        yield from ctx.work("apply_reduce")
        key = f"infer/{event['run_id']}/reduced"
        yield from ctx.blob.put(key, {"reduced": True},
                                size=workload.reduced_bytes)
        return {"run_id": event["run_id"], "reduced_key": key}

    def infer_from_blob(ctx, event) -> Generator:
        """AWS path: fetch the model from slow remote storage, predict.

        The model object is re-hydrated from its serialized form on every
        run — the cost Azure's live entities avoid (Fig 9 discussion).
        """
        yield from ctx.blob.get(event["reduced_key"])
        yield from ctx.blob.get(event["model_key"])
        yield from ctx.work("deserialize",
                            units=workload.reduced_bytes / MB)
        yield from ctx.work("load_model",
                            units=workload.best_model_bytes / MB)
        predictions = workload.pipeline.infer(workload.train_dataset,
                                              workload.test_dataset)
        yield from ctx.work("inference")
        return {"run_id": event["run_id"],
                "n_predictions": int(len(predictions))}

    def infer_stateless(ctx, event) -> Generator:
        """Azure path: the model object arrived from an entity."""
        yield from ctx.blob.get(event["reduced_key"])
        yield from ctx.work("deserialize",
                            units=workload.reduced_bytes / MB)
        predictions = workload.pipeline.infer(workload.train_dataset,
                                              workload.test_dataset)
        yield from ctx.work("inference")
        return {"run_id": event["run_id"],
                "n_predictions": int(len(predictions))}

    return apply_prepare, apply_reduce, infer_from_blob, infer_stateless


class AWSStepMLInference(Deployment):
    """AWS-Step inference: the model comes from slow remote storage."""

    name = "AWS-Step"
    platform = "aws"
    stateful = True
    description = "Inference workflow as a state machine."
    function_count = 3
    code_size_mb = 271.2

    machine_name = "ml-inference"
    model_key = "trained/best-model"

    def __init__(self, testbed: Testbed, workload: MLWorkload):
        super().__init__(testbed)
        self.workload = workload
        self.dataset_key = "datasets/test"

    def setup(self) -> Generator:
        workload = self.workload
        models = ml_work_models(workload.scale)
        (apply_prepare, apply_reduce,
         infer_from_blob, _) = make_inference_stage_handlers(workload)
        for name, handler in [("aws-infer-prepare", apply_prepare),
                              ("aws-infer-reduce", apply_reduce),
                              ("aws-infer-predict", infer_from_blob)]:
            self.testbed.lambdas.register(FunctionSpec(
                name=name, handler=handler, memory_mb=1536,
                timeout_s=900.0, work_models=models))
        self.testbed.stepfunctions.create_state_machine(self.machine_name, {
            "StartAt": "Prepare",
            "States": {
                "Prepare": {"Type": "Task", "Resource": "aws-infer-prepare",
                            "Next": "Reduce"},
                "Reduce": {"Type": "Task", "Resource": "aws-infer-reduce",
                           "Next": "Predict",
                           "ResultPath": "$"},
                "Predict": {"Type": "Task", "Resource": "aws-infer-predict",
                            "Parameters": {
                                "run_id.$": "$.run_id",
                                "reduced_key.$": "$.reduced_key",
                                "model_key": self.model_key},
                            "End": True},
            },
        })
        # The pre-trained model and test data live in S3.
        yield from self.testbed.aws.blob.put(
            self.model_key, workload.trained.best.model,
            size=workload.best_model_bytes)
        yield from self.testbed.aws.blob.put(
            self.dataset_key, workload.test_dataset,
            size=workload.test_dataset_bytes)

    def invoke(self) -> Generator:
        run_id = self.next_run_id()
        started = self.testbed.now
        record = yield from self.testbed.stepfunctions.start_execution(
            self.machine_name,
            {"run_id": run_id, "dataset_key": self.dataset_key})
        if record.status != "SUCCEEDED":
            raise RuntimeError(f"AWS-Step inference failed: {record.error}")
        cold = _first_execution_delay(self.testbed.aws.telemetry, started)
        return RunResult(
            deployment=self.name, started_at=started,
            finished_at=self.testbed.now, value=record.output,
            cold_start_delay=cold)


class GCPWorkflowsMLInference(Deployment):
    """GCP-Flows inference: the model comes from slow remote storage.

    Mirrors the AWS-Step inference shape — GCP Workflows has no live
    entities, so like AWS the model is re-hydrated from blob storage on
    every run; an assign step plays the role of ASL ``Parameters``,
    injecting the static model key into the document.
    """

    name = "GCP-Flows"
    platform = "gcp"
    stateful = True
    description = "Inference workflow as GCP Workflows steps."
    function_count = 3
    code_size_mb = 271.2

    workflow_name = "ml-inference"
    model_key = "trained/best-model"

    def __init__(self, testbed: Testbed, workload: MLWorkload):
        super().__init__(testbed)
        self.workload = workload
        self.dataset_key = "datasets/test"

    def setup(self) -> Generator:
        workload = self.workload
        models = ml_work_models(workload.scale)
        (apply_prepare, apply_reduce,
         infer_from_blob, _) = make_inference_stage_handlers(workload)
        for name, handler in [("gcp-infer-prepare", apply_prepare),
                              ("gcp-infer-reduce", apply_reduce),
                              ("gcp-infer-predict", infer_from_blob)]:
            self.testbed.cloudfunctions.register(FunctionSpec(
                name=name, handler=handler, memory_mb=1536,
                timeout_s=900.0, work_models=models))
        self.testbed.workflows.create_workflow(self.workflow_name, [
            {"name": "Prepare", "call": "gcp-infer-prepare",
             "args": "$.data", "result": "data"},
            {"name": "Reduce", "call": "gcp-infer-reduce",
             "args": "$.data", "result": "data"},
            {"name": "BindModel", "assign": [
                ["data", {"run_id": "$.data.run_id",
                          "reduced_key": "$.data.reduced_key",
                          "model_key": self.model_key}]]},
            {"name": "Predict", "call": "gcp-infer-predict",
             "args": "$.data", "result": "data"},
            {"name": "Done", "return": "$.data"},
        ])
        # The pre-trained model and test data live in Cloud Storage.
        yield from self.testbed.gcp.blob.put(
            self.model_key, workload.trained.best.model,
            size=workload.best_model_bytes)
        yield from self.testbed.gcp.blob.put(
            self.dataset_key, workload.test_dataset,
            size=workload.test_dataset_bytes)

    def invoke(self) -> Generator:
        run_id = self.next_run_id()
        started = self.testbed.now
        record = yield from self.testbed.workflows.execute(
            self.workflow_name,
            {"run_id": run_id, "dataset_key": self.dataset_key})
        if record.status != "SUCCEEDED":
            raise RuntimeError(
                f"GCP-Flows inference failed: {record.error}")
        cold = _first_execution_delay(self.testbed.gcp.telemetry, started)
        return RunResult(
            deployment=self.name, started_at=started,
            finished_at=self.testbed.now, value=record.output,
            cold_start_delay=cold)


class _AzureDurableMLInference(Deployment):
    """Common wiring for the two Azure durable inference variants."""

    platform = "azure"
    stateful = True
    function_count = 5
    code_size_mb = 304.0

    orchestrator_name = ""   # per subclass
    dataset_key = "datasets/test"

    def __init__(self, testbed: Testbed, workload: MLWorkload):
        super().__init__(testbed)
        self.workload = workload

    def _register_shared(self) -> Generator:
        workload = self.workload
        models = ml_work_models(workload.scale)
        (apply_prepare, apply_reduce,
         _, infer_stateless) = make_inference_stage_handlers(workload)
        app = self.testbed.app
        for name, handler in [("az-infer-prepare", apply_prepare),
                              ("az-infer-reduce", apply_reduce),
                              ("Inference", infer_stateless)]:
            if name not in app.function_names:
                app.register(FunctionSpec(
                    name=name, handler=handler, memory_mb=1536,
                    timeout_s=1800.0,
                    measured_memory_mb=AZURE_MEASURED_MEMORY["inference"],
                    work_models=models))
        self._register_inference_entities()
        yield from self.testbed.azure.blob.put(
            self.dataset_key, workload.test_dataset,
            size=workload.test_dataset_bytes)
        yield from self._seed_entity_states()

    def _register_inference_entities(self) -> None:
        workload = self.workload
        registered = self.testbed.durable.taskhub.entities
        models = ml_work_models(workload.scale)

        def encode_op(ctx, state, meta) -> Generator:
            yield from ctx.blob.get(meta["dataset_key"])
            yield from ctx.work("deserialize",
                                units=workload.test_dataset_bytes / MB)
            yield from ctx.work("apply_prepare")
            key = f"infer/{meta['run_id']}/prepared"
            yield from ctx.blob.put(key, {"applied": True},
                                    size=workload.prepared_bytes)
            return state, {"run_id": meta["run_id"], "prepared_key": key}

        def scale_op(ctx, state, meta) -> Generator:
            # Scaling is folded into encode time-wise; kept as its own
            # entity hop to mirror the paper's Figure 4 chain.
            yield from ctx.busy(0.05)
            return state, meta

        def decompose_op(ctx, state, meta) -> Generator:
            yield from ctx.blob.get(meta["prepared_key"])
            yield from ctx.work("deserialize",
                                units=workload.prepared_bytes / MB)
            yield from ctx.work("apply_reduce")
            key = f"infer/{meta['run_id']}/reduced"
            yield from ctx.blob.put(key, {"reduced": True},
                                    size=workload.reduced_bytes)
            return state, {"run_id": meta["run_id"], "reduced_key": key}

        def get_ref_op(ctx, state, _input) -> Generator:
            """Return a ≤64 KB model descriptor, not the multi-MB model.

            The paper's Figure 4 nominally passes the model object out of
            the entity, but a multi-MB model cannot cross the 64 KB
            durable message limit; the reference pattern is how the live
            state is handed to the stateless Inference activity.
            """
            yield from ctx.busy(0.01)
            return state, {"name": workload.trained.best.candidate.name,
                           "bytes": workload.best_model_bytes}

        specs = [
            EntitySpec("InferEncoding", {"encode": encode_op}),
            EntitySpec("InferScalar", {"scale": scale_op}),
            EntitySpec("InferDReduction", {"decompose": decompose_op}),
            EntitySpec("InferModel", {"get_ref": get_ref_op}),
        ]
        for spec in specs:
            if spec.name in registered:
                continue
            self.testbed.durable.register_entity(spec)
            fn = self.testbed.app.get_function(f"entity::{spec.name}")
            fn.work_models = models

    def _seed_entity_states(self) -> Generator:
        """Persist pre-trained artifacts into the entity table.

        Mirrors the paper's setup where the training workflow has already
        populated the entities the inference workflow reads.
        """
        workload = self.workload
        table = self.testbed.durable.taskhub.entity_table
        trained = workload.trained
        yield from table.insert("entity:InferEncoding", "OneHot",
                                trained.encoder)
        yield from table.insert("entity:InferScalar", "scalar",
                                trained.scaler)
        yield from table.insert("entity:InferDReduction", "PCA", trained.pca)
        yield from table.insert("entity:InferModel", "best_fit",
                                trained.best.model,
                                size=workload.best_model_bytes)

    def invoke(self) -> Generator:
        run_id = self.next_run_id()
        client = self.testbed.durable.client
        instance_id = yield from client.start_new(
            self.orchestrator_name,
            {"run_id": f"{self.name}-{run_id}",
             "dataset_key": self.dataset_key})
        value = yield from client.wait_for_completion(instance_id)
        instance = client.get_status(instance_id)
        return RunResult(
            deployment=self.name, started_at=instance.running_at,
            finished_at=instance.completed_at, value=value,
            cold_start_delay=instance.cold_start_delay)


class AzureDorchMLInference(_AzureDurableMLInference):
    """Az-Dorch inference: read entity states, run stateless activities.

    The paper's recommended pattern (§IV-A): "we used get operation to
    read the model, and then call a stateless and scalable activity
    (Inference) to do the prediction".
    """

    name = "Az-Dorch"
    description = "Durable orchestrator: entity gets + stateless activities."
    orchestrator_name = "ml-inference-dorch"

    def setup(self) -> Generator:
        yield from self._register_shared()

        def orchestrator(context):
            meta = context.input
            prepared = yield context.call_activity("az-infer-prepare", meta)
            reduced = yield context.call_activity("az-infer-reduce",
                                                  prepared)
            # Read the best-fit model from the entity that holds it (the
            # paper's §IV-A pattern: get the state out, run the heavy
            # read-only operation in a scalable stateless activity).
            model_ref = yield context.call_entity(
                EntityId("InferModel", "best_fit"), "get_ref")
            reduced = dict(reduced, model=model_ref)
            result = yield context.call_activity("Inference", reduced)
            return result

        self.testbed.durable.register_orchestrator(OrchestratorSpec(
            self.orchestrator_name, orchestrator, measured_memory_mb=256))


class AzureDentMLInference(_AzureDurableMLInference):
    """Az-Dent inference: the operations run inside the entities.

    The paper's Figure 4 chain — encode, scale, decompose as entity
    operations — which serializes on the entities and runs slower than
    Az-Dorch (Fig 9: +24 %).
    """

    name = "Az-Dent"
    description = "Durable orchestrator: operations inside entities."
    orchestrator_name = "ml-inference-dent"

    def setup(self) -> Generator:
        yield from self._register_shared()

        def orchestrator(context):
            meta = context.input
            prepared = yield context.call_entity(
                EntityId("InferEncoding", "OneHot"), "encode", meta)
            prepared = yield context.call_entity(
                EntityId("InferScalar", "scalar"), "scale", prepared)
            reduced = yield context.call_entity(
                EntityId("InferDReduction", "PCA"), "decompose", prepared)
            model_ref = yield context.call_entity(
                EntityId("InferModel", "best_fit"), "get_ref")
            reduced = dict(reduced, model=model_ref)
            result = yield context.call_activity("Inference", reduced)
            return result

        self.testbed.durable.register_orchestrator(OrchestratorSpec(
            self.orchestrator_name, orchestrator, measured_memory_mb=256))


# ---------------------------------------------------------------------------
# Builders and helpers.
# ---------------------------------------------------------------------------

def _first_execution_delay(telemetry, since: float) -> Optional[float]:
    """Trigger-to-first-function-start delay (the AWS cold-start metric).

    The earliest execution span the platform retained at or after
    ``since``, open or closed, whichever execution it belongs to.
    """
    first = telemetry.first_start(SpanKind.EXECUTION, since)
    return first - since if first is not None else None


#: every ML-training variant (Table II plus the GCP extension), by name
ML_TRAINING_DEPLOYMENTS: Dict[str, Type[Deployment]] = {
    "AWS-Lambda": AWSLambdaMLTraining,
    "AWS-Step": AWSStepMLTraining,
    "Az-Func": AzureFuncMLTraining,
    "Az-Queue": AzureQueueMLTraining,
    "Az-Dorch": AzureDorchMLTraining,
    "Az-Dent": AzureDentMLTraining,
    "GCP-Func": GCPFuncMLTraining,
    "GCP-Flows": GCPWorkflowsMLTraining,
}
#: the paper's three inference variants (Fig 9) plus GCP-Flows, by name
ML_INFERENCE_DEPLOYMENTS: Dict[str, Type[Deployment]] = {
    "AWS-Step": AWSStepMLInference,
    "Az-Dorch": AzureDorchMLInference,
    "Az-Dent": AzureDentMLInference,
    "GCP-Flows": GCPWorkflowsMLInference,
}


def build_ml_training_deployments(testbed: Testbed, scale: str,
                                  seed: int = 0) -> Dict[str, Deployment]:
    """All six Table II variants plus the GCP extension variants.

    Variants whose platform the testbed did not build (``platforms=``
    restriction) are omitted.
    """
    workload = ml_workload(scale, seed)
    return {name: cls(testbed, workload)
            for name, cls in ML_TRAINING_DEPLOYMENTS.items()
            if cls.platform in testbed.platform_names}


def build_ml_inference_deployments(testbed: Testbed, scale: str,
                                   seed: int = 0) -> Dict[str, Deployment]:
    """The paper's three inference variants (Fig 9) plus GCP-Flows."""
    workload = ml_workload(scale, seed)
    return {name: cls(testbed, workload)
            for name, cls in ML_INFERENCE_DEPLOYMENTS.items()
            if cls.platform in testbed.platform_names}

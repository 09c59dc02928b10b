"""Every typed error that crosses a process boundary must pickle clean.

Worker processes (ParallelRunner's per-spec workers) hand exceptions
back to the parent through pickle.  An error type that loses state in
that round trip turns a precise diagnosis into a bare
``TypeError: __init__() missing ...`` at the *receiving* end — the
failure mode this suite pins down for every error the workers can
raise, plus the fuzzer's own types.
"""

import pickle

import pytest

from repro.core.audit import CheckResult, InvariantViolation
from repro.core.checkpoint import JournalError
from repro.core.fuzz import FuzzError
from repro.core.mitigation import CircuitOpenError, MitigationTimeout
from repro.core.parallel import (
    CampaignSpec,
    SpecExecutionError,
    SpecTimeout,
    WorkerCrash,
)
from repro.core.persistence import SpecValidationError
from repro.platforms.base import (
    FunctionTimeout,
    LoadShedError,
    PayloadLimitExceeded,
    ThrottlingError,
)
from repro.platforms.faults import TransientFault

SPEC = CampaignSpec(deployment="AWS-Lambda", workload="ml-training",
                    iterations=1)


def _execution_failed():
    from repro.aws.stepfunctions import ExecutionFailed
    return ExecutionFailed("States.Timeout", cause="took too long")


def _orchestration_failed():
    from repro.azure.durable import OrchestrationFailedError
    return OrchestrationFailedError("activity blew up")


def _queue_full():
    from repro.storage.queue import QueueFullError
    return QueueFullError("queue 'work' is full")


def _invariant_violation():
    violation = CheckResult("billing_soundness", False, "overbilled",
                            evidence=("charge 3 has no span",))
    return InvariantViolation([violation], spec_hash="a" * 64,
                              repro_hint="echo '{}' | repro fuzz shrink -")


ERRORS = [
    pytest.param(lambda: SpecExecutionError(SPEC, "ValueError: boom",
                                            "Traceback ..."),
                 id="SpecExecutionError"),
    pytest.param(lambda: WorkerCrash(SPEC, "killed by signal 9"),
                 id="WorkerCrash"),
    pytest.param(lambda: SpecTimeout(SPEC, 4.0), id="SpecTimeout"),
    pytest.param(_invariant_violation, id="InvariantViolation"),
    pytest.param(lambda: SpecValidationError("fanout", "must be int"),
                 id="SpecValidationError"),
    pytest.param(lambda: FunctionTimeout("fn timed out after 3 s"),
                 id="FunctionTimeout"),
    pytest.param(lambda: LoadShedError("deadline shed"),
                 id="LoadShedError"),
    pytest.param(lambda: ThrottlingError("429", retry_after_s=1.5),
                 id="ThrottlingError"),
    pytest.param(lambda: PayloadLimitExceeded(2048, 1024, "workflow"),
                 id="PayloadLimitExceeded"),
    pytest.param(lambda: TransientFault("transient fault in reduce"),
                 id="TransientFault"),
    pytest.param(_execution_failed, id="ExecutionFailed"),
    pytest.param(_orchestration_failed, id="OrchestrationFailedError"),
    pytest.param(_queue_full, id="QueueFullError"),
    pytest.param(lambda: CircuitOpenError("breaker aws.f open"),
                 id="CircuitOpenError"),
    pytest.param(lambda: MitigationTimeout("deadline 3 s expired"),
                 id="MitigationTimeout"),
    pytest.param(lambda: JournalError("manifest mismatch"),
                 id="JournalError"),
    pytest.param(lambda: FuzzError("corpus entry checksum mismatch"),
                 id="FuzzError"),
]


@pytest.mark.parametrize("build", ERRORS)
def test_error_survives_pickle_round_trip(build):
    original = build()
    clone = pickle.loads(pickle.dumps(original))
    assert type(clone) is type(original)
    assert str(clone) == str(original)
    # Every attribute the sender set must arrive; repr-compare so
    # nested specs/violations compare by value.
    assert {k: repr(v) for k, v in vars(clone).items()} == \
           {k: repr(v) for k, v in vars(original).items()}


def test_spec_execution_error_keeps_spec_and_hint():
    original = SpecExecutionError(SPEC, "ValueError: boom", "tb")
    clone = pickle.loads(pickle.dumps(original))
    assert clone.spec == SPEC
    assert clone.repro_hint == original.repro_hint
    assert "fuzz shrink" in clone.repro_hint


def test_spec_validation_error_keeps_key_and_detail():
    clone = pickle.loads(pickle.dumps(
        SpecValidationError("fault_plan", "entry 2 is not a pair")))
    assert clone.key == "fault_plan"
    assert clone.detail == "entry 2 is not a pair"
    assert "fault_plan" in str(clone)


def test_invariant_violation_keeps_spec_evidence():
    clone = pickle.loads(pickle.dumps(_invariant_violation()))
    assert clone.spec_hash == "a" * 64
    assert clone.repro_hint.endswith("repro fuzz shrink -")
    assert clone.violations[0].invariant == "billing_soundness"
    assert "spec:" in str(clone) and "repro:" in str(clone)

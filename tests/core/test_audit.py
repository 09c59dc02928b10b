"""The invariant auditor: clean runs audit clean, seeded bugs are caught.

Acceptance bar for the audit layer:

* every campaign type on both platforms finishes with all six invariants
  green (no false positives — the full suite runs audited via conftest);
* a seeded delivery-semantics mutation (broker duplication enabled while
  completion dedupe is disabled) raises :class:`InvariantViolation` with
  an evidence trail naming the duplicated completions;
* audit verdicts are bit-identical across the serial runner, the
  :class:`ParallelRunner` worker pool and cache replay.
"""

import pickle

import pytest

from repro.core import audit as audit_mod
from repro.core.audit import (
    InvariantViolation,
    collect_violations,
    enabled_for,
    merge_reports,
)
from repro.core.cache import ResultCache
from repro.core.parallel import (CampaignSpec, ParallelRunner,
                                 SpecExecutionError, execute_spec)
from repro.core.persistence import to_document
from repro.platforms.faults import FaultPlan

pytestmark = pytest.mark.audit


def latency_spec(variant, **kwargs):
    kwargs.setdefault("audit", True)
    return CampaignSpec(deployment=variant, workload="ml-training",
                        scale="small", iterations=2, seed=13, **kwargs)


def chaos_plan(**kwargs):
    kwargs.setdefault("error_probability", 0.2)
    kwargs.setdefault("retry_max_attempts", 3)
    return FaultPlan(**kwargs)


def broken_dedupe_spec(seed=5):
    """A fault plan that duplicates completions AND disables the dedupe:
    every activity result is processed (and billed) more than once."""
    plan = FaultPlan(queue_duplication_probability=1.0,
                     completion_dedupe=False)
    return CampaignSpec(deployment="Az-Dorch", workload="ml-training",
                        scale="small", iterations=2, seed=seed,
                        campaign="reliability", fault_plan=plan.to_items(),
                        audit=True)


# -- module knobs ------------------------------------------------------------------

def test_enabled_for_tristate():
    assert enabled_for(True) is True
    assert enabled_for(False) is False
    assert enabled_for(None) is audit_mod.DEFAULT_AUDIT


def test_conftest_turns_the_default_on():
    # The suite-wide fixture: unspecified specs audit during tests.
    assert audit_mod.DEFAULT_AUDIT is True


def test_collect_violations_restores_the_flag():
    assert audit_mod.RAISE_ON_VIOLATION is True
    with collect_violations():
        assert audit_mod.RAISE_ON_VIOLATION is False
    assert audit_mod.RAISE_ON_VIOLATION is True


# -- clean runs audit clean --------------------------------------------------------

@pytest.mark.parametrize("variant", ["AWS-Lambda", "AWS-Step", "Az-Func",
                                     "Az-Queue", "Az-Dorch", "Az-Dent"])
def test_clean_latency_run_has_no_violations(variant):
    outcome = execute_spec(latency_spec(variant))
    report = outcome.audit
    assert report is not None and report.passed
    assert report.arrivals == 3                 # warmup + iterations
    assert dict(report.outcomes)["succeeded"] == 3
    assert {check.invariant for check in report.checks} == set(
        audit_mod.INVARIANTS)


def test_faulted_reliability_run_audits_clean():
    spec = CampaignSpec(deployment="Az-Dorch", workload="ml-training",
                        scale="small", iterations=2, seed=11,
                        campaign="reliability",
                        fault_plan=chaos_plan().to_items(), audit=True)
    report = execute_spec(spec).audit
    assert report is not None and report.passed


def test_unaudited_spec_attaches_no_report():
    outcome = execute_spec(latency_spec("AWS-Lambda", audit=False))
    assert outcome.audit is None


# -- the seeded mutation is caught -------------------------------------------------

def test_broken_dedupe_raises_invariant_violation():
    with pytest.raises(InvariantViolation) as error:
        execute_spec(broken_dedupe_spec())
    violated = {check.invariant for check in error.value.violations}
    assert "delivery_semantics" in violated
    evidence = "\n".join(item for check in error.value.violations
                         for item in check.evidence)
    assert "completion" in evidence and "seq" in evidence


def test_collect_violations_reports_instead_of_raising():
    with collect_violations():
        outcome = execute_spec(broken_dedupe_spec())
    report = outcome.audit
    assert report is not None and not report.passed
    assert any(check.invariant == "delivery_semantics"
               for check in report.violations)


def test_invariant_violation_survives_pickling():
    with collect_violations():
        report = execute_spec(broken_dedupe_spec()).audit
    error = InvariantViolation(report.violations, report)
    clone = pickle.loads(pickle.dumps(error))
    assert clone.violations == error.violations
    assert str(clone) == str(error)


def test_worker_pool_propagates_violations():
    """A violation in a worker process must fail the batch, not be
    swallowed by the runner's serial-fallback exception net.  The pool
    surfaces it as a typed per-spec failure naming the failing spec."""
    specs = [broken_dedupe_spec(seed=5), broken_dedupe_spec(seed=6)]
    with pytest.raises(SpecExecutionError) as excinfo:
        ParallelRunner(workers=2, cache=None).run(specs)
    assert excinfo.value.spec_hash == specs[0].spec_hash()
    assert specs[0].spec_hash()[:12] in str(excinfo.value)
    assert "InvariantViolation" in excinfo.value.message


# -- bit-identical verdicts across execution paths ---------------------------------

def test_verdicts_identical_serial_parallel_and_cache(tmp_path):
    specs = [latency_spec("AWS-Step"), latency_spec("Az-Dorch")]
    serial = [execute_spec(spec).audit for spec in specs]

    pooled = [outcome.audit for outcome in
              ParallelRunner(workers=2, cache=None).run(specs)]

    cache = ResultCache(tmp_path)
    runner = ParallelRunner(workers=1, cache=cache)
    runner.run(specs)                       # populate
    replayed = runner.run(specs)            # replay
    assert all(outcome.cached for outcome in replayed)
    cached = [outcome.audit for outcome in replayed]

    for report in (*pooled, *cached):
        assert report is not None
    assert [r.verdicts() for r in serial] == [r.verdicts() for r in pooled]
    assert [to_document(r, "audit") for r in serial] == [
        to_document(r, "audit") for r in pooled]
    assert [to_document(r, "audit") for r in serial] == [
        to_document(r, "audit") for r in cached]


def test_merge_reports_counts_passes_and_violations():
    clean = execute_spec(latency_spec("AWS-Lambda")).audit
    with collect_violations():
        dirty = execute_spec(broken_dedupe_spec()).audit
    merged = merge_reports([clean, dirty, None])
    passes, fails = merged["delivery_semantics"]
    assert (passes, fails) == (1, 1)
    assert merged["clock_monotonicity"] == (2, 0)


# -- spec validation (audit + telemetry interplay) ---------------------------------

def test_audit_spec_rejects_disabled_telemetry_spans():
    with pytest.raises(ValueError, match="telemetry"):
        CampaignSpec(deployment="AWS-Lambda", iterations=2, audit=True,
                     calibration_overrides={"aws.telemetry_spans": False})


def test_telemetry_override_fine_without_audit():
    spec = CampaignSpec(deployment="AWS-Lambda", iterations=2, audit=False,
                        calibration_overrides={
                            "aws.telemetry_spans": False})
    assert dict(spec.calibration_overrides)["aws.telemetry_spans"] is False

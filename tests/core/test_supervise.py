"""Tests for the runner's worker mode: crashes, stalls, timeouts, signals.

Worker mode's contract is graceful degradation with bit-exact
recovery: SIGKILLed workers are restarted and the sweep's outcomes match
an undisturbed serial run; deterministic failures surface as typed
per-spec errors without discarding sibling work; SIGINT leaves a journal
holding every completed outcome, resumable to a bit-identical result.

The chaos tests kill this test run's *own* worker processes (seeded, so
the kill schedule is reproducible); the SIGINT test drives a real
``python -m repro`` subprocess.
"""

import importlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core import (
    CampaignSpec,
    ChaosPlan,
    ParallelRunner,
    ResultCache,
    SpecTimeout,
    SweepJournal,
)
from repro.core.parallel import SpecExecutionError
from repro.core.persistence import payload_checksum

from tests.core.test_parallel import outcome_blob

pytestmark = pytest.mark.supervise

REPO_ROOT = Path(__file__).resolve().parents[2]

# The module itself: ``repro.core`` re-exports a workflow helper named
# ``parallel``, which shadows the submodule as a package attribute.
runner_module = importlib.import_module("repro.core.parallel")


def sweep_specs(count=3, seed=31):
    names = ["AWS-Lambda", "Az-Dorch", "AWS-Step", "Az-Func"]
    return [CampaignSpec(deployment=names[i % len(names)], iterations=2,
                         warmup=0, seed=seed + i)
            for i in range(count)]


def broken_spec(seed=0):
    """A spec that fails deterministically at execution time."""
    return CampaignSpec(deployment="AWS-Lambda", iterations=1, warmup=0,
                        seed=seed, invoke_kwargs={"bogus_kwarg": 1})


# -- baseline: drop-in equivalence -----------------------------------------------

def test_supervised_pool_is_bit_identical_to_serial(tmp_path):
    specs = sweep_specs(3)
    reference = [outcome_blob(outcome)
                 for outcome in ParallelRunner(workers=1).run(specs)]
    result = ParallelRunner(workers=2).sweep(specs)
    assert result.ok and result.completed == result.outcomes
    assert [outcome_blob(outcome) for outcome in result.outcomes] == \
        reference


def test_runner_validates_parameters():
    with pytest.raises(ValueError):
        ParallelRunner(workers=0)
    with pytest.raises(ValueError):
        ParallelRunner(spec_timeout_s=0.0)
    with pytest.raises(ValueError):
        ParallelRunner(max_restarts=-1)
    with pytest.raises(ValueError):
        ChaosPlan(kill_probability=1.5)
    with pytest.raises(ValueError):
        ChaosPlan(kill_after_s=-1.0)


# -- typed failure taxonomy ------------------------------------------------------

def test_deterministic_failure_is_typed_and_spares_siblings(tmp_path):
    """A spec that raises fails once — no retry, it is deterministic —
    while its siblings complete, journal and cache as usual."""
    good = sweep_specs(1)[0]
    specs = [broken_spec(), good]
    cache = ResultCache(tmp_path / "cache")
    journal = SweepJournal(tmp_path / "j")
    result = ParallelRunner(workers=2, cache=cache,
                            journal=journal).sweep(specs)

    assert not result.ok
    assert result.outcomes[0] is None
    assert outcome_blob(result.outcomes[1]) == \
        outcome_blob(ParallelRunner(workers=1).run([good])[0])

    [failure] = result.failures
    assert failure.index == 0
    assert failure.kind == "SpecExecutionError"
    assert failure.attempts == 1                 # deterministic: no retry
    assert specs[0].spec_hash()[:12] in str(failure)
    with pytest.raises(SpecExecutionError):
        result.raise_if_failed()

    # The completed sibling survived the failure in both stores.
    assert sorted(journal.completed(specs)) == [1]
    assert cache.get(good) is not None


def test_spec_timeout_kills_retries_then_fails_typed(tmp_path,
                                                     monkeypatch):
    """A wall-clock deadline the spec cannot meet burns the whole
    restart budget and surfaces as a SpecTimeout failure."""
    monkeypatch.setattr(runner_module, "BACKOFF_BASE_S", 0.0)
    monkeypatch.setattr(runner_module, "STALL_TIMEOUT_S", None)
    spec = CampaignSpec(deployment="Az-Dorch", iterations=40, warmup=0,
                        seed=3)
    runner = ParallelRunner(workers=1, spec_timeout_s=0.01,
                            max_restarts=1)
    result = runner.sweep([spec])
    assert not result.ok and result.outcomes == [None]
    [failure] = result.failures
    assert failure.kind == "SpecTimeout"
    assert failure.attempts == 2                 # first try + one restart
    assert isinstance(failure.error, SpecTimeout)
    assert spec.spec_hash()[:12] in str(failure.error)


# -- in-process degradation ------------------------------------------------------

def test_first_launch_failure_degrades_inline_without_losing_specs(
        monkeypatch, tmp_path):
    """When the very first worker launch fails (sandboxed interpreter),
    the runner degrades to in-process execution — including the spec
    whose launch attempt triggered the degradation.  Regression: that
    spec was popped from the queue and lost, leaving a silent None hole
    in an ok PartialSweepResult."""
    specs = sweep_specs(3)
    reference = [outcome_blob(outcome)
                 for outcome in ParallelRunner(workers=1).run(specs)]

    def refuse_to_spawn(self, context, task, kills):
        raise OSError("process spawning forbidden")

    monkeypatch.setattr(ParallelRunner, "_launch", refuse_to_spawn)
    journal = SweepJournal(tmp_path / "j")
    result = ParallelRunner(workers=2, journal=journal).sweep(specs)

    assert result.ok, [str(failure) for failure in result.failures]
    assert all(outcome is not None for outcome in result.outcomes)
    assert [outcome_blob(outcome) for outcome in result.outcomes] == \
        reference
    assert journal.is_complete()


def test_drain_reports_discarded_error_messages(capsys):
    """An ('error', ...) message sitting in a worker pipe at interrupt
    time is deterministic — resume will only reproduce it — so the
    drain reports the broken spec to stderr instead of silently
    dropping the message."""
    import multiprocessing

    from repro.core.parallel import _Task, _Worker

    class _DoneProcess:
        def is_alive(self):
            return False

        def join(self, timeout=None):
            pass

    parent_conn, child_conn = multiprocessing.Pipe(duplex=False)
    child_conn.send(("error", "ValueError: boom", "traceback"))
    child_conn.close()
    spec = broken_spec()
    worker = _Worker(_Task(0, spec), _DoneProcess(), parent_conn,
                     heartbeat=None, deadline=None, kill_at=None)

    outcomes = [None]
    ParallelRunner(workers=1)._drain_and_stop([worker], outcomes)

    stderr = capsys.readouterr().err
    assert spec.spec_hash()[:12] in stderr
    assert "fail again on resume" in stderr
    assert "ValueError: boom" in stderr
    assert outcomes == [None]


# -- self-chaos: SIGKILL recovery ------------------------------------------------

def test_chaos_sigkill_recovery_is_bit_identical(tmp_path, monkeypatch):
    """Every spec's first attempt is SIGKILLed; the sweep still
    completes with outcomes bit-identical to the serial runner and a
    consistent, fully-checksummed journal."""
    specs = sweep_specs(3, seed=47)
    reference = [outcome_blob(outcome)
                 for outcome in ParallelRunner(workers=1).run(specs)]

    journal = SweepJournal(tmp_path / "j")
    chaos = ChaosPlan(kill_probability=1.0, kill_after_s=0.0,
                      max_kills_per_spec=1, seed=5)
    monkeypatch.setattr(runner_module, "BACKOFF_BASE_S", 0.0)
    runner = ParallelRunner(workers=2, journal=journal, chaos=chaos,
                            max_restarts=2)
    result = runner.sweep(specs)

    assert result.ok, [str(failure) for failure in result.failures]
    assert [outcome_blob(outcome) for outcome in result.outcomes] == \
        reference
    # Journal consistency: complete, checksum-verified, no quarantine.
    assert journal.is_complete()
    assert not list(journal.quarantine_dir.glob("*"))
    assert [outcome_blob(outcome) for outcome in journal.outcomes()] == \
        reference


def test_chaos_kill_schedule_is_seeded():
    plan = ChaosPlan(kill_probability=0.5, seed=9, max_kills_per_spec=3)
    first = [plan.should_kill(i, 1, 0) for i in range(32)]
    assert first == [plan.should_kill(i, 1, 0) for i in range(32)]
    assert any(first) and not all(first)
    assert not plan.should_kill(0, 1, 3)         # kill budget spent


# -- whole-process SIGINT --------------------------------------------------------

def _journal_entries(journal_root: Path):
    return sorted((journal_root / "entries").glob("*.json"))


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
def test_sigint_flushes_journal_and_resume_is_bit_identical(tmp_path):
    """Ctrl-C mid-sweep: the process exits 130, every journal entry is
    intact (no torn writes), and resuming merges to the same outcomes
    an uninterrupted run produces."""
    journal_root = tmp_path / "journal"
    command = [sys.executable, "-m", "repro", "latency",
               "--iterations", "200", "--variants",
               "AWS-Lambda,AWS-Step,Az-Func,Az-Queue,Az-Dorch,Az-Dent",
               "--journal", str(journal_root), "--no-cache", "-j", "2"]
    env = dict(os.environ,
               PYTHONPATH=str(REPO_ROOT / "src"),
               REPRO_CACHE_DIR=str(tmp_path / "unused-cache"))
    process = subprocess.Popen(command, cwd=str(REPO_ROOT), env=env,
                               stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True)
    try:
        # Wait until some progress is journaled, then interrupt.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if process.poll() is not None:
                break
            if len(_journal_entries(journal_root)) >= 1:
                break
            time.sleep(0.05)
        assert process.poll() is None, \
            f"sweep finished before it could be interrupted:\n" \
            f"{process.communicate()[1]}"
        process.send_signal(signal.SIGINT)
        stdout, stderr = process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()

    assert process.returncode == 130, (stdout, stderr)
    assert "repro resume" in stderr

    # No torn entries: every journal file parses and self-checksums.
    entries = _journal_entries(journal_root)
    assert entries, "SIGINT flushed nothing to the journal"
    for path in entries:
        document = json.loads(path.read_text())
        assert document["checksum"] == \
            payload_checksum(document["outcome"])

    # Resume re-runs only the missing specs; merged outcomes match an
    # uninterrupted serial run bit for bit.
    journal = SweepJournal(journal_root)
    specs = journal.open().specs()
    done_before = set(journal.completed(specs))
    result = ParallelRunner(workers=2, journal=journal).resume()
    assert result.ok
    assert journal.is_complete()
    assert not list(journal.quarantine_dir.glob("*"))
    assert {index for index, outcome in enumerate(result.outcomes)
            if outcome.cached} >= done_before

    reference = ParallelRunner(workers=1).run(specs)
    assert [outcome_blob(outcome) for outcome in result.outcomes] == \
        [outcome_blob(outcome) for outcome in reference]

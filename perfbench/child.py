"""One measured repetition, in a fresh interpreter.

Started by ``run.py`` with a JSON job on standard input; prints one JSON
result line.  A fresh process per repetition keeps the program's
process-wide memos (workload artifacts, detections, run-id counters)
from carrying over between repetitions, as they would not for a user
running one command.

Timeline: the parent stamps ``launched`` (monotonic clock, shared by
all processes on the host) just before starting this interpreter, so
``setup_s`` covers interpreter start, ``import repro`` and building the
workload's artifacts.  The timed region then runs the spec list once:
``execute_spec`` per spec (``serial`` mode), or ``ParallelRunner(
workers=1)`` over an empty ``ResultCache``, a cold pass then a warm
pass (``runner`` mode).  A ruler reading (``ruler.py``) is taken first
thing, when set-up is done and after every execution; the ruler's time
is left out of every timed interval.  Outcome checksums are taken after
the timed region.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

import ruler  # noqa: E402 - next to this file


def run_specs(specs, mode, cache_dir, execute, before, read_ruler,
              spans=None):
    """Run the spec list; returns ``(spec index, outcome, error, wall
    seconds, CPU seconds, ruler speed)`` per execution, in order (two
    passes in ``runner`` mode).  ``before`` is the ruler reading taken
    just before the first execution; ``read_ruler()`` takes one after
    each, and the speed is the ruler's around the execution."""
    from repro.core.cache import ResultCache
    from repro.core.parallel import ParallelRunner

    def call(name, function, *args):
        if spans is None:
            return function(*args)
        return spans.span(name, function, *args)

    runner = None
    if mode == "runner":
        cache = ResultCache(cache_dir)
        if spans is not None:
            get, put = cache.get, cache.put
            cache.get = lambda spec: call("cache.get", get, spec)
            cache.put = lambda spec, outcome: call("cache.put", put, spec,
                                                   outcome)
        runner = ParallelRunner(workers=1, cache=cache)

    executions = []
    for _ in range(1 if runner is None else 2):
        for index, spec in enumerate(specs):
            if spans is not None:
                spans.current = index
            outcome, error = None, None
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                if runner is None:
                    outcome = call("spec", execute, spec)
                else:
                    outcome = call("spec", runner.run, [spec])[0]
            except Exception as raised:  # noqa: BLE001 - reported per spec
                error = f"{type(raised).__name__}: {raised}"
            wall, cpu = (time.perf_counter() - wall0,
                         time.process_time() - cpu0)
            after = read_ruler()
            executions.append((index, outcome, error, wall, cpu,
                               ruler.speed(before, after)))
            before = after
    return executions


def verdict(outcome, error):
    """``(checksum, error)`` of one execution: audited and checksummed."""
    from repro.core.persistence import outcome_to_dict, payload_checksum

    if error is not None:
        return None, error
    if outcome.audit is None:
        return None, "no audit report"
    if not outcome.audit.passed:
        broken = [check.invariant for check in outcome.audit.violations]
        return None, f"audit failed: {broken}"
    return payload_checksum(outcome_to_dict(outcome)), None


def trace_metrics(profile, probes, spans, executions) -> dict:
    """Per-layer self time, counts and harness span totals."""
    import pstats

    import layers

    stats = pstats.Stats(profile).stats
    src = str(SRC)
    buckets = layers.attribute_self_time(stats, src)
    self_s = {layer: 0.0 for layer in layers.LAYERS}
    for (layer, _), seconds in buckets.items():
        self_s[layer] += seconds
    calls = {
        "workloads.detect_frame.calls": layers.call_count(
            stats, src, "repro.workloads", "detect_frame"),
        "workloads.payload_size.calls": layers.call_count(
            stats, src, "repro.workloads", "payload_size"),
        "storage.estimate_size.calls": layers.call_count(
            stats, src, "repro.storage", "estimate_size"),
    }
    return {
        "self_s": self_s,
        "audit_s": sum(seconds for (_, module), seconds in buckets.items()
                       if module == layers.AUDIT_MODULE),
        "counts": dict(probes.counts, **calls),
        "transactions": sum(outcome.cost.transaction_count
                            for _, outcome, *_ in executions
                            if outcome is not None and not outcome.cached),
        "spans": {name: spans.total(name) for name in
                  ("execute_spec", "cache.get", "cache.put", "codec")},
    }


def main() -> int:
    job = json.loads(sys.stdin.read())
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    reading_began = time.monotonic()
    first = ruler.reading()
    ruler_s = time.monotonic() - reading_began
    import importlib

    import workloads
    from repro.core.persistence import spec_from_dict

    # ``repro.core.parallel`` the module; the package re-exports a
    # workflow helper under the same name.
    parallel = importlib.import_module("repro.core.parallel")

    specs = [spec_from_dict(data) for data in job["specs"]]
    workloads.build_artifacts(specs)
    setup_s = time.monotonic() - job["launched"] - ruler_s
    ready = ruler.reading()

    traced = bool(job["trace"])
    execute = plain_execute = parallel.execute_spec
    spans = probes = profile = None
    if traced:
        import cProfile

        import layers
        spans, probes = layers.Spans(), layers.Probes()
        profile = cProfile.Profile()
        probes.install()

        def execute(spec):
            try:
                return spans.span("execute_spec", plain_execute, spec)
            finally:
                # Reading the testbeds' counters is not the program's
                # work: keep it out of the profile.
                profile.disable()
                probes.harvest()
                profile.enable()

        # The runner looks execute_spec up in its module at call time.
        parallel.execute_spec = execute

    read_ruler = ruler.reading
    if traced:
        def read_ruler():
            profile.disable()
            try:
                return ruler.reading()
            finally:
                profile.enable()

    try:
        if traced:
            profile.enable()
        executions = run_specs(specs, workloads.WORKLOADS[job["workload"]],
                               job["tmp"], execute, ready, read_ruler,
                               spans)
        if traced:
            profile.disable()
    finally:
        if traced:
            probes.uninstall()
            parallel.execute_spec = plain_execute
        shutil.rmtree(job["tmp"], ignore_errors=True)

    results = []
    for index, outcome, error, spec_wall, spec_cpu, speed in executions:
        if spans is not None:
            spans.current = index
            checksum, error = spans.span("codec", verdict, outcome, error)
        else:
            checksum, error = verdict(outcome, error)
        results.append({"spec": index, "checksum": checksum,
                        "error": error,
                        "cached": bool(outcome is not None
                                       and outcome.cached),
                        "wall_s": spec_wall, "cpu_s": spec_cpu,
                        "ruler_wall_s": speed[0], "ruler_cpu_s": speed[1]})
    result = {
        "setup_s": setup_s,
        "setup_ruler_s": ruler.speed(first, ready)[0],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "results": results,
    }
    if traced:
        result["trace"] = trace_metrics(profile, probes, spans, executions)
        if job.get("trace_out"):
            Path(job["trace_out"]).write_text(
                json.dumps(spans.chrome_trace()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

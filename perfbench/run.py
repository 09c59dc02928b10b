"""Host-time benchmark of the laboratory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (``--workload all`` runs each in turn) for about
``--seconds`` seconds: a fixed number of repetitions per workload, each
in a fresh child interpreter, one at a time, each running the
workload's spec list serially with BLAS/OpenMP pinned to one thread.
Times are in reference seconds (see ``ruler.py``).  Every outcome is
audited and its checksum compared with the recorded reference for the
seed (a seed without one is reported as unverified), with the other
repetitions and, in a traced run, with the untraced children.  Prints
each metric by name with its unit, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  Exits 1 when any
check fails, 2 when the program cannot be imported.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced children and reports the per-layer metrics of the
traced ones (see ``README.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
TMP = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"

#: the benchmark's definition: metric names and units, run length
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import ruler  # noqa: E402 - next to this file

#: a run stops starting children once it would last this many times
#: ``--seconds`` (a host slowed that much for the whole run), or
#: ``HARD_LIMIT_S``, so that it exits well within three minutes
SLOW_HOST_FACTOR = 2.0
HARD_LIMIT_S = 150.0
#: a traced child takes about this many untraced children's time
TRACE_COST = 2
#: BLAS/OpenMP pools pinned to one thread in every child
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class ChildFailed(RuntimeError):
    """A child interpreter crashed, timed out or printed no result."""


def load_references(path: Path, workload: str,
                    seed: int) -> Optional[List[str]]:
    """Recorded checksums of the workload's specs for ``seed``, if any."""
    try:
        recorded = json.loads(path.read_text())
    except OSError:
        return None
    return recorded["workloads"].get(workload, {}).get(str(seed))


def run_child(workload: str, specs: List[dict], trace: bool,
              timeout: float, trace_out: Optional[Path] = None) -> dict:
    """One repetition in a fresh interpreter; returns its result."""
    TMP.mkdir(exist_ok=True)
    tmp = TMP / f"{os.getpid()}-{time.monotonic_ns()}"
    env = dict(os.environ, **{name: "1" for name in THREAD_VARS})
    job = {"workload": workload, "specs": specs, "trace": trace,
           "tmp": str(tmp),
           "trace_out": str(trace_out) if trace_out else None,
           "launched": time.monotonic()}
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py")], input=json.dumps(job),
            capture_output=True, text=True, env=env, cwd=str(ROOT),
            timeout=timeout)
    except subprocess.TimeoutExpired as error:
        raise ChildFailed(f"timed out after {timeout:.0f} s") from error
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"exit {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["duration_s"] = time.monotonic() - started
    return result


def check(children: List[dict], references: Optional[List[str]],
          runner: bool) -> List[str]:
    """Every execution's failure reason (empty when all pass).

    An execution fails when its spec raised or failed its audit, when
    its checksum differs from the reference or from the same spec's in
    another child (traced children included), or when a warm runner
    pass missed the cache.
    """
    failures = []
    seen: Dict[int, str] = {}
    for child in children:
        passes: Dict[int, int] = {}
        for result in child["results"]:
            index = result["spec"]
            passes[index] = passes.get(index, 0) + 1
            checksum = result["checksum"]
            if result["error"]:
                failures.append(f"spec {index}: {result['error']}")
            elif references is not None and checksum != references[index]:
                failures.append(f"spec {index}: checksum {checksum[:12]} "
                                f"differs from the reference "
                                f"{references[index][:12]}")
            elif seen.setdefault(index, checksum) != checksum:
                failures.append(f"spec {index}: checksum {checksum[:12]} "
                                f"differs from another repetition's "
                                f"{seen[index][:12]}")
            elif runner and passes[index] == 2 and not result["cached"]:
                failures.append(f"spec {index}: warm pass missed the cache")
    return failures


def repetitions(workload: str, seconds: float) -> int:
    """Children a run starts: the workload's fixed count for a run of
    ``run_seconds``, scaled to ``seconds``, at least one.  It depends
    on nothing measured, so two commits are compared over the same
    number of repetitions."""
    import workloads

    return max(1, round(workloads.REPETITIONS[workload] * seconds
                        / BENCH["run_seconds"]))


def reference_s(result: dict, clock: str) -> float:
    """One execution's ``wall`` or ``cpu`` time in reference seconds."""
    return (result[f"{clock}_s"] * ruler.REFERENCE_S
            / result[f"ruler_{clock}_s"])


def run_time(children: List[dict], clock: str, convert=reference_s) -> float:
    """The spec list's time: each execution's lower quartile over the
    repetitions (the ``N // 4``-th fastest of ``N``, from 0), summed.

    The ruler takes out most of the contention that lasts seconds or
    more.  What it leaves is skewed: contention that comes and goes
    within a second only ever adds time, so the faster repetitions are
    the steadier estimate.  The fastest alone is not: a burst during a
    ruler reading makes an execution look fast in reference seconds.
    The median repetition is printed alongside.
    """
    per_execution = zip(*[[convert(result, clock)
                           for result in child["results"]]
                          for child in children])
    return sum(sorted(times)[len(times) // 4] for times in per_execution)


def raw_s(result: dict, clock: str) -> float:
    return result[f"{clock}_s"]


def run_total(child: dict, convert=reference_s) -> float:
    """One repetition's wall time for the whole spec list."""
    return sum(convert(result, "wall") for result in child["results"])


def end_to_end(children: List[dict], attempted: int,
               failed: int) -> Dict[str, float]:
    return {
        "wall_s": run_time(children, "wall"),
        "cpu_s": run_time(children, "cpu"),
        "setup_s": statistics.median(
            c["setup_s"] * ruler.REFERENCE_S / c["setup_ruler_s"]
            for c in children),
        "peak_rss_mb": statistics.median(c["peak_rss_kb"] / 1024.0
                                         for c in children),
        "ok_frac": 1.0 - failed / attempted,
    }


def per_layer(traced: List[dict], untraced: List[dict]) -> Dict[str, float]:
    """The per-layer metrics of the median traced child (by profiled
    total), so that its layers' self times add up to its total."""
    rows = []
    for child in traced:
        trace = child["trace"]
        self_s, counts, spans = trace["self_s"], trace["counts"], \
            trace["spans"]
        row = {f"{layer}.self_s": seconds for layer, seconds in
               self_s.items()}
        row.update({name: float(value) for name, value in counts.items()})
        row["sim.us_per_event"] = (self_s["sim"] * 1e6
                                   / max(counts["sim.events"], 1))
        row["interp.transactions"] = float(trace["transactions"])
        row["harness.execute_spec_s"] = float(spans["execute_spec"])
        row["harness.cache.get_s"] = float(spans["cache.get"])
        row["harness.cache.put_s"] = float(spans["cache.put"])
        row["harness.codec_s"] = float(spans["codec"])
        row["harness.cache.hits"] = float(sum(
            1 for result in child["results"] if result["cached"]))
        row["harness.audit_s"] = trace["audit_s"]
        row["trace.total_s"] = sum(self_s.values())
        rows.append(row)
    rows.sort(key=lambda row: row["trace.total_s"])
    metrics = rows[(len(rows) - 1) // 2]
    # Estimated as wall_s is.
    metrics["trace.wall_s"] = run_time(traced, "wall")
    metrics["trace.overhead"] = (metrics["trace.wall_s"]
                                 / run_time(untraced, "wall"))
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload; returns its report."""
    import workloads
    from repro.core.persistence import spec_to_dict

    began = time.monotonic()
    specs = workloads.specs_for(workload, seed)
    runner = workloads.WORKLOADS[workload] == "runner"
    payload = [spec_to_dict(spec) for spec in specs]
    references = load_references(REFERENCES, workload, seed)
    if references is not None and len(references) != len(specs):
        raise ValueError(f"{REFERENCES} records {len(references)} "
                         f"specs for {workload}, the workload has "
                         f"{len(specs)}; record the references again")
    trace_out = OUT / f"trace-{workload}-seed{seed}.json" if trace else None
    if trace_out is not None:
        OUT.mkdir(exist_ok=True)

    untraced: List[dict] = []
    traced: List[dict] = []
    errors: List[str] = []
    durations: List[float] = []
    # A traced run alternates untraced and traced children so both see
    # the same machine; trace.overhead compares them.
    kinds = [False, True] if trace else [False]
    planned = repetitions(workload, seconds)
    if trace:
        planned = max(1, planned // (1 + TRACE_COST))
    limit = min(HARD_LIMIT_S, SLOW_HOST_FACTOR * seconds)
    for _ in range(planned):
        elapsed = time.monotonic() - began
        estimate = statistics.median(durations) if durations else 0.0
        if untraced and elapsed + estimate > limit:
            break
        started = time.monotonic()
        try:
            for kind in kinds:
                child = run_child(workload, payload, kind,
                                  timeout=HARD_LIMIT_S + 20 - elapsed,
                                  trace_out=trace_out)
                (traced if kind else untraced).append(child)
        except ChildFailed as error:
            errors.append(f"child: {error}")
            break
        durations.append(time.monotonic() - started)

    children = untraced + traced
    attempted = sum(len(child["results"]) for child in children)
    failures = check(children, references, runner)
    if errors:
        # The lost child's executions count as attempted and failed.
        attempted += len(specs) * (2 if runner else 1)
        failures += errors
    failed = min(len(failures), attempted)
    report = {"workload": workload, "seed": seed,
              "verified": references is not None,
              "correct": not failures, "attempted": attempted,
              "failed": failed, "failures": failures,
              "planned": planned, "runs": len(untraced),
              "traced_runs": len(traced), "untraced": untraced,
              "metrics": {}}
    if trace and traced and untraced and not failures:
        # A traced run whose outcomes differ from the untraced ones'
        # measured something else: its per-layer numbers are void.
        report["metrics"] = per_layer(traced, untraced)
    elif not trace and untraced:
        report["metrics"] = end_to_end(untraced, attempted, failed)
    return report


def tail(samples: List[float]):
    """``(percentile, value)`` of the highest percentile with at least
    ten samples beyond it, or ``None`` with fewer than eleven."""
    count = len(samples)
    if count < 11:
        return None
    ordered = sorted(samples)
    return (100.0 * (count - 10) / count, ordered[count - 11])


def print_report(report: dict, trace: bool) -> None:
    name = report["workload"]
    metrics = BENCH["per_layer" if trace else "end_to_end"]
    print(f"== {name} (seed {report['seed']}, {report['runs']} runs"
          + (f", {report['traced_runs']} traced" if trace else "") + ")")
    if (report["traced_runs"] if trace else report["runs"]) \
            < report["planned"] and not report["failures"]:
        print(f"{name} NOTE: stopped after {report['runs']} of "
              f"{report['planned']} planned repetitions: the host ran "
              f"too slowly to fit them in time")
    for metric in metrics:
        if metric["name"] in report["metrics"]:
            print(f"{name} {metric['name']} "
                  f"{report['metrics'][metric['name']]:.6g} {metric['unit']}")
    if not trace and report["metrics"]:
        children = report["untraced"]
        samples = [run_total(child) for child in children]
        found = tail(samples)
        print(f"{name} wall_s median {statistics.median(samples):.6g} s, "
              + (f"p{found[0]:.0f} {found[1]:.6g} s" if found else
                 "no tail percentile (needs 11 runs)")
              + f", {len(samples)} runs")
        raw = [run_total(child, raw_s) for child in children]
        print(f"{name} host seconds, not corrected by the ruler: wall_s "
              f"{run_time(children, 'wall', raw_s):.6g} s, median "
              f"{statistics.median(raw):.6g} s; cpu_s "
              f"{run_time(children, 'cpu', raw_s):.6g} s; setup_s median "
              f"{statistics.median(c['setup_s'] for c in children):.6g} s")
        print(f"{name} failed_frac "
              f"{report['failed'] / report['attempted']:.6g} frac")
    if trace and report["metrics"]:
        self_s = {metric[:-len(".self_s")]: value for metric, value in
                  report["metrics"].items() if metric.endswith(".self_s")}
        total = report["metrics"]["trace.total_s"]
        print(f"{name} layer shares of trace.total_s {total:.4g} s:")
        for layer, seconds in sorted(self_s.items(),
                                     key=lambda item: -item[1]):
            print(f"  {layer:12s} {seconds:9.4f} s  "
                  f"{100.0 * seconds / total:5.1f}%")
    print(f"{name} checksums: " + (
        "verified against the recorded references" if report["verified"]
        else f"unverified (no recorded references for seed "
             f"{report['seed']})"))
    for failure in report["failures"][:10]:
        print(f"{name} FAILED {failure}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
        import repro.core.persistence  # noqa: F401 - the program to measure
    except ImportError as error:
        print(f"cannot import the program from {ROOT / 'src'}: {error}",
              file=sys.stderr)
        return 2
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    if any(name not in workloads.WORKLOADS for name in names):
        parser.error(f"--workload must be one of "
                     f"{sorted(workloads.WORKLOADS)} or all")

    reports = []
    for name in names:
        report = measure(name, args.seed, args.seconds, bool(args.trace))
        print_report(report, bool(args.trace))
        reports.append(report)

    units = {metric["name"]: metric["unit"] for metric in
             BENCH["per_layer" if args.trace else "end_to_end"]}

    def metrics(report):
        return {name: {"value": report["metrics"][name], "unit": unit}
                for name, unit in units.items()
                if name in report["metrics"]}

    result = {
        "correct": all(report["correct"] for report in reports),
        "attempted": sum(report["attempted"] for report in reports),
        "failed": sum(report["failed"] for report in reports),
        "metrics": (metrics(reports[0]) if len(reports) == 1 else
                    {report["workload"]: metrics(report)
                     for report in reports}),
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

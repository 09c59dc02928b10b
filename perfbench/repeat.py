"""Repeatability report: do two sets of runs of one commit agree?

    python3 perfbench/repeat.py

Makes three sets of ten ``run.py --trace 0`` runs per workload, with
``run_seconds`` from ``BENCHMARK.json``, interleaving the workloads so
every one sees the same machine:

- sets 1 and 2 run seed 0 every time, so their spread is the host's
  run-to-run noise alone;
- set 3 runs seeds 0 to 9, one each, so its spread adds how much the
  seeds' inputs differ.

For each end-to-end metric and workload it prints each set's median,
quartiles and spread (interquartile distance over the median), whether
the spread stays within the metric's bound from ``BENCHMARK.json``, and
whether set 2's median is no worse than set 1's by more than the bound.
Every metric that misses is named with its spread.  Raw results go to
``.perfbench_out/repeat-<time>.json``.  Exits 1 on any miss or failed
run.  It takes about 40 minutes.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: each set's seeds, one run per seed and workload
SETS = ([0] * 10, [0] * 10, list(range(10)))
#: the sets whose medians must agree within the bound
COMPARED = (0, 1)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=str(ROOT), timeout=200)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    result["exit"] = proc.returncode
    return result


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of it."""
    change = (later - first) / first if first else 0.0
    return change if better == "lower" else -change


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in bench["workloads"]]
    seconds = bench["run_seconds"]
    sets = []
    failed_runs = []
    for set_index, seeds in enumerate(SETS):
        runs = {name: [] for name in names}
        for seed in seeds:
            for name in names:
                result = run_once(name, seed, seconds)
                label = f"set {set_index + 1} {name} seed {seed}"
                if result["exit"] != 0 or not result.get("correct"):
                    failed_runs.append(label)
                    print(f"{label}: FAILED (exit {result['exit']})",
                          flush=True)
                    continue
                runs[name].append(result["metrics"])
                print(f"{label}: " + " ".join(
                    f"{metric}={value['value']:.4g}" for metric, value in
                    result["metrics"].items()), flush=True)
        sets.append(runs)

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    raw = out / f"repeat-{time.strftime('%Y%m%d-%H%M%S')}.json"
    raw.write_text(json.dumps({"seconds": seconds, "seeds": SETS,
                               "sets": sets, "failed": failed_runs}))

    misses = []
    print(f"\n{'workload':18s} {'metric':12s} {'set':>3s} {'seeds':>6s} "
          f"{'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>7s} "
          f"{'bound':>6s}  verdict")
    for name in names:
        for metric in bench["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            stats = {}
            for set_index, runs in enumerate(sets):
                values = [run[key]["value"] for run in runs[name]]
                if len(values) >= 2:
                    stats[set_index] = summary(values)
            for set_index, stat in stats.items():
                verdicts = []
                if stat["spread"] > bound:
                    verdicts.append("spread over bound")
                    misses.append(f"{name} {key}: set {set_index + 1} "
                                  f"spread {stat['spread']:.3f} > {bound}")
                elif stat["spread"] > bound / 3:
                    verdicts.append("spread over a third of the bound")
                first = COMPARED[0]
                if set_index in COMPARED[1:] and first in stats:
                    worse = worse_by(stats[first]["median"], stat["median"],
                                     metric["better"])
                    if worse > bound:
                        verdicts.append(f"median {worse:+.3f} worse")
                        misses.append(f"{name} {key}: set "
                                      f"{set_index + 1} median worse by "
                                      f"{worse:.3f} > {bound}")
                seeds = SETS[set_index]
                span = (str(seeds[0]) if len(set(seeds)) == 1
                        else f"{min(seeds)}-{max(seeds)}")
                print(f"{name:18s} {key:12s} {set_index + 1:3d} {span:>6s} "
                      f"{stat['median']:10.5g} {stat['q1']:10.5g} "
                      f"{stat['q3']:10.5g} {stat['spread']:7.4f} "
                      f"{bound:6.3f}  {'; '.join(verdicts) or 'ok'}")
    print(f"\nraw results: {raw}")
    misses += [f"{label}: run failed" for label in failed_runs]
    if misses:
        print("MISSES:")
        for miss in misses:
            print(f"  {miss}")
        return 1
    print("every metric holds its bound on every workload")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

They show that the correctness gate can fail: a broken spec or a
tampered reference checksum makes the run report failures and exit
non-zero.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import ruler  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
#: the cheapest workload, for tests that run the benchmark
QUICK = "step-overload"


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=str(cwd),
        capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines else None


def test_metric_and_workload_names_are_well_formed():
    names = [metric["name"] for section in ("end_to_end", "per_layer")
             for metric in run.BENCH[section]]
    names += [workload["name"] for workload in run.BENCH["workloads"]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in run.BENCH["workloads"]] == \
        list(workloads.WORKLOADS)


@pytest.mark.parametrize("seed", [0, 17])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_specs_construct_and_validate(workload, seed):
    from repro.core.persistence import spec_from_dict, spec_to_dict

    specs = workloads.specs_for(workload, seed)
    assert specs and specs == workloads.specs_for(workload, seed)
    assert specs != workloads.specs_for(workload, seed + 1)
    for spec in specs:
        assert spec.audit and spec.workload_seed == seed
        assert spec_from_dict(spec_to_dict(spec)) == spec


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_run_reports_every_metric_of_its_section(trace, section):
    proc, result = bench("--workload", QUICK, "--seed", "0", "--seconds",
                         "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: value["unit"] for name, value in
            result["metrics"].items()} == \
        {metric["name"]: metric["unit"] for metric in run.BENCH[section]}
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0
        assert "verified against the recorded references" in proc.stdout


def test_tampered_reference_fails_the_run(tmp_path, monkeypatch, capsys):
    recorded = json.loads(run.REFERENCES.read_text())
    checksums = recorded["workloads"][QUICK]["0"]
    checksums[0] = "0" * len(checksums[0])
    tampered = tmp_path / "references.json"
    tampered.write_text(json.dumps(recorded))
    monkeypatch.setattr(run, "REFERENCES", tampered)
    code = run.main(["--workload", QUICK, "--seed", "0", "--seconds", "0"])
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0
    assert "differs from the reference" in out


def test_broken_spec_fails_the_run(monkeypatch, capsys):
    from repro.core.parallel import CampaignSpec

    specs_for = workloads.specs_for

    def with_broken_spec(workload, seed):
        # The deployment's invoke() takes no such argument.
        broken = CampaignSpec(deployment="AWS-Step", iterations=1,
                              invoke_kwargs={"no_such_argument": 1},
                              seed=seed, audit=True)
        return specs_for(workload, seed) + [broken]

    monkeypatch.setattr(workloads, "specs_for", with_broken_spec)
    # A seed without references: the failure must show regardless.
    code = run.main(["--workload", QUICK, "--seed", "999",
                     "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = bench("--workload", QUICK, "--seed", "0", "--seconds",
                         "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None


def test_attribution_charges_foreign_frames_to_their_callers(tmp_path):
    src = str(tmp_path)
    detector = (f"{src}/repro/workloads/video/facedetect.py", 1, "detect")
    kernel = (f"{src}/repro/sim/kernel.py", 1, "run")
    numpy_sum = ("~", 0, "<method 'sum' of 'numpy.ndarray' objects>")
    helper = ("/usr/lib/python3/heapq.py", 1, "heappush")
    bench_main = (f"{HERE}/child.py", 1, "main")
    stats = {
        # (primitive calls, calls, self time, cumulative, callers)
        detector: (1, 1, 1.0, 4.0, {kernel: (1, 1, 1.0, 4.0)}),
        kernel: (1, 1, 0.5, 5.0, {bench_main: (1, 1, 0.5, 5.0)}),
        numpy_sum: (4, 4, 3.0, 3.0, {detector: (3, 3, 2.0, 2.0),
                                     helper: (1, 1, 1.0, 1.0)}),
        helper: (1, 1, 0.2, 1.2, {kernel: (1, 1, 0.2, 1.2)}),
        bench_main: (1, 1, 0.1, 5.1, {}),
    }
    buckets = layers.attribute_self_time(stats, src)
    by_layer = {}
    for (layer, _), seconds in buckets.items():
        by_layer[layer] = by_layer.get(layer, 0.0) + seconds
    assert by_layer == pytest.approx(
        {"workloads": 1.0 + 2.0, "sim": 0.5 + 1.0 + 0.2, "other": 0.1})
    assert sum(buckets.values()) == pytest.approx(4.8)
    assert layers.layer_of("repro.azure.durable.history") == "interp"
    assert layers.layer_of("repro.azure.backend") == "platform"
    assert layers.layer_of("repro.core.cache") == "harness"


def test_repetitions_depend_only_on_the_arguments():
    seconds = run.BENCH["run_seconds"]
    for workload, count in workloads.REPETITIONS.items():
        assert run.repetitions(workload, seconds) == count
        assert run.repetitions(workload, 2 * seconds) == 2 * count
        assert run.repetitions(workload, 0) == 1


def test_run_time_sums_each_executions_lower_quartile():
    def child(*walls):
        # The ruler at its reference speed: reference seconds = seconds.
        return {"results": [{"wall_s": wall, "cpu_s": wall,
                             "ruler_wall_s": ruler.REFERENCE_S,
                             "ruler_cpu_s": ruler.REFERENCE_S}
                            for wall in walls]}

    children = [child(1.0, 5.0), child(2.0, 6.0), child(3.0, 7.0),
                child(4.0, 8.0)]
    assert run.run_time(children, "wall") == pytest.approx(2.0 + 6.0)
    # A host at half speed doubles both the work and the ruler.
    slow = {"results": [dict(result, wall_s=2 * result["wall_s"],
                             ruler_wall_s=2 * ruler.REFERENCE_S)
                        for result in children[1]["results"]]}
    assert run.run_time(children[:1] + [slow] + children[2:], "wall") == \
        pytest.approx(2.0 + 6.0)

"""Integration tests: video variants end-to-end + the Fig 12 mechanism."""

import pytest

from repro.core import Testbed, build_video_deployments
from repro.core.deployments import video as video_deployments
from repro.core.deployments.video import VideoWorkload
from repro.core.parallel import CampaignSpec, execute_spec
from repro.workloads.video import FaceDetector


def fresh(n_workers=8):
    testbed = Testbed(seed=7)
    return testbed, build_video_deployments(testbed, n_workers=n_workers)


@pytest.mark.parametrize("name", ["AWS-Lambda", "AWS-Step", "Az-Func",
                                  "Az-Dorch"])
def test_video_variant_completes(name):
    testbed, deployments = fresh()
    deployment = deployments[name]
    deployment.deploy()
    result = testbed.run(deployment.invoke())
    assert result.latency > 0
    assert result.value is not None


def test_detection_counts_agree_across_platforms():
    counts = {}
    for name in ["AWS-Step", "Az-Dorch"]:
        testbed, deployments = fresh()
        deployment = deployments[name]
        deployment.deploy()
        result = testbed.run(deployment.invoke())
        counts[name] = result.value["n_detections"]
    assert counts["AWS-Step"] == counts["Az-Dorch"]
    assert counts["AWS-Step"] > 0


def test_aws_step_parallelism_beats_monolith():
    """Fig 12 left half: AWS fan-out cuts latency vs the single Lambda."""
    testbed, deployments = fresh(n_workers=16)
    mono = deployments["AWS-Lambda"]
    step = deployments["AWS-Step"]
    mono.deploy()
    step.deploy()
    mono_result = testbed.run(mono.invoke())
    step_result = testbed.run(step.invoke(n_workers=16))
    assert step_result.latency < mono_result.latency * 0.5


def test_azure_fanout_stalls_behind_scale_controller():
    """Fig 12 right half: more Azure workers ≠ proportional speedup."""
    testbed, deployments = fresh(n_workers=4)
    dorch = deployments["Az-Dorch"]
    dorch.deploy()
    few = testbed.run(dorch.invoke(n_workers=4))
    many = testbed.run(dorch.invoke(n_workers=32))
    # 8× the workers comes nowhere near 8× the speedup.
    assert many.latency > few.latency / 4


def test_aws_map_transitions_scale_with_workers():
    testbed, deployments = fresh(n_workers=4)
    step = deployments["AWS-Step"]
    step.deploy()
    testbed.run(step.invoke(n_workers=4))
    first = testbed.aws.meter.count(service="stepfunctions",
                                    operation="transition")
    testbed.run(step.invoke(n_workers=8))
    second = testbed.aws.meter.count(service="stepfunctions",
                                     operation="transition") - first
    assert second == first + 4  # one extra transition per extra worker


def test_video_chunks_fit_payload_limits():
    testbed, deployments = fresh(n_workers=8)
    step = deployments["AWS-Step"]
    step.deploy()
    result = testbed.run(step.invoke())
    # The Map items (chunk references) crossed the 256 KB boundary check,
    # so the execution succeeded rather than failing on DataLimitExceeded.
    assert result.value["n_chunks"] == 8


def test_video_campaigns_detect_each_sampled_frame_once(monkeypatch):
    """Work counter: three fan-out campaigns of two iterations each share
    one workload, so each sampled frame runs the detector exactly once."""
    monkeypatch.setattr(video_deployments, "_WORKLOADS", {})
    calls = []
    detect_frame = FaceDetector.detect_frame

    def counting(self, frame):
        calls.append(1)
        return detect_frame(self, frame)

    monkeypatch.setattr(FaceDetector, "detect_frame", counting)
    for name in ("AWS-Step", "Az-Dorch", "GCP-Flows"):
        execute_spec(CampaignSpec(deployment=name, workload="video",
                                  fanout=20, iterations=2))
    workload = video_deployments.video_workload(20, 0)
    assert workload.detect_frames_per_chunk == 2
    assert len(calls) == 20 * workload.detect_frames_per_chunk


def test_video_workloads_share_no_detection_memo(monkeypatch):
    first = VideoWorkload(n_workers=4, seed=0)
    second = VideoWorkload(n_workers=4, seed=0)
    assert first.pipeline is not second.pipeline
    calls = []
    detect_frame = FaceDetector.detect_frame
    monkeypatch.setattr(
        FaceDetector, "detect_frame",
        lambda self, frame: calls.append(1) or detect_frame(self, frame))
    expected = first.detect_sample(500)
    assert len(calls) == 2
    assert second.detect_sample(500) == expected
    assert len(calls) == 4      # the second workload detected afresh
    assert first.detect_sample(500) == expected
    assert len(calls) == 4


def test_mutating_a_detect_sample_result_leaves_the_memo_intact():
    workload = VideoWorkload(n_workers=4, seed=0)
    start = next(frame for frame in range(0, 2000, 2)
                 if workload.detect_sample(frame))
    first = workload.detect_sample(start)
    expected = list(first)
    first.append((start, -1, -1))
    first[0] = (start, -2, -2)
    assert workload.detect_sample(start) == expected

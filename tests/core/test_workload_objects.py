"""Unit tests for the shared workload objects behind the deployments."""

import pytest

from repro.core.deployments import ml as ml_deployments
from repro.core.deployments.ml import MLWorkload, ml_workload
from repro.core.deployments.video import VideoWorkload, video_workload
from repro.storage.payload import KB, MB
from repro.workloads.ml.dataset import Frame


@pytest.fixture(scope="module")
def workload():
    return ml_workload("small", seed=0)


def test_ml_workload_rejects_unknown_scale():
    with pytest.raises(ValueError, match="scale"):
        MLWorkload("medium")


def test_ml_workload_cache_by_scale_and_seed(workload):
    assert ml_workload("small", seed=0) is workload
    assert ml_workload("small", seed=1) is not workload


def test_ml_workload_split_sizes(workload):
    # 200 rows split 80/20.
    assert workload.train_dataset.n_rows == 160
    assert workload.test_dataset.n_rows == 40


def test_ml_workload_payload_sizes_are_consistent(workload):
    trained = workload.trained
    n_features = 14 + trained.encoder.n_output_features
    assert workload.prepared_bytes == 160 * n_features * 8
    assert workload.reduced_bytes == 160 * trained.pca.n_components * 8
    assert workload.best_model_bytes == trained.best.payload_size
    assert workload.dataset_bytes > 10 * KB


def test_ml_workload_sizes_each_dataset_frame_once(monkeypatch):
    monkeypatch.setattr(ml_deployments, "_WORKLOADS", {})
    sized = []
    payload_size = Frame.payload_size

    def counting(frame):
        sized.append(frame)
        return payload_size.fget(frame)

    monkeypatch.setattr(Frame, "payload_size", property(counting))
    fresh = ml_workload("small", seed=0)
    for _ in range(3):
        train_bytes = fresh.dataset_bytes
        test_bytes = fresh.test_dataset_bytes
    train, test = fresh.train_dataset.features, fresh.test_dataset.features
    assert len(sized) == 2 and sized[0] is train and sized[1] is test
    assert train_bytes == payload_size.fget(train)
    assert test_bytes == payload_size.fget(test)


def test_ml_workload_candidate_lookup(workload):
    result = workload.candidate_result("rf-deep")
    assert result.candidate.name == "rf-deep"
    with pytest.raises(KeyError):
        workload.candidate_result("svm-9000")


def test_ml_workload_summary_is_payload_safe(workload):
    from repro.storage.payload import estimate_size
    summary = workload.summary_of("knn-5")
    assert summary["name"] == "knn-5"
    assert summary["error"] > 0
    assert estimate_size(summary) < 64 * KB


# -- video ------------------------------------------------------------------------

def test_video_workload_rejects_bad_workers():
    with pytest.raises(ValueError):
        VideoWorkload(n_workers=0)


def test_video_workload_total_is_about_100mb():
    workload = video_workload(n_workers=4, seed=0)
    assert 90 * MB <= workload.video.total_bytes <= 110 * MB
    assert workload.total_mb == pytest.approx(
        workload.video.total_bytes / MB)


def test_video_workload_chunks_partition_frames():
    workload = video_workload(n_workers=10, seed=0)
    chunks = workload.chunks()
    assert len(chunks) == 10
    assert sum(chunk.n_frames for chunk in chunks) == \
        workload.video.n_frames
    override = workload.chunks(5)
    assert len(override) == 5


def test_video_detect_sample_is_deterministic():
    workload = video_workload(n_workers=4, seed=0)
    first = workload.detect_sample(start_frame=100)
    second = workload.detect_sample(start_frame=100)
    assert first == second
    for frame_index, _, _ in first:
        assert 100 <= frame_index < 100 + workload.detect_frames_per_chunk


def test_video_workload_cache_key_includes_kwargs():
    base = video_workload(n_workers=4, seed=0)
    assert video_workload(n_workers=4, seed=0) is base
    other = video_workload(n_workers=4, seed=0, detect_frames_per_chunk=1)
    assert other is not base

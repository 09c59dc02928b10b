"""Tests for the synthetic video, chunker and face detector."""

from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.payload import KB
from repro.workloads.video import (
    DetectionModel,
    FaceDetector,
    SyntheticVideo,
    VideoPipeline,
    chunk_video,
    merge_chunks,
)
from repro.workloads.video.facedetect import _suppress_overlaps, integral_image


@pytest.fixture(scope="module")
def video():
    return SyntheticVideo(n_frames=24, height=72, width=128, seed=3,
                          faces_per_frame=1.0)


def test_video_validates_arguments():
    with pytest.raises(ValueError):
        SyntheticVideo(n_frames=0)
    with pytest.raises(ValueError):
        SyntheticVideo(n_frames=5, height=10, width=10)


def test_frames_are_deterministic(video):
    assert np.array_equal(video.frame(3), video.frame(3))
    other = SyntheticVideo(n_frames=24, height=72, width=128, seed=3)
    assert np.array_equal(video.frame(3), other.frame(3))


def test_frame_values_in_unit_range(video):
    frame = video.frame(0)
    assert frame.min() >= 0.0 and frame.max() <= 1.0


def test_frame_index_bounds(video):
    with pytest.raises(IndexError):
        video.frame(24)
    with pytest.raises(IndexError):
        video.frame(-1)


def test_total_bytes_models_frame_count():
    video = SyntheticVideo(n_frames=100, height=72, width=128,
                           bytes_per_frame=50 * KB)
    assert video.total_bytes == 100 * 50 * KB


def test_chunking_covers_all_frames(video):
    chunks = chunk_video(video, 5)
    assert chunks[0].start_frame == 0
    assert chunks[-1].stop_frame == video.n_frames
    covered = sum(chunk.n_frames for chunk in chunks)
    assert covered == video.n_frames
    for previous, current in zip(chunks, chunks[1:]):
        assert previous.stop_frame == current.start_frame


def test_chunk_count_capped_by_frames(video):
    chunks = chunk_video(video, 1000)
    assert len(chunks) == video.n_frames


def test_payload_limit_forces_more_chunks():
    video = SyntheticVideo(n_frames=100, height=72, width=128,
                           bytes_per_frame=50 * KB)
    chunks = chunk_video(video, 2, max_chunk_bytes=256 * KB)
    # At most 5 frames (250 KB) per chunk → at least 20 chunks.
    assert len(chunks) >= 20
    assert all(chunk.payload_size <= 256 * KB for chunk in chunks)


def test_chunk_rejects_nonpositive_count(video):
    with pytest.raises(ValueError):
        chunk_video(video, 0)


def test_detector_finds_planted_faces(video):
    detector = FaceDetector(DetectionModel())
    found_frames = set()
    truth_frames = {face.frame_index for face in video.ground_truth}
    for index in range(video.n_frames):
        if detector.detect_frame(video.frame(index)):
            found_frames.add(index)
    # Recall over frames: the detector finds faces in most frames that
    # actually contain them.
    if truth_frames:
        recall = len(found_frames & truth_frames) / len(truth_frames)
        assert recall > 0.6


def test_detector_rejects_empty_frames():
    empty = SyntheticVideo(n_frames=8, height=72, width=128, seed=5,
                           faces_per_frame=0.0)
    detector = FaceDetector(DetectionModel())
    false_positives = sum(
        len(detector.detect_frame(empty.frame(index))) for index in range(8))
    assert false_positives == 0


def test_detection_positions_near_ground_truth(video):
    detector = FaceDetector(DetectionModel())
    for face in video.ground_truth[:5]:
        hits = detector.detect_frame(video.frame(face.frame_index))
        if not hits:
            continue
        nearest = min(hits, key=lambda hit: (hit[0] - face.row) ** 2
                      + (hit[1] - face.col) ** 2)
        assert abs(nearest[0] - face.row) <= face.size
        assert abs(nearest[1] - face.col) <= face.size


def test_merge_orders_and_flattens():
    merged = merge_chunks([
        (1, [(5, 0, 0)]),
        (0, [(1, 2, 3), (0, 1, 1)]),
    ])
    assert merged.n_chunks == 2
    assert merged.detections == [(0, 1, 1), (1, 2, 3), (5, 0, 0)]


def test_pipeline_end_to_end(video):
    pipeline = VideoPipeline(video)
    result = pipeline.run(n_workers=4)
    assert result.n_workers == 4
    assert len(result.detections) > 0
    # Same detections regardless of worker count (correctness invariant).
    serial = pipeline.run(n_workers=1)
    assert result.detections == serial.detections


def test_detection_model_payload_is_1mb():
    assert DetectionModel().payload_size == 1024 * 1024


@given(n_workers=st.integers(1, 30))
@settings(max_examples=15, deadline=None)
def test_chunking_partition_invariant(n_workers):
    video = SyntheticVideo(n_frames=60, seed=0, faces_per_frame=0.0)
    chunks = chunk_video(video, n_workers)
    assert sum(chunk.n_frames for chunk in chunks) == 60
    assert len(chunks) == min(n_workers, 60)


# The scalar cascade the vectorized detector replaced, kept verbatim as
# the exactness oracle.
def box_sum(table: np.ndarray, top: int, left: int, height: int,
            width: int) -> float:
    """Sum of the frame region ``[top:top+height, left:left+width]``."""
    return float(table[top + height, left + width] - table[top, left + width]
                 - table[top + height, left] + table[top, left])


class ScalarFaceDetector(FaceDetector):
    def detect_frame(self, frame: np.ndarray) -> List[Tuple[int, int]]:
        """Detected (row, col) face positions in one frame."""
        table = integral_image(frame)
        height, width = frame.shape
        hits: List[Tuple[int, int, int]] = []
        for window in self.model.window_sizes:
            if window > min(height, width):
                continue
            area = float(window * window)
            for top in range(0, height - window + 1, self.model.stride):
                for left in range(0, width - window + 1, self.model.stride):
                    mean = box_sum(table, top, left, window, window) / area
                    if mean < self.model.brightness_threshold:
                        continue
                    band = max(2, window // 5)
                    eye_top = top + window // 4
                    eye_mean = box_sum(table, eye_top, left, band,
                                       window) / (band * window)
                    cheek_top = top + window // 2
                    cheek_mean = box_sum(table, cheek_top, left, band,
                                         window) / (band * window)
                    if (cheek_mean - eye_mean
                            >= self.model.eye_contrast_threshold):
                        hits.append((top, left, window))
        return _suppress_overlaps(hits)


def assert_matches_scalar(detector, frame):
    expected = ScalarFaceDetector(detector.model).detect_frame(frame)
    found = detector.detect_frame(frame)
    assert found == expected
    assert all(type(value) is int for hit in found for value in hit)
    return found


def test_vectorized_detector_matches_scalar_cascade():
    detector = FaceDetector(DetectionModel())
    n_hits = 0
    for seed in (0, 1, 17, 42):
        video = SyntheticVideo(n_frames=60, seed=seed, faces_per_frame=1.0)
        for index in range(video.n_frames):
            n_hits += len(assert_matches_scalar(detector,
                                                video.frame(index)))
    assert n_hits > 100     # the oracle compared real detections


@pytest.mark.parametrize("model", [
    DetectionModel(stride=1),
    DetectionModel(stride=3, window_sizes=(18, 12)),
    DetectionModel(window_sizes=(16, 200, 24)),
    DetectionModel(brightness_threshold=0.3, eye_contrast_threshold=0.05),
], ids=["stride-1", "stride-3", "window-larger-than-frame", "loose"])
def test_vectorized_detector_matches_scalar_on_other_models(model):
    detector = FaceDetector(model)
    video = SyntheticVideo(n_frames=6, seed=9, faces_per_frame=2.0)
    for index in range(video.n_frames):
        assert_matches_scalar(detector, video.frame(index))


def test_vectorized_detector_matches_scalar_on_exact_ties():
    """Dyadic pixel values make every box sum exact, so window means and
    band contrasts land exactly on the thresholds: both tests are
    inclusive."""
    frame = np.full((40, 48), 0.5)
    frame[10:14, :] = 0.25
    model = DetectionModel(stride=2, brightness_threshold=0.5,
                           eye_contrast_threshold=0.0)
    found = assert_matches_scalar(FaceDetector(model), frame)
    assert found


def test_window_larger_than_frame_is_skipped():
    video = SyntheticVideo(n_frames=4, seed=2, faces_per_frame=1.5)
    only_large = FaceDetector(DetectionModel(window_sizes=(200,)))
    mixed = FaceDetector(DetectionModel(window_sizes=(16, 200, 20, 24)))
    default = FaceDetector(DetectionModel())
    for index in range(video.n_frames):
        frame = video.frame(index)
        assert only_large.detect_frame(frame) == []
        assert mixed.detect_frame(frame) == default.detect_frame(frame)


def test_vectorized_detector_matches_scalar_on_smallest_frame():
    """24x24 frames: crops around planted faces, where the 24-pixel
    window fits exactly once."""
    video = SyntheticVideo(n_frames=30, seed=4, faces_per_frame=1.0)
    crops = []
    for face in video.ground_truth:
        top = min(face.row, video.height - 24)
        left = min(face.col, video.width - 24)
        crops.append(video.frame(face.frame_index)[top:top + 24,
                                                   left:left + 24])
    n_hits = 0
    for model in (DetectionModel(), DetectionModel(stride=1)):
        detector = FaceDetector(model)
        for crop in crops:
            n_hits += len(assert_matches_scalar(detector, crop))
    assert n_hits > 0


def test_pipeline_detects_each_frame_once(monkeypatch):
    video = SyntheticVideo(n_frames=30, seed=3, faces_per_frame=1.0)
    pipeline = VideoPipeline(video)
    calls = []
    detect_frame = FaceDetector.detect_frame
    monkeypatch.setattr(
        FaceDetector, "detect_frame",
        lambda self, frame: calls.append(1) or detect_frame(self, frame))
    first = pipeline.run(n_workers=3)
    second = pipeline.run(n_workers=7)
    assert len(calls) == video.n_frames
    assert first.detections == second.detections
    detector = ScalarFaceDetector(pipeline.model)
    assert first.detections == sorted(
        (index, row, col) for index in range(video.n_frames)
        for row, col in detector.detect_frame(video.frame(index)))


def test_pipeline_returns_fresh_detection_lists():
    video = SyntheticVideo(n_frames=10, seed=3, faces_per_frame=2.0)
    pipeline = VideoPipeline(video)
    chunk = pipeline.split(2)[0]
    first = pipeline.detect(chunk)
    assert first
    expected = list(first)
    first.clear()
    assert pipeline.detect(chunk) == expected


def test_pipeline_rejects_chunks_of_another_video():
    pipeline = VideoPipeline(SyntheticVideo(n_frames=10, seed=3))
    other = chunk_video(SyntheticVideo(n_frames=10, seed=4), 2)[0]
    with pytest.raises(ValueError):
        pipeline.detect(other)

"""Face detection: an integral-image sliding-window classifier.

The OpenCV/deep-model stand-in (§IV-A: "a face detection algorithm using
a pre-trained deep learning model.  The model size is 1 MB which is
fetched by each worker from the remote storage").  The detector uses
Haar-like features over an integral image — a real (if small) computer
vision kernel whose recall/precision on the synthetic frames is testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.storage.payload import MB


@dataclass
class DetectionModel:
    """The 'pre-trained model' workers fetch from remote storage.

    Thresholds for the Haar-like cascade below; ``payload_size`` is the
    paper's 1 MB.
    """

    window_sizes: Tuple[int, ...] = (16, 20, 24)
    stride: int = 4
    brightness_threshold: float = 0.55
    eye_contrast_threshold: float = 0.18
    payload_size: int = 1 * MB

    @property
    def name(self) -> str:
        return "haar-face-v1"


def integral_image(frame: np.ndarray) -> np.ndarray:
    """Summed-area table with a zero top/left border."""
    table = np.zeros((frame.shape[0] + 1, frame.shape[1] + 1))
    table[1:, 1:] = frame.cumsum(axis=0).cumsum(axis=1)
    return table


def _box_sums(table: np.ndarray, tops: np.ndarray, lefts: np.ndarray,
              height: int, width: int) -> np.ndarray:
    """Sums of the regions ``[top:top+height, left:left+width]`` for
    every ``(top, left)`` pair that ``tops`` and ``lefts`` broadcast to."""
    bottoms, rights = tops + height, lefts + width
    return (table[bottoms, rights] - table[tops, rights]
            - table[bottoms, lefts] + table[tops, lefts])


class FaceDetector:
    """Sliding-window detector using two Haar-like tests.

    A window is a face when (1) it is brighter than its surroundings and
    (2) the eye band is darker than the cheek band — matching the pattern
    :func:`~repro.workloads.video.video._draw_face` plants.
    """

    def __init__(self, model: DetectionModel):
        self.model = model

    def detect_frame(self, frame: np.ndarray) -> List[Tuple[int, int]]:
        """Detected (row, col) face positions in one frame.

        Every window position of a size is scored at once by box sums
        over the integral image.
        """
        table = integral_image(frame)
        height, width = frame.shape
        stride = self.model.stride
        hits: List[Tuple[int, int, int]] = []
        for window in self.model.window_sizes:
            if window > min(height, width):
                continue
            tops = np.arange(0, height - window + 1, stride)[:, None]
            lefts = np.arange(0, width - window + 1, stride)[None, :]
            mean = _box_sums(table, tops, lefts, window,
                             window) / float(window * window)
            band = max(2, window // 5)
            eye_mean = _box_sums(table, tops + window // 4, lefts, band,
                                 window) / (band * window)
            cheek_mean = _box_sums(table, tops + window // 2, lefts, band,
                                   window) / (band * window)
            rows, cols = np.nonzero(
                (mean >= self.model.brightness_threshold)
                & (cheek_mean - eye_mean
                   >= self.model.eye_contrast_threshold))
            hits.extend((top, left, window) for top, left in zip(
                tops[rows, 0].tolist(), lefts[0, cols].tolist()))
        return _suppress_overlaps(hits)


def _suppress_overlaps(
        hits: List[Tuple[int, int, int]]) -> List[Tuple[int, int]]:
    """Greedy non-maximum suppression: keep the first window per region."""
    kept: List[Tuple[int, int, int]] = []
    for top, left, window in sorted(hits, key=lambda hit: -hit[2]):
        center = (top + window / 2.0, left + window / 2.0)
        overlaps = any(
            abs(center[0] - (k_top + k_window / 2.0)) < k_window * 0.6
            and abs(center[1] - (k_left + k_window / 2.0)) < k_window * 0.6
            for k_top, k_left, k_window in kept)
        if not overlaps:
            kept.append((top, left, window))
    return [(top, left) for top, left, _ in kept]

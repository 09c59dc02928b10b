"""The video workload as platform-neutral stages plus an eager runner."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.workloads.video.facedetect import DetectionModel, FaceDetector
from repro.workloads.video.video import (
    MergedResult,
    SyntheticVideo,
    VideoChunk,
    chunk_video,
    merge_chunks,
)


@dataclass
class VideoResult:
    """Output of one full split → detect → merge run."""

    merged: MergedResult
    n_workers: int

    @property
    def detections(self) -> List[Tuple[int, int, int]]:
        return self.merged.detections


class VideoPipeline:
    """Eager, in-process runner for the three-step workflow (Figure 5).

    Each frame is detected at most once per pipeline: the measurement
    campaigns re-run the same chunks many times over.
    """

    def __init__(self, video: SyntheticVideo,
                 model: Optional[DetectionModel] = None):
        self.video = video
        self.model = model or DetectionModel()
        self._detector = FaceDetector(self.model)
        #: frame index -> its (row, col) detections; at most n_frames keys
        self._frame_detections: Dict[int, Tuple[Tuple[int, int], ...]] = {}

    def split(self, n_workers: int,
              max_chunk_bytes: Optional[int] = None) -> List[VideoChunk]:
        """Step 1: break the video into chunks."""
        return chunk_video(self.video, n_workers,
                           max_chunk_bytes=max_chunk_bytes)

    def detect(self, chunk: VideoChunk) -> List[Tuple[int, int, int]]:
        """Step 2 (per worker): face detection on one chunk."""
        if chunk.video is not self.video:
            raise ValueError("chunk belongs to another video")
        return self.detect_frames(chunk.start_frame, chunk.stop_frame)

    def detect_frames(self, start: int,
                      stop: int) -> List[Tuple[int, int, int]]:
        """(frame, row, col) detections in frames ``[start, stop)``,
        as a new list."""
        detections: List[Tuple[int, int, int]] = []
        for index in range(start, min(stop, self.video.n_frames)):
            found = self._frame_detections.get(index)
            if found is None:
                found = tuple(self._detector.detect_frame(
                    self.video.frame(index)))
                self._frame_detections[index] = found
            detections.extend((index, row, col) for row, col in found)
        return detections

    def merge(self, results: List[Tuple[int, List[Tuple[int, int, int]]]]
              ) -> MergedResult:
        """Step 3: aggregate worker outputs."""
        return merge_chunks(results)

    def run(self, n_workers: int,
            max_chunk_bytes: Optional[int] = None) -> VideoResult:
        """The whole workflow, sequentially, in-process."""
        chunks = self.split(n_workers, max_chunk_bytes=max_chunk_bytes)
        per_chunk = [(chunk.index, self.detect(chunk)) for chunk in chunks]
        return VideoResult(merged=self.merge(per_chunk),
                           n_workers=len(chunks))

"""Video-processing workload (paper §III-B).

Split a video into chunks, run face detection on each chunk with an army
of parallel workers, merge the results.  The detector is a real
integral-image sliding-window classifier (the OpenCV stand-in) over
synthetic frames with planted faces, so detection accuracy is testable.
"""

from repro.workloads.video.video import (
    SyntheticVideo,
    VideoChunk,
    chunk_video,
    merge_chunks,
)
from repro.workloads.video.facedetect import DetectionModel, FaceDetector
from repro.workloads.video.pipeline import VideoPipeline, VideoResult

__all__ = [
    "DetectionModel",
    "FaceDetector",
    "SyntheticVideo",
    "VideoChunk",
    "VideoPipeline",
    "VideoResult",
    "chunk_video",
    "merge_chunks",
]

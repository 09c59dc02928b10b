"""The six deployment variants of Table II, for both workloads.

Builders return dictionaries keyed by the paper's graph references
(``AWS-Lambda``, ``AWS-Step``, ``Az-Func``, ``Az-Queue``, ``Az-Dorch``,
``Az-Dent``).
"""

from repro.core.deployments.base import Deployment, RunResult
from repro.core.deployments.ml import (
    ML_INFERENCE_DEPLOYMENTS,
    ML_TRAINING_DEPLOYMENTS,
    MLWorkload,
    build_ml_inference_deployments,
    build_ml_training_deployments,
    ml_workload,
)
from repro.core.deployments.video import (
    VIDEO_DEPLOYMENTS,
    VideoWorkload,
    build_video_deployments,
    video_workload,
)

#: every deployment variant class, by workload and then by name
DEPLOYMENTS = {
    "ml-training": ML_TRAINING_DEPLOYMENTS,
    "ml-inference": ML_INFERENCE_DEPLOYMENTS,
    "video": VIDEO_DEPLOYMENTS,
}

__all__ = [
    "DEPLOYMENTS",
    "Deployment",
    "MLWorkload",
    "RunResult",
    "VideoWorkload",
    "build_ml_inference_deployments",
    "build_ml_training_deployments",
    "build_video_deployments",
    "ml_workload",
    "video_workload",
]

"""Proposal distribution calibration toolkit for few-shot detection heads.

Fits offset statistics from detector proposal logs, samples calibrated
proposals around ground truths, scores them with contrastive /
classification / regression losses, and ships distribution diagnostics
plus a synthetic end-to-end experiment runner.
"""

from .geometry import BBox, OffsetVec, apply_offset, encode_offset, iou
from .losses import (
    ContrastiveBatch,
    Embedding,
    LossBreakdown,
    assemble_loss,
    supcon_loss,
)
from .sampling import OffsetModel, SamplerConfig, build_calibrated_set
from .stats import DiagonalGaussian4, OffsetAccumulator, Uniform4, fit_optimal_uniform

__version__ = "0.1.0"

__all__ = [
    "BBox",
    "ContrastiveBatch",
    "DiagonalGaussian4",
    "Embedding",
    "LossBreakdown",
    "OffsetAccumulator",
    "OffsetModel",
    "OffsetVec",
    "SamplerConfig",
    "Uniform4",
    "apply_offset",
    "assemble_loss",
    "build_calibrated_set",
    "encode_offset",
    "fit_optimal_uniform",
    "iou",
    "supcon_loss",
    "__version__",
]

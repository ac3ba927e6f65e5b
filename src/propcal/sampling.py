"""Calibrated proposal sampling around ground-truth boxes.

Offsets are drawn from a fitted distribution model (Gaussian or uniform),
decoded against each ground-truth box, and optionally clipped to the image.
Draws that decode to a degenerate box, or fall entirely outside the image,
are re-drawn rather than clamped so the configured distribution is not
distorted near boundaries.

Randomness is counter-based: every (seed, image_id, gt_index) triple keys
an independent Philox stream, so sampling is reproducible regardless of
iteration order and safe to parallelize across images. The stream layout
is pinned by golden tests; changing it is a format break.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Union

import numpy as np

from .geometry import BBox, apply_offsets_array, clip_boxes_array
from .stats import DiagonalGaussian4, Uniform4

OffsetModel = Union[DiagonalGaussian4, Uniform4]


@dataclass(frozen=True)
class SampledProposal:
    """One calibrated proposal, tagged with its source ground truth."""

    box: BBox
    class_label: int
    source_gt: int
    image_id: str = ""


@dataclass(frozen=True)
class SamplerConfig:
    model: OffsetModel
    j_per_instance: int = 50
    seed: int = 0
    max_resample: int = 16

    def __post_init__(self):
        if self.j_per_instance < 1:
            raise ValueError(f"j_per_instance must be >= 1, got {self.j_per_instance}")
        if self.max_resample < 1:
            raise ValueError(f"max_resample must be >= 1, got {self.max_resample}")


def stream_key(seed: int, *parts) -> int:
    """Derive a 128-bit Philox key from a seed and a label path."""
    label = "/".join(str(p) for p in parts)
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    return (int(seed) & 0xFFFFFFFFFFFFFFFF) << 64 | int.from_bytes(digest, "little")


def stream_rng(seed: int, *parts) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=stream_key(seed, *parts)))


def _draw_raw(model: OffsetModel, n: int, rng: np.random.Generator) -> np.ndarray:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if isinstance(model, DiagonalGaussian4):
        return rng.normal(model.mu, np.sqrt(model.var), size=(n, 4))
    if isinstance(model, Uniform4):
        return rng.uniform(model.lo, model.hi, size=(n, 4))
    raise TypeError(f"unsupported offset model: {type(model).__name__}")


def sample_boxes_for_gt(
    gt_box: np.ndarray,
    n: int,
    model: OffsetModel,
    rng: np.random.Generator,
    image_size: tuple[float, float] | None,
    max_resample: int,
) -> np.ndarray:
    """Array core of proposal sampling: n decoded (and clipped) boxes for one gt.

    Raises RuntimeError when some slot still decodes invalid after
    ``max_resample`` re-draw rounds.
    """
    gt_row = np.asarray(gt_box, dtype=np.float64).reshape(1, 4)
    boxes = np.empty((n, 4))
    pending = np.arange(n)
    for _ in range(max_resample + 1):
        if pending.size == 0:
            break
        offs = _draw_raw(model, pending.size, rng)
        decoded = apply_offsets_array(np.repeat(gt_row, pending.size, axis=0), offs)
        ok = (decoded[:, 2] > 0) & (decoded[:, 3] > 0)
        if image_size is not None:
            clipped, inside = clip_boxes_array(decoded, image_size[0], image_size[1])
            decoded = clipped
            ok &= inside
        boxes[pending[ok]] = decoded[ok]
        pending = pending[~ok]
    if pending.size:
        raise RuntimeError(
            f"resampling budget exhausted for gt {gt_row[0].tolist()}: "
            f"{pending.size} of {n} draws still invalid after {max_resample} rounds"
        )
    return boxes


def sample_proposals_for_gt(
    gt: BBox,
    class_label: int,
    config: SamplerConfig,
    image_size: tuple[float, float] | None = None,
    gt_index: int = 0,
    image_id: str = "",
    rng: np.random.Generator | None = None,
) -> list[SampledProposal]:
    """Sample ``j_per_instance`` calibrated proposals sharing the gt's label."""
    if rng is None:
        rng = stream_rng(config.seed, "sample", image_id, gt_index)
    boxes = sample_boxes_for_gt(
        gt.as_array(), config.j_per_instance, config.model, rng, image_size, config.max_resample
    )
    return [
        SampledProposal(BBox.from_array(row), class_label, gt_index, image_id)
        for row in boxes
    ]


def build_calibrated_set(
    gts: list[tuple[BBox, int]],
    config: SamplerConfig,
    image_size: tuple[float, float] | None = None,
    image_id: str = "",
) -> list[SampledProposal]:
    """Calibrated proposals for every gt of one image, in gt order."""
    return [
        p
        for i, (gt, label) in enumerate(gts)
        for p in sample_proposals_for_gt(gt, label, config, image_size, gt_index=i, image_id=image_id)
    ]

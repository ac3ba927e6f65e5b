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

from .geometry import apply_offsets_array, clip_boxes_array
from .stats import DiagonalGaussian4, Uniform4

OffsetModel = Union[DiagonalGaussian4, Uniform4]

# Re-draw rounds a slot gets after its first draw before sampling gives up
MAX_RESAMPLE = 16


@dataclass(frozen=True)
class SamplerConfig:
    model: OffsetModel
    j_per_instance: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.j_per_instance < 1:
            raise ValueError(f"j_per_instance must be >= 1, got {self.j_per_instance}")


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
) -> np.ndarray:
    """Array core of proposal sampling: n decoded (and clipped) boxes for one gt.

    A draw is invalid, and re-drawn, when its box has a size <= 0, lies
    outside the image, or holds a non-finite value (an overflowing decode).
    A slot still invalid after ``MAX_RESAMPLE`` re-draw rounds is returned
    as a row of NaN: the budget is exhausted.
    """
    gt_row = np.asarray(gt_box, dtype=np.float64).reshape(1, 4)
    boxes = np.full((n, 4), np.nan)
    pending = np.arange(n)
    for _ in range(MAX_RESAMPLE + 1):
        if pending.size == 0:
            break
        offs = _draw_raw(model, pending.size, rng)
        with np.errstate(over="ignore", invalid="ignore"):
            decoded = apply_offsets_array(np.repeat(gt_row, pending.size, axis=0), offs)
            ok = (decoded[:, 2] > 0) & (decoded[:, 3] > 0)
            if image_size is not None:
                decoded, inside = clip_boxes_array(decoded, image_size[0], image_size[1])
                ok &= inside
        ok &= np.isfinite(decoded).all(axis=1)
        boxes[pending[ok]] = decoded[ok]
        pending = pending[~ok]
    return boxes


def sample_proposals_for_gt(
    gt: np.ndarray,
    config: SamplerConfig,
    image_size: tuple[float, float] | None = None,
    gt_index: int = 0,
    image_id: str = "",
) -> np.ndarray:
    """The ``(j_per_instance, 4)`` calibrated proposal boxes for one gt ``[cx, cy, w, h]``.

    The draw uses the gt's own stream, keyed by (seed, image_id, gt_index).
    Raises RuntimeError when the re-draw budget is exhausted.
    """
    rng = stream_rng(config.seed, "sample", image_id, gt_index)
    boxes = sample_boxes_for_gt(gt, config.j_per_instance, config.model, rng, image_size)
    if invalid := np.count_nonzero(np.isnan(boxes[:, 0])):
        raise RuntimeError(
            f"resampling budget exhausted for gt {np.asarray(gt, dtype=np.float64).tolist()}: "
            f"{invalid} of {len(boxes)} draws still invalid after {MAX_RESAMPLE} rounds"
        )
    return boxes


def build_calibrated_set(
    gts: np.ndarray,
    config: SamplerConfig,
    image_size: tuple[float, float] | None = None,
    image_id: str = "",
) -> np.ndarray:
    """The ``(n * j_per_instance, 4)`` calibrated proposals of one image's ``(n, 4)`` gts, in gt order."""
    boxes = [
        sample_proposals_for_gt(gt, config, image_size, gt_index=i, image_id=image_id)
        for i, gt in enumerate(gts)
    ]
    return np.concatenate(boxes) if boxes else np.empty((0, 4))

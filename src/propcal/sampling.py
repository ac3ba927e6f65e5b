"""Calibrated proposal sampling around ground-truth boxes.

Offsets are drawn from a fitted distribution model (Gaussian or uniform),
decoded against each ground-truth box, and optionally clipped to the image.
Draws that decode to a degenerate or non-finite box, or fall entirely
outside the image, are re-drawn rather than clamped so the configured
distribution is not distorted near boundaries.

Randomness is counter-based, and this module owns the stream format: every
draw comes from a Philox stream keyed by 64-bit blake2b words, so sampling
is reproducible regardless of iteration order. The stream layout is pinned
by golden tests; changing it is a format break.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Union

import numpy as np

from .geometry import apply_offsets_array, clip_boxes_array, valid_boxes_array
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
        check_seed(self.seed)


def check_seed(seed: int) -> None:
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


def hash_word(data: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def stream_key(seed: int, *parts) -> int:
    """The 128-bit Philox key ``seed << 64 | word(label path)`` of a seed in ``[0, 2**64)``."""
    check_seed(seed)
    return int(seed) << 64 | hash_word("/".join(str(p) for p in parts).encode("utf-8"))


def derive_seed(seed: int, *parts) -> int:
    """64-bit sub-seed ``word("seed/label path")`` for a labeled purpose under a master seed."""
    return hash_word((f"{int(seed)}/" + "/".join(str(p) for p in parts)).encode("utf-8"))


def philox_rng(key: int, rng: np.random.Generator | None = None) -> np.random.Generator:
    """What ``Philox(key=key)`` draws; given ``rng``, re-keys that in place (no one else may draw from it)."""
    if not 0 <= key < 2**128:  # numpy's own message; the state setter alone raises OverflowError
        raise ValueError("key must be positive and less than 2**128.")
    if rng is None:
        return np.random.Generator(np.random.Philox(key=key))
    rng.bit_generator.state = {"bit_generator": "Philox", "has_uint32": 0, "uinteger": 0, "buffer_pos": 4,
        "buffer": (0,) * 4, "state": {"counter": (0,) * 4, "key": (key % 2**64, key >> 64)}}
    return rng


def stream_rng(seed: int, *parts) -> np.random.Generator:
    return philox_rng(stream_key(seed, *parts))


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

    A draw is invalid, and re-drawn, when its decoded box, before clipping,
    holds a non-finite value (an overflowing decode) or a size <= 0, or
    when it lies outside the image.
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
            # before clipping, which would turn an overflowed corner into the image edge
            ok = valid_boxes_array(decoded)
            if image_size is not None:
                decoded, inside = clip_boxes_array(decoded, image_size[0], image_size[1])
                ok &= inside
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

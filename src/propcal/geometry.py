"""Center-form bounding boxes, IoU, and scale-normalized offset coding.

Boxes are (cx, cy, w, h) everywhere; corner form appears only transiently
inside the IoU and clipping kernels. An offset encodes a box against a
reference box as the component-wise difference divided by the reference
scale (w, h, w, h), which makes it dimensionless and invariant under
uniform rescaling of both boxes. Decoding is the exact algebraic inverse,
so encode/decode round-trips to machine precision.

The ``*_array`` kernels on (n, 4) float arrays are the only implementation
of each formula. The scalar functions on :class:`BBox` / :class:`OffsetVec`
run the same kernel on one row and validate their inputs and results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box: center (cx, cy), width w > 0, height h > 0."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        for name in ("cx", "cy", "w", "h"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"BBox.{name} must be finite, got {v!r}")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"BBox width/height must be positive, got w={self.w!r}, h={self.h!r}")

    def corners(self) -> tuple[float, float, float, float]:
        """Return (x1, y1, x2, y2)."""
        return tuple(corners_array(self.as_array()[None])[0].tolist())

    def as_array(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.w, self.h], dtype=np.float64)

    @classmethod
    def from_array(cls, arr) -> BBox:
        cx, cy, w, h = np.asarray(arr, dtype=np.float64).tolist()
        return cls(cx, cy, w, h)


@dataclass(frozen=True)
class OffsetVec:
    """Dimensionless box offset (dx, dy, dw, dh).

    dw and dh must stay above -1 so that a decoded box keeps positive
    width and height.
    """

    dx: float
    dy: float
    dw: float
    dh: float

    def __post_init__(self):
        for name in ("dx", "dy", "dw", "dh"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"OffsetVec.{name} must be finite, got {v!r}")
        if self.dw <= -1.0 or self.dh <= -1.0:
            raise ValueError(
                f"OffsetVec dw/dh must be > -1 (decoded size must stay positive), "
                f"got dw={self.dw!r}, dh={self.dh!r}"
            )

    def as_array(self) -> np.ndarray:
        return np.array([self.dx, self.dy, self.dw, self.dh], dtype=np.float64)

    @classmethod
    def from_array(cls, arr) -> OffsetVec:
        dx, dy, dw, dh = np.asarray(arr, dtype=np.float64).tolist()
        return cls(dx, dy, dw, dh)


def encode_offset(proposal: BBox, gt: BBox) -> OffsetVec:
    """Encode ``proposal`` against ``gt``: (proposal - gt) / (gt.w, gt.h, gt.w, gt.h)."""
    return OffsetVec(*encode_offsets_array(proposal.as_array()[None], gt.as_array()[None])[0].tolist())


def apply_offset(gt: BBox, off: OffsetVec) -> BBox:
    """Decode an offset relative to ``gt``; exact inverse of :func:`encode_offset`.

    Raises ValueError if the decoded width or height is not positive.
    """
    cx, cy, w, h = apply_offsets_array(gt.as_array()[None], off.as_array()[None])[0].tolist()
    if w <= 0 or h <= 0:
        raise ValueError(f"decoded box is degenerate: w={w!r}, h={h!r}")
    return BBox(cx, cy, w, h)


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union in [0, 1]; 0 for disjoint boxes."""
    return float(iou_paired_array(a.as_array()[None], b.as_array()[None])[0])


def clip_to_image(b: BBox, img_w: float, img_h: float) -> BBox:
    """Intersect a box with [0, img_w] x [0, img_h].

    Raises ValueError if the image is degenerate or the box lies entirely
    outside the image (empty intersection).
    """
    if img_w <= 0 or img_h <= 0:
        raise ValueError(f"image size must be positive, got {img_w!r} x {img_h!r}")
    clipped, valid = clip_boxes_array(b.as_array()[None], img_w, img_h)
    if not valid[0]:
        raise ValueError(f"box {b} is empty after clipping to {img_w} x {img_h}")
    return BBox(*clipped[0].tolist())


# Array forms: (n, 4) float64 rows of (cx, cy, w, h) or (dx, dy, dw, dh).
# These skip per-element validation; callers own the invariants.

_SCALE_COLS = np.array([2, 3, 2, 3])  # (w, h, w, h) of a reference box


def encode_offsets_array(proposals: np.ndarray, refs: np.ndarray) -> np.ndarray:
    props = np.asarray(proposals, dtype=np.float64)
    refs = np.asarray(refs, dtype=np.float64)
    return (props - refs) / refs.take(_SCALE_COLS, axis=1)


def apply_offsets_array(refs: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    refs = np.asarray(refs, dtype=np.float64)
    offs = np.asarray(offsets, dtype=np.float64)
    return refs + offs * refs.take(_SCALE_COLS, axis=1)


def corners_array(boxes: np.ndarray) -> np.ndarray:
    """(x1, y1, x2, y2) rows of center-form boxes."""
    boxes = np.asarray(boxes, dtype=np.float64)
    half = boxes[:, 2:] / 2
    return np.concatenate([boxes[:, :2] - half, boxes[:, :2] + half], axis=1)


def iou_paired_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise IoU of two equally long stacks of center-form boxes."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ca, cb = corners_array(a), corners_array(b)
    overlap = np.minimum(ca[:, 2:], cb[:, 2:]) - np.maximum(ca[:, :2], cb[:, :2])
    overlap = np.maximum(overlap, 0.0)
    inter = overlap[:, 0] * overlap[:, 1]
    union = a[:, 2] * a[:, 3] + b[:, 2] * b[:, 3] - inter
    # corner rounding can push the ratio one ulp past 1 for identical boxes
    return np.minimum(inter / union, 1.0)


def clip_boxes_array(boxes: np.ndarray, img_w: float, img_h: float) -> tuple[np.ndarray, np.ndarray]:
    """Clip boxes to the image; returns (clipped, valid mask).

    Rows with empty intersection are flagged invalid and returned unchanged.
    """
    boxes = np.asarray(boxes, dtype=np.float64)
    corners = corners_array(boxes)
    lo = np.maximum(corners[:, :2], 0.0)
    hi = np.minimum(corners[:, 2:], (img_w, img_h))
    valid = (hi > lo).all(axis=1)
    clipped = np.concatenate([(lo + hi) / 2, hi - lo], axis=1)
    return np.where(valid[:, None], clipped, boxes), valid

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
import sys
from dataclasses import dataclass

import numpy as np


def _is_real(value) -> bool:
    """Whether ``value`` is a real number, Python or numpy, and not a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer and not a bool (a bool seed would share the streams of 0 or 1)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """Whether ``value`` is a real number (no bool) that a float64 holds as a finite value."""
    # a Python int may exceed the float range, where math.isfinite would raise OverflowError
    return _is_real(value) and (abs(value) <= sys.float_info.max if isinstance(value, int) else math.isfinite(value))


def _check_int64(value: int, name: str) -> None:
    """A ValueError naming ``name`` unless the integer ``value`` fits an int64 column."""
    if not -2**63 <= value < 2**63:
        raise ValueError(f"{name} holds an integer beyond the int64 range")


def _store_floats(box, names: tuple[str, ...]) -> None:
    """Store the fields ``names`` of a frozen box as Python floats; a ValueError unless each is a finite real number."""
    for name in names:
        v = getattr(box, name)
        if not _is_finite(v):
            raise ValueError(f"{type(box).__name__}.{name} must be a finite number, got {v!r}")
        object.__setattr__(box, name, float(v))


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box: center (cx, cy), width w > 0, height h > 0."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        _store_floats(self, ("cx", "cy", "w", "h"))
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"BBox width/height must be positive, got w={self.w!r}, h={self.h!r}")

    def corners(self) -> tuple[float, float, float, float]:
        """Return (x1, y1, x2, y2)."""
        return tuple(corners_array(self.as_array()[None])[0].tolist())

    def as_array(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.w, self.h], dtype=np.float64)


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
        _store_floats(self, ("dx", "dy", "dw", "dh"))
        if self.dw <= -1.0 or self.dh <= -1.0:
            raise ValueError(
                f"OffsetVec dw/dh must be > -1 (decoded size must stay positive), "
                f"got dw={self.dw!r}, dh={self.dh!r}"
            )

    def as_array(self) -> np.ndarray:
        return np.array([self.dx, self.dy, self.dw, self.dh], dtype=np.float64)


def encode_offset(proposal: BBox, gt: BBox) -> OffsetVec:
    """Encode ``proposal`` against ``gt``: (proposal - gt) / (gt.w, gt.h, gt.w, gt.h)."""
    return OffsetVec(*encode_offsets_array(proposal.as_array()[None], gt.as_array()[None])[0].tolist())


def apply_offset(gt: BBox, off: OffsetVec) -> BBox:
    """Decode an offset relative to ``gt``; exact inverse of :func:`encode_offset`.

    Raises ValueError, from :class:`BBox`, if the decoded box is not finite with a positive width and height.
    """
    return BBox(*apply_offsets_array(gt.as_array()[None], off.as_array()[None])[0].tolist())


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union in [0, 1]; 0 for disjoint boxes."""
    return float(iou_paired_array(a.as_array()[None], b.as_array()[None])[0])


# Array forms: (n, 4) float64 rows of (cx, cy, w, h) or (dx, dy, dw, dh).
# These skip per-element validation; callers own the invariants.

_SCALE_COLS = np.array([2, 3, 2, 3])  # (w, h, w, h) of a reference box


def as_rows4(values) -> np.ndarray:
    """``values`` as (n, 4) float64 rows: one ``(4,)`` row or an ``(n, 4)`` array, any other shape a ValueError."""
    rows = np.asarray(values, dtype=np.float64)
    if rows.shape != (4,) and (rows.ndim != 2 or rows.shape[1] != 4):
        raise ValueError(f"need one row of 4 values or an (n, 4) array, got shape {rows.shape}")
    return rows.reshape(-1, 4)


def four_floats(value, name: str) -> list[float]:
    """Four real numbers (no bool) in a list, tuple or 1-D array, as Python floats; else a ValueError naming ``name``."""
    value = value.tolist() if isinstance(value, np.ndarray) else value
    if not (isinstance(value, (list, tuple)) and len(value) == 4 and all(map(_is_real, value))):
        raise ValueError(f"{name} must be a flat array of four numeric values")
    if not all(_is_finite(v) for v in value if isinstance(v, int)):
        raise ValueError(f"{name} holds an integer beyond the float range")
    return [float(v) for v in value]


def encode_offsets_array(proposals: np.ndarray, refs: np.ndarray) -> np.ndarray:
    props = np.asarray(proposals, dtype=np.float64)
    refs = np.asarray(refs, dtype=np.float64)
    return (props - refs) / refs.take(_SCALE_COLS, axis=1)


def apply_offsets_array(refs: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    refs = np.asarray(refs, dtype=np.float64)
    offs = np.asarray(offsets, dtype=np.float64)
    return refs + offs * refs.take(_SCALE_COLS, axis=1)


def valid_boxes_array(boxes: np.ndarray) -> np.ndarray:
    """Mask over the last axis of center-form boxes: every value finite, w and h > 0."""
    boxes = np.asarray(boxes, dtype=np.float64)
    return np.isfinite(boxes).all(axis=-1) & (boxes[..., 2:] > 0).all(axis=-1)


def _corner_pair(boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x1, y1) and (x2, y2) columns of float64 center-form boxes, as new arrays."""
    center, half = boxes[:, :2], boxes[:, 2:] / 2
    return center - half, center + half


def corners_array(boxes: np.ndarray) -> np.ndarray:
    """(x1, y1, x2, y2) rows of center-form boxes."""
    return np.concatenate(_corner_pair(np.asarray(boxes, dtype=np.float64)), axis=1)


def iou_paired_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise IoU of two equally long stacks of center-form boxes."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    (lo_a, hi_a), (lo_b, hi_b) = _corner_pair(a), _corner_pair(b)
    overlap = np.minimum(hi_a, hi_b, out=hi_a) - np.maximum(lo_a, lo_b, out=lo_a)
    np.maximum(overlap, 0.0, out=overlap)
    inter = overlap[:, 0] * overlap[:, 1]
    union = a[:, 2] * a[:, 3] + b[:, 2] * b[:, 3] - inter
    # corner rounding can push the ratio one ulp past 1 for identical boxes
    return np.minimum(inter / union, 1.0)


def clip_boxes_array(boxes: np.ndarray, img_w: float, img_h: float) -> tuple[np.ndarray, np.ndarray]:
    """Clip boxes to the image; returns (clipped, valid mask).

    Rows with empty intersection are flagged invalid and returned unchanged.
    """
    boxes = np.asarray(boxes, dtype=np.float64)
    lo, hi = _corner_pair(boxes)
    np.maximum(lo, 0.0, out=lo)
    np.minimum(hi, (img_w, img_h), out=hi)
    valid = (hi > lo).all(axis=1)
    clipped = np.concatenate([(lo + hi) / 2, hi - lo], axis=1)
    return np.where(valid[:, None], clipped, boxes), valid

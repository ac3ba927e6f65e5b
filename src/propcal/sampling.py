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
from collections import defaultdict
from dataclasses import dataclass
from itertools import count
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .geometry import _is_integer, apply_offsets_array, as_rows4, clip_boxes_array, valid_boxes_array
from .stats import DiagonalGaussian4, Uniform4

OffsetModel = Union[DiagonalGaussian4, Uniform4]

# Re-draw rounds a slot gets after its first draw before sampling gives up
MAX_RESAMPLE = 16
# Gts per array pass of sample_boxes: bounds the pass's temporaries and saved stream states
PASS_GTS = 128


@dataclass(frozen=True)
class SamplerConfig:
    model: OffsetModel
    j_per_instance: int = 50
    seed: int = 0

    def __post_init__(self):
        if not (_is_integer(self.j_per_instance) and self.j_per_instance >= 1):
            raise ValueError(f"j_per_instance must be an integer >= 1, got {self.j_per_instance!r}")
        check_seed(self.seed)


def check_seed(seed: int) -> None:
    if not _is_integer(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
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


def philox_rng(key: int) -> np.random.Generator:
    """A fresh generator on the stream ``Philox(key=key)``."""
    return np.random.Generator(np.random.Philox(key=key))


def _rekey(rng: np.random.Generator, key: int) -> np.random.Generator:
    """Re-keys the scratch generator ``rng`` in place to draw what ``Philox(key=key)`` draws."""
    if not 0 <= key < 2**128:  # numpy's own message; the state setter alone raises OverflowError
        raise ValueError("key must be positive and less than 2**128.")
    rng.bit_generator.state = {"bit_generator": "Philox", "has_uint32": 0, "uinteger": 0, "buffer_pos": 4,
        "buffer": (0,) * 4, "state": {"counter": (0,) * 4, "key": (key % 2**64, key >> 64)}}
    return rng


def keyed_streams(keys: Iterable[int]) -> Iterator[np.random.Generator]:
    """For each key, one scratch generator re-keyed in place to draw what ``Philox(key=key)`` draws."""
    rng = philox_rng(0)
    for key in keys:
        yield _rekey(rng, key)  # the same generator for every key: draw from it before taking the next


def stream_rng(seed: int, *parts) -> np.random.Generator:
    return philox_rng(stream_key(seed, *parts))


def _draw_raw(model: OffsetModel, n: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(model, DiagonalGaussian4):
        return rng.normal(model.mu, np.sqrt(model.var), size=(n, 4))
    if isinstance(model, Uniform4):
        return rng.uniform(model.lo, model.hi, size=(n, 4))
    raise TypeError(f"unsupported offset model: {type(model).__name__}")


def box_noise(keys: Sequence[int], boxes: np.ndarray, dim: int) -> np.ndarray:
    """``(n, dim)`` standard normals; row i from the stream keyed ``keys[i] << 64 | word(boxes[i] bytes)``."""
    noise = np.empty((len(boxes), dim))
    for i, rng in enumerate(keyed_streams(key << 64 | hash_word(box.tobytes()) for key, box in zip(keys, boxes))):
        noise[i] = rng.normal(size=dim)
    return noise


def sample_boxes(
    gt_boxes: np.ndarray,
    n: int,
    models: list[OffsetModel],
    image_size: tuple[float, float] | None,
    states: list[int | dict],
) -> np.ndarray:
    """Array core of proposal sampling: ``(k, n, 4)`` decoded (and clipped) boxes, n per gt.

    Gt i draws ``models[i]`` offsets from its own stream, which starts at
    ``states[i]``: a Philox key (the stream at its start) or a
    ``bit_generator.state``. Each round restores each gt's stream into a
    scratch generator for its draw and saves where it stopped, then decodes,
    checks and clips the pending rows of up to ``PASS_GTS`` gts in one array pass.
    A draw is invalid, and re-drawn, when its decoded box, before clipping,
    holds a non-finite value (an overflowing decode) or a size <= 0, or
    when it lies outside the image.
    A slot still invalid after ``MAX_RESAMPLE`` re-draw rounds is returned
    as a row of NaN: the budget is exhausted.
    """
    gts = as_rows4(gt_boxes)
    boxes = np.full((gts.shape[0] * n, 4), np.nan)
    for lo in range(0, gts.shape[0], PASS_GTS):
        hi = lo + PASS_GTS
        _fill_slots(boxes[lo * n:hi * n], gts[lo:hi], models[lo:hi], list(states[lo:hi]), image_size)
    return boxes.reshape(gts.shape[0], n, 4)


def _fill_slots(boxes, gts, models, states, image_size) -> None:
    """The draw rounds of :func:`sample_boxes` for ``k`` gts into their ``(k * n, 4)`` slots."""
    k = gts.shape[0]
    n = boxes.shape[0] // k
    rng = philox_rng(0)  # the scratch generator each gt's draw restores its stream into
    pending = np.arange(k * n)  # slots gt by gt, so each gt's rows stay in slot order
    counts = [n] * k  # pending slots per gt
    for _ in range(MAX_RESAMPLE + 1):
        if pending.size == 0:
            break
        offs = []
        for i, count in enumerate(counts):
            if not count:
                continue
            if isinstance(states[i], dict):
                rng.bit_generator.state = states[i]
            else:
                _rekey(rng, states[i])
            offs.append(_draw_raw(models[i], count, rng))
            states[i] = rng.bit_generator.state  # where the gt's stream stopped, for its next round
        with np.errstate(over="ignore", invalid="ignore"):
            decoded = apply_offsets_array(np.repeat(gts, counts, axis=0), np.concatenate(offs))
            # before clipping, which would turn an overflowed corner into the image edge
            ok = valid_boxes_array(decoded)
            if image_size is not None:
                decoded, inside = clip_boxes_array(decoded, image_size[0], image_size[1])
                ok &= inside
        boxes[pending[ok]] = decoded[ok]
        pending = pending[~ok]
        counts = np.bincount(pending // n, minlength=k).tolist()


def sample_boxes_for_gt(
    gt_box: np.ndarray,
    n: int,
    model: OffsetModel,
    rng: np.random.Generator,
    image_size: tuple[float, float] | None,
) -> np.ndarray:
    """The ``(n, 4)`` boxes :func:`sample_boxes` draws for one gt from the stream ``rng`` is on; ``rng`` does not move."""
    return sample_boxes(gt_box, n, [model], image_size, [rng.bit_generator.state])[0]


def sample_proposals_for_gt(
    gt: np.ndarray,
    config: SamplerConfig,
    image_size: tuple[float, float] | None = None,
    image_id: str = "",
) -> np.ndarray:
    """The ``(J, 4)`` calibrated boxes of one gt ``[cx, cy, w, h]``: :func:`build_calibrated_set` of it alone."""
    return build_calibrated_set(gt, config, image_size, image_id)


def build_calibrated_set(
    gts: np.ndarray,
    config: SamplerConfig,
    image_size: tuple[float, float] | None = None,
    image_id: str | Sequence[str] = "",
) -> np.ndarray:
    """The ``(n * j_per_instance, 4)`` calibrated proposals of ``(n, 4)`` gts, in gt order.

    Gt i draws from the stream of (seed, image_id, gt_index). ``image_id`` is
    one id for all gts or one per gt; a gt's ``gt_index`` is the number of
    earlier gts with the same id.
    Raises RuntimeError naming the first gt, in gt order, whose re-draw budget is exhausted.
    """
    gts = as_rows4(gts)
    ids = [image_id] * len(gts) if isinstance(image_id, str) else list(image_id)
    if len(ids) != len(gts):
        raise ValueError(f"need one image_id per gt, got {len(ids)} for {len(gts)} gts")
    gt_index = defaultdict(count)  # the next gt_index of each id
    states = [stream_key(config.seed, "sample", iid, next(gt_index[iid])) for iid in ids]
    boxes = sample_boxes(gts, config.j_per_instance, [config.model] * len(gts), image_size, states)
    invalid = np.count_nonzero(np.isnan(boxes[:, :, 0]), axis=1)
    if invalid.any():
        i = int(np.flatnonzero(invalid)[0])
        raise RuntimeError(f"resampling budget exhausted for gt {gts[i].tolist()}: {invalid[i]} of "
                           f"{config.j_per_instance} draws still invalid after {MAX_RESAMPLE} rounds")
    return boxes.reshape(-1, 4)

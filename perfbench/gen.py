"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and a label, so the same seed gives
byte-identical inputs and different seeds give different ones. Generation
uses numpy only and never imports propcal: the program under test receives
nothing but the files and seed lists made here.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IMAGE_W, IMAGE_H = 640.0, 480.0
N_CLASSES = 20

# Offset distribution of the generated detector logs: the compared log is
# shifted so the two logs differ in mean as well as in their sample.
LOG_MU = np.array([0.03, -0.02, 0.06, 0.04])
LOG_SIGMA = np.array([0.09, 0.09, 0.11, 0.11])
LOG_B_SHIFT = np.array([0.05, 0.04, -0.03, -0.02])

# Offset model handed to ``propcal sample``. Its spread is wide enough that
# ground truths cut by the image border get draws that fall outside the
# image, so clipping forces redraws.
SAMPLE_MODEL = {
    "kind": "gaussian",
    "mu": [0.02, -0.01, 0.04, 0.03],
    "var": [0.0144, 0.0144, 0.01, 0.01],
}
BORDER_SHARE = 0.15  # share of ground truths that straddle an image edge


def rng_for(seed: int, label: str) -> np.random.Generator:
    """Independent stream per (workload seed, purpose label)."""
    entropy = [int(seed) % 2**64, zlib.crc32(label.encode("utf-8"))]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def experiment_seeds(seed: int, n: int) -> list[int]:
    """n simulator seeds for the experiment workload; a longer list extends a shorter one."""
    rng = rng_for(seed, "experiment-seeds")
    return [int(s) for s in rng.integers(0, 2**31, size=n)]


@dataclass(frozen=True)
class ProposalLog:
    """A generated proposal log: its JSONL lines and the exact values written."""

    lines: list[str]
    gt: np.ndarray        # (n, 4) center-form boxes, as written
    proposal: np.ndarray  # (n, 4)

    def offsets(self) -> np.ndarray:
        """Scale-normalized offsets of the written boxes, as encode_offset defines them."""
        return (self.proposal - self.gt) / self.gt[:, (2, 3, 2, 3)]

    def write(self, path: Path, n: int | None = None) -> None:
        lines = self.lines if n is None else self.lines[:n]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _box_json(row) -> str:
    return "[" + ", ".join(repr(v) for v in row) + "]"


def proposal_log(seed: int, n: int, label: str, shift: np.ndarray | None = None) -> ProposalLog:
    """n detector-proposal records, eight per image, in canonical field order.

    Coordinates are rounded to 0.01 px, as a detector writing pixel boxes
    would; offsets are drawn around ``LOG_MU`` (+ ``shift``) with ``dw`` and
    ``dh`` kept above -0.8 so every proposal is a valid box.
    """
    rng = rng_for(seed, "log/" + label)
    w = rng.uniform(12.0, 220.0, n)
    h = rng.uniform(12.0, 220.0, n)
    gt = np.round(np.stack([rng.uniform(0, IMAGE_W, n), rng.uniform(0, IMAGE_H, n), w, h], axis=1), 2)
    mu = LOG_MU if shift is None else LOG_MU + shift
    off = rng.normal(mu, LOG_SIGMA, size=(n, 4))
    off[:, 2:] = np.maximum(off[:, 2:], -0.8)
    proposal = np.round(gt + off * gt[:, (2, 3, 2, 3)], 2)
    classes = rng.integers(0, N_CLASSES, n).tolist()
    sources = np.where(rng.random(n) < 0.1, "sampled", "rpn").tolist()
    lines = [
        f'{{"image_id": "{label}{i // 8:06d}", "gt": {_box_json(g)}, "gt_class": {c}, '
        f'"proposal": {_box_json(p)}, "source": "{s}"}}'
        for i, (g, c, p, s) in enumerate(zip(gt.tolist(), classes, proposal.tolist(), sources))
    ]
    return ProposalLog(lines, gt, proposal)


def ground_truths(seed: int, n: int, per_image: int = 5) -> list[str]:
    """n ground-truth records for ``propcal sample``, ``per_image`` per image.

    About ``BORDER_SHARE`` of them straddle one image edge with only 8-35%
    of their extent inside the image; the rest lie fully inside.
    """
    rng = rng_for(seed, "ground-truths")
    w = rng.uniform(16.0, 160.0, n)
    h = rng.uniform(16.0, 160.0, n)
    cx = rng.uniform(w / 2, IMAGE_W - w / 2)
    cy = rng.uniform(h / 2, IMAGE_H - h / 2)
    border = rng.random(n) < BORDER_SHARE
    side = rng.integers(0, 4, n)
    inside = rng.uniform(0.08, 0.35, n)
    cx = np.where(border & (side == 0), (inside - 0.5) * w, cx)
    cx = np.where(border & (side == 1), IMAGE_W + (0.5 - inside) * w, cx)
    cy = np.where(border & (side == 2), (inside - 0.5) * h, cy)
    cy = np.where(border & (side == 3), IMAGE_H + (0.5 - inside) * h, cy)
    boxes = np.round(np.stack([cx, cy, w, h], axis=1), 2).tolist()
    classes = rng.integers(0, N_CLASSES, n).tolist()
    return [
        f'{{"image_id": "im{i // per_image:05d}", "gt": {_box_json(b)}, "gt_class": {c}}}'
        for i, (b, c) in enumerate(zip(boxes, classes))
    ]

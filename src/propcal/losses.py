"""Losses for repurposing a detection head on calibrated proposals.

The supervised contrastive term operates on unit-norm embeddings: for each
anchor, same-class embeddings are positives, the anchor itself is excluded
everywhere, and similarities are dot products scaled by a temperature. An
anchor whose class has no other member contributes zero but still counts
in the batch normalization. The analytic gradient is exact and is checked
against central finite differences in the test suite.

Classification and regression use the standard two-stage-detector choices:
softmax cross-entropy with a dedicated background class, and smooth-L1 on
offset residuals. Each has one batched loss+gradient kernel
(:func:`cross_entropy_batch`, :func:`smooth_l1_batch`), which divides by
``max(n, 1)``: an empty batch has loss 0.0 and a zero-row gradient.
:func:`assemble_loss` combines everything into a single weighted objective
and reports the breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import _is_finite, _is_integer


@dataclass(frozen=True)
class Embedding:
    """Unit-norm feature vector with a class label and a unique sample id."""

    vec: np.ndarray
    class_label: int
    sample_id: object

    def __post_init__(self):
        if not _is_integer(self.class_label):
            raise ValueError(f"class_label must be an integer, got {self.class_label!r}")
        if not -2**63 <= self.class_label < 2**63:  # the labels of a batch are an int64 array
            raise ValueError("class_label holds an integer beyond the int64 range")
        v = np.asarray(self.vec, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError(f"embedding must be a vector, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("embedding must be finite")
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"embedding must be unit-norm, got |v| = {norm!r}")
        object.__setattr__(self, "vec", v)
        object.__setattr__(self, "class_label", int(self.class_label))


@dataclass(frozen=True)
class ContrastiveBatch:
    embeddings: tuple[Embedding, ...]
    tau: float = 0.2

    def __post_init__(self):
        object.__setattr__(self, "embeddings", tuple(self.embeddings))
        if not (_is_finite(self.tau) and self.tau > 0):
            raise ValueError(f"temperature must be positive, got {self.tau!r}")
        ids = [e.sample_id for e in self.embeddings]
        if len(set(ids)) != len(ids):
            raise ValueError("sample_ids must be pairwise distinct")
        if len({e.vec.size for e in self.embeddings}) > 1:
            raise ValueError("embeddings must all have one length")


def supcon_loss(batch: ContrastiveBatch) -> float:
    z = np.array([e.vec for e in batch.embeddings])
    return supcon_loss_arrays(z, np.array([e.class_label for e in batch.embeddings]), batch.tau)


def supcon_loss_and_grad_arrays(z: np.ndarray, labels: np.ndarray, tau: float) -> tuple[float, np.ndarray]:
    """Supervised contrastive loss on raw (n, d) embeddings and its gradient for every embedding.

    This entry point does not enforce unit norms; it is what the
    finite-difference check perturbs and what training code calls after
    normalizing projections itself.
    """
    z = np.asarray(z, dtype=np.float64)
    labels = np.asarray(labels)
    if z.size == 0:
        raise ValueError("contrastive batch must be non-empty")
    if z.ndim != 2:
        raise ValueError(f"embeddings must be an (n, d) array, got shape {z.shape}")
    if not np.isfinite(z).all():
        raise ValueError("embeddings must be finite")
    n = z.shape[0]
    if labels.shape != (n,) or labels.dtype.kind not in "iu":  # a bool, float or string label is no class
        raise ValueError(f"labels must be {n} integers, got a {labels.dtype} array of shape {labels.shape}")
    if not (_is_finite(tau) and tau > 0):
        raise ValueError(f"temperature must be positive, got {tau!r}")
    if n == 1:
        return 0.0, np.zeros_like(z)
    sim = (z @ z.T) / tau
    pos = labels[:, None] == labels[None, :]
    np.fill_diagonal(pos, False)
    n_pos = pos.sum(axis=1)
    has_pos = n_pos > 0
    # the anchor-excluded softmax denominator, stabilized per row
    masked = sim.copy()
    np.fill_diagonal(masked, -np.inf)
    row_max = masked.max(axis=1)
    exp_shift = np.exp(sim - row_max[:, None])
    np.fill_diagonal(exp_shift, 0.0)
    den = exp_shift.sum(axis=1, keepdims=True)
    # softmax minus the uniform weight on the positives; an anchor without one adds nothing
    coeff = exp_shift / den - pos / np.maximum(n_pos, 1)[:, None]
    coeff[~has_pos] = 0.0
    grad = (coeff @ z + coeff.T @ z) / (n * tau)
    log_ratio = sim - (row_max + np.log(den[:, 0]))[:, None]
    per_anchor = np.zeros(n)
    np.divide(-(log_ratio * pos).sum(axis=1), n_pos, out=per_anchor, where=has_pos)
    return float(per_anchor.sum() / n), grad


def supcon_loss_arrays(z: np.ndarray, labels: np.ndarray, tau: float) -> float:
    """The loss of :func:`supcon_loss_and_grad_arrays`."""
    return supcon_loss_and_grad_arrays(z, labels, tau)[0]


def supcon_grad_arrays(z: np.ndarray, labels: np.ndarray, tau: float) -> np.ndarray:
    """The gradient of :func:`supcon_loss_and_grad_arrays`."""
    return supcon_loss_and_grad_arrays(z, labels, tau)[1]


def cross_entropy_batch(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Batch-mean softmax cross-entropy of (n, C+1) float logits and its logit gradient."""
    n, c = logits.shape
    m = max(n, 1)
    # the row max column by column: the same values as max(axis=1), faster on short rows
    row_max = logits[:, 0].copy()
    for j in range(1, c):
        np.maximum(row_max, logits[:, j], out=row_max)
    shift = logits - row_max[:, None]
    rows = np.arange(n)
    picked = shift[rows, targets]
    probs = np.exp(shift, out=shift)
    total = probs.sum(axis=1)
    loss = float(-(picked - np.log(total)).sum() / m + 0.0)  # + 0.0: the empty sum's -0.0 becomes 0.0
    probs /= total[:, None]
    probs[rows, targets] -= 1.0
    probs /= m
    return loss, probs


def smooth_l1_batch(pred: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Smooth-L1 (beta 1) of (n, 4) residuals, summed per row and averaged over rows, and its gradient."""
    r = pred - targets
    a = np.abs(r)
    m = max(pred.shape[0], 1)
    loss = float(np.where(a < 1, 0.5 * a * a, a - 0.5).sum(axis=1).sum() / m)
    return loss, np.clip(r, -1.0, 1.0) / m


@dataclass(frozen=True)
class LossBreakdown:
    """The assembled objective: auxiliary head terms plus the main detector loss.

    Its totals are derived: ``re_roi_total`` = (cls + con) + reg, ``grand_total`` = base_total + lam * re_roi_total.
    """

    con: float
    cls: float
    reg: float
    lam: float
    base_total: float

    def __post_init__(self):
        for name in ("con", "cls", "reg", "re_roi_total", "lam", "base_total", "grand_total"):
            if not _is_finite(getattr(self, name)):
                raise ValueError(f"LossBreakdown.{name} must be finite")
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam!r}")

    @property
    def re_roi_total(self) -> float:
        return (self.cls + self.con) + self.reg

    @property
    def grand_total(self) -> float:
        return self.base_total + self.lam * self.re_roi_total


def assemble_loss(base_total: float, con: float, cls: float, reg: float, lam: float) -> LossBreakdown:
    """Combine the main detector loss with the weighted auxiliary-head terms."""
    return LossBreakdown(con=con, cls=cls, reg=reg, lam=lam, base_total=base_total)

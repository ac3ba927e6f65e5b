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
(:func:`cross_entropy_batch`, :func:`smooth_l1_batch`); the single-sample
forms wrap them. :func:`assemble_loss` combines everything into a single
weighted objective and reports the breakdown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Embedding:
    """Unit-norm feature vector with a class label and a unique sample id."""

    vec: np.ndarray
    class_label: int
    sample_id: object

    def __post_init__(self):
        v = np.asarray(self.vec, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError(f"embedding must be a vector, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("embedding must be finite")
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"embedding must be unit-norm, got |v| = {norm!r}")
        object.__setattr__(self, "vec", v)


@dataclass(frozen=True)
class ContrastiveBatch:
    embeddings: tuple[Embedding, ...]
    tau: float = 0.2

    def __post_init__(self):
        object.__setattr__(self, "embeddings", tuple(self.embeddings))
        if self.tau <= 0:
            raise ValueError(f"temperature must be positive, got {self.tau!r}")
        ids = [e.sample_id for e in self.embeddings]
        if len(set(ids)) != len(ids):
            raise ValueError("sample_ids must be pairwise distinct")

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        z = np.stack([e.vec for e in self.embeddings])
        labels = np.array([e.class_label for e in self.embeddings])
        return z, labels


def supcon_loss(batch: ContrastiveBatch) -> float:
    if not batch.embeddings:
        raise ValueError("contrastive batch must be non-empty")
    z, labels = batch.arrays()
    return supcon_loss_arrays(z, labels, batch.tau)


def supcon_grad(batch: ContrastiveBatch) -> list[np.ndarray]:
    if not batch.embeddings:
        raise ValueError("contrastive batch must be non-empty")
    z, labels = batch.arrays()
    g = supcon_grad_arrays(z, labels, batch.tau)
    return [g[i] for i in range(len(batch.embeddings))]


def _supcon_parts(z: np.ndarray, labels: np.ndarray, tau: float):
    z = np.asarray(z, dtype=np.float64)
    labels = np.asarray(labels)
    n = z.shape[0]
    if n == 0:
        raise ValueError("contrastive batch must be non-empty")
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau!r}")
    sim = (z @ z.T) / tau
    off_diag = ~np.eye(n, dtype=bool)
    pos = (labels[:, None] == labels[None, :]) & off_diag
    n_pos = pos.sum(axis=1)
    # log of the anchor-excluded denominator, stabilized per row
    if n == 1:
        return sim, off_diag, pos, n_pos, None, None
    row_max = np.max(np.where(off_diag, sim, -np.inf), axis=1)
    exp_shift = np.where(off_diag, np.exp(sim - row_max[:, None]), 0.0)
    log_den = row_max + np.log(exp_shift.sum(axis=1))
    return sim, off_diag, pos, n_pos, exp_shift, log_den


def supcon_loss_arrays(z: np.ndarray, labels: np.ndarray, tau: float) -> float:
    """Supervised contrastive loss on raw (n, d) embeddings.

    This entry point does not enforce unit norms; it is what the
    finite-difference check perturbs and what training code calls after
    normalizing projections itself.
    """
    sim, off_diag, pos, n_pos, exp_shift, log_den = _supcon_parts(z, labels, tau)
    n = sim.shape[0]
    if n == 1:
        return 0.0
    has_pos = n_pos > 0
    if not np.any(has_pos):
        return 0.0
    log_ratio = sim - log_den[:, None]
    per_anchor = np.zeros(n)
    np.divide(
        -(log_ratio * pos).sum(axis=1),
        n_pos,
        out=per_anchor,
        where=has_pos,
    )
    return float(per_anchor.sum() / n)


def supcon_grad_arrays(z: np.ndarray, labels: np.ndarray, tau: float) -> np.ndarray:
    """Gradient of :func:`supcon_loss_arrays` with respect to every embedding."""
    sim, off_diag, pos, n_pos, exp_shift, log_den = _supcon_parts(z, labels, tau)
    n = sim.shape[0]
    z = np.asarray(z, dtype=np.float64)
    if n == 1:
        return np.zeros_like(z)
    has_pos = n_pos > 0
    softmax = exp_shift / exp_shift.sum(axis=1, keepdims=True)
    pos_weight = np.zeros_like(softmax)
    np.divide(pos, n_pos[:, None], out=pos_weight, where=has_pos[:, None])
    coeff = np.where(has_pos[:, None], softmax - pos_weight, 0.0)
    return (coeff @ z + coeff.T @ z) / (n * tau)


def cross_entropy_batch(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Batch-mean softmax cross-entropy of (n, C+1) logits and its logit gradient."""
    shift = logits - logits.max(axis=1, keepdims=True)
    expl = np.exp(shift)
    probs = expl / expl.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    loss = float(-(shift[np.arange(n), targets] - np.log(expl.sum(axis=1))).mean())
    probs[np.arange(n), targets] -= 1.0
    probs /= n
    return loss, probs


def smooth_l1_batch(pred: np.ndarray, targets: np.ndarray, beta: float = 1.0) -> tuple[float, np.ndarray]:
    """Smooth-L1 of (n, 4) residuals, summed per row and averaged over rows, and its gradient."""
    r = pred - targets
    a = np.abs(r)
    loss = float(np.where(a < beta, 0.5 * a * a / beta, a - 0.5 * beta).sum(axis=1).mean())
    return loss, np.clip(r / beta, -1.0, 1.0) / pred.shape[0]


def cross_entropy_cls(logits, label: int) -> float:
    """Softmax cross-entropy over C+1 classes; the background class is last."""
    x = np.asarray(logits, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"logits must be a vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("logits must be finite")
    if not 0 <= label < x.shape[0]:
        raise ValueError(f"label {label} out of range for {x.shape[0]} classes")
    return cross_entropy_batch(x[None, :], np.array([label]))[0]


def smooth_l1_reg(pred, target, beta: float = 1.0) -> float:
    """Smooth-L1 on the offset residual, summed over the four components."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta!r}")
    p = pred.as_array() if hasattr(pred, "as_array") else np.asarray(pred, dtype=np.float64)
    t = target.as_array() if hasattr(target, "as_array") else np.asarray(target, dtype=np.float64)
    return smooth_l1_batch(p.reshape(1, -1), t.reshape(1, -1), beta)[0]


@dataclass(frozen=True)
class LossBreakdown:
    """The assembled objective: auxiliary head terms plus the main detector loss.

    ``re_roi_total`` is cls + con + reg; ``grand_total`` is
    base_total + lam * re_roi_total. Both identities are enforced at
    construction.
    """

    con: float
    cls: float
    reg: float
    re_roi_total: float
    lam: float
    base_total: float
    grand_total: float

    def __post_init__(self):
        for name in ("con", "cls", "reg", "re_roi_total", "lam", "base_total", "grand_total"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"LossBreakdown.{name} must be finite")
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam!r}")
        scale = max(1.0, abs(self.re_roi_total))
        if abs(self.re_roi_total - (self.cls + self.con + self.reg)) > 1e-9 * scale:
            raise ValueError("re_roi_total must equal cls + con + reg")
        scale = max(1.0, abs(self.grand_total))
        if abs(self.grand_total - (self.base_total + self.lam * self.re_roi_total)) > 1e-9 * scale:
            raise ValueError("grand_total must equal base_total + lam * re_roi_total")


def assemble_loss(base_total: float, con: float, cls: float, reg: float, lam: float) -> LossBreakdown:
    """Combine the main detector loss with the weighted auxiliary-head terms."""
    re_roi_total = (cls + con) + reg
    return LossBreakdown(
        con=con,
        cls=cls,
        reg=reg,
        re_roi_total=re_roi_total,
        lam=lam,
        base_total=base_total,
        grand_total=base_total + lam * re_roi_total,
    )

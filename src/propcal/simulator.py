"""Desk-scale two-step detection experiment on synthetic scenes.

The world replaces a real detector with its calibration-relevant skeleton:
every scene holds one object with a known box and an appearance vector
drawn around a class prototype; a stochastic proposal source perturbs
ground-truth boxes with configurable offset noise, an extra bias and a miss
rate for novel classes; and a proposal's feature is the IoU-weighted mix of
object appearance and a shared background direction plus keyed noise, so a
poorly localized proposal yields a background-contaminated feature. A tiny
linear head (classifier and class-agnostic box regressor) is trained by
plain full-batch gradient descent.

Training runs the usual two steps: base training on abundant base-class
scenes (which also fits the reusable offset statistics), then balanced
K-shot fine-tuning over all classes. The fine-tuning baseline arm sees only
the biased proposal source; the calibrated arm additionally samples
proposals from the fitted base statistics and applies the classification
and regression losses to them with weight ``lam``. The features are fixed
(there is no backbone), so the supervised contrastive loss of
``propcal.losses``, which could only shape features, is not computed here.
Each split holds one array row per scene, and each proposal set is built
once per seed; both arms share the fine-tuning and test sets. Everything is keyed off (config, seed), so reports are
reproducible byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import diagnostics
from .geometry import _is_finite, apply_offsets_array, encode_offsets_array, iou_paired_array
# bound only because the benchmark tracer counts geometry.iou calls through this name
from .geometry import iou as iou_scalar  # noqa: F401
from .losses import cross_entropy_batch, smooth_l1_batch
# bound only because the benchmark tracer counts supcon calls through these names
from .losses import supcon_grad_arrays, supcon_loss_arrays  # noqa: F401
from .sampling import (SamplerConfig, box_noise, build_calibrated_set, check_seed, derive_seed, keyed_streams,
                       sample_boxes, stream_key, stream_rng)
# bound only because the benchmark tracer patches sample_boxes_for_gt through this name
from .sampling import sample_boxes_for_gt  # noqa: F401
from .stats import DiagonalGaussian4, fit_gaussian

# Regressor outputs are clamped to this range before decoding so a refined
# box always has positive size.
_PRED_CLAMP = (-0.9, 4.0)
_CLS_INIT = 0.4
_REG_INIT = 0.5

# The metrics the two arms are compared on: (EvalMetrics field, ExperimentReport
# field of the (baseline, pdc) means, ExperimentReport field of the pdc wins,
# whether the lower value wins)
METRICS = (
    ("mean_iou", "mean_iou", "iou_wins", False),
    ("novel_accuracy", "mean_novel_acc", "acc_wins", False),
    ("mmd_novel", "mean_mmd", "mmd_wins", True),
)


# JSON value types a config field accepts, by the type of its default, and
# how messages name them; an integer is a valid number
_JSON_TYPES = {
    bool: ((bool,), "a boolean", "booleans"),
    int: ((int,), "an integer", "integers"),
    float: ((int, float), "a number", "numbers"),
}


def _finite_float(name: str, value) -> float:
    """``float(value)``; a ValueError naming the field if it is not finite."""
    if not _is_finite(value):
        raise ValueError(f"{name} must be finite")
    return float(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of the synthetic experiment; serializes to a flat JSON object."""

    c_base: int = 6
    c_novel: int = 3
    k_shot: int = 5
    j_per_instance: int = 50
    lam: float = 0.1
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
    epochs_base: int = 60
    epochs_finetune: int = 250
    learning_rate: float = 1.5
    pos_neg_cap: float = 8.0
    sampled_in_main: bool = False
    image_w: float = 160.0
    image_h: float = 160.0
    feature_dim: int = 16
    base_per_class: int = 200
    test_per_class: int = 30
    rpn_per_object: int = 8
    rpn_mu: tuple[float, ...] = (0.02, -0.02, 0.06, 0.04)
    rpn_sigma: tuple[float, ...] = (0.08, 0.08, 0.10, 0.10)
    novel_extra_bias: tuple[float, ...] = (0.12, 0.10, -0.06, -0.06)
    miss_rate_novel: float = 0.4
    novel_bias_spread: float = 0.28
    fg_iou: float = 0.5
    bg_iou: float = 0.3
    feature_noise: float = 0.05
    appearance_noise: float = 0.08
    min_box: float = 18.0
    max_box: float = 42.0
    margin: float = 48.0

    def __post_init__(self):
        # the JSON value types (a tuple field also takes a list); one JSON form per
        # value: 160 and 160.0 give the same config hash; every float is finite
        for f in dataclasses.fields(self):
            value, default = getattr(self, f.name), f.default
            if isinstance(default, tuple):
                accepted, _, plural = _JSON_TYPES[type(default[0])]
                if not (isinstance(value, (list, tuple)) and all(type(v) in accepted for v in value)):
                    raise ValueError(f"{f.name} must be a list of {plural}, got {value!r}")
                if isinstance(default[0], float):
                    value = [_finite_float(f.name, v) for v in value]
                object.__setattr__(self, f.name, tuple(value))
            else:
                accepted, kind, _ = _JSON_TYPES[type(default)]
                if type(value) not in accepted:
                    raise ValueError(f"{f.name} must be {kind}, got {value!r}")
                if isinstance(default, float):
                    object.__setattr__(self, f.name, _finite_float(f.name, value))
        if self.k_shot < 1:
            raise ValueError("k_shot must be >= 1")
        for name in ("c_base", "c_novel", "epochs_base", "epochs_finetune",
                     "base_per_class", "test_per_class", "rpn_per_object",
                     "feature_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        for name in ("j_per_instance", "lam", "pos_neg_cap", "novel_bias_spread"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("rpn_mu", "rpn_sigma", "novel_extra_bias"):
            if len(getattr(self, name)) != 4:
                raise ValueError(f"{name} must have 4 elements, got {len(getattr(self, name))}")
        if not 0 < self.min_box <= self.max_box:
            raise ValueError("need 0 < min_box <= max_box")
        if not 2 * self.margin <= min(self.image_w, self.image_h):
            raise ValueError("margin must be at most half of min(image_w, image_h)")
        # so every object lies inside the image
        if 2 * self.margin < self.max_box:
            raise ValueError("margin must be at least max_box / 2")
        # a miss rate of 1 leaves no novel test proposals, so mmd_novel is undefined
        if not 0.0 <= self.miss_rate_novel < 1.0:
            raise ValueError("miss_rate_novel must be in [0, 1)")
        if not 0.0 <= self.bg_iou <= self.fg_iou <= 1.0:
            raise ValueError("need 0 <= bg_iou <= fg_iou <= 1")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        for seed in self.seeds:
            check_seed(seed)
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {list(self.seeds)}")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> ExperimentConfig:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("experiment config must be a JSON object")
        unknown = set(doc) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**doc)

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:12]


@dataclass(frozen=True)
class Split:
    """One row per scene: the box, class label and appearance of its one object."""

    ids: tuple[str, ...]
    boxes: np.ndarray              # (n, 4)
    labels: np.ndarray             # (n,)
    appearance: np.ndarray         # (n, d)
    feature_keys: tuple[int, ...]  # per-scene key of the feature-noise streams

    @property
    def size(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class SimDataset:
    base: Split
    finetune: Split
    test: Split
    prototypes: np.ndarray
    background: np.ndarray


def _unit_vectors(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """n unit vectors with pairwise |dot| <= 0.3, by rejection."""
    out: list[np.ndarray] = []
    for _ in range(20000):
        v = rng.normal(size=dim)
        v /= np.linalg.norm(v)
        if all(abs(float(v @ u)) <= 0.3 for u in out):
            out.append(v)
            if len(out) == n:
                return np.stack(out)
    raise RuntimeError(f"could not place {n} separated prototypes in {dim} dims")


def generate_dataset(config: ExperimentConfig, seed: int) -> SimDataset:
    """Base / fine-tuning / test splits with fixed class prototypes.

    Base classes get ``base_per_class`` instances; the balanced fine-tuning
    split holds exactly ``k_shot`` instances for every class (base and
    novel); the test split holds ``test_per_class`` instances per class.
    Labels ``c_base`` to ``c_base + c_novel - 1`` are the novel classes.
    """
    c_total = config.c_base + config.c_novel
    world_rng = stream_rng(seed, "world")
    vecs = _unit_vectors(c_total + 1, config.feature_dim, world_rng)
    prototypes, background = vecs[:-1], vecs[-1]

    def make_split(split: str, n_classes: int, per_class: int) -> Split:
        ids = tuple(f"{split}/{label}/{index}" for label in range(n_classes) for index in range(per_class))
        labels = np.repeat(np.arange(n_classes, dtype=np.int64), per_class)
        boxes, appearance = np.empty((len(ids), 4)), np.empty((len(ids), config.feature_dim))
        for i, rng in enumerate(keyed_streams(stream_key(seed, "scene", sid) for sid in ids)):
            w = rng.uniform(config.min_box, config.max_box)
            h = rng.uniform(config.min_box, config.max_box)
            cx = rng.uniform(config.margin, config.image_w - config.margin)
            cy = rng.uniform(config.margin, config.image_h - config.margin)
            boxes[i] = cx, cy, w, h
            appearance[i] = prototypes[labels[i]] + config.appearance_noise * rng.normal(size=config.feature_dim)
        return Split(ids, boxes, labels, appearance, tuple(derive_seed(seed, "feat", sid) for sid in ids))

    return SimDataset(
        make_split("base", config.c_base, config.base_per_class),
        make_split("ft", c_total, config.k_shot),
        make_split("test", c_total, config.test_per_class),
        prototypes, background,
    )


def _features_for(split: Split, rows: np.ndarray, boxes: np.ndarray, q: np.ndarray, background: np.ndarray,
                  noise_scale: float) -> np.ndarray:
    """IoU-weighted appearance/background mix with keyed noise; box i belongs to scene ``rows[i]``.

    ``q`` is each box's IoU against its scene's object. Deterministic in (scene, box): a row's
    noise is :func:`~propcal.sampling.box_noise` of its scene's feature key and its box.
    """
    app = split.appearance[rows]
    noise = box_noise([split.feature_keys[r] for r in rows], boxes, app.shape[1])
    w = q[:, None]
    return w * app + (1.0 - w) * background + noise_scale * noise


@dataclass
class TinyRoiHead:
    """Linear classifier + class-agnostic box regressor."""

    w_cls: np.ndarray
    b_cls: np.ndarray
    w_reg: np.ndarray
    b_reg: np.ndarray

    def logits(self, feats: np.ndarray) -> np.ndarray:
        return feats @ self.w_cls.T + self.b_cls

    def offsets(self, feats: np.ndarray) -> np.ndarray:
        return feats @ self.w_reg.T + self.b_reg

    def copy(self) -> TinyRoiHead:
        return TinyRoiHead(self.w_cls.copy(), self.b_cls.copy(), self.w_reg.copy(), self.b_reg.copy())


def init_head(config: ExperimentConfig, seed: int) -> TinyRoiHead:
    rng = stream_rng(seed, "head-init")
    c_total = config.c_base + config.c_novel
    d = config.feature_dim
    return TinyRoiHead(
        w_cls=rng.normal(0.0, _CLS_INIT, size=(c_total + 1, d)),
        b_cls=np.zeros(c_total + 1),
        w_reg=rng.normal(0.0, _REG_INIT, size=(4, d)),
        b_reg=np.zeros(4),
    )


@dataclass
class ProposalSet:
    """Flat arrays describing proposals across scenes: inputs to the head."""

    boxes: np.ndarray       # (n, 4)
    gt_boxes: np.ndarray    # (n, 4) matched ground truths
    labels: np.ndarray      # (n,) object class of the matched gt
    feats: np.ndarray       # (n, d)
    q: np.ndarray           # (n,) IoU against the matched gt
    budget_misses: int = 0  # objects dropped because their draws exhausted the re-draw budget

    @property
    def size(self) -> int:
        return self.boxes.shape[0]


def _proposal_set(
    ds: SimDataset, split: Split, rows: np.ndarray, boxes: np.ndarray, config: ExperimentConfig
) -> ProposalSet:
    """Head inputs for proposals ``boxes``, box i matched to the object of scene ``rows[i]``."""
    gt = split.boxes[rows]
    q = iou_paired_array(boxes, gt)
    feats = _features_for(split, rows, boxes, q, ds.background, config.feature_noise)
    return ProposalSet(boxes, gt, split.labels[rows], feats, q)


def rpn_proposals(
    ds: SimDataset, split: Split, config: ExperimentConfig, seed: int, purpose: str
) -> ProposalSet:
    """Biased detector proposals for the object of every scene of ``split`` not missed.

    Offsets are drawn from N(``rpn_mu``, ``rpn_sigma``^2). A novel object is
    missed with probability ``miss_rate_novel``; otherwise its offsets are
    shifted by ``novel_extra_bias`` plus an instance bias with per-dimension
    standard deviation ``novel_bias_spread``, so the source mislocates novel
    objects, each in its own way. An object whose draws exhaust the re-draw
    budget is missed too; the returned set counts these in ``budget_misses``.
    """
    dist = DiagonalGaussian4(config.rpn_mu, np.array(config.rpn_sigma) ** 2)
    extra_bias = np.array(config.novel_extra_bias)
    keys = [stream_key(seed, purpose, sid) for sid in split.ids]
    states, models, kept = list(keys), [dist] * split.size, np.ones(split.size, dtype=bool)
    novel = np.flatnonzero(split.labels >= config.c_base)
    for r, rng in zip(novel, keyed_streams(keys[r] for r in novel)):
        kept[r] = rng.random() >= config.miss_rate_novel
        states[r] = rng.bit_generator.state  # a novel object's offset draws start past its miss draw
    novel = novel[kept[novel]]
    # a fixed per-object bias, so fine-tuning cannot see the test ones; the 0 keeps the old stream keys
    for r, rng in zip(novel, keyed_streams(stream_key(seed, "novel-bias", split.ids[r], 0) for r in novel)):
        models[r] = DiagonalGaussian4(dist.mu + (extra_bias + config.novel_bias_spread * rng.normal(size=4)), dist.var)
    rows = np.flatnonzero(kept)
    drawn = sample_boxes(split.boxes[rows], config.rpn_per_object, [models[r] for r in rows],
                         (config.image_w, config.image_h), [states[r] for r in rows])
    hit = ~np.isnan(drawn[:, :, 0]).any(axis=1)
    pset = _proposal_set(ds, split, np.repeat(rows[hit], config.rpn_per_object), drawn[hit].reshape(-1, 4), config)
    pset.budget_misses = int(np.count_nonzero(~hit))
    return pset


def sampled_proposals(ds: SimDataset, stats: DiagonalGaussian4, config: ExperimentConfig, seed: int) -> ProposalSet:
    """Calibrated proposals: J draws from the base statistics per scene of the fine-tuning split."""
    if config.j_per_instance == 0:
        return _proposal_set(ds, ds.finetune, np.zeros(0, dtype=np.int64), np.zeros((0, 4)), config)
    sampler = SamplerConfig(stats, config.j_per_instance, derive_seed(seed, "ft-sample"))
    # scene ids are distinct, so each scene draws from its (sid, 0) stream
    boxes = build_calibrated_set(ds.finetune.boxes, sampler, (config.image_w, config.image_h), ds.finetune.ids)
    rows = np.repeat(np.arange(ds.finetune.size), config.j_per_instance)
    return _proposal_set(ds, ds.finetune, rows, boxes, config)


def _head_targets(pset: ProposalSet, config: ExperimentConfig):
    """(cls_feats, cls_targets, reg_feats, reg_targets): the ignore band is dropped; background is the last class."""
    fg = pset.q >= config.fg_iou
    keep = fg | (pset.q < config.bg_iou)
    cls_targets = np.where(fg, pset.labels, config.c_base + config.c_novel)[keep]
    reg_targets = encode_offsets_array(pset.gt_boxes[fg], pset.boxes[fg])
    return pset.feats[keep], cls_targets, pset.feats[fg], reg_targets


def _head_loss_grads(head: TinyRoiHead, cls_feats, cls_targets, reg_feats, reg_targets):
    """(cls_loss, reg_loss, (dw_cls, db_cls, dw_reg, db_reg)) of the linear head.

    Both losses are batch means; an empty input contributes zero loss and gradient.
    """
    cls_loss, gc = cross_entropy_batch(head.logits(cls_feats), cls_targets)
    reg_loss, gr = smooth_l1_batch(head.offsets(reg_feats), reg_targets)
    return cls_loss, reg_loss, (gc.T @ cls_feats, gc.sum(axis=0), gr.T @ reg_feats, gr.sum(axis=0))


def _sgd_step(head: TinyRoiHead, step: float, grads) -> None:
    """In-place descent on (w_cls, b_cls, w_reg, b_reg)."""
    for param, grad in zip((head.w_cls, head.b_cls, head.w_reg, head.b_reg), grads):
        param -= step * grad


def _descend(head: TinyRoiHead, main, epochs: int, config: ExperimentConfig, stage: str,
             aux=None) -> TinyRoiHead:
    """``epochs`` full-batch descent steps of a copy of ``head`` on the main head inputs.

    ``main`` is (cls_feats, cls_targets, reg_feats, reg_targets). The calibrated
    branch ``aux`` has the same shape, (feats, labels, feats, reg_targets) of the
    sampled proposals: after each main step it takes a step of ``lr * lam`` on
    their head losses.
    Raises RuntimeError naming ``stage`` and the epoch when the epoch's total
    loss is not finite.
    """
    head = head.copy()
    lr, lam = config.learning_rate, config.lam
    cls_s = reg_s = 0.0
    for epoch in range(epochs):
        cls_loss, reg_loss, grads = _head_loss_grads(head, *main)
        if aux is not None:
            cls_s, reg_s, grads_s = _head_loss_grads(head, *aux)
        if not math.isfinite(cls_loss + reg_loss + lam * (cls_s + reg_s)):
            sampled = "" if aux is None else f", sampled cls={cls_s}, sampled reg={reg_s}, lam={lam}"
            raise RuntimeError(f"{stage} diverged at epoch {epoch}: cls={cls_loss}, reg={reg_loss}{sampled}")
        _sgd_step(head, lr, grads)
        if aux is not None and lam != 0.0:
            _sgd_step(head, lr * lam, grads_s)
    return head


def base_train(
    head: TinyRoiHead, pset: ProposalSet, epochs: int, config: ExperimentConfig
) -> tuple[TinyRoiHead, DiagonalGaussian4]:
    """Train classifier + regressor on the base proposals; fit the offset statistics.

    The statistics pool the re-encoded offsets of every proposal in ``pset``,
    independent of the number of epochs.
    """
    main = _head_targets(pset, config)
    if main[0].shape[0] == 0:
        raise ValueError("base training requires at least one classifiable proposal")
    head = _descend(head, main, epochs, config, "base training")
    return head, fit_gaussian(encode_offsets_array(pset.boxes, pset.gt_boxes))


def finetune(
    head: TinyRoiHead,
    rpn: ProposalSet,
    sampled: ProposalSet,
    pdc_enabled: bool,
    config: ExperimentConfig,
    seed: int,
) -> TinyRoiHead:
    """Balanced fine-tuning; the calibrated branch is active iff ``pdc_enabled``.

    Both arms get the same detector proposals ``rpn``, labels, schedule, and
    randomness; the calibrated arm differs only by the ``sampled`` proposals
    (positives capped at ``pos_neg_cap`` times the detector negatives, a sorted
    keyed choice) and the lam-weighted head losses on them. The feature
    generator (scene appearances, prototypes, noise keys) is never modified.
    """
    main, aux = _head_targets(rpn, config), None
    if pdc_enabled:
        n_neg = int((rpn.q < config.bg_iou).sum())
        cap = config.pos_neg_cap * max(n_neg, 1)  # inf when the product overflows: no cap
        keep = np.arange(sampled.size)
        if sampled.size > cap:
            keep = np.sort(stream_rng(seed, "pos-cap").choice(sampled.size, size=int(cap), replace=False))
        if keep.size:
            feats, labels = sampled.feats[keep], sampled.labels[keep]
            reg_targets = encode_offsets_array(sampled.gt_boxes[keep], sampled.boxes[keep])
            aux = (feats, labels, feats, reg_targets)
            if config.sampled_in_main:
                main = tuple(map(np.concatenate, zip(main, aux)))
    return _descend(head, main, config.epochs_finetune, config, "fine-tuning", aux)


@dataclass(frozen=True)
class EvalMetrics:
    """Test-set summary for one arm, with the per-proposal arrays the report buckets."""

    mean_iou: float
    novel_accuracy: float
    base_accuracy: float
    mmd_novel: float
    refined_iou: np.ndarray     # refined-box IoU of every proposal, in [0, 1] as iou_paired_array returns it
    novel_iou: np.ndarray       # IoU of every novel proposal before refinement
    novel_correct: np.ndarray   # whether each novel proposal is classified correctly
    n_foreground: int
    n_novel_foreground: int


def evaluate(
    head: TinyRoiHead,
    pset: ProposalSet,
    config: ExperimentConfig,
    seed: int,
    base_stats: DiagonalGaussian4,
) -> EvalMetrics:
    """Refine and classify the test proposals ``pset``; report localization and class metrics.

    Raises ValueError when no novel test proposal is foreground, or when a
    compared metric is not finite.
    """
    pred = np.clip(head.offsets(pset.feats), [-np.inf, -np.inf, _PRED_CLAMP[0], _PRED_CLAMP[0]],
                   [np.inf, np.inf, _PRED_CLAMP[1], _PRED_CLAMP[1]])
    refined = apply_offsets_array(pset.boxes, pred)
    refined_iou = iou_paired_array(refined, pset.gt_boxes)
    pred_labels = np.argmax(head.logits(pset.feats), axis=1)

    fg = pset.q >= config.fg_iou
    novel = pset.labels >= config.c_base
    novel_fg = fg & novel
    base_fg = fg & ~novel
    if not novel_fg.any():
        # novel accuracy and mmd_novel are undefined without one
        raise ValueError(
            f"seed {seed}: no foreground novel test proposal "
            "(raise test_per_class or lower miss_rate_novel)"
        )
    mean_iou = float(refined_iou.mean())
    novel_acc = float((pred_labels[novel_fg] == pset.labels[novel_fg]).mean())
    base_acc = float((pred_labels[base_fg] == pset.labels[base_fg]).mean()) if base_fg.any() else 0.0

    # kernel MMD between refined foreground novel offsets and draws from the
    # base statistics: sensitive to both mean shift and spread
    novel_offsets = encode_offsets_array(refined[novel_fg], pset.gt_boxes[novel_fg])
    ref_rng = stream_rng(seed, "mmd-ref")
    ref_sample = ref_rng.normal(base_stats.mu, np.sqrt(base_stats.var), size=(2048, 4))
    mmd_novel = diagnostics.mmd_rbf(novel_offsets, ref_sample)

    metrics = EvalMetrics(
        mean_iou, novel_acc, base_acc, mmd_novel, refined_iou,
        pset.q[novel], pred_labels[novel] == pset.labels[novel],
        int(fg.sum()), int(novel_fg.sum()),
    )
    # a head whose outputs overflowed scores NaN, which loses every comparison
    for name, *_ in METRICS:
        value = getattr(metrics, name)
        if not math.isfinite(value):
            raise ValueError(f"seed {seed}: {name} is {value!r}; lower learning_rate")
    return metrics


@dataclass(frozen=True)
class SeedResult:
    seed: int
    baseline: EvalMetrics
    pdc: EvalMetrics


@dataclass(frozen=True)
class ExperimentReport:
    config_hash: str
    results: tuple[SeedResult, ...]
    iou_wins: int
    acc_wins: int
    mmd_wins: int
    mean_iou: tuple[float, float]       # (baseline, pdc)
    mean_novel_acc: tuple[float, float]
    mean_mmd: tuple[float, float]
    output_dir: Path | None

    @property
    def n_seeds(self) -> int:
        return len(self.results)

    def comparisons(self) -> list[tuple[str, tuple[float, float], int]]:
        """(metric, (baseline mean, pdc mean), pdc wins) for each of METRICS, in order."""
        return [(m, getattr(self, mean), getattr(self, wins)) for m, mean, wins, _ in METRICS]


def run_seed(config: ExperimentConfig, seed: int) -> SeedResult:
    """Run both arms for one seed from a shared base-trained head.

    Each proposal set is built once; both arms get the same fine-tuning and
    test proposals.
    """
    ds = generate_dataset(config, seed)
    base_head, stats = base_train(
        init_head(config, seed),
        rpn_proposals(ds, ds.base, config, seed, "base-rpn"),
        config.epochs_base, config,
    )
    ft = rpn_proposals(ds, ds.finetune, config, seed, "ft-rpn")
    test = rpn_proposals(ds, ds.test, config, seed, "eval-rpn")
    sampled = sampled_proposals(ds, stats, config, seed)
    arms = {}
    for name, enabled in (("baseline", False), ("pdc", True)):
        tuned = finetune(base_head, ft, sampled, enabled, config, seed)
        arms[name] = evaluate(tuned, test, config, seed, stats)
    return SeedResult(seed, arms["baseline"], arms["pdc"])


def run_experiment(config: ExperimentConfig, out_root: Path | str | None = None) -> ExperimentReport:
    """Paired baseline-vs-calibrated comparison across all configured seeds.

    With ``out_root`` set, CSV and SVG reports are written under
    ``out_root/<config hash>/``.
    """
    results = tuple(run_seed(config, s) for s in config.seeds)
    fields = {}
    for metric, mean_field, wins_field, lower_wins in METRICS:
        base = [getattr(r.baseline, metric) for r in results]
        pdc = [getattr(r.pdc, metric) for r in results]
        fields[mean_field] = (sum(base) / len(results), sum(pdc) / len(results))
        fields[wins_field] = sum((p < b) if lower_wins else (p > b) for b, p in zip(base, pdc))
    outdir = None if out_root is None else Path(out_root) / config.config_hash()
    report = ExperimentReport(config.config_hash(), results, output_dir=outdir, **fields)
    if outdir is not None:
        write_report(report, config, outdir)
    return report


def write_report(report: ExperimentReport, config: ExperimentConfig, outdir: Path) -> None:
    """Emit config echo, per-seed CSV, summary CSV, and histogram CSV/SVG files."""
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config.json").write_text(config.to_json() + "\n", encoding="utf-8")

    columns = ("mean_iou", "novel_accuracy", "base_accuracy", "mmd_novel", "n_foreground", "n_novel_foreground")
    lines = [",".join(("seed", "arm") + columns)]  # the EvalMetrics fields after seed and arm, one repr each
    for r in report.results:
        for arm, m in (("baseline", r.baseline), ("pdc", r.pdc)):
            lines.append(",".join([str(r.seed), arm] + [repr(getattr(m, name)) for name in columns]))
    (outdir / "per_seed.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    summary = ["metric,baseline_mean,pdc_mean,pdc_wins,n_seeds"]
    for metric, (b, p), wins in report.comparisons():
        summary.append(f"{metric},{b!r},{p!r},{wins},{report.n_seeds}")
    (outdir / "summary.csv").write_text("\n".join(summary) + "\n", encoding="utf-8")

    for arm in ("baseline", "pdc"):
        metrics = [getattr(r, arm) for r in report.results]
        hist = diagnostics.histogram(np.concatenate([m.refined_iou for m in metrics]), diagnostics.IOU_EDGES)
        prec = diagnostics.precision_by_iou(
            np.concatenate([m.novel_iou for m in metrics]),
            np.concatenate([m.novel_correct for m in metrics]),
            diagnostics.IOU_EDGES,
        )
        diagnostics.write_histogram(outdir / f"iou_hist_{arm}", hist, f"refined-box IoU ({arm})")
        (outdir / f"precision_by_iou_{arm}.csv").write_text(diagnostics.precision_to_csv(prec), encoding="utf-8")

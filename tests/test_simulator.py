import ast
import dataclasses
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import propcal
from propcal import sampling
from propcal.geometry import BBox, corners_array, encode_offsets_array, iou_paired_array
from propcal.sampling import MAX_RESAMPLE, philox_rng, sample_boxes_for_gt, stream_key, stream_rng
from propcal.simulator import (
    ExperimentConfig,
    SimDataset,
    Split,
    base_train,
    evaluate,
    finetune,
    generate_dataset,
    init_head,
    rpn_proposals,
    run_experiment,
    run_seed,
    sampled_proposals,
)
from propcal.simulator import _features_for, _proposal_set
from propcal.stats import DiagonalGaussian4


def proposal_feature(ds, split, row, box, config):
    """Feature row of one proposal box matched to the object of scene ``row`` of ``split``."""
    boxes = box.as_array().reshape(1, 4)
    q = iou_paired_array(boxes, split.boxes[[row]])
    return _features_for(split, np.array([row]), boxes, q, ds.background, config.feature_noise)[0]

# small world for structural tests: quick to train, same mechanics
SMALL = ExperimentConfig(
    c_base=3,
    c_novel=2,
    k_shot=2,
    base_per_class=40,
    test_per_class=6,
    epochs_base=30,
    epochs_finetune=40,
    seeds=(0, 1),
)


def heads_equal(a, b) -> bool:
    return (
        np.array_equal(a.w_cls, b.w_cls)
        and np.array_equal(a.b_cls, b.b_cls)
        and np.array_equal(a.w_reg, b.w_reg)
        and np.array_equal(a.b_reg, b.b_reg)
    )


def test_dataset_counts():
    cfg = dataclasses.replace(SMALL, c_novel=5, k_shot=1, c_base=3)
    ds = generate_dataset(cfg, 0)
    novel_ft = [label for label in ds.finetune.labels if label in ds.novel_classes]
    assert len(novel_ft) == 5  # exactly K instances per novel class
    assert ds.base.size == cfg.c_base * cfg.base_per_class
    assert ds.test.size == (cfg.c_base + cfg.c_novel) * cfg.test_per_class


def test_dataset_determinism():
    a = generate_dataset(SMALL, 3)
    b = generate_dataset(SMALL, 3)
    np.testing.assert_array_equal(a.prototypes, b.prototypes)
    assert a.base.ids == b.base.ids
    np.testing.assert_array_equal(a.base.boxes, b.base.boxes)
    np.testing.assert_array_equal(a.base.appearance, b.base.appearance)


def test_prototype_separation():
    ds = generate_dataset(SMALL, 1)
    vecs = np.vstack([ds.prototypes, ds.background])
    dots = vecs @ vecs.T
    np.testing.assert_allclose(np.diag(dots), 1.0, atol=1e-12)
    off = dots[~np.eye(len(vecs), dtype=bool)]
    assert np.max(np.abs(off)) <= 0.3


def test_boxes_inside_image():
    ds = generate_dataset(SMALL, 2)
    for split in (ds.base, ds.finetune, ds.test):
        x1, y1, x2, y2 = corners_array(split.boxes).T
        assert np.all((0 <= x1) & (x1 < x2) & (x2 <= SMALL.image_w))
        assert np.all((0 <= y1) & (y1 < y2) & (y2 <= SMALL.image_h))


def test_proposal_feature_mixture():
    # noiseless feature is exactly q * appearance + (1 - q) * background
    cfg = dataclasses.replace(SMALL, feature_noise=0.0)
    ds = generate_dataset(cfg, 4)
    box, appearance = BBox(*ds.test.boxes[0]), ds.test.appearance[0]
    f_perfect = proposal_feature(ds, ds.test, 0, box, cfg)
    np.testing.assert_allclose(f_perfect, appearance, atol=1e-12)
    far = BBox(box.cx + 1000, box.cy + 1000, box.w, box.h)
    np.testing.assert_allclose(proposal_feature(ds, ds.test, 0, far, cfg), ds.background, atol=1e-12)
    # a proposal with IoU exactly 0.5: same center, half the width
    half = BBox(box.cx, box.cy, box.w / 2, box.h)
    q = 0.5
    expected = q * appearance + (1 - q) * ds.background
    np.testing.assert_allclose(proposal_feature(ds, ds.test, 0, half, cfg), expected, atol=1e-12)


def test_proposal_feature_deterministic():
    ds = generate_dataset(SMALL, 5)
    gt = BBox(*ds.test.boxes[1])
    box = BBox(gt.cx + 1, gt.cy, gt.w, gt.h)
    np.testing.assert_array_equal(
        proposal_feature(ds, ds.test, 1, box, SMALL), proposal_feature(ds, ds.test, 1, box, SMALL)
    )
    # a row's noise is keyed by its own box, not by its position in the batch
    batch = np.stack([gt.as_array(), box.as_array()])
    np.testing.assert_array_equal(
        _features_for(ds.test, np.array([1, 1]), batch, iou_paired_array(batch, ds.test.boxes[[1, 1]]),
                      ds.background, SMALL.feature_noise)[1],
        proposal_feature(ds, ds.test, 1, box, SMALL),
    )


def test_features_for_draws_one_fresh_philox_stream_per_row():
    # the re-keyed generator must draw what Philox(key=(feature key << 64) | box hash)
    # draws, row after row; a numpy whose Philox state layout differs fails here
    ds = generate_dataset(SMALL, 5)
    rows = np.array([0, 3, 3, 7, 0])
    boxes = ds.test.boxes[rows] + np.random.default_rng(0).normal(0.0, 2.0, size=(5, 4))
    q = iou_paired_array(boxes, ds.test.boxes[rows])
    got = _features_for(ds.test, rows, boxes, q, ds.background, SMALL.feature_noise)
    for i, (r, box) in enumerate(zip(rows, boxes)):
        word = int.from_bytes(hashlib.blake2b(box.tobytes(), digest_size=8).digest(), "little")
        rng = np.random.Generator(np.random.Philox(key=(ds.test.feature_keys[r] << 64) | word))
        noise = rng.normal(size=SMALL.feature_dim)
        want = q[i] * ds.test.appearance[r] + (1.0 - q[i]) * ds.background + SMALL.feature_noise * noise
        assert np.array_equal(got[i], want)


def test_base_train_recovers_statistics():
    cfg = dataclasses.replace(SMALL, base_per_class=60)
    ds = generate_dataset(cfg, 6)
    base = rpn_proposals(ds, ds.base, cfg, 6, "base-rpn")
    _, stats = base_train(init_head(cfg, 6), base, 0, cfg)
    mu = np.array(cfg.rpn_mu)
    sigma = np.array(cfg.rpn_sigma)
    assert np.all(np.abs(stats.mu - mu) <= 0.05 * sigma)
    assert np.all(np.abs(np.sqrt(stats.var) - sigma) <= 0.05 * sigma)


def test_base_train_zero_epochs_keeps_head():
    ds = generate_dataset(SMALL, 7)
    head = init_head(SMALL, 7)
    trained, _ = base_train(head, rpn_proposals(ds, ds.base, SMALL, 7, "base-rpn"), 0, SMALL)
    assert heads_equal(head, trained)


def test_base_train_reaches_base_accuracy():
    cfg = SMALL
    ds = generate_dataset(cfg, 8)
    base = rpn_proposals(ds, ds.base, cfg, 8, "base-rpn")
    head, stats = base_train(init_head(cfg, 8), base, cfg.epochs_base, cfg)
    m = evaluate(head, rpn_proposals(ds, ds.test, cfg, 8, "eval-rpn"), cfg, 8, stats)
    assert m.base_accuracy >= 0.9


def _finetune_inputs(cfg, seed, base_epochs):
    """(dataset, base-trained head, ft-rpn set, sampled set) for one seed."""
    ds = generate_dataset(cfg, seed)
    base = rpn_proposals(ds, ds.base, cfg, seed, "base-rpn")
    head, stats = base_train(init_head(cfg, seed), base, base_epochs, cfg)
    ft = rpn_proposals(ds, ds.finetune, cfg, seed, "ft-rpn")
    return ds, head, ft, sampled_proposals(ds, stats, cfg, seed)


def test_finetune_with_j_zero_equals_baseline():
    cfg = dataclasses.replace(SMALL, j_per_instance=0)
    _, head, ft, sampled = _finetune_inputs(cfg, 9, 10)
    h_base = finetune(head, ft, sampled, False, cfg, 9)
    h_pdc = finetune(head, ft, sampled, True, cfg, 9)
    assert heads_equal(h_base, h_pdc)


def test_finetune_with_lambda_zero_equals_baseline():
    cfg = dataclasses.replace(SMALL, lam=0.0)
    _, head, ft, sampled = _finetune_inputs(cfg, 10, 10)
    h_base = finetune(head, ft, sampled, False, cfg, 10)
    h_pdc = finetune(head, ft, sampled, True, cfg, 10)
    assert heads_equal(h_base, h_pdc)


def test_finetune_freezes_feature_generator():
    ds, head, ft, sampled = _finetune_inputs(SMALL, 11, 5)
    protos_before = ds.prototypes.copy()
    appearance_before = ds.finetune.appearance.copy()
    background_before = ds.background.copy()
    finetune(head, ft, sampled, True, SMALL, 11)
    np.testing.assert_array_equal(ds.prototypes, protos_before)
    np.testing.assert_array_equal(ds.finetune.appearance, appearance_before)
    np.testing.assert_array_equal(ds.background, background_before)


def test_finetune_does_not_mutate_input_head():
    _, head, ft, sampled = _finetune_inputs(SMALL, 12, 5)
    snapshot = head.copy()
    finetune(head, ft, sampled, True, SMALL, 12)
    assert heads_equal(head, snapshot)


def test_finetune_does_not_mutate_proposal_sets():
    # both arms fine-tune on the same set objects
    _, head, ft, sampled = _finetune_inputs(SMALL, 12, 5)
    before = [dataclasses.astuple(p) for p in (ft, sampled)]
    finetune(head, ft, sampled, True, SMALL, 12)
    for p, fields in zip((ft, sampled), before):
        for now, then in zip(dataclasses.astuple(p), fields):
            np.testing.assert_array_equal(now, then)


def test_only_the_descent_loop_computes_head_losses_or_steps():
    # base training and both fine-tuning arms run one epoch loop; another caller is a second loop
    package = Path(propcal.__file__).parent
    callers = sorted({
        f"{path.name}:{fn.name}: {name}"
        for path in sorted(package.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and (name := ast.unparse(node.func).split(".")[-1]) in {"_sgd_step", "_head_loss_grads"}
    })
    assert callers == ["simulator.py:_descend: _head_loss_grads", "simulator.py:_descend: _sgd_step"]


def test_evaluate_zero_regressor_is_identity_refinement():
    cfg = SMALL
    ds = generate_dataset(cfg, 13)
    head = init_head(cfg, 13)
    head.w_reg[:] = 0.0
    head.b_reg[:] = 0.0
    stats = DiagonalGaussian4(np.array(cfg.rpn_mu), np.array(cfg.rpn_sigma) ** 2)
    test = rpn_proposals(ds, ds.test, cfg, 13, "eval-rpn")
    m = evaluate(head, test, cfg, 13, stats)
    # zero offsets decode to the proposals themselves: mean refined IoU equals raw
    assert m.mean_iou == pytest.approx(float(test.q.mean()), abs=1e-12)


def test_evaluate_deterministic():
    cfg = SMALL
    ds = generate_dataset(cfg, 15)
    base = rpn_proposals(ds, ds.base, cfg, 15, "base-rpn")
    head, stats = base_train(init_head(cfg, 15), base, 10, cfg)
    test = rpn_proposals(ds, ds.test, cfg, 15, "eval-rpn")
    m1 = evaluate(head, test, cfg, 15, stats)
    m2 = evaluate(head, test, cfg, 15, stats)
    assert m1.mean_iou == m2.mean_iou
    assert m1.novel_accuracy == m2.novel_accuracy
    assert m1.mmd_novel == m2.mmd_novel


def test_arm_isolation_same_proposals():
    # proposals are keyed by (seed, purpose, scene), never by arm
    ds = generate_dataset(SMALL, 16)
    a = rpn_proposals(ds, ds.finetune, SMALL, 16, "ft-rpn")
    b = rpn_proposals(ds, ds.finetune, SMALL, 16, "ft-rpn")
    np.testing.assert_array_equal(a.boxes, b.boxes)
    np.testing.assert_array_equal(a.feats, b.feats)
    # nor by a scene's position in its split: dropping the first scene leaves
    # every other scene's proposals as they were
    ft = ds.finetune
    rest = Split(ft.ids[1:], ft.boxes[1:], ft.labels[1:], ft.appearance[1:], ft.feature_keys[1:])
    c = rpn_proposals(ds, rest, SMALL, 16, "ft-rpn")
    np.testing.assert_array_equal(c.boxes, a.boxes[SMALL.rpn_per_object:])
    np.testing.assert_array_equal(c.feats, a.feats[SMALL.rpn_per_object:])


def test_sampled_proposals_match_source_distribution():
    ds = generate_dataset(SMALL, 17)
    stats = DiagonalGaussian4([0.02, -0.02, 0.06, 0.04], [0.0064, 0.0064, 0.01, 0.01])
    pset = sampled_proposals(ds, stats, SMALL, 17)
    assert pset.size == SMALL.j_per_instance * ds.finetune.size
    np.testing.assert_array_equal(pset.labels, np.repeat(ds.finetune.labels, SMALL.j_per_instance))


def test_rpn_novel_bias_shifts_offsets():
    cfg = dataclasses.replace(
        SMALL, miss_rate_novel=0.0, novel_bias_spread=0.0,
        novel_extra_bias=(0.4, 0.0, 0.0, 0.0), rpn_per_object=50,
    )
    ds = generate_dataset(cfg, 18)
    pset = rpn_proposals(ds, ds.test, cfg, 18, "x")
    dx = encode_offsets_array(pset.boxes, pset.gt_boxes)[:, 0]
    # nothing is missed, so scene r owns rows [50 r, 50 r + 50)
    novel_scene = next(r for r, label in enumerate(ds.test.labels) if label in ds.novel_classes)
    base_scene = next(r for r, label in enumerate(ds.test.labels) if label not in ds.novel_classes)
    dx_n = dx[50 * novel_scene:50 * novel_scene + 50].mean()
    dx_b = dx[50 * base_scene:50 * base_scene + 50].mean()
    assert dx_n - dx_b > 0.25


def test_rpn_miss_rate_drops_novel_objects():
    # Generator.random() never exceeds the largest float below 1, so every
    # novel object is missed
    cfg = dataclasses.replace(SMALL, miss_rate_novel=math.nextafter(1.0, 0.0))
    ds = generate_dataset(cfg, 19)
    pset = rpn_proposals(ds, ds.test, cfg, 19, "x")
    assert not pset.novel.any() and pset.budget_misses == 0  # missed objects drew nothing
    base_rows = np.array([label not in ds.novel_classes for label in ds.test.labels])
    np.testing.assert_array_equal(
        pset.gt_boxes, np.repeat(ds.test.boxes[base_rows], cfg.rpn_per_object, axis=0)
    )


def _assert_empty_set(pset, d):
    arrays = (pset.boxes, pset.gt_boxes, pset.labels, pset.feats, pset.novel, pset.q)
    assert [(a.shape, a.dtype.str) for a in arrays] == [
        ((0, 4), "<f8"), ((0, 4), "<f8"), ((0,), "<i8"), ((0, d), "<f8"), ((0,), "|b1"), ((0,), "<f8")]
    assert pset.size == 0 and pset.budget_misses == 0


def test_zero_row_proposal_sets_keep_their_shapes_and_dtypes():
    # every novel object is missed, so the detector draws for no row at all
    cfg = dataclasses.replace(SMALL, miss_rate_novel=math.nextafter(1.0, 0.0))
    ds = generate_dataset(cfg, 19)
    rows = np.flatnonzero(np.isin(ds.test.labels, sorted(ds.novel_classes)))
    assert rows.size > 0
    novel_only = Split(tuple(ds.test.ids[r] for r in rows), ds.test.boxes[rows], ds.test.labels[rows],
                       ds.test.appearance[rows], tuple(ds.test.feature_keys[r] for r in rows))
    _assert_empty_set(rpn_proposals(ds, novel_only, cfg, 19, "x"), cfg.feature_dim)
    stats = DiagonalGaussian4(np.array(cfg.rpn_mu), np.array(cfg.rpn_sigma) ** 2)
    no_draws = dataclasses.replace(cfg, j_per_instance=0)
    _assert_empty_set(sampled_proposals(ds, stats, no_draws, 19), cfg.feature_dim)


def test_rpn_proposals_drop_an_object_whose_draws_exhaust_the_budget():
    # with seed 2074645526 the novel object of scene ft/6/1 has mean dh of about
    # -1.14, so about nine in ten of its draws have a height <= 0 and its eight
    # slots cannot all be filled in the re-draw budget: it is missed, not an error
    cfg, seed = ExperimentConfig(), 2074645526
    inst = cfg.novel_bias_spread * stream_rng(seed, "novel-bias", "ft/6/1", 0).normal(size=4)
    assert cfg.rpn_mu[3] + cfg.novel_extra_bias[3] + inst[3] < -1.1
    d = cfg.feature_dim
    split = Split(("ft/0/0", "ft/6/1"), np.array([[60.0, 70.0, 30.0, 24.0], [90.0, 80.0, 36.0, 28.0]]),
                  np.array([0, 6]), np.zeros((2, d)), (1, 2))
    ds = SimDataset(split, split, split, np.zeros((9, d)), np.eye(d)[0], frozenset({6, 7, 8}))
    pset = rpn_proposals(ds, split, cfg, seed, "ft-rpn")
    assert pset.budget_misses == 1
    assert pset.size == cfg.rpn_per_object and not pset.novel.any()
    np.testing.assert_array_equal(pset.gt_boxes, np.repeat(split.boxes[:1], cfg.rpn_per_object, axis=0))
    assert np.isfinite(pset.boxes).all()


def _rpn_proposals_scene_by_scene(ds, split, config, seed, purpose):
    """rpn_proposals as one sample_boxes_for_gt call per scene on the same keyed streams."""
    dist = DiagonalGaussian4(np.array(config.rpn_mu), np.array(config.rpn_sigma) ** 2)
    rows, boxes, misses = [], [], 0
    for r, (sid, gt, label) in enumerate(zip(split.ids, split.boxes, split.labels)):
        rng = philox_rng(stream_key(seed, purpose, sid))
        model = dist
        if label in ds.novel_classes:
            if rng.random() < config.miss_rate_novel:
                continue
            inst = config.novel_bias_spread * stream_rng(seed, "novel-bias", sid, 0).normal(size=4)
            model = DiagonalGaussian4(dist.mu + (np.array(config.novel_extra_bias) + inst), dist.var)
        drawn = sample_boxes_for_gt(gt, config.rpn_per_object, model, rng, (config.image_w, config.image_h))
        if np.isnan(drawn).any():
            misses += 1
            continue
        rows.append(r)
        boxes.append(drawn)
    rows = np.repeat(np.array(rows, dtype=np.int64), config.rpn_per_object)
    return _proposal_set(ds, split, rows, np.concatenate(boxes).reshape(-1, 4), config), misses


def test_batched_rpn_proposals_match_per_scene_draws(monkeypatch):
    # near-border objects and wide offsets: many slots need redraws, some objects exhaust the budget
    cfg = dataclasses.replace(ExperimentConfig(), margin=21.0, novel_bias_spread=0.6,
                              rpn_sigma=(0.3, 0.3, 0.4, 0.4), base_per_class=30, test_per_class=20)
    draws = {"batched": {}, "per-scene": {}}
    mode = "batched"
    draw_raw = sampling._draw_raw

    def counted(model, n, rng):
        key = tuple(rng.bit_generator.state["state"]["key"].tolist())
        draws[mode].setdefault(key, []).append(n)
        return draw_raw(model, n, rng)

    monkeypatch.setattr(sampling, "_draw_raw", counted)
    total_misses = 0
    for seed in range(12):
        ds = generate_dataset(cfg, seed)
        for split, purpose in ((ds.base, "base-rpn"), (ds.finetune, "ft-rpn"), (ds.test, "eval-rpn")):
            mode = "batched"
            got = rpn_proposals(ds, split, cfg, seed, purpose)
            mode = "per-scene"
            want, misses = _rpn_proposals_scene_by_scene(ds, split, cfg, seed, purpose)
            assert got.boxes.tobytes() == want.boxes.tobytes()
            assert got.feats.tobytes() == want.feats.tobytes()
            np.testing.assert_array_equal(got.labels, want.labels)
            assert got.budget_misses == misses
            total_misses += misses
    assert total_misses == 10
    # every stream draws the same row counts in the same order, and an object that
    # exhausts its budget draws exactly MAX_RESAMPLE + 1 times
    assert draws["batched"] == draws["per-scene"]
    assert max(len(ns) for ns in draws["batched"].values()) == MAX_RESAMPLE + 1


def test_run_seed_deterministic():
    r1 = run_seed(SMALL, 0)
    r2 = run_seed(SMALL, 0)
    assert r1.baseline.mean_iou == r2.baseline.mean_iou
    assert r1.pdc.mmd_novel == r2.pdc.mmd_novel


def test_run_experiment_report_and_files(tmp_path):
    rep = run_experiment(SMALL, out_root=tmp_path)
    assert rep.n_seeds == 2
    assert len(rep.results) == 2
    outdir = rep.output_dir
    assert outdir is not None and outdir.name == SMALL.config_hash()
    for name in (
        "config.json", "per_seed.csv", "summary.csv",
        "iou_hist_baseline.csv", "iou_hist_baseline.svg",
        "iou_hist_pdc.csv", "iou_hist_pdc.svg",
        "precision_by_iou_baseline.csv", "precision_by_iou_pdc.csv",
    ):
        assert (outdir / name).exists(), name
    per_seed = (outdir / "per_seed.csv").read_text().splitlines()
    assert len(per_seed) == 1 + 2 * rep.n_seeds  # header + two arms per seed
    assert json.loads((outdir / "config.json").read_text()) == json.loads(SMALL.to_json())


def test_run_experiment_reports_are_reproducible(tmp_path):
    rep1 = run_experiment(SMALL, out_root=tmp_path / "a")
    rep2 = run_experiment(SMALL, out_root=tmp_path / "b")
    for name in ("per_seed.csv", "summary.csv", "iou_hist_pdc.csv"):
        assert (rep1.output_dir / name).read_bytes() == (rep2.output_dir / name).read_bytes()


def test_config_json_round_trip():
    text = SMALL.to_json()
    again = ExperimentConfig.from_json(text)
    assert again == SMALL
    with pytest.raises(ValueError):
        ExperimentConfig.from_json('{"不": 1}')
    with pytest.raises(ValueError):
        ExperimentConfig.from_json('{"nonsense_field": 1}')
    with pytest.raises(ValueError):
        ExperimentConfig.from_json('[]')


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(k_shot=0)
    with pytest.raises(ValueError):
        ExperimentConfig(miss_rate_novel=1.5)
    with pytest.raises(ValueError, match="miss_rate_novel"):
        ExperimentConfig(miss_rate_novel=1.0)
    with pytest.raises(ValueError, match="seeds"):
        ExperimentConfig(seeds=())
    with pytest.raises(ValueError, match="seeds"):
        ExperimentConfig.from_json('{"seeds": []}')
    with pytest.raises(ValueError, match=re.escape("seeds must be distinct, got [3, 1, 3]")):
        ExperimentConfig(seeds=(3, 1, 3))


def test_config_float_fields_keep_one_json_form():
    # an integer given for a float field is the same experiment, in the same directory
    cfg = ExperimentConfig.from_json('{"image_w": 160}')
    assert cfg == ExperimentConfig()
    assert cfg.config_hash() == ExperimentConfig().config_hash() == "8e567350983e"
    assert '"image_w": 160.0' in cfg.to_json()



# one valid value per config field, other than the tiny config's own; every one
# must move the report, so a setting that shapes nothing cannot hide in the config
# (bg_iou moves it only from about 0.4: below, no tiny-config proposal falls in the band)
_TINY = ExperimentConfig(c_base=3, c_novel=2, k_shot=2, base_per_class=20, test_per_class=6,
                         epochs_base=5, epochs_finetune=8, seeds=(0,))
REPORT_MOVERS = {
    "c_base": 4,
    "c_novel": 3,
    "k_shot": 3,
    "j_per_instance": 20,
    "lam": 0.3,
    "seeds": (1,),
    "epochs_base": 6,
    "epochs_finetune": 9,
    "learning_rate": 1.0,
    "pos_neg_cap": 0.5,
    "sampled_in_main": True,
    "image_w": 200.0,
    "image_h": 200.0,
    "feature_dim": 12,
    "base_per_class": 25,
    "test_per_class": 7,
    "rpn_per_object": 6,
    "rpn_mu": (0.0, 0.0, 0.0, 0.0),
    "rpn_sigma": (0.1, 0.1, 0.12, 0.12),
    "novel_extra_bias": (0.0, 0.0, 0.0, 0.0),
    "miss_rate_novel": 0.2,
    "novel_bias_spread": 0.1,
    "fg_iou": 0.6,
    "bg_iou": 0.45,
    "feature_noise": 0.1,
    "appearance_noise": 0.12,
    "min_box": 20.0,
    "max_box": 40.0,
    "margin": 50.0,
}


def test_every_config_field_moves_the_report(tmp_path):
    assert list(REPORT_MOVERS) == [f.name for f in dataclasses.fields(ExperimentConfig)]

    def digest(config):
        outdir = run_experiment(config, out_root=tmp_path).output_dir
        return hashlib.sha256((outdir / "per_seed.csv").read_bytes()).hexdigest()

    tiny = digest(_TINY)
    inert = [name for name, value in REPORT_MOVERS.items()
             if getattr(_TINY, name) == value or digest(dataclasses.replace(_TINY, **{name: value})) == tiny]
    assert inert == []


def test_overflowing_positive_cap_is_no_cap(tmp_path):
    # 1.7e308 times the 3 detector negatives of this config is inf; it caps nothing, like
    # any cap above the sampled count
    def per_seed(pos_neg_cap):
        config = dataclasses.replace(_TINY, bg_iou=0.45, pos_neg_cap=pos_neg_cap)
        outdir = run_experiment(config, out_root=tmp_path).output_dir
        return (outdir / "per_seed.csv").read_bytes()

    assert per_seed(1.7e308) == per_seed(1e9)


# Two valid configs whose reports exit 0 and say nothing true about the head. These
# pin today's outcome, so a change that refuses or repairs them shows as an edit here.

def test_wide_bias_spread_collapses_the_calibrated_arm():
    # the calibrated arm's regressor runs away while its head stays finite
    result = run_seed(dataclasses.replace(SMALL, novel_bias_spread=0.5), 0)
    assert result.baseline.mean_iou == pytest.approx(0.490, abs=5e-4)
    assert result.pdc.mean_iou == pytest.approx(0.009, abs=5e-4)


def test_huge_learning_rate_zeroes_every_iou_but_still_ranks_classes():
    result = run_seed(dataclasses.replace(ExperimentConfig(), learning_rate=1e6), 0)
    for arm in (result.baseline, result.pdc):
        assert arm.mean_iou == 0.0
        assert arm.novel_accuracy > 0.5

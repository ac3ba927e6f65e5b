import dataclasses
import json

import numpy as np
import pytest

from propcal.geometry import BBox, encode_offsets_array
from propcal.simulator import (
    BiasedRpnModel,
    ExperimentConfig,
    base_train,
    evaluate,
    finetune,
    generate_dataset,
    init_head,
    make_rpn_model,
    proposal_feature,
    rpn_proposals,
    run_experiment,
    run_seed,
    sampled_proposals,
)
from propcal.stats import DiagonalGaussian4

# small world for structural tests: quick to train, same mechanics
SMALL = ExperimentConfig(
    c_base=3,
    c_novel=2,
    k_shot=2,
    base_per_class=40,
    test_per_class=6,
    epochs_base=30,
    epochs_finetune=40,
    contrastive_cap=96,
    seeds=(0, 1),
)


def heads_equal(a, b) -> bool:
    return (
        np.array_equal(a.w_cls, b.w_cls)
        and np.array_equal(a.b_cls, b.b_cls)
        and np.array_equal(a.w_reg, b.w_reg)
        and np.array_equal(a.b_reg, b.b_reg)
        and np.array_equal(a.w_proj, b.w_proj)
    )


def test_dataset_counts():
    cfg = dataclasses.replace(SMALL, c_novel=5, k_shot=1, c_base=3)
    ds = generate_dataset(cfg, 0)
    novel_ft = [s for s in ds.finetune_scenes for o in s.objects if o.class_label in ds.novel_classes]
    assert len(novel_ft) == 5  # exactly K instances per novel class
    assert len(ds.base_scenes) == cfg.c_base * cfg.base_per_class
    assert len(ds.test_scenes) == (cfg.c_base + cfg.c_novel) * cfg.test_per_class


def test_dataset_determinism():
    a = generate_dataset(SMALL, 3)
    b = generate_dataset(SMALL, 3)
    np.testing.assert_array_equal(a.prototypes, b.prototypes)
    for sa, sb in zip(a.base_scenes, b.base_scenes):
        assert sa.scene_id == sb.scene_id
        np.testing.assert_array_equal(sa.objects[0].box.as_array(), sb.objects[0].box.as_array())
        np.testing.assert_array_equal(sa.objects[0].appearance, sb.objects[0].appearance)


def test_prototype_separation():
    ds = generate_dataset(SMALL, 1)
    vecs = np.vstack([ds.prototypes, ds.background])
    dots = vecs @ vecs.T
    np.testing.assert_allclose(np.diag(dots), 1.0, atol=1e-12)
    off = dots[~np.eye(len(vecs), dtype=bool)]
    assert np.max(np.abs(off)) <= 0.3


def test_boxes_inside_image():
    ds = generate_dataset(SMALL, 2)
    for scene in ds.base_scenes + ds.finetune_scenes + ds.test_scenes:
        for obj in scene.objects:
            x1, y1, x2, y2 = obj.box.corners()
            assert 0 <= x1 < x2 <= scene.image_w
            assert 0 <= y1 < y2 <= scene.image_h


def test_proposal_feature_mixture():
    # noiseless feature is exactly q * appearance + (1 - q) * background
    ds = generate_dataset(dataclasses.replace(SMALL, feature_noise=0.0), 4)
    scene = ds.test_scenes[0]
    obj = scene.objects[0]
    f_perfect = proposal_feature(scene, obj.box, obj)
    np.testing.assert_allclose(f_perfect, obj.appearance, atol=1e-12)
    far = BBox(obj.box.cx + 1000, obj.box.cy + 1000, obj.box.w, obj.box.h)
    np.testing.assert_allclose(proposal_feature(scene, far, obj), scene.background, atol=1e-12)
    # a proposal with IoU exactly 0.5: same center, half the width
    half = BBox(obj.box.cx, obj.box.cy, obj.box.w / 2, obj.box.h)
    q = 0.5
    expected = q * obj.appearance + (1 - q) * scene.background
    np.testing.assert_allclose(proposal_feature(scene, half, obj), expected, atol=1e-12)


def test_proposal_feature_deterministic():
    ds = generate_dataset(SMALL, 5)
    scene = ds.test_scenes[1]
    obj = scene.objects[0]
    box = BBox(obj.box.cx + 1, obj.box.cy, obj.box.w, obj.box.h)
    np.testing.assert_array_equal(
        proposal_feature(scene, box, obj), proposal_feature(scene, box, obj)
    )


def test_base_train_recovers_statistics():
    cfg = dataclasses.replace(SMALL, base_per_class=60)
    ds = generate_dataset(cfg, 6)
    rpn = make_rpn_model(cfg)
    _, stats = base_train(init_head(cfg, 6), ds.base_scenes, rpn, 0, cfg, 6, ds.novel_classes)
    mu = np.array(cfg.rpn_mu)
    sigma = np.array(cfg.rpn_sigma)
    assert np.all(np.abs(stats.mu - mu) <= 0.05 * sigma)
    assert np.all(np.abs(np.sqrt(stats.var) - sigma) <= 0.05 * sigma)


def test_base_train_zero_epochs_keeps_head():
    ds = generate_dataset(SMALL, 7)
    rpn = make_rpn_model(SMALL)
    head = init_head(SMALL, 7)
    trained, _ = base_train(head, ds.base_scenes, rpn, 0, SMALL, 7, ds.novel_classes)
    assert heads_equal(head, trained)


def test_base_train_reaches_base_accuracy():
    cfg = SMALL
    ds = generate_dataset(cfg, 8)
    rpn = make_rpn_model(cfg)
    head, stats = base_train(init_head(cfg, 8), ds.base_scenes, rpn, cfg.epochs_base, cfg, 8, ds.novel_classes)
    m = evaluate(head, ds.test_scenes, rpn, cfg, 8, stats, ds.novel_classes)
    assert m.base_accuracy >= 0.9


def test_finetune_with_j_zero_equals_baseline():
    cfg = dataclasses.replace(SMALL, j_per_instance=0)
    ds = generate_dataset(cfg, 9)
    rpn = make_rpn_model(cfg)
    head, stats = base_train(init_head(cfg, 9), ds.base_scenes, rpn, 10, cfg, 9, ds.novel_classes)
    h_base = finetune(head, ds.finetune_scenes, rpn, stats, False, cfg, 9, ds.novel_classes)
    h_pdc = finetune(head, ds.finetune_scenes, rpn, stats, True, cfg, 9, ds.novel_classes)
    assert heads_equal(h_base, h_pdc)


def test_finetune_with_lambda_zero_equals_baseline():
    cfg = dataclasses.replace(SMALL, lam=0.0)
    ds = generate_dataset(cfg, 10)
    rpn = make_rpn_model(cfg)
    head, stats = base_train(init_head(cfg, 10), ds.base_scenes, rpn, 10, cfg, 10, ds.novel_classes)
    h_base = finetune(head, ds.finetune_scenes, rpn, stats, False, cfg, 10, ds.novel_classes)
    h_pdc = finetune(head, ds.finetune_scenes, rpn, stats, True, cfg, 10, ds.novel_classes)
    assert heads_equal(h_base, h_pdc)


def test_finetune_freezes_feature_generator():
    ds = generate_dataset(SMALL, 11)
    rpn = make_rpn_model(SMALL)
    protos_before = ds.prototypes.copy()
    scene = ds.finetune_scenes[0]
    appearance_before = scene.objects[0].appearance.copy()
    background_before = scene.background.copy()
    head, stats = base_train(init_head(SMALL, 11), ds.base_scenes, rpn, 5, SMALL, 11, ds.novel_classes)
    finetune(head, ds.finetune_scenes, rpn, stats, True, SMALL, 11, ds.novel_classes)
    np.testing.assert_array_equal(ds.prototypes, protos_before)
    np.testing.assert_array_equal(scene.objects[0].appearance, appearance_before)
    np.testing.assert_array_equal(scene.background, background_before)


def test_finetune_does_not_mutate_input_head():
    ds = generate_dataset(SMALL, 12)
    rpn = make_rpn_model(SMALL)
    head, stats = base_train(init_head(SMALL, 12), ds.base_scenes, rpn, 5, SMALL, 12, ds.novel_classes)
    snapshot = head.copy()
    finetune(head, ds.finetune_scenes, rpn, stats, True, SMALL, 12, ds.novel_classes)
    assert heads_equal(head, snapshot)


def test_evaluate_zero_regressor_is_identity_refinement():
    cfg = SMALL
    ds = generate_dataset(cfg, 13)
    rpn = make_rpn_model(cfg)
    head = init_head(cfg, 13)
    head.w_reg[:] = 0.0
    head.b_reg[:] = 0.0
    stats = DiagonalGaussian4(np.array(cfg.rpn_mu), np.array(cfg.rpn_sigma) ** 2)
    m = evaluate(head, ds.test_scenes, rpn, cfg, 13, stats, ds.novel_classes)
    # zero offsets decode to the proposals themselves: mean refined IoU equals raw
    raw = []
    for scene in ds.test_scenes:
        ps = rpn_proposals(scene, rpn, cfg, ds.novel_classes, 13, "eval-rpn")
        if ps.size:
            raw.append(ps.q)
    assert m.mean_iou == pytest.approx(float(np.concatenate(raw).mean()), abs=1e-12)


def test_evaluate_oracle_regressor():
    cfg = SMALL
    ds = generate_dataset(cfg, 14)
    rpn = make_rpn_model(cfg)
    head = init_head(cfg, 14)
    stats = DiagonalGaussian4(np.array(cfg.rpn_mu), np.array(cfg.rpn_sigma) ** 2)
    m = evaluate(head, ds.test_scenes, rpn, cfg, 14, stats, ds.novel_classes, oracle_regressor=True)
    assert m.mean_iou >= 0.99


def test_evaluate_deterministic():
    cfg = SMALL
    ds = generate_dataset(cfg, 15)
    rpn = make_rpn_model(cfg)
    head, stats = base_train(init_head(cfg, 15), ds.base_scenes, rpn, 10, cfg, 15, ds.novel_classes)
    m1 = evaluate(head, ds.test_scenes, rpn, cfg, 15, stats, ds.novel_classes)
    m2 = evaluate(head, ds.test_scenes, rpn, cfg, 15, stats, ds.novel_classes)
    assert m1.mean_iou == m2.mean_iou
    assert m1.novel_accuracy == m2.novel_accuracy
    assert m1.mmd_novel == m2.mmd_novel


def test_arm_isolation_same_proposals():
    # proposals are keyed by (seed, purpose, scene), never by arm
    ds = generate_dataset(SMALL, 16)
    rpn = make_rpn_model(SMALL)
    scene = ds.finetune_scenes[0]
    a = rpn_proposals(scene, rpn, SMALL, ds.novel_classes, 16, "ft-rpn")
    b = rpn_proposals(scene, rpn, SMALL, ds.novel_classes, 16, "ft-rpn")
    np.testing.assert_array_equal(a.boxes, b.boxes)
    np.testing.assert_array_equal(a.feats, b.feats)


def test_sampled_proposals_match_source_distribution():
    ds = generate_dataset(SMALL, 17)
    stats = DiagonalGaussian4([0.02, -0.02, 0.06, 0.04], [0.0064, 0.0064, 0.01, 0.01])
    pset = sampled_proposals(ds.finetune_scenes[0], stats, SMALL, ds.novel_classes, 17)
    assert pset.size == SMALL.j_per_instance
    assert np.all(pset.labels == ds.finetune_scenes[0].objects[0].class_label)


def test_rpn_novel_bias_shifts_offsets():
    cfg = dataclasses.replace(
        SMALL, miss_rate_novel=0.0, novel_bias_spread=0.0,
        novel_extra_bias=(0.4, 0.0, 0.0, 0.0), rpn_per_object=50,
    )
    ds = generate_dataset(cfg, 18)
    rpn = make_rpn_model(cfg)
    novel_scene = next(
        s for s in ds.test_scenes if s.objects[0].class_label in ds.novel_classes
    )
    base_scene = next(
        s for s in ds.test_scenes if s.objects[0].class_label not in ds.novel_classes
    )
    pn = rpn_proposals(novel_scene, rpn, cfg, ds.novel_classes, 18, "x")
    pb = rpn_proposals(base_scene, rpn, cfg, ds.novel_classes, 18, "x")
    dx_n = encode_offsets_array(pn.boxes, pn.gt_boxes)[:, 0].mean()
    dx_b = encode_offsets_array(pb.boxes, pb.gt_boxes)[:, 0].mean()
    assert dx_n - dx_b > 0.25


def test_rpn_miss_rate_drops_novel_objects():
    # a config cannot set a miss rate of 1, but the proposal source accepts it
    cfg = SMALL
    ds = generate_dataset(cfg, 19)
    rpn = dataclasses.replace(make_rpn_model(cfg), miss_rate_novel=1.0)
    for s in ds.test_scenes:
        pset = rpn_proposals(s, rpn, cfg, ds.novel_classes, 19, "x")
        if s.objects[0].class_label in ds.novel_classes:
            assert pset.size == 0
        else:
            assert pset.size == cfg.rpn_per_object


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
    with pytest.raises(ValueError):
        ExperimentConfig(contrastive_set="everything")


def test_biased_rpn_model_validation():
    dist = DiagonalGaussian4(np.zeros(4), np.full(4, 0.01))
    with pytest.raises(ValueError):
        BiasedRpnModel(dist, np.zeros(4), miss_rate_novel=-0.1)
    with pytest.raises(ValueError):
        BiasedRpnModel(dist, np.zeros(4), 0.0, novel_bias_spread=-1.0)

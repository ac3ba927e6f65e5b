import numpy as np
import pytest

from propcal.geometry import corners_array, encode_offsets_array
from propcal.sampling import (
    SamplerConfig,
    build_calibrated_set,
    sample_boxes_for_gt,
    sample_proposals_for_gt,
    stream_rng,
)
from propcal.stats import DiagonalGaussian4, Uniform4

GAUSS = DiagonalGaussian4([0.05, -0.04, 0.08, 0.06], [0.01, 0.01, 0.0144, 0.0144])
UNIT_GT = np.array([0.0, 0.0, 1.0, 1.0])


def drawn_offsets(model, n, rng):
    """n offsets drawn by the proposal sampler, unclipped, re-encoded against a unit gt."""
    boxes = sample_boxes_for_gt(UNIT_GT, n, model, rng, image_size=None)
    return encode_offsets_array(boxes, np.tile(UNIT_GT, (n, 1)))


def test_gaussian_zero_variance_draws_equal_mu():
    model = DiagonalGaussian4([0.1, -0.2, 0.05, 0.0], np.zeros(4))
    for row in drawn_offsets(model, 5, stream_rng(0, "t")):
        np.testing.assert_allclose(row, model.mu, atol=1e-15)


def test_gaussian_draw_moments():
    rng = stream_rng(123, "moments")
    rows = drawn_offsets(GAUSS, 100_000, rng)
    sigma = np.sqrt(GAUSS.var)
    assert np.all(np.abs(rows.mean(axis=0) - GAUSS.mu) <= 0.02 * sigma)
    assert np.all(np.abs(rows.std(axis=0) - sigma) <= 0.02 * sigma)


def test_uniform_draw_bounds_and_mean():
    model = Uniform4([-0.1] * 4, [0.1] * 4)
    rows = drawn_offsets(model, 100_000, stream_rng(9, "u"))
    assert rows.min() > -0.1
    assert rows.max() < 0.1
    assert np.all(np.abs(rows.mean(axis=0)) < 0.002)


def test_sample_offsets_zero_count():
    assert drawn_offsets(GAUSS, 0, stream_rng(0, "z")).shape == (0, 4)


def test_proposals_count_and_shape():
    cfg = SamplerConfig(model=GAUSS, j_per_instance=50, seed=1)
    props = sample_proposals_for_gt(np.array([60.0, 70, 24, 18]), cfg, image_size=(160, 160))
    assert props.shape == (50, 4) and props.dtype == np.float64
    assert np.isfinite(props).all() and (props[:, 2:] > 0).all()


def test_zero_noise_model_reproduces_gt():
    cfg = SamplerConfig(model=DiagonalGaussian4(np.zeros(4), np.zeros(4)), j_per_instance=8, seed=2)
    gt = np.array([50.0, 50, 20, 30])
    props = sample_proposals_for_gt(gt, cfg, image_size=(128, 128))
    np.testing.assert_allclose(props, np.tile(gt, (8, 1)), atol=1e-12)


def test_border_clipping_keeps_boxes_inside():
    wide = Uniform4([-0.6, -0.6, -0.3, -0.3], [0.6, 0.6, 0.3, 0.3])
    cfg = SamplerConfig(model=wide, j_per_instance=200, seed=3)
    props = sample_proposals_for_gt(np.array([6.0, 6, 10, 10]), cfg, image_size=(64, 64))
    corners = corners_array(props)
    assert (corners[:, :2] >= -1e-9).all()
    assert (corners[:, 2:] <= 64 + 1e-9).all()


def test_resample_budget_exhausted():
    # every draw lands far outside the tiny image: nothing can be decoded
    off_image = Uniform4([10.0, 10.0, -0.01, -0.01], [11.0, 11.0, 0.01, 0.01])
    cfg = SamplerConfig(model=off_image, j_per_instance=4, seed=4)
    with pytest.raises(RuntimeError, match="resampling budget"):
        sample_proposals_for_gt(np.array([5.0, 5, 4, 4]), cfg, image_size=(12, 12))


def test_non_finite_draws_are_redrawn():
    # every draw decodes to an overflowing box: refused like a degenerate one, not returned
    overflowing = DiagonalGaussian4([1e300, 0.0, 1.0, 1.0], np.zeros(4))
    with pytest.raises(RuntimeError, match="resampling budget exhausted"):
        sample_boxes_for_gt(np.array([0.0, 0.0, 1e308, 1e308]), 3, overflowing, stream_rng(0, "inf"), None)
    # only the overflowing draws of a mixed batch are redrawn
    half = Uniform4([0.0, 0.0, 0.0, 0.0], [3.6e298, 1e-9, 1e-9, 1e-9])  # cx overflows above 1.8e298
    boxes = sample_boxes_for_gt(np.array([0.0, 0.0, 1e10, 1.0]), 64, half, stream_rng(1, "inf"), None)
    assert np.isfinite(boxes).all()


def test_distribution_fidelity_unclipped():
    # re-encoded offsets of unclipped samples match the model's moments
    cfg = SamplerConfig(model=GAUSS, j_per_instance=50, seed=5)
    rows = []
    for i in range(200):
        gt = np.array([100 + (i % 7), 90 + (i % 5), 20 + (i % 9), 25 + (i % 4)], dtype=np.float64)
        props = sample_proposals_for_gt(gt, cfg, image_size=None, gt_index=i, image_id="fid")
        rows.append(encode_offsets_array(props, np.tile(gt, (len(props), 1))))
    rows = np.concatenate(rows)
    assert rows.shape[0] == 10_000
    sigma = np.sqrt(GAUSS.var)
    assert np.all(np.abs(rows.mean(axis=0) - GAUSS.mu) <= 0.05 * sigma)
    assert np.all(np.abs(rows.std(axis=0) - sigma) <= 0.05 * sigma)


def test_build_calibrated_set_counts_and_order():
    gts = np.array([[40.0, 40, 16, 16], [80, 80, 20, 24], [120, 60, 24, 12]])
    cfg = SamplerConfig(model=GAUSS, j_per_instance=50, seed=6)
    ps = build_calibrated_set(gts, cfg, image_size=(160, 160), image_id="im0")
    assert ps.shape == (150, 4)
    for i, gt in enumerate(gts):  # gt order: rows 50i..50i+49 are gt i's own stream
        solo = sample_proposals_for_gt(gt, cfg, image_size=(160, 160), gt_index=i, image_id="im0")
        np.testing.assert_array_equal(ps[50 * i:50 * (i + 1)], solo)


def test_build_calibrated_set_empty_gts():
    cfg = SamplerConfig(model=GAUSS, j_per_instance=50, seed=6)
    assert build_calibrated_set(np.empty((0, 4)), cfg).shape == (0, 4)


def test_determinism_same_seed():
    gts = np.array([[40.0, 40, 16, 16]])
    cfg = SamplerConfig(model=GAUSS, j_per_instance=20, seed=42)
    a = build_calibrated_set(gts, cfg, image_size=(128, 128), image_id="im0")
    b = build_calibrated_set(gts, cfg, image_size=(128, 128), image_id="im0")
    np.testing.assert_array_equal(a, b)


def test_streams_are_order_independent():
    # per-gt keyed streams: the same gt yields the same samples regardless of
    # which other gts are in the batch
    g1 = np.array([40.0, 40, 16, 16])
    g2 = np.array([90.0, 90, 20, 20])
    cfg = SamplerConfig(model=GAUSS, j_per_instance=10, seed=7)
    solo = sample_proposals_for_gt(g2, cfg, image_size=(160, 160), gt_index=1, image_id="im0")
    both = build_calibrated_set(np.stack([g1, g2]), cfg, image_size=(160, 160), image_id="im0")
    np.testing.assert_array_equal(both[10:], solo)


def test_golden_stream_pin():
    # pins the Philox/blake2b stream layout; a change here is a format break
    cfg = SamplerConfig(model=GAUSS, j_per_instance=5, seed=42)
    props = sample_proposals_for_gt(np.array([50.0, 50, 20, 30]), cfg, image_size=(128, 128), image_id="im0")
    got = props[0]
    want = np.array(
        [51.80450404436533, 49.2281401629851, 25.22247751584257, 31.615403466490953]
    )
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(model=GAUSS, j_per_instance=0)


def test_unsupported_model_type():
    with pytest.raises(TypeError):
        drawn_offsets(object(), 3, stream_rng(0, "x"))

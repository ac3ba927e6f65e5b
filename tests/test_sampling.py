import ast
import hashlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import propcal
from propcal.geometry import corners_array, encode_offsets_array
from propcal.sampling import (
    PASS_GTS,
    SamplerConfig,
    box_noise,
    build_calibrated_set,
    derive_seed,
    keyed_streams,
    philox_rng,
    sample_boxes,
    sample_boxes_for_gt,
    sample_proposals_for_gt,
    stream_key,
    stream_rng,
)
from propcal.simulator import ExperimentConfig
from propcal.stats import DiagonalGaussian4, Uniform4

GAUSS = DiagonalGaussian4([0.05, -0.04, 0.08, 0.06], [0.01, 0.01, 0.0144, 0.0144])
UNIT_GT = np.array([0.0, 0.0, 1.0, 1.0])


def drawn_offsets(model, n, rng):
    """n offsets drawn by the proposal sampler, unclipped, re-encoded against a unit gt."""
    boxes = sample_boxes_for_gt(UNIT_GT, n, model, rng, image_size=None)
    return encode_offsets_array(boxes, np.tile(UNIT_GT, (n, 1)))


def drawn_as(gt, cfg, image_size, image_id, gt_index):
    """The calibrated boxes of ``gt`` as the gt_index-th gt of ``image_id``, after that many filler gts."""
    fillers = np.tile([50.0, 50, 10, 10], (gt_index, 1))
    props = build_calibrated_set(np.vstack([fillers, gt]), cfg, image_size, image_id)
    return props[gt_index * cfg.j_per_instance:]


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


def test_exhausted_budget_leaves_nan_rows_and_the_public_draw_names_their_count():
    # mean dh -1.14: about nine in ten draws have a height <= 0
    model = DiagonalGaussian4([0.0, 0.0, 0.0, -1.14], [0.01] * 4)
    gt = np.array([50.0, 50, 20, 20])
    boxes = sample_boxes_for_gt(gt, 8, model, stream_rng(1, "sample", "a", 0), (100, 100))
    unfilled = np.isnan(boxes).all(axis=1)
    assert unfilled.sum() == 3 and (boxes[~unfilled, 3] > 0).all()
    cfg = SamplerConfig(model=model, j_per_instance=8, seed=1)
    message = ("resampling budget exhausted for gt [50.0, 50.0, 20.0, 20.0]: "
               "3 of 8 draws still invalid after 16 rounds")
    with pytest.raises(RuntimeError) as err:
        sample_proposals_for_gt(gt, cfg, image_size=(100, 100), image_id="a")
    assert str(err.value) == message


def test_non_finite_draws_are_redrawn():
    # every draw decodes to an overflowing box: refused like a degenerate one, not returned,
    # so no slot is filled and each comes back as the NaN row of an exhausted budget
    overflowing = DiagonalGaussian4([1e300, 0.0, 1.0, 1.0], np.zeros(4))
    boxes = sample_boxes_for_gt(np.array([0.0, 0.0, 1e308, 1e308]), 3, overflowing, stream_rng(0, "inf"), None)
    assert boxes.shape == (3, 4) and np.isnan(boxes).all()
    # only the overflowing draws of a mixed batch are redrawn
    half = Uniform4([0.0, 0.0, 0.0, 0.0], [3.6e298, 1e-9, 1e-9, 1e-9])  # cx overflows above 1.8e298
    boxes = sample_boxes_for_gt(np.array([0.0, 0.0, 1e10, 1.0]), 64, half, stream_rng(1, "inf"), None)
    assert np.isfinite(boxes).all()


def test_batched_draw_matches_one_gt_at_a_time():
    # a plain gt, one cut by the border, one that exhausts its budget and a uniform model,
    # repeated past one array pass
    gts = np.tile([[50.0, 50, 20, 20], [3.0, 50, 20, 20], [50.0, 50, 20, 20], [90.0, 10, 30, 12]], (40, 1))
    models = [GAUSS, DiagonalGaussian4([0.3, 0.0, 0.0, 0.0], [0.04] * 4),
              DiagonalGaussian4([0.0, 0.0, 0.0, -1.14], [0.01] * 4), Uniform4([-0.3] * 4, [0.3] * 4)] * 40
    assert len(gts) > PASS_GTS
    keys = [stream_key(2, "batch", i) for i in range(len(gts))]
    ones = [philox_rng(key) for key in keys]
    for one in ones[1::2]:  # a stream past its start, as a saved state; the others as their keys
        one.random()
    states = [one.bit_generator.state if i % 2 else key for i, (key, one) in enumerate(zip(keys, ones))]
    got = sample_boxes(gts, 8, models, (100, 100), states)
    for i, one in enumerate(ones):
        want = sample_boxes_for_gt(gts[i], 8, models[i], one, (100, 100))
        assert got[i].tobytes() == want.tobytes()
    exhausted = np.isnan(got).any(axis=(1, 2))
    assert exhausted[-2] and (np.flatnonzero(exhausted) % 4 == 2).all()
    assert sample_boxes(np.empty((0, 4)), 8, [], None, []).shape == (0, 8, 4)


def test_sample_boxes_leave_the_callers_generator_and_states_unchanged():
    rng = stream_rng(3, "caller")
    rng.normal(size=3)  # a part-used buffer
    before = repr(rng.bit_generator.state)
    first = sample_boxes_for_gt(np.array([50.0, 50, 20, 20]), 8, GAUSS, rng, (100, 100))
    assert repr(rng.bit_generator.state) == before
    # the generator did not move, so the same call draws the same boxes
    assert sample_boxes_for_gt(np.array([50.0, 50, 20, 20]), 8, GAUSS, rng, (100, 100)).tobytes() == first.tobytes()
    # the middle gt redraws for every round (mean dh -1.14), so streams are saved and restored between rounds
    states = [stream_key(3, "a"), rng.bit_generator.state, stream_key(3, "b")]
    snapshot = repr(states)
    models = [GAUSS, DiagonalGaussian4([0.0, 0.0, 0.0, -1.14], [0.01] * 4), GAUSS]
    drawn = sample_boxes(np.tile([50.0, 50, 20, 20], (3, 1)), 8, models, (100, 100), states)
    assert np.isnan(drawn[1]).any() and repr(states) == snapshot


def test_box_noise_draws_one_fresh_philox_stream_per_row():
    # pins the feature-noise key form against one Philox(key=key << 64 | word(box bytes)) per row
    keys = [0, 2**64 - 1, derive_seed(5, "feat", "test/0/1"), derive_seed(5, "feat", "test/0/1"), 7, 7]
    boxes = np.random.default_rng(0).normal(50.0, 20.0, size=(6, 4))
    boxes[3] = boxes[2]  # a repeated (key, box) pair draws the same row
    boxes[5] = -0.0  # -0.0 and 0.0 differ in their bytes, so in their streams
    boxes[4] = 0.0
    got = box_noise(keys, boxes, 16)
    assert got.shape == (6, 16)
    for key, box, row in zip(keys, boxes, got):
        word = int.from_bytes(hashlib.blake2b(box.tobytes(), digest_size=8).digest(), "little")
        want = np.random.Generator(np.random.Philox(key=key << 64 | word)).normal(size=16)
        assert row.tobytes() == want.tobytes()
    assert got[2].tobytes() == got[3].tobytes() and got[4].tobytes() != got[5].tobytes()
    assert box_noise([], np.empty((0, 4)), 16).shape == (0, 16)


def test_distribution_fidelity_unclipped():
    # re-encoded offsets of unclipped samples match the model's moments
    cfg = SamplerConfig(model=GAUSS, j_per_instance=50, seed=5)
    gts = np.array([[100 + (i % 7), 90 + (i % 5), 20 + (i % 9), 25 + (i % 4)] for i in range(200)], dtype=np.float64)
    props = build_calibrated_set(gts, cfg, image_size=None, image_id="fid")  # gt i draws as gt_index i
    rows = encode_offsets_array(props, np.repeat(gts, cfg.j_per_instance, axis=0))
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
        solo = drawn_as(gt, cfg, (160, 160), "im0", i)
        np.testing.assert_array_equal(ps[50 * i:50 * (i + 1)], solo)


def test_build_calibrated_set_keys_each_gt_by_its_id_and_running_index():
    # more gts than one array pass, with ids repeated out of order
    rng = np.random.default_rng(3)
    n = PASS_GTS + 20
    gts = np.column_stack([rng.uniform(30, 70, (n, 2)), rng.uniform(8, 30, (n, 2))])
    ids = [f"im{k}" for k in rng.integers(0, 5, n)]
    cfg = SamplerConfig(model=GAUSS, j_per_instance=6, seed=11)
    got = build_calibrated_set(gts, cfg, (100, 100), ids).reshape(n, 6, 4)
    for i, (gt, image_id) in enumerate(zip(gts, ids)):
        want = drawn_as(gt, cfg, (100, 100), image_id, ids[:i].count(image_id))
        assert got[i].tobytes() == want.tobytes()
    # two gts wholly outside the image exhaust their budgets: the first in gt order is named
    gts[PASS_GTS + 5] = [-400.0, 50, 10, 10]
    gts[30] = [300.0, 50, 10, 10]
    with pytest.raises(RuntimeError) as err:
        build_calibrated_set(gts, cfg, (100, 100), ids)
    assert str(err.value) == ("resampling budget exhausted for gt [300.0, 50.0, 10.0, 10.0]: "
                              "6 of 6 draws still invalid after 16 rounds")
    with pytest.raises(ValueError, match="need one image_id per gt"):
        build_calibrated_set(gts, cfg, (100, 100), ids[1:])


def test_sampler_refuses_gts_that_are_not_rows_of_four():
    cfg = SamplerConfig(model=GAUSS, j_per_instance=4, seed=6)
    gts = np.tile([40.0, 40, 16, 16], (2, 2))  # (2, 8): four boxes' worth of values, but not (n, 4)
    with pytest.raises(ValueError, match=r"\(n, 4\) array, got shape \(2, 8\)"):
        build_calibrated_set(gts, cfg)
    with pytest.raises(ValueError, match=r"\(n, 4\) array, got shape \(2, 8\)"):
        sample_boxes(gts, 4, [GAUSS] * 4, None, [0] * 4)
    with pytest.raises(ValueError, match=r"\(n, 4\) array, got shape \(2, 6\)"):
        build_calibrated_set(np.zeros((2, 6)), cfg)


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
    solo = drawn_as(g2, cfg, (160, 160), "im0", 1)
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


def _every_draw_kind(rng):
    # the int32 draw comes first: it would take a stale buffered uint32 if one survived
    return [
        rng.integers(0, 2**31, size=3, dtype=np.int32), rng.normal(size=5), rng.uniform(-2.0, 3.0, size=4),
        rng.random(6), rng.integers(0, 1000, size=5), rng.permutation(11),
    ]


REKEY_KEYS = [0, 1, 2**63, 2**64 - 1, 2**64, 2**128 - 1,
              stream_key(2**63, "scene", "ft/3/1"), stream_key(2**64 - 1, "novel-bias", "test/0/2", 0)]


def test_rekeyed_philox_draws_what_a_fresh_philox_draws():
    # pins the re-key against numpy's Philox state layout: a numpy that changes it fails here
    streams = keyed_streams([12345, *REKEY_KEYS])
    rng = next(streams)
    for key in REKEY_KEYS:
        rng.normal(size=3)  # a part-used buffer of 64-bit words
        while not rng.bit_generator.state["has_uint32"]:  # and half of one such word
            rng.integers(0, 2**31, dtype=np.int32)
        want = _every_draw_kind(np.random.Generator(np.random.Philox(key=key)))
        assert next(streams) is rng  # one scratch generator, re-keyed in place
        for got, expected in zip(_every_draw_kind(rng), want):
            np.testing.assert_array_equal(got, expected)
        for got, expected in zip(_every_draw_kind(philox_rng(key)), want):
            np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("key", [-1, 2**128])
def test_philox_rng_rejects_keys_outside_128_bits(key):
    message = r"^key must be positive and less than 2\*\*128\.$"
    with pytest.raises(ValueError, match=message):
        philox_rng(key)
    streams = keyed_streams([0, key])
    next(streams)
    with pytest.raises(ValueError, match=message):
        next(streams)


def test_stream_seeds_must_fit_64_bits():
    assert stream_key(2**64 - 1, "a") >> 64 == 2**64 - 1
    assert SamplerConfig(model=GAUSS, seed=2**64 - 1).seed == 2**64 - 1
    assert ExperimentConfig(seeds=(2**64 - 1,)).seeds == (2**64 - 1,)
    for seed in (-1, 2**64):  # masking to 64 bits would alias them with 2**64 - 1 and 0
        message = rf"^seed must be in \[0, 2\*\*64\), got {seed}$"
        with pytest.raises(ValueError, match=message):
            stream_key(seed, "a")
        with pytest.raises(ValueError, match=message):
            SamplerConfig(model=GAUSS, seed=seed)
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(seeds=(0, seed))


def test_seed_and_j_must_be_integers_not_bools():
    # a bool seed would draw the streams of 0 or 1, and a float J would fail only in the draw, with a TypeError
    for seed in (True, np.True_, 1.5, "1"):
        with pytest.raises(ValueError, match=r"^seed must be an integer, got "):
            SamplerConfig(GAUSS, 3, seed)
        with pytest.raises(ValueError, match=r"^seed must be an integer, got "):
            stream_key(seed, "a")
    for j in (True, 2.5, "2"):
        with pytest.raises(ValueError, match=r"^j_per_instance must be an integer >= 1, got "):
            SamplerConfig(GAUSS, j, 0)
    gts = np.array([[60.0, 70.0, 24.0, 18.0], [30.0, 40.0, 10.0, 12.0]])
    for typed, seed in ((np.int64(5), 5), (np.uint64(2**64 - 1), 2**64 - 1)):
        want = build_calibrated_set(gts, SamplerConfig(GAUSS, 4, seed), image_id="im")
        got = build_calibrated_set(gts, SamplerConfig(GAUSS, np.int64(4), typed), image_id="im")
        assert got.tobytes() == want.tobytes()


def test_only_sampling_builds_philox_or_hashes_stream_keys():
    # the stream format has one owner; a second key formula or re-key elsewhere is a silent format fork
    assert list(inspect.signature(philox_rng).parameters) == ["key"]  # a fresh generator, never a re-key
    package = Path(propcal.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "sampling.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}: "
            name = ast.unparse(node.func).split(".")[-1] if isinstance(node, ast.Call) else None
            if name in {"Philox", "Generator", "blake2b", "hash_word", "_rekey"}:
                found.append(where + ast.unparse(node.func))
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for target in (t for tgt in targets if isinstance(tgt, ast.AST) for t in ast.walk(tgt)):
                if isinstance(target, ast.Attribute) and ast.unparse(target).endswith("bit_generator.state"):
                    found.append(where + "assigns " + ast.unparse(target))
            # the simulator's keyed draws run on stream_rng and keyed_streams
            banned = {"_rekey", "philox_rng"} if path.name == "simulator.py" else {"_rekey"}
            if isinstance(node, ast.ImportFrom):
                found += [where + "imports " + alias.name for alias in node.names if alias.name in banned]
    assert found == []

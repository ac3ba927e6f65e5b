import numpy as np
import pytest

from helpers import mmd_rbf_double_loop
from propcal.diagnostics import (
    Histogram,
    histogram,
    histogram_to_csv,
    histogram_to_svg,
    iou_histogram,
    median_heuristic_bandwidth,
    mmd_linear,
    mmd_rbf,
    offset_report,
    precision_by_iou,
    precision_to_csv,
)
from propcal.geometry import encode_offsets_array
from propcal.sampling import SamplerConfig, sample_proposals_for_gt
from propcal.stats import DiagonalGaussian4


def test_mmd_linear_identical_sets():
    a = np.random.default_rng(0).normal(size=(50, 4))
    assert mmd_linear(a, a.copy()) == 0.0


def test_mmd_linear_hand_example():
    a = np.array([[0.0, 0.0], [2.0, 0.0]])
    b = np.array([[1.0, 1.0]])
    assert mmd_linear(a, b) == pytest.approx(1.0, abs=1e-15)


def test_mmd_linear_symmetry_and_triangle():
    rng = np.random.default_rng(1)
    a, b, c = (rng.normal(size=(30, 3)) for _ in range(3))
    assert mmd_linear(a, b) == mmd_linear(b, a)
    assert mmd_linear(a, c) <= mmd_linear(a, b) + mmd_linear(b, c) + 1e-12


def test_mmd_linear_validation():
    with pytest.raises(ValueError):
        mmd_linear(np.zeros((0, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        mmd_linear(np.zeros((3, 2)), np.zeros((3, 3)))


def test_mmd_rbf_identical_sets():
    a = np.random.default_rng(2).normal(size=(40, 4))
    assert mmd_rbf(a, a.copy()) <= 1e-12


def test_mmd_rbf_matches_double_loop_oracle():
    rng = np.random.default_rng(3)
    a = rng.normal(0.0, 1.0, size=(60, 3))
    b = rng.normal(0.5, 1.3, size=(80, 3))
    assert mmd_rbf(a, b) == pytest.approx(mmd_rbf_double_loop(a, b), abs=1e-9)


def test_mmd_rbf_separated_clouds():
    rng = np.random.default_rng(4)
    sigma = 0.1
    a = rng.normal(0.0, sigma, size=(90, 2))
    b = rng.normal(10 * sigma * 50, sigma, size=(110, 2))  # far apart
    got = mmd_rbf(a, b)
    assert got == pytest.approx(mmd_rbf_double_loop(a, b), abs=1e-6)


def test_mmd_rbf_translation_invariance():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(50, 4))
    b = rng.normal(0.3, 1.0, size=(60, 4))
    shift = np.array([5.0, -2.0, 1.0, 0.5])
    assert mmd_rbf(a + shift, b + shift) == pytest.approx(mmd_rbf(a, b), abs=1e-12)


def test_mmd_rbf_subsampling_stability():
    rng = np.random.default_rng(6)
    pool = rng.normal(size=(400, 4))
    within = mmd_rbf(pool[:200], pool[200:])
    shifted = mmd_rbf(pool[:200], pool[200:] + 0.5)
    assert within <= shifted


def test_mmd_rbf_explicit_bandwidth():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(30, 2))
    b = rng.normal(1.0, 1.0, size=(30, 2))
    assert mmd_rbf(a, b, bandwidth=2.0) > 0
    with pytest.raises(ValueError):
        mmd_rbf(a, b, bandwidth=0.0)


def test_median_heuristic_degenerate():
    a = np.zeros((5, 3))
    assert median_heuristic_bandwidth(a, a) == 1.0


def _bandwidth_reference(a, b):
    """The median heuristic as np.median over the rooted distances of every pair i < j."""
    pooled = np.concatenate([a, b])
    sq = np.sum(pooled * pooled, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (pooled @ pooled.T)
    dists = np.sqrt(np.maximum(d2[np.triu_indices(pooled.shape[0], k=1)], 0.0))
    med = float(np.median(dists)) if dists.size else 0.0
    return med if med > 0.0 else 1.0


@pytest.mark.parametrize("n_a,n_b,levels", [
    (1, 1, 0),     # n = 2: one pair
    (2, 2, 0),     # 6 pairs, even
    (3, 4, 0),     # 21 pairs, odd
    (5, 3, 3),     # 28 pairs, even, with tied distances
    (40, 27, 3),   # 2211 pairs, odd, with tied distances
    (64, 64, 0),   # 8128 pairs, even
    (1, 0, 0),     # no pair
])
def test_partition_median_equals_np_median(n_a, n_b, levels):
    rng = np.random.default_rng(n_a * 100 + n_b)
    pool = rng.integers(0, levels, size=(n_a + n_b, 4)) * 0.25 if levels else rng.normal(size=(n_a + n_b, 4))
    a, b = pool[:n_a], pool[n_a:]
    assert median_heuristic_bandwidth(a, b) == _bandwidth_reference(a, b)


def test_partition_median_degenerate_cases():
    # all rows equal: every distance is 0 (or a rounding residue clamped to 0), so 1.0
    same = np.tile([3.7, -1.1, 0.3, 12.5], (9, 1))
    assert median_heuristic_bandwidth(same[:4], same[4:]) == _bandwidth_reference(same[:4], same[4:]) == 1.0
    # a NaN among the distances makes the median NaN, which degenerates to 1.0 too
    a = np.random.default_rng(3).normal(size=(6, 4))
    a[2, 1] = np.nan
    with np.errstate(invalid="ignore"):
        assert median_heuristic_bandwidth(a[:3], a[3:]) == _bandwidth_reference(a[:3], a[3:]) == 1.0


def test_calibration_monotonicity():
    # shifting the sampled distribution away from the base one increases the
    # mean discrepancy monotonically in the shift magnitude
    rng = np.random.default_rng(8)
    mu = np.array([0.02, -0.02, 0.06, 0.04])
    sigma = np.array([0.08, 0.08, 0.10, 0.10])
    base = rng.normal(mu, sigma, size=(10_000, 4))
    direction = np.full(4, 0.5)  # unit norm
    values = []
    for delta in (0.0, 0.05, 0.1, 0.2):
        sampled = rng.normal(mu + delta * direction, sigma, size=(10_000, 4))
        values.append(mmd_linear(sampled, base))
    assert values == sorted(values)
    assert values[1] > values[0]


def test_histogram_edge_conventions():
    h = histogram([0.0, 0.5, 0.5, 0.999, 1.0], [0.0, 0.5, 1.0])
    # values on an interior edge go right; the last bin is closed on both sides
    assert h.counts.tolist() == [1, 4]
    assert h.total == 5


def test_histogram_out_of_range():
    with pytest.raises(ValueError):
        histogram([1.5], [0.0, 1.0])
    with pytest.raises(ValueError):
        histogram([-0.1], [0.0, 1.0])


def test_histogram_empty():
    h = histogram([], [0.0, 0.5, 1.0])
    assert h.counts.tolist() == [0, 0]
    assert h.total == 0


def test_histogram_invariants():
    with pytest.raises(ValueError):
        Histogram(np.array([0.0, 0.0, 1.0]), np.array([1, 1]), 2)
    with pytest.raises(ValueError):
        Histogram(np.array([0.0, 1.0]), np.array([2]), 3)


def test_iou_histogram_perfect_predictions():
    gts = np.array([[10.0 * i + 5, 5, 4, 4] for i in range(6)])
    h = iou_histogram(gts.copy(), gts, [0.0, 0.5, 1.0])
    assert h.counts.tolist() == [0, 6]


def test_iou_histogram_worked_third():
    h = iou_histogram([[1.0, 0, 2, 2]], [[0.0, 0, 2, 2]], [0.0, 0.5, 1.0])
    assert h.counts.tolist() == [1, 0]  # IoU 1/3 lands in the first bin


def test_iou_histogram_empty_and_unmatched():
    assert iou_histogram(np.zeros((0, 4)), np.zeros((0, 4)), [0.0, 1.0]).counts.tolist() == [0]
    # prediction i is scored against ground truth i, so the counts must agree
    with pytest.raises(ValueError, match="one ground truth per prediction"):
        iou_histogram(np.ones((2, 4)), np.ones((1, 4)), [0.0, 1.0])


def test_precision_by_iou_counts():
    # two correct, two wrong, all in the perfect-IoU bucket
    rep = precision_by_iou([1.0] * 4, [True, True, False, False], [0.0, 0.5, 1.0])
    assert rep.buckets[1].n_boxes == 4
    assert rep.buckets[1].n_correct == 2
    assert rep.buckets[1].precision == pytest.approx(0.5)
    assert rep.buckets[0].n_boxes == 0
    assert rep.buckets[0].precision is None  # absent, not zero


def test_precision_all_correct():
    ious = [0.0, 0.25, 0.5, 0.75, 1.0, 1.0]
    rep = precision_by_iou(ious, [True] * 6, [0.0, 0.5, 1.0])
    assert [b.n_boxes for b in rep.buckets] == [2, 4]
    for b in rep.buckets:
        assert b.precision in (None, 1.0)


def test_precision_by_iou_uses_histogram_bins():
    edges = [0.0, 0.3, 0.5, 1.0]
    ious = np.array([0.0, 0.3, 0.3, 0.49, 0.5, 1.0])
    correct = np.array([True, False, True, True, False, True])
    rep = precision_by_iou(ious, correct, edges)
    assert [b.n_boxes for b in rep.buckets] == histogram(ious, edges).counts.tolist()
    assert [b.n_correct for b in rep.buckets] == histogram(ious[correct], edges).counts.tolist()
    with pytest.raises(ValueError, match="one correct flag per IoU"):
        precision_by_iou(ious, correct[:-1], edges)
    with pytest.raises(ValueError):
        precision_by_iou([1.5], [True], edges)


def test_offset_report_degenerate_stream():
    rep = offset_report(np.zeros((10, 4)))
    for h in rep.histograms:
        occupied = np.flatnonzero(h.counts)
        assert occupied.tolist() == [len(h.counts) // 2]  # single central bin
        assert h.total == 10
    np.testing.assert_allclose(rep.gaussian.mu, np.zeros(4), atol=1e-15)
    np.testing.assert_allclose(rep.gaussian.var, np.zeros(4), atol=1e-15)


def test_offset_report_mode_contains_mean():
    rng = np.random.default_rng(9)
    mu = np.array([0.1, -0.2, 0.0, 0.3])
    sigma = 0.05
    rows = rng.normal(mu, sigma, size=(20_000, 4))
    edges = [np.linspace(m - 6 * sigma, m + 6 * sigma, 16) for m in mu]
    rep = offset_report(rows, edges_per_dim=edges)
    for d, h in enumerate(rep.histograms):
        mode = int(np.argmax(h.counts))
        assert h.edges[mode] <= rep.gaussian.mu[d] <= h.edges[mode + 1]


def test_offset_report_round_trip_with_sampler():
    model = DiagonalGaussian4([0.02, -0.02, 0.06, 0.04], [0.0064, 0.0064, 0.01, 0.01])
    cfg = SamplerConfig(model=model, j_per_instance=50, seed=11)
    offs = []
    for i in range(200):
        gt = np.array([100, 100, 20 + (i % 11), 24 + (i % 7)], dtype=np.float64)
        props = sample_proposals_for_gt(gt, cfg, image_size=None, gt_index=i, image_id="rt")
        offs.append(encode_offsets_array(props, np.tile(gt, (len(props), 1))))
    rep = offset_report(np.concatenate(offs))
    sigma = np.sqrt(model.var)
    assert np.all(np.abs(rep.gaussian.mu - model.mu) <= 0.05 * sigma)
    assert np.all(np.abs(np.sqrt(rep.gaussian.var) - sigma) <= 0.05 * sigma)


def test_offset_report_empty_errors():
    with pytest.raises(ValueError):
        offset_report(np.zeros((0, 4)))


def test_histogram_csv_format():
    h = histogram([0.25, 0.75, 0.75], [0.0, 0.5, 1.0])
    text = histogram_to_csv(h)
    lines = text.splitlines()
    assert lines[0] == "lo,hi,count"
    assert lines[1] == "0.0,0.5,1"
    assert lines[2] == "0.5,1.0,2"
    assert histogram_to_csv(h) == text  # byte-stable


def test_precision_csv_format():
    rep = precision_by_iou([1.0], [True], [0.0, 0.5, 1.0])
    lines = precision_to_csv(rep).splitlines()
    assert lines[0] == "lo,hi,n,correct,precision"
    assert lines[1] == "0.0,0.5,0,0,"  # empty bucket: precision field empty
    assert lines[2] == "0.5,1.0,1,1,1.0"


def test_histogram_svg_static():
    h = histogram([0.25, 0.75, 0.75], [0.0, 0.5, 1.0])
    svg = histogram_to_svg(h, "demo")
    assert svg.startswith("<svg ")
    assert svg.count("<rect") == 1 + 2  # background + one bar per bin
    assert "script" not in svg
    assert histogram_to_svg(h, "demo") == svg

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import mmd_rbf_double_loop
from propcal import diagnostics
from propcal.diagnostics import (
    OFFSET_BINS,
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
from propcal.sampling import SamplerConfig, build_calibrated_set, philox_rng
from propcal.stats import DiagonalGaussian4, fit_gaussian


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


def test_mmd_rbf_blocked_sums_match_double_loop_oracle():
    rng = np.random.default_rng(13)
    a = rng.normal(0.0, 1.0, size=(diagnostics.BLOCK + 37, 4))
    b = rng.normal(0.4, 1.2, size=(70, 4))
    assert mmd_rbf(a, b) == pytest.approx(mmd_rbf_double_loop(a, b), abs=1e-9)


def test_mmd_rbf_memory_is_bounded_on_large_inputs():
    # the dense path holds several (8000, 8000) float64 arrays, over 1 GB
    rng = np.random.default_rng(17)
    a, b = rng.normal(size=(4_000, 4)), rng.normal(0.2, 1.1, size=(4_000, 4))
    tracemalloc.start()
    try:
        value = mmd_rbf(a, b)
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert np.isfinite(value) and value > 0
    assert peak_mb < 150.0


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
    (45, 46, 3),   # 4095 pairs, odd, with tied distances: fewer pairs than MEDIAN_SAMPLE draws
    (1, 0, 0),     # no pair
    # more pairs than MEDIAN_SAMPLE, so the select works inside a sampled bracket
    (100, 151, 0),  # 31375 pairs, odd
    (100, 200, 0),  # 44850 pairs, even
    (100, 151, 3),  # odd, with tied distances
    (100, 200, 4),  # even, with tied distances
    (300, 400, 0),  # several blocks
])
def test_partition_median_equals_np_median(n_a, n_b, levels):
    rng = np.random.default_rng(n_a * 100 + n_b)
    pool = rng.integers(0, levels, size=(n_a + n_b, 4)) * 0.25 if levels else rng.normal(size=(n_a + n_b, 4))
    a, b = pool[:n_a], pool[n_a:]
    assert median_heuristic_bandwidth(a, b) == _bandwidth_reference(a, b)


def test_blocked_median_spans_several_blocks():
    rng = np.random.default_rng(41)
    a, b = rng.normal(size=(350, 4)), rng.normal(0.5, 2.0, size=(250, 4))
    assert len(a) + len(b) > 4 * diagnostics.BLOCK
    assert median_heuristic_bandwidth(a, b) == pytest.approx(_bandwidth_reference(a, b), rel=1e-12)


def test_median_above_the_cap_uses_a_fixed_subsample(monkeypatch):
    rng = np.random.default_rng(43)
    a, b = rng.normal(size=(600, 4)), rng.normal(0.3, 1.5, size=(400, 4))
    exact = median_heuristic_bandwidth(a, b)
    monkeypatch.setattr(diagnostics, "MEDIAN_CAP", 300)
    capped = median_heuristic_bandwidth(a, b)
    assert capped != exact and capped == pytest.approx(exact, rel=0.05)
    sub = philox_rng(0).permutation(np.concatenate([a, b]))[:300]
    assert capped == _bandwidth_reference(sub[:150], sub[150:])
    assert median_heuristic_bandwidth(a, b) == capped  # fixed key: the same subsample every call


def test_partition_median_degenerate_cases():
    # all rows equal: every distance is 0 (or a rounding residue clamped to 0), so 1.0
    same = np.tile([3.7, -1.1, 0.3, 12.5], (9, 1))
    assert median_heuristic_bandwidth(same[:4], same[4:]) == _bandwidth_reference(same[:4], same[4:]) == 1.0
    # a NaN among the distances makes the median NaN, which degenerates to 1.0 too
    a = np.random.default_rng(3).normal(size=(6, 4))
    a[2, 1] = np.nan
    with np.errstate(invalid="ignore"):
        assert median_heuristic_bandwidth(a[:3], a[3:]) == _bandwidth_reference(a[:3], a[3:]) == 1.0


def test_bracket_select_degenerate_and_non_finite_rows():
    same = np.tile([3.7, -1.1, 0.3, 12.5], (300, 1))
    assert median_heuristic_bandwidth(same[:120], same[120:]) == _bandwidth_reference(same[:120], same[120:]) == 1.0
    pool = np.abs(np.random.default_rng(55).normal(size=(300, 4))) + 0.1
    with np.errstate(invalid="ignore", over="ignore"):
        for bad in (np.nan, np.inf):  # +inf against rows of x > 0 gives inf - inf: either way a NaN distance, so 1.0
            rows = pool.copy()
            rows[17, 2] = bad
            assert median_heuristic_bandwidth(rows[:100], rows[100:]) == _bandwidth_reference(rows[:100], rows[100:])
            assert median_heuristic_bandwidth(rows[:100], rows[100:]) == 1.0
        rows = pool.copy()
        rows[17, 0] = -np.inf  # every other row has x > 0, so its distances are +inf, never NaN
        got = median_heuristic_bandwidth(rows[:100], rows[100:])
        assert np.isfinite(got) and got != 1.0 and got == _bandwidth_reference(rows[:100], rows[100:])


@pytest.mark.parametrize("n", [300, 302])  # 44850 pairs (even), 45451 (odd)
def test_forced_bracket_miss_gives_the_same_median(monkeypatch, n):
    pool = np.random.default_rng(57).normal(size=(n, 4))
    a, b = pool[:100], pool[100:]
    sq = np.sum(pool * pool, axis=1)
    s = np.sort((sq[:, None] + sq[None, :] - 2.0 * (pool @ pool.T))[np.triu_indices(n, k=1)])
    k = (s.size - 1) // 2
    mid = (s[:-1] + s[1:]) / 2  # between consecutive ranks
    brackets = [
        (-np.inf, mid[0]),      # holds rank 0 only: the median lies above
        (mid[-1], np.inf),      # holds the last rank only: the median lies below
        (mid[k - 1], mid[k]),   # holds rank k only: a miss for an even count, whose median also reads rank k + 1
    ]
    for bracket in brackets:
        calls = []
        monkeypatch.setattr(diagnostics, "_median_bracket", lambda p, bracket=bracket: calls.append(p) or bracket)
        assert median_heuristic_bandwidth(a, b) == _bandwidth_reference(a, b)
        assert len(calls) == 1


def test_median_heuristic_at_the_cap_keeps_a_small_share_of_the_pairs():
    # the full-array select held all MEDIAN_CAP * (MEDIAN_CAP - 1) / 2 float64 distances, over 64 MB
    pool = np.random.default_rng(58).normal(size=(diagnostics.MEDIAN_CAP, 4))
    tracemalloc.start()
    try:
        value = median_heuristic_bandwidth(pool[:1000], pool[1000:])
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert value > 0
    assert peak_mb < 20.0


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
    assert int(h.counts.sum()) == 5


def test_histogram_out_of_range():
    with pytest.raises(ValueError):
        histogram([1.5], [0.0, 1.0])
    with pytest.raises(ValueError):
        histogram([-0.1], [0.0, 1.0])


def test_histogram_nan_is_out_of_range():
    # NaN compares false against both edges, so it must fail the range test, not land in the last bin
    with pytest.raises(ValueError, match="outside histogram range"):
        histogram([0.2, np.nan], [0.0, 0.5, 1.0])
    with pytest.raises(ValueError, match="outside histogram range"):
        histogram([np.nan], [0.0, 1.0])


def test_iou_histogram_nan_box_is_an_error():
    with pytest.raises(ValueError, match="outside histogram range"):
        iou_histogram([[np.nan, 0, 1, 1]], [[0.0, 0, 1, 1]], [0.0, 0.5, 1.0])


def test_precision_by_iou_nan_iou_is_an_error():
    with pytest.raises(ValueError, match="outside histogram range"):
        precision_by_iou([np.nan], [True], [0.0, 0.5, 1.0])


def test_histogram_empty():
    h = histogram([], [0.0, 0.5, 1.0])
    assert h.counts.tolist() == [0, 0]
    assert int(h.counts.sum()) == 0


def test_histogram_invariants():
    with pytest.raises(ValueError):
        Histogram(np.array([0.0, 0.0, 1.0]), np.array([1, 1]))
    with pytest.raises(ValueError):
        Histogram(np.array([0.0, 1.0]), np.array([-1]))
    for counts in ([], [1, 2]):
        with pytest.raises(ValueError, match="^counts length must be len\\(edges\\) - 1$"):
            Histogram(np.array([0.0, 1.0]), np.array(counts, dtype=np.int64))


@pytest.mark.parametrize("edges", [[0.0, np.nan, 1.0], [0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0], [-1e308, 1e308]])
def test_histogram_edges_must_be_finite_and_increasing(edges):
    # NaN compares false, so a step test alone let NaN edges through; an infinite span drew width="nan" bars
    message = "edges must be finite and strictly increasing"
    with pytest.raises(ValueError, match=message):
        histogram([0.2, 0.7], edges)
    with pytest.raises(ValueError, match=message):
        Histogram(np.array(edges), np.zeros(len(edges) - 1, dtype=np.int64))
    with pytest.raises(ValueError, match=message):
        precision_by_iou([0.2, 0.7], [True, False], edges)


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


def test_iou_histogram_refuses_arrays_that_are_not_rows_of_four():
    # (4, 3) holds 12 values, as three boxes would, but is not (n, 4)
    with pytest.raises(ValueError, match=r"\(n, 4\) array, got shape \(4, 3\)"):
        iou_histogram(np.ones((4, 3)), np.ones((4, 3)), [0.0, 1.0])
    assert iou_histogram([1.0, 0, 2, 2], [0.0, 0, 2, 2], [0.0, 0.5, 1.0]).counts.tolist() == [1, 0]


def test_precision_by_iou_counts():
    # two correct, two wrong, all in the perfect-IoU bucket
    buckets = precision_by_iou([1.0] * 4, [True, True, False, False], [0.0, 0.5, 1.0])
    assert buckets[1].n_boxes == 4
    assert buckets[1].n_correct == 2
    assert buckets[1].precision == pytest.approx(0.5)
    assert buckets[0].n_boxes == 0
    assert buckets[0].precision is None  # absent, not zero


def test_precision_all_correct():
    ious = [0.0, 0.25, 0.5, 0.75, 1.0, 1.0]
    buckets = precision_by_iou(ious, [True] * 6, [0.0, 0.5, 1.0])
    assert [b.n_boxes for b in buckets] == [2, 4]
    for b in buckets:
        assert b.precision in (None, 1.0)


def test_precision_by_iou_uses_histogram_bins():
    edges = [0.0, 0.3, 0.5, 1.0]
    ious = np.array([0.0, 0.3, 0.3, 0.49, 0.5, 1.0])
    correct = np.array([True, False, True, True, False, True])
    buckets = precision_by_iou(ious, correct, edges)
    assert [b.n_boxes for b in buckets] == histogram(ious, edges).counts.tolist()
    assert [b.n_correct for b in buckets] == histogram(ious[correct], edges).counts.tolist()
    with pytest.raises(ValueError, match="one correct flag per IoU"):
        precision_by_iou(ious, correct[:-1], edges)
    with pytest.raises(ValueError):
        precision_by_iou([1.5], [True], edges)


def test_offset_report_degenerate_stream():
    rep = offset_report(np.zeros((10, 4)))
    for h in rep.histograms:
        occupied = np.flatnonzero(h.counts)
        assert occupied.tolist() == [len(h.counts) // 2]  # single central bin
        assert int(h.counts.sum()) == 10
    np.testing.assert_allclose(rep.gaussian.mu, np.zeros(4), atol=1e-15)
    np.testing.assert_allclose(rep.gaussian.var, np.zeros(4), atol=1e-15)


def test_offset_report_bins_span_each_dimension():
    rng = np.random.default_rng(9)
    rows = rng.normal([0.1, -0.2, 0.0, 0.3], [0.05, 0.05, 0.2, 1e-3], size=(20_000, 4))
    rep = offset_report(rows)
    for d, h in enumerate(rep.histograms):
        assert h.counts.shape == (OFFSET_BINS,)
        assert h.edges[0] <= rows[:, d].min() and rows[:, d].max() <= h.edges[-1]
        assert h.counts[0] > 0 and h.counts[-1] > 0  # the extreme values fall in the end bins
        assert int(h.counts.sum()) == len(rows)


def test_offset_report_round_trip_with_sampler():
    model = DiagonalGaussian4([0.02, -0.02, 0.06, 0.04], [0.0064, 0.0064, 0.01, 0.01])
    cfg = SamplerConfig(model=model, j_per_instance=50, seed=11)
    gts = np.array([[100, 100, 20 + (i % 11), 24 + (i % 7)] for i in range(200)], dtype=np.float64)
    props = build_calibrated_set(gts, cfg, image_size=None, image_id="rt")  # gt i draws as gt_index i
    rep = offset_report(encode_offsets_array(props, np.repeat(gts, cfg.j_per_instance, axis=0)))
    sigma = np.sqrt(model.var)
    assert np.all(np.abs(rep.gaussian.mu - model.mu) <= 0.05 * sigma)
    assert np.all(np.abs(np.sqrt(rep.gaussian.var) - sigma) <= 0.05 * sigma)


def test_offset_report_empty_errors():
    with pytest.raises(ValueError):
        offset_report(np.zeros((0, 4)))


def test_offset_report_refuses_arrays_that_are_not_rows_of_four():
    with pytest.raises(ValueError, match=r"\(n, 4\) array, got shape \(2, 6\)"):
        offset_report(np.zeros((2, 6)))


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


@pytest.mark.parametrize("values, edges, message", [
    ([0.5], [], "need at least two bin edges"),
    ([0.5], 0.5, "need at least two bin edges"),
    ([0.5], [0.5], "need at least two bin edges"),
    ([0.2], [np.nan, 0.5, 1.0], "edges must be finite and strictly increasing"),
])
def test_histogram_checks_its_edges_before_reading_them(values, edges, message):
    # the values were compared with e[0] and e[-1] and binned before the edge rule ran: an IndexError,
    # numpy's bincount message or "values outside histogram range [nan, 1.0]"
    with pytest.raises(ValueError, match=message):
        histogram(values, edges)


_FLOAT_MAX = sys.float_info.max
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _offset_rows(draw):
    """1-6 rows of finite offsets; each column constant, a few ulps apart, or arbitrary, at any magnitude."""
    n = draw(st.integers(1, 6))
    cols = []
    for _ in range(4):
        kind, base = draw(st.sampled_from(["constant", "ulps", "any"])), draw(_FINITE)
        if kind == "constant":
            cols.append([base] * n)
        elif kind == "ulps":
            cols.append([base + k * math.ulp(base) for k in draw(st.lists(st.integers(0, 60), min_size=n, max_size=n))])
        else:
            cols.append(draw(st.lists(_FINITE, min_size=n, max_size=n)))
    return np.array(cols, dtype=np.float64).T


@settings(max_examples=300, deadline=None)
@given(_offset_rows())
@example(np.array([[1000.0, 0, 0, 0], [1000.0, 0, 0, 0], [1000.0000000000012, 0, 0, 0]]))
@example(np.full((3, 4), 1e17))
@example(np.full((2, 4), -1e17))
@example(np.array([[_FLOAT_MAX, -_FLOAT_MAX, 1e300, 0.0]]))
@example(np.array([[_FLOAT_MAX / 2, 0.0, 0.0, 0.0], [_FLOAT_MAX / 2, 1.0, 0.0, 0.0]]))
def test_every_offset_array_fit_gaussian_accepts_gets_a_report(rows):
    # offset_report built edges its own Histogram refused when large values left too few floats between them
    assume(np.isfinite(rows).all())
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            fit_gaussian(rows)
        except ValueError:  # its mean or variance overflows
            assume(False)
    rep = offset_report(rows)
    for col, h in zip(rows.T, rep.histograms):
        assert h.counts.shape == (OFFSET_BINS,) and int(h.counts.sum()) == len(rows)
        assert h.edges[0] <= col.min() and col.max() <= h.edges[-1]
        assert np.all(np.diff(h.edges) > 0) and np.isfinite(h.edges).all()


def test_offset_report_keeps_the_edges_it_always_drew():
    # only edges the edge rule refuses are widened; the rest are the padded value range, a half unit each way
    # when degenerate
    rows = np.array([[0.1, -0.2, 1e17, 3.0], [0.4, -0.2, 1e17, 5.0]])
    rep = offset_report(rows)
    for d in (0, 1, 3):
        lo, hi = rows[:, d].min(), rows[:, d].max()
        if hi - lo < 1e-12:
            lo, hi = lo - 0.5, hi + 0.5
        pad = 1e-9 * (hi - lo)
        assert rep.histograms[d].edges.tolist() == np.linspace(lo - pad, hi + pad, OFFSET_BINS + 1).tolist()
    assert rep.histograms[2].edges[0] < 1e17 < rep.histograms[2].edges[-1]


def test_write_histogram_writes_the_csv_and_the_svg(tmp_path):
    h = histogram([0.25, 0.75, 0.75], [0.0, 0.5, 1.0])
    diagnostics.write_histogram(tmp_path / "hist.v1", h, "demo")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hist.v1.csv", "hist.v1.svg"]
    assert (tmp_path / "hist.v1.csv").read_text() == histogram_to_csv(h)
    assert (tmp_path / "hist.v1.svg").read_text() == histogram_to_svg(h, "demo")


def test_write_texts_names_only_the_errors_of_its_file(tmp_path):
    """An error in taking the next text keeps its own message, and the file it had begun is removed."""
    def texts():
        yield "first\n"
        raise BlockingIOError(11, "Resource temporarily unavailable")  # a fork that failed, with no file name

    out = tmp_path / "out.txt"
    with pytest.raises(BlockingIOError) as raised:
        diagnostics.write_texts(texts(), out)
    assert raised.value.filename is None and not out.exists()
    diagnostics.write_texts(["a\n", "", "b"], out)
    assert out.read_bytes() == b"a\nb"

"""Distribution and quality diagnostics: MMD, IoU histograms, precision buckets.

Two maximum-mean-discrepancy estimators are provided. The linear one is the
norm of the difference of sample means (identity feature map) and captures
pure mean shift; the RBF one is the biased V-statistic with a Gaussian
kernel and a median-heuristic bandwidth, sensitive to higher moments too.

Histograms use left-closed bins, with the last bin closed on both sides, so
results are bit-reproducible. Reports serialize to CSV with fixed headers
(``lo,hi,count`` and ``lo,hi,n,correct,precision``) and to a minimal static
SVG bar chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import as_rows4, iou_paired_array
# bound only because the benchmark tracer counts geometry.iou calls through this name
from .geometry import iou  # noqa: F401
from .sampling import philox_rng
from .stats import DiagonalGaussian4, column_mean, fit_gaussian

# Ten equal IoU buckets on [0, 1], shared by every IoU histogram and precision report
IOU_EDGES = np.linspace(0.0, 1.0, 11)

BLOCK = 128  # rows per block of the RBF pair distances and kernel sums
MEDIAN_CAP = 4096  # above this many pooled rows, the median heuristic runs on a subsample this size
MEDIAN_SAMPLE = 4096  # pair distances sampled to bracket the median
OFFSET_BINS = 41  # uniform bins per dimension of an offset report, spanning that dimension's values


def _checked_edges(edges) -> np.ndarray:
    """``edges`` as float64, if they obey the edge rule: at least two, strictly increasing, with a finite span."""
    e = np.asarray(edges, dtype=np.float64)
    if e.ndim != 1 or e.size < 2:
        raise ValueError("need at least two bin edges")
    with np.errstate(over="ignore", invalid="ignore"):  # finite edges may lie further apart than the largest float
        steps, span = np.diff(e), e[-1] - e[0]
    if not (np.all(steps > 0) and np.isfinite(span)):  # so NaN and infinite edges fail
        raise ValueError("edges must be finite and strictly increasing, with a finite span")
    return e


@dataclass(frozen=True)
class Histogram:
    edges: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        edges = _checked_edges(self.edges)
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (edges.size - 1,):
            raise ValueError("counts length must be len(edges) - 1")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True)
class PrecisionBucket:
    lo: float
    hi: float
    n_boxes: int
    n_correct: int
    precision: float | None  # None when the bucket is empty


def histogram(values, edges) -> Histogram:
    """Count values into left-closed bins; the last bin includes its right edge.

    A value exactly on an interior edge lands in the bin to its right.
    NaN and values outside [edges[0], edges[-1]] are an error.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    e = _checked_edges(edges)
    if v.size and not (e[0] <= v.min() and v.max() <= e[-1]):
        raise ValueError(f"values outside histogram range [{e[0]}, {e[-1]}]: min={v.min()}, max={v.max()}")
    idx = np.searchsorted(e, v, side="right") - 1
    idx = np.minimum(idx, e.size - 2)  # fold the exact right edge into the last bin
    return Histogram(e, np.bincount(idx, minlength=e.size - 1))


def _checked_sets(set_a, set_b) -> tuple[np.ndarray, np.ndarray]:
    """The two MMD inputs as float64, if they are non-empty (n, k) arrays of one width k."""
    a = np.asarray(set_a, dtype=np.float64)
    b = np.asarray(set_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("both sets must be non-empty (n, k) arrays")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    return a, b


def mmd_linear(set_a, set_b) -> float:
    """Euclidean distance between the two sample means; where only its square overflows, it is rescaled to fit."""
    a, b = _checked_sets(set_a, set_b)
    with np.errstate(over="ignore"):  # no overflow warns: a square is rescaled, a difference or norm past it is inf
        diff = column_mean(a) - column_mean(b)
        norm = float(np.linalg.norm(diff))
        if math.isinf(norm):
            scale = float(np.abs(diff).max())
            if math.isfinite(scale):
                norm = scale * float(np.linalg.norm(diff / scale))
    return norm


def _median_bracket(pooled: np.ndarray) -> tuple[float, float]:
    """Squared distances that bracket the median pair with high probability.

    The 0.47 and 0.53 quantiles of the squared distances of ``MEDIAN_SAMPLE``
    pairs drawn with a fixed key, however few the pairs. The bracket only
    decides how much work the select does.
    """
    n = pooled.shape[0]
    rng = philox_rng(1)
    i = rng.integers(0, n, MEDIAN_SAMPLE)
    j = rng.integers(0, n - 1, MEDIAN_SAMPLE)
    j += j >= i  # a second, different row
    d2 = np.sort(np.sum((pooled[i] - pooled[j]) ** 2, axis=1))
    return float(d2[int(0.47 * MEDIAN_SAMPLE)]), float(d2[int(0.53 * MEDIAN_SAMPLE)])


def median_heuristic_bandwidth(set_a, set_b) -> float:
    """Median pairwise distance over the pooled samples (1.0 if it degenerates).

    An exact select that holds a small share of the pairs (Floyd and Rivest's
    sampled bracket): one blocked pass counts the squared distances below the
    bracket of :func:`_median_bracket` and keeps those inside it, and only the
    kept ones are partitioned. If the median rank falls outside the bracket, a
    second pass keeps every distance.
    """
    pooled = np.concatenate([np.asarray(set_a, dtype=np.float64), np.asarray(set_b, dtype=np.float64)])
    if len(pooled) > MEDIAN_CAP:  # a fixed key, so the same subsample on every call
        pooled = philox_rng(0).permutation(pooled)[:MEDIAN_CAP]
    n = pooled.shape[0]
    if n < 2:
        return 1.0
    sq = np.sum(pooled * pooled, axis=1)
    pairs = n * (n - 1) // 2
    k = (pairs - 1) // 2  # the median is the k-th smallest (from 0), averaged with the next one for an even count
    for lo_t, hi_t in (_median_bracket(pooled), (-np.inf, np.inf)):
        below, kept = 0, []
        for i0 in range(0, n - 1, BLOCK):  # the squared distances of the pairs i < j, BLOCK rows of i at a time
            i1 = min(i0 + BLOCK, n - 1)
            block = sq[i0:i1, None] + sq[i0 + 1:]
            block -= 2.0 * (pooled[i0:i1] @ pooled[i0 + 1:].T)
            upper = block[np.arange(n - i0 - 1) >= np.arange(i1 - i0)[:, None]]  # column c is j = i0 + 1 + c
            if np.isnan(upper).any():  # as in np.median, a NaN makes the median NaN
                return 1.0
            below += np.count_nonzero(upper < lo_t)
            kept.append(upper[(lo_t <= upper) & (upper <= hi_t)])
        d2 = np.concatenate(kept)
        if below <= k and k + 1 - pairs % 2 < below + d2.size:
            break
    # sqrt is monotone, so the middle distances are the roots of the middle squared distances
    r = k - below
    d2.partition(r)
    lo, hi = np.sqrt(np.maximum([d2[r], d2[r + 1:].min() if pairs % 2 == 0 else d2[r]], 0.0))
    med = float((lo + hi) / 2)
    return med if med > 0.0 else 1.0


def mmd_rbf(set_a, set_b) -> float:
    """Gaussian-kernel MMD, biased V-statistic, k(x,y) = exp(-|x-y|^2 / (2 h^2)), h the median heuristic."""
    a, b = _checked_sets(set_a, set_b)
    h = median_heuristic_bandwidth(a, b)

    def kmean(x: np.ndarray, y: np.ndarray) -> float:
        sqy, minus_twice_yt = np.sum(y * y, axis=1), -2.0 * y.T
        total = 0.0
        for xb in np.split(x, range(BLOCK, len(x), BLOCK)):  # in place: one (BLOCK, len(y)) array at a time
            d2 = xb @ minus_twice_yt
            d2 += np.sum(xb * xb, axis=1)[:, None]
            d2 += sqy
            np.divide(np.maximum(d2, 0.0, out=d2), -2.0 * h * h, out=d2)
            total += float(np.exp(d2, out=d2).sum())
        return total / (len(x) * len(y))

    mmd2 = kmean(a, a) + kmean(b, b) - 2.0 * kmean(a, b)
    return float(np.sqrt(max(mmd2, 0.0)))


def iou_histogram(preds, gts, edges) -> Histogram:
    """Histogram of the IoU of prediction i with ground truth i, both (n, 4) center-form arrays."""
    p, g = as_rows4(preds), as_rows4(gts)
    if p.shape != g.shape:
        raise ValueError(f"need one ground truth per prediction, got {len(p)} predictions and {len(g)}")
    return histogram(iou_paired_array(p, g), edges)


def precision_by_iou(ious, correct, edges) -> tuple[PrecisionBucket, ...]:
    """Per IoU bucket, the fraction of predictions whose ``correct`` flag is set.

    Buckets follow :func:`histogram`'s bin rule; an empty bucket has precision None.
    """
    ious = np.asarray(ious, dtype=np.float64).ravel()
    correct = np.asarray(correct, dtype=bool).ravel()
    if ious.shape != correct.shape:
        raise ValueError(f"need one correct flag per IoU, got {ious.size} IoUs and {correct.size}")
    n = histogram(ious, edges)
    c = histogram(ious[correct], edges).counts
    return tuple(
        PrecisionBucket(
            float(n.edges[i]),
            float(n.edges[i + 1]),
            int(n.counts[i]),
            int(c[i]),
            float(c[i] / n.counts[i]) if n.counts[i] > 0 else None,
        )
        for i in range(n.counts.size)
    )


@dataclass(frozen=True)
class OffsetReport:
    """Per-dimension offset histograms plus the fitted Gaussian."""

    histograms: tuple[Histogram, Histogram, Histogram, Histogram]
    gaussian: DiagonalGaussian4


def _spread_edges(lo: float, hi: float, grow: float) -> np.ndarray:
    """Uniform edges over [lo - grow, hi + grow] (an end past the largest float stops there), padded by 1e-9."""
    lo, hi = np.nan_to_num([lo - grow, hi + grow])
    pad = 1e-9 * (hi - lo)
    return np.linspace(lo - pad, hi + pad, OFFSET_BINS + 1)


def offset_report(offsets) -> OffsetReport:
    """Histograms of the (n, 4) (dx, dy, dw, dh) rows and the fitted diagonal Gaussian.

    Each dimension gets ``OFFSET_BINS`` uniform bins spanning its own value
    range (a half-unit span when degenerate). Where large values leave too
    few floats between those edges for the edge rule, the span widens by
    ``4 * OFFSET_BINS`` ulps of the largest magnitude.
    """
    rows = as_rows4(offsets)
    if rows.shape[0] == 0:
        raise ValueError("offset report requires at least one offset")
    gaussian = fit_gaussian(rows)  # refuses a span that overflows, whose variance overflows too
    hists = []
    for d in range(4):
        col = rows[:, d]
        lo, hi = float(col.min()), float(col.max())
        grow = 0.5 if hi - lo < 1e-12 else 0.0
        try:
            edges = _checked_edges(_spread_edges(lo, hi, grow))
        except ValueError:
            edges = _spread_edges(lo, hi, max(grow, 4 * OFFSET_BINS * math.ulp(max(abs(lo), abs(hi)))))
        hists.append(histogram(col, edges))
    return OffsetReport(tuple(hists), gaussian)


def write_histogram(stem: Path, hist: Histogram, title: str) -> None:
    """Write ``hist`` as ``<stem>.csv`` and as the bar chart ``<stem>.svg`` titled ``title``."""
    Path(f"{stem}.csv").write_text(histogram_to_csv(hist), encoding="utf-8")
    Path(f"{stem}.svg").write_text(histogram_to_svg(hist, title), encoding="utf-8")


# Report emitters. Numbers are rendered with repr so files are byte-stable.

def histogram_to_csv(hist: Histogram) -> str:
    lines = ["lo,hi,count"]
    for i in range(hist.counts.size):
        lines.append(f"{float(hist.edges[i])!r},{float(hist.edges[i + 1])!r},{int(hist.counts[i])}")
    return "\n".join(lines) + "\n"


def precision_to_csv(buckets: tuple[PrecisionBucket, ...]) -> str:
    lines = ["lo,hi,n,correct,precision"]
    for b in buckets:
        p = "" if b.precision is None else repr(b.precision)
        lines.append(f"{b.lo!r},{b.hi!r},{b.n_boxes},{b.n_correct},{p}")
    return "\n".join(lines) + "\n"


def histogram_to_svg(hist: Histogram, title: str = "") -> str:
    """Static SVG bar chart; no scripting, fixed geometry."""
    width, height = 640, 360
    left, right, top, bottom = 50, 14, 34, 40
    plot_w = width - left - right
    plot_h = height - top - bottom
    n = hist.counts.size
    peak = max(int(hist.counts.max()), 1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="#ffffff"/>',
        f'<text x="{left}" y="20" font-family="sans-serif" font-size="14">{title}</text>',
    ]
    span = hist.edges[-1] - hist.edges[0]
    for i in range(n):
        x0 = left + plot_w * (hist.edges[i] - hist.edges[0]) / span
        x1 = left + plot_w * (hist.edges[i + 1] - hist.edges[0]) / span
        bar_h = plot_h * int(hist.counts[i]) / peak
        parts.append(
            f'<rect x="{x0:.2f}" y="{top + plot_h - bar_h:.2f}" '
            f'width="{max(x1 - x0 - 1.0, 0.5):.2f}" height="{bar_h:.2f}" fill="#4878a8"/>'
        )
    parts.append(
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" '
        'stroke="#000000"/>'
    )
    parts.append(
        f'<text x="{left}" y="{height - 14}" font-family="sans-serif" font-size="11">'
        f"{hist.edges[0]:.4g}</text>"
    )
    parts.append(
        f'<text x="{left + plot_w}" y="{height - 14}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{hist.edges[-1]:.4g}</text>'
    )
    parts.append(
        f'<text x="{left - 6}" y="{top + 10}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{peak}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

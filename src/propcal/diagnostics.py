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

from dataclasses import dataclass

import numpy as np

from .geometry import iou_paired_array
# bound only because the benchmark tracer counts geometry.iou calls through this name
from .geometry import iou  # noqa: F401
from .stats import DiagonalGaussian4, OffsetAccumulator

# Ten equal IoU buckets on [0, 1], shared by every IoU histogram and precision report
IOU_EDGES = np.linspace(0.0, 1.0, 11)


@dataclass(frozen=True)
class Histogram:
    edges: np.ndarray
    counts: np.ndarray
    total: int

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.float64)
        counts = np.asarray(self.counts, dtype=np.int64)
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("need at least two bin edges")
        if np.any(np.diff(edges) <= 0):
            raise ValueError("edges must be strictly increasing")
        if counts.shape != (edges.size - 1,):
            raise ValueError("counts length must be len(edges) - 1")
        if np.any(counts < 0) or int(counts.sum()) != self.total:
            raise ValueError("counts must be non-negative and sum to total")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True)
class PrecisionBucket:
    lo: float
    hi: float
    n_boxes: int
    n_correct: int
    precision: float | None  # None when the bucket is empty


@dataclass(frozen=True)
class PrecisionByBucket:
    buckets: tuple[PrecisionBucket, ...]

    def __post_init__(self):
        object.__setattr__(self, "buckets", tuple(self.buckets))


def histogram(values, edges) -> Histogram:
    """Count values into left-closed bins; the last bin includes its right edge.

    A value exactly on an interior edge lands in the bin to its right.
    Values outside [edges[0], edges[-1]] are an error.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    e = np.asarray(edges, dtype=np.float64)
    if v.size and (v.min() < e[0] or v.max() > e[-1]):
        raise ValueError(
            f"values outside histogram range [{e[0]}, {e[-1]}]: "
            f"min={v.min() if v.size else None}, max={v.max() if v.size else None}"
        )
    idx = np.searchsorted(e, v, side="right") - 1
    idx = np.minimum(idx, e.size - 2)  # fold the exact right edge into the last bin
    counts = np.bincount(idx, minlength=e.size - 1) if v.size else np.zeros(e.size - 1, dtype=np.int64)
    return Histogram(e, counts, int(v.size))


def mmd_linear(set_a, set_b) -> float:
    """Euclidean distance between the two sample means."""
    a = np.asarray(set_a, dtype=np.float64)
    b = np.asarray(set_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("both sets must be non-empty (n, k) arrays")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    return float(np.linalg.norm(a.mean(axis=0) - b.mean(axis=0)))


def median_heuristic_bandwidth(set_a, set_b) -> float:
    """Median pairwise distance over the pooled samples (1.0 if it degenerates)."""
    pooled = np.concatenate([np.asarray(set_a, dtype=np.float64), np.asarray(set_b, dtype=np.float64)])
    n = pooled.shape[0]
    if n < 2:
        return 1.0
    sq = np.sum(pooled * pooled, axis=1)
    pairs = np.arange(n)[:, None] < np.arange(n)  # i < j
    twice_gram = 2.0 * (pooled @ pooled.T)[pairs]  # gathered first: the n x n product is freed at once
    d2 = np.broadcast_to(sq[:, None], (n, n))[pairs] + np.broadcast_to(sq, (n, n))[pairs]
    d2 -= twice_gram
    # sqrt is monotone, so the middle distances are the roots of the middle
    # squared distances; as in np.median, a NaN (partitioned last) makes it NaN
    k = (d2.size - 1) // 2
    d2.partition(k)
    if np.isnan(d2[k:].max()):
        return 1.0
    lo, hi = np.sqrt(np.maximum([d2[k], d2[k + 1:].min() if d2.size % 2 == 0 else d2[k]], 0.0))
    med = float((lo + hi) / 2)
    return med if med > 0.0 else 1.0


def mmd_rbf(set_a, set_b, bandwidth: float | str = "median-heuristic") -> float:
    """Gaussian-kernel MMD, biased V-statistic, k(x,y) = exp(-|x-y|^2 / (2 h^2))."""
    a = np.asarray(set_a, dtype=np.float64)
    b = np.asarray(set_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("both sets must be non-empty (n, k) arrays")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    if bandwidth == "median-heuristic":
        h = median_heuristic_bandwidth(a, b)
    else:
        h = float(bandwidth)
        if h <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth!r}")

    def kmean(x: np.ndarray, y: np.ndarray) -> float:
        sqx = np.sum(x * x, axis=1)
        sqy = np.sum(y * y, axis=1)
        # in place, so at most two (len(x), len(y)) arrays are alive at once
        d2 = sqx[:, None] + sqy[None, :] - 2.0 * (x @ y.T)
        np.negative(np.maximum(d2, 0.0, out=d2), out=d2)
        d2 /= 2.0 * h * h
        return float(np.exp(d2, out=d2).mean())

    mmd2 = kmean(a, a) + kmean(b, b) - 2.0 * kmean(a, b)
    return float(np.sqrt(max(mmd2, 0.0)))


def iou_histogram(preds, gts, edges) -> Histogram:
    """Histogram of the IoU of prediction i with ground truth i, both (n, 4) center-form arrays."""
    p = np.asarray(preds, dtype=np.float64).reshape(-1, 4)
    g = np.asarray(gts, dtype=np.float64).reshape(-1, 4)
    if p.shape != g.shape:
        raise ValueError(f"need one ground truth per prediction, got {len(p)} predictions and {len(g)}")
    return histogram(iou_paired_array(p, g), edges)


def precision_by_iou(ious, correct, edges) -> PrecisionByBucket:
    """Per IoU bucket, the fraction of predictions whose ``correct`` flag is set.

    Buckets follow :func:`histogram`'s bin rule; an empty bucket has precision None.
    """
    ious = np.asarray(ious, dtype=np.float64).ravel()
    correct = np.asarray(correct, dtype=bool).ravel()
    if ious.shape != correct.shape:
        raise ValueError(f"need one correct flag per IoU, got {ious.size} IoUs and {correct.size}")
    n = histogram(ious, edges)
    c = histogram(ious[correct], edges).counts
    buckets = tuple(
        PrecisionBucket(
            float(n.edges[i]),
            float(n.edges[i + 1]),
            int(n.counts[i]),
            int(c[i]),
            float(c[i] / n.counts[i]) if n.counts[i] > 0 else None,
        )
        for i in range(n.counts.size)
    )
    return PrecisionByBucket(buckets)


@dataclass(frozen=True)
class OffsetReport:
    """Per-dimension offset histograms plus the fitted Gaussian."""

    histograms: tuple[Histogram, Histogram, Histogram, Histogram]
    gaussian: DiagonalGaussian4


def offset_report(offsets, edges_per_dim=None, bins: int = 41) -> OffsetReport:
    """Histograms of the (n, 4) (dx, dy, dw, dh) rows and the fitted diagonal Gaussian.

    Without explicit edges, each dimension gets ``bins`` uniform bins
    spanning its own value range (a half-unit span when degenerate).
    """
    rows = np.asarray(offsets, dtype=np.float64).reshape(-1, 4)
    if rows.shape[0] == 0:
        raise ValueError("offset report requires at least one offset")
    hists = []
    for d in range(4):
        col = rows[:, d]
        if edges_per_dim is not None:
            e = np.asarray(edges_per_dim[d], dtype=np.float64)
        else:
            lo, hi = float(col.min()), float(col.max())
            if hi - lo < 1e-12:
                lo, hi = lo - 0.5, hi + 0.5
            pad = 1e-9 * (hi - lo)
            e = np.linspace(lo - pad, hi + pad, bins + 1)
        hists.append(histogram(col, e))
    acc = OffsetAccumulator()
    acc.add_many(rows)
    return OffsetReport(tuple(hists), acc.finalize())


# Report emitters. Numbers are rendered with repr so files are byte-stable.

def histogram_to_csv(hist: Histogram) -> str:
    lines = ["lo,hi,count"]
    for i in range(hist.counts.size):
        lines.append(f"{float(hist.edges[i])!r},{float(hist.edges[i + 1])!r},{int(hist.counts[i])}")
    return "\n".join(lines) + "\n"


def precision_to_csv(report: PrecisionByBucket) -> str:
    lines = ["lo,hi,n,correct,precision"]
    for b in report.buckets:
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
    peak = max(int(hist.counts.max()), 1) if n else 1
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

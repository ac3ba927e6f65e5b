"""Independent oracles shared by the unit and acceptance tests.

Everything here is deliberately brute force and avoids the code paths it
checks: overlap integrals use composite Simpson on explicit grids (with the
pdf/uniform crossing located by bisection, not algebra), the uniform fit is
a plain grid search, streaming statistics are re-done in two passes, kernel
MMD is a double loop, gradients come from central finite differences, and
box formulas are written out per box in plain float arithmetic.
"""

from __future__ import annotations

import math

import numpy as np

SQRT_2PI = math.sqrt(2.0 * math.pi)


def gauss_pdf(x, mu, sigma):
    x = np.asarray(x, dtype=np.float64)
    return np.exp(-0.5 * ((x - mu) / sigma) ** 2) / (sigma * SQRT_2PI)


def _simpson(f, a: float, b: float, n: int = 4097) -> float:
    if b <= a:
        return 0.0
    if n % 2 == 0:
        n += 1
    x = np.linspace(a, b, n)
    y = f(x)
    h = (b - a) / (n - 1)
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum()))


def simpson_overlap(mu: float, sigma: float, lo: float, hi: float) -> float:
    """Integral of min(gaussian pdf, uniform pdf) over [lo, hi].

    Composite Simpson, with the integration domain split at the pdf
    crossing points located by bisection so every piece is smooth.
    """
    c = 1.0 / (hi - lo)

    def integrand(x):
        return np.minimum(gauss_pdf(x, mu, sigma), c)

    cuts = [lo, hi]
    if c < 1.0 / (sigma * SQRT_2PI):  # crossings exist at mu +- r
        t_lo, t_hi = 0.0, 20.0 * sigma
        for _ in range(200):
            mid = 0.5 * (t_lo + t_hi)
            if float(gauss_pdf(mu + mid, mu, sigma)) > c:
                t_lo = mid
            else:
                t_hi = mid
        r = 0.5 * (t_lo + t_hi)
        cuts += [p for p in (mu - r, mu + r) if lo < p < hi]
    cuts = sorted(set(cuts))
    return sum(_simpson(integrand, a, b) for a, b in zip(cuts[:-1], cuts[1:]))


def symmetric_overlaps(mu: float, sigma: float, halfwidths) -> np.ndarray:
    """``simpson_overlap(mu, sigma, mu - a, mu + a)`` for every half-width ``a``, as arrays.

    The same steps per half-width, 128 half-widths at a time: the 200-step
    crossing bisection, the cuts and the 4097-point Simpson rule on each
    piece. A cut that ``simpson_overlap`` does not make is an empty piece
    here, which adds an exact 0. numpy's array ``exp`` can differ from its
    one-element ``exp`` in the last bit, so a crossing, and so an overlap,
    may differ from ``simpson_overlap``'s by an ulp.
    """
    out = []
    for a in np.array_split(np.asarray(halfwidths, dtype=np.float64), range(128, len(halfwidths), 128)):
        lo, hi = mu - a, mu + a
        c = 1.0 / (hi - lo)
        t_lo, t_hi = np.zeros_like(a), np.full_like(a, 20.0 * sigma)
        for _ in range(200):
            mid = 0.5 * (t_lo + t_hi)
            above = gauss_pdf(mu + mid, mu, sigma) > c
            t_lo, t_hi = np.where(above, mid, t_lo), np.where(above, t_hi, mid)
        r = 0.5 * (t_lo + t_hi)
        crosses = c < 1.0 / (sigma * SQRT_2PI)
        cut_lo = np.where(crosses & (lo < mu - r) & (mu - r < hi), mu - r, lo)
        cut_hi = np.where(crosses & (lo < mu + r) & (mu + r < hi), mu + r, hi)
        total = np.zeros_like(a)
        for x0, x1 in ((lo, cut_lo), (cut_lo, cut_hi), (cut_hi, hi)):
            total += _simpson_rows(lambda x: np.minimum(gauss_pdf(x, mu, sigma), c[:, None]), x0, x1)
        out.append(total)
    return np.concatenate(out)


def _simpson_rows(f, a: np.ndarray, b: np.ndarray, n: int = 4097) -> np.ndarray:
    """``_simpson(f, a[i], b[i], n)`` for every row i; ``n`` odd."""
    step = (b - a) / (n - 1)
    x = np.arange(n) * step[:, None] + a[:, None]  # np.linspace's arithmetic
    x[:, -1] = b
    y = f(x)
    s = step / 3.0 * (y[:, 0] + y[:, -1] + 4.0 * y[:, 1:-1:2].sum(axis=1) + 2.0 * y[:, 2:-2:2].sum(axis=1))
    return np.where(b > a, s, 0.0)


def grid_optimal_halfwidth(mu: float, sigma: float, fine_step_rel: float = 1e-4) -> float:
    """Grid-search argmax of the symmetric-interval overlap.

    A full coarse sweep of (0, 8 sigma] (step 1e-3 sigma) guards against
    secondary modes; a fine sweep at ``fine_step_rel * sigma`` around the
    coarse argmax pins the optimum.
    """
    coarse = np.arange(1e-3, 8.0 + 1e-9, 1e-3) * sigma
    best = coarse[int(np.argmax(symmetric_overlaps(mu, sigma, coarse)))]
    lo = max(best - 2e-3 * sigma, fine_step_rel * sigma)
    fine = np.arange(lo, best + 2e-3 * sigma + 1e-12, fine_step_rel * sigma)
    return float(fine[int(np.argmax(symmetric_overlaps(mu, sigma, fine)))])


def two_pass_stats(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Naive two-pass mean and population variance."""
    rows = np.asarray(rows, dtype=np.float64)
    mean = rows.mean(axis=0)
    var = ((rows - mean) ** 2).mean(axis=0)
    return mean, var


def mmd_rbf_double_loop(a: np.ndarray, b: np.ndarray) -> float:
    """Biased V-statistic Gaussian-kernel MMD with explicit loops.

    Replicates the median-heuristic convention: median of all pooled
    pairwise distances (i < j), 1.0 when that degenerates to zero.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    pooled = np.concatenate([a, b])
    dists = []
    for i in range(len(pooled)):
        for j in range(i + 1, len(pooled)):
            dists.append(math.sqrt(float(((pooled[i] - pooled[j]) ** 2).sum())))
    dists.sort()
    m = len(dists)
    if m == 0:
        med = 0.0
    elif m % 2 == 1:
        med = dists[m // 2]
    else:
        med = 0.5 * (dists[m // 2 - 1] + dists[m // 2])
    h = med if med > 0.0 else 1.0

    def k(x, y):
        return math.exp(-float(((x - y) ** 2).sum()) / (2.0 * h * h))

    kaa = sum(k(x, y) for x in a for y in a) / (len(a) * len(a))
    kbb = sum(k(x, y) for x in b for y in b) / (len(b) * len(b))
    kab = sum(k(x, y) for x in a for y in b) / (len(a) * len(b))
    return math.sqrt(max(kaa + kbb - 2.0 * kab, 0.0))


def fd_gradient(loss_fn, z: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar loss over an (n, d) array."""
    g = np.zeros_like(z)
    for i in range(z.shape[0]):
        for j in range(z.shape[1]):
            zp, zm = z.copy(), z.copy()
            zp[i, j] += eps
            zm[i, j] -= eps
            g[i, j] = (loss_fn(zp) - loss_fn(zm)) / (2.0 * eps)
    return g


def encode_offset_loop(p, g) -> tuple[float, float, float, float]:
    """Offset of center-form box ``p`` against ``g``, one component at a time."""
    return ((p[0] - g[0]) / g[2], (p[1] - g[1]) / g[3], (p[2] - g[2]) / g[2], (p[3] - g[3]) / g[3])


def apply_offset_loop(g, o) -> tuple[float, float, float, float]:
    return (g[0] + o[0] * g[2], g[1] + o[1] * g[3], g[2] * (1.0 + o[2]), g[3] * (1.0 + o[3]))


def corners_loop(b) -> tuple[float, float, float, float]:
    """(x1, y1, x2, y2) of center-form box ``b``."""
    return (b[0] - b[2] / 2.0, b[1] - b[3] / 2.0, b[0] + b[2] / 2.0, b[1] + b[3] / 2.0)


def iou_loop(a, b) -> float:
    ax1, ay1, ax2, ay2 = corners_loop(a)
    bx1, by1, bx2, by2 = corners_loop(b)
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return min(inter / (a[2] * a[3] + b[2] * b[3] - inter), 1.0)


def clip_loop(b, img_w: float, img_h: float):
    """``b`` intersected with [0, img_w] x [0, img_h] in center form, or None when empty."""
    x1, y1, x2, y2 = corners_loop(b)
    x1, y1, x2, y2 = max(x1, 0.0), max(y1, 0.0), min(x2, img_w), min(y2, img_h)
    if x2 <= x1 or y2 <= y1:
        return None
    return ((x1 + x2) / 2.0, (y1 + y2) / 2.0, x2 - x1, y2 - y1)

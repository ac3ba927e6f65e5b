"""Offset distribution fitting: streaming Gaussian statistics and uniform fits.

The accumulator keeps per-dimension mean and sum of squared deviations,
folding in each batch's two-pass moments by the Chan-Golub-LeVeque merge,
so batches of an offset stream stay numerically stable and two partial
accumulators can be merged for parallel reduction. Finalizing divides the
squared deviations by the total count (population variance).

The uniform fit supports the sampling-distribution ablation: given a
fitted diagonal Gaussian, :func:`fit_optimal_uniform` returns, per
dimension, the symmetric interval mu +- KAPPA * sigma, whose uniform density
has maximal pdf-intersection area with the Gaussian, for a universal
constant KAPPA ~= 1.4863877.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .geometry import as_rows4, four_floats

# Half-width of the max-overlap uniform in units of sigma: the root of the
# stationarity condition 2 k^2 phi(k) = sqrt(2 ln(2k / sqrt(2 pi))), with phi
# the standard normal pdf, found by bisection.
KAPPA = 1.4863876994554133


@dataclass(frozen=True)
class DiagonalGaussian4:
    """Per-dimension Gaussian offset model: means ``mu`` and variances ``var``."""

    mu: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        mu, var = _store_fields(self)
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(var))):
            raise ValueError("gaussian parameters must be finite")
        if np.any(var < 0):
            raise ValueError(f"variances must be non-negative, got {var}")


@dataclass(frozen=True)
class Uniform4:
    """Per-dimension uniform offset model on [lo_d, hi_d)."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo, hi = _store_fields(self)
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("uniform bounds must be finite")
        if np.any(lo >= hi):
            raise ValueError(f"lo must be < hi component-wise, got lo={lo}, hi={hi}")


def column_mean(x: np.ndarray) -> np.ndarray:
    """``x.mean(axis=0)`` of (n, k) rows bit for bit where finite, zeros for no rows, ``x / n`` summed on overflow."""
    n = max(len(x), 1)
    with np.errstate(over="ignore", invalid="ignore"):  # and so warns of neither
        mean = x.sum(axis=0) / n
        overflowed = ~np.isfinite(mean)
        mean[overflowed] = (x[:, overflowed] / n).sum(axis=0)
    return mean


@dataclass
class OffsetAccumulator:
    """Single-pass mean/variance accumulator over 4-d offsets.

    ``m2`` holds the running sum of squared deviations from the running
    mean, per dimension. Use :meth:`merge` (never shared mutation) to
    combine accumulators filled in parallel.
    """

    count: int = 0
    mean: np.ndarray = field(default_factory=lambda: np.zeros(4))
    m2: np.ndarray = field(default_factory=lambda: np.zeros(4))

    def add_many(self, offsets: np.ndarray) -> None:
        """Fold (n, 4) offsets in: the batch's two-pass moments, merged by :meth:`merge`."""
        x = as_rows4(offsets)
        mean = column_mean(x)
        merged = self.merge(OffsetAccumulator(x.shape[0], mean, ((x - mean) ** 2).sum(axis=0)))
        self.count, self.mean, self.m2 = merged.count, merged.mean, merged.m2

    def merge(self, other: OffsetAccumulator) -> OffsetAccumulator:
        """Combine two accumulators as if their streams were concatenated."""
        if self.count == 0:
            return OffsetAccumulator(other.count, other.mean.copy(), other.m2.copy())
        if other.count == 0:
            return OffsetAccumulator(self.count, self.mean.copy(), self.m2.copy())
        n = self.count + other.count
        delta = other.mean - self.mean
        mean = self.mean + delta * (other.count / n)
        m2 = self.m2 + other.m2 + delta * delta * (self.count * other.count / n)
        return OffsetAccumulator(n, mean, m2)

    def finalize(self) -> DiagonalGaussian4:
        """Fit the Gaussian: mu = mean, var = m2 / count (population variance)."""
        if self.count == 0:
            raise ValueError("cannot finalize an empty accumulator")
        return DiagonalGaussian4(self.mean, np.maximum(self.m2 / self.count, 0.0))  # the model stores its own copy


def fit_gaussian(offsets) -> DiagonalGaussian4:
    """The diagonal Gaussian of (n, 4) offsets: one :class:`OffsetAccumulator` batch, finalized."""
    acc = OffsetAccumulator()
    acc.add_many(offsets)
    return acc.finalize()


def fit_optimal_uniform(g: DiagonalGaussian4) -> Uniform4:
    """Per dimension, the interval [mu - KAPPA sigma, mu + KAPPA sigma] maximizing pdf overlap."""
    if not isinstance(g, DiagonalGaussian4):
        raise ValueError("fit-uniform requires a gaussian model")
    if np.any(g.var <= 0):
        raise ValueError("optimal uniform fit requires strictly positive variances")
    half = KAPPA * np.sqrt(g.var)
    return Uniform4(g.mu - half, g.mu + half)


# JSON model files: {"kind": "gaussian", "mu": [...], "var": [...]} or
# {"kind": "uniform", "lo": [...], "hi": [...]}, numbers with 17 significant
# digits so values round-trip exactly. The kinds, by name: the model class and its fields in file order.
_MODEL_KINDS = {"gaussian": (DiagonalGaussian4, ("mu", "var")), "uniform": (Uniform4, ("lo", "hi"))}


def _store_fields(model) -> list[np.ndarray]:
    """Store each field of a frozen model as a float64 array, read by ``four_floats`` as a model file's field is."""
    kind, names = next((k, names) for k, (cls, names) in _MODEL_KINDS.items() if isinstance(model, cls))
    for n in names:
        object.__setattr__(model, n, np.array(four_floats(getattr(model, n), f"{kind} model field {n}")))
    return [getattr(model, n) for n in names]


def model_to_json(model: DiagonalGaussian4 | Uniform4) -> str:
    for kind, (cls, names) in _MODEL_KINDS.items():
        if isinstance(model, cls):
            fields = (f'"{n}": [' + ", ".join(f"{float(v):.16e}" for v in getattr(model, n)) + "]" for n in names)
            return f'{{"kind": "{kind}", {", ".join(fields)}}}'
    raise TypeError(f"unsupported model type: {type(model).__name__}")


def model_from_json(text: str) -> DiagonalGaussian4 | Uniform4:
    doc = json.loads(text)
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError("model document must be an object with a 'kind' field")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in _MODEL_KINDS:  # a list or object kind is no key
        raise ValueError(f"unknown model kind: {kind!r}")
    cls, names = _MODEL_KINDS[kind]
    missing = [n for n in names if n not in doc]
    if missing:
        raise ValueError(f"{kind} model document lacks field(s): {', '.join(missing)}")
    unknown = sorted(set(doc) - {"kind", *names})
    if unknown:
        raise ValueError(f"{kind} model document has unknown field(s): {', '.join(unknown)}")
    return cls(*(doc[n] for n in names))

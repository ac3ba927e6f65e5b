import json
import math
import re

import numpy as np
import pytest

from helpers import grid_optimal_halfwidth, simpson_overlap, symmetric_overlaps, two_pass_stats
from propcal.stats import (
    KAPPA,
    DiagonalGaussian4,
    OffsetAccumulator,
    Uniform4,
    column_mean,
    fit_gaussian,
    fit_optimal_uniform,
    model_from_json,
    model_to_json,
)

# Frozen result of the grid oracle for N(0, 0.1^2), computed at step 1e-4 * sigma
# before the search implementation was written.
GOLDEN_HALFWIDTH_SIGMA01 = 0.148640


def test_first_sample():
    acc = OffsetAccumulator()
    acc.add_many([0.1, -0.05, 0.1, -0.1])
    assert acc.count == 1
    np.testing.assert_allclose(acc.mean, [0.1, -0.05, 0.1, -0.1])


def test_two_samples_mean_cancels():
    acc = OffsetAccumulator()
    acc.add_many([0.1, 0, 0, 0])
    acc.add_many([-0.1, 0, 0, 0])
    np.testing.assert_allclose(acc.mean, np.zeros(4), atol=1e-15)
    g = acc.finalize()
    np.testing.assert_allclose(g.mu, np.zeros(4), atol=1e-15)
    np.testing.assert_allclose(g.var, [0.01, 0, 0, 0], rtol=1e-12)


def test_single_sample_zero_variance():
    acc = OffsetAccumulator()
    acc.add_many([0.3, 0.2, 0.1, -0.2])
    g = acc.finalize()
    np.testing.assert_allclose(g.var, np.zeros(4), atol=1e-15)


def test_empty_finalize_errors():
    with pytest.raises(ValueError):
        OffsetAccumulator().finalize()


def test_merge_equals_concatenated_stream():
    rng = np.random.default_rng(3)
    a = rng.normal(0.02, 0.1, size=(500, 4))
    b = rng.normal(-0.05, 0.2, size=(700, 4))
    acc_a, acc_b, acc_all = OffsetAccumulator(), OffsetAccumulator(), OffsetAccumulator()
    acc_a.add_many(a)
    acc_b.add_many(b)
    acc_all.add_many(np.concatenate([a, b]))
    merged = acc_a.merge(acc_b)
    assert merged.count == acc_all.count
    np.testing.assert_allclose(merged.mean, acc_all.mean, rtol=1e-12)
    np.testing.assert_allclose(merged.m2, acc_all.m2, rtol=1e-9)
    # and both agree with the naive two-pass oracle
    mean, var = two_pass_stats(np.concatenate([a, b]))
    g = merged.finalize()
    np.testing.assert_allclose(g.mu, mean, rtol=1e-9)
    np.testing.assert_allclose(g.var, var, rtol=1e-9)


def test_add_many_single_batch_is_two_pass_exactly():
    rows = np.random.default_rng(23).normal(0.03, 0.15, size=(1_000, 4))
    acc = OffsetAccumulator()
    acc.add_many(rows)
    g = acc.finalize()
    mean, var = two_pass_stats(rows)
    assert acc.count == 1_000
    assert np.array_equal(g.mu, mean) and np.array_equal(g.var, var)


def test_add_many_chunks_fold_in_through_merge():
    rng = np.random.default_rng(29)
    a = rng.normal(0.1, 0.2, size=(300, 4))
    b = rng.normal(-0.2, 0.05, size=(170, 4))
    acc_a, acc_b, acc = OffsetAccumulator(), OffsetAccumulator(), OffsetAccumulator()
    acc_a.add_many(a)
    acc_b.add_many(b)
    acc.add_many(a)
    acc.add_many(b)
    merged = acc_a.merge(acc_b)
    assert acc.count == merged.count == 470
    assert np.array_equal(acc.mean, merged.mean) and np.array_equal(acc.m2, merged.m2)
    # an empty batch leaves the accumulator as it was
    before = (acc.count, acc.mean.copy(), acc.m2.copy())
    acc.add_many(np.empty((0, 4)))
    assert acc.count == before[0]
    assert np.array_equal(acc.mean, before[1]) and np.array_equal(acc.m2, before[2])


def test_add_many_refuses_arrays_that_are_not_rows_of_four():
    acc = OffsetAccumulator()
    for bad in (np.arange(12.0).reshape(4, 3), np.zeros(8), np.zeros((2, 2, 4))):
        with pytest.raises(ValueError, match="one row of 4 values or an"):
            acc.add_many(bad)
    assert acc.count == 0


def test_merge_with_empty():
    acc = OffsetAccumulator()
    acc.add_many([0.1, 0.2, 0.3, 0.4])
    for merged in (acc.merge(OffsetAccumulator()), OffsetAccumulator().merge(acc)):
        assert merged.count == 1
        np.testing.assert_allclose(merged.mean, acc.mean)


def test_permutation_invariance():
    rng = np.random.default_rng(11)
    rows = rng.normal(0, 0.3, size=(2000, 4))
    acc1, acc2 = OffsetAccumulator(), OffsetAccumulator()
    acc1.add_many(rows)
    acc2.add_many(rows[rng.permutation(2000)])
    g1, g2 = acc1.finalize(), acc2.finalize()
    np.testing.assert_allclose(g1.mu, g2.mu, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(g1.var, g2.var, rtol=1e-9)


def test_population_variance_convention():
    # population (divide by n), not sample (n - 1) variance
    rng = np.random.default_rng(5)
    rows = rng.normal(0.1, 0.2, size=(10_000, 4))
    acc = OffsetAccumulator()
    acc.add_many(rows)
    g = acc.finalize()
    mean, var = two_pass_stats(rows)
    np.testing.assert_allclose(g.mu, mean, rtol=1e-9, atol=1e-15)
    np.testing.assert_allclose(g.var, var, rtol=1e-9)
    assert not np.allclose(g.var, rows.var(axis=0, ddof=1), rtol=1e-6)


def test_statistical_recovery():
    rng = np.random.default_rng(17)
    mu = np.array([0.05, -0.04, 0.08, 0.06])
    sigma = np.array([0.1, 0.12, 0.09, 0.11])
    rows = rng.normal(mu, sigma, size=(100_000, 4))
    acc = OffsetAccumulator()
    acc.add_many(rows)
    g = acc.finalize()
    assert np.all(np.abs(g.mu - mu) <= 0.02 * sigma)
    assert np.all(np.abs(np.sqrt(g.var) - sigma) <= 0.02 * sigma)


def test_fit_optimal_uniform_matches_grid_oracle():
    sigma = 0.1
    g = DiagonalGaussian4(np.zeros(4), np.full(4, sigma**2))
    u = fit_optimal_uniform(g)
    half = (u.hi - u.lo) / 2
    oracle = grid_optimal_halfwidth(0.0, sigma)
    assert abs(oracle - GOLDEN_HALFWIDTH_SIGMA01) <= 2e-4 * sigma
    for d in range(4):
        assert abs(half[d] - oracle) <= 1e-3 * sigma
        # overlap at the found optimum is not worse than the grid's best
        got = simpson_overlap(0.0, sigma, float(u.lo[d]), float(u.hi[d]))
        best = simpson_overlap(0.0, sigma, -oracle, oracle)
        assert got >= best - 1e-6


def test_fit_optimal_uniform_homogeneity():
    g1 = DiagonalGaussian4(np.zeros(4), np.full(4, 0.1**2))
    g2 = DiagonalGaussian4(np.zeros(4), np.full(4, 0.2**2))
    h1 = (fit_optimal_uniform(g1).hi - fit_optimal_uniform(g1).lo) / 2
    h2 = (fit_optimal_uniform(g2).hi - fit_optimal_uniform(g2).lo) / 2
    np.testing.assert_allclose(h2, 2 * h1, atol=5e-6)


def test_fit_optimal_uniform_is_kappa_sigma():
    # every scale the other fit tests use, plus extremes
    for sigma in (1e-4, 0.05, 0.1, 0.2, 0.3, 1.0, 50.0):
        g = DiagonalGaussian4(np.full(4, 0.25), np.full(4, sigma**2))
        u = fit_optimal_uniform(g)
        np.testing.assert_allclose((u.hi - u.lo) / 2, KAPPA * sigma, rtol=1e-12)
    # agrees with a direct numerical search of the overlap optimum (1.48638776 sigma)
    assert abs(KAPPA - 1.48638776) <= 1e-6


def test_kappa_is_the_overlap_maximizer():
    # stationarity: 2 k^2 phi(k) = sqrt(2 ln(2k / sqrt(2 pi)))
    phi = math.exp(-0.5 * KAPPA**2) / math.sqrt(2 * math.pi)
    rhs = math.sqrt(2 * math.log(2 * KAPPA / math.sqrt(2 * math.pi)))
    assert 2 * KAPPA**2 * phi == pytest.approx(rhs, abs=1e-14)
    best = simpson_overlap(0.0, 1.0, -KAPPA, KAPPA)
    for delta in (1e-3, 1e-2, 0.1):
        assert best > simpson_overlap(0.0, 1.0, -KAPPA - delta, KAPPA + delta)
        assert best > simpson_overlap(0.0, 1.0, -KAPPA + delta, KAPPA - delta)


def test_fit_optimal_uniform_symmetric_about_mu():
    mu = np.array([0.05, -0.03, 0.1, 0.0])
    g = DiagonalGaussian4(mu, np.array([0.01, 0.04, 0.0025, 0.09]))
    u = fit_optimal_uniform(g)
    np.testing.assert_allclose((u.lo + u.hi) / 2, mu, atol=1e-9)


def test_fit_optimal_uniform_rejects_zero_variance():
    with pytest.raises(ValueError):
        fit_optimal_uniform(DiagonalGaussian4(np.zeros(4), np.array([0.01, 0, 0.01, 0.01])))


def test_model_json_round_trip():
    g = DiagonalGaussian4([0.05, -0.04, 0.08, 0.06], [0.01, 0.02, 0.0144, 1e-7])
    g2 = model_from_json(model_to_json(g))
    np.testing.assert_array_equal(g2.mu, g.mu)
    np.testing.assert_array_equal(g2.var, g.var)
    u = Uniform4([-1e-3, -0.5, 0.1, -2.0], [1e-3, 0.5, 0.7, -1.0])
    u2 = model_from_json(model_to_json(u))
    np.testing.assert_array_equal(u2.lo, u.lo)
    np.testing.assert_array_equal(u2.hi, u.hi)


def test_model_json_fixed_order_and_digits():
    text = model_to_json(DiagonalGaussian4([0.5, 0, 0, 0], [0.25, 0, 0, 0]))
    assert text.index('"kind"') < text.index('"mu"') < text.index('"var"')
    # every number carries 17 significant digits
    for m in re.findall(r"-?\d\.\d+e[+-]\d+", text):
        digits = m.split("e")[0].replace("-", "").replace(".", "")
        assert len(digits) >= 12


def test_reference_uniform_file_example():
    # published optimal-uniform bounds, used as a serialization example
    u = Uniform4([-0.055, -0.036, -0.077, -0.057], [0.055, 0.036, 0.077, 0.057])
    u2 = model_from_json(model_to_json(u))
    np.testing.assert_array_equal(u2.lo, u.lo)
    np.testing.assert_array_equal(u2.hi, u.hi)


def test_model_json_rejects_unknown_kind():
    with pytest.raises(ValueError):
        model_from_json('{"kind": "poisson", "mu": [0,0,0,0], "var": [1,1,1,1]}')
    with pytest.raises(ValueError):
        model_from_json('[1, 2, 3]')


def test_model_json_missing_field_is_value_error():
    with pytest.raises(ValueError, match="var"):
        model_from_json('{"kind": "gaussian", "mu": [0, 0, 0, 0]}')
    with pytest.raises(ValueError, match="lo, hi"):
        model_from_json('{"kind": "uniform"}')
    with pytest.raises(ValueError, match="kind"):
        model_from_json('{"kind": ["gaussian"]}')
    with pytest.raises(ValueError, match="numeric"):
        model_from_json('{"kind": "gaussian", "mu": {"x": 1}, "var": [1, 1, 1, 1]}')


def test_gaussian_uniform_invariants():
    with pytest.raises(ValueError):
        DiagonalGaussian4([0, 0, 0, 0], [-1, 0, 0, 0])
    with pytest.raises(ValueError):
        Uniform4([0, 0, 0, 0], [1, 1, 0, 1])
    with pytest.raises(ValueError):
        DiagonalGaussian4([math.inf, 0, 0, 0], [1, 1, 1, 1])
    for lo, hi in (([-math.inf, 0, 0, 0], [1, 1, 1, 1]), ([0, 0, 0, 0], [1, math.nan, 1, 1])):
        with pytest.raises(ValueError, match="^uniform bounds must be finite$"):
            Uniform4(lo, hi)
    # a field is read as a model file's field is: four real numbers, no bool, none beyond the float range
    for bad in ([True, 0, 0, 0], ["1", 0, 0, 0], np.zeros((2, 2)), [0, 0, 0], [10**400, 0, 0, 0]):
        with pytest.raises(ValueError, match="^gaussian model field mu "):
            DiagonalGaussian4(bad, [1, 1, 1, 1])
        with pytest.raises(ValueError, match="^uniform model field lo "):
            Uniform4(bad, [2, 2, 2, 2])
    # a tuple or a 1-D array of four is read like a list, into a new float64 array
    mu = np.arange(4.0)
    g = DiagonalGaussian4(mu, (1, 1, 1, 1))
    assert g.var.dtype == np.float64 and g.mu.tolist() == [0.0, 1.0, 2.0, 3.0] and not np.shares_memory(g.mu, mu)


def test_vectorized_overlap_oracle_matches_the_scalar_one():
    halfwidths = np.array([0.01, 0.05, 0.1, 0.1487, 0.3, 0.8])
    scalar = [simpson_overlap(0.0, 0.1, -a, a) for a in halfwidths]
    np.testing.assert_allclose(symmetric_overlaps(0.0, 0.1, halfwidths), scalar, rtol=0, atol=1e-15)


def test_fit_gaussian_is_one_accumulator_batch():
    rows = np.random.default_rng(4).normal(0.1, 0.3, size=(300, 4))
    acc = OffsetAccumulator()
    acc.add_many(rows)
    want, got = acc.finalize(), fit_gaussian(rows)
    assert got.mu.tolist() == want.mu.tolist() and got.var.tolist() == want.var.tolist()
    with pytest.raises(ValueError, match="empty accumulator"):
        fit_gaussian(np.zeros((0, 4)))


def test_fit_optimal_uniform_refuses_a_model_that_is_not_gaussian():
    # a uniform model failed with AttributeError: 'Uniform4' object has no attribute 'var'
    with pytest.raises(ValueError, match="^fit-uniform requires a gaussian model$"):
        fit_optimal_uniform(Uniform4(-np.ones(4), np.ones(4)))


@pytest.mark.parametrize("text", ['{"kind": ["gaussian"]}', '{"kind": {"a": 1}}', '{"kind": 1}'])
def test_model_kind_that_is_not_a_name_is_unknown(text):
    # the kinds are a table keyed by name; a list or an object is no key, and must not raise TypeError
    with pytest.raises(ValueError) as info:
        model_from_json(text)
    assert str(info.value) == f"unknown model kind: {json.loads(text)['kind']!r}"


@pytest.mark.parametrize("model", [DiagonalGaussian4([0.1, -0.2, 0.3, 0.0], [0.01, 0.02, 0.0, 1.5]),
                                   Uniform4([-1.0, 0.0, 0.5, -3.0], [1.0, 0.25, 0.75, 3.0])])
def test_model_json_writes_the_kind_and_its_fields_in_order(model):
    text = model_to_json(model)
    assert list(json.loads(text)) == ["kind", *{DiagonalGaussian4: ["mu", "var"], Uniform4: ["lo", "hi"]}[type(model)]]
    back = model_from_json(text)
    assert type(back) is type(model)
    assert all(np.array_equal(getattr(back, f), getattr(model, f)) for f in vars(model))


def test_model_to_json_refuses_a_type_that_is_no_model_kind():
    with pytest.raises(TypeError, match="^unsupported model type: dict$"):
        model_to_json({"kind": "gaussian", "mu": [0.0] * 4, "var": [1.0] * 4})


def test_column_mean_is_numpy_mean_where_finite_and_sums_x_over_n_where_the_sum_overflows():
    rng = np.random.default_rng(30)
    x = rng.normal(size=(1001, 4)) * [1.0, 1e3, 1e-3, 1e300]
    assert column_mean(x).tobytes() == x.mean(axis=0).tobytes()
    big = np.array([[1e308, 1.0, -1e308, 1.5], [1e308, 2.0, -1e308, 2.5]])
    assert column_mean(big).tolist() == [1e308, 1.5, -1e308, 2.0]  # no warning: the suite turns it into an error
    g = fit_gaussian([[1e308] * 4] * 2)  # its column sums overflow; its mean and variance do not
    assert g.mu.tolist() == [1e308] * 4 and g.var.tolist() == [0.0] * 4


def test_column_mean_of_no_rows_is_zeros_and_an_empty_batch_leaves_the_accumulator_as_it_was():
    # numpy's mean of no rows warns "Mean of empty slice", which the suite turns into an error
    assert column_mean(np.zeros((0, 3))).tobytes() == bytes(24)  # +0.0 each
    acc = OffsetAccumulator()
    acc.add_many(np.zeros((0, 4)))
    assert (acc.count, acc.mean.tolist(), acc.m2.tolist()) == (0, [0.0] * 4, [0.0] * 4)
    rows = np.random.default_rng(31).normal(size=(5, 4))
    acc.add_many(rows)
    before = (acc.count, acc.mean.tobytes(), acc.m2.tobytes())
    acc.add_many(np.zeros((0, 4)))
    assert (acc.count, acc.mean.tobytes(), acc.m2.tobytes()) == before

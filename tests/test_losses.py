import math
import warnings

import numpy as np
import pytest

from helpers import fd_gradient
from propcal.losses import (
    ContrastiveBatch,
    Embedding,
    LossBreakdown,
    assemble_loss,
    cross_entropy_batch,
    smooth_l1_batch,
    supcon_grad_arrays,
    supcon_loss,
    supcon_loss_and_grad_arrays,
    supcon_loss_arrays,
)


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def random_batch(rng, n=12, d=8, classes=3):
    z = rng.normal(size=(n, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    labels = rng.integers(0, classes, size=n)
    return z, labels


def test_two_same_class_embeddings_zero_loss():
    batch = ContrastiveBatch(
        (Embedding(unit([1, 2, 3]), 0, "a"), Embedding(unit([-1, 0, 1]), 0, "b")),
        tau=1.0,
    )
    assert supcon_loss(batch) == 0.0


def test_worked_three_element_batch():
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    batch = ContrastiveBatch(
        (Embedding(e1, 0, "a"), Embedding(e1, 0, "b"), Embedding(e2, 1, "c")),
        tau=1.0,
    )
    expected = 2.0 * math.log(1.0 + math.exp(-1.0)) / 3.0
    assert supcon_loss(batch) == pytest.approx(expected, abs=1e-6)


def test_identical_same_class_batch_is_combinatorial_constant():
    # with all similarities equal, each anchor's log-ratio is -log(n - 1)
    # regardless of the shared vector, so the loss is exactly log(n - 1)
    v = unit([0.3, -0.4, 0.5])
    for n in (2, 3, 5, 9):
        batch = ContrastiveBatch(
            tuple(Embedding(v, 2, i) for i in range(n)), tau=0.2
        )
        assert supcon_loss(batch) == pytest.approx(math.log(n - 1), abs=1e-9)


def test_loss_nonnegative_on_random_batches():
    rng = np.random.default_rng(0)
    for _ in range(50):
        z, labels = random_batch(rng, n=int(rng.integers(2, 20)))
        assert supcon_loss_arrays(z, labels, 0.2) >= 0.0


def test_permutation_invariance():
    rng = np.random.default_rng(1)
    z, labels = random_batch(rng)
    base = supcon_loss_arrays(z, labels, 0.2)
    perm = rng.permutation(len(z))
    assert supcon_loss_arrays(z[perm], labels[perm], 0.2) == pytest.approx(base, abs=1e-12)


def test_no_positive_anchor_contributes_zero():
    # single-member classes only: every anchor lacks a positive
    rng = np.random.default_rng(2)
    z = rng.normal(size=(4, 6))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    labels = np.array([0, 1, 2, 3])
    assert supcon_loss_arrays(z, labels, 0.5) == 0.0
    g = supcon_grad_arrays(z, labels, 0.5)
    np.testing.assert_allclose(g, fd_gradient(lambda zz: supcon_loss_arrays(zz, labels, 0.5), z), atol=1e-8)


def test_temperature_limit():
    rng = np.random.default_rng(3)
    z, _ = random_batch(rng, n=16, d=8)
    labels = np.repeat(np.arange(4), 4)  # every anchor has positives
    val = supcon_loss_arrays(z, labels, 1e3)
    assert val == pytest.approx(math.log(15), rel=0.01)


def test_grad_zero_for_two_sample_same_class():
    rng = np.random.default_rng(4)
    z, _ = random_batch(rng, n=2, d=5)
    g = supcon_grad_arrays(z, np.array([0, 0]), 0.7)
    np.testing.assert_allclose(g, np.zeros_like(z), atol=1e-15)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(10):
        z, labels = random_batch(rng)
        analytic = supcon_grad_arrays(z, labels, 0.2)
        fd = fd_gradient(lambda zz: supcon_loss_arrays(zz, labels, 0.2), z)
        denom = max(np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(analytic - fd) / denom < 1e-5


def test_grad_on_duplicated_batch():
    rng = np.random.default_rng(6)
    z, labels = random_batch(rng, n=6, d=4)
    z2 = np.concatenate([z, z])
    labels2 = np.concatenate([labels, labels])
    analytic = supcon_grad_arrays(z2, labels2, 0.2)
    fd = fd_gradient(lambda zz: supcon_loss_arrays(zz, labels2, 0.2), z2)
    assert np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12) < 1e-5


def _supcon_separate(z, labels, tau):
    """The loss and the gradient as two independent passes, each building every term itself."""
    n = z.shape[0]
    if n == 1:
        return 0.0, np.zeros_like(z)

    def parts():
        sim = (z @ z.T) / tau
        off_diag = ~np.eye(n, dtype=bool)
        pos = (labels[:, None] == labels[None, :]) & off_diag
        row_max = np.max(np.where(off_diag, sim, -np.inf), axis=1)
        exp_shift = np.where(off_diag, np.exp(sim - row_max[:, None]), 0.0)
        return sim, pos, pos.sum(axis=1), exp_shift, row_max + np.log(exp_shift.sum(axis=1))

    sim, pos, n_pos, _, log_den = parts()
    has_pos = n_pos > 0
    loss = 0.0
    if np.any(has_pos):
        per_anchor = np.zeros(n)
        np.divide(-((sim - log_den[:, None]) * pos).sum(axis=1), n_pos, out=per_anchor, where=has_pos)
        loss = float(per_anchor.sum() / n)
    _, pos, n_pos, exp_shift, _ = parts()
    softmax = exp_shift / exp_shift.sum(axis=1, keepdims=True)
    pos_weight = np.zeros_like(softmax)
    np.divide(pos, n_pos[:, None], out=pos_weight, where=has_pos[:, None])
    coeff = np.where(has_pos[:, None], softmax - pos_weight, 0.0)
    return loss, (coeff @ z + coeff.T @ z) / (n * tau)


@pytest.mark.parametrize("n,classes", [(1, 1), (2, 1), (7, 7), (12, 3), (256, 9)])
def test_fused_supcon_kernel_matches_separate_loss_and_grad(n, classes):
    # (7, 7) relabels the batch so that no anchor has a positive
    z, labels = random_batch(np.random.default_rng(n), n=n, d=8, classes=classes)
    if n == classes:
        labels = np.arange(n)
    loss, grad = supcon_loss_and_grad_arrays(z, labels, 0.2)
    ref_loss, ref_grad = _supcon_separate(z, labels, 0.2)
    assert type(loss) is float and loss == ref_loss
    assert np.array_equal(grad, ref_grad)
    # the single-result entry points are views of the fused kernel
    assert supcon_loss_arrays(z, labels, 0.2) == loss
    assert np.array_equal(supcon_grad_arrays(z, labels, 0.2), grad)


def test_embedding_validation():
    with pytest.raises(ValueError):
        Embedding(np.array([1.0, 1.0]), 0, "a")  # not unit norm
    with pytest.raises(ValueError):
        Embedding(np.array([np.nan, 0.0]), 0, "a")
    with pytest.raises(ValueError, match=r"^embedding must be a vector, got shape \(2, 2\)$"):
        Embedding(np.eye(2), 0, "a")


def test_batch_validation():
    v = unit([1, 1])
    with pytest.raises(ValueError):
        ContrastiveBatch((Embedding(v, 0, "a"),), tau=0.0)
    with pytest.raises(ValueError):
        ContrastiveBatch((Embedding(v, 0, "a"), Embedding(v, 0, "a")), tau=0.2)
    with pytest.raises(ValueError, match="^contrastive batch must be non-empty$"):
        supcon_loss(ContrastiveBatch((), tau=0.2))
    # the array entry point runs the same checks
    with pytest.raises(ValueError, match="^contrastive batch must be non-empty$"):
        supcon_loss_and_grad_arrays(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), 0.2)
    for tau in (0.0, -0.2):
        with pytest.raises(ValueError, match=f"^temperature must be positive, got {tau!r}$"):
            supcon_loss_and_grad_arrays(np.array([v, -v]), np.array([0, 0]), tau)
    # a temperature is a finite number: nan gave a nan loss, and a bool was taken as 1
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    worked = (Embedding(e1, 0, "a"), Embedding(e1, 0, "b"), Embedding(e2, 1, "c"))
    for tau in (math.nan, math.inf, True):
        with pytest.raises(ValueError, match=f"^temperature must be positive, got {tau!r}$"):
            ContrastiveBatch(worked, tau=tau)
        with pytest.raises(ValueError, match=f"^temperature must be positive, got {tau!r}$"):
            supcon_loss_and_grad_arrays(np.array([e1, e1, e2]), np.array([0, 0, 1]), tau)
    # embeddings of one batch share one length, refused when the batch is built
    with pytest.raises(ValueError, match="^embeddings must all have one length$"):
        ContrastiveBatch((Embedding(e1, 0, "a"), Embedding(unit([1, 1, 1]), 0, "b")), tau=0.2)
    # the array entry point checks z and the labels: these broadcast-failed, raised numpy's 2-d error,
    # returned nan, or took a bool, string or float label as a class
    z3 = np.array([e1, e1, e2])
    with pytest.raises(ValueError, match=r"^embeddings must be an \(n, d\) array, got shape \(2,\)$"):
        supcon_loss_and_grad_arrays(e1, np.array([0, 0]), 0.2)
    with pytest.raises(ValueError, match="^embeddings must be finite$"):
        supcon_loss_and_grad_arrays(np.array([e1, [math.nan, 0.0], e2]), np.array([0, 0, 1]), 0.2)
    bad_labels = (np.array([0, 0]), np.array([[0, 0, 1]]), np.array([True, True, False]), np.array(["a", "a", "b"]),
                  np.array([0.0, 0.0, 1.0]))
    for labels in bad_labels:
        with pytest.raises(ValueError, match=f"^labels must be 3 integers, got a {labels.dtype} array of shape"):
            supcon_loss_and_grad_arrays(z3, labels, 0.2)
    # a class label is an integer, stored as a Python int
    for label in (True, 1.0, "a", None):
        with pytest.raises(ValueError, match=f"^class_label must be an integer, got {label!r}$"):
            Embedding(e1, label, "a")
    stored = Embedding(e1, np.int64(3), "a").class_label
    assert type(stored) is int and stored == 3
    # a label is refused when built where the batch's int64 label array cannot hold it
    for label in (2**63, 2**70, -2**63 - 1):
        with pytest.raises(ValueError, match="^class_label holds an integer beyond the int64 range$"):
            Embedding(e1, label, "a")
    for label in (2**63 - 1, -2**63):
        assert Embedding(e1, label, "a").class_label == label


def _cross_entropy(logits, label):
    return cross_entropy_batch(np.asarray(logits, dtype=np.float64)[None, :], np.array([label]))[0]


def test_cross_entropy_uniform_logits():
    assert _cross_entropy(np.zeros(4), 2) == pytest.approx(math.log(4), abs=1e-12)


def test_cross_entropy_saturated():
    logits = np.array([0.0, 20.0, 0.0, 0.0])
    assert _cross_entropy(logits, 1) <= 1e-8


def test_cross_entropy_hand_example():
    expected = 2 + math.log(1 + math.exp(-1) + math.exp(-2))
    assert _cross_entropy(np.array([1.0, 2.0, 3.0]), 0) == pytest.approx(expected, abs=1e-12)


def _smooth_l1(residual):
    return smooth_l1_batch(np.array([residual], dtype=np.float64), np.zeros((1, 4)))[0]


def test_smooth_l1_examples():
    assert _smooth_l1([0, 0, 0, 0]) == 0.0
    assert _smooth_l1([0.5, 0, 0, 0]) == pytest.approx(0.125, abs=1e-15)
    assert _smooth_l1([2, 0, 0, 0]) == pytest.approx(1.5, abs=1e-15)


def _cross_entropy_reference(logits, targets):
    """The multi-pass cross-entropy expression the one-pass kernel replaced."""
    shift = logits - logits.max(axis=1, keepdims=True)
    expl = np.exp(shift)
    probs = expl / expl.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    loss = float(-(shift[np.arange(n), targets] - np.log(expl.sum(axis=1))).mean())
    probs[np.arange(n), targets] -= 1.0
    probs /= n
    return loss, probs


def _smooth_l1_fused(pred, targets):
    """The fused, in-place smooth-L1 kernel the two-branch formula replaced, at beta 1."""
    r = pred - targets
    a = np.abs(r)
    per = 0.5 * a
    per *= a
    np.subtract(a, 0.5, out=per, where=~(a < 1.0))  # the linear branch
    loss = float(per.sum(axis=1).mean())
    np.clip(r, -1.0, 1.0, out=r)
    r /= pred.shape[0]
    return loss, r


def _same_bits(got, want):
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    assert got[1].dtype == want[1].dtype and got[1].shape == want[1].shape
    assert got[1].tobytes() == want[1].tobytes()


def _cross_entropy_cases():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(40, 11)) * 4
    tied = np.round(rng.normal(size=(40, 11)))  # integer values: many rows tie at their max
    tied[:, 3] = tied.max(axis=1)
    huge = rng.normal(size=(6, 5))
    huge[0] = 1e300
    huge[1] = -1e300
    huge[2, :2] = (1e300, -1e300)
    huge[3, 4] = -1e300
    bad = rng.normal(size=(4, 5))
    bad[0, 1], bad[1, 2], bad[2, 0], bad[3] = np.inf, -np.inf, np.nan, np.inf
    return [(logits, rng.integers(0, 11, 40)), (tied, rng.integers(0, 11, 40)),
            (logits[:1], np.array([4])), (huge, rng.integers(0, 5, 6)), (bad, np.array([1, 2, 3, 0]))]


@pytest.mark.parametrize("case", range(5), ids=["random", "tied-max", "one-row", "1e300", "inf-nan"])
def test_cross_entropy_batch_matches_the_multi_pass_formula_bit_for_bit(case):
    logits, targets = _cross_entropy_cases()[case]
    kept = logits.copy(), targets.copy()
    with np.errstate(all="ignore"):
        got = cross_entropy_batch(logits, targets)
        want = _cross_entropy_reference(logits.copy(), targets)
    _same_bits(got, want)
    assert logits.tobytes() == kept[0].tobytes() and np.array_equal(targets, kept[1])


_ROW_COUNTS = sorted({*range(1, 65), 127, 128, 129, 255, 256, 257, 1000, 1023, 1024, 1025, 4096, 4097, 9999, 20000})


def test_batch_kernels_are_the_mean_form_bit_for_bit_and_total_on_an_empty_batch():
    # the kernels divide their sums by max(n, 1): numpy's mean for every row count, zero on an empty batch
    rng = np.random.default_rng(6)
    for n in _ROW_COUNTS:
        logits, targets = rng.normal(size=(n, 7)) * 4, rng.integers(0, 7, n)
        _same_bits(cross_entropy_batch(logits, targets), _cross_entropy_reference(logits.copy(), targets))
        pred, residual_targets = rng.normal(size=(n, 4)) * 2, rng.normal(size=(n, 4))
        _same_bits(smooth_l1_batch(pred, residual_targets), _smooth_l1_fused(pred, residual_targets))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's mean of an empty batch warned "Mean of empty slice"
        empty = [cross_entropy_batch(np.zeros((0, 7)), np.zeros(0, dtype=np.int64)),
                 smooth_l1_batch(np.zeros((0, 4)), np.zeros((0, 4)))]
    # bytes, not ==, so a -0.0 loss fails too
    assert [(type(loss), np.float64(loss).tobytes(), grad.shape, grad.dtype) for loss, grad in empty] == [
        (float, bytes(8), (0, 7), np.float64), (float, bytes(8), (0, 4), np.float64)]


def test_smooth_l1_batch_matches_the_fused_kernel_bit_for_bit():
    # so the formula moved no loss, gradient or report byte
    rng = np.random.default_rng(4)
    pred = rng.normal(size=(200, 4)) * 2
    targets = rng.normal(size=(200, 4))
    pred[0] = (1e300, -1e300, 1e-300, 0.0)
    pred[1] = (np.inf, -np.inf, np.nan, 1.0)
    targets[2] = (np.nan, 0.0, np.inf, -1.0)
    targets[3] = pred[3] + (1.0, -1.0, 0.5, 0.0)  # residuals on and near the branch point
    pred[4], targets[4] = np.nextafter(1.0, (0.0, 2.0, 0.0, 2.0)) * (1, 1, -1, -1), 0.0  # one ulp either side
    # the finite rows, whose loss is not NaN, all rows, and each row alone: a batch mean
    # can round a one-ulp change of a quadratic-branch value away
    rows = [(pred[i:i + 1], targets[i:i + 1]) for i in range(len(pred))]
    for p, t in [(pred[4:], targets[4:]), (pred, targets)] + rows:
        kept = p.copy(), t.copy()
        with np.errstate(all="ignore"):
            got = smooth_l1_batch(p, t)
            want = _smooth_l1_fused(p, t)
        _same_bits(got, want)
        assert p.tobytes() == kept[0].tobytes() and t.tobytes() == kept[1].tobytes()


def test_assemble_hand_example():
    b = assemble_loss(base_total=1.0, con=0.2, cls=0.3, reg=0.5, lam=0.1)
    assert b.re_roi_total == pytest.approx(1.0, abs=1e-15)
    assert b.grand_total == pytest.approx(1.1, abs=1e-15)


def test_assemble_lambda_zero_and_zero_branch():
    rng = np.random.default_rng(8)
    for _ in range(20):
        base, con, cls_, reg = rng.normal(size=4)
        b = assemble_loss(base, con, cls_, reg, 0.0)
        assert b.grand_total == base
    for lam in (0.0, 0.1, 2.0):
        b = assemble_loss(0.7, 0.0, 0.0, 0.0, lam)
        assert b.grand_total == 0.7


def test_breakdown_identities_enforced():
    with pytest.raises(ValueError):
        LossBreakdown(con=0.1, cls=0.1, reg=0.1, lam=-0.1, base_total=1.0)
    with pytest.raises(ValueError, match="^LossBreakdown.cls must be finite$"):
        LossBreakdown(con=0.1, cls=math.nan, reg=0.1, lam=0.1, base_total=1.0)
    # finite terms whose weighted sum overflows: the derived total is checked too
    with pytest.raises(ValueError, match="^LossBreakdown.grand_total must be finite$"):
        LossBreakdown(con=0.1, cls=0.1, reg=1e308, lam=1e10, base_total=1.0)
    # a term a float64 cannot hold as a finite value, or that is no real number
    for con in (10**400, True, "x"):
        with pytest.raises(ValueError, match="^LossBreakdown.con must be finite$"):
            LossBreakdown(con=con, cls=0.1, reg=0.1, lam=0.1, base_total=1.0)

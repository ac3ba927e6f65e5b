"""Acceptance gate: every core guarantee at its stated tolerance.

Each test prints one PASS line with the measured numbers (run with -s to
see them on success).
"""

import json
import math
import time

import numpy as np
import pytest

from helpers import (
    fd_gradient,
    grid_optimal_halfwidth,
    mmd_rbf_double_loop,
    two_pass_stats,
)
from propcal.cli import dispatch, parse_log, parse_record, serialize_record
from propcal.diagnostics import mmd_linear, mmd_rbf
from propcal.geometry import BBox, apply_offset, encode_offset, encode_offsets_array
from propcal.losses import (
    ContrastiveBatch,
    Embedding,
    assemble_loss,
    supcon_grad_arrays,
    supcon_loss,
    supcon_loss_arrays,
)
from propcal.simulator import ExperimentConfig, run_experiment
from propcal.stats import DiagonalGaussian4, OffsetAccumulator, fit_optimal_uniform, model_to_json


def test_offset_round_trip():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    n = 10_000
    for _ in range(n):
        gt = BBox(rng.uniform(-500, 500), rng.uniform(-500, 500),
                  rng.uniform(0.5, 300), rng.uniform(0.5, 300))
        prop = BBox(gt.cx + rng.uniform(-1, 1) * gt.w, gt.cy + rng.uniform(-1, 1) * gt.h,
                    gt.w * rng.uniform(0.2, 4.0), gt.h * rng.uniform(0.2, 4.0))
        back = apply_offset(gt, encode_offset(prop, gt))
        for u, v in zip(back.as_array(), prop.as_array()):
            assert abs(u - v) <= 1e-9 * max(1.0, abs(v))
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE PASS: offset round trip ({n} pairs, rel 1e-9, {elapsed:.2f}s)")


def test_streaming_statistics_fidelity():
    t0 = time.monotonic()
    rng = np.random.default_rng(102)
    mu = np.array([0.05, -0.04, 0.08, 0.06])
    sigma = np.array([0.10, 0.12, 0.09, 0.11])
    rows = rng.normal(mu, sigma, size=(100_000, 4))
    acc = OffsetAccumulator()
    acc.add_many(rows)
    g = acc.finalize()
    mean, var = two_pass_stats(rows)
    np.testing.assert_allclose(g.mu, mean, rtol=1e-9, atol=1e-15)
    np.testing.assert_allclose(g.var, var, rtol=1e-9)
    assert np.all(np.abs(g.mu - mu) <= 0.02 * sigma)
    assert np.all(np.abs(np.sqrt(g.var) - sigma) <= 0.02 * sigma)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"ACCEPTANCE PASS: streaming statistics (1e5 offsets, two-pass 1e-9, "
          f"generator 2%, {elapsed:.2f}s)")


def test_sampling_fidelity(tmp_path):
    # through `propcal sample`: the sampler draws the boxes, the writer gives each its gt and class
    t0 = time.monotonic()
    model = DiagonalGaussian4([0.05, -0.04, 0.08, 0.06], [0.01, 0.01, 0.0144, 0.0144])
    rng = np.random.default_rng(103)
    gts, labels = [], []
    n_gts = 200
    for _ in range(n_gts):
        gts.append([rng.uniform(50, 150), rng.uniform(50, 150),
                    rng.uniform(10, 40), rng.uniform(10, 40)])
        labels.append(int(rng.integers(0, 9)))
    gt_file = tmp_path / "gts.jsonl"
    gt_file.write_text("".join(
        json.dumps({"image_id": "acc", "gt": gt, "gt_class": label}) + "\n"
        for gt, label in zip(gts, labels)
    ))
    model_file = tmp_path / "model.json"
    model_file.write_text(model_to_json(model))
    out = tmp_path / "sampled.jsonl"
    assert dispatch(["sample", str(gt_file), "--model", str(model_file), "-J", "50",
                     "--seed", "103", "-o", str(out)]) == 0
    cols, _ = parse_log(out.read_text().splitlines())
    np.testing.assert_array_equal(cols.gt, np.repeat(gts, 50, axis=0))
    label_ok = int((cols.gt_class == np.repeat(labels, 50)).sum())
    rows = encode_offsets_array(cols.proposal, cols.gt)
    assert rows.shape == (10_000, 4)
    assert label_ok == 10_000  # label fidelity 100%
    sigma = np.sqrt(model.var)
    assert np.all(np.abs(rows.mean(axis=0) - model.mu) <= 0.05 * sigma)
    assert np.all(np.abs(rows.std(axis=0) - sigma) <= 0.05 * sigma)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"ACCEPTANCE PASS: sampling fidelity (1e4 proposals, moments 5%, "
          f"labels 100%, {elapsed:.2f}s)")


def test_optimal_uniform_fit():
    t0 = time.monotonic()
    sigma = 0.1
    g = fit_optimal_uniform(DiagonalGaussian4(np.zeros(4), np.full(4, sigma**2)))
    half = float((g.hi - g.lo)[0] / 2)
    oracle = grid_optimal_halfwidth(0.0, sigma)
    assert abs(half - oracle) <= 1e-3 * sigma
    g2 = fit_optimal_uniform(DiagonalGaussian4(np.zeros(4), np.full(4, (2 * sigma) ** 2)))
    half2 = float((g2.hi - g2.lo)[0] / 2)
    assert abs(half2 - 2 * half) <= 1e-3 * sigma
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"ACCEPTANCE PASS: optimal uniform fit (|a*-grid| = {abs(half - oracle):.2e} "
          f"<= 1e-4, sigma-scaling ok, {elapsed:.2f}s)")


def test_supcon_correctness():
    t0 = time.monotonic()
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    batch = ContrastiveBatch(
        (Embedding(e1, 0, "a"), Embedding(e1, 0, "b"), Embedding(e2, 1, "c")), tau=1.0
    )
    expected = 2.0 * math.log(1.0 + math.exp(-1.0)) / 3.0  # ~0.20884
    assert supcon_loss(batch) == pytest.approx(expected, abs=1e-6)

    two = ContrastiveBatch(
        (Embedding(e1, 0, "a"), Embedding(np.array([0.6, 0.8]), 0, "b")), tau=0.31
    )
    assert supcon_loss(two) == 0.0

    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 16))
        d = int(rng.integers(3, 10))
        z = rng.normal(size=(n, d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        labels = rng.integers(0, 4, size=n)
        tau = float(rng.uniform(0.1, 1.0))
        analytic = supcon_grad_arrays(z, labels, tau)
        fd = fd_gradient(lambda zz: supcon_loss_arrays(zz, labels, tau), z)
        rel = np.linalg.norm(analytic - fd) / max(float(np.linalg.norm(fd)), 1e-12)
        worst = max(worst, rel)
    assert worst <= 1e-5
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"ACCEPTANCE PASS: supcon (worked value 1e-6, 100 gradient checks "
          f"worst {worst:.2e} <= 1e-5, {elapsed:.2f}s)")


def test_loss_assembly():
    rng = np.random.default_rng(106)
    for _ in range(100):
        base, con, cls_, reg = (float(v) for v in rng.normal(size=4))
        lam = float(rng.uniform(0, 2))
        b = assemble_loss(base, con, cls_, reg, lam)
        assert b.re_roi_total == (cls_ + con) + reg
        assert b.grand_total == base + lam * b.re_roi_total
        z = assemble_loss(base, con, cls_, reg, 0.0)
        assert z.grand_total == base
    print("ACCEPTANCE PASS: loss assembly (identities exact, lambda=0 reduces "
          "to the base loss)")


def test_mmd():
    t0 = time.monotonic()
    a = np.array([[0.0, 0.0], [2.0, 0.0]])
    b = np.array([[1.0, 1.0]])
    assert mmd_linear(a, b) == 1.0
    assert mmd_linear(a, a.copy()) == 0.0

    rng = np.random.default_rng(107)
    x = rng.normal(0.0, 1.0, size=(90, 4))
    y = rng.normal(0.4, 1.2, size=(110, 4))
    assert mmd_rbf(x, y) == pytest.approx(mmd_rbf_double_loop(x, y), abs=1e-9)

    mu = np.array([0.02, -0.02, 0.06, 0.04])
    sigma = np.array([0.08, 0.08, 0.10, 0.10])
    base = rng.normal(mu, sigma, size=(10_000, 4))
    direction = np.full(4, 0.5)
    values = [
        mmd_linear(rng.normal(mu + d * direction, sigma, size=(10_000, 4)), base)
        for d in (0.0, 0.05, 0.1, 0.2)
    ]
    assert values == sorted(values) and values[-1] > values[0]
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"ACCEPTANCE PASS: mmd (hand examples exact, rbf vs double loop 1e-9, "
          f"monotone in shift, {elapsed:.2f}s)")


def test_simulator_directional_claims():
    t0 = time.monotonic()
    config = ExperimentConfig()
    report = run_experiment(config)
    elapsed = time.monotonic() - t0
    n = report.n_seeds
    assert n == 10
    assert report.iou_wins >= 8, f"IoU wins {report.iou_wins}/10"
    assert report.acc_wins >= 8, f"accuracy wins {report.acc_wins}/10"
    assert report.mmd_wins >= 8, f"MMD wins {report.mmd_wins}/10"
    assert elapsed < 300.0
    print(f"ACCEPTANCE PASS: simulator (iou {report.iou_wins}/10, "
          f"acc {report.acc_wins}/10, mmd {report.mmd_wins}/10, "
          f"iou {report.mean_iou[0]:.4f}->{report.mean_iou[1]:.4f}, "
          f"acc {report.mean_novel_acc[0]:.3f}->{report.mean_novel_acc[1]:.3f}, "
          f"mmd {report.mean_mmd[0]:.4f}->{report.mean_mmd[1]:.4f}, {elapsed:.0f}s)")


def test_cli_contract(tmp_path, capsys):
    # golden subcommand flows
    box = [50.0, 60.0, 20.0, 30.0]
    log = tmp_path / "zero.jsonl"
    log.write_text("\n".join(
        json.dumps({"image_id": f"im{i}", "gt": box, "gt_class": 1,
                    "proposal": box, "source": "rpn"})
        for i in range(5)
    ) + "\n")
    model = tmp_path / "model.json"
    assert dispatch(["fit-stats", str(log), "-o", str(model)]) == 0
    doc = json.loads(model.read_text())
    assert doc["kind"] == "gaussian"
    assert doc["mu"] == [0.0] * 4 and doc["var"] == [0.0] * 4

    assert dispatch(["mmd", str(log), str(log), "--kernel", "linear"]) == 0
    assert capsys.readouterr().out.strip() == "0.0"

    assert dispatch(["supcon-check", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert float(out.split(":")[1]) <= 1e-5

    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"image_id": "x", "gt": [1, 1, 0, 5], "gt_class": 0,
                               "proposal": [1, 1, 2, 2], "source": "rpn"}) + "\n")
    assert dispatch(["fit-stats", str(bad)]) == 1
    assert "line 1" in capsys.readouterr().err
    assert dispatch(["no-such-subcommand"]) == 2
    capsys.readouterr()

    # byte-identical re-serialization over a 1000-line fuzz corpus
    rng = np.random.default_rng(108)
    for _ in range(1000):
        rec_line = serialize_record(parse_record(json.dumps({
            "image_id": f"im{rng.integers(0, 99)}",
            "gt": [float(rng.uniform(-100, 100)), float(rng.uniform(-100, 100)),
                   float(rng.uniform(0.01, 50)), float(rng.uniform(0.01, 50))],
            "gt_class": int(rng.integers(0, 20)),
            "proposal": [float(rng.uniform(-100, 100)), float(rng.uniform(-100, 100)),
                         float(rng.uniform(0.01, 50)), float(rng.uniform(0.01, 50))],
            "source": ("rpn", "sampled")[int(rng.integers(0, 2))],
        })))
        assert serialize_record(parse_record(rec_line)) == rec_line
    print("ACCEPTANCE PASS: cli contract (golden flows, line-numbered errors, "
          "1000-line fuzz round trip)")

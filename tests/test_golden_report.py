"""Byte-identity pins for simulator reports and for ``propcal sample``, ``diagnose`` and ``mmd`` output.

The report hashes were re-recorded when the offset statistics moved from
a per-row Welford loop to batch moments and the RBF MMD to blocked kernel
sums (both move report bits at the last-digit level), the sample hashes
before the writer formatted rows from arrays; a refactor that keeps
behaviour must keep them. The third report pin covers a detector draw
that exhausts its re-draw budget (the code before the budget-miss change
raised RuntimeError on that config). The fine-tuned head pin hashes the
calibrated arm's four head parameter arrays on the sampled-in-main config,
one step closer to the descent loop than the reports. The ``diagnose`` and
``mmd`` pins read the two ``sample`` logs, whose escaped id takes the log
reader's non-canonical path. A deliberate change
to the simulator's numerics or to the sampling streams re-pins them, with
a CHANGES.md entry saying why the bytes moved.
"""

import dataclasses
import hashlib
import json

import pytest

from propcal.cli import dispatch
from propcal.simulator import (ExperimentConfig, base_train, finetune, generate_dataset, init_head, rpn_proposals,
                               run_experiment, sampled_proposals)

_SMALL = ExperimentConfig(
    c_base=3,
    c_novel=2,
    k_shot=2,
    base_per_class=40,
    test_per_class=6,
    epochs_base=30,
    epochs_finetune=40,
    seeds=(0,),
)

# a wide instance-bias spread: one novel test object of seed 3 exhausts its draws
_BUDGET_MISS = dataclasses.replace(_SMALL, novel_bias_spread=0.5, seeds=(3,))

# the second config drives the sampled-in-main branch, the third the budget-miss
# path of the detector
GOLDEN = [
    (
        _SMALL,
        "51b7370b468727ba354a42031d2677b15e2b9d8d1c017d6a34e26ac7956f0bbd",
        "1724239c375bbd644ff7cea23dd7d9b0244fbcdbbb69d550a6168bcd21479686",
    ),
    (
        dataclasses.replace(_SMALL, sampled_in_main=True, seeds=(1,)),
        "d2e19154bb1757b68d5ac1d15e7d4865f91ba23f69f21ec106fcad9d4c351518",
        "37263f7be861c9db8e8f85fd837a054f7bebdd92b016689b70c68f9bff63375d",
    ),
    (
        _BUDGET_MISS,
        "108cae6b06aa572a25befe688d3b1339e7d1a17c7dfc6c274fcc18b9504cd88e",
        "d0b768f7bf63ee2f3735b75a84187c85a6773c84a165dfd9d0226a3660c90283",
    ),
]


# named ids, so a re-pin keeps the test names
@pytest.mark.parametrize("config,per_seed_sha,summary_sha", GOLDEN, ids=["small", "sampled-in-main", "budget-miss"])
def test_golden_report_bytes(tmp_path, config, per_seed_sha, summary_sha):
    outdir = run_experiment(config, out_root=tmp_path).output_dir
    digest = {
        name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
        for name in ("per_seed.csv", "summary.csv")
    }
    assert digest == {"per_seed.csv": per_seed_sha, "summary.csv": summary_sha}


def test_golden_small_histogram_and_precision_bytes(tmp_path):
    outdir = run_experiment(_SMALL, out_root=tmp_path).output_dir
    digest = {arm: [hashlib.sha256((outdir / name).read_bytes()).hexdigest()
                    for name in (f"iou_hist_{arm}.csv", f"iou_hist_{arm}.svg", f"precision_by_iou_{arm}.csv")]
              for arm in ("baseline", "pdc")}
    assert digest == {
        "baseline": ["3cd96a4f85092638843e16edc8df1049ae2a7c9c4ab3d074b7448cdca95a8284",
                     "cd2a92a3319b67526e1c016e0e49301728dc45d8c32e16c7839902068fb97c7a",
                     "957ac5072ed56d2fb08b191c6c1d356ac889bd21cd35559199c96f5b8fe7ff15"],
        "pdc": ["cafd3cd0e2c9d33d3c1776ac4842cd554e76191c25d0ccd3c11872fb082c0c16",
                "47d8a43fe3ba99e8182ffa1fdec1d8e579b06bfe025f61c0dd7d94327b9c68e1",
                "957ac5072ed56d2fb08b191c6c1d356ac889bd21cd35559199c96f5b8fe7ff15"],
    }


def test_golden_default_config_seed_5_per_seed_bytes(tmp_path):
    # the default config at one seed, as the benchmark's experiment workload runs it
    outdir = run_experiment(ExperimentConfig(seeds=(5,)), out_root=tmp_path).output_dir
    digest = hashlib.sha256((outdir / "per_seed.csv").read_bytes()).hexdigest()
    assert digest == "e51435d7992c7207fbb59b3080559ce637775ad68dfc1a7822bbc02d515ae2b4"


def test_golden_finetuned_pdc_head_bytes():
    config, seed = GOLDEN[1][0], 1
    ds = generate_dataset(config, seed)
    base = rpn_proposals(ds, ds.base, config, seed, "base-rpn")
    head, stats = base_train(init_head(config, seed), base, config.epochs_base, config)
    ft = rpn_proposals(ds, ds.finetune, config, seed, "ft-rpn")
    sampled = sampled_proposals(ds, stats, config, seed)
    tuned = finetune(head, ft, sampled, True, config, seed)
    params = (tuned.w_cls, tuned.b_cls, tuned.w_reg, tuned.b_reg)
    digest = hashlib.sha256(b"".join(p.tobytes() for p in params)).hexdigest()
    assert digest == "246771300bcc98792fba27a2aa750f1124833959116ab1db6741effc5213d14f"


def test_budget_miss_config_takes_the_miss_path():
    ds = generate_dataset(_BUDGET_MISS, 3)
    misses = [rpn_proposals(ds, split, _BUDGET_MISS, 3, purpose).budget_misses
              for split, purpose in ((ds.finetune, "ft-rpn"), (ds.test, "eval-rpn"))]
    assert misses == [0, 1]


# a repeated image id (gt_index 1), integer coordinates, gts cut by the left
# and top edges of a 128x128 image, an id JSON must escape and the largest class
SAMPLE_GTS = [
    {"image_id": "im0", "gt": [60.0, 70.0, 24.0, 18.0], "gt_class": 2},
    {"image_id": "im0", "gt": [5, 120, 30, 20], "gt_class": 0},
    {"image_id": "im1", "gt": [120.5, 4.25, 40.0, 16.0], "gt_class": 7},
    {"image_id": "\u00e9 \"q\" \\ \t", "gt": [64.0, 64.0, 1e-3, 250.0], "gt_class": 2**63 - 1},
]
SAMPLE_MODEL = {"kind": "gaussian", "mu": [0.02, -0.01, 0.04, 0.03],
                "var": [0.0144, 0.0144, 0.01, 0.01]}


def _sampled_log(tmp_path, image_size):
    """The ``propcal sample`` log of ``SAMPLE_GTS``; a name per image size, so both fit in one directory."""
    gts = tmp_path / "gts.jsonl"
    gts.write_text("\n".join(json.dumps(g) for g in SAMPLE_GTS) + "\n\n")
    model = tmp_path / "model.json"
    model.write_text(json.dumps(SAMPLE_MODEL))
    out = tmp_path / f"sampled{len(image_size)}.jsonl"
    argv = ["sample", str(gts), "--model", str(model), "-J", "6", "--seed", "11", *image_size]
    assert dispatch(argv + ["-o", str(out)]) == 0
    return out


@pytest.mark.parametrize("image_size,sha", [
    ([], "1dfc0e2cbb90e533e113ba6283c2061322682ff4672b57e9c7a4148c1ff77a45"),
    (["--image-size", "128", "128"], "08a39e337d1800843f5b3027f21ac2775222fd9cda524c6595b5edcb8b64e9c4"),
])
def test_golden_sample_bytes(tmp_path, image_size, sha):
    out = _sampled_log(tmp_path, image_size)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha


# one sha256 over the eleven files' names and sha256s, in name order
@pytest.mark.parametrize("image_size,sha", [
    ([], "01571dd4ca9660059f86438fdfc5279ff7ceb885ec83380a8ae6164cb9cae7f9"),
    (["--image-size", "128", "128"], "e739cb6e8b8ea439502993a341bfe04400da7d7b8a8407c1313a4f661edcff00"),
])
def test_golden_diagnose_bytes(tmp_path, image_size, sha):
    figures = tmp_path / "figures"
    assert dispatch(["diagnose", str(_sampled_log(tmp_path, image_size)), "--figures", str(figures)]) == 0
    files = sorted(figures.iterdir())
    assert len(files) == 11
    listing = "".join(f"{p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}\n" for p in files)
    assert hashlib.sha256(listing.encode()).hexdigest() == sha


@pytest.mark.parametrize("kernel,printed", [("linear", "0.26366661962689686\n"), ("rbf", "0.4783228350731609\n")])
def test_golden_mmd_output(tmp_path, capsys, kernel, printed):
    logs = [str(_sampled_log(tmp_path, size)) for size in ([], ["--image-size", "128", "128"])]
    capsys.readouterr()
    assert dispatch(["mmd", *logs, "--kernel", kernel]) == 0
    assert capsys.readouterr().out == printed

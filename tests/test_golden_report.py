"""Byte-identity pins for simulator reports and for ``propcal sample`` output.

The report hashes were recorded before the loss kernels and the
training-step helpers were consolidated, the sample hashes before the
writer formatted rows from arrays; a refactor that keeps behaviour must
keep them. The third report pin covers a detector draw that exhausts its
re-draw budget; it was recorded when such an object became a miss (the
code before raised RuntimeError on that config). A deliberate change to
the simulator's numerics or to the sampling streams re-pins them, with a
CHANGES.md entry saying why the bytes moved.
"""

import dataclasses
import hashlib
import json

import pytest

from propcal.cli import dispatch
from propcal.simulator import ExperimentConfig, generate_dataset, rpn_proposals, run_experiment

_SMALL = ExperimentConfig(
    c_base=3,
    c_novel=2,
    k_shot=2,
    base_per_class=40,
    test_per_class=6,
    epochs_base=30,
    epochs_finetune=40,
    contrastive_cap=96,
    seeds=(0,),
)

# a wide instance-bias spread: one novel test object of seed 3 exhausts its draws
_BUDGET_MISS = dataclasses.replace(_SMALL, novel_bias_spread=0.5, seeds=(3,))

# the second config drives the sampled-in-main and "both" contrastive branches,
# the third the budget-miss path of the detector
GOLDEN = [
    (
        _SMALL,
        "6c4b77ed1f306d2f4cf12b1c428443e9b9104de69be279185582b951621486be",
        "5f66f91c8d589dd7aa4340e4a26a6241ac94f900e338ac72683784ea80db5ab1",
    ),
    (
        dataclasses.replace(_SMALL, sampled_in_main=True, contrastive_set="both", seeds=(1,)),
        "a9b5f43799dbceb8a86b0901c3bbb889b580d2a6feba69de35e617a079e38c1f",
        "74863e45195b18d295d3f407c11ec096c7277b91531636a9f5076eff341daff9",
    ),
    (
        _BUDGET_MISS,
        "6adedfc4380f8add4490f410e16f3ece5254aa852c813a99495da2b39ab4cd38",
        "e821817b2ce1f700487d1e344ec7be2dffbfa583ccda58ac23a948b538f82cb8",
    ),
]


@pytest.mark.parametrize("config,per_seed_sha,summary_sha", GOLDEN)
def test_golden_report_bytes(tmp_path, config, per_seed_sha, summary_sha):
    outdir = run_experiment(config, out_root=tmp_path).output_dir
    digest = {
        name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
        for name in ("per_seed.csv", "summary.csv")
    }
    assert digest == {"per_seed.csv": per_seed_sha, "summary.csv": summary_sha}


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


@pytest.mark.parametrize("image_size,sha", [
    ([], "1dfc0e2cbb90e533e113ba6283c2061322682ff4672b57e9c7a4148c1ff77a45"),
    (["--image-size", "128", "128"], "08a39e337d1800843f5b3027f21ac2775222fd9cda524c6595b5edcb8b64e9c4"),
])
def test_golden_sample_bytes(tmp_path, image_size, sha):
    gts = tmp_path / "gts.jsonl"
    gts.write_text("\n".join(json.dumps(g) for g in SAMPLE_GTS) + "\n\n")
    model = tmp_path / "model.json"
    model.write_text(json.dumps(SAMPLE_MODEL))
    out = tmp_path / "sampled.jsonl"
    argv = ["sample", str(gts), "--model", str(model), "-J", "6", "--seed", "11", *image_size]
    assert dispatch(argv + ["-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha

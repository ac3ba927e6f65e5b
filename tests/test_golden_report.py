"""Byte-identity pins for simulator reports.

The hashes were recorded before the loss kernels and the training-step
helpers were consolidated; a refactor that keeps behaviour must keep them.
A deliberate change to the simulator's numerics re-pins them, with a
CHANGES.md entry saying why the bytes moved.
"""

import dataclasses
import hashlib

import pytest

from propcal.simulator import ExperimentConfig, run_experiment

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

# the second config drives the sampled-in-main and "both" contrastive branches
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
]


@pytest.mark.parametrize("config,per_seed_sha,summary_sha", GOLDEN)
def test_golden_report_bytes(tmp_path, config, per_seed_sha, summary_sha):
    outdir = run_experiment(config, out_root=tmp_path).output_dir
    digest = {
        name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
        for name in ("per_seed.csv", "summary.csv")
    }
    assert digest == {"per_seed.csv": per_seed_sha, "summary.csv": summary_sha}

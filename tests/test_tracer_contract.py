"""The benchmark's tracer (perfbench/tracing.py) patches propcal functions by
attribute name and reads some of their arguments by name. Removing or
renaming one of those names or parameters breaks traced benchmark runs;
these tests make it break tier-1 too.
"""

import importlib.util
import json
from pathlib import Path

from propcal import cli, diagnostics, geometry, sampling, simulator
from propcal.simulator import ExperimentConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_bound_name():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)  # AttributeError if a patched name is gone
        assert simulator.iou_scalar is not geometry.iou
    finally:
        tracer.restore()
    assert simulator.iou_scalar is geometry.iou
    assert diagnostics.iou is geometry.iou
    assert cli.encode_offset is geometry.encode_offset
    # the sampler's entry points are patched where simulator and cli call them
    assert simulator.build_calibrated_set is sampling.build_calibrated_set
    assert simulator.sample_boxes_for_gt is sampling.sample_boxes_for_gt
    assert cli.sample_proposals_for_gt is sampling.sample_proposals_for_gt


def test_traced_run_seed_builds_each_proposal_set_once():
    config = ExperimentConfig(
        c_base=2, c_novel=2, k_shot=2, base_per_class=20, test_per_class=6,
        epochs_base=5, epochs_finetune=5, j_per_instance=10, seeds=(0,),
    )
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        simulator.run_seed(config, 0)  # the hooks read seed, pdc_enabled and the sets' size
    finally:
        tracer.restore()
    totals = tracer.totals()
    assert "simulator.finetune_baseline.s" in totals
    assert "simulator.finetune_pdc.s" in totals
    assert totals["simulator.rpn_proposals.calls"] == 3  # base-rpn, ft-rpn, eval-rpn
    assert totals["simulator.sampled_proposals.calls"] == 1
    assert totals["simulator.feature_rows"] > 0


def test_traced_lenient_fit_stats_counts_parsed_records_and_errors(tmp_path):
    line = json.dumps({"image_id": "im0", "gt": [50.0, 60.0, 20.0, 30.0], "gt_class": 1,
                       "proposal": [52.0, 58.0, 22.0, 28.0], "source": "rpn"})
    log = tmp_path / "log.jsonl"
    log.write_text("\n".join([line, line, "{broken", "", line.replace("52.0", "52")]) + "\n")
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        rc = cli.dispatch(["fit-stats", str(log), "--lenient", "-o", str(tmp_path / "m.json")])
    finally:
        tracer.restore()
    assert rc == 0
    totals = tracer.totals()
    # the hook reads len() of parse_log's columns and of its error list
    assert totals["cli.parse_log.calls"] == 1
    assert totals["cli.parse_log.records"] == 3
    assert totals["cli.parse_log.errors"] == 1


def test_traced_sample_counts_one_draw_per_gt(tmp_path):
    j = 7
    gts = tmp_path / "gts.jsonl"
    gts.write_text("".join(
        json.dumps({"image_id": f"im{i // 2}", "gt": [60.0, 70.0, 24.0, 18.0], "gt_class": i}) + "\n"
        for i in range(3)
    ))
    model = tmp_path / "m.json"
    model.write_text('{"kind": "gaussian", "mu": [0, 0, 0, 0], "var": [0.01, 0.01, 0.01, 0.01]}')
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        rc = cli.dispatch(["sample", str(gts), "--model", str(model), "-J", str(j),
                           "--image-size", "128", "128", "-o", str(tmp_path / "out.jsonl")])
    finally:
        tracer.restore()
    assert rc == 0
    totals = tracer.totals()
    # one array call per ground truth, and the hook reads sample_boxes_for_gt's n
    assert totals["sampling.sample_proposals_for_gt.calls"] == 3
    assert totals["sampling.sample_boxes_for_gt.calls"] == 3
    assert totals["sampling.rows_requested"] == 3 * j
    assert totals["sampling.rows_drawn"] >= 3 * j

"""Tests of the benchmark itself: generators, tracer, and the printed metrics.

Run with ``python3 -m pytest -q perfbench/tests`` from the repository root.
The workload tests start real benchmark runs and take a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_SUFFIXES = (".calls", ".rows", ".records", ".errors", "feature_rows", "anchors", "pooled_n", "rows_drawn")


def bench(workload: str, seed: int, seconds: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# generators

def test_generators_repeat_per_seed_and_differ_across_seeds():
    assert gen.proposal_log(3, 200, "a").lines == gen.proposal_log(3, 200, "a").lines
    assert gen.proposal_log(3, 200, "a").lines != gen.proposal_log(4, 200, "a").lines
    assert gen.proposal_log(3, 200, "a").lines != gen.proposal_log(3, 200, "b").lines
    assert gen.ground_truths(3, 100) == gen.ground_truths(3, 100)
    assert gen.ground_truths(3, 100) != gen.ground_truths(4, 100)
    assert gen.experiment_seeds(3, 4) == gen.experiment_seeds(3, 4)
    assert gen.experiment_seeds(3, 4) != gen.experiment_seeds(4, 4)
    assert gen.experiment_seeds(3, 10)[:4] == gen.experiment_seeds(3, 4)


def test_log_lines_are_canonical_and_offsets_match_encode_offset():
    from propcal.cli import parse_record, serialize_record
    from propcal.geometry import encode_offset

    log = gen.proposal_log(5, 300, "a", shift=gen.LOG_B_SHIFT)
    offsets = log.offsets()
    for i, line in enumerate(log.lines):
        rec = parse_record(line, i + 1)
        assert serialize_record(rec) == line
        assert np.array_equal(encode_offset(rec.proposal, rec.gt).as_array(), offsets[i])


def test_some_ground_truths_straddle_the_image_border():
    from propcal.cli import _parse_box

    boxes = [_parse_box(json.loads(line)["gt"], "gt").corners() for line in gen.ground_truths(9, 2000)]
    outside = [b for b in boxes if b[0] < 0 or b[1] < 0 or b[2] > gen.IMAGE_W or b[3] > gen.IMAGE_H]
    assert 0.1 < len(outside) / len(boxes) < 0.2


# tracer

def test_tracer_spans_self_time_counts_and_restore():
    mod = types.SimpleNamespace()
    mod.inner = lambda n: n
    mod.outer = lambda n: mod.inner(n) + mod.inner(n)
    inner, outer = mod.inner, mod.outer
    t = tracing.Tracer(op="op1")
    t.span(mod, "inner", "m.inner", hook=lambda tr, a, r: tr.counts.update({"m.rows": a["n"]}))
    t.span(mod, "outer", "m.outer")
    assert mod.outer(3) == 6
    t.restore()
    assert (mod.inner, mod.outer) == (inner, outer)
    totals = t.totals()
    assert totals["m.inner.calls"] == 2 and totals["m.outer.calls"] == 1 and totals["m.rows"] == 6
    spans = t.finished_spans()
    assert [s[3] for s in spans] == ["m.outer", "m.inner", "m.inner"]
    assert [s[1] for s in spans] == [-1, 0, 0] and {s[2] for s in spans} == {"op1"}
    outer_span = spans[0]
    child_s = sum(s[5] - s[4] for s in spans[1:])
    assert outer_span[6] == pytest.approx(outer_span[5] - outer_span[4] - child_s)


# output checks

def test_log_read_checks_reject_wrong_or_missing_outputs(tmp_path):
    mu, var = np.array([0.03, -0.02, 0.06, 0.04]), np.array([0.01, 0.01, 0.012, 0.012])
    half = run.UNIFORM_KAPPA * np.sqrt(var)
    model, uniform = tmp_path / "model.json", tmp_path / "uniform.json"
    model.write_text(json.dumps({"kind": "gaussian", "mu": list(mu), "var": list(var)}))
    uniform.write_text(json.dumps({"kind": "uniform", "lo": list(mu - half), "hi": list(mu + half)}))
    assert run._gaussian_matches(model, mu, var) and run._uniform_matches(uniform, mu, var)
    assert not run._gaussian_matches(model, mu, var * (1 + 1e-8))
    assert not run._uniform_matches(uniform, mu, var * 1.001)
    assert not run._gaussian_matches(tmp_path / "missing.json", mu, var)
    uniform.write_text('{"kind": "uniform", "lo": [1, 2], "hi": "x"}')
    assert not run._uniform_matches(uniform, mu, var)
    assert run._printed_float("0.25\n") == 0.25 and np.isnan(run._printed_float(""))


def test_log_write_check_rejects_bad_sampled_logs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "GT_RECORDS", 2)
    monkeypatch.setattr(run, "J_PER_GT", 2)
    writer = run.LogWrite(1, 1, tmp_path)
    line = ('{"image_id": "im0", "gt": [20.0, 20.0, 10.0, 10.0], "gt_class": 1, '
            '"proposal": [%s, 20.0, 10.0, 10.0], "source": "sampled"}')
    good = [line % "21.0"] * 4
    assert writer.check("\n".join(good)) is None
    assert "expected 4" in writer.check("\n".join(good[:3]))
    assert "outside the image" in writer.check("\n".join(good[:3] + [line % "-6.0"]))
    assert "unparsable" in writer.check("\n".join(good[:3] + ["{}"]))


# the benchmark definition

def test_benchmark_json_lists_the_layer_metrics_the_runner_reports():
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.LAYER_METRICS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.LAYER_METRICS
    assert WORKLOADS == sorted(run.WORKLOADS)
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("log-write", 1, 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# real runs

@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = last_json(bench(workload, 1, 3, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["setup_s"] > 0 and values["peak_rss_mb"] > 0
    # a refused operation (see test_every_default_config_seed_completes) leaves no throughput
    assert values["items_per_s"] > 0 or result["failed"] > 0


@pytest.mark.xfail(strict=True, raises=RuntimeError,
                   reason="rpn_proposals exhausts its redraw budget for some novel instance biases")
def test_every_default_config_seed_completes():
    from propcal.simulator import ExperimentConfig, run_seed

    run_seed(ExperimentConfig(), gen.experiment_seeds(1, 1)[0])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric_and_counts_repeat(workload):
    first = last_json(bench(workload, 2, 3, 1))
    second = last_json(bench(workload, 2, 3, 1))
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == names
    counts = [k for k in names if k.endswith(COUNT_SUFFIXES)]
    assert {k: first["metrics"][k]["value"] for k in counts} == {k: second["metrics"][k]["value"] for k in counts}
    assert any(first["metrics"][k]["value"] > 0 for k in counts)

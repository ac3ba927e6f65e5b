import json
import math
import os
import pickle
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from propcal import cli
from propcal.cli import (
    LogParseError,
    ProposalLogRecord,
    dispatch,
    parse_log,
    parse_record,
    serialize_record,
)
from propcal.geometry import BBox, OffsetVec
from propcal.simulator import ExperimentConfig
from propcal.stats import model_from_json, DiagonalGaussian4, Uniform4

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run_python(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a child process that imports propcal from this checkout's src."""
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def record_line(image_id="im0", gt=(50.0, 60.0, 20.0, 30.0), gt_class=1,
                proposal=(52.0, 58.0, 22.0, 28.0), source="rpn"):
    return json.dumps({
        "image_id": image_id, "gt": list(gt), "gt_class": gt_class,
        "proposal": list(proposal), "source": source,
    })


def random_record(rng) -> ProposalLogRecord:
    def box():
        return BBox(
            float(rng.uniform(-1e3, 1e3)), float(rng.uniform(-1e3, 1e3)),
            float(rng.uniform(1e-3, 500)), float(rng.uniform(1e-3, 500)),
        )
    return ProposalLogRecord(
        image_id=f"im{rng.integers(0, 1000)}",
        gt=box(),
        gt_class=int(rng.integers(0, 30)),
        proposal=box(),
        source=("rpn", "sampled")[int(rng.integers(0, 2))],
    )


def test_parse_empty_file():
    records, errors = parse_log([])
    assert len(records) == 0 and errors == []


def test_parse_single_line_round_trip():
    line = record_line()
    rec = parse_record(line)
    canonical = serialize_record(rec)
    # re-serializing a parsed canonical line is byte-identical
    assert serialize_record(parse_record(canonical)) == canonical
    assert rec.image_id == "im0"
    assert rec.gt == BBox(50, 60, 20, 30)


def test_parse_rejects_invariant_violation_with_line_number():
    bad = record_line(gt=(50.0, 60.0, 0.0, 30.0))
    with pytest.raises(LogParseError, match=r"line 3: .*positive"):
        parse_log([record_line(), record_line(), bad])


def test_parse_error_kinds():
    with pytest.raises(LogParseError, match="line 1: malformed JSON"):
        parse_record("{nope", 1)
    with pytest.raises(LogParseError, match="missing fields"):
        parse_record('{"image_id": "a"}', 1)
    with pytest.raises(LogParseError, match="unknown fields"):
        parse_record(record_line()[:-1] + ', "extra": 1}', 1)
    with pytest.raises(LogParseError, match="source"):
        parse_record(record_line(source="oracle"), 1)
    with pytest.raises(LogParseError, match="gt_class"):
        parse_record(record_line(gt_class=True), 1)
    with pytest.raises(LogParseError, match="gt must be a flat array of four numeric values"):
        parse_record(json.dumps({
            "image_id": "a", "gt": [1, 2, 3], "gt_class": 0,
            "proposal": [1, 2, 3, 4], "source": "rpn"}), 1)


@pytest.mark.parametrize("scalar", [np.float64, np.float32, np.int64, int])
def test_record_built_from_numbers_serializes_to_a_canonical_line_that_parses_back(scalar):
    # boxes keep Python floats, so no coordinate is written as np.float64(10.5), which parse_record refuses
    values = (10, 20, 30, 40) if scalar in (np.int64, int) else (10.5, 20.0, 30.0, 40.0)
    rec = ProposalLogRecord("im0", BBox(*map(scalar, values)), 3, BBox(*map(scalar, values[::-1])), "rpn")
    assert all(type(v) is float for v in (rec.gt.cx, rec.gt.cy, rec.gt.w, rec.gt.h))
    line = serialize_record(rec)
    assert cli._CANONICAL_RECORD.fullmatch(line)
    assert parse_record(line) == rec
    assert serialize_record(parse_record(line)) == line


@pytest.mark.parametrize("gt_class", [np.int64(3), np.uint8(3), 3], ids=["int64", "uint8", "int"])
def test_record_stores_an_integer_class_as_an_int_whose_line_parses(gt_class):
    # a numpy-integer class was refused with "gt_class must be an integer"
    box = BBox(50.0, 60.0, 20.0, 30.0)
    rec = ProposalLogRecord("im0", box, gt_class, box, "rpn")
    assert type(rec.gt_class) is int and rec.gt_class == 3
    assert parse_record(serialize_record(rec)) == rec


@pytest.mark.parametrize("value", [True, np.True_, "1", None, 10**400],
                         ids=["bool", "numpy-bool", "str", "none", "int-beyond-float"])
def test_box_coordinate_must_be_a_number_not_a_bool(value):
    # an integer beyond the float range raised OverflowError, not this message
    with pytest.raises(ValueError, match="BBox.cx must be a finite number"):
        BBox(value, 1, 1, 1)
    with pytest.raises(ValueError, match="OffsetVec.dw must be a finite number"):
        OffsetVec(0, 0, value, 0)


@pytest.mark.parametrize("proposal", [(52.0, 58.0, 0.0, 28.0), (52, 58, 0, 28)], ids=["canonical", "parsed"])
def test_refused_box_names_its_field(tmp_path, proposal):
    # a valid gt with a zero-width proposal: the canonical line is refused by the array check, the line with
    # integer coordinates by parse_record, and both messages say that the proposal is the bad box
    message = "line 2: proposal: BBox width/height must be positive, got w=0.0, h=28.0"
    lines = [record_line() + "\n", record_line(proposal=proposal) + "\n", record_line() + "\n"]
    assert bool(cli._CANONICAL_RECORD.fullmatch(lines[1])) == isinstance(proposal[0], float)
    with pytest.raises(LogParseError) as raised:
        parse_log(lines)
    assert str(raised.value) == message
    assert parse_log(lines, lenient=True)[1] == [message]
    log = tmp_path / "log.jsonl"
    log.write_text("".join(lines), encoding="utf-8")
    size = log.stat().st_size
    _, errors, _ = cli._parse_range(str(log), 0, size, False)
    assert [str(e) for e in errors] == [message]
    columns, errors, n_lines = cli._parse_range(str(log), 0, size, True)
    assert ([str(e) for e in errors], len(columns), n_lines) == ([message], 2, 3)


def test_lenient_mode_skips_and_counts():
    lines = [record_line(), "{broken", record_line(gt=(0, 0, -1, 1)), record_line()]
    records, errors = parse_log(lines, lenient=True)
    assert len(records) == 2
    assert len(errors) == 2
    assert errors[0].startswith("line 2")
    assert errors[1].startswith("line 3")


def test_array_refused_row_is_named_before_a_later_bad_line():
    # line 2 passes the accept test and is refused only by the array check, on both boxes
    lines = [record_line(), record_line(gt=(50.0, 60.0, 0.0, 30.0), proposal=(52.0, 58.0, 22.0, -1.0)),
             "{broken"]
    with pytest.raises(LogParseError) as raised:
        parse_log(lines)
    with pytest.raises(LogParseError) as by_record:
        parse_record(lines[1], 2)
    assert str(raised.value) == str(by_record.value)
    _, errors = parse_log(lines, lenient=True)
    assert errors == [str(by_record.value), "line 3: malformed JSON (Expecting property name enclosed in double quotes)"]


def test_strict_mode_stops_reading_at_the_first_refused_line():
    def lines():
        yield record_line()
        yield "{broken"
        pytest.fail("parse_log read past the first bad line")

    with pytest.raises(LogParseError, match="line 2: malformed JSON"):
        parse_log(lines())


def test_blank_lines_ignored():
    records, _ = parse_log([record_line(), "", "   ", record_line()])
    assert len(records) == 2


def test_fuzz_corpus_round_trip():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        rec = random_record(rng)
        line = serialize_record(rec)
        rec2 = parse_record(line)
        assert rec2 == rec
        assert serialize_record(rec2) == line


def test_cli_fit_stats_zero_offsets(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    box = [50.0, 60.0, 20.0, 30.0]
    log.write_text("\n".join(record_line(gt=box, proposal=box) for _ in range(4)) + "\n")
    out = tmp_path / "model.json"
    assert dispatch(["fit-stats", str(log), "-o", str(out)]) == 0
    model = model_from_json(out.read_text())
    assert isinstance(model, DiagonalGaussian4)
    np.testing.assert_array_equal(model.mu, np.zeros(4))
    np.testing.assert_array_equal(model.var, np.zeros(4))


def test_cli_fit_stats_rejects_bad_line(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    log.write_text(record_line() + "\n" + record_line(gt=(1, 1, 0, 1)) + "\n")
    assert dispatch(["fit-stats", str(log)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err


def test_cli_fit_stats_lenient(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    log.write_text(record_line() + "\n{bad\n" + record_line() + "\n")
    assert dispatch(["fit-stats", str(log), "--lenient", "-o", str(tmp_path / "m.json")]) == 0
    assert "skipped 1 malformed lines" in capsys.readouterr().err


# a byte that is not valid UTF-8, inside the image id and after the record
NOT_UTF8 = [record_line(image_id="im").encode().replace(b'"im"', b'"im\xff"'), record_line().encode() + b" \xff"]


@pytest.mark.parametrize("command", ["fit-stats", "mmd", "diagnose"])
@pytest.mark.parametrize("bad", NOT_UTF8, ids=["in-id", "after-record"])
def test_cli_log_readers_name_a_line_that_is_not_utf8(tmp_path, capsys, command, bad):
    log = tmp_path / "log.jsonl"
    log.write_bytes(b"\n".join([record_line().encode(), bad, record_line().encode()]) + b"\n")
    extra = {"fit-stats": [], "mmd": [str(log)], "diagnose": ["--figures", str(tmp_path / "figs")]}[command]
    assert dispatch([command, str(log), *extra]) == 1
    assert capsys.readouterr().err == "error: line 2: not valid UTF-8 (byte 0xff)\n"


@pytest.mark.parametrize("bad", NOT_UTF8, ids=["in-id", "after-record"])
def test_cli_lenient_skips_a_line_that_is_not_utf8(tmp_path, capsys, bad):
    good = [record_line(proposal=(52.0 + i, 58.0, 22.0, 28.0)).encode() for i in range(3)]
    log, clean = tmp_path / "log.jsonl", tmp_path / "clean.jsonl"
    log.write_bytes(b"\n".join([good[0], bad, *good[1:]]) + b"\n")
    clean.write_bytes(b"\n".join(good) + b"\n")
    assert dispatch(["fit-stats", str(clean)]) == 0
    expected = capsys.readouterr().out
    assert dispatch(["fit-stats", str(log), "--lenient"]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == f"{log}: skipped line 2: not valid UTF-8 (byte 0xff)\n{log}: skipped 1 malformed lines\n"


def test_json_escaped_surrogate_id_is_still_a_record():
    line = record_line(image_id="im\udcff")  # written as the ASCII escape \udcff, which is valid UTF-8
    records, errors = parse_log([line])
    assert len(records) == 1 and errors == []


def test_cli_mmd_identical_logs(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    log.write_text("\n".join(record_line(proposal=(52.0 + i, 58.0, 22.0, 28.0)) for i in range(5)) + "\n")
    assert dispatch(["mmd", str(log), str(log), "--kernel", "linear"]) == 0
    assert capsys.readouterr().out.strip() == "0.0"
    assert dispatch(["mmd", str(log), str(log), "--kernel", "rbf"]) == 0
    assert capsys.readouterr().out.strip() == "0.0"


def test_cli_mmd_raw_corners(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    a.write_text(record_line() + "\n")
    b.write_text(record_line(proposal=(60.0, 58.0, 22.0, 28.0)) + "\n")
    assert dispatch(["mmd", str(a), str(b), "--kernel", "linear", "--raw-corners"]) == 0
    # corner means differ by 8 in both x corners: norm sqrt(2 * 64)
    assert float(capsys.readouterr().out) == pytest.approx(np.sqrt(128.0))


def test_cli_supcon_check(capsys):
    assert dispatch(["supcon-check", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out
    assert float(out.split(":")[1]) <= 1e-5


def test_cli_fit_uniform_round_trip(tmp_path, capsys):
    gfile = tmp_path / "g.json"
    gfile.write_text('{"kind": "gaussian", "mu": [0.0, 0.0, 0.0, 0.0], "var": [0.01, 0.01, 0.01, 0.01]}')
    out = tmp_path / "u.json"
    assert dispatch(["fit-uniform", str(gfile), "-o", str(out)]) == 0
    u = model_from_json(out.read_text())
    assert isinstance(u, Uniform4)
    np.testing.assert_allclose((u.hi - u.lo) / 2, 0.1486387764, atol=1e-6)
    # feeding a uniform model back is a validation failure
    assert dispatch(["fit-uniform", str(out)]) == 1


def test_cli_fit_uniform_of_a_uniform_model_exits_1_with_one_line(tmp_path, capsys):
    model = tmp_path / "u.json"
    model.write_text('{"kind": "uniform", "lo": [-0.1, -0.1, -0.1, -0.1], "hi": [0.1, 0.1, 0.1, 0.1]}')
    assert dispatch(["fit-uniform", str(model)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: fit-uniform requires a gaussian model\n"


def test_cli_sample_pipeline(tmp_path, capsys):
    gts = tmp_path / "gts.jsonl"
    gts.write_text("\n".join(
        json.dumps({"image_id": f"im{i}", "gt": [60.0, 70.0, 24.0, 18.0], "gt_class": 2})
        for i in range(3)
    ) + "\n")
    model = tmp_path / "m.json"
    model.write_text('{"kind": "gaussian", "mu": [0.05, -0.04, 0.08, 0.06], '
                     '"var": [0.01, 0.01, 0.0144, 0.0144]}')
    out = tmp_path / "sampled.jsonl"
    rc = dispatch(["sample", str(gts), "--model", str(model), "-J", "10",
                   "--seed", "5", "--image-size", "128", "128", "-o", str(out)])
    assert rc == 0
    records, _ = parse_log(out.read_text().splitlines())
    assert len(records) == 30
    assert records.gt_class.tolist() == [2] * 30
    # determinism: running again produces the identical file
    out2 = tmp_path / "sampled2.jsonl"
    dispatch(["sample", str(gts), "--model", str(model), "-J", "10",
              "--seed", "5", "--image-size", "128", "128", "-o", str(out2)])
    assert out.read_bytes() == out2.read_bytes()
    # without -o the same lines go to stdout
    assert dispatch(["sample", str(gts), "--model", str(model), "-J", "10",
                     "--seed", "5", "--image-size", "128", "128"]) == 0
    assert capsys.readouterr().out == out.read_text()
    # sampled output is itself a valid statistics input
    assert dispatch(["fit-stats", str(out), "-o", str(tmp_path / "refit.json")]) == 0


def test_cli_sample_peaks_below_the_size_of_its_output(tmp_path):
    # the lines are written one gt at a time, so the output is never held in memory
    rng = np.random.default_rng(0)
    wh = rng.uniform(20.0, 200.0, size=(2000, 2))
    xy = rng.uniform(0.0, 1.0, size=(2000, 2)) * ([640.0, 480.0] - wh) + wh / 2
    gts = tmp_path / "gts.jsonl"
    gts.write_text("".join(json.dumps({"image_id": f"im{i // 5}", "gt": [*xy[i].tolist(), *wh[i].tolist()],
                                       "gt_class": i % 20}) + "\n" for i in range(2000)))
    model = tmp_path / "m.json"
    model.write_text('{"kind": "gaussian", "mu": [0.02, -0.01, 0.04, 0.03], "var": [0.0144, 0.0144, 0.01, 0.01]}')
    out = tmp_path / "out.jsonl"
    tracemalloc.start()
    try:
        assert dispatch(["sample", str(gts), "--model", str(model), "-J", "20",
                         "--image-size", "640", "480", "-o", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size


def test_cli_sample_rejects_bad_gts(tmp_path, capsys):
    gts = tmp_path / "gts.jsonl"
    gts.write_text('{"image_id": "a", "gt": [1, 1, 0, 1], "gt_class": 0}\n')
    model = tmp_path / "m.json"
    model.write_text('{"kind": "gaussian", "mu": [0, 0, 0, 0], "var": [0, 0, 0, 0]}')
    assert dispatch(["sample", str(gts), "--model", str(model)]) == 1
    assert "line 1" in capsys.readouterr().err


def test_cli_sample_names_a_gt_line_that_is_not_utf8(tmp_path, capsys):
    gts = tmp_path / "gts.jsonl"
    gts.write_bytes(b'{"image_id": "a", "gt": [60, 70, 24, 18], "gt_class": 0}\n'
                    b'{"image_id": "b\xff", "gt": [60, 70, 24, 18], "gt_class": 0}\n')
    model = tmp_path / "m.json"
    model.write_text('{"kind": "gaussian", "mu": [0, 0, 0, 0], "var": [0, 0, 0, 0]}')
    out = tmp_path / "out.jsonl"
    assert dispatch(["sample", str(gts), "--model", str(model), "-o", str(out)]) == 1
    assert capsys.readouterr().err == "error: line 2: not valid UTF-8 (byte 0xff)\n"
    assert not out.exists()


def test_cli_sample_checks_every_gt_line_before_drawing(tmp_path, capsys):
    # line 1 would exhaust its budget, but the malformed line 3 is what is reported
    gts = tmp_path / "gts.jsonl"
    gts.write_text("\n".join([
        json.dumps({"image_id": "a", "gt": [900.0, 70.0, 24.0, 18.0], "gt_class": 0}),
        json.dumps({"image_id": "a", "gt": [60.0, 70.0, 24.0, 18.0], "gt_class": 0}),
        "{broken",
    ]) + "\n")
    model = tmp_path / "m.json"
    model.write_text('{"kind": "gaussian", "mu": [0, 0, 0, 0], "var": [0.01, 0.01, 0.01, 0.01]}')
    out = tmp_path / "out.jsonl"
    assert dispatch(["sample", str(gts), "--model", str(model), "--image-size", "128", "128",
                     "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_sample_without_gts_writes_an_empty_file(tmp_path, capsys):
    gts, model = tmp_path / "gts.jsonl", tmp_path / "m.json"
    gts.write_text("\n\n")
    model.write_text('{"kind": "gaussian", "mu": [0, 0, 0, 0], "var": [0.01, 0.01, 0.01, 0.01]}')
    out = tmp_path / "out.jsonl"
    assert dispatch(["sample", str(gts), "--model", str(model), "-J", "3", "-o", str(out)]) == 0
    assert out.read_text() == ""
    assert dispatch(["sample", str(gts), "--model", str(model), "-J", "3"]) == 0
    assert capsys.readouterr() == ("", "")  # on stdout too


_HUGE_GT = ([0, 0, 1e308, 1e308], '"mu": [1e300, 0, 1, 1], "var": [0.01, 0.01, 0.01, 0.01]')


@pytest.mark.parametrize("gt,model_fields,image_size", [
    (*_HUGE_GT, []),
    (*_HUGE_GT, ["--image-size", "640", "480"]),
    # only the width overflows; clipping would make the box finite again, [320, 100, 640, 10]
    ([100, 100, 10, 10], '"mu": [0, 0, 1e308, 0], "var": [0, 0, 0, 0]', ["--image-size", "640", "480"]),
], ids=["image_size0", "image_size1", "width-overflow-clipped"])
def test_cli_sample_overflowing_draws_exit_1(tmp_path, gt, model_fields, image_size):
    # every draw decodes to an infinite box, which is no JSON; a real process would show
    # a numpy overflow warning on stderr, which pytest captures in process
    gts = tmp_path / "gts.jsonl"
    gts.write_text(json.dumps({"image_id": "a", "gt": gt, "gt_class": 0}) + "\n")
    model = tmp_path / "m.json"
    model.write_text('{"kind": "gaussian", ' + model_fields + "}")
    out = tmp_path / "out.jsonl"
    proc = _run_python("-m", "propcal.cli", "sample", str(gts), "--model", str(model),
                       *image_size, "-o", str(out))
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: resampling budget exhausted for gt {[float(v) for v in gt]}")
    assert proc.stderr.count("\n") == 1
    assert not out.exists()


def _sample_inputs(tmp_path):
    gts = tmp_path / "gts.jsonl"
    gts.write_text('{"image_id": "a", "gt": [60.0, 70.0, 24.0, 18.0], "gt_class": 2}\n')
    model = tmp_path / "m.json"
    model.write_text('{"kind": "gaussian", "mu": [0, 0, 0, 0], "var": [0.01, 0.01, 0.01, 0.01]}')
    return gts, model


@pytest.mark.parametrize("size", [["0", "100"], ["-5", "100"], ["nan", "nan"], ["inf", "inf"], ["100", "inf"]])
def test_cli_sample_rejects_image_size_not_positive_and_finite(tmp_path, capsys, size):
    gts, model = _sample_inputs(tmp_path)
    out = tmp_path / "out.jsonl"
    assert dispatch(["sample", str(gts), "--model", str(model), "--image-size", *size, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --image-size must be two positive, finite numbers, got [")
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_sample_with_more_draws_than_memory_exits_1(tmp_path, capsys):
    # 2**46 draws of four float64s overflow any 64-bit address space, so the allocation fails at once
    gts, model = _sample_inputs(tmp_path)
    out = tmp_path / "out.jsonl"
    assert dispatch(["sample", str(gts), "--model", str(model), "-J", str(2**46), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_cli_seed_outside_64_bits_exits_1(tmp_path, capsys, seed):
    # a masked seed would alias -1 with 2**64 - 1 and 2**64 with 0, writing the same file
    gts, model = _sample_inputs(tmp_path)
    out = tmp_path / "out.jsonl"
    assert dispatch(["sample", str(gts), "--model", str(model), "--seed", str(seed), "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"error: seed must be in [0, 2**64), got {seed}\n"
    assert not out.exists()
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps({"seeds": [0, seed]}))
    assert dispatch(["simulate", str(cfg_file), "--out", str(tmp_path / "reports")]) == 1
    assert capsys.readouterr().err == f"error: seed must be in [0, 2**64), got {seed}\n"
    assert not (tmp_path / "reports").exists()
    # supcon-check seeds a raw 128-bit Philox key: -1 is out of range, 2**64 is not
    assert dispatch(["supcon-check", "--seed", str(seed)]) == (1 if seed < 0 else 0)
    if seed < 0:
        assert capsys.readouterr().err == "error: key must be positive and less than 2**128.\n"


def test_cli_largest_64_bit_seed_is_accepted(tmp_path):
    gts, model = _sample_inputs(tmp_path)
    out = tmp_path / "out.jsonl"
    assert dispatch(["sample", str(gts), "--model", str(model), "--seed", str(2**64 - 1), "-o", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 50
    cfg = {"c_base": 2, "c_novel": 2, "k_shot": 2, "base_per_class": 20, "test_per_class": 6,
           "epochs_base": 5, "epochs_finetune": 5, "j_per_instance": 10, "seeds": [2**64 - 1]}
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps(cfg))
    assert dispatch(["simulate", str(cfg_file), "--out", str(tmp_path / "reports")]) == 0


@pytest.mark.parametrize("fields,message", [
    ({"gt_class": "x"}, "gt_class must be an integer"),
    ({"gt_class": 1.5}, "gt_class must be an integer"),
    ({"gt_class": -1}, "gt_class must be >= 0"),
    ({"image_id": 7}, "image_id must be a string"),
    ({"gt": [1, 1, 1]}, "gt must be a flat array of four numeric values"),
])
def test_cli_sample_checks_gt_fields_like_parse_record(tmp_path, capsys, fields, message):
    good = {"image_id": "a", "gt": [60.0, 70.0, 24.0, 18.0], "gt_class": 2}
    gts = tmp_path / "gts.jsonl"
    gts.write_text(json.dumps(good) + "\n" + json.dumps({**good, **fields}) + "\n")
    model = tmp_path / "m.json"
    model.write_text('{"kind": "gaussian", "mu": [0, 0, 0, 0], "var": [0.01, 0.01, 0.01, 0.01]}')
    out = tmp_path / "out.jsonl"
    assert dispatch(["sample", str(gts), "--model", str(model), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: line 2: {message}")
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_sample_missing_gt_field(tmp_path, capsys):
    gts = tmp_path / "gts.jsonl"
    gts.write_text('{"image_id": "a", "gt": [1, 1, 2, 2]}\n')
    model = tmp_path / "m.json"
    model.write_text('{"kind": "gaussian", "mu": [0, 0, 0, 0], "var": [0.01, 0.01, 0.01, 0.01]}')
    assert dispatch(["sample", str(gts), "--model", str(model)]) == 1
    assert capsys.readouterr().err == "error: line 1: missing fields: gt_class\n"


@pytest.mark.parametrize("doc,field", [
    ('{"kind": "gaussian", "mu": [0, 0, 0, 0]}', "var"),
    ('{"kind": "gaussian", "var": [1, 1, 1, 1]}', "mu"),
    ('{"kind": "uniform", "hi": [1, 1, 1, 1]}', "lo"),
    ('{"kind": "uniform", "lo": [0, 0, 0, 0]}', "hi"),
])
def test_cli_model_missing_field_exits_1(tmp_path, capsys, doc, field):
    model = tmp_path / "m.json"
    model.write_text(doc)
    gts = tmp_path / "gts.jsonl"
    gts.write_text('{"image_id": "a", "gt": [60.0, 70.0, 24.0, 18.0], "gt_class": 2}\n')
    for argv in (["fit-uniform", str(model)], ["sample", str(gts), "--model", str(model)]):
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err and err.count("\n") == 1


@pytest.mark.parametrize("doc", [
    '{"kind": "gaussian", "mu": [[0, 0], [0.5, 1]], "var": [1, 1, 1, 1]}',
    '{"kind": "gaussian", "mu": [0, 0, 0, 0], "var": [1, "1", 1, 1]}',
    '{"kind": "gaussian", "mu": [0, 0, 0, true], "var": [1, 1, 1, 1]}',
    '{"kind": "gaussian", "mu": [0, 0, 0], "var": [1, 1, 1, 1]}',
    '{"kind": "uniform", "lo": [0, 0, 0, 0], "hi": [[1, 1, 1, 1]]}',
    '{"kind": "uniform", "lo": ["0", 0, 0, 0], "hi": [1, 1, 1, 1]}',
    '{"kind": "uniform", "lo": [0, 0, 0, 0], "hi": [1, false, 1, 1]}',
    '{"kind": "uniform", "lo": [0, 0, 0, 0], "hi": [1, 1, 1]}',
])
def test_cli_model_field_not_four_numbers_exits_1(tmp_path, capsys, doc):
    model = tmp_path / "m.json"
    model.write_text(doc)
    gts = tmp_path / "gts.jsonl"
    gts.write_text('{"image_id": "a", "gt": [60.0, 70.0, 24.0, 18.0], "gt_class": 2}\n')
    for argv in (["fit-uniform", str(model)], ["sample", str(gts), "--model", str(model)]):
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be a flat array of four numeric values" in err
        assert err.count("\n") == 1


@pytest.mark.parametrize("doc,field", [
    ('{"kind": "gaussian", "mu": [0, 0, 0, 0], "var": [1, 1, 1, 1], "sigma": [1, 1, 1, 1]}', "sigma"),
    ('{"kind": "gaussian", "mu": [0, 0, 0, 0], "var": [1, 1, 1, 1], "lo": [0, 0, 0, 0]}', "lo"),
    ('{"kind": "uniform", "lo": [0, 0, 0, 0], "hi": [1, 1, 1, 1], "mu": [0, 0, 0, 0]}', "mu"),
])
def test_cli_model_unknown_field_exits_1(tmp_path, capsys, doc, field):
    model = tmp_path / "m.json"
    model.write_text(doc)
    gts = tmp_path / "gts.jsonl"
    gts.write_text('{"image_id": "a", "gt": [60.0, 70.0, 24.0, 18.0], "gt_class": 2}\n')
    kind = json.loads(doc)["kind"]
    for argv in (["fit-uniform", str(model)], ["sample", str(gts), "--model", str(model)]):
        assert dispatch(argv) == 1
        assert capsys.readouterr().err == f"error: {kind} model document has unknown field(s): {field}\n"


@pytest.mark.parametrize("image_id,gt_class,message", [
    ("im0", True, "gt_class must be an integer"),
    ("im0", 3.0, "gt_class must be an integer"),
    ("im0", 2**70, "gt_class holds an integer beyond the int64 range"),
    (5, 1, "image_id must be a string"),
])
def test_record_refuses_what_parse_record_refuses(image_id, gt_class, message):
    # a record that could be built would serialize to a line its own parser refuses
    box = BBox(50.0, 60.0, 20.0, 30.0)
    with pytest.raises(ValueError, match=message):
        ProposalLogRecord(image_id, box, gt_class, box, "rpn")
    line = record_line(image_id=image_id, gt_class=gt_class)
    with pytest.raises(LogParseError, match=message):
        parse_record(line)


@pytest.mark.parametrize("field", ["gt", "proposal"])
@pytest.mark.parametrize("box", [(50.0, 60.0, 20.0, 30.0), [50.0, 60.0, 20.0, 30.0], "box", None],
                         ids=["tuple", "list", "str", "None"])
def test_record_refuses_a_box_that_is_not_a_bbox(field, box):
    # serialize_record of such a record would raise astuple's TypeError, which no command catches
    fields = {"gt": BBox(50.0, 60.0, 20.0, 30.0), "proposal": BBox(52.0, 58.0, 22.0, 28.0), field: box}
    with pytest.raises(ValueError, match=f"^{field} must be a BBox, got {type(box).__name__}$"):
        ProposalLogRecord("im0", fields["gt"], 0, fields["proposal"], "rpn")


def test_cli_diagnose(tmp_path):
    log = tmp_path / "log.jsonl"
    rng = np.random.default_rng(0)
    lines = []
    for _ in range(50):
        gt = [100.0, 100.0, 20.0, 25.0]
        prop = [100 + float(rng.normal(0, 2)), 100 + float(rng.normal(0, 2)), 20.0, 25.0]
        lines.append(json.dumps({"image_id": "x", "gt": gt, "gt_class": 0,
                                 "proposal": prop, "source": "rpn"}))
    log.write_text("\n".join(lines) + "\n")
    figs = tmp_path / "figs"
    assert dispatch(["diagnose", str(log), "--figures", str(figs)]) == 0
    names = sorted(p.name for p in figs.iterdir())
    assert names == sorted(
        [f"offset_{d}.{ext}" for d in ("dx", "dy", "dw", "dh") for ext in ("csv", "svg")]
        + ["model.json", "iou_hist.csv", "iou_hist.svg"]
    )
    hist_csv = (figs / "iou_hist.csv").read_text().splitlines()
    assert hist_csv[0] == "lo,hi,count"


def test_cli_simulate(tmp_path, capsys):
    cfg = {
        "c_base": 3, "c_novel": 2, "k_shot": 2, "base_per_class": 30,
        "test_per_class": 5, "epochs_base": 20, "epochs_finetune": 25,
        "seeds": [0],
    }
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps(cfg))
    assert dispatch(["simulate", str(cfg_file), "--out", str(tmp_path / "reports")]) == 0
    out = capsys.readouterr().out
    assert "mean_iou" in out and "pdc_wins" in out
    subdirs = list((tmp_path / "reports").iterdir())
    assert len(subdirs) == 1
    assert (subdirs[0] / "summary.csv").exists()


# rejected both from JSON and by the constructor: values of a JSON type other
# than the field's, and a repeated seed
SHARED_CONFIG_ERRORS = [
    ({"seeds": 5}, "seeds must be a list of integers, got 5"),
    ({"seeds": [0.5]}, "seeds must be a list of integers, got [0.5]"),
    ({"k_shot": "5"}, "k_shot must be an integer, got '5'"),
    ({"k_shot": 5.0}, "k_shot must be an integer, got 5.0"),
    ({"rpn_mu": 5}, "rpn_mu must be a list of numbers, got 5"),
    ({"lam": "0.1"}, "lam must be a number, got '0.1'"),
    ({"sampled_in_main": 1}, "sampled_in_main must be a boolean, got 1"),
    ({"epochs_base": True}, "epochs_base must be an integer, got True"),
    ({"seeds": [0, 0]}, "seeds must be distinct, got [0, 0]"),
]


@pytest.mark.parametrize("override,message", [
    ({"seeds": []}, "seeds must be non-empty"),
    ({"miss_rate_novel": 1.0}, "miss_rate_novel must be in [0, 1)"),
    *SHARED_CONFIG_ERRORS,
    ({"lam": -1}, "lam must be >= 0"),
    ({"tau": 0.2, "contrastive_cap": 256, "contrastive_set": "sampled", "proj_dim": 128},
     "unknown config fields: ['contrastive_cap', 'contrastive_set', 'proj_dim', 'tau']"),
    ({"feature_dim": 0}, "feature_dim must be positive"),
    ({"pos_neg_cap": -1}, "pos_neg_cap must be >= 0"),
    ({"rpn_mu": [0.0, 0.0, 0.0]}, "rpn_mu must have 4 elements, got 3"),
    ({"rpn_sigma": [0.1]}, "rpn_sigma must have 4 elements, got 1"),
    ({"novel_extra_bias": [0, 0, 0, 0, 0]}, "novel_extra_bias must have 4 elements, got 5"),
    ({"margin": 81}, "margin must be at most half of min(image_w, image_h)"),
    ({"image_h": 90}, "margin must be at most half of min(image_w, image_h)"),
    ({"min_box": -10, "max_box": 5}, "need 0 < min_box <= max_box"),
    ({"min_box": 0}, "need 0 < min_box <= max_box"),
    ({"min_box": 50, "max_box": 40}, "need 0 < min_box <= max_box"),
    ({"margin": -40}, "margin must be at least max_box / 2"),
    ({"margin": 20}, "margin must be at least max_box / 2"),
    ({"miss_rate_novel": -0.1}, "miss_rate_novel must be in [0, 1)"),
    ({"novel_bias_spread": -1}, "novel_bias_spread must be >= 0"),
    ({"lam": math.nan}, "lam must be finite"),
    ({"rpn_sigma": [0.1, 0.1, -math.inf, 0.1]}, "rpn_sigma must be finite"),
    ({"fg_iou": 0.3, "bg_iou": 0.5}, "need 0 <= bg_iou <= fg_iou <= 1"),
    ({"fg_iou": 1.5}, "need 0 <= bg_iou <= fg_iou <= 1"),
    ({"learning_rate": -1.5}, "learning_rate must be >= 0"),
])
def test_cli_simulate_rejects_invalid_config(tmp_path, capsys, override, message):
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps({"c_base": 3, "c_novel": 2, "seeds": [0], **override}))
    out = tmp_path / "reports"
    assert dispatch(["simulate", str(cfg_file), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("override,message", [
    *SHARED_CONFIG_ERRORS,
    ({"seeds": (1.7,)}, "seeds must be a list of integers, got (1.7,)"),
    ({"k_shot": 2.5}, "k_shot must be an integer, got 2.5"),
    ({"learning_rate": "1.5"}, "learning_rate must be a number, got '1.5'"),
    ({"sampled_in_main": "no"}, "sampled_in_main must be a boolean, got 'no'"),
])
def test_config_constructor_rejects_what_json_rejects(override, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(**override)


def test_cli_simulate_without_novel_foreground_exits_1(tmp_path, capsys):
    # valid, but one seed's test split leaves no foreground novel proposal to score
    cfg = {"seeds": [0, 1, 2, 3], "c_novel": 1, "test_per_class": 1, "miss_rate_novel": 0.9,
           "base_per_class": 20, "epochs_base": 2, "epochs_finetune": 2}
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps(cfg))
    out = tmp_path / "reports"
    assert dispatch(["simulate", str(cfg_file), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seed ") and "no foreground novel test proposal" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("override,message", [
    ({"feature_dim": 1}, "could not place 10 separated prototypes in 1 dims"),
    ({"bg_iou": 0, "fg_iou": 1}, "base training requires at least one classifiable proposal"),
], ids=["prototypes", "no-classifiable-proposal"])
def test_cli_simulate_with_a_valid_config_that_cannot_run_exits_1(tmp_path, capsys, override, message):
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps(override))
    out = tmp_path / "reports"
    assert dispatch(["simulate", str(cfg_file), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_cli_simulate_with_diverging_head_exits_1(tmp_path, capsys):
    # valid, but the head's weights grow to about 1e299 and mmd_novel is NaN
    cfg = {"learning_rate": 1e300, "seeds": [0], "base_per_class": 20, "test_per_class": 6,
           "epochs_base": 2, "epochs_finetune": 2}
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps(cfg))
    out = tmp_path / "reports"
    assert dispatch(["simulate", str(cfg_file), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seed 0: ") and "is nan" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_simulate_with_diverging_calibrated_step_names_stage_and_epoch(tmp_path, capsys):
    # the lam-weighted step of epoch 0 throws the head far enough that epoch 1's loss overflows
    cfg = {"lam": 1e300, "seeds": [0], "base_per_class": 20, "test_per_class": 6,
           "epochs_base": 2, "epochs_finetune": 2}
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps(cfg))
    out = tmp_path / "reports"
    assert dispatch(["simulate", str(cfg_file), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: fine-tuning diverged at epoch 1: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_simulate_with_diverging_base_training_names_only_its_losses(tmp_path, capsys):
    # base training has no calibrated branch, so its message names no sampled loss and no lam
    cfg = {"seeds": [0], "feature_noise": 1e300, "base_per_class": 5, "test_per_class": 3,
           "epochs_base": 2, "epochs_finetune": 2}
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps(cfg))
    out = tmp_path / "reports"
    assert dispatch(["simulate", str(cfg_file), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: base training diverged at epoch 1: cls=nan, reg=inf\n"
    assert not out.exists()


def test_cli_simulate_with_diverging_head_prints_one_stderr_line(tmp_path):
    # in process, pytest captures numpy's overflow warnings; a real process would show them on stderr
    cfg = {"learning_rate": 1e300, "seeds": [0], "base_per_class": 20, "test_per_class": 6,
           "epochs_base": 2, "epochs_finetune": 2}
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps(cfg))
    proc = _run_python("-m", "propcal.cli", "simulate", str(cfg_file), "--out", str(tmp_path / "r"))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: seed 0: ") and proc.stderr.count("\n") == 1


# an integer JSON reads exactly but float() cannot hold, and a line too deep to decode
HUGE = "1" + "0" * 400
DEEP = "[" * 100_000 + "]" * 100_000
HUGE_LOG_LINE = record_line().replace("50.0", HUGE)
GT_LINE = '{"image_id": "a", "gt": [60.0, 70.0, 24.0, 18.0], "gt_class": 2}'
MODEL = '{"kind": "gaussian", "mu": [0, 0, 0, 0], "var": [0.01, 0.01, 0.01, 0.01]}'


@pytest.mark.parametrize("argv,files,message", [
    (["fit-stats", "{log}"], {"log": HUGE_LOG_LINE},
     "line 1: gt holds an integer beyond the float range"),
    (["fit-stats", "{log}"], {"log": DEEP}, "line 1: malformed JSON (nested too deeply)"),
    (["sample", "{gts}", "--model", "{model}"],
     {"gts": GT_LINE.replace("60.0", HUGE), "model": MODEL},
     "line 1: gt holds an integer beyond the float range"),
    (["sample", "{gts}", "--model", "{model}"], {"gts": DEEP, "model": MODEL},
     "line 1: malformed JSON (nested too deeply)"),
    (["fit-uniform", "{model}"], {"model": MODEL.replace('"mu": [0', '"mu": [' + HUGE)},
     "gaussian model field mu holds an integer beyond the float range"),
    (["sample", "{gts}", "--model", "{model}"],
     {"gts": GT_LINE, "model": MODEL.replace('"mu": [0', '"mu": [' + HUGE)},
     "gaussian model field mu holds an integer beyond the float range"),
    (["simulate", "{config}", "--out", "{out}"], {"config": '{"image_w": 1e400}'},
     "image_w must be finite"),
    (["simulate", "{config}", "--out", "{out}"], {"config": '{"image_w": %s}' % HUGE},
     "image_w must be finite"),
    (["simulate", "{config}", "--out", "{out}"], {"config": '{"rpn_mu": [0, 0, 0, %s]}' % HUGE},
     "rpn_mu must be finite"),
    (["fit-uniform", "{model}"], {"model": MODEL.replace('"var": [0.01', '"var": [' + HUGE)},
     "gaussian model field var holds an integer beyond the float range"),
])
def test_cli_numbers_beyond_float_range_exit_1(tmp_path, capsys, argv, files, message):
    paths = {"out": tmp_path / "out"}
    for name, text in files.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text + "\n")
    assert dispatch([a.format(**paths) for a in argv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not paths["out"].exists()


def test_lenient_mode_skips_numbers_beyond_float_range():
    records, errors = parse_log([record_line(), HUGE_LOG_LINE, DEEP, record_line()], lenient=True)
    assert len(records) == 2
    assert errors == [
        "line 2: gt holds an integer beyond the float range",
        "line 3: malformed JSON (nested too deeply)",
    ]


@pytest.mark.parametrize("argv", [
    ["fit-stats", "{log}"],
    ["diagnose", "{log}", "--figures", "{figs}"],
    ["mmd", "{log}", "{log}"],
])
def test_cli_empty_log_exits_1(tmp_path, capsys, argv):
    log = tmp_path / "log.jsonl"
    log.write_text("\n\n")
    figs = tmp_path / "figs"
    argv = [a.format(log=log, figs=figs) for a in argv]
    assert dispatch(argv) == 1
    assert capsys.readouterr().err == f"error: {log} contains no records\n"
    assert not figs.exists()


def test_cli_fit_stats_rejects_overflowing_offset(tmp_path, capsys):
    overflowing = record_line(gt=(0.0, 0.0, 1e-308, 1.0), proposal=(1e10, 0.0, 1.0, 1.0))
    log = tmp_path / "log.jsonl"
    # the message names the line, not the row's index among the records read
    for text, line in ((overflowing, 1), ("\n" + overflowing, 2)):
        log.write_text(text + "\n")
        assert dispatch(["fit-stats", str(log)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {line}: offset ") and "is not finite" in err
        assert err.count("\n") == 1


# finite offsets whose means or squares overflow: proposals 1e308 from the gt on opposite sides or on one side
_OPPOSITE, _ONE_SIDE = (1e308, -1e308), (1e308, 1e308)


@pytest.mark.parametrize("xs, argv, message", [
    (_OPPOSITE, ["mmd", "LOG", "LOG", "--kernel", "rbf"], "mmd is not finite"),
    (_OPPOSITE, ["mmd", "LOG", "LOG", "--kernel", "rbf", "--raw-corners"], "mmd is not finite"),
    (_OPPOSITE, ["diagnose", "LOG", "--figures", "FIGS"], "gaussian parameters must be finite"),
    (_OPPOSITE, ["fit-stats", "LOG"], "gaussian parameters must be finite"),
], ids=["mmd-rbf", "mmd-rbf-corners", "diagnose", "fit-stats"])
def test_cli_overflowing_log_exits_1_with_one_line_and_no_warning(tmp_path, capsys, xs, argv, message):
    log, figs = tmp_path / "log.jsonl", tmp_path / "figs"
    log.write_text("".join(record_line(gt=(0.0, 0.0, 1.0, 1.0), proposal=(x, 0.0, 1.0, 1.0)) + "\n" for x in xs))
    argv = [{"LOG": str(log), "FIGS": str(figs)}.get(a, a) for a in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert dispatch(argv) == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not figs.exists()


def test_cli_mmd_linear_of_distant_means_is_their_distance(tmp_path, capsys):
    # the squared distance 1e400 overflowed inside the norm, so mmd exited 1 with "mmd is not finite"
    far, near = tmp_path / "far.jsonl", tmp_path / "near.jsonl"
    far.write_text(record_line(gt=(0.0, 0.0, 1.0, 1.0), proposal=(1e200, 0.0, 1.0, 1.0)) + "\n")
    near.write_text(record_line(gt=(0.0, 0.0, 1.0, 1.0), proposal=(0.0, 0.0, 1.0, 1.0)) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dispatch(["mmd", str(far), str(near), "--kernel", "linear"]) == 0
    assert capsys.readouterr() == ("1e+200\n", "")


_ZEROS = ", ".join(["0.0000000000000000e+00"] * 4)


@pytest.mark.parametrize("argv, stdout", [
    (["fit-stats", "LOG"], '{"kind": "gaussian", "mu": [1.0000000000000000e+308, 0.0000000000000000e+00, '
     '0.0000000000000000e+00, 0.0000000000000000e+00], "var": [' + _ZEROS + ']}\n'),
    (["mmd", "LOG", "LOG"], "0.0\n"),
    (["mmd", "LOG", "LOG", "--raw-corners"], "0.0\n"),
    (["diagnose", "LOG", "--figures", "FIGS"], "wrote 11 files to FIGS\n"),
], ids=["fit-stats-one-side", "mmd-linear", "mmd-linear-corners", "diagnose-one-side"])
def test_cli_one_sided_overflowing_log_exits_0_with_its_mean_and_no_warning(tmp_path, capsys, argv, stdout):
    # two proposals 1e308 from the gt on one side: their column sum overflows, their mean does not
    log, figs = tmp_path / "log.jsonl", tmp_path / "figs"
    log.write_text("".join(record_line(gt=(0.0, 0.0, 1.0, 1.0), proposal=(x, 0.0, 1.0, 1.0)) + "\n"
                           for x in _ONE_SIDE))
    paths = {"LOG": str(log), "FIGS": str(figs)}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert dispatch([paths.get(a, a) for a in argv]) == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr() == (stdout.replace("FIGS", str(figs)), "")
    if argv[0] == "diagnose":
        assert len(list(figs.iterdir())) == 11


def test_cli_exit_codes():
    assert dispatch(["no-such-command"]) == 2
    assert dispatch([]) == 2
    assert dispatch(["--help"]) == 0
    assert dispatch(["mmd", "/nonexistent/a", "/nonexistent/b"]) == 1


def test_console_script_entry():
    proc = _run_python("-m", "propcal.cli", "supcon-check", "--seed", "3")
    assert proc.returncode == 0
    assert "max relative error" in proc.stdout


def test_cli_and_simulator_import_without_scipy():
    proc = _run_python("-c", "import sys, propcal.cli, propcal.simulator; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_and_simulator_import_without_a_process_pool():
    """The parallel log reader imports its pool only when a log is large enough to split."""
    proc = _run_python("-c", "import sys, propcal.cli, propcal.simulator; "
                             "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_log_parse_error_survives_pickling():
    e = pickle.loads(pickle.dumps(LogParseError(3, "x")))
    assert type(e) is LogParseError
    assert (str(e), e.line_no, e.message) == ("line 3: x", 3, "x")


def _columns_bytes(cols):
    return [(a.dtype, a.shape, a.tobytes()) for a in (cols.gt, cols.gt_class, cols.proposal, cols.line_no)]


def _refuse(line, line_no=1):
    raise AssertionError(f"line {line_no} reached parse_record: {line!r}")


LF_LOG = "".join(record_line(image_id=f"im{i}", proposal=(52.0 + i, 58.0, 22.5, 28.0)) + "\n" for i in range(40))


@pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize("range_bytes", [None, 300], ids=["one-pass", "ranges"])
def test_cli_reads_crlf_and_cr_logs_as_the_lf_log_without_parse_record(tmp_path, monkeypatch, ending, range_bytes):
    """The reader's universal newlines turn every ending into \\n, so such lines still take the canonical pattern."""
    lf, other = tmp_path / "lf.jsonl", tmp_path / "other.jsonl"
    lf.write_bytes(LF_LOG.encode())
    other.write_bytes(LF_LOG.replace("\n", ending).encode())
    want = _columns_bytes(cli._read_log(str(lf), False))
    monkeypatch.setattr(cli, "parse_record", _refuse)
    if range_bytes:
        monkeypatch.setattr(cli, "_RANGE_BYTES", range_bytes)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        with open(other, "rb") as fh:
            assert len(cli._line_ranges(fh)) == (3 if ending == "\r\n" else 1)  # cuts follow a \n only
    assert _columns_bytes(cli._read_log(str(other), False)) == want


def test_log_is_one_range_on_a_platform_without_fork(tmp_path, monkeypatch):
    import multiprocessing

    log = tmp_path / "lf.jsonl"
    log.write_text(LF_LOG)
    monkeypatch.setattr(cli, "_RANGE_BYTES", 100)  # a file this size would be split where the platform can fork
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    with open(log, "rb") as fh:
        assert len(cli._line_ranges(fh)) == 3
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert cli._line_ranges(fh) == [(0, log.stat().st_size)]


def test_fifo_log_is_read_in_one_pass(tmp_path, monkeypatch):
    (tmp_path / "lf.jsonl").write_text(LF_LOG)
    want = _columns_bytes(cli._read_log(str(tmp_path / "lf.jsonl"), False))
    fifo = tmp_path / "log.fifo"
    os.mkfifo(fifo)
    monkeypatch.setattr(cli, "_RANGE_BYTES", 100)  # a regular file this size would be split
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(cli, "_parse_ranges", _refuse)

    def write():
        with open(fifo, "w") as fh:
            fh.write(LF_LOG)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        cols = cli._read_log(str(fifo), False)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert _columns_bytes(cols) == want


_PARENT = os.getpid()
_parse_range = cli._parse_range


def _failing_range(path, start, end, lenient):
    """``_parse_range`` in this process; in a worker, the failure the test names in the path."""
    if os.getpid() != _PARENT:
        if path.endswith("exit.jsonl"):
            os._exit(3)
        raise MemoryError("no memory for the range")
    return _parse_range(path, start, end, lenient)


@pytest.mark.parametrize("failure", ["memory", "exit"])
@pytest.mark.parametrize("command", ["fit-stats", "mmd", "diagnose"])
def test_failing_range_worker_exits_1_with_one_line(tmp_path, monkeypatch, capsys, failure, command):
    log = tmp_path / f"{failure}.jsonl"
    log.write_text(LF_LOG)
    monkeypatch.setattr(cli, "_RANGE_BYTES", 300)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(cli, "_parse_range", _failing_range)
    extra = {"fit-stats": [], "mmd": [str(log)], "diagnose": ["--figures", str(tmp_path / "figs")]}[command]
    assert dispatch([command, str(log), *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    with pytest.raises(ChildProcessError):  # every worker was joined
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("xs", [[1000.0, 1000.0, 1000.0000000000012], [1e17] * 3],
                         ids=["ulps-apart", "constant-1e17"])
def test_cli_diagnose_reports_every_log_fit_stats_accepts(tmp_path, capsys, xs):
    # offset_report built dx edges its own Histogram refused ("edges must be finite and strictly increasing"),
    # so diagnose exited 1 on a log fit-stats reads
    log = tmp_path / "log.jsonl"
    log.write_text("".join(record_line(gt=(0.0, 0.0, 1.0, 1.0), proposal=(x, 0.0, 1.0, 1.0)) + "\n" for x in xs))
    assert dispatch(["fit-stats", str(log)]) == 0
    figs = tmp_path / "figs"
    assert dispatch(["diagnose", str(log), "--figures", str(figs)]) == 0
    assert capsys.readouterr().err == ""
    assert len(list(figs.iterdir())) == 11
    edges = [float(line.split(",")[0]) for line in (figs / "offset_dx.csv").read_text().splitlines()[1:]]
    assert edges[0] <= min(xs) and edges == sorted(set(edges))


def test_single_pass_columns_are_not_copied_by_the_merge():
    part = cli._parse_lines([record_line(), "", record_line(proposal=(1.0, 2.0, 3.0, 4.0))], False)
    columns, errors = cli._merge_parts([part], False)
    assert columns is part[0] and errors == []
    assert columns.line_no.tolist() == [1, 3]

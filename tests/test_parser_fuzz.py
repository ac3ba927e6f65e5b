"""Arbitrary JSON in every field of the three input formats: a proposal-log
line, a model file and an experiment config. Each parser either accepts the
document or raises its own error type; no other exception escapes, so the
CLI always ends with a one-line message. The columnar log reader is checked
against ``parse_record`` applied line by line, on canonical lines its
pattern reads and on every other spelling; canonical lines written by
``serialize_record``, ``propcal sample`` and the benchmark's generator must
never reach ``parse_record``. Every log ``propcal sample`` writes is checked
against that parser. The CLI's range reader, which splits a large file
among processes, is checked against the single pass on the same files.
"""

import contextlib
import dataclasses
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from propcal import cli
from propcal.cli import LogParseError, ProposalLogRecord, dispatch, parse_log, parse_record, serialize_record
from propcal.geometry import BBox
from propcal.simulator import ExperimentConfig
from propcal.stats import model_from_json, model_to_json

GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**1024, max_value=10**400),  # beyond the float range
    st.integers(min_value=-(10**400), max_value=-(2**1024)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=12,
)
# four-element lists make the numeric checks run, not only the shape check
vectors = st.one_of(st.lists(scalars, min_size=4, max_size=4), values)

records = st.fixed_dictionaries(
    {
        "image_id": st.one_of(st.text(max_size=6), values),
        "gt": vectors,
        "gt_class": st.one_of(st.integers(min_value=0), values),
        "proposal": vectors,
        "source": st.one_of(st.sampled_from(["rpn", "sampled"]), values),
    },
    optional={"extra": values},
)

models = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.one_of(st.sampled_from(["gaussian", "uniform"]), values)},
        optional={name: vectors for name in ("mu", "var", "lo", "hi")},
    ),
    values,
)

_FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig)]
configs = st.one_of(
    st.dictionaries(st.sampled_from(_FIELDS), st.one_of(scalars, vectors), max_size=4), values
)


@settings(max_examples=400, deadline=None)
@given(records)
def test_parse_record_accepts_canonically_or_raises_log_parse_error(doc):
    try:
        rec = parse_record(json.dumps(doc), 7)
    except LogParseError as e:
        assert e.line_no == 7
        return
    canonical = serialize_record(rec)
    again = parse_record(canonical)
    assert again == rec
    assert serialize_record(again) == canonical


@settings(max_examples=300, deadline=None)
@given(models)
def test_model_from_json_raises_only_value_error(doc):
    try:
        model = model_from_json(json.dumps(doc))
    except ValueError:
        return
    # an accepted document holds exactly the values the model writes back
    names = ("mu", "var") if doc["kind"] == "gaussian" else ("lo", "hi")
    again = model_from_json(model_to_json(model))
    for name in names:
        assert getattr(model, name).tolist() == [float(v) for v in doc[name]]
        assert getattr(again, name).tobytes() == getattr(model, name).tobytes()


@settings(max_examples=300, deadline=None)
@given(configs)
def test_config_from_json_raises_only_value_error(doc):
    try:
        config = ExperimentConfig.from_json(json.dumps(doc))
    except ValueError:
        return
    assert ExperimentConfig.from_json(config.to_json()) == config


# Proposal logs mixing every line kind the reader treats differently: lines
# its per-line test accepts, lines only parse_record accepts (integer
# coordinates), blank lines, lines the array checks refuse and lines that
# fail before them.
finite = st.floats(allow_nan=False, allow_infinity=False)
size = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
float_box = st.tuples(finite, finite, size, size).map(list)
int_box = st.tuples(st.integers(-(2**80), 2**80), st.integers(-(2**80), 2**80),
                    st.integers(1, 2**80), st.integers(1, 2**80)).map(list)
good_doc = st.fixed_dictionaries({
    "image_id": st.text(max_size=6),
    "gt": float_box,
    "gt_class": st.integers(0, 2**63 - 1),
    "proposal": float_box,
    "source": st.sampled_from(["rpn", "sampled"]),
})


def _with(field, value):
    return good_doc.map(lambda d: json.dumps({**d, field: value}))


def _box_with(value, at):
    return good_doc.map(lambda d: json.dumps({**d, "gt": d["gt"][:at] + [value] + d["gt"][at + 1:]}))


RECORD_FIELDS = ("image_id", "gt", "gt_class", "proposal", "source")  # the canonical key order


def _ordered(d):
    return {field: d[field] for field in RECORD_FIELDS}


def _respelled(d, at, text):
    """The canonical line of ``d`` with coordinate ``at`` of its gt written as ``text``."""
    coords = [repr(v) for v in d["gt"]]
    coords[at] = text
    return json.dumps(_ordered(d)).replace(json.dumps(d["gt"]), f"[{', '.join(coords)}]", 1)


good_line = good_doc.map(json.dumps)  # Hypothesis draws the keys of good_doc in any order
int_line = st.builds(lambda d, g, p: json.dumps({**d, "gt": g, "proposal": p}), good_doc, int_box, int_box)
blank_line = st.sampled_from(["", "   ", "\t"])
at = st.integers(0, 3)
# The form serialize_record writes, which the reader takes from its pattern without json.loads
printable_id = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=6)
canonical_line = st.builds(lambda d, iid: json.dumps(_ordered({**d, "image_id": iid})), good_doc, printable_id)
# Other spellings of good records, each of which must read as parse_record reads it
spelled_line = st.one_of(
    good_doc.map(lambda d: json.dumps(_ordered(d), separators=(",", ":"))),
    good_doc.map(lambda d: json.dumps(dict(reversed(_ordered(d).items())))),
    st.builds(lambda line, end: line + end, canonical_line, st.sampled_from(["\n", "\r\n"])),
    canonical_line.map(lambda line: " " + line),
    st.builds(_respelled, good_doc, at, st.sampled_from(
        ["1e2", "1E+2", "2.5e-3", "0e0", "-0.0", "-0e0", "5e-324", "4.9e-324", "2.2250738585072014e-308",
         "1.7976931348623157e+308", "1.00000000000000000001", "-0"])),
    st.builds(lambda d, cls: json.dumps(_ordered({**d, "gt_class": cls})), good_doc,
              st.integers(10**18, 2**63 - 1)),  # 19 digits
)
bad_line = st.one_of(
    at.flatmap(lambda i: _box_with(True, i)),                   # bool coordinate
    at.flatmap(lambda i: _box_with("1.0", i)),                  # string coordinate
    at.flatmap(lambda i: _box_with(10**400, i)),                # integer beyond the float range
    at.flatmap(lambda i: _box_with(1e400, i).map(lambda line: line.replace("Infinity", "1e400"))),
    at.flatmap(lambda i: _box_with(float("nan"), i)),
    st.sampled_from([0.0, -1.0, -0.0, -5e-324]).flatmap(lambda v: _box_with(v, 2)),  # w <= 0
    st.sampled_from([0, -3]).flatmap(lambda v: _box_with(v, 3)),                    # h <= 0
    _with("proposal", [1.0, 2.0, 3.0]),                          # wrong arity
    st.just("[" * 100_000 + "]" * 100_000),                      # nested too deeply
    good_doc.map(lambda d: json.dumps({**d, "extra": 1})),       # unknown field
    good_doc.map(lambda d: json.dumps({k: v for k, v in d.items() if k != "source"})),
    st.sampled_from(["[1, 2]", "3", '"rpn"', "null", "{broken"]),  # not an object
    _with("source", "oracle"),
    _with("gt_class", -1),
    _with("gt_class", 2**63),
    _with("gt_class", True),
    _with("image_id", 7),
)
logs = st.lists(st.one_of(good_line, canonical_line, spelled_line, int_line, blank_line, bad_line), max_size=25)


def _line_by_line(lines):
    """(records, their line numbers, LogParseErrors) of parse_record applied to each non-blank line."""
    records, line_nos, errors = [], [], []
    for line_no, line in enumerate(lines, start=1):
        if line.strip():
            try:
                records.append(parse_record(line, line_no))
                line_nos.append(line_no)
            except LogParseError as e:
                errors.append(e)
    return records, line_nos, errors


def _boxes(boxes):
    return np.array([(b.cx, b.cy, b.w, b.h) for b in boxes], dtype=np.float64).reshape(-1, 4)


def _assert_columns(cols, records, line_nos):
    assert len(cols) == len(records)
    assert cols.line_no.dtype == np.int64 and cols.line_no.tolist() == line_nos
    assert cols.gt_class.dtype == np.int64 and cols.gt_class.tolist() == [r.gt_class for r in records]
    for got, boxes in ((cols.gt, [r.gt for r in records]), (cols.proposal, [r.proposal for r in records])):
        want = _boxes(boxes)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _assert_parse_log_equals_line_by_line(lines):
    records, line_nos, errors = _line_by_line(lines)
    cols, messages = parse_log(lines, lenient=True)
    _assert_columns(cols, records, line_nos)
    assert messages == [str(e) for e in errors]
    if errors:
        with pytest.raises(LogParseError) as raised:
            parse_log(lines)
        assert str(raised.value) == str(errors[0])
        assert raised.value.line_no == errors[0].line_no
    else:
        strict, none = parse_log(lines)
        assert none == [] and strict.gt.tobytes() == cols.gt.tobytes()


@settings(max_examples=300, deadline=None)
@given(logs)
def test_parse_log_equals_parse_record_line_by_line(lines):
    _assert_parse_log_equals_line_by_line(lines)


def _boundary(gt="[1.5, 2.5, 3.5, 4.5]", image_id='"im0"', gt_class="3"):
    return (f'{{"image_id": {image_id}, "gt": {gt}, "gt_class": {gt_class}, '
            '"proposal": [1.0, 2.0, 3.0, 4.0], "source": "rpn"}')


# Lines at the edges of the canonical pattern, and whether it takes them
BOUNDARY_LINES = {
    "1e-05": (_boundary(gt="[1e-05, 2.0, 1e-05, 4.0]"), True),
    "5e-324": (_boundary(gt="[5e-324, 2.0, 3.0, 5e-324]"), True),
    "largest float": (_boundary(gt="[1.7976931348623157e+308, 2.0, 1.7976931348623157e+308, 4.0]"), True),
    "1e400": (_boundary(gt="[1e400, 2.0, 3.0, 4.0]"), True),  # inf, which the array check refuses
    "-0.0": (_boundary(gt="[-0.0, -0.0, 3.0, 4.0]"), True),
    "-0.0 width": (_boundary(gt="[1.0, 2.0, -0.0, 4.0]"), True),
    "NaN": (_boundary(gt="[NaN, 2.0, 3.0, 4.0]"), False),
    'id with \\"': (_boundary(image_id=r'"a\"b"'), False),
    "id with DEL": (_boundary(image_id='"a\x7fb"'), False),
    "class 10**17": (_boundary(gt_class=str(10**17)), True),
    "class 2**63 - 1": (_boundary(gt_class=str(2**63 - 1)), False),
    "class 2**63": (_boundary(gt_class=str(2**63)), False),
}


@pytest.mark.parametrize("name", BOUNDARY_LINES)
def test_boundary_line_reads_as_parse_record_reads_it(name):
    line, _ = BOUNDARY_LINES[name]
    _assert_parse_log_equals_line_by_line([line])
    _assert_parse_log_equals_line_by_line(["", line + "\n", _boundary() + "\n"])


# The same logs as files: any line ending, bytes that are not UTF-8 and
# maybe no final newline
bad_bytes = st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"])


@st.composite
def log_files(draw):
    data = b""
    for line in draw(logs):
        raw = line.encode()
        if draw(st.integers(0, 4)) == 0:
            at = draw(st.integers(0, len(raw)))
            raw = raw[:at] + draw(bad_bytes) + raw[at:]
        data += raw + draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    return data if draw(st.booleans()) else data.rstrip(b"\r\n")


def _read_log_outcome(path, lenient):
    """What ``cli._read_log`` gives: its columns' bytes or its error, and what it printed."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            cols = cli._read_log(str(path), lenient)
        except ValueError as e:
            return type(e), str(e), getattr(e, "line_no", None), err.getvalue()
    arrays = (cols.gt, cols.gt_class, cols.proposal, cols.line_no)
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays], err.getvalue()


# An array-refused row, then a line parse_record refuses, both in the last of three ranges
ARRAY_THEN_BAD = "".join(line + "\n" for line in [_boundary()] * 9 + [
    _boundary(gt="[1.5, 2.5, 0.0, 4.5]"), "{broken", _boundary()]).encode()


@settings(max_examples=120, deadline=None)
@example(ARRAY_THEN_BAD, 20, 40, 3)
@given(log_files(), st.integers(20, 80), st.integers(1, 40), st.sampled_from([3, 4]))
def test_range_reader_equals_the_single_pass(data, range_bytes, block_bytes, cpus):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "log.jsonl")
        path.write_bytes(data)
        for lenient in (True, False):
            want = _read_log_outcome(path, lenient)  # far below 2 * _RANGE_BYTES: one pass
            with mock.patch.object(cli, "_RANGE_BYTES", range_bytes), \
                    mock.patch.object(cli, "_BLOCK_BYTES", block_bytes), \
                    mock.patch.object(cli.os, "sched_getaffinity", lambda pid: set(range(cpus)), create=True):
                with open(path, "rb") as fh:
                    ranges = cli._line_ranges(fh)
                got = _read_log_outcome(path, lenient)
            assert got == want
            # the ranges cover the file, each cut right after a newline
            assert [start for start, _ in ranges[1:]] == [end for _, end in ranges[:-1]]
            assert ranges[0][0] == 0 and ranges[-1][1] == len(data) and len(ranges) <= cpus
            assert all(data[start - 1:start] == b"\n" for start, _ in ranges[1:])
    with pytest.raises(ChildProcessError):  # every worker was joined
        os.waitpid(-1, os.WNOHANG)


def _refuse(line, line_no=1):
    raise AssertionError(f"line {line_no} missed the canonical pattern: {line!r}")


def test_written_logs_never_reach_parse_record(monkeypatch, tmp_path):
    """serialize_record, ``propcal sample`` and perfbench/gen.py lines are all read by the pattern."""
    rng = np.random.default_rng(5)

    def box():
        return BBox(*rng.normal(300, 200, 2).tolist(), *rng.uniform(1e-3, 400, 2).tolist())

    recs = [ProposalLogRecord(f"im{i}", box(), i * 997, box(), ("rpn", "sampled")[i % 2]) for i in range(40)]
    recs.append(ProposalLogRecord("a b!#~", BBox(-0.0, 1e16, 5e-324, 1.7976931348623157e308), 10**18 - 1,
                                  BBox(1e-05, -1e-300, 2.5, 1e-07), "rpn"))
    gts, model, out = tmp_path / "gts.jsonl", tmp_path / "model.json", tmp_path / "out.jsonl"
    gts.write_text("".join(f'{{"image_id": "im{i // 3}", "gt": [{50 + i}.5, 60, 20, 31.25], "gt_class": {i}}}\n'
                           for i in range(12)))
    model.write_text(SAMPLE_MODEL)
    assert dispatch(["sample", str(gts), "--model", str(model), "-J", "4", "--image-size", "640", "480",
                     "-o", str(out)]) == 0
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, gen)  # its dataclass looks itself up there
    spec.loader.exec_module(gen)
    gen.proposal_log(1, 300, "a").write(tmp_path / "gen.jsonl")
    lines = [serialize_record(r) for r in recs]
    for path in (out, tmp_path / "gen.jsonl"):
        with open(path, encoding="utf-8") as fh:
            lines.extend(fh)  # with their newlines, as _read_log reads them
    lines.extend(line for line, canonical in BOUNDARY_LINES.values() if canonical)
    records, line_nos, errors = _line_by_line(lines)
    assert len(records) == len(lines) - 2 and len(errors) == 2  # the 1e400 and -0.0 width lines
    monkeypatch.setattr(cli, "parse_record", _refuse)
    cols, messages = parse_log(lines, lenient=True)
    _assert_columns(cols, records, line_nos)
    assert messages == [str(e) for e in errors]


# Ground-truth files for `propcal sample`: ids JSON must escape, float and
# integer coordinates, sizes down to the smallest subnormal, coordinates up to
# the float range (whose decodes can overflow) and the largest int64 class.
gt_box = st.one_of(
    st.tuples(st.floats(-50, 700), st.floats(-50, 700), st.floats(1e-3, 300), st.floats(1e-3, 300)).map(list),
    st.tuples(st.integers(-50, 700), st.integers(-50, 700), st.integers(1, 300), st.integers(1, 300)).map(list),
    float_box,
    int_box,
)
gt_doc = st.fixed_dictionaries({
    "image_id": st.one_of(st.text(max_size=6), st.text(st.sampled_from('"\\\x00\x1f\x7f\u00e9\u2028 a'), max_size=6)),
    "gt": gt_box,
    "gt_class": st.one_of(st.integers(0, 2**63 - 1), st.just(2**63 - 1)),
})
SAMPLE_MODEL = '{"kind": "gaussian", "mu": [0.02, -0.01, 0.04, 0.03], "var": [0.0144, 0.0144, 0.01, 0.01]}'


@settings(max_examples=150, deadline=None)
@given(st.lists(gt_doc, max_size=6), st.integers(1, 4), st.integers(0, 2**32),
       st.sampled_from([[], ["--image-size", "640", "480"]]))
def test_sample_writes_lines_its_parser_reads_back_byte_for_byte(docs, j, seed, image_size):
    with tempfile.TemporaryDirectory() as tmp:
        gts, model, out = Path(tmp, "gts.jsonl"), Path(tmp, "model.json"), Path(tmp, "out.jsonl")
        gts.write_text("".join(json.dumps(d) + "\n" for d in docs))
        model.write_text(SAMPLE_MODEL)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = dispatch(["sample", str(gts), "--model", str(model), "-J", str(j),
                           "--seed", str(seed), *image_size, "-o", str(out)])
        if rc != 0:  # a gt none of whose draws stay finite (and in the image) after every redraw
            assert rc == 1 and not out.exists()
            assert err.getvalue().startswith("error: resampling budget exhausted")
            assert err.getvalue().count("\n") == 1
            return
        assert err.getvalue() == ""
        lines = out.read_text().splitlines()
    assert len(lines) == j * len(docs)
    for line_no, line in enumerate(lines, start=1):
        rec = parse_record(line, line_no)
        assert serialize_record(rec) == line
        fields = {"image_id": rec.image_id, "gt": list(dataclasses.astuple(rec.gt)), "gt_class": rec.gt_class,
                  "proposal": list(dataclasses.astuple(rec.proposal)), "source": rec.source}
        assert line == json.dumps(fields)  # the canonical form is what json.dumps writes
        doc = docs[(line_no - 1) // j]
        assert (rec.image_id, rec.gt_class, rec.source) == (doc["image_id"], doc["gt_class"], "sampled")
        assert [rec.gt.cx, rec.gt.cy, rec.gt.w, rec.gt.h] == [float(v) for v in doc["gt"]]

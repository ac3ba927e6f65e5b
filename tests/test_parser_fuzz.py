"""Arbitrary JSON in every field of the three input formats: a proposal-log
line, a model file and an experiment config. Each parser either accepts the
document or raises its own error type; no other exception escapes, so the
CLI always ends with a one-line message. The columnar log reader is checked
against ``parse_record`` applied line by line, and every log ``propcal
sample`` writes is checked against that parser.
"""

import contextlib
import dataclasses
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propcal.cli import LogParseError, dispatch, parse_log, parse_record, serialize_record
from propcal.simulator import ExperimentConfig
from propcal.stats import model_from_json, model_to_json

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


good_line = good_doc.map(json.dumps)
int_line = st.builds(lambda d, g, p: json.dumps({**d, "gt": g, "proposal": p}), good_doc, int_box, int_box)
blank_line = st.sampled_from(["", "   ", "\t"])
at = st.integers(0, 3)
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
logs = st.lists(st.one_of(good_line, int_line, blank_line, bad_line), max_size=25)


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


@settings(max_examples=300, deadline=None)
@given(logs)
def test_parse_log_equals_parse_record_line_by_line(lines):
    records, line_nos, errors = _line_by_line(lines)
    cols, messages = parse_log(lines, lenient=True)
    assert len(cols) == len(records)
    assert cols.line_no.dtype == np.int64 and cols.line_no.tolist() == line_nos
    assert cols.image_id == [r.image_id for r in records]
    assert cols.source == [r.source for r in records]
    assert cols.gt_class.dtype == np.int64 and cols.gt_class.tolist() == [r.gt_class for r in records]
    for got, boxes in ((cols.gt, [r.gt for r in records]), (cols.proposal, [r.proposal for r in records])):
        want = _boxes(boxes)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert messages == [str(e) for e in errors]
    if errors:
        with pytest.raises(LogParseError) as raised:
            parse_log(lines)
        assert str(raised.value) == str(errors[0])
        assert raised.value.line_no == errors[0].line_no
    else:
        strict, none = parse_log(lines)
        assert none == [] and strict.gt.tobytes() == cols.gt.tobytes()


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

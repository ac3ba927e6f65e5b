"""Arbitrary JSON in every field of the three input formats: a proposal-log
line, a model file and an experiment config. Each parser either accepts the
document or raises its own error type; no other exception escapes, so the
CLI always ends with a one-line message.
"""

import dataclasses
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from propcal.cli import LogParseError, parse_record, serialize_record
from propcal.simulator import ExperimentConfig
from propcal.stats import model_from_json

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
        model_from_json(json.dumps(doc))
    except ValueError:
        pass


@settings(max_examples=300, deadline=None)
@given(configs)
def test_config_from_json_raises_only_value_error(doc):
    try:
        config = ExperimentConfig.from_json(json.dumps(doc))
    except ValueError:
        return
    assert ExperimentConfig.from_json(config.to_json()) == config


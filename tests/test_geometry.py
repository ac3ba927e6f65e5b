import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import apply_offset_loop, clip_loop, corners_loop, encode_offset_loop, iou_loop

from propcal.geometry import (
    BBox,
    OffsetVec,
    apply_offset,
    apply_offsets_array,
    as_rows4,
    clip_boxes_array,
    corners_array,
    encode_offset,
    encode_offsets_array,
    iou,
    iou_paired_array,
)


def test_as_rows4_takes_one_row_or_n_rows_of_four():
    assert as_rows4([1, 2, 3, 4]).tolist() == [[1.0, 2.0, 3.0, 4.0]]
    rows = np.arange(8.0).reshape(2, 4)
    assert as_rows4(rows).tolist() == rows.tolist()
    assert as_rows4(np.empty((0, 4))).shape == (0, 4)
    for shape in ((0,), (8,), (4, 3), (2, 6), (1, 1, 4), ()):
        with pytest.raises(ValueError, match=rf"got shape {re.escape(str(shape))}$"):
            as_rows4(np.zeros(shape))

boxes = st.builds(
    BBox,
    cx=st.floats(-500, 500),
    cy=st.floats(-500, 500),
    w=st.floats(0.5, 300),
    h=st.floats(0.5, 300),
)


def assert_box_close(a: BBox, b: BBox, rtol=1e-9):
    for u, v in zip(a.as_array(), b.as_array()):
        assert abs(u - v) <= rtol * max(1.0, abs(v))


def test_encode_identity():
    b = BBox(10, 20, 5, 8)
    assert encode_offset(b, b) == OffsetVec(0, 0, 0, 0)


def test_encode_hand_example():
    off = encode_offset(BBox(105, 98, 55, 36), BBox(100, 100, 50, 40))
    assert off.dx == pytest.approx(0.1, abs=1e-12)
    assert off.dy == pytest.approx(-0.05, abs=1e-12)
    assert off.dw == pytest.approx(0.1, abs=1e-12)
    assert off.dh == pytest.approx(-0.1, abs=1e-12)


def test_encode_width_doubling():
    off = encode_offset(BBox(0, 0, 20, 10), BBox(0, 0, 10, 10))
    assert off == OffsetVec(0, 0, 1, 0)


def test_apply_zero_offset():
    gt = BBox(3, 4, 5, 6)
    assert apply_offset(gt, OffsetVec(0, 0, 0, 0)) == gt


def test_apply_hand_example():
    out = apply_offset(BBox(100, 100, 50, 40), OffsetVec(0.1, -0.05, 0.1, -0.1))
    assert_box_close(out, BBox(105, 98, 55, 36))


def test_degenerate_offset_rejected():
    with pytest.raises(ValueError):
        OffsetVec(0, 0, 0, -1.0)
    with pytest.raises(ValueError):
        OffsetVec(0, 0, -1.5, 0)


def test_bbox_invariants():
    with pytest.raises(ValueError):
        BBox(0, 0, 0, 1)
    with pytest.raises(ValueError):
        BBox(0, 0, 1, -2)
    with pytest.raises(ValueError):
        BBox(math.nan, 0, 1, 1)


def test_iou_identity_and_disjoint():
    a = BBox(0, 0, 2, 2)
    assert iou(a, a) == 1.0
    assert iou(BBox(0, 0, 1, 1), BBox(10, 10, 1, 1)) == 0.0


def test_iou_hand_example():
    assert iou(BBox(0, 0, 2, 2), BBox(1, 0, 2, 2)) == pytest.approx(1 / 3, abs=1e-12)


def test_clip_noop_inside():
    clipped, valid = clip_boxes_array(np.array([[5.0, 5.0, 2.0, 2.0]]), 10, 10)
    assert valid.tolist() == [True] and clipped.tolist() == [[5.0, 5.0, 2.0, 2.0]]


def test_clip_hand_example():
    # corner form [-2, 2] x [0, 4] in a 10 x 10 image -> [0, 2] x [0, 4]
    clipped, valid = clip_boxes_array(np.array([[0.0, 2.0, 4.0, 4.0]]), 10, 10)
    assert valid.tolist() == [True] and clipped.tolist() == [[1.0, 2.0, 2.0, 4.0]]


@settings(max_examples=200, deadline=None)
@given(boxes, boxes)
def test_round_trip_property(p, gt):
    assert_box_close(apply_offset(gt, encode_offset(p, gt)), p)


@settings(max_examples=200, deadline=None)
@given(boxes, boxes, st.floats(1e-3, 1e3))
def test_scale_equivariance(p, gt, k):
    off = encode_offset(p, gt)
    ps = BBox(p.cx * k, p.cy * k, p.w * k, p.h * k)
    gs = BBox(gt.cx * k, gt.cy * k, gt.w * k, gt.h * k)
    off_s = encode_offset(ps, gs)
    for u, v in zip(off.as_array(), off_s.as_array()):
        assert abs(u - v) <= 1e-9 * max(1.0, abs(u))


@settings(max_examples=200, deadline=None)
@given(boxes, boxes)
def test_iou_symmetric_and_bounded(a, b):
    v = iou(a, b)
    assert v == iou(b, a)
    assert 0.0 <= v <= 1.0


def test_array_forms_match_scalar():
    rng = np.random.default_rng(7)
    props = np.column_stack([
        rng.uniform(-50, 50, 64), rng.uniform(-50, 50, 64),
        rng.uniform(1, 40, 64), rng.uniform(1, 40, 64),
    ])
    refs = np.column_stack([
        rng.uniform(-50, 50, 64), rng.uniform(-50, 50, 64),
        rng.uniform(1, 40, 64), rng.uniform(1, 40, 64),
    ])
    offs = encode_offsets_array(props, refs)
    back = apply_offsets_array(refs, offs)
    ious = iou_paired_array(props, refs)
    corners = corners_array(props)
    clipped, valid = clip_boxes_array(props, 30.0, 20.0)
    assert 0 < valid.sum() < 64
    for i in range(64):
        p, g = props[i].tolist(), refs[i].tolist()
        # same arithmetic per element as the loop oracles, so equal bit for bit
        assert offs[i].tolist() == list(encode_offset_loop(p, g))
        assert corners[i].tolist() == list(corners_loop(p))
        assert ious[i] == iou_loop(p, g)
        want = clip_loop(p, 30.0, 20.0)
        assert valid[i] == (want is not None)
        assert clipped[i].tolist() == (p if want is None else list(want))
        # w + dw * w instead of w * (1 + dw): equal up to rounding
        np.testing.assert_allclose(back[i], apply_offset_loop(g, offs[i].tolist()), rtol=1e-12)
        np.testing.assert_allclose(back[i], props[i], rtol=1e-9)
        # the scalar API runs the same kernels
        assert encode_offset(BBox(*p), BBox(*g)).as_array().tolist() == offs[i].tolist()
        assert iou(BBox(*p), BBox(*g)) == ious[i]
        assert BBox(*p).corners() == corners_loop(p)


def test_clip_boxes_array_flags_empty():
    boxes_arr = np.array([[5.0, 5.0, 2.0, 2.0], [-10.0, -10.0, 2.0, 2.0]])
    clipped, valid = clip_boxes_array(boxes_arr, 10, 10)
    assert valid.tolist() == [True, False]
    np.testing.assert_allclose(clipped[0], boxes_arr[0])

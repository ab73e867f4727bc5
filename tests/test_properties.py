"""Property tests: canonical dataset round trips, the vectorised kernels
(OKS, IoU, matching boxes, OSPA, the crop and heatmap decode) against scalar
loop references, the batched matching and set metric against a loop over
frames, the assignment solver against the enumeration oracle, the streamed
``remap-weights`` against the in-memory library path, malformed dataset,
mapping and container files, the dataset loader's faults against a
value-by-value reference walk, the documents it accepts against
``docs/dataset.schema.json``, ``eval`` with its forked ``--gt`` read
against reading the two files in turn, and every command's outputs, which
land all or none when one of them cannot be written."""

import contextlib
import copy
import csv
import io
import itertools
import json
import math
import operator
import os
import pickle
import re
import struct
from functools import reduce
from pathlib import Path
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st
from coco import PANOPOSE, coco_ap, matching_box
from synth import DEFAULT_PANO, dataset, mapping_doc, person, random_pose

from panopose import cli, metrics
from panopose.dataio import (
    Dataset,
    _frame_id_rule,
    _load,
    _number,
    dataset_to_canonical_json,
    load_ground_truth,
    save_dataset,
)
from panopose.decode import decode_heatmaps
from panopose.errors import RowError, ValidationError, _fields
from panopose.geometry import (
    CROP_HEIGHT,
    CROP_WIDTH,
    PanoramaSpec,
    _areas,
    _iou,
    _matching_boxes,
    _nms_rows,
    _pose_bboxes,
    _ranking,
    crop_transform,
    iou,
    nms,
)
from panopose.metrics import (
    EvalConfig,
    _capped,
    _match,
    _optimal_cost,
    _ospa_capped,
    _pair_table,
    default_oks_params,
    evaluate,
    frame_table_csv,
    oks,
    ospa,
    report_json,
)
from panopose.schema import COCO17, JRDB17, KeypointSchema, SchemaMapping, default_mapping, load_mapping
from panopose.weights import (
    _Container,
    load_tensor_map,
    remap_head_weights,
    save_tensor_map,
)

# Derived examples and no example database, so every run checks the same
# cases. No explain phase: on a failing OKS property it ran for minutes and
# grew past 600 MB, while shrinking alone reports the failure in about 50 s.
PROPERTY = settings(
    derandomize=True,
    database=None,
    deadline=None,
    phases=[phase for phase in Phase if phase is not Phase.explain],
)

PANO = PanoramaSpec(2000.0, 600.0)
NUM_KEYPOINTS = 17
PARAMS = default_oks_params("jrdb17")

finite = st.floats(allow_nan=False, allow_infinity=False)
visibility = st.sampled_from([0, 1, 2])


def poses(coord=finite, vis=visibility):
    row = st.tuples(coord, coord, vis)
    return st.lists(row, min_size=NUM_KEYPOINTS, max_size=NUM_KEYPOINTS)


def _reference_oks(pred: list, gt: list, area: float, sigmas=PARAMS.sigmas) -> float:
    """The OKS formula as a scalar loop: math.exp and a sequential sum."""
    terms = []
    for (xp, yp, _), (xg, yg, vg), k in zip(pred, gt, sigmas):
        if vg > 0:
            d2 = (xp - xg) ** 2 + (yp - yg) ** 2
            terms.append(math.exp(-d2 / (2.0 * area * k * k)))
    return sum(terms) / len(terms)


coord = st.floats(0.0, 100.0)
box = st.builds(
    lambda x, y, w, h: (x, y, x + w, y + h),
    coord, coord, st.floats(1.0, 100.0), st.floats(1.0, 100.0),
)
score = st.floats(0.0, 1.0)
predictions = st.lists(
    st.one_of(
        st.builds(lambda p, s: person(pose=p, score=s), poses(coord), score),
        st.builds(lambda b, s: person(box=b, score=s), box, score),  # no pose
    ),
    max_size=6,
)
ground_truths = st.lists(
    st.one_of(
        st.builds(lambda p: person(pose=p), poses(coord)),
        st.builds(lambda p, b: person(pose=p, box=b), poses(coord), box),
        st.builds(lambda p: person(pose=p), poses(coord, st.just(0))),  # no labeled keypoint
        st.builds(lambda b: person(box=b), box),
    ),
    max_size=6,
)

any_person = st.builds(
    lambda pid, parts, s: person(id=pid, box=parts[0], pose=parts[1], score=s),
    st.none() | st.text(max_size=3),
    st.one_of(
        st.tuples(box, st.none()),  # box only
        st.tuples(st.none(), poses()),  # pose only, any finite coordinates
        st.tuples(st.none(), poses(coord, st.just(0))),  # no labeled keypoint
        st.tuples(box, poses(coord)),
    ),
    st.none() | score,
)


@PROPERTY
@given(st.lists(
    st.tuples(st.text(min_size=1, max_size=3), st.lists(any_person, max_size=3)),
    max_size=4,
    unique_by=lambda frame: frame[0],
))
def test_canonical_json_parse_canonical_is_byte_stable(frames):
    ds = dataset("jrdb17", PANO, frames)
    text = dataset_to_canonical_json(ds)
    back = _load(text, JRDB17, False)
    assert back == ds
    assert dataset_to_canonical_json(back) == text


def _num(value: float) -> str:
    # + 0.0 makes -0.0 print as 0: "-0" would read back as the integer 0.
    return "%.17g" % (float(value) + 0.0)


def _reference_person_json(person_id, box, score, pose) -> str:
    parts = []
    if person_id is not None:
        parts.append(f'"id":{json.dumps(person_id)}')
    if box is not None:
        parts.append('"box":[%s]' % ",".join(map(_num, box)))
    if score is not None:
        parts.append(f'"score":{_num(score)}')
    if pose is not None:
        rows = ",".join("[%s,%s,%d]" % (_num(x), _num(y), v) for x, y, v in pose)
        parts.append(f'"pose":[{rows}]')
    return "{" + ",".join(parts) + "}"


def _reference_canonical_json(ds: Dataset) -> str:
    """The canonical form written one number at a time."""
    frames = []
    bounds = ds.offsets.tolist()
    for fid, start, stop in zip(ds.frame_ids, bounds, bounds[1:]):
        rows = zip(*(getattr(ds, name)[start:stop].tolist() for name in
                     ("ids", "boxes", "has_box", "scores", "has_score", "keypoints", "has_pose")))
        persons = ",".join(
            _reference_person_json(pid, box if has_box else None, score if has_score else None,
                                   pose if has_pose else None)
            for pid, box, has_box, score, has_score, pose, has_pose in rows
        )
        frames.append('{"frame_id":%s,"persons":[%s]}' % (json.dumps(fid), persons))
    return '{"schema":%s,"pano":{"width":%s,"height":%s},"frames":[%s]}\n' % (
        json.dumps(ds.schema_id), _num(ds.pano.width), _num(ds.pano.height), ",".join(frames))


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, 1.0, -7.0, 2.0**53, 1e16, 0.1, 1 / 3]
edge_float = st.sampled_from(EDGE_FLOATS) | finite
edge_box = st.tuples(edge_float, edge_float, edge_float, edge_float).filter(
    lambda b: b[0] < b[2] and b[1] < b[3] and 0.0 < (b[2] - b[0]) * (b[3] - b[1]) < math.inf
)
edge_score = st.sampled_from([0.0, -0.0, 5e-324, 1.0, 0.5, 1 / 3]) | st.floats(0.0, 1.0)
person_ids = st.none() | st.sampled_from(['"', '\\', 'a"b', "ü", " ", "名前", ""]) | st.text(max_size=4)


@st.composite
def column_arguments(draw, ids=person_ids, schema_ids=st.just("jrdb17")):
    """Constructor arguments of a dataset: any mix of id (drawn from
    ``ids``), box, score and pose (box or pose present), K of 0, 1 or 17,
    and numbers at the edges of the float range."""
    k = draw(st.sampled_from([0, 1, 17]))
    pose = st.lists(st.tuples(edge_float, edge_float, visibility), min_size=k, max_size=k)
    frame_ids = draw(st.lists(st.text(min_size=1, max_size=3), max_size=4, unique=True))
    sizes = [draw(st.integers(0, 3)) for _ in frame_ids]
    n = sum(sizes)
    has_box, has_pose = zip(*draw(st.lists(
        st.sampled_from([(True, False), (False, True), (True, True)]), min_size=n, max_size=n,
    ))) if n else ((), ())
    scores = draw(st.lists(st.none() | edge_score, min_size=n, max_size=n))
    return dict(
        schema_id=draw(schema_ids),
        pano=PanoramaSpec(draw(edge_float.filter(lambda v: v > 0)), draw(st.sampled_from([600.0, 5e-324]))),
        frame_ids=frame_ids, offsets=np.cumsum([0, *sizes]),
        ids=draw(st.lists(ids, min_size=n, max_size=n)),
        boxes=[draw(edge_box) if has else (0.0, 0.0, 0.0, 0.0) for has in has_box],
        has_box=list(has_box),
        scores=[0.0 if s is None else s for s in scores],
        has_score=[s is not None for s in scores],
        keypoints=np.array([draw(pose) if has else [(0.0, 0.0, 0)] * k for has in has_pose],
                           dtype=np.float64).reshape(n, k, 3),
        has_pose=list(has_pose),
    )


def _built(arguments: dict) -> Dataset | None:
    """The dataset of constructor ``arguments``, or None where it refuses them."""
    try:
        return Dataset(**arguments)
    except ValidationError:
        return None


# Datasets built from their columns (a pose of K = 0 keypoints is refused).
column_datasets = column_arguments().map(_built).filter(lambda ds: ds is not None)


@PROPERTY
@given(column_datasets)
def test_canonical_json_is_the_per_number_writer(ds):
    assert dataset_to_canonical_json(ds) == _reference_canonical_json(ds)


@PROPERTY
@given(column_arguments(person_ids | st.sampled_from([5, b"p", 0.5]), st.text(max_size=3)))
def test_every_dataset_the_constructor_takes_is_read_back_from_its_file(tmp_path_factory, arguments):
    ds = _built(arguments)
    if ds is None:
        return
    names = tuple(str(k) for k in range(max(ds.keypoints.shape[1], 1)))
    path = tmp_path_factory.getbasetemp() / "written.json"
    save_dataset(ds, path)
    assert load_ground_truth(path, KeypointSchema(ds.schema_id, names)) == ds


def _labeled(person: dict) -> bool:
    return "pose" in person and any(v > 0 for _, _, v in person["pose"])


@PROPERTY
@given(predictions, ground_truths)
def test_oks_matrix_agrees_with_scalar_reference(preds, gts):
    boxes = [matching_box(g.get("box"), g.get("pose")) for g in gts]
    rows = [p for p in preds if "pose" in p]
    cols = [j for j, g in enumerate(gts) if _labeled(g)]
    for p in rows:
        for j in cols:
            expected = _reference_oks(p["pose"], gts[j]["pose"], _area(boxes[j]))
            assert math.isclose(oks(p["pose"], gts[j]["pose"], PARAMS, boxes[j]), expected,
                                rel_tol=1e-12)

    p = dataset("jrdb17", PANO, [("f", preds)])
    g = dataset("jrdb17", PANO, [("f", gts)])
    areas = np.array([_area(b) for b in boxes])
    for pi, gi, value in _match(p, g, _pair_table(p, g), _ranking(p.scores), areas, PARAMS, 0.5):
        assert "pose" in preds[pi] and _labeled(gts[gi])
        assert value >= 0.5
        expected = _reference_oks(preds[pi]["pose"], gts[gi]["pose"], _area(boxes[gi]))
        assert math.isclose(value, expected, rel_tol=1e-12)


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def _area(box: tuple) -> float:
    x1, y1, x2, y2 = box
    return (x2 - x1) * (y2 - y1)


def _reference_iou(a: tuple, b: tuple) -> float:
    """The IoU formula on Python floats."""
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    return inter / (_area(a) + _area(b) - inter)


fraction = st.floats(0.0, 0.4)
edge = st.floats(-1000.0, 1000.0)
side = st.floats(1e-3, 500.0)
any_box = st.builds(lambda x, y, w, h: (x, y, x + w, y + h), edge, edge, side, side)


def _related(a: tuple, how: str, f: tuple, w: float, h: float) -> tuple:
    x1, y1, x2, y2 = a
    if how == "identical":
        return a
    if how == "nested":
        return (x1 + f[0] * (x2 - x1), y1 + f[1] * (y2 - y1),
                x2 - f[2] * (x2 - x1), y2 - f[3] * (y2 - y1))
    if how == "touching":  # shares the right edge of ``a``
        return (x2, y1 + f[0] * (y2 - y1), x2 + w, y2 + h)
    return (x2 + w, y2 + h, x2 + 2 * w, y2 + 2 * h)  # disjoint


box_pairs = st.builds(
    lambda a, how, f, w, h: [a, _related(a, how, f, w, h)],
    any_box,
    st.sampled_from(["identical", "nested", "touching", "disjoint"]),
    st.tuples(fraction, fraction, fraction, fraction),
    side,
    side,
)


@PROPERTY
@given(st.lists(box_pairs, min_size=1, max_size=4))
def test_iou_matrix_is_the_scalar_formula_bit_for_bit(pairs):
    boxes = [b for pair in pairs for b in pair]
    rows = np.array(boxes)
    for matrix in (_iou(rows[:, None], rows), iou(rows, rows)):
        for i, a in enumerate(boxes):
            assert _bits(matrix[i]) == _bits(_reference_iou(a, b) for b in boxes)


def _reference_crop(box: tuple, out_w: int, out_h: int, padding: float) -> tuple:
    """The crop of one box as a scalar ``(a, b, c, d, e, f)`` transform: the
    box grown to the out_w:out_h aspect, scaled by ``padding`` about its
    center and mapped onto [0, out_w) x [0, out_h)."""
    x1, y1, x2, y2 = map(float, box)
    w = x2 - x1
    h = y2 - y1
    if w * out_h < h * out_w:
        w = h * (out_w / out_h)
    elif w * out_h > h * out_w:
        h = w * (out_h / out_w)
    w *= padding
    h *= padding
    cx, cy = 0.5 * (x1 + x2), 0.5 * (y1 + y2)
    sx = out_w / w
    sy = out_h / h
    return (sx, 0.0, -(cx - 0.5 * w) * sx, 0.0, sy, -(cy - 0.5 * h) * sy)


def _reference_inverse(t: tuple) -> tuple:
    """The inverse of a scalar ``(a, b, c, d, e, f)`` transform."""
    a, b, c, d, e, f = t
    det = a * e - b * d
    return (e / det, -b / det, (b * f - e * c) / det, -d / det, a / det, (d * c - a * f) / det)


def _reference_apply(t: tuple, x: float, y: float) -> tuple[float, float]:
    a, b, c, d, e, f = t
    return (a * x + b * y + c, d * x + e * y + f)


def _usable(t: tuple) -> bool:
    """Finite coefficients and a non-zero determinant."""
    a, b, _, d, e, _ = t
    return all(map(math.isfinite, t)) and a * e - b * d != 0.0


# Integer corners and 3:4 sides make the aspect tie exact; offsets of a
# pixel fraction fall on either side of it.
corner = st.integers(-1000, 1000)
tied_box = st.builds(lambda x, y, k, dw: (x, y, x + 3 * k + dw, y + 4 * k),
                     corner, corner, st.integers(1, 300), st.sampled_from([0, 0, -1e-9, 1e-9, -0.5, 0.5]))


@PROPERTY
@given(st.lists(st.one_of(any_box, tied_box), max_size=6),
       st.one_of(st.floats(0.0, 4.0, exclude_min=True), st.sampled_from([1.0, 1.25, 4.0, 5e-324, 1e-310])))
def test_crop_transform_is_the_scalar_crop_bit_for_bit(boxes, padding):
    expected = []
    for box in boxes:
        try:
            crop = _reference_crop(box, CROP_WIDTH, CROP_HEIGHT, padding)
            usable = _usable(crop) and _usable(_reference_inverse(crop))
        except ZeroDivisionError:
            usable = False
        expected.append(crop if usable else None)
    rows = np.array(boxes, dtype=np.float64).reshape(-1, 4)
    if None in expected:
        with pytest.raises(RowError, match=f"^padding {padding!r} gives a ") as fault:
            crop_transform(rows, CROP_WIDTH, CROP_HEIGHT, padding)
        assert fault.value.row == expected.index(None)
        return
    crops = crop_transform(rows, CROP_WIDTH, CROP_HEIGHT, padding)
    assert crops.shape == (len(boxes), 2, 3)
    for crop, reference in zip(crops, expected):
        assert _bits(crop.ravel()) == _bits(reference)


def _reference_decode(values: np.ndarray, stride: float, crop: np.ndarray):
    """One keypoint at a time, on the grids converted to float64."""
    grids = np.array(values, dtype=np.float64)
    k, h, w = grids.shape
    inv = _reference_inverse(crop.ravel().tolist())

    def quarter(before: float, after: float) -> float:
        return 0.25 if after > before else -0.25 if after < before else 0.0

    keypoints, confidences = [], []
    for grid in grids:
        i, j = divmod(int(np.argmax(grid)), w)
        dx = quarter(grid[i, j - 1], grid[i, j + 1]) if 0 < j < w - 1 else 0.0
        dy = quarter(grid[i - 1, j], grid[i + 1, j]) if 0 < i < h - 1 else 0.0
        x, y = _reference_apply(inv, (j + 0.5 + dx) * stride, (i + 0.5 + dy) * stride)
        keypoints.append((x, y, 2.0))
        confidences.append(grid[i, j])
    return keypoints, confidences


# Few distinct values, so ties and equal neighbours are common. The int64
# pool holds neighbours above 2**53 that are equal once in float64.
GRID_POOLS = {
    np.float32: [0.0, 0.25, 1.0, -3.5, 3.0e38],
    np.float64: [0.0, 0.25, 1.0, -3.5, 1e308, -np.inf],
    np.int64: [0, 1, -7, 2**53, 2**53 + 1, 2**62, 2**62 + 1],
}


@st.composite
def heatmap_grids(draw):
    dtype = draw(st.sampled_from(list(GRID_POOLS)))
    k, h, w = draw(st.integers(1, 3)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cells = draw(st.lists(st.sampled_from(GRID_POOLS[dtype]), min_size=k * h * w, max_size=k * h * w))
    values = np.array(cells, dtype=dtype).reshape(k, h, w)
    if dtype is not np.int64 and draw(st.booleans()):
        cell = draw(st.integers(0, values.size - 1))
        values.flat[cell] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return values


coefficient = st.floats(-4.0, 4.0)
offset = st.floats(-500.0, 500.0)
transforms = st.tuples(coefficient, coefficient, offset, coefficient, coefficient, offset).filter(
    lambda m: abs(m[0] * m[4] - m[1] * m[3]) > 1e-3
).map(lambda m: np.reshape(m, (2, 3)))
IDENTITY = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


@PROPERTY
@given(heatmap_grids(), st.sampled_from([4.0, 1.0, 0.3]), transforms)
@example(np.array([[[2**53, 2**53 + 1, 2**53]]], dtype=np.int64), 4.0, IDENTITY)
@example(np.array([[[0.0], [1.0], [1.0]]], dtype=np.float32), 4.0, IDENTITY)
@example(np.array([[[0.5, 1.0, 0.25]]], dtype=np.float64), 4.0, IDENTITY)
@example(np.array([[[-np.inf, 1.0, -np.inf]]], dtype=np.float64), 4.0, IDENTITY)
def test_decode_is_the_keypoint_loop_bit_for_bit(values, stride, crop):
    keypoints, confidences = _reference_decode(values, stride, crop)
    try:
        kps, conf = decode_heatmaps(values, stride, crop)
    except ValidationError:  # raised exactly when some grid's peak is not finite
        assert not np.isfinite(confidences).all()
        return
    assert np.isfinite(confidences).all()
    assert conf.dtype == np.float64
    assert _bits(conf) == _bits(confidences)
    assert _bits(kps.ravel()) == _bits(np.ravel(keypoints))


@st.composite
def planted_peaks(draw):
    """A grid size and, per keypoint, a σ of 1-3 cells and a peak in cell
    units (cell (i, j) spans [j, j + 1) x [i, i + 1)) at least 0.01 cell
    inside the grid's outer ring, so that the argmax cell has both
    neighbours on each axis."""
    h, w = draw(st.integers(3, 24)), draw(st.integers(3, 24))
    peak = st.tuples(st.floats(1.01, w - 1.01), st.floats(1.01, h - 1.01), st.floats(1.0, 3.0))
    return h, w, draw(st.lists(peak, min_size=1, max_size=4))


@PROPERTY
@given(
    planted_peaks(),
    st.sampled_from([2.0, 4.0, 8.0]),
    st.builds(lambda x, y, w, h: (x, y, x + w, y + h),
              st.floats(0.0, 3700.0), st.floats(0.0, 480.0), st.floats(4.0, 400.0), st.floats(4.0, 400.0)),
)
def test_decode_lands_within_a_quarter_cell_of_a_symmetric_peak(peaks, stride, pano_box):
    # README: per axis, at most stride/4 crop px from the peak of a symmetric
    # unimodal grid whose argmax cell has both neighbours.
    h, w, planted = peaks
    crop = crop_transform([pano_box], w * stride, h * stride)[0]
    j, i = np.arange(w) + 0.5, np.arange(h)[:, None] + 0.5
    grids = np.array([np.exp(-((j - x) ** 2 + (i - y) ** 2) / (2.0 * s * s)) for x, y, s in planted],
                     dtype=np.float32)
    keypoints, _ = decode_heatmaps(grids, stride, crop)
    for (x, y, _), (px, py, _) in zip(planted, keypoints):
        # The peak in panorama px, through the axis-aligned crop by hand.
        true_x = (x * stride - crop[0, 2]) / crop[0, 0]
        true_y = (y * stride - crop[1, 2]) / crop[1, 1]
        # A float32 tie of the two neighbours may shift the wrong way.
        assert abs(px - true_x) * crop[0, 0] <= stride * (0.25 + 1e-6)
        assert abs(py - true_y) * crop[1, 1] <= stride * (0.25 + 1e-6)


# Few distinct values per container dtype, so ties and equal neighbours are
# common; the grids are at most 3 x 3, so most peaks lie on an edge.
CONTAINER_POOLS = {
    np.float32: [0.0, 0.25, 1.0, -3.5, 3.0e38, np.nan],
    np.float64: [0.0, 0.25, 1.0, -3.5, 1e308, -np.inf],
    np.int32: [-2**31, 0, 7, 2**31 - 1],
    np.uint8: [0, 1, 255],
}


@st.composite
def detection_grids(draw, h, w):
    dtype = draw(st.sampled_from(list(CONTAINER_POOLS)))
    size = NUM_KEYPOINTS * h * w
    cells = draw(st.lists(st.sampled_from(CONTAINER_POOLS[dtype]), min_size=size, max_size=size))
    return np.array(cells, dtype=dtype).reshape(NUM_KEYPOINTS, h, w)


@st.composite
def detection_frames(draw):
    """Frames of (box, score, grid) detections whose grids share one shape,
    as ``decode`` requires."""
    h, w = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    detection = st.tuples(box, score, detection_grids(h, w))
    return draw(st.lists(st.lists(detection, max_size=3), min_size=1, max_size=3))


@PROPERTY
@given(
    detection_frames(),
    st.sampled_from([4.0, 1.0, 0.3]),
    st.sampled_from([1.0, 1.25]),
)
def test_decode_command_is_decode_heatmaps_per_detection(tmp_path_factory, frames, stride, padding):
    # Frames are named so that file order differs from the sorted order in
    # which the command visits them.
    base = tmp_path_factory.getbasetemp()
    named = [(f"f{len(frames) - f}", dets) for f, dets in enumerate(frames)]
    dets = dataset("jrdb17", PANO, [(fid, [person(box=b, score=s) for b, s, _ in d]) for fid, d in named])
    save_dataset(dets, base / "dets.json")
    grids = {f"{fid}/{i}": grid for fid, d in named for i, (_, _, grid) in enumerate(d)}
    save_tensor_map(grids, base / "heat.bin")
    (base / "pred.json").unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.run(["decode", "--heatmaps", str(base / "heat.bin"), "--dets", str(base / "dets.json"),
                        "--out", str(base / "pred.json"), "--stride", str(stride),
                        "--padding", str(padding)])

    # The crop is the grid at the stride; with no detections nothing is cropped.
    _, h, w = next(iter(grids.values())).shape if grids else (0, 1, 1)
    crops = crop_transform(dets.boxes, w * stride, h * stride, padding)
    keypoints = []
    bounds = dets.offsets.tolist()
    for fid, start, stop in zip(dets.frame_ids, bounds, bounds[1:]):
        for i, row in enumerate(range(start, stop)):
            try:
                keypoints.append(decode_heatmaps(grids[f"{fid}/{i}"], stride, crops[row])[0])
            except ValidationError as exc:
                assert code == 1
                assert err.getvalue() == f"error: frame {fid!r}, person {i}: heatmap tensor '{fid}/{i}': {exc}\n"
                assert not (base / "pred.json").exists()
                return
    assert code == 0, err.getvalue()
    expected = dets._with(keypoints=np.reshape(keypoints, (len(dets.ids), NUM_KEYPOINTS, 3)),
                          has_pose=np.ones(len(dets.ids), dtype=bool))
    assert (base / "pred.json").read_text(encoding="utf-8") == dataset_to_canonical_json(expected)


def _reference_nms(boxes: list[tuple], scores: list[float], threshold: float) -> list[int]:
    """Greedy NMS with the scalar IoU, one candidate at a time."""
    kept: list[int] = []
    for i in sorted(range(len(boxes)), key=lambda i: (-scores[i], i)):
        if all(_reference_iou(boxes[i], boxes[j]) < threshold for j in kept):
            kept.append(i)
    return kept


def test_nms_over_several_blocks_is_the_greedy_loop():
    # 700 boxes span eleven 64-candidate blocks; scores in tenths tie often.
    rng = np.random.default_rng(83)
    xy = rng.uniform(0.0, 1500.0, (700, 2))
    wh = rng.uniform(20.0, 300.0, (700, 2))
    scores = np.round(rng.uniform(0.0, 1.0, 700), 1)
    boxes = [(x, y, x + w, y + h) for (x, y), (w, h) in zip(xy.tolist(), wh.tolist())]
    for threshold in (0.0, 0.3, 0.5, 1.0):
        expected = _reference_nms(boxes, scores.tolist(), threshold)
        assert _nms_rows(np.array(boxes), scores, [0, len(boxes)], threshold) == expected
        assert nms(boxes, scores, threshold).tolist() == expected


def _people(num_kps: int):
    centre = st.one_of(st.floats(-1e4, 1e4), st.sampled_from([3e6, -1e300, 1e308]))
    # Offsets below 1e-9 give extents the 1e-9 floor widens.
    offset = st.one_of(st.floats(-1e-9, 1e-9), st.floats(-100.0, 100.0), finite)
    row = st.tuples(offset, offset, visibility)
    pose = (
        st.builds(
            lambda c, rows: np.array([(c + dx, c + dy, v) for dx, dy, v in rows]),
            centre,
            st.lists(row, min_size=num_kps, max_size=num_kps),
        )
        .filter(lambda kps: np.isfinite(kps).all())
    )
    unlabeled = pose.map(lambda kps: kps * [1.0, 1.0, 0.0])
    no_pose = np.zeros((num_kps, 3))
    # (box or None, [K, 3] keypoints), zeros for a person without a pose
    person = st.one_of(
        st.tuples(st.none(), pose),
        st.tuples(st.none(), unlabeled),
        st.tuples(any_box, pose),
        st.tuples(any_box, st.just(no_pose)),
    )
    return st.lists(person, max_size=6)


@PROPERTY
@given(st.integers(1, 5).flatmap(_people))
def test_matching_boxes_are_the_person_box_loop_bit_for_bit(persons):
    boxes = np.array([box or (0.0,) * 4 for box, _ in persons]).reshape(-1, 4)
    has_box = np.array([box is not None for box, _ in persons], dtype=bool)
    keypoints = np.array([kps for _, kps in persons] or np.zeros((0, 1, 3)))
    try:
        expected = [matching_box(box, kps) for box, kps in persons]
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            _matching_boxes(boxes, has_box, keypoints)
        return
    rows = _matching_boxes(boxes, has_box, keypoints)
    for row, box in zip(rows, expected):
        assert _bits(row) == _bits(box)


def _reference_ospa(dist: list[list[float]], cutoff: float, order: float) -> float:
    """The set metric with its distance matrix filled one pair at a time."""
    m = len(dist)
    n = len(dist[0]) if dist else 0
    if m == 0 or n == 0:
        return 0.0 if m == n else float(cutoff)
    capped = np.empty((m, n))
    for i in range(m):
        for j in range(n):
            d = dist[i][j]
            if not (math.isfinite(d) and d >= 0):
                raise ValueError(f"base distance must be finite and >= 0, got {d}")
            capped[i, j] = min(d, cutoff)
    powed = capped ** order
    if m > n:
        powed = powed.T
        m, n = n, m
    return float(((cutoff ** order) * (n - m) + _optimal_cost(powed)) / n) ** (1.0 / order)


# The enumeration oracle's size limit: the smaller side and the number of
# assignments it enumerates.
_ORACLE_MAX_DIM = 8
_ORACLE_MAX_ASSIGNMENTS = 2_000_000


def brute_force_assignment(cost) -> tuple[dict[int, int], float]:
    """Exact minimum-cost injective assignment of the smaller dimension, by
    enumeration: ``(assignment, total_cost)``, the assignment mapping row
    indices to column indices when rows <= cols and column indices to row
    indices otherwise, and the cost summed in that order. Candidates are
    enumerated in lexicographic order with strict improvement, so ties
    resolve to the lexicographically smallest optimum."""
    arr = np.asarray(cost, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"cost must be a 2-D matrix, got ndim={arr.ndim}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("cost entries must be finite")
    if arr.size == 0:
        return {}, 0.0
    mat = arr.T if arr.shape[0] > arr.shape[1] else arr
    m, n = mat.shape
    if m > _ORACLE_MAX_DIM or math.perm(n, m) > _ORACLE_MAX_ASSIGNMENTS:
        raise ValueError(
            f"dimension above oracle limit: {m}x{n} "
            f"(smaller dim <= {_ORACLE_MAX_DIM} and enumerable assignments required)"
        )
    perms = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(n), m)),
        dtype=np.intp,
    ).reshape(-1, m)
    totals = mat[np.arange(m), perms].sum(axis=1)
    best = perms[int(np.argmin(totals))]  # first minimum = lexicographically smallest
    total_cost = float(sum(float(mat[i, best[i]]) for i in range(m)))
    return {i: int(best[i]) for i in range(m)}, total_cost


def subset_assignment_cost(cost) -> float:
    """Exact minimum-cost injective assignment cost of the smaller dimension,
    by dynamic programming over the subsets of the larger one taken by the
    first i rows: O(2^n * n), so a 12 x 12 frame takes 24,576 steps where
    enumeration would take 479,001,600 assignments. Each row's cost is
    added in row order."""
    arr = np.asarray(cost, dtype=np.float64)
    rows = (arr.T if arr.shape[0] > arr.shape[1] else arr).tolist()
    best = {0: 0.0}  # columns taken by the rows so far -> least cost
    for row in rows:
        grown = {}
        for taken, total in best.items():
            for j, entry in enumerate(row):
                if not taken >> j & 1:
                    key, value = taken | 1 << j, total + entry
                    if value < grown.get(key, math.inf):
                        grown[key] = value
        best = grown
    return min(best.values())


distance = st.one_of(
    st.floats(0.0, 2.0), st.just(0.0), st.just(1.0), st.sampled_from([-0.5, math.inf, math.nan])
)
matrices = st.tuples(st.integers(0, 5), st.integers(0, 5)).flatmap(
    lambda mn: st.lists(
        st.lists(distance, min_size=mn[1], max_size=mn[1]), min_size=mn[0], max_size=mn[0]
    )
)


@PROPERTY
@given(matrices, st.sampled_from([0.5, 1.0, 1.5]), st.sampled_from([1.0, 2.0]))
def test_ospa_with_a_callable_is_the_matrix_path(dist, cutoff, order):
    m, n = len(dist), len(dist[0]) if dist else 0
    matrix = np.array(dist, dtype=np.float64).reshape(m, n)

    def by_index(i, j):
        return dist[i][j]

    try:
        expected = _reference_ospa(dist, cutoff, order)
    except ValueError as exc:
        for compute in (
            lambda: ospa(range(m), range(n), by_index, cutoff=cutoff, order=order),
            lambda: _ospa_capped(_capped(matrix, cutoff, order), cutoff, order),
        ):
            with pytest.raises(ValueError, match="base distance must be finite and >= 0"):
                compute()
        assert "base distance" in str(exc)
        return
    by_callable = ospa(range(m), range(n), by_index, cutoff=cutoff, order=order)
    assert _bits([by_callable]) == _bits([expected])
    assert _bits([_ospa_capped(_capped(matrix, cutoff, order), cutoff, order)]) == _bits([expected])


single_person_frames = st.tuples(st.integers(1, 12), st.booleans()).flatmap(
    lambda nt: st.lists(st.floats(0.0, 2.0) | st.sampled_from([0.0, -0.0, 1.0]),
                        min_size=nt[0], max_size=nt[0])
    .map(lambda row: [row] if nt[1] else [[d] for d in row])
)


@PROPERTY
@given(single_person_frames, st.sampled_from([0.5, 1.0, 1.5]), st.sampled_from([1.0, 2.0]))
def test_single_person_ospa_is_the_solver_value_bit_for_bit(dist, cutoff, order):
    # [1, n] and [m, 1]: ospa takes the row minimum; the reference solves.
    value = ospa(range(len(dist)), range(len(dist[0])), lambda i, j: dist[i][j], cutoff=cutoff,
                 order=order)
    assert _bits([value]) == _bits([_reference_ospa(dist, cutoff, order)])


def _reference_frames(preds, gts):
    """Each ground-truth frame's id with its prediction and ground-truth row
    ranges."""
    spans = dict(zip(preds.frame_ids, itertools.pairwise(preds.offsets.tolist())))
    for fid, (g0, g1) in zip(gts.frame_ids, itertools.pairwise(gts.offsets.tolist())):
        yield fid, range(*spans.get(fid, (0, 0))), range(g0, g1)


def _reference_match(preds, gts, boxes, threshold):
    """Greedy matching one frame at a time, on the frame's OKS matrix of
    every pair: argmax over the columns, with a taken ground truth's column
    set to -inf."""
    matches = []
    for _, p, g in _reference_frames(preds, gts):
        rows = np.array(p)[preds.has_pose[p]]
        cols = np.array(g)[(gts.keypoints[g, :, 2] > 0).any(axis=1)]
        pairs = []
        if len(rows) and len(cols):
            sim = np.array([[oks(preds.keypoints[r], gts.keypoints[c], PARAMS, boxes[c])
                             for c in cols] for r in rows])
            for r in (-preds.scores[rows]).argsort(kind="stable"):
                c = int(sim[r].argmax())
                if sim[r, c] >= threshold:
                    pairs.append((int(rows[r]), int(cols[c]), float(sim[r, c])))
                    sim[:, c] = -np.inf
        matches.append(pairs)
    return matches


def _frame(preds, copies, kept, gts):
    """A frame's (predictions, kept, ground truths). The first ground truth
    is repeated, and every ground-truth pose may also be predicted, with
    equal or with distinct scores, so that matches, OKS ties and score ties
    occur."""
    gts = gts + gts[:1]
    posed = [g for g in gts if "pose" in g]
    if copies == "equal":
        preds = preds + [g | {"score": 0.5} for g in posed]
    elif copies == "distinct":
        preds = preds + [g | {"score": 1.0 / (k + 1)} for k, g in enumerate(posed)]
    return preds, kept, gts


frame_pairs = st.builds(_frame, predictions, st.sampled_from([None, "equal", "distinct"]),
                        st.booleans(), ground_truths)


@PROPERTY
@given(st.lists(frame_pairs, min_size=1, max_size=3), st.sampled_from([1, 3, 4096]))
def test_batched_matching_and_set_metric_are_the_frame_loop(frames, chunk):
    """evaluate computes OKS and IoU over all same-frame pairs a chunk at a
    time; a frame without predictions may be missing from the predictions."""
    preds = dataset("jrdb17", PANO, [(f"f{i}", p) for i, (p, kept, _) in enumerate(frames) if kept])
    gts = dataset("jrdb17", PANO, [(f"f{i}", g) for i, (_, _, g) in enumerate(frames)])
    pred_boxes = _matching_boxes(preds.boxes, preds.has_box, preds.keypoints)
    gt_boxes = _matching_boxes(gts.boxes, gts.has_box, gts.keypoints)
    with mock.patch.object(metrics, "_CHUNK_PAIRS", chunk):
        matches = _match(preds, gts, _pair_table(preds, gts), _ranking(preds.scores),
                         _areas(gt_boxes), PARAMS, 0.5)
        report = evaluate(preds, gts)
    _assert_frame_matches(matches, preds, gts, _reference_match(preds, gts, gt_boxes, 0.5))
    for fid, p, g in _reference_frames(preds, gts):
        dist = 1.0 - _iou(pred_boxes[p][:, None], gt_boxes[g])
        # The set metric is symmetric: a frame without predictions keeps its
        # ground truths as the rows of its list form.
        ospa_iou = _reference_ospa((dist if len(p) else dist.T).tolist(), 1.0, 1.0)
        assert _bits([report.per_frame[fid]["ospa_iou"]]) == _bits([ospa_iou])


def _assert_frame_matches(matches, preds, gts, expected):
    """``matches`` of :func:`_match` are the frame-by-frame ``expected``, bit
    for bit: matching walks all frames in one ranking, and each frame's
    matches keep their order."""
    assert [[(p, g, v.hex()) for p, g, v in matches if g in frame] for _, _, frame in
            _reference_frames(preds, gts)] == \
        [[(p, g, v.hex()) for p, g, v in pairs] for pairs in expected]


# The jrdb17 keypoint with the largest falloff constant: at distance d from a
# ground truth labeled there alone, a prediction's OKS is exp(-d^2 / max_i
# scale_i), the bound that decides which pairs are out of reach.
WIDEST = int(np.argmax(PARAMS.sigmas))
# (origin, side) of a ground-truth box: sides that resolve at their origin
# and keep the area finite.
reach_boxes = st.sampled_from([(0.0, 1.0), (480.0, 60.0), (1e9, 0.5), (-1e150, 1e140),
                               (1e153, 1e145)])
# A prediction's distance, relative to the reach distance R and to the
# scale: R * (1 + rel) + sqrt(max_i scale_i) * ab, on both sides of R, or
# far enough off for coordinates near 1e300 and a squared distance of inf.
reach_offsets = st.tuples(
    st.sampled_from([-1e-4, -1e-7, -1e-9, 0.0, 1e-12, 1e-9, 1e-7, 1e-6, 1e-4]),
    st.sampled_from([0.0, 1e-12, 1e-6, 3e-5, 1e-4, 1e150]),
)
directions = st.sampled_from([(1.0, 0.0), (0.0, -1.0), (-0.6, 0.8)])


@st.composite
def reach_frames(draw, threshold):
    """A frame's (predictions, ground truths): ground truths labeled at
    :data:`WIDEST` alone, each with predictions at drawn offsets around the
    reach distance of ``threshold`` (ln 2 at 0) and drawn scores, mixed with
    any predictions and ground truths of the other strategies. Predictions
    may all be box-only, which makes a K = 0 prediction file."""
    log_t = -math.log(threshold) if threshold > 0 else math.log(2.0)
    gts, preds = draw(ground_truths), draw(predictions)
    for _ in range(draw(st.integers(1, 3))):
        origin, side = draw(reach_boxes)
        cx = cy = origin + draw(st.sampled_from([0.0, 0.3])) * side
        pose = [(cx, cy, 0)] * NUM_KEYPOINTS
        pose[WIDEST] = (cx, cy, 2)
        gts.append(person(pose=pose, box=(cx - side, cy - side, cx + side, cy + side)))
        max_scale = 2.0 * (2.0 * side) ** 2 * PARAMS.sigmas[WIDEST] ** 2
        for _ in range(draw(st.integers(1, 2))):
            (rel, ab), (ux, uy) = draw(reach_offsets), draw(directions)
            d = math.sqrt(log_t * max_scale) * (1.0 + rel) + math.sqrt(max_scale) * ab
            preds.append(person(pose=[(cx + d * ux, cy + d * uy, 2)] * NUM_KEYPOINTS,
                                score=draw(scores)))
    if draw(st.booleans()):
        preds = [person(box=b, score=draw(scores)) for b in draw(st.lists(box, max_size=3))]
    return draw(st.permutations(preds)), gts


@PROPERTY
@given(st.sampled_from([0.0, 0.5, 1.0]).flatmap(
    lambda t: st.tuples(st.just(t), st.lists(reach_frames(t), min_size=1, max_size=3))))
# At threshold 0 an OKS of 0, from a squared distance of inf, still matches.
@example((0.0, [([person(pose=[(1e300, 0.0, 2)] * NUM_KEYPOINTS, score=0.5)],
                 [person(pose=[(5.0, 5.0, 2)] * NUM_KEYPOINTS, box=(0.0, 0.0, 10.0, 10.0))])]))
def test_matching_at_the_reach_boundary_is_every_pair_matched(case):
    """Pairs out of reach of the threshold get no OKS; the matches are
    those of computing the OKS of every pair, bit for bit."""
    threshold, frames = case
    preds = dataset("jrdb17", PANO, [(f"f{i}", p) for i, (p, _) in enumerate(frames)])
    gts = dataset("jrdb17", PANO, [(f"f{i}", g) for i, (_, g) in enumerate(frames)])
    gt_boxes = _matching_boxes(gts.boxes, gts.has_box, gts.keypoints)
    matches = _match(preds, gts, _pair_table(preds, gts), _ranking(preds.scores),
                     _areas(gt_boxes), PARAMS, threshold)
    _assert_frame_matches(matches, preds, gts, _reference_match(preds, gts, gt_boxes, threshold))


def _reference_evaluate(schema_id, frames, config):
    """The report of ``frames``, ``(frame id, predictions, ground truths)``
    triples of :func:`person` documents, scored one person at a time from
    the README's definitions: ``(ospa_iou, ap_05, {frame id: (ospa_iou,
    predictions, ground truths, matched)})``.

    Every prediction, in descending score with ties by frame id and then
    index, takes the unmatched ground truth of its frame with the highest
    OKS, the first of equals, when that OKS reaches the threshold; a person
    without a pose and a ground truth with no labeled keypoint never match.
    The set metric takes its assignment from :func:`subset_assignment_cost`,
    which matches enumeration. AP is 101-point interpolated
    precision over every ground truth, at COCO's recall points."""
    sigmas = default_oks_params(schema_id).sigmas
    cutoff, order = config.ospa_cutoff, config.ospa_order
    frames = {fid: (preds, gts) for fid, preds, gts in frames}
    ranked = sorted((-p["score"], fid, i) for fid, (preds, _) in frames.items()
                    for i, p in enumerate(preds))
    taken, hits = set(), []
    for _, fid, i in ranked:
        pred, gts = frames[fid][0][i], frames[fid][1]
        best = None
        for j, gt in enumerate(gts):
            if "pose" in pred and _labeled(gt) and (fid, j) not in taken:
                area = _area(matching_box(gt.get("box"), gt["pose"]))
                value = _reference_oks(pred["pose"], gt["pose"], area, sigmas)
                if best is None or value > best[0]:
                    best = (value, j)
        hits.append(best is not None and best[0] >= config.oks_threshold)
        if hits[-1]:
            taken.add((fid, best[1]))

    per_frame = {}
    for fid in sorted(frames):
        boxes = [[matching_box(p.get("box"), p.get("pose")) for p in side]
                 for side in frames[fid]]
        m, n = map(len, boxes)
        if not (m and n):
            value = 0.0 if m == n else float(cutoff)
        else:
            powed = [[min(1.0 - _reference_iou(a, b), cutoff) ** order for b in boxes[1]]
                     for a in boxes[0]]
            cost = subset_assignment_cost(powed)
            value = ((cutoff ** order * abs(m - n) + cost) / max(m, n)) ** (1.0 / order)
        matched = sum(f == fid for f, _ in taken)
        per_frame[fid] = (value, m, n, matched)
    mean = sum(v[0] for v in per_frame.values()) / len(per_frame) if per_frame else 0.0

    num_gt = sum(len(gts) for _, gts in frames.values())
    if not num_gt:
        return mean, 1.0 if not hits else 0.0, per_frame
    points = []
    for k in range(len(hits)):
        tp = sum(hits[:k + 1])
        points.append((tp / (k + 1), tp / num_gt))
    ap = sum(max((p for p, r in points if r >= level), default=0.0)
             for level in np.linspace(0.0, 1.0, 101).tolist()) / 101
    return mean, ap, per_frame


scores = st.sampled_from([0.0, 0.25, 0.5, 1.0])  # ties within and across frames
report_ground_truths = st.lists(st.one_of(
    st.builds(lambda p: person(pose=p), poses(coord)),
    st.builds(lambda p, b: person(pose=p, box=b), poses(coord), box),
    st.builds(lambda p: person(pose=p), poses(coord, st.just(0))),  # no labeled keypoint
    st.builds(lambda b: person(box=b), box),
), max_size=7)


@st.composite
def report_frames(draw):
    """A frame's (predictions, kept, ground truths): at most 7 persons a
    side, some predictions copying a ground-truth pose so that matches
    happen at any threshold; a frame without predictions may be left out of
    the predictions."""
    gts = draw(report_ground_truths)
    posed = [g["pose"] for g in gts if "pose" in g]
    copies = draw(st.lists(st.sampled_from(posed), max_size=len(posed))) if posed else []
    preds = [person(pose=pose, score=draw(scores)) for pose in copies]
    preds += draw(st.lists(st.one_of(
        st.builds(lambda p, s: person(pose=p, score=s), poses(coord), scores),
        st.builds(lambda b, s: person(box=b, score=s), box, scores),  # no pose
    ), max_size=7 - len(preds)))
    preds = draw(st.permutations(preds))
    return preds, bool(preds) or draw(st.booleans()), gts


@PROPERTY
@given(
    st.sampled_from(["coco17", "jrdb17"]),
    st.lists(report_frames(), max_size=4),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.sampled_from([(1.0, 1.0), (0.5, 2.0)]),
)
def test_report_is_the_person_by_person_oracle(schema_id, frames, threshold, set_metric):
    ids = ["f2", "a", "f10", "b"]  # the files list frames out of id order
    frames = [(fid, preds, kept, gts) for fid, (preds, kept, gts) in zip(ids, frames)]
    preds = dataset(schema_id, PANO, [(fid, p) for fid, p, kept, _ in frames if kept])
    gts = dataset(schema_id, PANO, [(fid, g) for fid, _, _, g in frames])
    config = EvalConfig(threshold, ospa_cutoff=set_metric[0], ospa_order=set_metric[1])
    report = evaluate(preds, gts, config)
    mean, ap, per_frame = _reference_evaluate(
        schema_id, [(fid, p, g) for fid, p, _, g in frames], config)

    doc = vars(report)
    assert doc["ap_05"] == ap
    # COCO's evaluation with each of README's departures switched on.
    coco_frames = [(fid, p if kept else [], g) for fid, p, kept, g in frames]
    assert abs(coco_ap(coco_frames, default_oks_params(schema_id).sigmas, threshold, **PANOPOSE) - ap) <= 1e-12
    assert abs(doc["ospa_iou"] - mean) <= 1e-12
    assert doc["config"] == {
        "schema": schema_id,
        "oks_threshold": threshold,
        "oks_sigmas": list(default_oks_params(schema_id).sigmas),
        "scale_source": "gt_box_area",
        "ospa_cutoff": set_metric[0],
        "ospa_order": set_metric[1],
    }
    assert list(doc["per_frame"]) == list(per_frame)
    for fid, stats in doc["per_frame"].items():
        value, m, n, matched = per_frame[fid]
        assert (stats["num_predictions"], stats["num_ground_truths"], stats["num_matched"]) == \
            (m, n, matched)
        assert abs(stats["ospa_iou"] - value) <= 1e-12

    header, *rows = list(csv.reader(io.StringIO(frame_table_csv(report), newline="")))
    assert header == ["frame_id", "ospa_iou", "num_predictions", "num_ground_truths", "num_matched"]
    assert [row[0] for row in rows] == list(per_frame)
    for fid, value, m, n, matched in rows:
        assert [int(m), int(n), int(matched)] == list(per_frame[fid][1:])
        assert abs(float(value) - per_frame[fid][0]) <= 1e-12


def _scene(rng: np.random.Generator, num_frames: int) -> list[tuple]:
    """``(frame id, predictions, ground truths)`` of a scene shaped like the
    benchmark's ``score`` workload: 1 to 12 ground truths a frame spread
    across the panorama, each predicted with 3 px of noise at a score in
    [0.5, 1) unless dropped (1 in 20), and a false positive at a score in
    [0.05, 0.6) in about 3 frames of 10."""
    def spread_pose():
        return random_pose(rng, rng.uniform(0.05 * DEFAULT_PANO.width, 0.9 * DEFAULT_PANO.width),
                           rng.uniform(0.3 * DEFAULT_PANO.height, 0.7 * DEFAULT_PANO.height),
                           60.0)

    frames = []
    for f, count in enumerate(rng.permutation(np.arange(num_frames) % 12 + 1).tolist()):
        gts, preds = [], []
        for _ in range(count):
            pose = spread_pose()
            gts.append(person(pose=pose))
            if rng.random() >= 0.05:
                pose[:, :2] += rng.normal(0.0, 3.0, (NUM_KEYPOINTS, 2))
                preds.append(person(pose=pose, score=rng.uniform(0.5, 1.0)))
        if rng.random() < 0.3:
            preds.append(person(pose=spread_pose(), score=rng.uniform(0.05, 0.6)))
        frames.append((f"frame{f:04d}", preds, gts))
    return frames


@pytest.mark.parametrize("seed", [3, 4])
def test_benchmark_shaped_scene_is_the_person_by_person_oracle(seed):
    """Persons spread across a panorama are mostly out of each other's OKS
    reach, and most frames' row minima certify their assignment; the report
    is still the oracle's, and both shortcuts and the solver run."""
    frames = _scene(np.random.default_rng(seed), 96)
    preds = dataset("jrdb17", DEFAULT_PANO, [(fid, p) for fid, p, _ in frames])
    gts = dataset("jrdb17", DEFAULT_PANO, [(fid, g) for fid, _, g in frames])
    with mock.patch.object(metrics, "_oks", wraps=metrics._oks) as kernel, \
            mock.patch.object(metrics, "_optimal_cost", wraps=metrics._optimal_cost) as solver:
        report = vars(evaluate(preds, gts))
    mean, ap, per_frame = _reference_evaluate("jrdb17", frames, EvalConfig())

    assert report["ap_05"] == ap
    assert abs(report["ospa_iou"] - mean) <= 1e-12
    for fid, stats in report["per_frame"].items():
        value, m, n, matched = per_frame[fid]
        assert (stats["num_predictions"], stats["num_ground_truths"], stats["num_matched"]) == \
            (m, n, matched)
        assert abs(stats["ospa_iou"] - value) <= 1e-12
    # Some same-frame pairs get no OKS, and the solver runs for some, not
    # all, of the frames with two persons or more a side.
    computed = sum(len(call.args[0]) for call in kernel.call_args_list)
    assert 0 < computed < sum(m * n for _, m, n, _ in per_frame.values())
    assert 0 < solver.call_count < sum(min(m, n) > 1 for _, m, n, _ in per_frame.values())


# Sums of these are exact, so equal optima compare equal; ties are frequent
# and 1.0 is the capped distance of two disjoint boxes.
dyadic = st.sampled_from([0.0, 0.25, 0.5, 1.0])


def cost_matrices(entry, wide_only):
    """``[m, n]`` matrices up to 7x7, with m <= n when ``wide_only``."""
    dims = st.tuples(st.integers(0, 7), st.integers(0, 7))
    if wide_only:
        dims = dims.map(sorted)
    return dims.flatmap(
        lambda mn: st.lists(st.lists(entry, min_size=mn[1], max_size=mn[1]),
                            min_size=mn[0], max_size=mn[0])
        .map(lambda rows: np.array(rows, dtype=np.float64).reshape(mn))
    )


@PROPERTY
@given(cost_matrices(dyadic, wide_only=True))
@example(np.ones((7, 7)))
def test_solver_cost_is_the_oracle_cost_on_dyadic_entries(cost):
    assert _optimal_cost(cost) == brute_force_assignment(cost)[1]


@PROPERTY
@given(cost_matrices(st.floats(0.0, 1.0), wide_only=True))
def test_solver_cost_is_the_oracle_cost_on_unit_floats(cost):
    assert abs(_optimal_cost(cost) - brute_force_assignment(cost)[1]) <= 1e-12


@PROPERTY
@given(cost_matrices(dyadic, wide_only=False))
@example(np.zeros((0, 3)))
@example(np.zeros((3, 0)))
def test_solver_cost_is_the_oracle_cost_on_tall_matrices(cost):
    # The set metric solves a tall matrix as its transpose.
    wide = cost.T if cost.shape[0] > cost.shape[1] else cost
    assert _optimal_cost(wide) == brute_force_assignment(cost)[1]


@PROPERTY
@given(cost_matrices(dyadic, wide_only=False))
@example(np.ones((7, 7)))
def test_subset_oracle_is_the_enumeration_oracle(cost):
    assert subset_assignment_cost(cost) == brute_force_assignment(cost)[1]


def certificate_matrices(entry):
    """``[m, n]`` distance matrices up to 12 x 13 whose rows are drawn
    entries, one repeated entry, or drawn entries with a 0 in one of the
    first three columns, so that constant rows and distinct and repeated
    argmin columns all occur."""
    def row(n):
        return st.one_of(
            st.lists(entry, min_size=n, max_size=n),
            entry.map(lambda v: [v] * n),
            st.tuples(st.lists(entry, min_size=n, max_size=n), st.integers(0, min(n, 3) - 1))
            .map(lambda rc: rc[0][:rc[1]] + [0.0] + rc[0][rc[1] + 1:]),
        )

    return st.tuples(st.integers(1, 12), st.integers(1, 13)).flatmap(
        lambda mn: st.lists(row(mn[1]), min_size=mn[0], max_size=mn[0]))


set_metric_params = st.sampled_from([(1.0, 1.0), (0.5, 2.0)])


@PROPERTY
@given(certificate_matrices(dyadic), set_metric_params)
@example([[0.0, 1.0], [0.0, 0.5]], (1.0, 1.0))  # argmin columns collide
@example([[0.5, 0.5], [0.0, 1.0]], (1.0, 1.0))  # a constant row beside an argmin
def test_set_metric_is_the_solver_value_on_dyadic_entries(dist, set_metric):
    """Where the rows' minima certify the assignment, the set metric skips
    the solver; its value is the solver's, bit for bit."""
    value = _ospa_capped(_capped(np.array(dist), *set_metric), *set_metric)
    assert _bits([value]) == _bits([_reference_ospa(dist, *set_metric)])


@PROPERTY
@given(certificate_matrices(st.floats(0.0, 1.0)), set_metric_params)
def test_set_metric_is_the_solver_value_on_unit_floats(dist, set_metric):
    value = _ospa_capped(_capped(np.array(dist), *set_metric), *set_metric)
    assert abs(value - _reference_ospa(dist, *set_metric)) <= 1e-12


json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
schema_ids = st.sampled_from(["coco17", "jrdb17"]) | json_values
keypoint_names = st.sampled_from(COCO17.names + JRDB17.names)
mapping_docs = json_values | st.fixed_dictionaries(
    {},
    optional={
        "source_schema": schema_ids,
        "target_schema": schema_ids,
        "entries": json_values | st.dictionaries(
            keypoint_names | st.text(max_size=6),
            st.lists(keypoint_names | json_values, max_size=3) | json_values,
            max_size=17,
        ),
    },
)


@PROPERTY
@given(mapping_docs)
@example({"source_schema": [], "target_schema": "jrdb17", "entries": {}})
def test_malformed_mapping_files_raise_only_validation_errors(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "mapping.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        load_mapping(path)
    except ValidationError:
        pass


_MISSING, _EXTRA = object(), object()
TYPE_FAULTS = [True, False, None, 2.0, "", "1.5", [[0.0]], 10**400, _MISSING, _EXTRA]


def _sites(frames: list) -> dict[tuple, list[tuple]]:
    """The path of every value in a document's frames, by kind: the path
    with list indices as "#", except "v" for a visibility."""
    sites: dict[tuple, list[tuple]] = {}

    def visit(value, path):
        kind = tuple("#" if isinstance(k, int) else k for k in path)
        if kind[-3:] == ("pose", "#", "#") and path[-1] == 2:
            kind = kind[:-1] + ("v",)
        sites.setdefault(kind, []).append(path)
        for k in (value if isinstance(value, dict) else range(len(value)) if isinstance(value, list) else ()):
            visit(value[k], path + (k,))

    for i, frame in enumerate(frames):
        visit(frame, (i,))
    return sites


@st.composite
def dataset_documents(draw):
    """A dataset document of valid persons, each with a score when scores
    are required, and whether they are."""
    require_scores = draw(st.booleans())
    frames = draw(st.lists(st.tuples(st.sampled_from(["a", "b"]), st.lists(any_person, max_size=3)),
                           min_size=1, max_size=2))
    doc = {"schema": "jrdb17", "pano": {"width": PANO.width, "height": PANO.height},
           "frames": [{"frame_id": fid, "persons": [{"score": 0.5} | p if require_scores else p
                                                    for p in persons]}
                      for fid, persons in frames]}
    return json.loads(json.dumps(doc)), require_scores


def _mutate(frames: list, path: tuple, fault) -> None:
    """Replace the value at ``path`` by ``fault``, remove it, or give it an
    extra key or element beside it."""
    container = frames
    for k in path[:-1]:
        container = container[k]
    key = path[-1]
    if fault is _MISSING:
        del container[key]
    elif fault is _EXTRA and isinstance(container, dict):
        container["extra"] = 0
    elif fault is _EXTRA:
        container.append(copy.deepcopy(container[key]))
    else:
        container[key] = copy.deepcopy(fault)


def _mutate_drawn(draw, frames: list, fault) -> None:
    """Put ``fault`` at a drawn value of a drawn kind, when there is one."""
    sites = _sites(frames)
    if sites:
        kind = draw(st.sampled_from(sorted(sites)))
        _mutate(frames, draw(st.sampled_from(sites[kind])), fault)


def _reference_walk(frames: list, schema, require_scores: bool) -> None:
    """Check every frame and person value by value, in file order, and raise
    the first JSON shape or type fault, a person's pose rows after its other
    fields: the loader's fault order, one value at a time."""
    for raw in frames:
        if not isinstance(raw, dict):
            raise ValidationError("frame must be an object")
        _fields(raw, ("frame_id", "persons"), (), "frame")
        fid = raw["frame_id"]
        _frame_id_rule(fid)
        if not isinstance(raw["persons"], list):
            raise ValidationError(f"frame {fid!r}: persons must be a list")
        for i, p in enumerate(raw["persons"]):
            where = f"frame {fid!r}, person {i}"
            if not isinstance(p, dict):
                raise ValidationError(f"{where} must be an object")
            _fields(p, (), ("id", "box", "score", "pose"), where)
            if "id" in p and not isinstance(p["id"], str):
                raise ValidationError(f"{where}: id must be a string")
            if "box" in p:
                if not isinstance(p["box"], list) or len(p["box"]) != 4:
                    raise ValidationError(f"{where}: box must be [x1, y1, x2, y2]")
                for v in p["box"]:
                    _number(v, f"{where}: box")
            if "score" in p:
                _number(p["score"], f"{where}: score")
            elif require_scores:
                raise ValidationError(f"{where}: prediction without score")
            if "pose" not in p:
                continue
            pose = p["pose"]
            if not isinstance(pose, list):
                raise ValidationError(f"{where}: pose must be a list of [x, y, v] rows")
            if len(pose) != len(schema.names):
                raise ValidationError(f"{where}: pose has {len(pose)} keypoints, "
                                      f"schema {schema.id!r} expects {len(schema.names)}")
            for k, row in enumerate(pose):
                if type(row) is not list or len(row) != 3:
                    raise ValidationError(f"{where}: pose keypoint {k} must be [x, y, v]")
                loc = f"{where}: keypoint {k}"
                _number(row[0], loc)
                _number(row[1], loc)
                if type(row[2]) is not int:
                    raise ValidationError(f"{loc} visibility must be an integer, got {row[2]!r}")
                _number(row[2], loc)


def _check_loader(doc: dict, require_scores: bool) -> None:
    """The loader raises only ValidationError, and the reference walk's
    fault when the walk finds one."""
    try:
        _reference_walk(doc["frames"], JRDB17, require_scores)
        walk_fault = None
    except ValidationError as exc:
        walk_fault = str(exc)
    try:
        _load(doc, JRDB17, require_scores)
    except ValidationError as exc:
        assert walk_fault is None or str(exc) == walk_fault
        return
    assert walk_fault is None


@PROPERTY
@given(dataset_documents(), st.integers(0, 2**16), st.data())
def test_mutated_datasets_raise_only_validation_errors(case, pick, data):
    # Every fault at one value of every kind, the pick-th of its kind; then
    # two faults at drawn values together, so that their order matters.
    doc, require_scores = case
    frozen = pickle.dumps(doc)
    for kind, paths in sorted(_sites(doc["frames"]).items()):
        for fault in TYPE_FAULTS:
            mutated = pickle.loads(frozen)
            _mutate(mutated["frames"], paths[pick % len(paths)], fault)
            _check_loader(mutated, require_scores)
    mutated = pickle.loads(frozen)
    for fault in data.draw(st.lists(st.sampled_from(TYPE_FAULTS), min_size=2, max_size=2)):
        _mutate_drawn(data.draw, mutated["frames"], fault)
    _check_loader(mutated, require_scores)


_FULL_PERSON = {"id": "p", "box": [1, 2, 30, 40], "score": 0.5,
                "pose": [[1.5, 2.5, 2]] * NUM_KEYPOINTS}
# Through JSON, so that no two sites share a list or an object.
_FULL_DOC = json.loads(json.dumps({
    "schema": "jrdb17", "pano": {"width": PANO.width, "height": PANO.height},
    "frames": [{"frame_id": "a", "persons": [_FULL_PERSON, _FULL_PERSON]},
               {"frame_id": "b", "persons": [_FULL_PERSON]}]}))


@pytest.mark.parametrize("require_scores", [False, True])
def test_every_pair_of_faults_is_reported_in_file_order(require_scores):
    # Two faults at every pair of value kinds: the first in the first person
    # and the second in the last, or both in the last, so that the order of
    # frames, of persons and of a person's fields all decide.
    sites = sorted(_sites(_FULL_DOC["frames"]).items())
    faults = [True, 2.0, 10**400, _MISSING, _EXTRA]
    for (_, first), (_, second) in itertools.product(sites, repeat=2):
        for at, fault, last_fault in itertools.product((first[0], first[-1]), faults, faults):
            mutated = copy.deepcopy(_FULL_DOC)
            try:
                _mutate(mutated["frames"], second[-1], last_fault)
                _mutate(mutated["frames"], at, fault)
            except (AttributeError, IndexError, KeyError, TypeError):
                continue  # the fault at the last site took away the other site
            _check_loader(mutated, require_scores)


@pytest.mark.parametrize("require_scores", [False, True])
def test_a_fault_in_the_last_of_many_persons_is_worded_as_the_walk_words_it(require_scores):
    # The bulk check refuses all 300 persons at once; every person before the
    # last then passes the person walk, and the last one's fault is raised.
    doc = json.loads(json.dumps({**_FULL_DOC, "frames": [
        {"frame_id": f"{f:02d}", "persons": [_FULL_PERSON] * 4} for f in range(75)]}))
    frozen = pickle.dumps(doc)
    kinds, faulted = set(), set()
    for kind, paths in sorted(_sites(doc["frames"]).items()):
        if paths[-1][:3] != (74, "persons", 3):
            continue  # a frame's own value
        kinds.add(kind)
        for fault in TYPE_FAULTS:
            mutated = pickle.loads(frozen)
            _mutate(mutated["frames"], paths[-1], fault)
            try:
                _reference_walk(mutated["frames"], JRDB17, require_scores)
            except ValidationError as exc:
                assert "frame '74', person 3" in str(exc)
                with pytest.raises(ValidationError) as loaded:
                    _load(mutated, JRDB17, require_scores)
                assert str(loaded.value) == str(exc)
                faulted.add(kind)
            else:
                with contextlib.suppress(ValidationError):  # a value fault, such as a box of 2.0s
                    _load(mutated, JRDB17, require_scores)
    assert faulted == kinds and len(kinds) == 9


DATASET_SCHEMA = jsonschema.Draft202012Validator(json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "dataset.schema.json").read_text(encoding="utf-8")))


@PROPERTY
@given(dataset_documents(), st.lists(st.sampled_from(TYPE_FAULTS), max_size=2), st.data())
def test_documents_the_loader_accepts_fit_the_json_schema(case, faults, data):
    # The schema is looser than the loader (README lists the rules only the
    # loader keeps), never stricter.
    doc, require_scores = case
    for fault in faults:
        _mutate_drawn(data.draw, doc["frames"], fault)
    try:
        _load(doc, JRDB17, require_scores)
    except ValidationError:
        return
    DATASET_SCHEMA.validate(doc)


@st.composite
def eval_documents(draw, scored):
    """A document of :func:`dataset_documents`, with a score per person when
    ``scored``, and in one case of three with a fault at one drawn value."""
    doc, _ = draw(dataset_documents())
    if scored:
        for frame in doc["frames"]:
            for raw in frame["persons"]:
                raw.setdefault("score", 0.5)
    if draw(st.integers(0, 2)) == 0:
        _mutate_drawn(draw, doc["frames"], draw(st.sampled_from(TYPE_FAULTS)))
    return doc


_SCORED_DOC = json.loads(dataset_to_canonical_json(dataset("jrdb17", PANO, [("a", [
    person(box=(10, 10, 60, 90), pose=[(12 + i, 15 + 4 * i, 2) for i in range(NUM_KEYPOINTS)],
           score=0.9),
    person(box=(300, 10, 360, 90), score=0.4),
])])))


@PROPERTY
@given(eval_documents(scored=False), eval_documents(scored=True))
@example(_SCORED_DOC, _SCORED_DOC)
def test_eval_reports_what_reading_gt_then_pred_gives(tmp_path_factory, gt_doc, pred_doc):
    # eval reads --gt in a forked child while it reads --pred. The reference
    # reads --gt, then --pred, then scores them, all in this process.
    base = tmp_path_factory.getbasetemp()
    gt, pred, report = base / "gt.json", base / "pred.json", base / "report.json"
    gt.write_text(json.dumps(gt_doc))
    pred.write_text(json.dumps(pred_doc))
    try:
        gts = cli._load_dataset(str(gt), require_scores=False)
        preds = cli._load_dataset(str(pred), require_scores=True)
        expected = evaluate(preds, gts)
    except (ValidationError, ValueError, OSError) as exc:
        expected = exc
    report.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.run(["eval", "--gt", str(gt), "--pred", str(pred), "--report", str(report)])
    if isinstance(expected, Exception):
        assert (code, err.getvalue()) == (1, f"error: {expected}\n")
        assert not report.exists()
        return
    assert (code, err.getvalue()) == (0, "")
    assert report.read_bytes() == report_json(expected).encode()


# Each command's input arguments and its output flags; the inputs name files
# that test_an_output_that_cannot_be_written_leaves_every_output_as_it_was
# writes.
COMMAND_OUTPUTS = {
    "boxes-from-poses": (["--in", "d.json"], ["--out"]),
    "shift": (["--in", "d.json", "--shift", "5"], ["--out"]),
    "nms": (["--pred", "d.json"], ["--out"]),
    "decode": (["--heatmaps", "heat.bin", "--dets", "d.json"], ["--out"]),
    "eval": (["--gt", "d.json", "--pred", "d.json"], ["--report", "--table"]),
    "remap-weights": (["--src", "w.bin", "--weight-name", "head.weight"], ["--out"]),
}
INPUT_FILES = ("d.json", "heat.bin", "w.bin")


@PROPERTY
@given(st.sampled_from([(command, flag) for command, (_, flags) in COMMAND_OUTPUTS.items()
                        for flag in flags]),
       st.sampled_from(["in a missing directory", "a directory", "a read-only file"]),
       st.booleans())
def test_an_output_that_cannot_be_written_leaves_every_output_as_it_was(tmp_path_factory, output,
                                                                       fault, others_exist):
    command, flag = output
    base = tmp_path_factory.mktemp("outputs")
    pose = random_pose(np.random.default_rng(1), 150.0, 240.0, 30.0)
    save_dataset(dataset("jrdb17", PANO, [("f1", [person(box=(90, 190, 210, 290), pose=pose, score=0.8)])]),
                 base / "d.json")
    save_tensor_map({"f1/0": np.ones((NUM_KEYPOINTS, 4, 4), np.float32)}, base / "heat.bin")
    save_tensor_map({"head.weight": np.ones((NUM_KEYPOINTS, 2, 1, 1), np.float32)}, base / "w.bin")
    inputs, flags = COMMAND_OUTPUTS[command]
    paths = {other: base / f"out{i}" for i, other in enumerate(flags)}
    bad = paths[flag]
    if fault == "in a missing directory":
        bad = paths[flag] = base / "missing" / bad.name
    elif fault == "a directory":
        bad.mkdir()
    else:
        bad.write_bytes(b"old")
        bad.chmod(0o444)
        assume(not os.access(bad, os.W_OK))  # a superuser may write it
    if others_exist:
        for other, path in paths.items():
            if other != flag:
                path.write_bytes(f"old {other}".encode())

    def listing():  # every entry of the directory, with its bytes if it is a file
        return {path.name: path.read_bytes() if path.is_file() else None for path in base.iterdir()}

    before = listing()
    argv = [command, *(str(base / arg) if arg in INPUT_FILES else arg for arg in inputs)]
    for other, path in paths.items():
        argv += [other, str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert (code, out.getvalue()) == (1, "")
    assert err.getvalue().startswith(f"error: {bad}: ")
    assert listing() == before


shapes = (
    st.lists(st.sampled_from([0, 1, 2, -1, 2**63, 10**30]), max_size=4)
    | st.lists(st.integers(0, 1), min_size=65, max_size=70)  # beyond numpy's rank limit of 64
    | json_values
)
tensor_entries = st.builds(
    lambda dtype, shape, span: {"dtype": dtype, "shape": shape, "begin": span[0], "end": span[1]},
    st.sampled_from(["f32", "f64", "i32", "i64", "u8"]),
    shapes,
    st.just((0, 0)) | st.tuples(st.integers(-1, 8), st.integers(-1, 8)),
) | st.dictionaries(st.sampled_from(["dtype", "shape", "begin", "end"]), json_values)
headers = st.dictionaries(st.text(min_size=1, max_size=2), tensor_entries, min_size=1, max_size=2) | json_values


def _container(header: object, slack: int = 0, payload: bytes = b"") -> bytes:
    text = json.dumps(header).encode()
    return struct.pack("<Q", max(len(text) + slack, 0)) + text + payload


container_files = st.builds(
    _container, headers, st.just(0) | st.integers(-2, 2), st.binary(max_size=48)
) | st.binary(max_size=64)


@PROPERTY
@given(container_files)
@example(_container({"t": {"dtype": "f32", "shape": [0, 10**30], "begin": 0, "end": 0}}))
def test_malformed_containers_raise_only_validation_errors(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "container.bin"
    path.write_bytes(raw)
    try:
        load_tensor_map(path)
    except ValidationError:
        pass
    # remap-weights streams the same file: it exits 0 or 1, never with a
    # traceback, names the file and leaves no output on a fault. The head is
    # the file's first tensor and the bias its second, when it has them.
    try:
        with open(path, "rb") as fh:
            names = list(_Container(fh).entries)
    except ValidationError:
        names = []
    out = path.with_name("remapped.bin")
    out.unlink(missing_ok=True)
    argv = ["remap-weights", "--src", str(path), "--out", str(out),
            f"--weight-name={names[0] if names else 'w'}"]
    if len(names) > 1:
        argv.append(f"--bias-name={names[1]}")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 1)
    if code == 1:
        assert err.getvalue().startswith(f"error: {path}: ")
        assert not out.exists()


DTYPE_SIZES = {"f32": 4, "f64": 8, "i32": 4, "i64": 8, "u8": 1}


@pytest.mark.parametrize("copy_path", ["kernel", "buffer"])
@PROPERTY
@given(
    st.dictionaries(
        st.text(min_size=1, max_size=3),
        st.tuples(st.sampled_from(sorted(DTYPE_SIZES)), st.lists(st.integers(0, 3), max_size=3)),
        max_size=6,
    ),
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    st.booleans(),
    st.lists(st.lists(st.integers(0, 16), min_size=1, max_size=3, unique=True),
             min_size=17, max_size=17),
    st.data(),
)
def test_streamed_remap_writes_the_library_bytes(tmp_path_factory, copy_path, others, head_dims,
                                                 with_bias, entries, data):
    # Valid containers with the header in any order and the payload ranges
    # in another, with gaps between them and junk after them.
    tensors = dict(others)
    tensors["head.weight"] = ("f32", [17, *head_dims])
    if with_bias:
        tensors["head.bias"] = ("f32", [17])
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    payload, spans = bytearray(), {}
    for name in data.draw(st.permutations(sorted(tensors))):
        payload += rng.bytes(data.draw(st.integers(0, 5)))
        dtype, shape = tensors[name]
        begin = len(payload)
        if name.startswith("head."):  # finite, so the means are plain arithmetic
            payload += rng.standard_normal(math.prod(shape)).astype("<f4").tobytes()
        else:
            payload += rng.bytes(math.prod(shape) * DTYPE_SIZES[dtype])
        spans[name] = (begin, len(payload))
    payload += rng.bytes(data.draw(st.integers(0, 5)))
    header = {name: {"dtype": tensors[name][0], "shape": tensors[name][1],
                     "begin": spans[name][0], "end": spans[name][1]}
              for name in data.draw(st.permutations(sorted(tensors)))}
    base = tmp_path_factory.getbasetemp()
    src, out, expected = base / "src.bin", base / "streamed.bin", base / "library.bin"
    src.write_bytes(_container(header, payload=bytes(payload)))
    mapping = SchemaMapping("coco17", "jrdb17", tuple(tuple(e) for e in entries))
    (base / "mapping.json").write_text(json.dumps(mapping_doc(mapping)))
    bias_name = "head.bias" if with_bias else None

    argv = ["remap-weights", "--src", str(src), "--out", str(out), "--weight-name", "head.weight",
            "--mapping", str(base / "mapping.json")]
    # The kernel copy, or copy buffers of a few bytes that split the tensors
    # into parts and a remainder. The output of the example before is
    # written over.
    buffer_bytes = data.draw(st.integers(1, 9) | st.just(1 << 20))
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(io.StringIO()):
        patch.setattr("panopose.weights._COPY_BUFFER_BYTES", buffer_bytes)
        if copy_path == "buffer":
            patch.delattr(os, "copy_file_range", raising=False)
        assert cli.run(argv + (["--bias-name", bias_name] if with_bias else [])) == 0
    save_tensor_map(remap_head_weights(load_tensor_map(src), "head.weight", mapping, bias_name),
                    expected)
    assert out.read_bytes() == expected.read_bytes()


def _reference_head(data, entries):
    """The remapped head by its rule, in numpy: a channel of one source as it
    is, any other 0.0 plus its sources in mapping order, in float64, divided
    by their count and rounded to float32."""
    with np.errstate(all="ignore"):  # inf - inf, and NaNs cast to float32
        return np.stack([
            data[entry[0]] if len(entry) == 1
            else (reduce(operator.add, (data[s].astype(np.float64) for s in entry),
                         np.zeros(data.shape[1:])) / len(entry)).astype("<f4")
            for entry in entries
        ])


_SIGN = 0x80000000
# Zero, the smallest and largest subnormal, the smallest normal, one, the
# largest finite value and infinity, as float32 bits.
_F32_SPECIALS = [0x00000000, 0x00000001, 0x007FFFFF, 0x00800000, 0x3F800000, 0x7F7FFFFF,
                 0x7F800000]
# Finite values by exponent and mantissa, so that most pairs differ by more
# exponents than float64 can add exactly.
_f32_bits = st.builds(lambda exponent, mantissa: exponent << 23 | mantissa,
                      st.integers(0, 254), st.integers(0, 2**23 - 1)) | st.sampled_from(_F32_SPECIALS)
_quiet_nans = st.integers(0, 2**22 - 1).map(lambda payload: 0x7FC00000 | payload)
_signaling_nans = st.integers(1, 2**22 - 1).map(lambda payload: 0x7F800000 | payload)


def _two_nans_meet(bits):
    """Whether adding these float32 values can meet two different NaNs: two
    NaNs of different bits, or a NaN with an infinity of each sign, whose
    sum is a new NaN. Which payload comes out is then left open by IEEE 754,
    and numpy's choice depends on how it was compiled."""
    values = bits.view("<f4")
    made = int(np.isposinf(values).any() and np.isneginf(values).any())
    return len(set(bits[np.isnan(values)].tolist())) + made >= 2


@settings(PROPERTY, max_examples=300)
@given(st.integers(1, 17), st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(1, 2)),
       st.lists(st.integers(1, 17), min_size=1, max_size=4), st.data())
def test_the_head_kernel_is_the_mapping_order_mean_bit_for_bit(num_source, dims, sizes, data):
    # 1-17 sources per target. A palette of a few magnitudes of any exponent,
    # each with its negation, so that sums meet wide exponents and cancel;
    # NaNs with payloads, and signaling NaNs only in rows that no mean reads.
    entries = [tuple(data.draw(st.lists(st.integers(0, num_source - 1), min_size=n, max_size=n)))
               for n in sizes]
    magnitudes = data.draw(st.lists(_f32_bits, min_size=1, max_size=4))
    palette = magnitudes + [m ^ _SIGN for m in magnitudes]
    palette += [n ^ sign for n in data.draw(st.lists(_quiet_nans, max_size=2))
                for sign in (0, _SIGN)]
    averaged = {s for entry in entries if len(entry) > 1 for s in entry}
    tensors = {}
    for name, shape in (("w", (num_source, *dims)), ("b", (num_source,))):
        bits = np.array(data.draw(st.lists(st.sampled_from(palette), min_size=math.prod(shape),
                                           max_size=math.prod(shape))), dtype="<u4").reshape(shape)
        for row in sorted(set(range(num_source)) - averaged):
            signaling = data.draw(st.lists(st.none() | _signaling_nans,
                                           min_size=bits[row].size, max_size=bits[row].size))
            bits[row].flat[:] = [b if s is None else s for b, s in zip(bits[row].flat, signaling)]
        tensors[name] = bits.view("<f4")
    mapping = SchemaMapping("s", "t", tuple(entries))
    out = remap_head_weights(tensors, "w", mapping, bias_name="b")
    for name, values in tensors.items():
        got = out[name].astype("<f4").view("<u4").reshape(len(entries), -1)
        want = _reference_head(values, entries).astype("<f4").view("<u4").reshape(len(entries), -1)
        sources = values.view("<u4").reshape(num_source, -1)
        for t, entry in enumerate(entries):
            for j in range(got.shape[1]):
                column = sources[list(entry), j]
                if len(entry) > 1 and _two_nans_meet(column):
                    # The kernel keeps the first NaN source, quieted.
                    assert np.isnan(want[t:t + 1, j].view("<f4")).all()
                    assert got[t, j] == column[np.isnan(column.view("<f4"))][0] | 0x00400000
                else:
                    assert got[t, j] == want[t, j], (name, t, j, entry, hex(got[t, j]), hex(want[t, j]))


# -- mirror symmetry -------------------------------------------------------------
#
# Mirror takes x to W - x and swaps each "left ..." keypoint with its
# "right ..." counterpart. Integer coordinates keep W - x exact.


def _flip(names: tuple) -> list[int]:
    """For each keypoint, the index of its mirror image among ``names``."""
    swap = {"left": "right", "right": "left"}
    return [names.index(" ".join(swap.get(word, word) for word in name.split())) for name in names]


def _mirrored_person(doc: dict, width: float, flip: list[int]) -> dict:
    mirrored = dict(doc)
    if "box" in doc:
        x1, y1, x2, y2 = doc["box"]
        mirrored["box"] = [width - x2, y1, width - x1, y2]
    if "pose" in doc:
        mirrored["pose"] = [[width - doc["pose"][f][0], *doc["pose"][f][1:]] for f in flip]
    return mirrored


def _rounded_person(doc: dict) -> dict:
    rounded = dict(doc)
    if "box" in doc:
        rounded["box"] = [round(c) for c in doc["box"]]
    if "pose" in doc:
        rounded["pose"] = [[round(x), round(y), v] for x, y, v in doc["pose"]]
    return rounded


def test_mirror_moves_no_score_of_any_ledger_slice():
    from synth import SCENE_PANO, reference_scene

    flip = _flip(JRDB17.names)
    for name, sides in reference_scene().items():
        scores = []
        for turn in (lambda p: p, lambda p: _mirrored_person(p, SCENE_PANO.width, flip)):
            gts, preds = ([(fid, [turn(_rounded_person(p)) for p in persons]) for fid, persons in frames]
                          for frames in sides)
            scores.append(evaluate(dataset("jrdb17", SCENE_PANO, preds), dataset("jrdb17", SCENE_PANO, gts)))
        assert scores[1].ap_05 == scores[0].ap_05, name
        assert abs(scores[1].ospa_iou - scores[0].ospa_iou) <= 1e-12, name


_MIRROR_WIDTH = 2048
integer_boxes = st.builds(lambda x, y, w, h: (x, y, x + w, y + h), st.integers(-100, 2100),
                          st.integers(0, 500), st.integers(1, 300), st.integers(1, 300))


def _mirrored_boxes(boxes) -> np.ndarray:
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    return np.stack([_MIRROR_WIDTH - boxes[:, 2], boxes[:, 1], _MIRROR_WIDTH - boxes[:, 0], boxes[:, 3]], axis=1)


@PROPERTY
@given(st.lists(st.tuples(integer_boxes, st.sampled_from([0.0, 0.3, 0.5, 1.0])), max_size=8),
       st.sampled_from([0.0, 0.3, 0.5, 1.0]))
def test_nms_keeps_the_same_rows_of_mirrored_boxes(rows, threshold):
    boxes = [box for box, _ in rows]
    scores = [s for _, s in rows]
    assert nms(_mirrored_boxes(boxes), scores, threshold).tolist() == nms(np.reshape(boxes, (-1, 4)), scores,
                                                                           threshold).tolist()


@PROPERTY
@given(st.lists(st.tuples(st.integers(-100, 2200), st.integers(-50, 600), visibility),
                min_size=NUM_KEYPOINTS, max_size=NUM_KEYPOINTS).filter(lambda pose: any(v for _, _, v in pose)),
       st.sampled_from([0.0, 0.1, 0.25]))
def test_boxes_from_poses_of_a_mirrored_pose_are_the_mirrored_boxes(pose, margin):
    # A margin of 0.1 of a side, or the floor of a one-point box, rounds,
    # so the mirror holds to a nanopixel rather than bit for bit.
    pano = PanoramaSpec(float(_MIRROR_WIDTH), 512.0)
    flip = _flip(JRDB17.names)
    keypoints = np.array([pose], dtype=np.float64)
    mirrored = np.array([[[_MIRROR_WIDTH - pose[f][0], *pose[f][1:]] for f in flip]], dtype=np.float64)
    np.testing.assert_allclose(_pose_bboxes(mirrored, margin, pano),
                               _mirrored_boxes(_pose_bboxes(keypoints, margin, pano)), rtol=0, atol=1e-9)


@st.composite
def peaked_grids(draw):
    """``[K, h, w]`` grids of small integers with one cell per keypoint above
    every other, so that no grid has tied maxima."""
    k, h, w = draw(st.integers(1, 3)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    values = np.array(draw(st.lists(st.integers(0, 3), min_size=k * h * w, max_size=k * h * w)),
                      dtype=np.float64).reshape(k, h, w)
    for grid in values:
        grid.flat[draw(st.integers(0, h * w - 1))] = 4.0
    return values


@PROPERTY
@given(peaked_grids(), integer_boxes, st.sampled_from([4.0, 1.0, 0.3]))
def test_decode_of_a_grid_reversed_along_x_in_the_mirrored_box_is_the_mirrored_pose(values, box, stride):
    # The crop's scale and its inverse round, so the mirror holds to a
    # nanopixel rather than bit for bit.
    crop = (values.shape[2] * stride, values.shape[1] * stride)
    kps, conf = decode_heatmaps(values, stride, crop_transform([box], *crop)[0])
    mirrored, mirrored_conf = decode_heatmaps(values[:, :, ::-1], stride,
                                              crop_transform(_mirrored_boxes(box), *crop)[0])
    np.testing.assert_allclose(mirrored, np.column_stack([_MIRROR_WIDTH - kps[:, 0], kps[:, 1:]]),
                               rtol=0, atol=1e-9)
    assert mirrored_conf.tolist() == conf.tolist()


def test_the_builtin_head_remap_commutes_with_the_mirror_bit_for_bit():
    # Each averaged target (head, neck, center hip) sums one left and one
    # right source, and 0.0 + a + b equals 0.0 + b + a. The verbatim table
    # feeds both hands from the left wrist, so its mirror moves the right
    # hand to the right wrist.
    weight = np.random.default_rng(5).standard_normal((17, 3, 2, 1)).astype(np.float32)
    source_flip, target_flip = _flip(COCO17.names), _flip(JRDB17.names)
    for verbatim in (False, True):
        mapping = default_mapping(verbatim)
        head = remap_head_weights({"w": weight}, "w", mapping)["w"]
        mirrored = remap_head_weights({"w": weight[source_flip]}, "w", mapping)["w"]
        assert (mirrored.view(np.uint32) == head[target_flip].view(np.uint32)).all() != verbatim

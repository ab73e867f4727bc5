"""Property tests: canonical dataset round trips, the vectorised kernels
(OKS, IoU, matching boxes, OSPA and heatmap decode) against scalar loop
references, the assignment solver against the enumeration oracle, and
malformed mapping and container files."""

import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from synth import dataset, person

from panopose.dataio import dataset_from_json, dataset_to_canonical_json
from panopose.decode import HeatmapStack, decode_heatmaps
from panopose.errors import ValidationError
from panopose.geometry import (
    AffineTransform,
    BoundingBox,
    PanoramaSpec,
    _iou_matrix,
    _matching_boxes,
    _nms_rows,
    _rows,
    apply_transform,
    invert_transform,
    iou,
)
from panopose.metrics import (
    _match,
    _optimal_cost,
    _oks_matrix,
    _ospa,
    brute_force_assignment,
    default_oks_params,
    min_cost_assignment,
    ospa,
)
from panopose.schema import COCO17, JRDB17, load_mapping
from panopose.weights import load_tensor_map

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


def _reference_oks(pred: list, gt: list, area: float) -> float:
    """The OKS formula as a scalar loop: math.exp and a sequential sum."""
    terms = []
    for (xp, yp, _), (xg, yg, vg), k in zip(pred, gt, PARAMS.sigmas):
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
    back = dataset_from_json(text, JRDB17)
    assert back == ds
    assert dataset_to_canonical_json(back) == text


def _stack(poses: list[list]) -> np.ndarray:
    return np.array(poses, dtype=np.float64).reshape(-1, NUM_KEYPOINTS, 3)


def _labeled(person: dict) -> bool:
    return "pose" in person and any(v > 0 for _, _, v in person["pose"])


@PROPERTY
@given(predictions, ground_truths)
def test_oks_matrix_agrees_with_scalar_reference(preds, gts):
    boxes = [_reference_person_box(g.get("box"), g.get("pose")) for g in gts]
    rows = [p for p in preds if "pose" in p]
    cols = [j for j, g in enumerate(gts) if _labeled(g)]
    sim = _oks_matrix(
        _stack([p["pose"] for p in rows]),
        _stack([gts[j]["pose"] for j in cols]),
        PARAMS,
        np.array([boxes[j].area for j in cols]),
    )
    assert sim.shape == (len(rows), len(cols))
    for i, p in enumerate(rows):
        for c, j in enumerate(cols):
            expected = _reference_oks(p["pose"], gts[j]["pose"], boxes[j].area)
            assert math.isclose(sim[i, c], expected, rel_tol=1e-12)

    p = dataset("jrdb17", PANO, [("f", preds)])
    g = dataset("jrdb17", PANO, [("f", gts)])
    areas = np.array([b.area for b in boxes])
    for pi, gi, value in _match(p.keypoints, p.has_pose, p.scores, g.keypoints, areas, PARAMS, 0.5):
        assert "pose" in preds[pi] and _labeled(gts[gi])
        assert value >= 0.5
        expected = _reference_oks(preds[pi]["pose"], gts[gi]["pose"], boxes[gi].area)
        assert math.isclose(value, expected, rel_tol=1e-12)


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def _reference_iou(a: BoundingBox, b: BoundingBox) -> float:
    """The IoU formula on Python floats."""
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


fraction = st.floats(0.0, 0.4)
edge = st.floats(-1000.0, 1000.0)
side = st.floats(1e-3, 500.0)
any_box = st.builds(lambda x, y, w, h: BoundingBox(x, y, x + w, y + h), edge, edge, side, side)


def _related(a: BoundingBox, how: str, f: tuple, w: float, h: float) -> BoundingBox:
    if how == "identical":
        return a
    if how == "nested":
        return BoundingBox(
            a.x1 + f[0] * a.width, a.y1 + f[1] * a.height,
            a.x2 - f[2] * a.width, a.y2 - f[3] * a.height,
        )
    if how == "touching":  # shares the right edge of ``a``
        return BoundingBox(a.x2, a.y1 + f[0] * a.height, a.x2 + w, a.y2 + h)
    return BoundingBox(a.x2 + w, a.y2 + h, a.x2 + 2 * w, a.y2 + 2 * h)  # disjoint


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
    matrix = _iou_matrix(_rows(boxes), _rows(boxes))
    for i, a in enumerate(boxes):
        expected = [_reference_iou(a, b) for b in boxes]
        assert _bits(matrix[i]) == _bits(expected)
        assert _bits(iou(a, b) for b in boxes) == _bits(expected)


def _reference_decode(values: np.ndarray, stride: float, crop: AffineTransform):
    """One keypoint at a time, on the grids converted to float64."""
    grids = np.array(values, dtype=np.float64)
    k, h, w = grids.shape
    inv = invert_transform(crop)

    def quarter(before: float, after: float) -> float:
        return 0.25 if after > before else -0.25 if after < before else 0.0

    keypoints, confidences = [], []
    for grid in grids:
        i, j = divmod(int(np.argmax(grid)), w)
        dx = quarter(grid[i, j - 1], grid[i, j + 1]) if 0 < j < w - 1 else 0.0
        dy = quarter(grid[i - 1, j], grid[i + 1, j]) if 0 < i < h - 1 else 0.0
        x, y = apply_transform(inv, ((j + 0.5 + dx) * stride, (i + 0.5 + dy) * stride))
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
).map(lambda m: AffineTransform(*m))


@PROPERTY
@given(heatmap_grids(), st.sampled_from([4.0, 1.0, 0.3]), transforms)
@example(np.array([[[2**53, 2**53 + 1, 2**53]]], dtype=np.int64), 4.0, AffineTransform.identity())
@example(np.array([[[0.0], [1.0], [1.0]]], dtype=np.float32), 4.0, AffineTransform.identity())
@example(np.array([[[0.5, 1.0, 0.25]]], dtype=np.float64), 4.0, AffineTransform.identity())
@example(np.array([[[-np.inf, 1.0, -np.inf]]], dtype=np.float64), 4.0, AffineTransform.identity())
def test_decode_is_the_keypoint_loop_bit_for_bit(values, stride, crop):
    keypoints, confidences = _reference_decode(values, stride, crop)
    try:
        pose, conf = decode_heatmaps(HeatmapStack(values, stride), crop)
    except ValidationError:  # raised exactly when some grid's peak is not finite
        assert not np.isfinite(confidences).all()
        return
    assert np.isfinite(confidences).all()
    assert conf.dtype == np.float64
    assert _bits(conf) == _bits(confidences)
    assert _bits(pose.keypoints.ravel()) == _bits(np.ravel(keypoints))


def _reference_nms(dets: list[BoundingBox], threshold: float) -> list[int]:
    """Greedy NMS with the scalar IoU, one candidate at a time."""
    kept: list[int] = []
    for i in sorted(range(len(dets)), key=lambda i: (-dets[i].score, i)):
        if all(_reference_iou(dets[i], dets[j]) < threshold for j in kept):
            kept.append(i)
    return kept


def test_nms_over_several_blocks_is_the_greedy_loop():
    # 700 boxes span eleven 64-candidate blocks; scores in tenths tie often.
    rng = np.random.default_rng(83)
    xy = rng.uniform(0.0, 1500.0, (700, 2))
    wh = rng.uniform(20.0, 300.0, (700, 2))
    scores = np.round(rng.uniform(0.0, 1.0, 700), 1)
    dets = [
        BoundingBox(x, y, x + w, y + h, score=s)
        for (x, y), (w, h), s in zip(xy.tolist(), wh.tolist(), scores.tolist())
    ]
    for threshold in (0.0, 0.3, 0.5, 1.0):
        kept = _nms_rows(_rows(dets), np.array([d.score for d in dets]), [0, len(dets)], threshold)
        assert kept == _reference_nms(dets, threshold)


def _floored_span(lo: float, hi: float) -> tuple[float, float]:
    if hi - lo >= 1e-9:
        return lo, hi
    mid = 0.5 * (lo + hi)
    return mid - 0.5 * 1e-9, mid + 0.5 * 1e-9


def _reference_person_box(box, pose) -> BoundingBox:
    """The matching-box rule, one person at a time: its ``box`` when given,
    else a box of its ``pose`` rows."""
    if box is not None:
        return BoundingBox(*box)
    kps = np.array(pose, dtype=np.float64)
    pts = kps[kps[:, 2] > 0]
    if not len(pts):
        pts = kps
    x1, y1, _ = np.minimum.reduce(pts).tolist()
    x2, y2, _ = np.maximum.reduce(pts).tolist()
    x1, x2 = _floored_span(x1, x2)
    y1, y2 = _floored_span(y1, y2)
    return BoundingBox(x1, y1, x2, y2)


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
    corners = any_box.map(lambda b: (b.x1, b.y1, b.x2, b.y2))
    no_pose = np.zeros((num_kps, 3))
    # (box or None, [K, 3] keypoints), zeros for a person without a pose
    person = st.one_of(
        st.tuples(st.none(), pose),
        st.tuples(st.none(), unlabeled),
        st.tuples(corners, pose),
        st.tuples(corners, st.just(no_pose)),
    )
    return st.lists(person, max_size=6)


@PROPERTY
@given(st.integers(1, 5).flatmap(_people))
def test_matching_boxes_are_the_person_box_loop_bit_for_bit(persons):
    boxes = np.array([box or (0.0,) * 4 for box, _ in persons]).reshape(-1, 4)
    has_box = np.array([box is not None for box, _ in persons], dtype=bool)
    keypoints = np.array([kps for _, kps in persons] or np.zeros((0, 1, 3)))
    try:
        expected = [_reference_person_box(box, kps) for box, kps in persons]
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            _matching_boxes(boxes, has_box, keypoints)
        return
    rows = _matching_boxes(boxes, has_box, keypoints)
    for row, box in zip(rows, expected):
        assert _bits(row) == _bits((box.x1, box.y1, box.x2, box.y2))


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
            lambda: _ospa(matrix, cutoff, order),
        ):
            with pytest.raises(ValueError, match="base distance must be finite and >= 0"):
                compute()
        assert "base distance" in str(exc)
        return
    by_callable = ospa(range(m), range(n), by_index, cutoff=cutoff, order=order)
    assert _bits([by_callable]) == _bits([expected])
    assert _bits([_ospa(matrix, cutoff, order)]) == _bits([expected])


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
def test_min_cost_assignment_is_the_oracle(cost):
    assert min_cost_assignment(cost) == brute_force_assignment(cost)


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

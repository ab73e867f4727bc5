"""Acceptance suite: one test per release criterion, at fixed tolerances.

Run with ``pytest tests/test_acceptance.py -v``; the conftest hook prints a
PASS/FAIL line per criterion.
"""

import json
import math
import time

import numpy as np

from synth import dataset, make_ground_truth, perturb_predictions, person

from panopose.cli import run
from panopose.dataio import save_dataset
from panopose.geometry import (
    PanoramaSpec,
    _matching_boxes,
    apply_transform,
    crop_transform,
    invert_transform,
    iou,
    nms,
    shift_dataset,
)
from panopose.metrics import (
    EvalConfig,
    brute_force_assignment,
    default_oks_params,
    evaluate,
    min_cost_assignment,
    oks,
    ospa,
)
from panopose.schema import JRDB17, default_mapping
from panopose.weights import (
    TensorMap,
    TensorRecord,
    load_tensor_map,
    remap_head_weights,
    save_tensor_map,
)


def _capped_euclid(a, b):
    return min(1.0, math.hypot(a[0] - b[0], a[1] - b[1]))


def _random_points(rng, n):
    return [tuple(p) for p in rng.uniform(0, 2, size=(n, 2))]


def _random_boxes(rng, n, span=200.0):
    """``[n, 4]`` random box rows and their ``[n]`` scores, drawn box by box."""
    boxes, scores = [], []
    for _ in range(n):
        x1, y1 = rng.uniform(0, span, 2)
        boxes.append((x1, y1, x1 + rng.uniform(1, 60), y1 + rng.uniform(1, 60)))
        scores.append(rng.uniform(0, 1))
    return np.array(boxes).reshape(n, 4), np.array(scores)


def test_assignment_oracle_equivalence():
    """>= 200 random cost matrices, min(m, n) <= 7: exact cost equality, < 10 s."""
    rng = np.random.default_rng(20250809)
    start = time.monotonic()
    for trial in range(220):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 9))
        cost = rng.uniform(0.0, 1.0, size=(m, n))
        if trial % 3 == 0:
            cost = np.round(cost * 4.0)  # integer-valued: plenty of exact ties
        if trial % 2 == 0:
            cost = cost.T
        fast_assignment, fast_cost = min_cost_assignment(cost)
        oracle_assignment, oracle_cost = brute_force_assignment(cost)
        assert fast_cost == oracle_cost
        assert fast_assignment == oracle_assignment
    assert time.monotonic() - start < 10.0


def test_ospa_property_suite():
    """Identity, symmetry, empty-vs-nonempty, range, brute-force equivalence
    on sets of <= 6 elements, and triangle spot checks, within 1e-12."""
    rng = np.random.default_rng(20250810)

    # identity and empty cases
    for n in range(7):
        xs = _random_points(rng, n)
        assert ospa(xs, xs, _capped_euclid) == 0.0
    assert ospa([], [], _capped_euclid) == 0.0
    for n in range(1, 7):
        assert ospa([], _random_points(rng, n), _capped_euclid) == 1.0
        assert ospa(_random_points(rng, n), [], _capped_euclid) == 1.0

    # symmetry, range, brute-force equivalence
    for _ in range(200):
        xs = _random_points(rng, int(rng.integers(0, 7)))
        ys = _random_points(rng, int(rng.integers(0, 7)))
        value = ospa(xs, ys, _capped_euclid)
        assert 0.0 <= value <= 1.0
        assert abs(value - ospa(ys, xs, _capped_euclid)) <= 1e-12
        if xs and ys:
            dist = np.array(
                [[_capped_euclid(x, y) for y in ys] for x in xs]
            )
            _, loc = brute_force_assignment(dist if len(xs) <= len(ys) else dist.T)
            m, n = sorted((len(xs), len(ys)))
            reference = (loc + (n - m)) / n
            assert abs(value - reference) <= 1e-12

    # triangle inequality on 100 random triples
    for _ in range(100):
        xs, ys, zs = (_random_points(rng, int(rng.integers(0, 5))) for _ in range(3))
        dxz = ospa(xs, zs, _capped_euclid)
        dxy = ospa(xs, ys, _capped_euclid)
        dyz = ospa(ys, zs, _capped_euclid)
        assert dxz <= dxy + dyz + 1e-12


def _ap(preds, gts, params, threshold):
    return evaluate(preds, gts, EvalConfig(oks_threshold=threshold, oks_params=params)).ap_05


def test_ap_suite():
    """Perfect -> 1.0; empty -> 0.0; sub-threshold-only -> 0.0; threshold
    monotonicity on 50 random synthetic scenes."""
    params = default_oks_params("jrdb17")
    rng = np.random.default_rng(20250811)

    gt = make_ground_truth(rng, num_frames=4, people=(1, 4))
    perfect = perturb_predictions(gt, rng, 0.0)
    assert _ap(perfect, gt, params, 0.5) == 1.0

    empty = dataset(gt.schema_id, gt.pano, [])
    assert _ap(empty, gt, params, 0.5) == 0.0

    # a single heavily displaced prediction whose only candidate is sub-threshold
    one_gt = make_ground_truth(rng, num_frames=1, people=(1, 1), x_range=(0.05, 0.5))
    displaced = shift_dataset(perturb_predictions(one_gt, rng, 0.0), 500.0)
    gt_box = _matching_boxes(one_gt.boxes, one_gt.has_box, one_gt.keypoints)[0]
    assert oks(displaced.keypoints[0], one_gt.keypoints[0], params, gt_box) < 0.5
    assert _ap(displaced, one_gt, params, 0.5) == 0.0

    for scene in range(50):
        scene_gt = make_ground_truth(rng, num_frames=2, people=(1, 4))
        preds = perturb_predictions(scene_gt, rng, float(rng.uniform(0.0, 40.0)))
        values = [_ap(preds, scene_gt, params, t) for t in (0.3, 0.5, 0.75)]
        assert values[0] + 1e-12 >= values[1] >= values[2] - 1e-12


def test_weight_surgery():
    """Split channels average, single-counterpart channels copy bit-exactly,
    linearity within 1e-6 relative."""
    mapping = default_mapping()
    channels = 5
    weight = np.empty((17, channels, 1, 1), dtype=np.float32)
    for s in range(17):
        weight[s] = float(s)
    tm = TensorMap([TensorRecord.from_array("w", weight)])
    out = remap_head_weights(tm, "w", mapping)["w"].data

    neck = JRDB17.index("neck")
    head = JRDB17.index("head")
    hip = JRDB17.index("center hip")
    assert np.all(out[neck] == (5 + 6) / 2)
    assert np.all(out[head] == (1 + 2) / 2)
    assert np.all(out[hip] == (11 + 12) / 2)
    for t, entry in enumerate(mapping.entries):
        if len(entry) == 1:
            assert out[t].tobytes() == weight[entry[0]].tobytes()

    rng = np.random.default_rng(20250812)
    a = rng.normal(size=(17, 8, 3, 3)).astype(np.float32)
    b = rng.normal(size=(17, 8, 3, 3)).astype(np.float32)
    alpha, beta = 1.25, -0.75

    def remap(arr):
        m = TensorMap([TensorRecord.from_array("w", arr)])
        return remap_head_weights(m, "w", mapping)["w"].data.astype(np.float64)

    lhs = remap((alpha * a + beta * b).astype(np.float32))
    rhs = alpha * remap(a) + beta * remap(b)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-6, atol=1e-6)


def test_container_round_trip(tmp_path):
    """save(load(f)) reproduces tensor payloads byte-exactly, 1..50 tensors."""
    rng = np.random.default_rng(20250813)
    dtypes = {
        "f32": np.float32,
        "f64": np.float64,
        "i32": np.int32,
        "i64": np.int64,
        "u8": np.uint8,
    }
    for count in (1, 2, 7, 23, 50):
        records = []
        for i in range(count):
            tag = list(dtypes)[int(rng.integers(0, len(dtypes)))]
            shape = tuple(int(s) for s in rng.integers(0, 5, size=int(rng.integers(1, 4))))
            size = int(np.prod(shape))
            data = (rng.uniform(-100, 100, size) * 10).astype(dtypes[tag]).reshape(shape)
            records.append(TensorRecord(f"tensor{i:02d}", tag, shape, data))
        original = TensorMap(records)
        first = tmp_path / f"{count}_a.bin"
        second = tmp_path / f"{count}_b.bin"
        save_tensor_map(original, first)
        loaded = load_tensor_map(first)
        assert loaded == original
        for record in records:
            assert loaded[record.name].data.tobytes() == record.data.tobytes()
        save_tensor_map(loaded, second)
        assert first.read_bytes() == second.read_bytes()


def test_geometry_suite():
    """NMS idempotence and pairwise bound on 500 random sets; affine round
    trips < 1e-6 px on 1000 boxes/points; shift by 0 and by W are identities."""
    rng = np.random.default_rng(20250814)

    for _ in range(500):
        boxes, scores = _random_boxes(rng, int(rng.integers(0, 25)))
        tau = float(rng.uniform(0.05, 0.95))
        kept = nms(boxes, scores, tau)
        assert nms(boxes[kept], scores[kept], tau).tolist() == list(range(len(kept)))
        assert len(set(kept.tolist())) == len(kept)
        overlap = iou(boxes[kept], boxes[kept])
        assert (overlap[np.triu_indices(len(kept), 1)] < tau).all()

    for _ in range(1000):
        box, _ = _random_boxes(rng, 1, span=600.0)
        (transform,) = crop_transform(box, 288, 384, padding=float(rng.uniform(0.5, 2.0)))
        inverse = invert_transform(transform)
        point = tuple(rng.uniform(-100, 800, 2))
        image = apply_transform(transform, point)
        back = apply_transform(inverse, image)
        assert math.hypot(back[0] - point[0], back[1] - point[1]) < 1e-6

    pano = PanoramaSpec(2048.0, 512.0)
    for _ in range(20):
        boxes, _ = _random_boxes(rng, int(rng.integers(1, 6)), span=1500.0)
        ds = dataset("jrdb17", pano, [("f", [person(box=b) for b in boxes])])
        assert shift_dataset(ds, 0.0) == ds
        assert shift_dataset(ds, pano.width) == ds


def test_seam_shift_metric_invariance():
    """Shifting GT and predictions together (no seam removals) leaves both
    aggregate metrics unchanged to 1e-12, for 20 random (dataset, s) pairs."""
    rng = np.random.default_rng(20250815)
    pano = PanoramaSpec(2048.0, 512.0)
    for _ in range(20):
        gt = make_ground_truth(
            rng, num_frames=5, pano=pano, people=(1, 4),
            x_range=(0.12, 0.5), integer=True,
        )
        preds = perturb_predictions(gt, rng, 6.0, integer=True)
        shift = float(rng.integers(0, int(0.38 * pano.width)))

        gt_shifted = shift_dataset(gt, shift)
        preds_shifted = shift_dataset(preds, shift)
        for before, after in ((gt, gt_shifted), (preds, preds_shifted)):
            assert len(before.ids) == len(after.ids), "seam rule removed a person; shift range too large"

        base = evaluate(preds, gt)
        moved = evaluate(preds_shifted, gt_shifted)
        assert abs(base.ospa_iou - moved.ospa_iou) <= 1e-12
        assert abs(base.ap_05 - moved.ap_05) <= 1e-12


def test_end_to_end_smoke(tmp_path):
    """50-frame synthetic panorama; noise sweep through the CLI in < 30 s:
    the set metric is non-decreasing and AP non-increasing in noise, and zero
    noise scores exactly (0.0, 1.0)."""
    start = time.monotonic()
    rng = np.random.default_rng(20250816)
    gt = make_ground_truth(rng, num_frames=50, people=(2, 6))
    gt_path = tmp_path / "gt.json"
    save_dataset(gt, gt_path)

    ospa_values = []
    ap_values = []
    for sigma in (0, 2, 8, 32):
        preds = perturb_predictions(gt, np.random.default_rng(1000 + sigma), float(sigma))
        pred_path = tmp_path / f"pred_{sigma}.json"
        report_path = tmp_path / f"report_{sigma}.json"
        save_dataset(preds, pred_path)
        code = run(
            ["eval", "--gt", str(gt_path), "--pred", str(pred_path),
             "--report", str(report_path)]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        ospa_values.append(report["ospa_iou"])
        ap_values.append(report["ap_05"])

    assert ospa_values[0] == 0.0
    assert ap_values[0] == 1.0
    for lo, hi in zip(ospa_values, ospa_values[1:]):
        assert hi >= lo - 1e-12
    for hi, lo in zip(ap_values, ap_values[1:]):
        assert lo <= hi + 1e-12
    assert time.monotonic() - start < 30.0

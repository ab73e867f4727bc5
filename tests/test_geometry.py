import math

import numpy as np
import pytest
from synth import dataset, person

from panopose.geometry import (
    PanoramaSpec,
    _matching_boxes,
    _pose_bboxes,
    apply_transform,
    crop_transform,
    invert_transform,
    iou,
    nms,
    shift_dataset,
)

PANO = PanoramaSpec(2000.0, 600.0)


def _pose(*xyv):
    return np.array(xyv, dtype=np.float64)


def _pose17(*xyv):
    """The keypoints ``xyv``, then unlabeled copies of the first up to 17."""
    return list(xyv) + [(*xyv[0][:2], 0)] * (17 - len(xyv))


def _random_boxes(rng, n, lo=0.0, hi=100.0):
    """``n`` random box rows, then their ``n`` scores."""
    boxes, scores = [], []
    for _ in range(n):
        x1, x2 = sorted(rng.uniform(lo, hi, 2))
        y1, y2 = sorted(rng.uniform(lo, hi, 2))
        boxes.append((x1, y1, x2 + 1.0, y2 + 1.0))
        scores.append(float(rng.uniform(0, 1)))
    return np.array(boxes).reshape(n, 4), np.array(scores)


def _iou(a, b):
    """The IoU of two boxes."""
    return float(iou([a], [b])[0, 0])


class TestBoundingBox:
    """The box and score rules, at the entry of the functions that take box rows."""

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            iou([(5, 0, 5, 10)], [(0, 0, 1, 1)])
        with pytest.raises(ValueError):
            iou([(0, 0, 1, 1)], [(0, 10, 10, 10)])
        with pytest.raises(ValueError, match="area 0.0 must be positive and finite"):
            nms([(0, 0, 5e-324, 5e-324)], [0.5], 0.5)
        with pytest.raises(ValueError, match="area inf must be positive and finite"):
            crop_transform([(-1e308, -1e308, 1e308, 1e308)])
        with pytest.raises(ValueError, match=r"boxes must be \[N, 4\]"):
            iou([0, 0, 1, 1], [(0, 0, 1, 1)])

    def test_rejects_bad_score(self):
        with pytest.raises(ValueError, match="box score 1.5 outside"):
            nms([(0, 0, 1, 1)], [1.5], 0.5)
        with pytest.raises(ValueError, match=r"scores must be \[1\]"):
            nms([(0, 0, 1, 1)], [0.5, 0.5], 0.5)


class TestIou:
    def test_identical_boxes(self):
        b = (3, 4, 10, 20)
        assert _iou(b, b) == 1.0

    def test_disjoint_boxes(self):
        assert _iou((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0

    def test_third_overlap(self):
        # inter = 1x2 = 2, union = 4 + 4 - 2 = 6
        assert _iou((0, 0, 2, 2), (1, 0, 3, 2)) == 2.0 / 6.0

    def test_third_overlap_matches_grid_oracle(self):
        # Rasterize both boxes on a fine grid and count cell centers.
        a = (0, 0, 2, 2)
        b = (1, 0, 3, 2)
        n = 1500
        xs = (np.arange(n) + 0.5) * (3.0 / n)
        ys = (np.arange(n) + 0.5) * (2.0 / n)
        gx, gy = np.meshgrid(xs, ys)

        def inside(box):
            x1, y1, x2, y2 = box
            return (gx >= x1) & (gx < x2) & (gy >= y1) & (gy < y2)

        in_a, in_b = inside(a), inside(b)
        oracle = np.count_nonzero(in_a & in_b) / np.count_nonzero(in_a | in_b)
        assert abs(oracle - _iou(a, b)) < 2e-3

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            (a, b), _ = _random_boxes(rng, 2)
            v = _iou(a, b)
            assert 0.0 <= v <= 1.0
            assert v == _iou(b, a)


def _bbox(pose, margin):
    """The boxes-from-poses box of one pose, as an (x1, y1, x2, y2) tuple."""
    return tuple(_pose_bboxes(pose[None], margin, PANO)[0].tolist())


class TestBboxFromPose:
    def test_tight_box_margin_zero(self):
        pose = _pose((10, 10, 2), (20, 30, 2))
        assert _bbox(pose, 0.0) == (10, 10, 20, 30)

    def test_margin_expands_each_side(self):
        pose = _pose((10, 10, 2), (20, 30, 2))
        assert _bbox(pose, 0.1) == (9, 8, 21, 32)

    def test_invisible_keypoints_ignored(self):
        pose = _pose((10, 10, 2), (20, 30, 2), (500, 500, 0))
        assert _bbox(pose, 0.0)[2:] == (20, 30)

    def test_all_invisible_is_an_error(self):
        with pytest.raises(ValueError, match="no visible keypoints"):
            _bbox(_pose((10, 10, 0), (20, 30, 0)), 0.1)

    def test_clamped_to_panorama(self):
        pose = _pose((5, 5, 2), (1995, 595, 2))
        assert _bbox(pose, 0.1) == (0, 0, PANO.width, PANO.height)

    def test_single_keypoint_yields_a_valid_box(self):
        x1, y1, x2, y2 = _bbox(_pose((50, 60, 2)), 0.0)
        assert x1 < x2 and y1 < y2


def _matching_box(box, pose):
    """The matching box of one person with an optional box and pose."""
    has_box = np.array([box is not None])
    row = np.array([box if box is not None else (0.0,) * 4], dtype=np.float64)
    return tuple(_matching_boxes(row, has_box, pose[None])[0].tolist())


class TestPersonBox:
    def test_prefers_stored_box(self):
        assert _matching_box((1, 2, 3, 4), _pose((100, 100, 2), (200, 200, 2))) == (1, 2, 3, 4)

    def test_tight_box_over_visible_keypoints(self):
        box = _matching_box(None, _pose((10, 10, 2), (20, 30, 2), (999, 999, 0)))
        assert box == (10, 10, 20, 30)

    def test_falls_back_to_all_keypoints(self):
        x1, _, x2, _ = _matching_box(None, _pose((10, 10, 0), (20, 30, 0)))
        assert (x1, x2) == (10, 20)


def _boxes_dataset(*boxes):
    """One frame of box-only persons with ids p0, p1, ..."""
    return dataset("jrdb17", PANO, [("f0", [person(id=f"p{i}", box=b) for i, b in enumerate(boxes)])])


class TestShiftFrame:
    def test_shift_zero_is_identity(self):
        ds = _boxes_dataset((10, 10, 50, 70))
        assert shift_dataset(ds, 0.0) == ds

    def test_shift_full_period_is_identity(self):
        ds = _boxes_dataset((10.25, 10, 50.5, 70))
        assert shift_dataset(ds, PANO.width) == ds

    def test_box_crossing_the_seam_is_removed(self):
        w = PANO.width
        shifted = shift_dataset(_boxes_dataset((w - 10, 0, w - 2, 20)), 6.0)
        assert len(shifted.ids) == 0
        assert shifted.offsets.tolist() == [0, 0]

    def test_surviving_box_is_translated(self):
        shifted = shift_dataset(_boxes_dataset((100, 10, 150, 90)), 25.0)
        assert shifted.boxes.tolist() == [[125, 10, 175, 90]]

    def test_pose_x_wraps_and_y_unchanged(self):
        # Whole person wraps around the seam: x coordinates reduce mod W.
        ds = dataset("jrdb17", PANO, [("f0", [person(pose=_pose17((1990, 40, 2), (1994, 50, 2)))])])
        kps = shift_dataset(ds, 20.0).keypoints[0]
        assert kps[:2, :2].tolist() == [[10, 40], [14, 50]]
        assert kps[2:, :2].tolist() == [[10, 40]] * 15

    def test_pose_spanning_the_seam_is_removed(self):
        ds = dataset("jrdb17", PANO, [("f0", [person(pose=_pose17((1990, 40, 2), (1999, 50, 2)))])])
        assert len(shift_dataset(ds, 5.0).ids) == 0

    def test_round_trip_restores_survivors(self):
        # Integer coordinates keep the forward+backward shift exact.
        rng = np.random.default_rng(13)
        for _ in range(50):
            boxes = [
                (float(x), 0.0, float(x + w), 50.0)
                for x, w in zip(
                    rng.integers(0, 1900, 6), rng.integers(5, 100, 6)
                )
                if x + w <= 2000
            ]
            ds = _boxes_dataset(*boxes)
            s = float(rng.integers(0, 2000))
            back = shift_dataset(shift_dataset(ds, s), PANO.width - s)
            survivors = set(back.ids.tolist())
            expected = [(f"p{i}", list(b)) for i, b in enumerate(boxes) if f"p{i}" in survivors]
            assert list(zip(back.ids.tolist(), back.boxes.tolist())) == expected


class TestNms:
    def test_single_box_unchanged(self):
        assert nms([(0, 0, 10, 10)], [0.7], 0.5).tolist() == [0]

    def test_duplicate_box_suppressed(self):
        assert nms([(0, 0, 10, 10), (0, 0, 10, 10)], [0.8, 0.9], 0.5).tolist() == [1]

    def test_disjoint_boxes_kept(self):
        assert nms([(50, 50, 60, 60), (0, 0, 10, 10)], [0.1, 0.9], 0.5).tolist() == [1, 0]

    def test_threshold_out_of_range(self):
        with pytest.raises(ValueError):
            nms(np.zeros((0, 4)), [], 1.5)

    def test_idempotent_and_bounded_overlap(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            boxes, scores = _random_boxes(rng, int(rng.integers(0, 20)))
            tau = float(rng.uniform(0.05, 0.95))
            kept = nms(boxes, scores, tau)
            assert nms(boxes[kept], scores[kept], tau).tolist() == list(range(len(kept)))
            assert len(set(kept.tolist())) == len(kept)
            overlap = iou(boxes[kept], boxes[kept])
            assert (overlap[np.triu_indices(len(kept), 1)] < tau).all()
            assert scores[kept].tolist() == sorted(scores[kept].tolist(), reverse=True)


def _affine(a, b, c, d, e, f):
    return np.array([[a, b, c], [d, e, f]], dtype=np.float64)


class TestAffine:
    def test_identity(self):
        t = _affine(1.0, 0.0, 0.0, 0.0, 1.0, 0.0)
        assert apply_transform(t, (3.5, -2.0)).tolist() == [3.5, -2.0]

    def test_translation(self):
        t = _affine(1.0, 0.0, 5.0, 0.0, 1.0, -3.0)
        assert apply_transform(t, (1.0, 2.0)).tolist() == [6.0, -1.0]

    def test_singular_rejected(self):
        for use in (invert_transform, lambda t: apply_transform(t, (0.0, 0.0))):
            with pytest.raises(ValueError, match="singular"):
                use(_affine(1.0, 0.0, 0.0, 2.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="non-finite transform coefficient inf"):
            invert_transform(_affine(1e-309, 0.0, 0.0, 0.0, 1e10, 0.0))  # 1 / 1e-309 overflows

    def test_invert_round_trip(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            a, b, d, e = rng.uniform(-2, 2, 4)
            if abs(a * e - b * d) < 1e-3:
                continue
            t = _affine(a, b, rng.uniform(-50, 50), d, e, rng.uniform(-50, 50))
            p = tuple(rng.uniform(-100, 100, 2))
            q = apply_transform(invert_transform(t), apply_transform(t, p))
            assert math.hypot(q[0] - p[0], q[1] - p[1]) < 1e-6


class TestCropTransform:
    def test_exact_fit_is_identity(self):
        t = crop_transform([(0, 0, 288, 384)], 288, 384, padding=1.0)
        assert t.tolist() == [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]]

    def test_double_size_box_halves(self):
        (t,) = crop_transform([(0, 0, 576, 768)], 288, 384, padding=1.0)
        assert (t[0, 0], t[1, 1]) == (0.5, 0.5)
        assert apply_transform(t, (576.0, 768.0)).tolist() == [288.0, 384.0]

    def test_square_box_padded_to_output_aspect(self):
        inv = invert_transform(crop_transform([(10, 20, 110, 120)], 288, 384, padding=1.0)[0])
        (x1, y1), (x2, y2) = apply_transform(inv, [(0.0, 0.0), (288.0, 384.0)])
        assert (x2 - x1) / (y2 - y1) == pytest.approx(288 / 384, abs=1e-12)
        assert x2 - x1 == pytest.approx(100.0, abs=1e-9)  # width untouched

    def test_padding_scales_the_source_window(self):
        inv = invert_transform(crop_transform([(0, 0, 288, 384)], 288, 384, padding=1.25)[0])
        (x1, y1), (x2, y2) = apply_transform(inv, [(0.0, 0.0), (288.0, 384.0)])
        assert x2 - x1 == pytest.approx(288 * 1.25, abs=1e-9)
        assert y2 - y1 == pytest.approx(384 * 1.25, abs=1e-9)
        # expansion is about the box center
        assert 0.5 * (x1 + x2) == pytest.approx(144.0, abs=1e-9)

    def test_bad_parameters_rejected(self):
        box = [(0, 0, 10, 10)]
        with pytest.raises(ValueError):
            crop_transform(box, 288, 384, padding=0.0)
        with pytest.raises(ValueError):
            crop_transform(box, 0, 384, padding=1.0)
        with pytest.raises(ValueError, match="padding 1e[+]308 gives a non-finite transform coefficient nan"):
            crop_transform(box, 288, 384, padding=1e308)

    def test_expanded_corners_round_trip(self):
        rng = np.random.default_rng(53)
        corners = np.array([(0.0, 0.0), (288.0, 0.0), (0.0, 384.0), (288.0, 384.0)])
        for _ in range(200):
            box, _ = _random_boxes(rng, 1, 0, 500)
            (t,) = crop_transform(box, 288, 384, padding=float(rng.uniform(0.5, 2.0)))
            back = apply_transform(t, apply_transform(invert_transform(t), corners))
            assert np.hypot(*(back - corners).T).max() < 1e-6

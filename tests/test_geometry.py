import math

import numpy as np
import pytest

from panopose.dataio import FrameAnnotations, Person, Pose
from panopose.geometry import (
    AffineTransform,
    BoundingBox,
    PanoramaSpec,
    apply_transform,
    bbox_from_pose,
    compose_transforms,
    crop_transform,
    invert_transform,
    iou,
    nms,
    person_box,
    shift_frame,
)

PANO = PanoramaSpec(2000.0, 600.0)


def _pose(*xyv):
    return Pose(xyv)


def _random_box(rng, lo=0.0, hi=100.0):
    x1, x2 = sorted(rng.uniform(lo, hi, 2))
    y1, y2 = sorted(rng.uniform(lo, hi, 2))
    return BoundingBox(x1, y1, x2 + 1.0, y2 + 1.0, score=float(rng.uniform(0, 1)))


class TestBoundingBox:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            BoundingBox(5, 0, 5, 10)
        with pytest.raises(ValueError):
            BoundingBox(0, 10, 10, 10)
        with pytest.raises(ValueError, match="area 0.0 must be positive and finite"):
            BoundingBox(0, 0, 5e-324, 5e-324)
        with pytest.raises(ValueError, match="area inf must be positive and finite"):
            BoundingBox(-1e308, -1e308, 1e308, 1e308)

    def test_rejects_bad_score(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 1, 1, score=1.5)

    def test_derived_quantities(self):
        b = BoundingBox(1, 2, 5, 10)
        assert (b.width, b.height, b.area) == (4, 8, 32)
        assert b.center == (3, 6)


class TestIou:
    def test_identical_boxes(self):
        b = BoundingBox(3, 4, 10, 20)
        assert iou(b, b) == 1.0

    def test_disjoint_boxes(self):
        assert iou(BoundingBox(0, 0, 1, 1), BoundingBox(5, 5, 6, 6)) == 0.0

    def test_third_overlap(self):
        # inter = 1x2 = 2, union = 4 + 4 - 2 = 6
        a = BoundingBox(0, 0, 2, 2)
        b = BoundingBox(1, 0, 3, 2)
        assert iou(a, b) == 2.0 / 6.0

    def test_third_overlap_matches_grid_oracle(self):
        # Rasterize both boxes on a fine grid and count cell centers.
        a = BoundingBox(0, 0, 2, 2)
        b = BoundingBox(1, 0, 3, 2)
        n = 1500
        xs = (np.arange(n) + 0.5) * (3.0 / n)
        ys = (np.arange(n) + 0.5) * (2.0 / n)
        gx, gy = np.meshgrid(xs, ys)

        def inside(box):
            return (gx >= box.x1) & (gx < box.x2) & (gy >= box.y1) & (gy < box.y2)

        in_a, in_b = inside(a), inside(b)
        oracle = np.count_nonzero(in_a & in_b) / np.count_nonzero(in_a | in_b)
        assert abs(oracle - iou(a, b)) < 2e-3

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b = _random_box(rng), _random_box(rng)
            v = iou(a, b)
            assert 0.0 <= v <= 1.0
            assert v == iou(b, a)


class TestBboxFromPose:
    def test_tight_box_margin_zero(self):
        pose = _pose((10, 10, 2), (20, 30, 2))
        box = bbox_from_pose(pose, 0.0, PANO)
        assert (box.x1, box.y1, box.x2, box.y2) == (10, 10, 20, 30)
        assert box.score == 1.0

    def test_margin_expands_each_side(self):
        pose = _pose((10, 10, 2), (20, 30, 2))
        box = bbox_from_pose(pose, 0.1, PANO)
        assert (box.x1, box.y1, box.x2, box.y2) == (9, 8, 21, 32)

    def test_invisible_keypoints_ignored(self):
        pose = _pose((10, 10, 2), (20, 30, 2), (500, 500, 0))
        box = bbox_from_pose(pose, 0.0, PANO)
        assert (box.x2, box.y2) == (20, 30)

    def test_all_invisible_is_an_error(self):
        with pytest.raises(ValueError, match="no visible keypoints"):
            bbox_from_pose(_pose((10, 10, 0), (20, 30, 0)), 0.1, PANO)

    def test_clamped_to_panorama(self):
        pose = _pose((5, 5, 2), (1995, 595, 2))
        box = bbox_from_pose(pose, 0.1, PANO)
        assert (box.x1, box.y1) == (0, 0)
        assert (box.x2, box.y2) == (PANO.width, PANO.height)

    def test_single_keypoint_yields_a_valid_box(self):
        box = bbox_from_pose(_pose((50, 60, 2)), 0.0, PANO)
        assert box.x1 < box.x2 and box.y1 < box.y2


class TestPersonBox:
    def test_prefers_stored_box(self):
        stored = BoundingBox(1, 2, 3, 4)
        person = Person(box=stored, pose=_pose((100, 100, 2), (200, 200, 2)))
        assert person_box(person) is stored

    def test_tight_box_over_visible_keypoints(self):
        person = Person(pose=_pose((10, 10, 2), (20, 30, 2), (999, 999, 0)))
        box = person_box(person)
        assert (box.x1, box.y1, box.x2, box.y2) == (10, 10, 20, 30)

    def test_falls_back_to_all_keypoints(self):
        person = Person(pose=_pose((10, 10, 0), (20, 30, 0)))
        box = person_box(person)
        assert (box.x1, box.x2) == (10, 20)


def _frame_with_boxes(*boxes, with_ids=True):
    persons = tuple(
        Person(id=f"p{i}" if with_ids else None, box=b) for i, b in enumerate(boxes)
    )
    return FrameAnnotations("f0", persons)


class TestShiftFrame:
    def test_shift_zero_is_identity(self):
        frame = _frame_with_boxes(BoundingBox(10, 10, 50, 70))
        assert shift_frame(frame, 0.0, PANO) == frame

    def test_shift_full_period_is_identity(self):
        frame = _frame_with_boxes(BoundingBox(10.25, 10, 50.5, 70))
        assert shift_frame(frame, PANO.width, PANO) == frame

    def test_box_crossing_the_seam_is_removed(self):
        w = PANO.width
        frame = _frame_with_boxes(BoundingBox(w - 10, 0, w - 2, 20))
        shifted = shift_frame(frame, 6.0, PANO)
        assert shifted.persons == ()

    def test_surviving_box_is_translated(self):
        frame = _frame_with_boxes(BoundingBox(100, 10, 150, 90))
        shifted = shift_frame(frame, 25.0, PANO)
        box = shifted.persons[0].box
        assert (box.x1, box.x2, box.y1, box.y2) == (125, 175, 10, 90)

    def test_pose_x_wraps_and_y_unchanged(self):
        # Whole person wraps around the seam: x coordinates reduce mod W.
        person = Person(pose=_pose((1990, 40, 2), (1994, 50, 2)))
        frame = FrameAnnotations("f0", (person,))
        shifted = shift_frame(frame, 20.0, PANO)
        kps = shifted.persons[0].pose.keypoints
        assert kps[:, :2].tolist() == [[10, 40], [14, 50]]

    def test_pose_spanning_the_seam_is_removed(self):
        person = Person(pose=_pose((1990, 40, 2), (1999, 50, 2)))
        frame = FrameAnnotations("f0", (person,))
        assert shift_frame(frame, 5.0, PANO).persons == ()

    def test_round_trip_restores_survivors(self):
        # Integer coordinates keep the forward+backward shift exact.
        rng = np.random.default_rng(13)
        for _ in range(50):
            boxes = [
                BoundingBox(float(x), 0.0, float(x + w), 50.0)
                for x, w in zip(
                    rng.integers(0, 1900, 6), rng.integers(5, 100, 6)
                )
                if x + w <= 2000
            ]
            frame = _frame_with_boxes(*boxes)
            s = float(rng.integers(0, 2000))
            there = shift_frame(frame, s, PANO)
            back = shift_frame(there, PANO.width - s, PANO)
            survivors = {p.id for p in back.persons}
            expected = tuple(p for p in frame.persons if p.id in survivors)
            assert back.persons == expected


class TestNms:
    def test_single_box_unchanged(self):
        dets = [BoundingBox(0, 0, 10, 10, score=0.7)]
        assert nms(dets, 0.5) == dets

    def test_duplicate_box_suppressed(self):
        hi = BoundingBox(0, 0, 10, 10, score=0.9)
        lo = BoundingBox(0, 0, 10, 10, score=0.8)
        assert nms([lo, hi], 0.5) == [hi]

    def test_disjoint_boxes_kept(self):
        a = BoundingBox(0, 0, 10, 10, score=0.9)
        b = BoundingBox(50, 50, 60, 60, score=0.1)
        assert nms([b, a], 0.5) == [a, b]

    def test_threshold_out_of_range(self):
        with pytest.raises(ValueError):
            nms([], 1.5)

    def test_idempotent_and_bounded_overlap(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            dets = [_random_box(rng) for _ in range(int(rng.integers(0, 20)))]
            tau = float(rng.uniform(0.05, 0.95))
            kept = nms(dets, tau)
            assert nms(kept, tau) == kept
            assert all(k in dets for k in kept)
            for i in range(len(kept)):
                for j in range(i + 1, len(kept)):
                    assert iou(kept[i], kept[j]) < tau
            scores = [k.score for k in kept]
            assert scores == sorted(scores, reverse=True)


class TestAffine:
    def test_identity(self):
        t = AffineTransform.identity()
        assert apply_transform(t, (3.5, -2.0)) == (3.5, -2.0)

    def test_translation(self):
        t = AffineTransform.translation(5.0, -3.0)
        assert apply_transform(t, (1.0, 2.0)) == (6.0, -1.0)

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            AffineTransform(1.0, 0.0, 0.0, 2.0, 0.0, 0.0)

    def test_invert_round_trip(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            a, b, d, e = rng.uniform(-2, 2, 4)
            if abs(a * e - b * d) < 1e-3:
                continue
            t = AffineTransform(a, b, rng.uniform(-50, 50), d, e, rng.uniform(-50, 50))
            p = tuple(rng.uniform(-100, 100, 2))
            q = apply_transform(invert_transform(t), apply_transform(t, p))
            assert math.hypot(q[0] - p[0], q[1] - p[1]) < 1e-6

    def test_compose_applies_right_to_left(self):
        scale = AffineTransform(2.0, 0.0, 0.0, 0.0, 2.0, 0.0)
        shift = AffineTransform.translation(1.0, 1.0)
        both = compose_transforms(scale, shift)  # shift first, then scale
        assert apply_transform(both, (1.0, 1.0)) == (4.0, 4.0)


class TestCropTransform:
    def test_exact_fit_is_identity(self):
        t = crop_transform(BoundingBox(0, 0, 288, 384), 288, 384, padding=1.0)
        assert t == AffineTransform.identity()

    def test_double_size_box_halves(self):
        t = crop_transform(BoundingBox(0, 0, 576, 768), 288, 384, padding=1.0)
        assert (t.a, t.e) == (0.5, 0.5)
        assert apply_transform(t, (576.0, 768.0)) == (288.0, 384.0)

    def test_square_box_padded_to_output_aspect(self):
        t = crop_transform(BoundingBox(10, 20, 110, 120), 288, 384, padding=1.0)
        inv = invert_transform(t)
        x1, y1 = apply_transform(inv, (0.0, 0.0))
        x2, y2 = apply_transform(inv, (288.0, 384.0))
        assert (x2 - x1) / (y2 - y1) == pytest.approx(288 / 384, abs=1e-12)
        assert x2 - x1 == pytest.approx(100.0, abs=1e-9)  # width untouched

    def test_padding_scales_the_source_window(self):
        t = crop_transform(BoundingBox(0, 0, 288, 384), 288, 384, padding=1.25)
        inv = invert_transform(t)
        x1, y1 = apply_transform(inv, (0.0, 0.0))
        x2, y2 = apply_transform(inv, (288.0, 384.0))
        assert x2 - x1 == pytest.approx(288 * 1.25, abs=1e-9)
        assert y2 - y1 == pytest.approx(384 * 1.25, abs=1e-9)
        # expansion is about the box center
        assert 0.5 * (x1 + x2) == pytest.approx(144.0, abs=1e-9)

    def test_bad_parameters_rejected(self):
        box = BoundingBox(0, 0, 10, 10)
        with pytest.raises(ValueError):
            crop_transform(box, 288, 384, padding=0.0)
        with pytest.raises(ValueError):
            crop_transform(box, 0, 384, padding=1.0)

    def test_expanded_corners_round_trip(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            box = _random_box(rng, 0, 500)
            t = crop_transform(box, 288, 384, padding=float(rng.uniform(0.5, 2.0)))
            inv = invert_transform(t)
            for corner in ((0.0, 0.0), (288.0, 0.0), (0.0, 384.0), (288.0, 384.0)):
                src = apply_transform(inv, corner)
                back = apply_transform(t, src)
                assert math.hypot(back[0] - corner[0], back[1] - corner[1]) < 1e-6

import math

import numpy as np
import pytest

from panopose.decode import HeatmapStack, decode_heatmaps
from panopose.geometry import AffineTransform, BoundingBox, crop_transform

IDENTITY = AffineTransform.identity()


def _one_hot(i, j, k=1, h=12, w=12, value=1.0):
    grid = np.zeros((k, h, w))
    grid[:, i, j] = value
    return grid


class TestHeatmapStack:
    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="empty grid"):
            HeatmapStack(np.zeros((1, 0, 5)), 4.0)

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError, match="stride"):
            HeatmapStack(np.zeros((1, 4, 4)), 0.0)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            HeatmapStack(np.zeros((4, 4)), 4.0)


class TestDecode:
    def test_one_hot_peak_at_cell_center(self):
        # Cell (5,5) at stride 4 sits at crop coordinate (5.5*4, 5.5*4).
        stack = HeatmapStack(_one_hot(5, 5), 4.0)
        pose, conf = decode_heatmaps(stack, IDENTITY)
        x, y, v = pose.keypoints[0]
        assert (x, y) == (22.0, 22.0)
        assert conf[0] == 1.0
        assert v == 2

    def test_quarter_offset_toward_larger_neighbor(self):
        grid = _one_hot(5, 5)
        grid[0, 5, 6] = 0.5  # right neighbor larger than left (0)
        pose, _ = decode_heatmaps(HeatmapStack(grid, 4.0), IDENTITY)
        assert pose.keypoints[0, 0] == (5 + 0.5 + 0.25) * 4.0
        assert pose.keypoints[0, 1] == 22.0

    def test_quarter_offset_toward_smaller_index(self):
        grid = _one_hot(5, 5)
        grid[0, 4, 5] = 0.5  # upper neighbor larger than lower
        pose, _ = decode_heatmaps(HeatmapStack(grid, 4.0), IDENTITY)
        assert pose.keypoints[0, 1] == (5 + 0.5 - 0.25) * 4.0

    def test_uniform_grid_tie_breaks_to_first_cell(self):
        stack = HeatmapStack(np.full((1, 6, 8), 0.25), 4.0)
        pose, conf = decode_heatmaps(stack, IDENTITY)
        # argmax at (0,0); border cell, so no refinement
        assert tuple(pose.keypoints[0, :2]) == (2.0, 2.0)
        assert conf[0] == 0.25

    def test_no_refinement_at_borders(self):
        grid = _one_hot(0, 11)
        grid[0, 0, 10] = 0.9
        pose, _ = decode_heatmaps(HeatmapStack(grid, 4.0), IDENTITY)
        assert pose.keypoints[0, 0] == (11 + 0.5) * 4.0
        assert pose.keypoints[0, 1] == 2.0

    def test_confidence_equals_grid_maximum(self):
        rng = np.random.default_rng(31)
        values = rng.uniform(0, 1, size=(17, 24, 18))
        _, conf = decode_heatmaps(HeatmapStack(values, 4.0), IDENTITY)
        assert np.array_equal(conf, values.max(axis=(1, 2)))

    def test_refinement_bounded_by_quarter_cell(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            values = rng.uniform(0, 1, size=(5, 16, 12))
            stack = HeatmapStack(values, 4.0)
            pose, _ = decode_heatmaps(stack, IDENTITY)
            for k, (x, y, _) in enumerate(pose.keypoints):
                flat = int(np.argmax(values[k]))
                i, j = divmod(flat, 12)
                assert abs(x / 4.0 - 0.5 - j) <= 0.25 + 1e-12
                assert abs(y / 4.0 - 0.5 - i) <= 0.25 + 1e-12

    def test_translation_equivariance(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            values = rng.uniform(0, 1, size=(4, 20, 15))
            stack = HeatmapStack(values, 4.0)
            x1, y1 = rng.uniform(0, 300, 2)
            box = BoundingBox(x1, y1, x1 + rng.uniform(20, 200), y1 + rng.uniform(20, 200))
            crop = crop_transform(box, 288, 384, padding=1.25)
            dx, dy = rng.uniform(-40, 40, 2)
            # The crop of the box moved by (-dx, -dy): x -> crop(x + dx, y + dy).
            moved = crop_transform(
                BoundingBox(box.x1 - dx, box.y1 - dy, box.x2 - dx, box.y2 - dy),
                288, 384, padding=1.25,
            )
            base, _ = decode_heatmaps(stack, crop)
            shifted, _ = decode_heatmaps(stack, moved)
            for (xa, ya, _), (xb, yb, _) in zip(base.keypoints, shifted.keypoints):
                assert abs((xa - xb) - dx) < 1e-9
                assert abs((ya - yb) - dy) < 1e-9

    def test_projection_through_crop(self):
        # Exact-fit box: the crop is a pure translation, so cell (h//2, w//2)
        # lands half a cell past the box center on each axis.
        box = BoundingBox(100.0, 50.0, 388.0, 434.0)  # 288 x 384
        crop = crop_transform(box, 288, 384, padding=1.0)
        h, w = 96, 72  # stride 4 under a 384 x 288 input
        grid = np.zeros((1, h, w))
        grid[0, h // 2, w // 2] = 1.0
        pose, _ = decode_heatmaps(HeatmapStack(grid, 4.0), crop)
        cx, cy = box.center
        assert math.isclose(pose.keypoints[0, 0], cx + 2.0, abs_tol=1e-9)
        assert math.isclose(pose.keypoints[0, 1], cy + 2.0, abs_tol=1e-9)

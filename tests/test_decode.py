import math

import numpy as np
import pytest
from synth import SCENE_PANO, dataset, reference_scene

from panopose.decode import decode_heatmaps
from panopose.geometry import CROP_HEIGHT, CROP_WIDTH, crop_transform
from panopose.metrics import OksParams, default_oks_params, oks

IDENTITY = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def _one_hot(i, j, k=1, h=12, w=12, value=1.0):
    grid = np.zeros((k, h, w))
    grid[:, i, j] = value
    return grid


class TestHeatmapStack:
    """The checks on one detection's [K, h, w] heatmap stack, its stride and
    its crop, at the entry of decode_heatmaps."""

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match=r"^grid must be \[K, h, w\] with K, h, w >= 1, "
                                             r"got shape \(1, 0, 5\)$"):
            decode_heatmaps(np.zeros((1, 0, 5)), 4.0, IDENTITY)

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError, match="stride"):
            decode_heatmaps(np.zeros((1, 4, 4)), 0.0, IDENTITY)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match=r"^grid must be \[K, h, w\] with K, h, w >= 1, "
                                             r"got shape \(4, 4\)$"):
            decode_heatmaps(np.zeros((4, 4)), 4.0, IDENTITY)

    def test_rejects_a_bad_crop(self):
        with pytest.raises(ValueError, match="singular transform"):
            decode_heatmaps(np.zeros((1, 4, 4)), 4.0, [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="non-finite transform coefficient nan"):
            decode_heatmaps(np.zeros((1, 4, 4)), 4.0, [[1.0, 0.0, np.nan], [0.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match=r"crop must be \[2, 3\]"):
            decode_heatmaps(np.zeros((1, 4, 4)), 4.0, IDENTITY[None])


class TestDecode:
    def test_one_hot_peak_at_cell_center(self):
        # Cell (5,5) at stride 4 sits at crop coordinate (5.5*4, 5.5*4).
        kps, conf = decode_heatmaps(_one_hot(5, 5), 4.0, IDENTITY)
        x, y, v = kps[0]
        assert (x, y) == (22.0, 22.0)
        assert conf[0] == 1.0
        assert v == 2

    def test_quarter_offset_toward_larger_neighbor(self):
        grid = _one_hot(5, 5)
        grid[0, 5, 6] = 0.5  # right neighbor larger than left (0)
        kps, _ = decode_heatmaps(grid, 4.0, IDENTITY)
        assert kps[0, 0] == (5 + 0.5 + 0.25) * 4.0
        assert kps[0, 1] == 22.0

    def test_quarter_offset_toward_smaller_index(self):
        grid = _one_hot(5, 5)
        grid[0, 4, 5] = 0.5  # upper neighbor larger than lower
        kps, _ = decode_heatmaps(grid, 4.0, IDENTITY)
        assert kps[0, 1] == (5 + 0.5 - 0.25) * 4.0

    def test_uniform_grid_tie_breaks_to_first_cell(self):
        kps, conf = decode_heatmaps(np.full((1, 6, 8), 0.25), 4.0, IDENTITY)
        # argmax at (0,0); border cell, so no refinement
        assert tuple(kps[0, :2]) == (2.0, 2.0)
        assert conf[0] == 0.25

    def test_no_refinement_at_borders(self):
        grid = _one_hot(0, 11)
        grid[0, 0, 10] = 0.9
        kps, _ = decode_heatmaps(grid, 4.0, IDENTITY)
        assert kps[0, 0] == (11 + 0.5) * 4.0
        assert kps[0, 1] == 2.0

    def test_confidence_equals_grid_maximum(self):
        rng = np.random.default_rng(31)
        values = rng.uniform(0, 1, size=(17, 24, 18))
        _, conf = decode_heatmaps(values, 4.0, IDENTITY)
        assert np.array_equal(conf, values.max(axis=(1, 2)))

    def test_refinement_bounded_by_quarter_cell(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            values = rng.uniform(0, 1, size=(5, 16, 12))
            kps, _ = decode_heatmaps(values, 4.0, IDENTITY)
            for k, (x, y, _) in enumerate(kps):
                flat = int(np.argmax(values[k]))
                i, j = divmod(flat, 12)
                assert abs(x / 4.0 - 0.5 - j) <= 0.25 + 1e-12
                assert abs(y / 4.0 - 0.5 - i) <= 0.25 + 1e-12

    def test_translation_equivariance(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            values = rng.uniform(0, 1, size=(4, 20, 15))
            x1, y1 = rng.uniform(0, 300, 2)
            box = np.array([x1, y1, x1 + rng.uniform(20, 200), y1 + rng.uniform(20, 200)])
            dx, dy = rng.uniform(-40, 40, 2)
            # The crop of the box moved by (-dx, -dy): x -> crop(x + dx, y + dy).
            crop, moved = crop_transform([box, box - [dx, dy, dx, dy]], 288, 384, padding=1.25)
            base, _ = decode_heatmaps(values, 4.0, crop)
            shifted, _ = decode_heatmaps(values, 4.0, moved)
            for (xa, ya, _), (xb, yb, _) in zip(base, shifted):
                assert abs((xa - xb) - dx) < 1e-9
                assert abs((ya - yb) - dy) < 1e-9

    def test_projection_through_crop(self):
        # Exact-fit box: the crop is a pure translation, so cell (h//2, w//2)
        # lands half a cell past the box center on each axis.
        (crop,) = crop_transform([(100.0, 50.0, 388.0, 434.0)], 288, 384, padding=1.0)  # 288 x 384
        h, w = 96, 72  # stride 4 under a 384 x 288 input
        grid = np.zeros((1, h, w))
        grid[0, h // 2, w // 2] = 1.0
        kps, _ = decode_heatmaps(grid, 4.0, crop)
        cx, cy = 244.0, 242.0  # the box center
        assert math.isclose(kps[0, 0], cx + 2.0, abs_tol=1e-9)
        assert math.isclose(kps[0, 1], cy + 2.0, abs_tol=1e-9)


@pytest.mark.parametrize("name, error, worst", [
    ("right_edge", 0.829, {1: (0.950, 0.987), 2: (0.987, 0.997)}),
    ("sigma_scale", 1.105, {1: (0.967, 0.990), 2: (0.992, 0.997)}),
])
def test_what_a_quarter_cell_costs_in_oks_at_panorama_scale(name, error, worst):
    # README's stride/4 bound is 1 crop px per axis at stride 4 (a 72 x 96
    # grid for the 288 x 384 crop, padding 1.25); each ground truth's crop
    # scales it to panorama px. Every labeled keypoint moved that far on
    # both axes gives the worst keypoint term exp(-d^2 / (2 s^2 k^2)) and
    # the worst pose OKS, for k = sigma (as scored today) and k = 2 sigma
    # (COCO's).
    gts = dataset("jrdb17", SCENE_PANO, reference_scene()[name][0])
    assert gts.has_box.all()
    crops = crop_transform(gts.boxes, CROP_WIDTH, CROP_HEIGHT, 1.25)
    off = 1.0 / np.stack([crops[:, 0, 0], crops[:, 1, 1]], axis=1)
    d2 = (off ** 2).sum(axis=1)
    assert round(math.sqrt(d2.max()), 3) == error
    areas = (gts.boxes[:, 2] - gts.boxes[:, 0]) * (gts.boxes[:, 3] - gts.boxes[:, 1])
    sigmas = np.array(default_oks_params("jrdb17").sigmas)
    for k, (term, pose) in worst.items():
        labeled = gts.keypoints[:, :, 2] > 0
        terms = np.exp(-d2[:, None] / (2.0 * areas[:, None] * (k * sigmas) ** 2))
        assert round(float(terms[labeled].min()), 3) == term
        poses = [oks(np.column_stack([kps[:, :2] + moved, kps[:, 2]]), kps, OksParams(tuple(k * sigmas)), gt_box)
                 for kps, moved, gt_box in zip(gts.keypoints, off, gts.boxes)]
        assert round(min(poses), 3) == pose

"""Worked cases of the COCO oracle (``coco.py``), one for each rule it
transcribes and each switch it has, with values computed by hand; on each
case, the oracle with every switch set gives ``evaluate``'s ``ap_05``."""

import math

import numpy as np
import pytest
from coco import PANOPOSE, coco_ap, coco_oks
from synth import DEFAULT_PANO, dataset, person

from panopose.metrics import COCO_SIGMAS, OksParams, default_oks_params, evaluate, oks

SIGMAS = default_oks_params("jrdb17").sigmas
# A spread pose: keypoint i at (100 + 5i, 100 + 8i), all labeled.
POSE = np.column_stack([100.0 + 5.0 * np.arange(17), 100.0 + 8.0 * np.arange(17), np.full(17, 2.0)])


def _moved(dx: float, dy: float = 0.0) -> list:
    return (POSE + (dx, dy, 0.0)).tolist()


def _gt(dx: float = 0.0) -> dict:
    return person(pose=_moved(dx), box=(90.0 + dx, 90.0, 190.0 + dx, 240.0))


def _panopose_ap(frames) -> float:
    """``evaluate``'s ``ap_05`` of oracle frames."""
    preds = dataset("jrdb17", DEFAULT_PANO, [(fid, p) for fid, p, _ in frames])
    gts = dataset("jrdb17", DEFAULT_PANO, [(fid, g) for fid, _, g in frames])
    return evaluate(preds, gts).ap_05


def _assert_panopose(frames) -> None:
    assert abs(coco_ap(frames, SIGMAS, **PANOPOSE) - _panopose_ap(frames)) <= 1e-12


def test_oks_falls_off_with_twice_sigma():
    # One labeled keypoint at distance 5 on a 100 x 100 box:
    # e = 25 / (2 sigma)^2 / area / 2, and sigma itself with k_is_sigma.
    gt_pose = [[0.0, 0.0, 0]] * 17
    gt_pose[0] = [50.0, 50.0, 2]
    gt = person(pose=gt_pose, box=(0.0, 0.0, 100.0, 100.0))
    pred = [[53.0, 54.0, 2]] * 17
    sigma = COCO_SIGMAS[0]
    assert coco_oks(pred, gt, COCO_SIGMAS) == pytest.approx(math.exp(-25.0 / (8.0 * sigma ** 2 * 1e4)), rel=1e-12)
    assert coco_oks(pred, gt, COCO_SIGMAS, k_is_sigma=True) == \
        pytest.approx(math.exp(-25.0 / (2.0 * sigma ** 2 * 1e4)), rel=1e-12)
    assert coco_oks(pred, gt, COCO_SIGMAS, k_is_sigma=True) == \
        pytest.approx(oks(pred, gt_pose, OksParams(COCO_SIGMAS), (0.0, 0.0, 100.0, 100.0)), rel=1e-12)


def test_oks_against_a_ground_truth_without_labels_is_the_distance_outside_its_grown_box():
    # The 10 x 20 box (10, 10, 20, 30) grown by its width and height on each
    # side spans x in [0, 30] and y in [-10, 50]: every keypoint at (45, 20)
    # lies 15 px outside it, so e_i = 225 / (2 sigma_i)^2 / 200 / 2, averaged
    # over all 17 keypoints.
    gt = person(box=(10.0, 10.0, 20.0, 30.0))
    expected = np.mean([math.exp(-225.0 / (2.0 * s) ** 2 / 200.0 / 2.0) for s in SIGMAS])
    assert coco_oks([[45.0, 20.0, 2]] * 17, gt, SIGMAS) == pytest.approx(expected, rel=1e-12)
    assert coco_oks([[25.0, 0.0, 2]] * 17, gt, SIGMAS) == 1.0  # inside the grown box


def test_a_ground_truth_without_labels_is_ignored_and_so_is_a_detection_it_takes():
    # The second detection takes the box-only ground truth: under COCO both
    # are ignored, and the first detection alone gives recall 1. Counted, as
    # panopose counts it, that ground truth halves the recall: precision 1
    # up to recall 0.5 is 51 of the 101 points.
    frames = [("f", [person(pose=_moved(0.0), score=0.9), person(pose=[[300.0, 300.0, 2]] * 17, score=0.8)],
               [_gt(), person(box=(290.0, 290.0, 310.0, 310.0))])]
    assert coco_ap(frames, SIGMAS) == pytest.approx(1.0, abs=1e-12)
    assert coco_ap(frames, SIGMAS, count_unmatchable=True) == pytest.approx(51 / 101, abs=1e-12)
    _assert_panopose(frames)


def test_twenty_detections_an_image_are_kept():
    # The one true positive ranks 21st: COCO drops it. Kept, as panopose
    # keeps every detection, it gives precision 1/21 at every recall point.
    far = [person(pose=_moved(1000.0), score=0.9) for _ in range(20)]
    frames = [("f", far + [person(pose=_moved(0.0), score=0.1)], [_gt()])]
    assert coco_ap(frames, SIGMAS) == 0.0
    assert coco_ap(frames, SIGMAS, no_max_dets=True) == pytest.approx(1 / 21, abs=1e-12)
    _assert_panopose(frames)


def test_a_later_ground_truth_of_equal_oks_replaces_an_earlier_one():
    # The first detection lies 15 px from both ground truths. Under COCO it
    # takes the later one, and the second detection, close to the first
    # ground truth and out of the later one's reach, takes the first: two
    # hits. Keeping the first of equals leaves the second detection nothing.
    first, later = _gt(0.0), _gt(30.0)
    tied, close = _moved(15.0), _moved(1.0, 1.0)
    assert coco_oks(tied, first, SIGMAS) == coco_oks(tied, later, SIGMAS) >= 0.5
    assert coco_oks(close, later, SIGMAS) < 0.5 <= coco_oks(close, first, SIGMAS)
    frames = [("f", [person(pose=tied, score=0.9), person(pose=close, score=0.8)], [first, later])]
    assert coco_ap(frames, SIGMAS) == pytest.approx(1.0, abs=1e-12)
    assert coco_ap(frames, SIGMAS, first_of_equals=True) == pytest.approx(51 / 101, abs=1e-12)


def test_precision_is_made_monotone_from_the_right_and_read_at_101_recall_points():
    # Hits at ranks 1 and 3 of 3 over 2 ground truths: recall 0.5, 0.5, 1 and
    # precision 1, 1/2, 2/3, made 1, 2/3, 2/3. Recall points 0 to 0.5 (51 of
    # them) read rank 1, and the 50 above 0.5 read rank 3.
    frames = [("a", [person(pose=_moved(0.0), score=0.9), person(pose=_moved(1000.0), score=0.8)], [_gt()]),
              ("b", [person(pose=_moved(0.0), score=0.7)], [_gt()])]
    assert coco_ap(frames, SIGMAS) == pytest.approx((51 + 50 * 2 / 3) / 101, abs=1e-12)
    _assert_panopose(frames)


def test_without_a_ground_truth_that_counts_ap_is_undefined():
    # COCO's summary prints -1; panopose scores 1.0 without detections and
    # 0.0 with some.
    with_detection = [("f", [person(pose=_moved(0.0), score=0.9)], [])]
    assert coco_ap(with_detection, SIGMAS) is None
    assert coco_ap([], SIGMAS) is None
    assert coco_ap(with_detection, SIGMAS, scored_without_ground_truth=True) == 0.0
    assert coco_ap([], SIGMAS, scored_without_ground_truth=True) == 1.0
    _assert_panopose(with_detection)
    assert _panopose_ap([("f", [], [])]) == 1.0

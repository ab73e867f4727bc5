import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from synth import dataset, make_ground_truth, perturb_predictions, person
from test_properties import brute_force_assignment

from panopose.dataio import _load, dataset_to_canonical_json
from panopose.errors import ValidationError
from panopose.geometry import PanoramaSpec, _areas, _matching_boxes, _ranking
from panopose.metrics import (
    COCO_SIGMAS,
    EvalConfig,
    OksParams,
    _match,
    _optimal_cost,
    _pair_table,
    default_oks_params,
    evaluate,
    oks,
    ospa,
)
from panopose.schema import COCO17, JRDB17

PANO = PanoramaSpec(2000.0, 600.0)
UNIFORM3 = OksParams((0.1, 0.1, 0.1))


def _pose(*coords, vis=None):
    vis = vis or [2] * len(coords)
    return np.array([(x, y, v) for (x, y), v in zip(coords, vis)], dtype=np.float64)


def _capped_euclid(a, b):
    return min(1.0, math.hypot(a[0] - b[0], a[1] - b[1]))


def _random_points(rng, n):
    return [tuple(p) for p in rng.uniform(0, 2, size=(n, 2))]


class TestOksParams:
    def test_sigmas_must_be_positive(self):
        with pytest.raises(ValueError):
            OksParams((0.1, 0.0))

    def test_coco_defaults(self):
        assert default_oks_params("coco17").sigmas == COCO_SIGMAS

    def test_transferred_sigmas(self):
        params = default_oks_params("jrdb17")
        assert len(params.sigmas) == 17
        assert params.sigmas[JRDB17.index("head")] == pytest.approx((0.025 + 0.025) / 2)
        assert params.sigmas[JRDB17.index("neck")] == pytest.approx(0.079)
        assert params.sigmas[JRDB17.index("right hand")] == pytest.approx(
            COCO_SIGMAS[COCO17.index("right wrist")]
        )
        # Each merged target's two constants are equal, so every mean is exact.
        assert params.sigmas == (0.025, 0.025, 0.025, 0.079, 0.079, 0.079, 0.072, 0.072, 0.107,
                                 0.062, 0.107, 0.107, 0.062, 0.087, 0.087, 0.089, 0.089)

    def test_no_defaults_for_unknown_schema(self):
        with pytest.raises(ValidationError):
            default_oks_params("mpii16")


class TestOks:
    BOX = (0.0, 0.0, 10.0, 10.0)  # area 100
    AREA = 100.0

    def test_identical_poses_score_one(self):
        gt = _pose((1, 2), (3, 4), (5, 6))
        assert oks(gt, gt, UNIFORM3, self.BOX) == 1.0

    def test_distant_prediction_scores_near_zero(self):
        s = math.sqrt(self.AREA)
        gt = _pose((0, 0), (1, 1), (2, 2))
        pred = _pose((1000 * s, 0), (1000 * s, 1), (1000 * s, 2))
        assert oks(pred, gt, UNIFORM3, self.BOX) < 1e-9

    def test_single_term_formula(self):
        k = 0.1
        s2 = self.AREA
        d = math.sqrt(2.0 * s2 * k * k)
        gt = _pose((0, 0), (0, 0), (0, 0), vis=[2, 0, 0])
        pred = _pose((d, 0), (9, 9), (9, 9))
        assert oks(pred, gt, UNIFORM3, self.BOX) == pytest.approx(math.exp(-1), abs=1e-12)

    def test_unlabeled_keypoints_excluded(self):
        gt = _pose((0, 0), (5, 5), (0, 0), vis=[2, 0, 2])
        pred = _pose((0, 0), (999, 999), (0, 0))
        assert oks(pred, gt, UNIFORM3, self.BOX) == 1.0

    def test_no_labeled_keypoints_is_an_error(self):
        gt = _pose((0, 0), (1, 1), (2, 2), vis=[0, 0, 0])
        with pytest.raises(ValidationError, match="no labeled keypoints"):
            oks(gt, gt, UNIFORM3, self.BOX)

    def test_inputs_are_checked(self):
        gt = _pose((0, 0), (1, 1), (2, 2))
        with pytest.raises(ValueError, match="keypoint 1: visibility must be 0, 1 or 2, got 3"):
            oks(gt, _pose((0, 0), (1, 1), (2, 2), vis=[2, 3, 2]), UNIFORM3, self.BOX)
        with pytest.raises(ValueError, match=r"^pred must be \[K, 3\], got shape \(3,\)$"):
            oks([0.0, 0.0, 2.0], gt, UNIFORM3, self.BOX)
        with pytest.raises(ValueError, match=r"degenerate box \(0.0, 0.0, 0.0, 1.0\)"):
            oks(gt, gt, UNIFORM3, (0.0, 0.0, 0.0, 1.0))

    def test_scale_underflow_is_an_error(self):
        gt = _pose((0, 0), (1, 1), (2, 2))
        with pytest.raises(ValidationError, match="OKS scale"):
            oks(gt, gt, UNIFORM3, (0.0, 0.0, 1.0, 5e-324))

    def test_translation_invariance(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            pts = rng.uniform(0, 50, size=(3, 2))
            noise = pts + rng.normal(0, 3, size=(3, 2))
            dx, dy = rng.uniform(-100, 100, 2)
            gt = _pose(*map(tuple, pts))
            pred = _pose(*map(tuple, noise))
            gt2 = _pose(*[(x + dx, y + dy) for x, y in pts])
            pred2 = _pose(*[(x + dx, y + dy) for x, y in noise])
            box2 = np.add(self.BOX, (dx, dy, dx, dy))
            a = oks(pred, gt, UNIFORM3, self.BOX)
            b = oks(pred2, gt2, UNIFORM3, box2)
            assert a == pytest.approx(b, abs=1e-12)


class TestAssignment:
    # The solver gives the cost; the enumeration oracle also gives the assignment.
    def test_one_by_one(self):
        assert _optimal_cost(np.array([[0.0]])) == 0.0
        assert brute_force_assignment([[0.0]]) == ({0: 0}, 0.0)

    def test_two_by_two_prefers_global_optimum(self):
        assert _optimal_cost(np.array([[1.0, 2.0], [2.0, 4.0]])) == 4.0
        assignment, cost = brute_force_assignment([[1.0, 2.0], [2.0, 4.0]])
        assert assignment == {0: 1, 1: 0}
        assert cost == 4.0

    def test_zero_diagonal_identity(self):
        n = 5
        cost = np.full((n, n), 100.0)
        np.fill_diagonal(cost, 0.0)
        assert _optimal_cost(cost) == 0.0
        assignment, total = brute_force_assignment(cost)
        assert assignment == {i: i for i in range(n)}
        assert total == 0.0

    def test_empty_matrix(self):
        assert _optimal_cost(np.zeros((0, 3))) == 0.0
        assert brute_force_assignment(np.zeros((0, 0))) == ({}, 0.0)

    def test_rectangular_wide(self):
        assert _optimal_cost(np.array([[5.0, 1.0, 3.0]])) == 1.0
        assignment, cost = brute_force_assignment([[5.0, 1.0, 3.0]])
        assert assignment == {0: 1}
        assert cost == 1.0

    def test_rectangular_tall_maps_columns(self):
        assert _optimal_cost(np.array([[5.0], [1.0], [3.0]]).T) == 1.0
        assignment, cost = brute_force_assignment([[5.0], [1.0], [3.0]])
        assert assignment == {0: 1}
        assert cost == 1.0

    def test_lexicographic_tie_break(self):
        assert _optimal_cost(np.array([[1.0, 1.0], [1.0, 1.0]])) == 2.0
        assert brute_force_assignment([[1.0, 1.0], [1.0, 1.0]]) == ({0: 0, 1: 1}, 2.0)

    def test_oracle_limit(self):
        with pytest.raises(ValueError, match="oracle limit"):
            brute_force_assignment(np.zeros((9, 9)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            _optimal_cost(np.array([[math.inf]]))
        with pytest.raises(ValueError, match="finite"):
            brute_force_assignment([[math.inf]])

    def test_agrees_with_oracle_on_random_matrices(self):
        rng = np.random.default_rng(47)
        for _ in range(40):
            m, n = int(rng.integers(1, 7)), int(rng.integers(1, 8))
            cost = rng.uniform(0, 1, size=(m, n))
            if rng.random() < 0.3:
                cost = np.round(cost * 4)  # force ties
            wide = cost.T if m > n else cost
            assert _optimal_cost(wide) == brute_force_assignment(cost)[1]


class TestOspa:
    def test_identical_sets(self):
        pts = [(0.0, 0.0), (1.0, 1.0), (0.3, 0.7)]
        assert ospa(pts, pts, _capped_euclid) == 0.0

    def test_empty_vs_empty(self):
        assert ospa([], [], _capped_euclid) == 0.0

    def test_empty_vs_nonempty(self):
        assert ospa([], [(0, 0), (1, 1), (2, 2)], _capped_euclid) == 1.0
        assert ospa([(0, 0)], [], _capped_euclid) == 1.0

    def test_cardinality_plus_localization(self):
        # one prediction vs two ground truths at distances 0.2 and 0.6
        value = ospa(["p"], ["g1", "g2"], lambda a, b: 0.2 if b == "g1" else 0.6)
        assert value == pytest.approx((0.2 + 1.0) / 2, abs=1e-15)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            xs = _random_points(rng, int(rng.integers(0, 6)))
            ys = _random_points(rng, int(rng.integers(0, 6)))
            v = ospa(xs, ys, _capped_euclid)
            assert 0.0 <= v <= 1.0
            assert abs(v - ospa(ys, xs, _capped_euclid)) <= 1e-12

    def test_triangle_inequality(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            xs, ys, zs = (
                _random_points(rng, int(rng.integers(0, 5))) for _ in range(3)
            )
            dxz = ospa(xs, zs, _capped_euclid)
            dxy = ospa(xs, ys, _capped_euclid)
            dyz = ospa(ys, zs, _capped_euclid)
            assert dxz <= dxy + dyz + 1e-12

    def test_base_distance_must_be_non_negative(self):
        with pytest.raises(ValueError):
            ospa([1], [2], lambda a, b: -0.5)

    def test_higher_order_still_bounded(self):
        rng = np.random.default_rng(61)
        xs = _random_points(rng, 4)
        ys = _random_points(rng, 2)
        v = ospa(xs, ys, _capped_euclid, order=2.0)
        assert 0.0 <= v <= 1.0

    @pytest.mark.parametrize("params, message", [
        ({"cutoff": -1.0}, r"ospa cutoff must be in \(0, inf\), got -1.0"),
        ({"order": 0.5}, r"ospa order must be in \[1, inf\), got 0.5"),
    ])
    def test_parameters_are_checked_before_any_distance(self, params, message):
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return 0.5

        with pytest.raises(ValueError, match=f"^{message}$"):
            ospa(range(300), range(300), counting, **params)
        assert calls == []

        def failing(a, b):
            raise RuntimeError("base distance called")

        with pytest.raises(ValueError, match=f"^{message}$"):
            ospa([0], [1], failing, **params)


# A call that must raise ValidationError, and a pattern of the message, which
# names the parameter or the entries at fault.
NO_SPIN_CASES = [
    ("ospa([0], [1], lambda a, b: 0.5, order=math.nan)", r"ospa order must be in \[1, inf\), got nan"),
    ("ospa([0], [1], lambda a, b: 1.5, cutoff=2.0, order=math.inf)",
     r"ospa order must be in \[1, inf\), got inf"),
    ("ospa([0], [1], lambda a, b: 0.5, order=0.5)", r"ospa order must be in \[1, inf\), got 0\.5"),
    ("ospa([0], [1], lambda a, b: 0.5, cutoff=math.nan)", r"ospa cutoff must be in \(0, inf\), got nan"),
    ("ospa([0], [1], lambda a, b: 0.5, cutoff=math.inf)", r"ospa cutoff must be in \(0, inf\), got inf"),
    ("ospa([0], [1], lambda a, b: 0.5, cutoff=10.0, order=400.0)",
     r"ospa cutoff \*\* order overflows"),
    ("EvalConfig(ospa_order=math.nan)", r"ospa order must be in \[1, inf\), got nan"),
    ("EvalConfig(ospa_cutoff=0.0)", r"ospa cutoff must be in \(0, inf\), got 0\.0"),
    ("EvalConfig(ospa_cutoff=1e200, ospa_order=2.0)", r"ospa cutoff \*\* order overflows"),
    ("_optimal_cost(np.array([[math.nan, 1.0]]))", r"cost entries must be finite"),
    ("_optimal_cost(np.array([[0.0, 1.0], [math.inf, math.inf]]))", r"cost entries must be finite"),
    ("_optimal_cost(np.array([[-1e308, 1e308], [-1e308, 1e308]]))", r"cost entries too large"),
]
NO_SPIN_PROBE = """
import math, sys
import numpy as np
from panopose.errors import ValidationError
from panopose.metrics import EvalConfig, _optimal_cost, ospa
try:
    eval(sys.argv[1])
except ValidationError as exc:
    print(exc)
else:
    sys.exit("no ValidationError")
"""


class TestNoSpin:
    # Each call runs in a child process with a timeout, so a solver that
    # loops fails here instead of hanging the suite.
    @pytest.mark.parametrize("call, message", NO_SPIN_CASES, ids=[c for c, _ in NO_SPIN_CASES])
    def test_raises_value_error(self, call, message):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        try:
            proc = subprocess.run([sys.executable, "-c", NO_SPIN_PROBE, call],
                                  capture_output=True, text=True, env=env, timeout=30)
        except subprocess.TimeoutExpired:
            pytest.fail(f"{call} still running after 30 s")
        assert proc.returncode == 0, proc.stderr
        assert re.search(message, proc.stdout), proc.stdout


class TestOspaIouFrame:
    # The set distance of one frame, as evaluate reports it per frame.
    def _frame(self, *boxes):
        return [person(box=b, score=1.0) for b in boxes]

    def _ospa(self, pred_persons, gt_persons):
        preds, gts = _single_frame_datasets(gt_persons, pred_persons)
        return evaluate(preds, gts).per_frame["f1"]["ospa_iou"]

    def test_identical_frames(self):
        frame = self._frame((0, 0, 10, 10), (20, 20, 30, 40))
        assert self._ospa(frame, frame) == 0.0

    def test_disjoint_equal_cardinality(self):
        a = self._frame((0, 0, 10, 10), (20, 0, 30, 10))
        b = self._frame((100, 0, 110, 10), (120, 0, 130, 10))
        assert self._ospa(a, b) == 1.0

    def test_one_match_one_missed(self):
        shared = (0, 0, 10, 10)
        pred = self._frame(shared)
        gt = self._frame(shared, (100, 100, 110, 110))
        assert self._ospa(pred, gt) == pytest.approx(0.5, abs=1e-15)

    def test_pose_only_persons_use_tight_boxes(self):
        frame = [person(pose=_pose17(), score=1.0)]
        assert self._ospa(frame, frame) == 0.0


def _single_frame_datasets(gt_persons, pred_persons):
    return dataset("jrdb17", PANO, [("f1", pred_persons)]), dataset("jrdb17", PANO, [("f1", gt_persons)])


def _pose17(x0=100.0, y0=200.0):
    return [(x0 + 11.0 * i, y0 + 7.0 * i, 2) for i in range(17)]


def _match_frame(pred_persons, gt_persons, params, threshold):
    """The (pred index, gt index, oks) pairs of one frame, in matching order."""
    preds, gts = _single_frame_datasets(gt_persons, pred_persons)
    gt_areas = _areas(_matching_boxes(gts.boxes, gts.has_box, gts.keypoints))
    return _match(preds, gts, _pair_table(preds, gts), _ranking(preds.scores), gt_areas, params,
                  threshold)


class TestMatchFrame:
    def test_greedy_matches_by_score_then_oks(self):
        gt = [person(pose=_pose17()), person(pose=_pose17(x0=900.0))]
        preds = [
            person(pose=_pose17(x0=900.0), score=0.9),
            person(pose=_pose17(), score=0.8),
        ]
        pairs = _match_frame(preds, gt, default_oks_params("jrdb17"), 0.5)
        assert {(p, g) for p, g, _ in pairs} == {(0, 1), (1, 0)}
        assert {p for p, _, _ in pairs} == {0, 1}  # no unmatched prediction
        assert {g for _, g, _ in pairs} == {0, 1}  # no unmatched ground truth

    def test_higher_score_claims_the_contested_ground_truth(self):
        gt = [person(pose=_pose17()), person(pose=_pose17(x0=106.0))]
        preds = [
            person(pose=_pose17(), score=0.6),  # exactly on gt 0
            person(pose=_pose17(x0=102.0), score=0.9),  # nearer gt 0 than gt 1
        ]
        pairs = _match_frame(preds, gt, default_oks_params("jrdb17"), 0.5)
        assert sorted((p, g) for p, g, _ in pairs) == [(0, 1), (1, 0)]

    def test_each_ground_truth_matched_once(self):
        gt = [person(pose=_pose17())]
        preds = [
            person(pose=_pose17(), score=0.9),
            person(pose=_pose17(), score=0.8),
        ]
        pairs = _match_frame(preds, gt, default_oks_params("jrdb17"), 0.5)
        assert len(pairs) == 1
        assert pairs[0][0] == 0  # prediction 1 is the unmatched one


def _ap(preds, gts, params, threshold):
    return evaluate(preds, gts, EvalConfig(oks_threshold=threshold, oks_params=params)).ap_05


class TestApAtOks:
    PARAMS = default_oks_params("jrdb17")

    def test_perfect_predictions(self):
        gt_persons = [person(pose=_pose17()), person(pose=_pose17(x0=900.0))]
        pred_persons = [p | {"score": s} for p, s in zip(gt_persons, (0.3, 0.9))]
        preds, gts = _single_frame_datasets(gt_persons, pred_persons)
        assert _ap(preds, gts, self.PARAMS, 0.5) == 1.0

    def test_no_predictions(self):
        preds, gts = _single_frame_datasets([person(pose=_pose17())], [])
        assert _ap(preds, gts, self.PARAMS, 0.5) == 0.0

    def test_sub_threshold_match_scores_zero(self):
        gt_box = (90.0, 190.0, 300.0, 330.0)
        displaced = [(x + 150.0, y, 2) for x, y, _ in _pose17()]
        value = oks(displaced, _pose17(), self.PARAMS, gt_box)
        assert value < 0.5  # sanity: the only possible match is sub-threshold
        preds, gts = _single_frame_datasets(
            [person(pose=_pose17(), box=gt_box)],
            [person(pose=displaced, score=0.9)],
        )
        assert _ap(preds, gts, self.PARAMS, 0.5) == 0.0

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            gt = make_ground_truth(rng, num_frames=3, people=(1, 4))
            preds = perturb_predictions(gt, rng, float(rng.uniform(0, 40)))
            values = [
                _ap(preds, gt, self.PARAMS, t) for t in (0.3, 0.5, 0.75)
            ]
            assert values[0] + 1e-12 >= values[1] >= values[2] - 1e-12

    def test_score_ties_rank_by_frame_then_index(self):
        # 40 equal scores: the true positives of frames f00-f19 rank before
        # the false positives of f20-f39, so precision is 1 up to recall 0.5.
        gts = dataset("jrdb17", PANO, [(f"f{i:02d}", [person(pose=_pose17())]) for i in range(40)])
        preds = dataset("jrdb17", PANO, [
            (f"f{i:02d}", [person(pose=_pose17(x0=100.0 if i < 20 else 1500.0), score=0.5)])
            for i in range(40)
        ])
        assert _ap(preds, gts, self.PARAMS, 0.5) == 51 / 101

    def test_missing_prediction_frames_count_as_empty(self):
        gts = dataset("jrdb17", PANO, [("f1", [person(pose=_pose17())]),
                                       ("f2", [person(pose=_pose17())])])
        preds = dataset("jrdb17", PANO, [("f1", [person(pose=_pose17(), score=0.9)])])
        assert _ap(preds, gts, self.PARAMS, 0.5) == pytest.approx(
            0.5, abs=0.01
        )


def _reversed_frames(ds):
    """``ds`` parsed from its JSON form with the frames listed in reverse order."""
    doc = json.loads(dataset_to_canonical_json(ds))
    doc["frames"].reverse()
    return _load(json.dumps(doc), JRDB17, False)


class TestEvaluate:
    def test_self_evaluation_is_perfect(self):
        persons = [person(pose=_pose17(), score=0.7), person(pose=_pose17(x0=900), score=0.6)]
        preds, gts = _single_frame_datasets(persons, persons)
        report = evaluate(preds, gts)
        assert report.ospa_iou == 0.0
        assert report.ap_05 == 1.0

    def test_empty_predictions_over_ten_frames(self):
        gts = dataset("jrdb17", PANO, [(f"f{i}", [person(pose=_pose17())]) for i in range(10)])
        preds = dataset("jrdb17", PANO, [])
        report = evaluate(preds, gts)
        assert report.ospa_iou == 1.0
        assert report.ap_05 == 0.0

    def test_mean_set_metric_adds_the_frames_one_after_another(self):
        # Ten frames without a prediction score the cutoff, 0.1 each. Added
        # one after another they make 0.9999999999999999; a compensated sum,
        # as Python 3.12's ``sum`` makes, would give 1.0 and a mean of 0.1.
        gts = dataset("jrdb17", PANO, [(f"f{i}", [person(pose=_pose17())]) for i in range(10)])
        report = evaluate(dataset("jrdb17", PANO, []), gts, EvalConfig(ospa_cutoff=0.1))
        assert [record["ospa_iou"] for record in report.per_frame.values()] == [0.1] * 10
        assert report.ospa_iou == 0.09999999999999999

    def test_report_echoes_config(self):
        persons = [person(pose=_pose17(), score=0.7)]
        preds, gts = _single_frame_datasets(persons, persons)
        report = evaluate(preds, gts, EvalConfig(oks_threshold=0.5))
        assert report.config["oks_threshold"] == 0.5
        assert report.config["oks_sigmas"] == list(default_oks_params("jrdb17").sigmas)
        assert report.config["ospa_cutoff"] == 1.0

    def test_schema_mismatch_rejected(self):
        preds = dataset("coco17", PANO, [])
        gts = dataset("jrdb17", PANO, [])
        with pytest.raises(ValidationError, match="schema mismatch"):
            evaluate(preds, gts)

    def test_extra_prediction_frame_rejected(self):
        preds = dataset("jrdb17", PANO, [("zz", [person(pose=_pose17(), score=1.0)])])
        gts = dataset("jrdb17", PANO, [])
        with pytest.raises(ValidationError, match="missing from ground truth"):
            evaluate(preds, gts)

    def test_prediction_without_score_rejected(self):
        persons = [person(pose=_pose17())]
        preds, gts = _single_frame_datasets(persons, persons)
        with pytest.raises(ValidationError, match="without score"):
            evaluate(preds, gts)

    def test_oks_faults_name_the_first_frame_with_a_pair(self):
        # f1 has no prediction and f2 no pose to predict, so neither has a
        # pair; f3's ground truth has a box too small for an OKS scale.
        tiny = person(pose=_pose17(), box=(0.0, 0.0, 1.0, 5e-324))
        gts = dataset("jrdb17", PANO, [("f1", [tiny]), ("f2", [person(box=(0, 0, 9, 9))]),
                                       ("f3", [tiny, person(pose=_pose17())])])
        preds = dataset("jrdb17", PANO, [(f, [person(pose=_pose17(), score=0.5)]) for f in ("f2", "f3")])
        with pytest.raises(ValidationError, match=r"^frame 'f3', person 0: ground-truth box area 5e-324 "):
            evaluate(preds, gts)
        with pytest.raises(ValidationError, match=r"^frame 'f3', person 0: 3 sigmas for a pose of 17 keypoints$"):
            evaluate(preds, gts, EvalConfig(oks_params=UNIFORM3))

    def test_independent_of_frame_order(self):
        rng = np.random.default_rng(71)
        gt = make_ground_truth(rng, num_frames=6, people=(1, 3))
        preds = perturb_predictions(gt, rng, 5.0)
        assert evaluate(preds, gt) == evaluate(_reversed_frames(preds), _reversed_frames(gt))

    def test_per_frame_stats(self):
        persons = [person(pose=_pose17(), score=0.7)]
        preds, gts = _single_frame_datasets(persons, persons)
        report = evaluate(preds, gts)
        record = report.per_frame["f1"]
        assert record["num_predictions"] == 1
        assert record["num_ground_truths"] == 1
        assert record["num_matched"] == 1
        assert record["ospa_iou"] == 0.0

    def test_one_matching_box_per_person(self, monkeypatch):
        import panopose.metrics as metrics

        rng = np.random.default_rng(73)
        gt = make_ground_truth(rng, num_frames=8, people=(1, 5))
        preds = perturb_predictions(gt, rng, 5.0)
        built = []
        matching_boxes = metrics._matching_boxes

        def counting_matching_boxes(boxes, *args):
            built.extend(range(len(boxes)))
            return matching_boxes(boxes, *args)

        monkeypatch.setattr(metrics, "_matching_boxes", counting_matching_boxes)
        evaluate(preds, gt)
        num_persons = len(gt.ids) + len(preds.ids)
        assert 0 < len(built) <= num_persons

    def test_both_empty(self):
        report = evaluate(dataset("jrdb17", PANO, []), dataset("jrdb17", PANO, []))
        assert report.ospa_iou == 0.0
        assert report.ap_05 == 1.0

"""The scores of the reference scene (:func:`synth.reference_scene`), whole
and slice by slice, equal ``score_ledger.json``. A change to a score rule
moves some of them on purpose: on a mismatch the whole new ledger is
printed, to be committed with that change, which names the numbers that
moved and why. Beside panopose's ``ap_05``, ``coco_ap_05`` is COCO's AP of
the same persons (:func:`coco.coco_ap` with every switch cleared), so a rule
that moves toward COCO's shows as the gap between the two closing."""

import json
from pathlib import Path

from coco import PANOPOSE, coco_ap
from synth import SCENE_PANO, dataset, reference_scene

from panopose.metrics import default_oks_params, evaluate

LEDGER = Path(__file__).resolve().with_name("score_ledger.json")
SIGMAS = default_oks_params("jrdb17").sigmas


def _scores(gt_frames: list, pred_frames: list) -> dict:
    gts = dataset("jrdb17", SCENE_PANO, gt_frames)
    preds = dataset("jrdb17", SCENE_PANO, pred_frames)
    report = evaluate(preds, gts)
    matched = sum(record["num_matched"] for record in report.per_frame.values())
    # The oracle with every switch set is panopose's rules.
    frames = _coco_frames(gt_frames, pred_frames)
    assert abs(coco_ap(frames, SIGMAS, **PANOPOSE) - report.ap_05) <= 1e-12
    return {"ospa_iou": report.ospa_iou, "ap_05": report.ap_05, "coco_ap_05": coco_ap(frames, SIGMAS),
            "matched": matched, "unmatched_predictions": len(preds.ids) - matched,
            "unmatched_ground_truths": len(gts.ids) - matched}


def _coco_frames(gt_frames: list, pred_frames: list) -> list:
    """The ``(frame id, predictions, ground truths)`` triples that
    :func:`coco.coco_ap` takes."""
    preds = dict(pred_frames)
    return [(fid, preds.get(fid, []), gts) for fid, gts in gt_frames]


def ledger() -> dict:
    """The scores of the whole scene, then of each slice. JSON writes each
    float as its ``repr``, which reads back as the same float."""
    slices = reference_scene()
    whole = [[f for frames in side for f in frames] for side in zip(*slices.values())]
    return {"scene": _scores(*whole), **{name: _scores(*frames) for name, frames in slices.items()}}


def test_the_reference_scene_scores_as_the_ledger_says():
    table = ledger()
    expected = json.loads(LEDGER.read_text(encoding="utf-8"))
    assert table == expected, "new ledger:\n" + json.dumps(table, indent=2)

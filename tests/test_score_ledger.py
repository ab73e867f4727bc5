"""The scores of the reference scene (:func:`synth.reference_scene`), whole
and slice by slice, equal ``score_ledger.json``. A change to a score rule
moves some of them on purpose: on a mismatch the whole new ledger is
printed, to be committed with that change, which names the numbers that
moved and why."""

import json
from pathlib import Path

from synth import SCENE_PANO, dataset, reference_scene

from panopose.metrics import evaluate

LEDGER = Path(__file__).resolve().with_name("score_ledger.json")


def _scores(gt_frames: list, pred_frames: list) -> dict:
    gts = dataset("jrdb17", SCENE_PANO, gt_frames)
    preds = dataset("jrdb17", SCENE_PANO, pred_frames)
    report = evaluate(preds, gts)
    matched = sum(record["num_matched"] for record in report.per_frame.values())
    return {"ospa_iou": report.ospa_iou, "ap_05": report.ap_05, "matched": matched,
            "unmatched_predictions": len(preds.ids) - matched,
            "unmatched_ground_truths": len(gts.ids) - matched}


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

"""COCO's keypoint evaluation, as a test oracle for the AP of ``evaluate``.

Transcribed from the published description of COCO's keypoint evaluation
(Lin et al., *Microsoft COCO*, ECCV 2014; cocodataset.org/#keypoints-eval):
the ``computeOks``, ``evaluateImg`` and ``accumulate`` steps of COCOeval, for
one category, one OKS threshold and COCO's 20 detections per image. Written
from the description, not from its code.

- OKS (:func:`coco_oks`): ``e_i = d_i^2 / vars_i / (area + eps) / 2`` with
  ``vars_i = (2 sigma_i)^2`` and eps ``np.spacing(1)``, and OKS the mean of
  ``exp(-e_i)`` over the ground truth's labeled keypoints. Against a ground
  truth with no labeled keypoint, ``d_i`` is how far keypoint i lies outside
  the ground-truth box grown by its width and height on each side, and the
  mean is over all K.
- Per image: a ground truth with ``num_keypoints == 0`` is ignored and goes
  after the others. Detections are sorted by descending score (a stable
  sort), and the first 20 kept. Each in turn takes, of the ground truths not
  yet matched, the one of highest OKS at or above ``min(threshold, 1 -
  1e-10)``, where a later one of equal OKS replaces an earlier one; once it
  holds a ground truth that is not ignored, it looks at no ignored one. A
  detection matched to an ignored ground truth is ignored too.
- Accumulated: the kept detections of all images by descending score (a
  stable sort, images in sorted id order). Ignored detections are neither
  true nor false positives. Recall is over the ground truths not ignored,
  precision is ``tp / (tp + fp + eps)``, made monotone from the right and
  read at the 101 recall points ``linspace(0, 1, 101)`` with
  ``searchsorted(side="left")``, 0 beyond the highest recall. AP is the mean
  of the 101 values. With no ground truth that counts it is undefined
  (None here; COCO's summary prints -1).

COCO's area range "all", ``[0, 1e5 ** 2]``, is left out: no person in these
tests comes near it.

Panopose's persons in COCO's terms: an image is a frame; a ground truth's
``num_keypoints`` counts its keypoints with v > 0 (a box-only one has none);
its box is the matching box (:func:`matching_box`), and its area is that
box's area. COCO's ``area`` is the annotation's segment area, so the two
agree only where the segment fills the box; pycocotools is not installed, so
that difference stays unverified here. A prediction without a pose has no
keypoints to compare, so it matches nothing, as in panopose.

One switch for each departure that README "Conventions that affect scores"
lists, each set to evaluate as panopose does:

- ``k_is_sigma``: ``vars_i = sigma_i^2``;
- ``count_unmatchable``: a ground truth with no labeled keypoint counts
  toward recall and is never matched;
- ``no_max_dets``: every detection of an image is kept;
- ``first_of_equals``: of ground truths of equal OKS, the first is kept;
- ``scored_without_ground_truth``: with no ground truth that counts, AP is
  1.0 without detections and 0.0 with some;
- ``uncapped_threshold``: OKS is compared with the threshold itself, not
  with ``min(threshold, 1 - 1e-10)``.

With all of them set, :func:`coco_ap` gives panopose's ``ap_05`` within
1e-12; not bit for bit, since precision here divides by ``tp + fp + eps``
and AP is ``np.mean`` of the 101 values. With all of them cleared, it is
COCO's. The per-image pass (:func:`evaluate_images`) and the accumulation
(:func:`accumulate`) are also called apart, where a test needs each
image's matches as well as AP.
"""

from __future__ import annotations

import math

import numpy as np

EPS = float(np.spacing(1))
MAX_DETS = 20
RECALL_POINTS = np.linspace(0.0, 1.0, 101)


def _floored_span(lo: float, hi: float) -> tuple[float, float]:
    if hi - lo >= 1e-9:
        return lo, hi
    mid = 0.5 * (lo + hi)
    return mid - 0.5 * 1e-9, mid + 0.5 * 1e-9


def _checked_box(x1: float, y1: float, x2: float, y2: float) -> tuple:
    """The box, if it passes the box rule on Python floats; else ValueError
    with the rule's message."""
    for v in (x1, y1, x2, y2):
        if not math.isfinite(v):
            raise ValueError(f"non-finite box field {v!r}")
    area = (x2 - x1) * (y2 - y1)
    if not (x1 < x2 and y1 < y2 and 0.0 < area < math.inf):
        raise ValueError(f"degenerate box ({x1}, {y1}, {x2}, {y2}): area {area!r} must be positive and finite")
    return (x1, y1, x2, y2)


def matching_box(box, pose) -> tuple:
    """Panopose's matching-box rule, one person at a time: its ``box`` when
    given, else a box of its ``pose`` rows. The reference for
    ``geometry._matching_boxes``, and the oracle's ground-truth box."""
    if box is not None:
        return _checked_box(*box)
    kps = np.array(pose, dtype=np.float64)
    pts = kps[kps[:, 2] > 0]
    if not len(pts):
        pts = kps
    x1, y1, _ = np.minimum.reduce(pts).tolist()
    x2, y2, _ = np.maximum.reduce(pts).tolist()
    x1, x2 = _floored_span(x1, x2)
    y1, y2 = _floored_span(y1, y2)
    return _checked_box(x1, y1, x2, y2)


def coco_oks(pred_pose, gt: dict, sigmas, k_is_sigma: bool = False) -> float:
    """``computeOks`` of one ``[K, 3]`` predicted pose against one ground
    truth, a ``synth.person`` document."""
    dt = np.asarray(pred_pose, dtype=np.float64)
    g = np.asarray(gt["pose"], dtype=np.float64) if "pose" in gt else np.zeros_like(dt)
    x1, y1, x2, y2 = matching_box(gt.get("box"), gt.get("pose"))
    w, h = x2 - x1, y2 - y1
    variances = (np.asarray(sigmas) * (1.0 if k_is_sigma else 2.0)) ** 2
    labeled = g[:, 2] > 0
    if labeled.any():
        dx, dy = dt[:, 0] - g[:, 0], dt[:, 1] - g[:, 1]
    else:
        dx = np.maximum(0.0, (x1 - w) - dt[:, 0]) + np.maximum(0.0, dt[:, 0] - (x2 + w))
        dy = np.maximum(0.0, (y1 - h) - dt[:, 1]) + np.maximum(0.0, dt[:, 1] - (y2 + h))
    e = (dx ** 2 + dy ** 2) / variances / (w * h + EPS) / 2
    if labeled.any():
        e = e[labeled]
    return float(np.sum(np.exp(-e)) / len(e))


def _evaluate_image(preds: list, gts: list, sigmas, threshold: float, *, k_is_sigma: bool = False,
                    count_unmatchable: bool = False, no_max_dets: bool = False, first_of_equals: bool = False,
                    uncapped_threshold: bool = False):
    """``evaluateImg``: the kept detections as ``(score, matched, ignored)``
    in score order, and the count of ground truths not ignored."""
    unlabeled = [not any(v > 0 for _, _, v in g.get("pose", [])) for g in gts]
    ignored = [u and not count_unmatchable for u in unlabeled]
    gt_order = sorted(range(len(gts)), key=lambda j: ignored[j])
    dt_order = sorted(range(len(preds)), key=lambda i: -preds[i]["score"])
    if not no_max_dets:
        dt_order = dt_order[:MAX_DETS]
    taken: set[int] = set()
    kept = []
    for i in dt_order:
        best, m = threshold if uncapped_threshold else min(threshold, 1 - 1e-10), None
        for j in gt_order:
            if j in taken:
                continue
            if m is not None and not ignored[m] and ignored[j]:
                break
            if "pose" not in preds[i] or unlabeled[j] and count_unmatchable:
                continue  # no OKS to compare
            value = coco_oks(preds[i]["pose"], gts[j], sigmas, k_is_sigma)
            if value < best or value == best and m is not None and first_of_equals:
                continue
            best, m = value, j
        if m is not None:
            taken.add(m)
        kept.append((preds[i]["score"], m is not None, m is not None and ignored[m]))
    return kept, ignored.count(False)


def evaluate_images(frames, sigmas, threshold: float = 0.5, **switches) -> list:
    """``evaluateImg`` of each of ``frames``, ``(frame id, predictions,
    ground truths)`` triples of ``synth.person`` documents: ``(frame id,
    kept detections, count of ground truths not ignored)`` in sorted frame id
    order, with the switches of the module docstring."""
    return [(fid, *_evaluate_image(preds, gts, sigmas, threshold, **switches))
            for fid, preds, gts in sorted(frames, key=lambda frame: frame[0])]


def accumulate(images: list, scored_without_ground_truth: bool = False) -> float | None:
    """``accumulate``: AP of the :func:`evaluate_images` of some frames."""
    detections = [det for _, kept, _ in images for det in kept]
    counted = sum(num for _, _, num in images)
    if not counted:
        return (0.0 if detections else 1.0) if scored_without_ground_truth else None
    detections.sort(key=lambda det: -det[0])
    tp = np.cumsum([matched and not ignored for _, matched, ignored in detections], dtype=np.float64)
    fp = np.cumsum([not matched and not ignored for _, matched, ignored in detections], dtype=np.float64)
    recall = tp / counted
    precision = np.maximum.accumulate((tp / (fp + tp + EPS))[::-1])[::-1]
    idx = np.searchsorted(recall, RECALL_POINTS, side="left")
    q = np.zeros(len(RECALL_POINTS))
    q[idx < len(recall)] = precision[idx[idx < len(recall)]]
    return float(np.mean(q))


def coco_ap(frames, sigmas, threshold: float = 0.5, *, scored_without_ground_truth: bool = False,
            **switches) -> float | None:
    """AP at OKS ``threshold`` of ``frames``, ``(frame id, predictions,
    ground truths)`` triples of ``synth.person`` documents, with the
    switches of the module docstring."""
    return accumulate(evaluate_images(frames, sigmas, threshold, **switches), scored_without_ground_truth)


# Every switch set: panopose's rules.
PANOPOSE = {"k_is_sigma": True, "count_unmatchable": True, "no_max_dets": True, "first_of_equals": True,
            "scored_without_ground_truth": True, "uncapped_threshold": True}

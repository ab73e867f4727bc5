"""Set-based evaluation metrics.

Object keypoint similarity (OKS), exact minimum-cost assignment with a
brute-force enumeration oracle, the optimal-subpattern set metric over
(1 - IoU) box distances, ranked average precision at an OKS threshold, and
the dataset-level report that aggregates them.

OKS between a predicted and a labeled pose is the mean over labeled
keypoints i of exp(-d_i^2 / (2 * s^2 * k_i^2)), with d_i the Euclidean pixel
distance, k_i the per-keypoint falloff constant, and s^2 the area of the
ground-truth matching box (:func:`~panopose.geometry.person_box`).

The set metric between prediction and ground-truth sets of sizes m <= n
(swap otherwise) with cutoff c and order p is
((c^p * (n - m) + min-cost assignment of capped distances^p) / n)^(1/p);
both sets empty gives 0, exactly one empty set gives c.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .dataio import Dataset, FrameAnnotations, Person, Pose
from .errors import ValidationError
from .geometry import BoundingBox, iou, person_box
from .schema import SchemaMapping, check_entries, default_mapping

__all__ = [
    "COCO_SIGMAS",
    "OksParams",
    "MatchResult",
    "EvalConfig",
    "FrameStats",
    "EvalReport",
    "coco_oks_params",
    "transferred_oks_params",
    "default_oks_params",
    "oks",
    "min_cost_assignment",
    "brute_force_assignment",
    "ospa",
    "ospa_iou_frame",
    "match_frame_oks",
    "ap_at_oks",
    "evaluate",
    "save_report",
    "save_frame_table",
]

# Published COCO per-keypoint falloff constants, in coco17 name order.
COCO_SIGMAS = (
    0.026, 0.025, 0.025, 0.035, 0.035,
    0.079, 0.079, 0.072, 0.072, 0.062,
    0.062, 0.107, 0.107, 0.087, 0.087,
    0.089, 0.089,
)

_ORACLE_MAX_DIM = 8
_ORACLE_MAX_ASSIGNMENTS = 2_000_000


@dataclass(frozen=True)
class OksParams:
    """Per-keypoint falloff constants; the object scale is always the
    ground-truth box area."""

    sigmas: tuple[float, ...]

    def __post_init__(self) -> None:
        sigmas = tuple(float(s) for s in self.sigmas)
        if not sigmas:
            raise ValueError("sigmas must be non-empty")
        if any(not (math.isfinite(s) and s > 0) for s in sigmas):
            raise ValueError("all sigmas must be positive and finite")
        object.__setattr__(self, "sigmas", sigmas)


def coco_oks_params() -> OksParams:
    return OksParams(COCO_SIGMAS)


def transferred_oks_params(
    mapping: SchemaMapping, source_sigmas: Sequence[float] = COCO_SIGMAS
) -> OksParams:
    """Move falloff constants into a target schema; merged targets take the
    mean of their counterpart constants."""
    check_entries(mapping, len(source_sigmas))
    return OksParams(
        tuple(sum(source_sigmas[s] for s in entry) / len(entry) for entry in mapping.entries)
    )


def default_oks_params(schema_id: str) -> OksParams:
    if schema_id == "coco17":
        return coco_oks_params()
    if schema_id == "jrdb17":
        return transferred_oks_params(default_mapping())
    raise ValidationError(
        f"no default falloff constants for schema {schema_id!r}; supply OksParams"
    )


def oks(pred: Pose, gt: Pose, params: OksParams, gt_box: BoundingBox) -> float:
    """Object keypoint similarity in [0, 1]; labeled keypoints are those with
    ground-truth visibility > 0."""
    return float(_oks_matrix([pred], [gt], params, [gt_box])[0, 0])


def _oks_matrix(
    preds: Sequence[Pose], gts: Sequence[Pose], params: OksParams, gt_boxes: Sequence[BoundingBox]
) -> np.ndarray:
    """[P, G] :func:`oks` of every prediction against every ground truth. The
    K terms are summed in order by ``cumsum``, as a Python ``sum`` adds them;
    ``np.sum`` adds pairwise and can differ in the last bit."""
    if not preds or not gts:
        return np.zeros((len(preds), len(gts)))
    num_kps = len(gts[0].keypoints)
    for pose in (*preds, *gts):
        if len(pose.keypoints) != num_kps:
            raise ValidationError(f"pose length mismatch: {len(pose.keypoints)} vs {num_kps}")
    if len(params.sigmas) != num_kps:
        raise ValidationError(f"{len(params.sigmas)} sigmas for a pose of {num_kps} keypoints")
    pred = np.stack([p.keypoints for p in preds])[:, None]  # [P, 1, K, 3]
    gt = np.stack([g.keypoints for g in gts])  # [G, K, 3]
    labeled = gt[:, :, 2] > 0
    num_labeled = labeled.sum(axis=1)
    if not num_labeled.all():
        raise ValidationError("ground-truth pose has no labeled keypoints")
    d2 = (pred[..., 0] - gt[..., 0]) ** 2 + (pred[..., 1] - gt[..., 1]) ** 2
    sigmas = np.asarray(params.sigmas)
    areas = np.array([b.area for b in gt_boxes])
    scale = 2.0 * areas[:, None] * sigmas * sigmas  # [G, K], in the order 2 * s^2 * k * k
    terms = np.where(labeled, np.exp(-d2 / scale), 0.0)
    return np.cumsum(terms, axis=-1)[..., -1] / num_labeled


# -- assignment ----------------------------------------------------------------


def _as_cost_matrix(cost) -> np.ndarray:
    arr = np.asarray(cost, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"cost must be a 2-D matrix, got ndim={arr.ndim}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("cost entries must be finite")
    return arr


def _optimal_cost(matrix: np.ndarray) -> float:
    if matrix.size == 0:
        return 0.0
    # Imported here, not at module top: scipy.optimize took ~0.58 s of the
    # ~0.8 s start-up of every panopose process, and only assignments need it.
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(matrix)
    return float(matrix[rows, cols].sum())


def min_cost_assignment(cost) -> tuple[dict[int, int], float]:
    """Exact minimum-cost injective assignment of the smaller dimension.

    Returns ``(assignment, total_cost)``; the assignment maps row indices to
    column indices when rows <= cols, and column indices to row indices
    otherwise. Among all optimal assignments the lexicographically smallest
    one (the vector of assigned indices for the smaller dimension, in order)
    is returned, found by fixing, for each index in turn, the smallest
    partner that still admits an optimal completion.
    """
    arr = _as_cost_matrix(cost)
    if arr.size == 0:
        return {}, 0.0
    mat = arr.T if arr.shape[0] > arr.shape[1] else arr
    m, n = mat.shape
    remaining = list(range(n))
    chosen: list[int] = []
    for i in range(m):
        best_j = remaining[0]
        best_total = math.inf
        for pos, j in enumerate(remaining):
            rest = remaining[:pos] + remaining[pos + 1 :]
            total = float(mat[i, j]) + _optimal_cost(mat[i + 1 :, rest])
            if total < best_total:
                best_total = total
                best_j = j
        chosen.append(best_j)
        remaining.remove(best_j)
    total_cost = float(sum(float(mat[i, chosen[i]]) for i in range(m)))
    return {i: chosen[i] for i in range(m)}, total_cost


def brute_force_assignment(cost) -> tuple[dict[int, int], float]:
    """Enumeration oracle with the same contract as :func:`min_cost_assignment`.

    Candidate assignments are enumerated in lexicographic order with strict
    improvement, so ties resolve to the lexicographically smallest optimum.
    """
    arr = _as_cost_matrix(cost)
    if arr.size == 0:
        return {}, 0.0
    mat = arr.T if arr.shape[0] > arr.shape[1] else arr
    m, n = mat.shape
    if m > _ORACLE_MAX_DIM or math.perm(n, m) > _ORACLE_MAX_ASSIGNMENTS:
        raise ValueError(
            f"dimension above oracle limit: {m}x{n} "
            f"(smaller dim <= {_ORACLE_MAX_DIM} and enumerable assignments required)"
        )
    perms = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(n), m)),
        dtype=np.intp,
    ).reshape(-1, m)
    totals = mat[np.arange(m), perms].sum(axis=1)
    best = perms[int(np.argmin(totals))]  # first minimum = lexicographically smallest
    total_cost = float(sum(float(mat[i, best[i]]) for i in range(m)))
    return {i: int(best[i]) for i in range(m)}, total_cost


# -- set metric ------------------------------------------------------------------


def ospa(
    preds: Sequence,
    gts: Sequence,
    base_distance: Callable[[object, object], float],
    *,
    cutoff: float = 1.0,
    order: float = 1.0,
) -> float:
    """Optimal-subpattern distance between two finite sets.

    ``base_distance`` is evaluated as ``base_distance(pred, gt)`` and capped
    at ``cutoff``. With cutoff 1 and order 1 (the defaults) the value is
    (min-cost assignment + (n - m)) / n, bounded in [0, 1].
    """
    if not cutoff > 0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    preds = list(preds)
    gts = list(gts)
    m, n = len(preds), len(gts)
    if m == 0 and n == 0:
        return 0.0
    if m == 0 or n == 0:
        return float(cutoff)
    dist = np.empty((m, n), dtype=np.float64)
    for i, p in enumerate(preds):
        for j, g in enumerate(gts):
            d = float(base_distance(p, g))
            if not (math.isfinite(d) and d >= 0):
                raise ValueError(f"base distance must be finite and >= 0, got {d}")
            dist[i, j] = min(d, cutoff)
    powed = dist ** order
    if m > n:
        powed = powed.T
        m, n = n, m
    loc = _optimal_cost(powed)
    return float(((cutoff ** order) * (n - m) + loc) / n) ** (1.0 / order)


def ospa_iou_frame(
    pred_frame: FrameAnnotations,
    gt_frame: FrameAnnotations,
    *,
    cutoff: float = 1.0,
    order: float = 1.0,
) -> float:
    """Set distance between two frames under the (1 - IoU) box base distance.

    Persons without a stored box use the tight enclosing box of their pose.
    """
    return _ospa_iou(
        [person_box(p) for p in pred_frame.persons],
        [person_box(g) for g in gt_frame.persons],
        cutoff,
        order,
    )


def _ospa_iou(
    pred_boxes: list[BoundingBox], gt_boxes: list[BoundingBox], cutoff: float, order: float
) -> float:
    return ospa(pred_boxes, gt_boxes, lambda a, b: 1.0 - iou(a, b), cutoff=cutoff, order=order)


# -- ranked matching and AP --------------------------------------------------------


@dataclass(frozen=True)
class MatchResult:
    """Greedy OKS matching of one frame: (pred index, gt index, oks) pairs
    plus the leftover indices on both sides."""

    pairs: tuple[tuple[int, int, float], ...]
    unmatched_predictions: tuple[int, ...]
    unmatched_ground_truths: tuple[int, ...]


def match_frame_oks(
    pred_frame: FrameAnnotations,
    gt_frame: FrameAnnotations,
    params: OksParams,
    threshold: float,
) -> MatchResult:
    """Match predictions (score-descending) to the unmatched ground truth with
    the highest OKS, accepting the pair when that OKS >= threshold. OKS is
    undefined, so never matches, for a person without a pose and for a ground
    truth with no labeled keypoint."""
    gts = gt_frame.persons
    return _match(pred_frame.persons, gts, [person_box(g) for g in gts], params, threshold)


def _match(
    preds: Sequence[Person],
    gts: Sequence[Person],
    gt_boxes: Sequence[BoundingBox],
    params: OksParams,
    threshold: float,
) -> MatchResult:
    """:func:`match_frame_oks` over the frame's persons and ground-truth boxes."""
    rows = [i for i, p in enumerate(preds) if p.pose is not None]
    cols = [j for j, g in enumerate(gts) if g.pose is not None and (g.pose.keypoints[:, 2] > 0).any()]
    # -inf where OKS is undefined or the ground truth is taken, so argmax
    # finds the first highest OKS among the unmatched ground truths.
    sim = np.full((len(preds), len(gts)), -np.inf)
    sim[np.ix_(rows, cols)] = _oks_matrix(
        [preds[i].pose for i in rows], [gts[j].pose for j in cols], params, [gt_boxes[j] for j in cols]
    )
    order = sorted(
        range(len(preds)),
        key=lambda i: (-(preds[i].score if preds[i].score is not None else 0.0), i),
    )
    pairs = []
    for pi in order if cols else ():  # without a labeled ground truth nothing matches
        gi = int(np.argmax(sim[pi]))
        value = float(sim[pi, gi])
        if value >= threshold:
            sim[:, gi] = -np.inf
            pairs.append((pi, gi, value))
    matched_preds = {pi for pi, _, _ in pairs}
    matched_gts = {gi for _, gi, _ in pairs}
    return MatchResult(
        pairs=tuple(sorted(pairs)),
        unmatched_predictions=tuple(i for i in range(len(preds)) if i not in matched_preds),
        unmatched_ground_truths=tuple(i for i in range(len(gts)) if i not in matched_gts),
    )


def _check_pair(preds: Dataset, gts: Dataset) -> None:
    if preds.schema_id != gts.schema_id:
        raise ValidationError(
            f"schema mismatch: predictions {preds.schema_id!r} vs "
            f"ground truth {gts.schema_id!r}"
        )
    if preds.pano != gts.pano:
        raise ValidationError("panorama mismatch between predictions and ground truth")
    gt_ids = {f.frame_id for f in gts.frames}
    extra = sorted(f.frame_id for f in preds.frames if f.frame_id not in gt_ids)
    if extra:
        raise ValidationError(f"prediction frames missing from ground truth: {extra}")
    for frame in preds.frames:
        for i, person in enumerate(frame.persons):
            if person.score is None:
                raise ValidationError(
                    f"prediction without score (frame {frame.frame_id!r}, person {i})"
                )


def _ap_101(tp_flags: Sequence[bool], num_gt: int) -> float:
    if num_gt == 0:
        return 1.0 if not tp_flags else 0.0
    if not tp_flags:
        return 0.0
    tp = np.cumsum(np.asarray(tp_flags, dtype=np.float64))
    ranks = np.arange(1, len(tp_flags) + 1, dtype=np.float64)
    precision = tp / ranks
    recall = tp / num_gt
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    total = 0.0
    for r in np.linspace(0.0, 1.0, 101):
        idx = int(np.searchsorted(recall, r, side="left"))
        if idx < len(recall):
            total += float(envelope[idx])
    return total / 101.0


def ap_at_oks(
    preds: Dataset, gts: Dataset, params: OksParams, threshold: float = 0.5
) -> float:
    """Average precision over the dataset-global score ranking, 101-point
    interpolated, with a prediction counting as true positive when it greedily
    matches a same-frame ground truth at OKS >= threshold."""
    return evaluate(preds, gts, EvalConfig(oks_threshold=threshold, oks_params=params)).ap_05


# -- dataset evaluation -------------------------------------------------------------


@dataclass(frozen=True)
class EvalConfig:
    oks_threshold: float = 0.5
    oks_params: OksParams | None = None
    ospa_cutoff: float = 1.0
    ospa_order: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.oks_threshold <= 1.0:
            raise ValueError(f"oks threshold {self.oks_threshold} outside [0, 1]")


@dataclass(frozen=True)
class FrameStats:
    ospa_iou: float
    num_predictions: int
    num_ground_truths: int
    num_matched: int


@dataclass(frozen=True)
class EvalReport:
    """Dataset aggregates plus the per-frame breakdown and a config echo
    sufficient to re-run the exact evaluation."""

    ospa_iou: float
    ap_05: float
    per_frame: dict[str, FrameStats] = field(repr=False)
    config: dict = field(repr=False)

    def to_json_dict(self) -> dict:
        return {
            "ospa_iou": self.ospa_iou,
            "ap_05": self.ap_05,
            "config": self.config,
            "per_frame": {
                fid: {
                    "ospa_iou": s.ospa_iou,
                    "num_predictions": s.num_predictions,
                    "num_ground_truths": s.num_ground_truths,
                    "num_matched": s.num_matched,
                }
                for fid, s in sorted(self.per_frame.items())
            },
        }


def evaluate(preds: Dataset, gts: Dataset, config: EvalConfig | None = None) -> EvalReport:
    """Dataset-mean set distance and AP at the configured OKS threshold.

    Ground-truth frames with no prediction frame count as empty prediction
    sets. Deterministic and independent of frame iteration order: frames are
    aggregated in sorted frame-id order.
    """
    config = config or EvalConfig()
    _check_pair(preds, gts)
    params = config.oks_params or default_oks_params(gts.schema_id)

    pred_persons = {f.frame_id: f.persons for f in preds.frames}
    ranked = []
    num_gt = 0
    per_frame: dict[str, FrameStats] = {}
    for gt_frame in gts.frames:  # Dataset keeps frames in sorted-id order
        fid = gt_frame.frame_id
        frame_preds = pred_persons.get(fid, ())
        frame_gts = gt_frame.persons
        pred_boxes = [person_box(p) for p in frame_preds]
        gt_boxes = [person_box(g) for g in frame_gts]
        result = _match(frame_preds, frame_gts, gt_boxes, params, config.oks_threshold)
        matched = {pi for pi, _, _ in result.pairs}
        for i, person in enumerate(frame_preds):
            ranked.append((float(person.score), fid, i, i in matched))
        num_gt += len(frame_gts)
        per_frame[fid] = FrameStats(
            ospa_iou=_ospa_iou(pred_boxes, gt_boxes, config.ospa_cutoff, config.ospa_order),
            num_predictions=len(frame_preds),
            num_ground_truths=len(frame_gts),
            num_matched=len(result.pairs),
        )

    mean_ospa = (
        sum(stats.ospa_iou for stats in per_frame.values()) / len(per_frame)
        if per_frame
        else 0.0
    )
    ranked.sort(key=lambda r: (-r[0], r[1], r[2]))
    ap = _ap_101([tp for _, _, _, tp in ranked], num_gt)

    echo = {
        "schema": gts.schema_id,
        "oks_threshold": config.oks_threshold,
        "oks_sigmas": list(params.sigmas),
        "scale_source": "gt_box_area",
        "ospa_cutoff": config.ospa_cutoff,
        "ospa_order": config.ospa_order,
    }
    return EvalReport(ospa_iou=mean_ospa, ap_05=ap, per_frame=per_frame, config=echo)


def save_report(report: EvalReport, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def save_frame_table(report: EvalReport, path: str | Path) -> None:
    """One row per frame: frame_id, ospa_iou, num_predictions,
    num_ground_truths, num_matched."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["frame_id", "ospa_iou", "num_predictions", "num_ground_truths", "num_matched"]
        )
        for fid in sorted(report.per_frame):
            s = report.per_frame[fid]
            writer.writerow(
                [fid, repr(s.ospa_iou), s.num_predictions, s.num_ground_truths, s.num_matched]
            )

"""Set-based evaluation metrics.

Object keypoint similarity (OKS), the exact minimum-cost assignment cost (a
shortest-augmenting-path solver in this module), the optimal-subpattern set
metric over (1 - IoU) box distances, ranked average precision at an OKS
threshold, and the dataset-level report that aggregates them.

OKS between a predicted and a labeled pose is the mean over labeled
keypoints i of exp(-d_i^2 / (2 * s^2 * k_i^2)), with d_i the Euclidean pixel
distance, k_i the per-keypoint falloff constant, and s^2 the area of the
ground-truth matching box (:func:`~panopose.geometry._matching_boxes`).

The set metric between prediction and ground-truth sets of sizes m <= n
(swap otherwise) with cutoff c and order p is
((c^p * (n - m) + min-cost assignment of capped distances^p) / n)^(1/p);
both sets empty gives 0, exactly one empty set gives c.

:func:`evaluate` reads the columns of both datasets: the matching boxes of
every person come from one call of
:func:`~panopose.geometry._matching_boxes`, and one table of every same-frame
(prediction, ground truth) pair (:func:`_pair_table`) serves both the IoU
(:func:`~panopose.geometry._iou`) of every pair and the OKS (:func:`_oks`)
of the pairs that have one and are within reach of the threshold (their
keypoint boxes close enough for OKS to reach it), each computed a bounded
chunk of pairs at a time. One ranking (:func:`~panopose.geometry._ranking`)
orders the greedy matching (:func:`_match`) across all frames and the AP
(:func:`_ap_101`). The set metric (:func:`_ospa_capped`) scores each frame's
block of capped distances, and solves the assignment (:func:`_optimal_cost`)
only when the rows' minima do not already give it. Both shortcuts leave
every output as computing everything would. :func:`oks` of one pair and
:func:`_match` share the OKS setup (:func:`_oks_setup`), and :func:`ospa`
with a callable fills the distance matrix it then scores like every frame.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from .dataio import Dataset, _keypoint_rule
from .errors import RowError, ValidationError, _where
from .geometry import _areas, _box_rows, _extents, _iou, _located_matching_boxes, _ranking
from .schema import default_mapping

__all__ = [
    "COCO_SIGMAS",
    "OksParams",
    "EvalConfig",
    "FrameStats",
    "EvalReport",
    "default_oks_params",
    "oks",
    "ospa",
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


def default_oks_params(schema_id: str) -> OksParams:
    """The published COCO constants for coco17; for jrdb17, those constants
    moved through :func:`~panopose.schema.default_mapping`, where merged
    targets take the mean of their counterpart constants."""
    if schema_id == "coco17":
        return OksParams(COCO_SIGMAS)
    if schema_id == "jrdb17":
        return OksParams(tuple(sum(COCO_SIGMAS[s] for s in entry) / len(entry)
                               for entry in default_mapping().entries))
    raise ValidationError(
        f"no default falloff constants for schema {schema_id!r}; supply OksParams"
    )


def oks(pred: Any, gt: Any, params: OksParams, gt_box: Any) -> float:
    """Object keypoint similarity in [0, 1] of ``[K, 3]`` predicted against
    ``[K, 3]`` ground-truth ``(x, y, v)`` keypoints, scaled by the area of
    the ``(x1, y1, x2, y2)`` ground-truth box; labeled keypoints are those
    with ground-truth visibility > 0."""
    poses = [np.asarray(kps, dtype=np.float64) for kps in (pred, gt)]
    for kps in poses:
        if kps.ndim != 2 or kps.shape[1] != 3 or not len(kps):
            raise ValueError(f"pose must be K >= 1 rows of (x, y, v), got shape {kps.shape}")
        _keypoint_rule(kps[None])
    labeled = poses[1][None, :, 2] > 0
    area = _areas(_box_rows([gt_box]))
    try:
        scale, num_labeled = _oks_setup(poses[0][None], poses[1][None], labeled, params, area, [0])
    except RowError as exc:
        raise ValidationError(str(exc)) from None
    return float(_oks(poses[0], poses[1], scale[0], labeled[0], num_labeled[0]))


def _oks_setup(pred_kps: np.ndarray, gt_kps: np.ndarray, labeled: np.ndarray, params: OksParams,
               gt_areas: np.ndarray, scaled: Any) -> tuple[np.ndarray, np.ndarray]:
    """The ``[G, K]`` scales 2 * s^2 * k^2 and ``[G]`` label counts that
    :func:`_oks` takes for ``[G, K, 3]`` ground-truth keypoints with their
    ``[G, K]`` labels and ``[G]`` box areas. Only the ground-truth rows
    ``scaled``, in increasing order, are scaled (1 elsewhere). When there
    are any, the ``[P, K', 3]`` predictions and the sigmas must have K
    entries (else :class:`RowError` names the first of those rows), and each
    of those ground truths needs a labeled keypoint and a scale that is
    neither 0 nor infinite (else :class:`RowError` names the first that
    does not)."""
    num_labeled = labeled.sum(axis=1)
    scale = np.ones(labeled.shape)
    scaled = np.asarray(scaled, dtype=np.intp)
    if len(scaled):
        num_kps, first = gt_kps.shape[1], int(scaled[0])
        if pred_kps.shape[1] != num_kps:
            raise RowError(first, f"pose length mismatch: {pred_kps.shape[1]} vs {num_kps}")
        if len(params.sigmas) != num_kps:
            raise RowError(first,
                           f"{len(params.sigmas)} sigmas for a pose of {num_kps} keypoints")
        if not num_labeled[scaled].all():
            raise RowError(int(scaled[num_labeled[scaled].argmin()]),
                           "ground-truth pose has no labeled keypoints")
        sigmas = np.asarray(params.sigmas)
        # Overflow is inf, as in Python floats.
        with np.errstate(over="ignore"):  # in the order 2 * s^2 * k * k
            scale[scaled] = 2.0 * gt_areas[scaled, None] * sigmas * sigmas
        usable = (scale > 0.0) & (scale < np.inf)
        if not usable.all():
            g = int(np.argmin(usable.all(axis=1)))
            raise RowError(g, f"ground-truth box area {float(gt_areas[g])!r} gives an OKS scale "
                              "2 * s^2 * k^2 that is 0 or infinite")
    return scale, num_labeled


def _oks(pred: np.ndarray, gt: np.ndarray, scale: np.ndarray, labeled: np.ndarray,
         num_labeled: np.ndarray) -> np.ndarray:
    """OKS of broadcast ``[..., K, 3]`` predicted and ground-truth keypoints,
    with the ground truth's ``[..., K]`` scales and labels and ``[...]``
    label counts. The K terms are summed in order by ``cumsum``, one after
    another; ``np.sum`` adds pairwise and can differ in the last bit."""
    # Overflow is inf, as in Python floats: a term of a far-off keypoint is 0.
    with np.errstate(over="ignore"):
        d2 = (pred[..., 0] - gt[..., 0]) ** 2 + (pred[..., 1] - gt[..., 1]) ** 2
        terms = np.where(labeled, np.exp(-d2 / scale), 0.0)
    return np.cumsum(terms, axis=-1)[..., -1] / num_labeled


# -- assignment ----------------------------------------------------------------


def _optimal_cost(matrix: np.ndarray) -> float:
    """Minimum total cost of an ``[m, n]`` matrix, m <= n, with each row
    assigned its own column: shortest augmenting paths with row and column
    potentials (Jonker & Volgenant, *Computing* 1987), O(m^2 n). The chosen
    entries are summed in row order."""
    m, n = matrix.shape
    if m == 0:
        return 0.0
    if not np.isfinite(matrix).all():
        raise ValueError("cost entries must be finite")
    cost = matrix.tolist()
    # Columns are 1-based; column 0 is the root of the path being grown, and
    # owner[j] is the 1-based row that holds column j (0: free).
    u = [0.0] * (m + 1)
    v = [0.0] * (n + 1)
    owner = [0] * (n + 1)
    way = [0] * (n + 1)
    for i in range(1, m + 1):
        owner[0] = i
        j0 = 0
        slack = [math.inf] * (n + 1)
        used = [False] * (n + 1)
        while owner[j0]:
            used[j0] = True
            i0 = owner[j0]
            row, ui = cost[i0 - 1], u[i0]
            delta, j1 = math.inf, 0
            for j in range(1, n + 1):
                if not used[j]:
                    reduced = row[j - 1] - ui - v[j]
                    if reduced < slack[j]:
                        slack[j], way[j] = reduced, j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            if not j1:  # only when the reduced costs overflow
                raise ValueError("cost entries too large to assign")
            for j in range(n + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:  # flip the path back to the root
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    cols = [0] * m
    for j in range(1, n + 1):
        if owner[j]:
            cols[owner[j] - 1] = j - 1
    return float(matrix[np.arange(m), cols].sum())


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
    _check_ospa_params(cutoff, order)
    preds = list(preds)
    gts = list(gts)
    dist = np.array(
        [[float(base_distance(p, g)) for g in gts] for p in preds], dtype=np.float64
    ).reshape(len(preds), len(gts))
    return _ospa_capped(_capped(dist, cutoff, order), cutoff, order)


def _check_ospa_params(cutoff: float, order: float) -> None:
    """The set metric needs a finite ``cutoff > 0``, a finite ``order >= 1``
    and a finite ``cutoff ** order``, so every capped entry is finite."""
    if not (math.isfinite(cutoff) and cutoff > 0):
        raise ValueError(f"ospa cutoff must be finite and positive, got {cutoff}")
    if not (math.isfinite(order) and order >= 1):
        raise ValueError(f"ospa order must be finite and >= 1, got {order}")
    try:
        float(cutoff) ** float(order)
    except OverflowError:
        raise ValueError(f"ospa cutoff ** order overflows: {cutoff} ** {order}") from None


def _capped(dist: np.ndarray, cutoff: float, order: float) -> np.ndarray:
    """``min(dist, cutoff) ** order`` of base distances, which must be
    finite and >= 0."""
    valid = (dist >= 0.0) & (dist < np.inf)
    if not valid.all():
        raise ValueError(f"base distance must be finite and >= 0, got {float(dist[~valid][0])}")
    return np.minimum(dist, cutoff) ** order


def _ospa_capped(powed: np.ndarray, cutoff: float, order: float) -> float:
    """:func:`ospa` of an ``[m, n]`` matrix of :func:`_capped` distances.

    The sum of the row minima bounds the assignment cost from below. When
    the rows whose entries are not all equal have their first minima in
    distinct columns, an assignment reaches that bound (the constant rows
    take any columns left), and every optimal assignment gives each row its
    minimum: the minima, summed in row order, are then the cost, and
    :func:`_optimal_cost` runs only when those columns collide."""
    m, n = powed.shape
    if m == 0 and n == 0:
        return 0.0
    if m == 0 or n == 0:
        return float(cutoff)
    if m > n:
        powed = powed.T
        m, n = n, m
    mins = powed.min(axis=1)
    cols = powed.argmin(axis=1)[mins < powed.max(axis=1)].tolist()
    loc = float(mins.sum()) if len(set(cols)) == len(cols) else _optimal_cost(powed)
    return float(((cutoff ** order) * (n - m) + loc) / n) ** (1.0 / order)


# -- ranked matching and AP --------------------------------------------------------

# Same-frame pairs per vectorised OKS or IoU pass: at K = 17 one pass's
# temporaries take a few MB, where all 105,271 pairs of a 2000-frame file
# at once would take about 15 MB per [pairs, K] array.
_CHUNK_PAIRS = 4096


def _pair_table(preds: Dataset, gts: Dataset) -> tuple[np.ndarray, ...]:
    """Every same-frame (prediction, ground truth) pair, frame by frame and
    row-major within a frame: the pairs' prediction rows and ground-truth
    rows, then each prediction's ground-truth frame. Both datasets hold
    their frames in sorted-id order, so the predictions of a frame form one
    run of rows."""
    index = {fid: f for f, fid in enumerate(gts.frame_ids)}
    frame = np.repeat(np.array([index[fid] for fid in preds.frame_ids], dtype=np.intp),
                      np.diff(preds.offsets))
    width = np.diff(gts.offsets)[frame]
    start = np.cumsum(width) - width
    pred = np.repeat(np.arange(len(frame)), width)
    gt = np.arange(len(pred)) + (gts.offsets[frame] - start)[pred]
    return pred, gt, frame


def _in_chunks(kernel: Callable[[slice], np.ndarray], size: int) -> np.ndarray:
    """The ``[size]`` values of ``kernel(positions)``, computed a bounded
    slice of positions at a time."""
    out = np.empty(size)
    for start in range(0, size, _CHUNK_PAIRS):
        chunk = slice(start, start + _CHUNK_PAIRS)
        out[chunk] = kernel(chunk)
    return out


def _match(preds: Dataset, gts: Dataset, pairs: tuple[np.ndarray, ...], ranked: np.ndarray,
           gt_areas: np.ndarray, params: OksParams,
           threshold: float) -> list[tuple[int, int, float]]:
    """Greedy OKS matching over the :func:`_pair_table` ``pairs``: the (pred
    row, gt row, oks) matches in matching order. Each prediction, in the
    ``ranked`` order (:func:`~panopose.geometry._ranking`), takes the
    unmatched ground truth of its frame with the highest OKS, the first of
    equals, when that OKS >= threshold. OKS is undefined, so never matches,
    for a person without a pose and for a ground truth with no labeled
    keypoint (one without a pose holds zeros).

    Only the other pairs within reach of the threshold get an OKS, in
    bounded chunks. Each labeled distance is at least the gap g between the
    box of the prediction's K keypoints and the box of the ground truth's
    labeled ones, so OKS <= exp(-g^2 / max_i scale_i): a pair whose g^2
    exceeds -ln(threshold) * max_i scale_i, widened by a relative margin of
    1e-6 (and 1e-9) far beyond rounding, is skipped. None is skipped below a
    threshold of 1e-300, where OKS near it loses relative precision. The
    greedy pass walks, on lists, each prediction's pairs with OKS >=
    threshold in ground-truth order: no other pair can be taken or beat one
    of them, so the matches are those of computing every pair."""
    pred, gt, _ = pairs
    labeled = gts.keypoints[:, :, 2] > 0
    usable = preds.has_pose[pred] & labeled.any(axis=1)[gt]
    paired = np.flatnonzero(np.bincount(gt[usable], minlength=len(labeled)))
    try:
        scale, num_labeled = _oks_setup(preds.keypoints, gts.keypoints, labeled, params, gt_areas,
                                        paired)
    except RowError as exc:
        fid = gts.frame_ids[int(np.searchsorted(gts.offsets, exc.row, side="right")) - 1]
        raise ValidationError(f"frame {fid!r}: {exc}") from exc

    reach = -math.log(threshold) * (1.0 + 1e-6) + 1e-9 if threshold > 1e-300 else math.inf
    pred_box = _extents(preds.keypoints, np.ones(preds.keypoints.shape[:2], dtype=bool))
    gt_box = _extents(gts.keypoints, labeled)
    gap2 = 0.0  # the squared gap, x then y as the kernel adds them
    # Overflow is inf, as in the kernel: such a gap is out of reach, and
    # such a limit keeps every pair.
    with np.errstate(over="ignore"):
        for lo, hi in ((0, 2), (1, 3)):
            gap = np.maximum(np.maximum(gt_box[lo][gt] - pred_box[hi][pred],
                                        pred_box[lo][pred] - gt_box[hi][gt]), 0.0)
            gap2 = gap2 + gap * gap
        limit = (reach * scale).max(axis=1, initial=-np.inf)
    near = np.flatnonzero(usable & (gap2 <= limit[gt]))
    p, g = pred[near], gt[near]
    sim = _in_chunks(lambda chunk: _oks(
        preds.keypoints[p[chunk]], gts.keypoints[g[chunk]], scale[g[chunk]], labeled[g[chunk]],
        num_labeled[g[chunk]]), len(near))
    hit = sim >= threshold
    # The pairs stay in table order, so prediction q's hits are the run
    # bounds[q]:bounds[q + 1].
    bounds = np.searchsorted(p[hit], np.arange(len(preds.ids) + 1)).tolist()
    hit_gt, hit_sim = g[hit].tolist(), sim[hit].tolist()
    taken = [False] * len(gts.ids)
    matches = []
    for q in ranked.tolist():
        best = -1.0  # below every OKS; ``>`` keeps the first of equals
        for k in range(bounds[q], bounds[q + 1]):
            if hit_sim[k] > best and not taken[hit_gt[k]]:
                best, c = hit_sim[k], hit_gt[k]
        if best >= 0.0:
            taken[c] = True
            matches.append((q, c, best))
    return matches


def _check_pair(preds: Dataset, gts: Dataset) -> None:
    if preds.schema_id != gts.schema_id:
        raise ValidationError(
            f"schema mismatch: predictions {preds.schema_id!r} vs "
            f"ground truth {gts.schema_id!r}"
        )
    if preds.pano != gts.pano:
        raise ValidationError("panorama mismatch between predictions and ground truth")
    extra = sorted(set(preds.frame_ids) - set(gts.frame_ids))
    if extra:
        raise ValidationError(f"prediction frames missing from ground truth: {extra}")
    if not preds.has_score.all():
        row = int(preds.has_score.argmin())
        raise ValidationError(
            f"prediction without score ({_where(preds.frame_ids, preds.offsets, row)})"
        )


def _ap_101(tp_flags: Sequence[bool], num_gt: int) -> float:
    if num_gt == 0:
        return 1.0 if not len(tp_flags) else 0.0
    if not len(tp_flags):
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
        _check_ospa_params(self.ospa_cutoff, self.ospa_order)


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
            "per_frame": {fid: dict(vars(s)) for fid, s in sorted(self.per_frame.items())},
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

    pred_boxes = _located_matching_boxes(preds, "predictions: ")
    gt_boxes = _located_matching_boxes(gts, "ground truth: ")
    pairs = _pair_table(preds, gts)
    pred, gt, frame = pairs
    ranked = _ranking(preds.scores)
    matches = _match(preds, gts, pairs, ranked, _areas(gt_boxes), params, config.oks_threshold)
    matched = np.zeros(len(preds.ids), dtype=bool)
    matched[[p for p, _, _ in matches]] = True
    iou = _in_chunks(lambda chunk: _iou(pred_boxes[pred[chunk]], gt_boxes[gt[chunk]]), len(pred))
    capped = _capped(1.0 - iou, config.ospa_cutoff, config.ospa_order)
    num_preds = np.bincount(frame, minlength=len(gts.frame_ids)).tolist()
    num_matched = np.bincount(frame[matched], minlength=len(gts.frame_ids)).tolist()
    per_frame: dict[str, FrameStats] = {}
    stop = 0
    # Dataset keeps frames in sorted-id order.
    for fid, m, n, k in zip(gts.frame_ids, num_preds, np.diff(gts.offsets).tolist(), num_matched):
        start, stop = stop, stop + m * n
        per_frame[fid] = FrameStats(
            ospa_iou=_ospa_capped(capped[start:stop].reshape(m, n),
                                  config.ospa_cutoff, config.ospa_order),
            num_predictions=m,
            num_ground_truths=n,
            num_matched=k,
        )

    # Summed in frame order by ``cumsum``: Python 3.12's ``sum`` compensates
    # and can differ in the last bit.
    ospa_values = [stats.ospa_iou for stats in per_frame.values()]
    mean_ospa = float(np.cumsum(ospa_values)[-1] / len(ospa_values)) if ospa_values else 0.0
    ap = _ap_101(matched[ranked], len(gts.ids))

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
    """One row per frame: frame_id, then the :class:`FrameStats` fields."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        names = [f.name for f in fields(FrameStats)]
        stats = attrgetter(*names)
        writer.writerow(["frame_id", *names])
        for fid, s in sorted(report.per_frame.items()):
            writer.writerow([fid, *stats(s)])

"""Panoramic bounding-box geometry.

Pose-derived boxes, horizontal wrap shifts with seam-crossing removal,
continuous IoU, greedy NMS, and the affine crop onto a fixed network input.

Coordinates are continuous pixels. Boxes are half-open real-valued
rectangles with a positive, finite area, so areas and IoU are continuous
quantities rather than pixel counts. The panorama wraps horizontally with
period ``PanoramaSpec.width``; stored boxes never wrap (persons whose shifted
box would cross the seam are dropped by :func:`shift_dataset`).

Each box rule and kernel has one home here, over ``[N, 4]``
``(x1, y1, x2, y2)`` rows, and a single-item function is its one-row case:
:func:`_box_rule` and :func:`_score_rule` check a whole column (a
:class:`BoundingBox`, or a dataset's boxes and scores), :func:`_iou_matrix`
serves :func:`iou`, :func:`_nms_rows` :func:`nms_indices`,
:func:`_matching_boxes` :func:`person_box`, :func:`_pose_bboxes`
:func:`bbox_from_pose`, and :func:`_shift_rows` :func:`shift_dataset` and
:func:`shift_frame`. A kernel checks its parameter (threshold, margin,
shift) on entry, so a bad value is refused even with no rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import RowError, ValidationError

if TYPE_CHECKING:
    from .dataio import Dataset, FrameAnnotations, Person, Pose

__all__ = [
    "CROP_WIDTH",
    "CROP_HEIGHT",
    "DEFAULT_NMS_IOU",
    "DEFAULT_BOX_MARGIN",
    "DEFAULT_CROP_PADDING",
    "BoundingBox",
    "PanoramaSpec",
    "AffineTransform",
    "apply_transform",
    "invert_transform",
    "compose_transforms",
    "bbox_from_pose",
    "person_box",
    "iou",
    "nms",
    "nms_indices",
    "shift_frame",
    "shift_dataset",
    "crop_transform",
]

CROP_WIDTH = 288
CROP_HEIGHT = 384
DEFAULT_NMS_IOU = 0.5
DEFAULT_BOX_MARGIN = 0.1
DEFAULT_CROP_PADDING = 1.25

# _nms_rows takes the IoU rows of this many candidates per call, so its
# memory stays linear in the box count: 64 rows of 2000 boxes are 1 MB.
_NMS_BLOCK = 64

# Extent floor for boxes synthesized from degenerate keypoint sets (a single
# point, or collinear points); keeps the x1 < x2, y1 < y2 invariant intact.
_MIN_EXTENT = 1e-9


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in panorama pixels with a confidence score in [0, 1]."""

    x1: float
    y1: float
    x2: float
    y2: float
    score: float = 1.0

    def __post_init__(self) -> None:
        fields = np.array([[self.x1, self.y1, self.x2, self.y2, self.score]], dtype=np.float64)
        _box_rule(fields)
        _score_rule(fields[:, 4], "box")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x1 + self.x2), 0.5 * (self.y1 + self.y2))


@dataclass(frozen=True)
class PanoramaSpec:
    """Pixel dimensions of the stitched panorama; width is the wrap period."""

    width: float
    height: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.width) and self.width > 0):
            raise ValueError(f"panorama width must be positive, got {self.width!r}")
        if not (math.isfinite(self.height) and self.height > 0):
            raise ValueError(f"panorama height must be positive, got {self.height!r}")


def _box_rule(rows: np.ndarray) -> None:
    """Raise :class:`RowError` for the first of ``[N, M >= 4]`` rows that has
    a non-finite field, or whose first four fields lack ``x1 < x2``,
    ``y1 < y2`` and a positive, finite area."""
    finite = np.isfinite(rows)
    # inf - inf and an overflowing side give NaN or inf, as in Python floats.
    with np.errstate(over="ignore", invalid="ignore"):
        area = _areas(rows)
        valid = finite.all(axis=1) & (rows[:, 0] < rows[:, 2]) & (rows[:, 1] < rows[:, 3])
        valid &= (area > 0.0) & (area < np.inf)
    if valid.all():
        return
    i = int(valid.argmin())
    row = rows[i].tolist()
    if not finite[i].all():
        raise RowError(i, f"non-finite box field {row[int(finite[i].argmin())]!r}")
    x1, y1, x2, y2 = row[:4]
    message = f"area {float(area[i])!r} must be positive and finite"
    raise RowError(i, f"degenerate box ({x1}, {y1}, {x2}, {y2}): {message}")


def _score_rule(scores: np.ndarray, owner: str) -> None:
    """Raise :class:`RowError` for the first of ``[N]`` scores outside [0, 1]."""
    valid = (scores >= 0.0) & (scores <= 1.0)
    if not valid.all():
        i = int(valid.argmin())
        raise RowError(i, f"{owner} score {float(scores[i])} outside [0, 1]")


@dataclass(frozen=True)
class AffineTransform:
    """Row-major 2x3 matrix: (x, y) -> (a*x + b*y + c, d*x + e*y + f)."""

    a: float
    b: float
    c: float
    d: float
    e: float
    f: float

    def __post_init__(self) -> None:
        for v in (self.a, self.b, self.c, self.d, self.e, self.f):
            if not math.isfinite(v):
                raise ValueError(f"non-finite transform coefficient {v!r}")
        if self.determinant == 0.0:
            raise ValueError("singular transform")

    @property
    def determinant(self) -> float:
        return self.a * self.e - self.b * self.d

    @classmethod
    def identity(cls) -> "AffineTransform":
        return cls(1.0, 0.0, 0.0, 0.0, 1.0, 0.0)

    @classmethod
    def translation(cls, dx: float, dy: float) -> "AffineTransform":
        return cls(1.0, 0.0, float(dx), 0.0, 1.0, float(dy))


def apply_transform(t: AffineTransform, point: Sequence[float]) -> tuple[float, float]:
    x, y = point
    return (t.a * x + t.b * y + t.c, t.d * x + t.e * y + t.f)


def invert_transform(t: AffineTransform) -> AffineTransform:
    det = t.determinant
    return AffineTransform(
        t.e / det,
        -t.b / det,
        (t.b * t.f - t.e * t.c) / det,
        -t.d / det,
        t.a / det,
        (t.d * t.c - t.a * t.f) / det,
    )


def compose_transforms(after: AffineTransform, before: AffineTransform) -> AffineTransform:
    """Transform equivalent to applying ``before`` first, then ``after``."""
    return AffineTransform(
        after.a * before.a + after.b * before.d,
        after.a * before.b + after.b * before.e,
        after.a * before.c + after.b * before.f + after.c,
        after.d * before.a + after.e * before.d,
        after.d * before.b + after.e * before.e,
        after.d * before.c + after.e * before.f + after.f,
    )


def _rows(boxes: Sequence[BoundingBox]) -> np.ndarray:
    """``[N, 4]`` ``(x1, y1, x2, y2)`` rows of ``boxes``."""
    return np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=np.float64).reshape(-1, 4)


def _areas(rows: np.ndarray) -> np.ndarray:
    """:attr:`BoundingBox.area` of every row."""
    return (rows[:, 2] - rows[:, 0]) * (rows[:, 3] - rows[:, 1])


def _iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``[P, G]`` continuous IoU of every row of ``a`` against every row of
    ``b``; 0 for disjoint boxes. Each entry is the scalar formula's IEEE
    operations in its order, so :func:`iou` is the 1x1 case bit for bit."""
    # Overflow gives inf as in Python floats: a far-apart pair's negative
    # overlap product, or an area sum, which makes that IoU 0.
    with np.errstate(over="ignore"):
        iw = np.minimum(a[:, None, 2], b[:, 2]) - np.maximum(a[:, None, 0], b[:, 0])
        ih = np.minimum(a[:, None, 3], b[:, 3]) - np.maximum(a[:, None, 1], b[:, 1])
        inter = np.where((iw > 0.0) & (ih > 0.0), iw * ih, 0.0)
        # Positive finite areas keep every union positive.
        return inter / (_areas(a)[:, None] + _areas(b) - inter)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Continuous intersection-over-union; 0 for disjoint boxes."""
    return float(_iou_matrix(_rows([a]), _rows([b]))[0, 0])


def _nms_rows(rows: np.ndarray, scores: np.ndarray, offsets: Sequence[int], iou_threshold: float) -> list[int]:
    """Greedy NMS within each frame ``offsets[f]:offsets[f + 1]`` of ``[N, 4]``
    box rows with ``[N]`` scores: the kept row indices, each frame's in
    score-descending order."""
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou threshold {iou_threshold} outside [0, 1]")
    kept: list[int] = []
    for start, stop in zip(offsets, offsets[1:]):
        boxes = rows[start:stop]
        order = np.argsort(-scores[start:stop], kind="stable").tolist()
        frame_kept: list[int] = []
        for first in range(0, len(order), _NMS_BLOCK):
            block = order[first : first + _NMS_BLOCK]
            overlaps = (_iou_matrix(boxes[block], boxes) >= iou_threshold).tolist()
            for i, overlap in zip(block, overlaps):
                if not any(overlap[j] for j in frame_kept):
                    frame_kept.append(i)
        kept.extend(start + i for i in frame_kept)
    return kept


def nms_indices(dets: Sequence[BoundingBox], iou_threshold: float) -> list[int]:
    """Greedy NMS returning the kept indices, sorted by score descending.

    Repeatedly keeps the highest-score remaining box and discards every
    remaining box whose IoU with it is >= ``iou_threshold``. Score ties are
    broken by original position, so the result is deterministic.
    """
    scores = np.array([d.score for d in dets], dtype=np.float64)
    return _nms_rows(_rows(dets), scores, [0, len(dets)], iou_threshold)


def nms(dets: Sequence[BoundingBox], iou_threshold: float) -> list[BoundingBox]:
    return [dets[i] for i in nms_indices(dets, iou_threshold)]


def _clamped_spans(lo: np.ndarray, hi: np.ndarray, bound: float) -> tuple[np.ndarray, np.ndarray]:
    lo = np.minimum(np.maximum(lo, 0.0), bound)
    hi = np.minimum(np.maximum(hi, 0.0), bound)
    wide = hi - lo >= _MIN_EXTENT
    floor = np.minimum(np.maximum(0.5 * (lo + hi) - 0.5 * _MIN_EXTENT, 0.0), bound - _MIN_EXTENT)
    return np.where(wide, lo, floor), np.where(wide, hi, floor + _MIN_EXTENT)


def _pose_bboxes(keypoints: np.ndarray, margin: float, pano: PanoramaSpec) -> np.ndarray:
    """``[N, 4]`` :func:`bbox_from_pose` rows of ``[N, K, 3]`` poses. Raises
    :class:`RowError` for the first pose with no labeled keypoint."""
    if not (math.isfinite(margin) and margin >= 0):
        raise ValueError(f"margin must be finite and non-negative, got {margin}")
    labeled = keypoints[:, :, 2] > 0
    some = labeled.any(axis=1)
    if not some.all():
        raise RowError(int(some.argmin()), "pose has no visible keypoints")
    x1, y1, x2, y2 = _extents(keypoints, labeled)
    w = x2 - x1
    h = y2 - y1
    x1, x2 = _clamped_spans(x1 - margin * w, x2 + margin * w, pano.width)
    y1, y2 = _clamped_spans(y1 - margin * h, y2 + margin * h, pano.height)
    return np.stack([x1, y1, x2, y2], axis=1)


def bbox_from_pose(pose: "Pose", margin: float, pano: PanoramaSpec) -> BoundingBox:
    """Tight box over the labeled (v > 0) keypoints, padded and clamped to the
    panorama.

    The tight box is grown by ``margin`` times the corresponding side length
    on each of the four sides, then clamped to [0, W] x [0, H]. The returned
    score is 1.
    """
    x1, y1, x2, y2 = _pose_bboxes(pose.keypoints[None], margin, pano)[0].tolist()
    return BoundingBox(x1, y1, x2, y2, score=1.0)


def _pose_boxes(keypoints: np.ndarray) -> np.ndarray:
    """``[N, 4]`` tight boxes of ``[N, K, 3]`` poses by the :func:`person_box`
    rule, unchecked: a row may break the :class:`BoundingBox` rule."""
    labeled = keypoints[:, :, 2] > 0
    x1, y1, x2, y2 = _extents(keypoints, labeled | ~labeled.any(axis=1, keepdims=True))
    # lo + hi may overflow to inf; a floored box built from it then fails
    # the BoundingBox rule, as the scalar rule's did.
    with np.errstate(over="ignore"):
        x1, x2 = _floored_spans(x1, x2)
        y1, y2 = _floored_spans(y1, y2)
    return np.stack([x1, y1, x2, y2], axis=1)


def _extents(keypoints: np.ndarray, used: np.ndarray) -> list[np.ndarray]:
    """Per-pose smallest x and y, then largest x and y, of the ``used`` keypoints."""
    x, y = keypoints[:, :, 0], keypoints[:, :, 1]
    return [np.min(np.where(used, c, np.inf), axis=1, initial=np.inf) for c in (x, y)] + [
        np.max(np.where(used, c, -np.inf), axis=1, initial=-np.inf) for c in (x, y)
    ]


def _floored_spans(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    wide = hi - lo >= _MIN_EXTENT
    mid = 0.5 * (lo + hi)
    return (
        np.where(wide, lo, mid - 0.5 * _MIN_EXTENT),
        np.where(wide, hi, mid + 0.5 * _MIN_EXTENT),
    )


def _matching_boxes(boxes: np.ndarray, has_box: np.ndarray, keypoints: np.ndarray) -> np.ndarray:
    """``[N, 4]`` :func:`person_box` rows of a box column with its has-box
    mask and the ``[N, K, 3]`` poses. Raises :class:`RowError` for the first
    pose box that breaks the :class:`BoundingBox` rule."""
    if has_box.all():
        return boxes
    rows = np.where(has_box[:, None], boxes, _pose_boxes(keypoints))
    _box_rule(rows)  # stored boxes pass it, so a fault is a pose box's
    return rows


def person_box(person: "Person") -> BoundingBox:
    """Box used to match a person: the stored box when present, otherwise the
    tight enclosing box of the pose keypoints (the labeled (v > 0) ones when
    any are labeled, all of them otherwise, with a hair of extent so the box
    is always valid)."""
    if person.box is not None:
        return person.box
    if person.pose is None:
        raise ValueError("person has neither box nor pose")
    x1, y1, x2, y2 = _pose_boxes(person.pose.keypoints[None])[0].tolist()
    return BoundingBox(x1, y1, x2, y2, score=1.0)


def _shift_rows(boxes: np.ndarray, has_box: np.ndarray, keypoints: np.ndarray, shift: float,
                width: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The :func:`shift_frame` rule over columns: the ``[N]`` mask of persons
    whose matching box stays off the seam, and the shifted ``[N, 4]`` boxes and
    ``[N, K, 3]`` keypoints of every row."""
    if not math.isfinite(shift):
        raise ValueError(f"shift must be finite, got {shift}")
    w = float(width)
    s = float(shift) % w
    if s == 0.0:
        return np.ones(len(boxes), dtype=bool), boxes, keypoints
    ref = _matching_boxes(boxes, has_box, keypoints)
    keep = ~(np.remainder(ref[:, 0] + s, w) + (ref[:, 2] - ref[:, 0]) > w)
    x1 = np.remainder(boxes[:, 0] + s, w)
    boxes = np.stack([x1, boxes[:, 1], x1 + (boxes[:, 2] - boxes[:, 0]), boxes[:, 3]], axis=1)
    keypoints = keypoints.copy()
    keypoints[:, :, 0] = np.remainder(keypoints[:, :, 0] + s, w)
    return keep, boxes, keypoints


def shift_frame(frame: "FrameAnnotations", shift: float, pano: PanoramaSpec) -> "FrameAnnotations":
    """Cyclically shift all x coordinates by ``shift`` pixels (mod width).

    Persons whose box would cross the panorama seam after the shift are
    removed from the frame; y coordinates are unchanged. ``shift`` is reduced
    modulo the panorama width first, so 0 and any multiple of the width are
    exact identities.
    """
    from .dataio import _person_columns

    c = _person_columns(frame.persons)
    keep, boxes, keypoints = _shift_rows(c["boxes"], c["has_box"], c["keypoints"], shift, pano.width)
    persons = [
        replace(p, box=p.box and replace(p.box, x1=x1, x2=x2),
                pose=p.pose and replace(p.pose, keypoints=kps))
        for p, kept, (x1, _, x2, _), kps in zip(frame.persons, keep, boxes.tolist(), keypoints)
        if kept
    ]
    return replace(frame, persons=tuple(persons))


def shift_dataset(ds: "Dataset", shift: float) -> "Dataset":
    from .dataio import _where

    try:
        keep, boxes, keypoints = _shift_rows(ds.boxes, ds.has_box, ds.keypoints, shift, ds.pano.width)
    except RowError as exc:
        where = _where(ds.frame_ids, ds.offsets, exc.row)
        raise ValidationError(f"{where}: {exc}") from exc
    return ds._with(keep.nonzero()[0], boxes=boxes, keypoints=keypoints)


def _check_crop(out_w: int, out_h: int, padding: float) -> None:
    if out_w <= 0 or out_h <= 0:
        raise ValueError(f"crop width and height must be positive, got {out_w}x{out_h}")
    if not (math.isfinite(padding) and padding > 0):
        raise ValueError(f"padding must be finite and positive, got {padding}")


def crop_transform(
    box: BoundingBox,
    out_w: int = CROP_WIDTH,
    out_h: int = CROP_HEIGHT,
    padding: float = DEFAULT_CROP_PADDING,
) -> AffineTransform:
    """Axis-aligned transform mapping a padded box onto [0, out_w) x [0, out_h).

    The box is first expanded about its center until its aspect ratio equals
    out_w:out_h (only the deficient dimension grows; an exact aspect match is
    left untouched), then scaled by ``padding`` about the center, and the
    result is mapped onto the output rectangle. No rotation.
    """
    _check_crop(out_w, out_h, padding)
    w = box.width
    h = box.height
    if w <= 0 or h <= 0:
        raise ValueError("degenerate box")
    # Cross-multiplied comparison keeps the exact-aspect tie exact.
    if w * out_h < h * out_w:
        w = h * (out_w / out_h)
    elif w * out_h > h * out_w:
        h = w * (out_h / out_w)
    w *= padding
    h *= padding
    cx, cy = box.center
    sx = out_w / w
    sy = out_h / h
    return AffineTransform(sx, 0.0, -(cx - 0.5 * w) * sx, 0.0, sy, -(cy - 0.5 * h) * sy)

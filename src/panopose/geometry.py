"""Panoramic bounding-box geometry.

Pose-derived boxes, horizontal wrap shifts with seam-crossing removal,
continuous IoU, greedy NMS, and the affine crop onto a fixed network input.

Coordinates are continuous pixels. Boxes are half-open real-valued
rectangles with a positive, finite area, so areas and IoU are continuous
quantities rather than pixel counts. The panorama wraps horizontally with
period W = ``PanoramaSpec.width``; :func:`_wrap` takes x modulo W into [0, W).
Stored boxes never wrap (:func:`shift_dataset` drops the persons it would
move across the seam).

Every function takes a :class:`~panopose.dataio.Dataset` or arrays as it
holds them: boxes are ``[N, 4]`` ``(x1, y1, x2, y2)`` rows and affine transforms are
``[..., 2, 3]`` arrays, row-major ``(x, y) -> (a*x + b*y + c, d*x + e*y + f)``.
Each rule has one home here. :func:`_box_rule` and :func:`_score_rule` check a
column of boxes or scores, and :func:`_transform_rule` a stack of
transforms; a public function runs them once on the input it takes, and its
private kernel (:func:`_iou`, :func:`_nms_rows`, :func:`_inverse`,
:func:`_apply`) does not. :func:`_matching_boxes` is the box a person is
matched by, :func:`_pose_bboxes` the box rule of ``boxes-from-poses``, and
:func:`_ranking` the score ranking of NMS, matching and AP.
A function checks its parameters (threshold, margin, shift, crop size,
padding) on entry, so a bad value is refused even with no rows. One rule
words each kind of refusal: an array argument's shape (:func:`_shaped`, also
run by :class:`~panopose.dataio.Dataset`), a parameter's interval
(``errors._check_number``), a column's first failing row (``errors._first``)
and that row's frame and person (``errors._located``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from ._defaults import DEFAULT_CROP_PADDING
from .errors import RowError, ValidationError, _check_number, _first, _kind, _located

if TYPE_CHECKING:
    from .dataio import Dataset

# crop_transform's default output: the 384 x 288 network input.
CROP_WIDTH = 288
CROP_HEIGHT = 384

# _nms_rows takes the IoU rows of this many candidates per call, so its
# memory stays linear in the box count: 64 rows of 2000 boxes are 1 MB.
_NMS_BLOCK = 64

# Extent floor for boxes synthesized from degenerate keypoint sets (a single
# point, or collinear points); keeps the x1 < x2, y1 < y2 invariant intact.
_MIN_EXTENT = 1e-9


@dataclass(frozen=True)
class PanoramaSpec:
    """Pixel dimensions of the stitched panorama; width is the wrap period."""

    width: float
    height: float

    def __post_init__(self) -> None:
        _check_number("panorama width", self.width)
        _check_number("panorama height", self.height)


def _shaped(name: str, value: Any, shape: tuple, dtype: Any = np.float64) -> np.ndarray:
    """``value`` as an array of ``dtype`` and of ``shape``, in which an int
    is a fixed length, a string names a length that may be any, and a
    leading ``...`` stands for any leading axes; another shape raises
    ``ValidationError("<name> must be [<shape>], got shape S")``, and a value
    numpy cannot convert ``ValidationError("<name> must be [<shape>] numbers
    (<numpy's reason>)")``."""
    words = ", ".join("..." if n is ... else str(n) for n in shape)
    try:
        array = np.asarray(value, dtype=dtype)
    except (TypeError, ValueError) as exc:  # not a number, or rows of unequal lengths
        raise ValidationError(f"{name} must be [{words}] numbers ({exc})") from None
    tail = shape[1:] if shape[0] is ... else shape
    dims = array.shape[array.ndim - len(tail):] if shape[0] is ... else array.shape
    if len(dims) != len(tail) or any(type(n) is int and n != d for n, d in zip(tail, dims)):
        raise ValidationError(f"{name} must be [{words}], got shape {array.shape}")
    return array


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


def _box_rows(boxes: Any) -> np.ndarray:
    """``boxes`` as ``[N, 4]`` ``float64`` rows, checked by :func:`_box_rule`."""
    rows = _shaped("boxes", boxes, ("N", 4))
    _box_rule(rows)
    return rows


def _transform_rule(transforms: np.ndarray) -> None:
    """Raise :class:`RowError` for the first of ``[..., 2, 3]`` transforms
    (counted over the leading axes) with a non-finite coefficient or a zero
    determinant ``a*e - b*d``."""
    flat = transforms.reshape(-1, 6)
    finite = np.isfinite(flat)
    with np.errstate(over="ignore", invalid="ignore"):
        valid = finite.all(axis=1) & (flat[:, 0] * flat[:, 4] - flat[:, 1] * flat[:, 3] != 0.0)
    if valid.all():
        return
    i = int(valid.argmin())
    if not finite[i].all():
        raise RowError(i, f"non-finite transform coefficient {flat[i].tolist()[int(finite[i].argmin())]!r}")
    raise RowError(i, "singular transform")


def _transforms(transforms: Any) -> np.ndarray:
    """``transforms`` as a ``[..., 2, 3]`` ``float64`` array, checked by
    :func:`_transform_rule`."""
    t = _shaped("transforms", transforms, (..., 2, 3))
    _transform_rule(t)
    return t


def _apply(t: np.ndarray, x: Any, y: Any) -> tuple[np.ndarray, np.ndarray]:
    """The images of points ``(x, y)`` under ``[..., 2, 3]`` transforms ``t``."""
    return (t[..., 0, 0] * x + t[..., 0, 1] * y + t[..., 0, 2],
            t[..., 1, 0] * x + t[..., 1, 1] * y + t[..., 1, 2])


def _inverse(t: np.ndarray) -> np.ndarray:
    """The inverses of ``[..., 2, 3]`` transforms, unchecked: overflow gives
    inf and a zero determinant inf or NaN, so call it under ``np.errstate``."""
    (a, b, c), (d, e, f) = np.moveaxis(t, (-2, -1), (0, 1))
    det = a * e - b * d
    return np.stack([np.stack([e / det, -b / det, (b * f - e * c) / det], axis=-1),
                     np.stack([-d / det, a / det, (d * c - a * f) / det], axis=-1)], axis=-2)


def apply_transform(transforms: Any, points: Any) -> np.ndarray:
    """``[..., 2]`` images of ``[..., 2]`` ``(x, y)`` points under ``[..., 2, 3]``
    transforms; the leading axes broadcast."""
    p = _shaped("points", points, (..., 2))
    return np.stack(_apply(_transforms(transforms), p[..., 0], p[..., 1]), axis=-1)


def invert_transform(transforms: Any) -> np.ndarray:
    """The ``[..., 2, 3]`` inverses of ``[..., 2, 3]`` transforms. An input
    or inverse with a non-finite coefficient or a zero determinant raises
    :class:`ValueError`."""
    t = _transforms(transforms)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        inverse = _inverse(t)
    _transform_rule(inverse)
    return inverse


def _areas(rows: np.ndarray) -> np.ndarray:
    """Width times height of every ``[..., 4]`` box row."""
    return (rows[..., 2] - rows[..., 0]) * (rows[..., 3] - rows[..., 1])


def _iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Continuous IoU of broadcast ``[..., 4]`` box rows ``a`` and ``b``; 0
    for disjoint boxes. Each entry is the scalar formula's IEEE operations
    in its order."""
    # Overflow gives inf as in Python floats: a far-apart pair's negative
    # overlap product, or an area sum, which makes that IoU 0.
    with np.errstate(over="ignore"):
        iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
        ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
        inter = np.where((iw > 0.0) & (ih > 0.0), iw * ih, 0.0)
        # Positive finite areas keep every union positive.
        return inter / (_areas(a) + _areas(b) - inter)


def iou(a: Any, b: Any) -> np.ndarray:
    """``[P, G]`` continuous intersection-over-union of ``[P, 4]`` box rows
    against ``[G, 4]`` box rows; 0 for disjoint boxes."""
    return _iou(_box_rows(a)[:, None], _box_rows(b))


def _ranking(scores: np.ndarray) -> np.ndarray:
    """Row indices of ``[N]`` scores in descending score, ties by row: the
    one ranking of NMS (per frame), greedy matching and AP. Dataset rows are
    in (frame id, index) order, so dataset ties go by frame id, then index."""
    return np.argsort(-scores, kind="stable")


def _nms_rows(rows: np.ndarray, scores: np.ndarray, offsets: Sequence[int], iou_threshold: float) -> list[int]:
    """Greedy NMS within each frame ``offsets[f]:offsets[f + 1]`` of ``[N, 4]``
    box rows with ``[N]`` scores: the kept row indices, each frame's in
    score-descending order."""
    _check_number("iou threshold", iou_threshold, 0.0, 1.0, closed=True)
    kept: list[int] = []
    for start, stop in zip(offsets, offsets[1:]):
        boxes = rows[start:stop]
        order = _ranking(scores[start:stop]).tolist()
        frame_kept: list[int] = []
        for first in range(0, len(order), _NMS_BLOCK):
            block = order[first : first + _NMS_BLOCK]
            overlaps = (_iou(boxes[block][:, None], boxes) >= iou_threshold).tolist()
            for i, overlap in zip(block, overlaps):
                if not any(overlap[j] for j in frame_kept):
                    frame_kept.append(i)
        kept.extend(start + i for i in frame_kept)
    return kept


def nms(boxes: Any, scores: Any, iou_threshold: float) -> np.ndarray:
    """Greedy NMS over ``[N, 4]`` box rows with ``[N]`` scores in [0, 1]: the
    kept row indices, sorted by score descending.

    Repeatedly keeps the highest-score remaining box and discards every
    remaining box whose IoU with it is >= ``iou_threshold``. Score ties are
    broken by original position, so the result is deterministic.
    """
    rows = _box_rows(boxes)
    scores = _shaped("scores", scores, (len(rows),))
    _score_rule(scores, "box")
    return np.array(_nms_rows(rows, scores, [0, len(rows)], iou_threshold), dtype=np.intp)


def _clamped_spans(lo: np.ndarray, hi: np.ndarray, bound: float) -> tuple[np.ndarray, np.ndarray]:
    lo = np.minimum(np.maximum(lo, 0.0), bound)
    hi = np.minimum(np.maximum(hi, 0.0), bound)
    wide = hi - lo >= _MIN_EXTENT
    floor = np.minimum(np.maximum(0.5 * (lo + hi) - 0.5 * _MIN_EXTENT, 0.0), bound - _MIN_EXTENT)
    return np.where(wide, lo, floor), np.where(wide, hi, floor + _MIN_EXTENT)


def _pose_bboxes(keypoints: np.ndarray, margin: float, pano: PanoramaSpec) -> np.ndarray:
    """``[N, 4]`` boxes of ``[N, K, 3]`` poses: the tight box over the labeled
    (v > 0) keypoints, grown by ``margin`` times its side length on each of
    the four sides, then clamped to [0, W] x [0, H]. Raises
    :class:`RowError` for the first pose with no labeled keypoint."""
    _check_number("margin", margin, closed=True)
    labeled = keypoints[:, :, 2] > 0
    _first(labeled.any(axis=1), "pose has no visible keypoints")
    x1, y1, x2, y2 = _extents(keypoints, labeled)
    w = x2 - x1
    h = y2 - y1
    x1, x2 = _clamped_spans(x1 - margin * w, x2 + margin * w, pano.width)
    y1, y2 = _clamped_spans(y1 - margin * h, y2 + margin * h, pano.height)
    return np.stack([x1, y1, x2, y2], axis=1)


def _pose_boxes(keypoints: np.ndarray) -> np.ndarray:
    """``[N, 4]`` tight boxes of ``[N, K, 3]`` poses by the
    :func:`_matching_boxes` rule, unchecked: a row may break
    :func:`_box_rule`."""
    labeled = keypoints[:, :, 2] > 0
    x1, y1, x2, y2 = _extents(keypoints, labeled | ~labeled.any(axis=1, keepdims=True))
    # lo + hi may overflow to inf; a floored box built from it then fails
    # _box_rule, as the scalar rule's did.
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
    """``[N, 4]`` boxes the persons are matched by, from a box column with its
    has-box mask and the ``[N, K, 3]`` poses: the stored box when present,
    otherwise the tight enclosing box of the pose keypoints (the labeled
    (v > 0) ones when any are labeled, all of them otherwise, with a hair of
    extent so the box is always valid). Raises :class:`RowError` for the
    first pose box that breaks :func:`_box_rule`."""
    if has_box.all():
        return boxes
    rows = np.where(has_box[:, None], boxes, _pose_boxes(keypoints))
    _box_rule(rows)  # stored boxes pass it, so a fault is a pose box's
    return rows


def _wrap(x: Any, w: float) -> np.ndarray:
    """``x`` modulo the panorama width ``w`` in [0, w), the one wrap rule of x:
    a remainder that rounds up to ``w`` (that of a tiny negative ``x``) is 0."""
    r = np.remainder(x, w)
    return np.where(r < w, r, 0.0)


def shift_dataset(ds: "Dataset", shift: float) -> "Dataset":
    """Cyclically shift all x coordinates by ``shift`` pixels, taking each sum
    modulo the panorama width W into [0, W) by :func:`_wrap`. The shift itself
    is wrapped first, so one that wraps to 0 (a multiple of W, or -1e-20) is
    the identity. Persons whose matching box would end beyond W, across the seam,
    are removed; y coordinates are unchanged."""
    from .dataio import Dataset

    w = float(_kind("ds", ds, Dataset).pano.width)
    s = _wrap(_check_number("shift", shift, -math.inf), w)
    if s == 0.0:
        return ds
    ref = _located(ds.frame_ids, ds.offsets, _matching_boxes, ds.boxes, ds.has_box, ds.keypoints)
    x1 = _wrap(ref[:, 0] + s, w)  # a stored box is its own matching box; _with zeroes the rest
    x2 = x1 + (ref[:, 2] - ref[:, 0])
    keypoints = ds.keypoints.copy()
    keypoints[:, :, 0] = _wrap(keypoints[:, :, 0] + s, w)
    return ds._with((x2 <= w).nonzero()[0], boxes=np.stack([x1, ref[:, 1], x2, ref[:, 3]], axis=1),
                    keypoints=keypoints)


def crop_transform(
    boxes: Any,
    out_w: float = CROP_WIDTH,
    out_h: float = CROP_HEIGHT,
    padding: float = DEFAULT_CROP_PADDING,
) -> np.ndarray:
    """``[N, 2, 3]`` axis-aligned transforms, each mapping a padded row of
    ``[N, 4]`` boxes onto [0, out_w) x [0, out_h).

    A box is first expanded about its center until its aspect ratio equals
    out_w:out_h (only the deficient dimension grows; an exact aspect match is
    left untouched), then scaled by ``padding`` about the center, and the
    result is mapped onto the output rectangle. No rotation. Raises
    :class:`RowError` for the first box whose transform or its inverse has a
    non-finite coefficient or is singular.
    """
    _check_number("crop width", out_w)
    _check_number("crop height", out_h)
    _check_number("padding", padding)
    rows = _box_rows(boxes)
    x1, y1, x2, y2 = rows.T
    # A huge box or padding overflows to inf and then NaN, which the
    # transform rule below reports.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w = x2 - x1
        h = y2 - y1
        # Cross-multiplied comparison keeps the exact-aspect tie exact.
        w, h = (np.where(w * out_h < h * out_w, h * (out_w / out_h), w) * padding,
                np.where(w * out_h > h * out_w, w * (out_h / out_w), h) * padding)
        sx = out_w / w
        sy = out_h / h
        zero = np.zeros(len(rows))
        crops = np.stack([sx, zero, -(0.5 * (x1 + x2) - 0.5 * w) * sx,
                          zero, sy, -(0.5 * (y1 + y2) - 0.5 * h) * sy], axis=1).reshape(-1, 2, 3)
        both = np.stack([crops, _inverse(crops)], axis=1)
    try:
        _transform_rule(both)
    except RowError as exc:
        raise RowError(exc.row // 2, f"padding {float(padding)!r} gives a {exc}") from exc
    return crops

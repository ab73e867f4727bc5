"""Panoramic bounding-box geometry.

Pose-derived boxes, horizontal wrap shifts with seam-crossing removal,
continuous IoU, greedy NMS, and the affine crop onto a fixed network input.

Coordinates are continuous pixels. Boxes are half-open real-valued
rectangles, so areas and IoU are continuous quantities rather than pixel
counts. The panorama wraps horizontally with period ``PanoramaSpec.width``;
stored boxes never wrap (persons whose shifted box would cross the seam are
dropped by :func:`shift_frame`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

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
        for v in (self.x1, self.y1, self.x2, self.y2, self.score):
            if not math.isfinite(v):
                raise ValueError(f"non-finite box field {v!r}")
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise ValueError(
                f"degenerate box ({self.x1}, {self.y1}, {self.x2}, {self.y2})"
            )
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"box score {self.score} outside [0, 1]")

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


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Continuous intersection-over-union; 0 for disjoint boxes."""
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


def nms_indices(dets: Sequence[BoundingBox], iou_threshold: float) -> list[int]:
    """Greedy NMS returning the kept indices, sorted by score descending.

    Repeatedly keeps the highest-score remaining box and discards every
    remaining box whose IoU with it is >= ``iou_threshold``. Score ties are
    broken by original position, so the result is deterministic.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou threshold {iou_threshold} outside [0, 1]")
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    kept: list[int] = []
    for i in order:
        if all(iou(dets[i], dets[j]) < iou_threshold for j in kept):
            kept.append(i)
    return kept


def nms(dets: Sequence[BoundingBox], iou_threshold: float) -> list[BoundingBox]:
    return [dets[i] for i in nms_indices(dets, iou_threshold)]


def _floored_span(lo: float, hi: float) -> tuple[float, float]:
    if hi - lo >= _MIN_EXTENT:
        return lo, hi
    mid = 0.5 * (lo + hi)
    return mid - 0.5 * _MIN_EXTENT, mid + 0.5 * _MIN_EXTENT


def _clamped_span(lo: float, hi: float, bound: float) -> tuple[float, float]:
    lo = min(max(lo, 0.0), bound)
    hi = min(max(hi, 0.0), bound)
    if hi - lo >= _MIN_EXTENT:
        return lo, hi
    mid = 0.5 * (lo + hi)
    lo = min(max(mid - 0.5 * _MIN_EXTENT, 0.0), bound - _MIN_EXTENT)
    return lo, lo + _MIN_EXTENT


def bbox_from_pose(pose: "Pose", margin: float, pano: PanoramaSpec) -> BoundingBox:
    """Tight box over the labeled (v > 0) keypoints, padded and clamped to the
    panorama.

    The tight box is grown by ``margin`` times the corresponding side length
    on each of the four sides, then clamped to [0, W] x [0, H]. The returned
    score is 1.
    """
    if margin < 0:
        raise ValueError(f"margin must be non-negative, got {margin}")
    kps = pose.keypoints
    pts = kps[kps[:, 2] > 0]
    if not len(pts):
        raise ValueError("pose has no visible keypoints")
    x1, y1, _ = np.minimum.reduce(pts).tolist()
    x2, y2, _ = np.maximum.reduce(pts).tolist()
    w = x2 - x1
    h = y2 - y1
    x1, x2 = _clamped_span(x1 - margin * w, x2 + margin * w, pano.width)
    y1, y2 = _clamped_span(y1 - margin * h, y2 + margin * h, pano.height)
    return BoundingBox(x1, y1, x2, y2, score=1.0)


def person_box(person: "Person") -> BoundingBox:
    """Box used to match a person: the stored box when present, otherwise the
    tight enclosing box of the pose keypoints (the labeled (v > 0) ones when
    any are labeled, all of them otherwise, with a hair of extent so the box
    is always valid)."""
    if person.box is not None:
        return person.box
    if person.pose is None:
        raise ValueError("person has neither box nor pose")
    kps = person.pose.keypoints
    pts = kps[kps[:, 2] > 0]
    if not len(pts):
        pts = kps
    x1, y1, _ = np.minimum.reduce(pts).tolist()
    x2, y2, _ = np.maximum.reduce(pts).tolist()
    x1, x2 = _floored_span(x1, x2)
    y1, y2 = _floored_span(y1, y2)
    return BoundingBox(x1, y1, x2, y2, score=1.0)


def shift_frame(frame: "FrameAnnotations", shift: float, pano: PanoramaSpec) -> "FrameAnnotations":
    """Cyclically shift all x coordinates by ``shift`` pixels (mod width).

    Persons whose box would cross the panorama seam after the shift are
    removed from the frame; y coordinates are unchanged. ``shift`` is reduced
    modulo the panorama width first, so 0 and any multiple of the width are
    exact identities.
    """
    w = float(pano.width)
    s = float(shift) % w
    if s == 0.0:
        return frame
    persons = []
    for person in frame.persons:
        ref = person_box(person)
        new_x1 = (ref.x1 + s) % w
        if new_x1 + (ref.x2 - ref.x1) > w:
            continue  # box would span the seam
        box = person.box
        if box is not None:
            bx1 = (box.x1 + s) % w
            box = replace(box, x1=bx1, x2=bx1 + (box.x2 - box.x1))
        pose = person.pose
        if pose is not None:
            kps = pose.keypoints.copy()
            kps[:, 0] = np.remainder(kps[:, 0] + s, w)
            pose = replace(pose, keypoints=kps)
        persons.append(replace(person, box=box, pose=pose))
    return replace(frame, persons=tuple(persons))


def shift_dataset(ds: "Dataset", shift: float) -> "Dataset":
    frames = tuple(shift_frame(f, shift, ds.pano) for f in ds.frames)
    return replace(ds, frames=frames)


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
    if out_w <= 0 or out_h <= 0:
        raise ValueError(f"output size must be positive, got {out_w}x{out_h}")
    if not padding > 0:
        raise ValueError(f"padding must be positive, got {padding}")
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

"""Heatmap grids to keypoints.

Per keypoint: argmax cell (row-major first occurrence on ties), quarter-cell
refinement toward the larger axis neighbor (only when both neighbors exist),
then back-projection through the inverse crop transform. Grid cell
(row i, col j) is centered at crop coordinate ((j + 0.5) * stride,
(i + 0.5) * stride). One detection's K keypoints are decoded together in
array operations; a NaN or infinite grid maximum is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import LABELED_VISIBLE, Pose
from .errors import ValidationError
from .geometry import AffineTransform, apply_transform, invert_transform

__all__ = ["HeatmapStack", "decode_heatmaps"]


@dataclass(frozen=True, eq=False)
class HeatmapStack:
    """K per-keypoint score grids plus the crop-pixels-per-cell stride."""

    values: np.ndarray  # (K, h, w)
    stride: float

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        # f32 and f64 grids are kept as a read-only view: float64 holds every
        # float32 exactly, so peaks, comparisons and confidences are the same.
        # Anything else converts, so int64 values above 2**53 tie as in float64.
        if values.dtype not in (np.float32, np.float64):
            values = values.astype(np.float64)
        values = values.view()
        if values.ndim != 3:
            raise ValueError(f"heatmaps must be K x h x w, got shape {values.shape}")
        k, h, w = values.shape
        if k < 1 or h < 1 or w < 1:
            raise ValueError(f"empty grid: shape {values.shape}")
        _check_stride(self.stride)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "stride", float(self.stride))


def _check_stride(stride: float) -> None:
    if not (math.isfinite(stride) and stride > 0):
        raise ValueError(f"stride must be positive, got {stride!r}")


def decode_heatmaps(
    stack: HeatmapStack, crop: AffineTransform
) -> tuple[Pose, np.ndarray]:
    """Decode one detection's heatmaps into panorama coordinates.

    Returns the pose (all keypoints marked visible) and the per-keypoint
    confidence vector, which is the grid maximum for each keypoint. A grid
    whose maximum is NaN or infinite raises :class:`ValidationError`.
    """
    k, h, w = stack.values.shape
    flat = stack.values.reshape(k, h * w)
    rows = np.arange(k)
    cell = flat.argmax(axis=1)  # first maximum = smallest row-major index
    peaks = flat[rows, cell]
    finite = np.isfinite(peaks)
    if not finite.all():
        bad = int(finite.argmin())
        raise ValidationError(f"keypoint {bad}: heatmap peak is {peaks[bad]}")
    i, j = np.divmod(cell, w)
    # Flat index steps to the axis neighbours; 0 where one is missing, which
    # compares the peak with itself and so leaves that axis unrefined.
    step = np.stack([np.where((0 < j) & (j < w - 1), 1, 0),
                     np.where((0 < i) & (i < h - 1), w, 0)])
    before, after = flat[rows, cell - step], flat[rows, cell + step]
    dx, dy = np.where(after > before, 0.25, np.where(after < before, -0.25, 0.0))
    x, y = apply_transform(
        invert_transform(crop), ((j + 0.5 + dx) * stack.stride, (i + 0.5 + dy) * stack.stride)
    )
    keypoints = np.stack([x, y, np.full(k, float(LABELED_VISIBLE))], axis=1)
    return Pose(keypoints), peaks.astype(np.float64)
